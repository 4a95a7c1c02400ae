"""Sharded reactive nodes: one facade, N engine shards (Thesis 12).

The paper's scalability thesis demands that reactive rules keep up with
Web-sized event traffic.  A single :class:`~repro.core.engine.ReactiveEngine`
eventually saturates no matter how good its dispatch index is, so this
module partitions one node's *rule base* across N independent engine
shards while keeping the node observationally identical to the
single-engine baseline — same answers, same firing order, property-tested
(`tests/properties/test_shard_equivalence.py`, experiment E16).

How rules are partitioned
-------------------------

The router reuses the discrimination net's partition keys
(:func:`repro.events.queries.query_interest`):

1. **Root label** — each label is assigned a *home shard* greedily
   (heaviest label first, least-loaded shard), so disjoint-label rule
   fleets spread evenly and every event of a label finds all its rules on
   one shard.
2. **Trie prefix** — every *hot* label that alone outweighs a fair share
   of the rule base (more rules than ``total / shards``) and whose rules
   discriminate on a shared axis (the same ``(kind, key)`` axes the
   in-engine discrimination trie splits on, e.g. ``stock[sym: "ACME"]``
   or a constant child) is *split*: each constant value on the label's
   most selective axis gets its own shard, so even a single-label fleet
   scales out, and several labels may split independently.  Child axes
   can be *ambiguous* on the event side (several same-label children,
   structured content); such an event is delivered to every shard with a
   per-copy ``fire`` set naming the rules that shard is time-primary
   for, so every interested rule still fires exactly once and the global
   merge restores installation order.

Rules whose interest spans shards are **replicated** with firing dedup:

- wildcard rules (label variables, ``desc``) live on every shard;
- multi-label rules whose labels have different home shards live on each
  of those homes;
- residual rules of a split label (no constant on the axis) live on every
  shard.

Combinator group members (:func:`repro.core.rulesets.compile_group_specs`)
are planned with their group's *union* interest so a group's members
co-locate and dispatch-time winner resolution stays engine-local; at
wake-ups, where several engines may buffer answers for different groups,
the router resolves the buffered groups globally in installation order.

Every replica sees the full stream of events its query is interested in
(the router delivers an event to each shard hosting an interested rule),
so all replicas hold *identical* evaluator state — but only one shard per
event is the **firing shard** (``fire=True``); the others advance their
evaluators with ``fire=False`` and the suppressed answers are counted in
``EngineStats.firings_deduped``.  Actions therefore execute exactly once,
interleaved with the firing shard's local rules in global installation
order.  Absence deadlines are merged the same way: shard engines register
wake-ups through the router, which advances the owning evaluators across
all shards in global installation order and fires each rule only on its
designated (lowest) shard.

Delivery model
--------------

Each shard owns a FIFO inbox.  The node's inbox handler is the router: it
stamps each incoming event with a global arrival sequence number, expands
deductive event views once (so derived events route like fresh arrivals),
and enqueues ``(seq, event, fire?)`` into every interested shard's inbox.
A single drain callback per instant then *merges* the shard inboxes in
arrival order — always popping the globally oldest pending event — which
is what makes N shards bit-compatible with one engine.
``EngineConfig(inbox_batch=k)`` is the fairness knob: one drain lets each
shard consume at most *k* events before the router re-yields to the
scheduler, so a backlogged shard cannot starve the others within an
instant (events at later instants are handled by later drains as usual).

``shards=1`` never constructs a router at all: the facade wires the node
straight to one engine, bit-for-bit the pre-sharding code path.

Sharding composes with persistence (``EngineConfig(store=...)``) with no
router involvement: the facade swaps the durable store in as
``node.resources`` *before* the fleet is built, and every shard's
conditions and actions dereference ``node.resources`` at call time — so
the whole fleet shares the one durable store, commits are serialised by
the store's own lock, and a reopened sharded node recovers exactly like
a single-engine one.

The equivalence needs queued delivery (the default):
``EngineConfig(sync_delivery=True, shards>1)`` is rejected at
construction, since an event raised inline mid-action would have to
overtake replica copies of the in-flight event still queued on other
shards.

Execution layer
---------------

The whole fleet runs on the scheduler thread: one drain callback pops
the shard inboxes in global arrival order and lets the owning engine
dispatch (and fire) each event in place.  The only collect-then-fire
case is an *ambiguous* event, whose copies fire disjoint rule sets on
several shards: they are consumed as one unit, the answers collected per
shard and fired merged in installation order.
"""

from __future__ import annotations

import copy
import itertools
import zlib
from collections import deque
from dataclasses import fields, replace

from repro.core.engine import (
    EngineConfig,
    EngineStats,
    ReactiveEngine,
    derive_events,
    resolve_group_answers,
)
from repro.core.rules import ECARule
from repro.core.rulesets import RuleSet, compile_group_specs
from repro.errors import RecursionRejected, RuleError
from repro.events.factory import resolve_evaluator
from repro.events.model import Event
from repro.events.queries import EventInterest, extract_axis_value, query_interest
from repro.terms.ast import canonical_str

__all__ = ["ShardRouter", "shard_of"]


def shard_of(label: str, n_shards: int) -> int:
    """Deterministic shard for routing keys no installed rule pins down.

    Used for events whose label (or split-axis value) no rule claims:
    they can only reach wildcard / residual replicas, which live on every
    shard, so any *stable* choice keeps exactly-once firing; a CRC spreads
    such traffic instead of hammering shard 0.  (``zlib.crc32``, not
    ``hash``: reproducible across processes regardless of hash seed.)
    """
    return zlib.crc32(label.encode("utf-8")) % n_shards


#: Routing sentinel for an event that exhibits a split label's axis
#: ambiguously (several same-label children, structured content): no single
#: fire shard exists, so the event is delivered to *every* shard and each
#: shard fires exactly the rules it is time-primary for (per-rule dedup).
_AMBIGUOUS = object()


class _Plan:
    """One deterministic partitioning of the rule base (pure data)."""

    def __init__(self) -> None:
        self.order: dict[str, int] = {}          # name -> global install seq
        self.placement: dict[str, tuple[int, ...]] = {}
        self.time_primary: dict[str, int] = {}   # name -> firing shard at wake-ups
        self.home: dict[str, int] = {}           # unsplit label -> shard
        # Trie-prefix partitioning: every hot label may split on its own
        # (kind, key) axis — label -> ((kind, key), value -> shard).
        self.splits: dict[str, tuple[tuple[str, str], dict]] = {}
        self.needs: dict[str, frozenset[int]] = {}  # label -> shards needing a copy
        self.has_wildcard = False
        # Per shard: the rule names whose time_primary it is — the fire set
        # stamped on each copy of an ambiguous event.
        self.primary_names: tuple[frozenset, ...] = ()


class ShardRouter:
    """Partitions one node's rules over N engines; routes and drains events.

    Created by the :class:`~repro.api.ReactiveNode` facade when
    ``EngineConfig(shards=N)`` has N > 1.  Implements the same rule- and
    procedure-management surface as :class:`ReactiveEngine`
    (``install_all`` / ``uninstall`` / ``rules`` / ``define_procedure`` /
    ``define_web_views``), so the facade delegates blindly; the engines
    stay reachable as :attr:`engines` for inspection.
    """

    def __init__(self, node, config: EngineConfig) -> None:
        if config.shards < 2:
            raise RuleError(
                f"ShardRouter needs shards >= 2, got {config.shards} "
                "(shards=1 is the plain single-engine path)"
            )
        if config.event_views is not None and config.event_views.is_recursive():
            raise RecursionRejected(
                "event-level deductive views must be non-recursive (Thesis 9)"
            )
        self.node = node
        self.config = config
        self.n_shards = config.shards
        self._factory = resolve_evaluator(config.evaluator)
        # Shards get the per-engine knobs only: node-level delivery is
        # applied once below, event views are expanded here (a derived
        # event's label may live on a different shard), and shards=1 so
        # each engine is a plain single shard.
        shard_config = replace(config, shards=1, event_views=None,
                               sync_delivery=None, inbox_batch=None)
        self.engines = tuple(
            ReactiveEngine(node, config=shard_config, attach=False)
            for _ in range(self.n_shards)
        )
        for engine in self.engines:
            engine.wakeup_via = self._request_wakeup
            engine.installer = self
        if config.sync_delivery is not None:
            node.configure_delivery(sync_delivery=config.sync_delivery)
        if config.inbox_batch is not None:
            node.configure_delivery(inbox_batch=config.inbox_batch)
        self._event_views = config.event_views
        self._coalesced = config.coalesced_wakeups
        self._inbox_batch = config.inbox_batch
        self.derived_events = 0
        self.inbox_drains = 0
        self.inbox_peaks = [0] * self.n_shards
        self._inboxes = tuple(deque() for _ in range(self.n_shards))
        self._seq = itertools.count()
        self._started_seq = -1  # highest seq whose first copy was processed
        self._dispatch_depth = 0  # > 0 while a shard is mid-dispatch/advance
        self._drain_scheduled = False
        self._pending_wakeups: set[float] = set()
        # Same rule-base bookkeeping shape as ReactiveEngine, so install /
        # uninstall semantics and error messages stay in lock-step.
        self._single_rules: dict[str, ECARule] = {}
        self._rulesets: list[RuleSet] = []
        self._named: list[tuple[str, ECARule]] = []
        self._validated: dict[str, ECARule] = {}
        self._group_specs: dict[str, tuple[str, str, float]] = {}
        self._plan = _Plan()
        node.on_event(self.handle_event)

    # -- rule management ------------------------------------------------------

    def install(self, item: "ECARule | RuleSet") -> None:
        """Install a rule or a whole rule set (re-partitions)."""
        self.install_all((item,))

    def install_all(self, items, procedures=()) -> None:
        """Install many rules / rule sets (and procedures) in one batch.

        Same contract as :meth:`ReactiveEngine.install_all`: atomic — a
        rejected item restores the previous rule base on every shard
        before the error propagates, and no procedure is defined.
        """
        procedures = tuple(procedures)
        pending: set[str] = set()
        for name, _params, _action in procedures:
            if name in self.engines[0]._procedures or name in pending:
                raise RuleError(f"procedure {name!r} already defined")
            pending.add(name)
        saved_rules = dict(self._single_rules)
        saved_sets = list(self._rulesets)
        try:
            for item in items:
                if isinstance(item, RuleSet):
                    self._rulesets.append(item)
                elif isinstance(item, ECARule):
                    if item.name in self._single_rules:
                        raise RuleError(f"rule {item.name!r} already installed")
                    self._single_rules[item.name] = item
                else:
                    raise RuleError(f"cannot install {item!r}")
            self._reroute()
        except Exception:
            self._single_rules = saved_rules
            self._rulesets = saved_sets
            self._reroute()
            raise
        for name, params, action in procedures:
            self.define_procedure(name, tuple(params), action)

    def uninstall(self, item: "str | ECARule | RuleSet") -> None:
        """Remove an installed rule or rule set, by object or by name.

        Mirrors :meth:`ReactiveEngine.uninstall` (same resolution branches
        and error messages); the re-partition drops the rule from *every*
        shard it was routed or replicated to.
        """
        if isinstance(item, RuleSet):
            if not any(existing is item for existing in self._rulesets):
                raise RuleError(
                    f"rule set {item.name!r} is not installed ({self._summary()})"
                )
            self._rulesets = [rs for rs in self._rulesets if rs is not item]
        elif isinstance(item, ECARule):
            # Structural equality, not identity (meta round-trips compare equal).
            if self._single_rules.get(item.name) != item:
                raise RuleError(
                    f"rule {item.name!r} is not installed ({self._summary()})"
                )
            del self._single_rules[item.name]
        elif isinstance(item, str):
            if item in self._single_rules:
                del self._single_rules[item]
            else:
                named_sets = [rs for rs in self._rulesets if rs.name == item]
                if not named_sets:
                    raise RuleError(
                        f"no installed rule or rule set {item!r} ({self._summary()})"
                    )
                self._rulesets.remove(named_sets[0])
        else:
            raise RuleError(f"cannot uninstall {item!r}")
        self._reroute()

    def rules(self) -> list[str]:
        """Names of the active rules, in global installation order."""
        return [name for name, _rule in self._named]

    def refresh(self) -> None:
        """Recompute the partitioning (e.g. after toggling a rule set)."""
        self._reroute()

    def define_procedure(self, name: str, params: tuple[str, ...], action) -> None:
        """Register a procedure on every shard (any shard's rule may CALL it)."""
        for engine in self.engines:
            engine.define_procedure(name, params, action)

    def define_web_views(self, uri: str, program) -> None:
        """Attach deductive views on every shard (conditions query them)."""
        for engine in self.engines:
            engine.define_web_views(uri, program)

    def _summary(self) -> str:
        rules = ", ".join(sorted(self._single_rules)) or "none"
        sets = ", ".join(ruleset.name for ruleset in self._rulesets) or "none"
        return f"installed rules: {rules}; installed rule sets: {sets}"

    # -- partitioning ---------------------------------------------------------

    def _decompose(self) -> list[tuple[str, ECARule]]:
        """Flatten installed items to (name, rule) in the engine's order.

        :meth:`ReactiveEngine.refresh` activates all single rules first
        (in installation order) and then every rule set's qualified rules
        (in rule-set installation order) — shards=1 firing order follows
        it, so the router's global order must match exactly, not the raw
        install interleaving.
        """
        named: list[tuple[str, ECARule]] = list(self._single_rules.items())
        seen: set[str] = set(self._single_rules)
        for ruleset in self._rulesets:
            for qualified, rule, _owner in ruleset.qualified():
                if qualified in seen:
                    raise RuleError(f"duplicate rule name {qualified!r}")
                seen.add(qualified)
                named.append((qualified, rule))
        return named

    def _reroute(self) -> None:
        """Re-partition the rule base and re-route queued events."""
        named = self._decompose()
        # Validate new rules' event queries *before* mutating any shard, so
        # install_all's restore path never faces a half-synced fleet.  The
        # probe builds through the configured factory: a custom mechanism
        # rejecting a query must reject it here, not mid-sync.
        for name, rule in named:
            if self._validated.get(name) is not rule:
                self._factory.build(rule.event)
        new_names = frozenset(
            name for name, _rule in named if name not in self._plan.order
        )
        self._group_specs = compile_group_specs(self._rulesets)
        # Rebalancing moves evaluators between shards, which is only sound
        # when every replica has consumed its whole stream — i.e. when no
        # event is in flight.  A re-partition triggered by a firing rule
        # (install mid-dispatch or mid-wake-up: `_dispatching`, with the
        # engine's entries snapshot still running over not-yet-advanced
        # evaluators) or while copies of an event are still queued
        # therefore freezes existing placements and only *adds* new rules,
        # whose fresh evaluators are safe anywhere.
        plan = self._compute_plan(
            named, frozen=self._dispatch_depth > 0 or any(self._inboxes)
        )
        self._apply_plan(named, plan)
        self._named = named
        self._plan = plan
        self._validated = dict(named)
        self._requeue_pending(new_names)

    def _compute_plan(self, named, frozen: bool = False) -> _Plan:
        """Pure, deterministic placement of *named* over the shards.

        ``frozen=True`` is the in-flight variant: surviving rules keep
        their current shards (no evaluator ever moves under a partially
        delivered event) and only new rules are placed, onto the existing
        label-home / split tables.
        """
        plan = _Plan()
        interests: dict[str, EventInterest] = {}
        for seq, (name, rule) in enumerate(named):
            plan.order[name] = seq
            interests[name] = query_interest(rule.event)
        # Combinator group members are planned with their group's *union*
        # interest: identical interests mean identical placements, so the
        # group's answering members always meet on the event's firing
        # shard and dispatch-time winner resolution stays engine-local.
        if self._group_specs:
            union: dict[str, EventInterest] = {}
            for name, interest in interests.items():
                spec = self._group_specs.get(name)
                if spec is not None:
                    gid = spec[0]
                    held = union.get(gid)
                    union[gid] = interest if held is None else held.union(interest)
            for name in interests:
                spec = self._group_specs.get(name)
                if spec is not None:
                    interests[name] = union[spec[0]]
        label_rules: dict[str, list[str]] = {}
        for name, _rule in named:
            interest = interests[name]
            if interest.by_label is None:
                plan.has_wildcard = True
                continue
            for label in sorted(interest.labels):
                label_rules.setdefault(label, []).append(name)
        if frozen:
            self._place_frozen(named, plan, interests)
        else:
            self._place_fresh(named, plan, interests, label_rules)

        # Which shards must *see* each label's events (beyond the firing
        # shard): every shard hosting an interested rule — except
        # single-label rules pinning a split label's axis, whose events
        # the value table already routes to exactly their shard.
        needs: dict[str, set[int]] = {label: set() for label in label_rules}
        for name, _rule in named:
            interest = interests[name]
            if interest.by_label is None:
                continue  # wildcards live everywhere; delivery covers all shards
            for label in interest.labels:
                split = plan.splits.get(label)
                if (split is not None
                        and interest.labels == frozenset((label,))
                        and _axis_value(interest, label, split[0]) is not None):
                    continue
                needs[label].update(plan.placement[name])
        plan.needs = {label: frozenset(shards) for label, shards in needs.items()}
        primary: list[set] = [set() for _ in range(self.n_shards)]
        for name, si in plan.time_primary.items():
            primary[si].add(name)
        plan.primary_names = tuple(frozenset(names) for names in primary)
        return plan

    def _place_fresh(self, named, plan: _Plan, interests, label_rules) -> None:
        """Full rebalance (quiescent inboxes): greedy homes + hot splits."""
        n = self.n_shards
        # Hot-label splits: every label holding more than a fair share of
        # the rule base, all its rules single-label, discriminating on a
        # shared axis with at least two constants, splits independently on
        # its own most selective axis (heaviest label first so the
        # heaviest value groups land on the least-loaded shards).
        total = sum(len(names) for names in label_rules.values())
        loads = [0] * n
        for label in sorted(label_rules,
                            key=lambda lab: (-len(label_rules[lab]), lab)):
            names = label_rules[label]
            if len(names) < 2 or len(names) * n <= total:
                continue
            if not all(interests[nm].labels == frozenset((label,)) for nm in names):
                continue
            axis = self._pick_axis(label, names, interests)
            if axis is None:
                continue
            by_value: dict = {}
            residual = 0
            for nm in names:
                value = _axis_value(interests[nm], label, axis)
                if value is None:
                    residual += 1
                else:
                    by_value.setdefault(value, []).append(nm)
            value_shard: dict = {}
            for value in sorted(by_value,
                                key=lambda v: (-len(by_value[v]), canonical_str(v))):
                shard = min(range(n), key=lambda i: (loads[i], i))
                value_shard[value] = shard
                loads[shard] += len(by_value[value])
            plan.splits[label] = (axis, value_shard)
            loads = [load + residual for load in loads]

        for label in sorted(
            (lab for lab in label_rules if lab not in plan.splits),
            key=lambda lab: (-len(label_rules[lab]), lab),
        ):
            shard = min(range(n), key=lambda i: (loads[i], i))
            plan.home[label] = shard
            loads[shard] += len(label_rules[label])

        for name, _rule in named:
            interest = interests[name]
            labels = interest.labels
            split = (plan.splits.get(next(iter(labels)))
                     if labels is not None and len(labels) == 1 else None)
            if labels is None:
                plan.placement[name] = tuple(range(n))
            elif split is not None:
                value = _axis_value(interest, next(iter(labels)), split[0])
                if value is not None:
                    plan.placement[name] = (split[1][value],)
                else:  # residual: must see every event of the split label
                    plan.placement[name] = tuple(range(n))
            else:
                # A split label never hosts multi-label rules (the
                # all-single guard above), so every label here has a home.
                plan.placement[name] = tuple(sorted(
                    {plan.home[label] for label in labels}
                ))
            plan.time_primary[name] = plan.placement[name][0]

    def _place_frozen(self, named, plan: _Plan, interests) -> None:
        """In-flight re-partition: nothing moves, new rules slot in.

        Surviving rules keep their exact shard sets (their evaluators may
        be mid-stream: some replicas have consumed the in-flight event,
        others still hold its queued copy, so migrating or copying any of
        them would fork state).  New rules have no state, so any placement
        is sound; they go onto the existing home/split tables, extending
        them greedily where a label or axis value is new.
        """
        n = self.n_shards
        old = self._plan
        plan.home = dict(old.home)
        plan.splits = {
            label: (axis, dict(value_shard))
            for label, (axis, value_shard) in old.splits.items()
        }
        loads = [0] * n
        surviving: dict[str, tuple[int, ...]] = {}
        for name, rule in named:
            if self._validated.get(name) is rule and name in old.placement:
                surviving[name] = old.placement[name]
                for si in surviving[name]:
                    loads[si] += 1
        for name, _rule in named:
            placement = surviving.get(name)
            if placement is None:
                interest = interests[name]
                labels = interest.labels
                if labels is None:
                    placement = tuple(range(n))
                elif labels & plan.splits.keys():
                    if len(labels) == 1:
                        label = next(iter(labels))
                        axis, value_shard = plan.splits[label]
                        value = _axis_value(interest, label, axis)
                        if value is None:  # residual: sees the whole label
                            placement = tuple(range(n))
                        else:
                            shard = value_shard.get(value)
                            if shard is None:
                                shard = min(range(n), key=lambda i: (loads[i], i))
                                value_shard[value] = shard
                            placement = (shard,)
                    else:
                        # A spanning rule on a split label must be able to
                        # fire on any of the label's per-value fire shards.
                        placement = tuple(range(n))
                else:
                    shards = set()
                    for label in sorted(interest.labels):
                        home = plan.home.get(label)
                        if home is None:
                            home = min(range(n), key=lambda i: (loads[i], i))
                            plan.home[label] = home
                        shards.add(home)
                    placement = tuple(sorted(shards))
                for si in placement:
                    loads[si] += 1
            plan.placement[name] = placement
            plan.time_primary[name] = placement[0]

    @staticmethod
    def _pick_axis(label, names, interests) -> "tuple[str, str] | None":
        """The most selective shared axis of one label's rules.

        Same tie-breaking as the engine trie's bucket split (rule count,
        then distinct values), preferring ``attr`` axes on full ties: an
        event carries an attribute value unambiguously or not at all,
        while a child axis can be ambiguous on the event side and then
        costs an all-shards delivery (see ``_AMBIGUOUS``).
        """
        counts: dict[tuple[str, str], int] = {}
        values: dict[tuple[str, str], set] = {}
        for nm in names:
            for disc in interests[nm].discriminators(label):
                axis = disc.axis
                counts[axis] = counts.get(axis, 0) + 1
                values.setdefault(axis, set()).add(disc.value)
        viable = [axis for axis in counts
                  if counts[axis] >= 2 and len(values[axis]) >= 2]
        if not viable:
            return None
        return max(viable, key=lambda axis: (
            counts[axis], len(values[axis]), axis[0] == "attr", axis[1]
        ))

    def _apply_plan(self, named, plan: _Plan) -> None:
        """Push each shard its slice, migrating evaluator state.

        A rule that stays installed keeps its evaluators: replicas hold
        identical state (they see identical relevant streams), so a shard
        gaining the rule takes a displaced evaluator when one is free and
        a deep copy of a surviving one otherwise.  Incoming evaluators are
        marked touched so pending absence deadlines re-register on their
        new shard.
        """
        current: dict[str, dict[int, tuple]] = {}
        for si, engine in enumerate(self.engines):
            for name, (rule, evaluator) in engine._active.items():
                current.setdefault(name, {})[si] = (rule, evaluator)
        seeds: list[dict] = [dict() for _ in range(self.n_shards)]
        arrivals: list[list] = [[] for _ in range(self.n_shards)]
        for name, rule in named:
            have = {
                si: evaluator
                for si, (old_rule, evaluator) in current.get(name, {}).items()
                if old_rule is rule
            }
            if not have:
                continue  # new rule: every shard builds a fresh evaluator
            targets = plan.placement[name]
            spare = deque(evaluator for si, evaluator in sorted(have.items())
                          if si not in targets)
            donor = have[min(have)]
            for si in targets:
                if si in have:
                    continue  # refresh keeps it by identity
                evaluator = spare.popleft() if spare else copy.deepcopy(donor)
                seeds[si][name] = (rule, evaluator)
                arrivals[si].append(evaluator)
        for si, engine in enumerate(self.engines):
            engine._active.update(seeds[si])
            engine.sync_rules(
                (name, rule) for name, rule in named
                if si in plan.placement[name]
            )
            # sync_rules rebuilt from bare (name, rule) pairs, so the
            # shard engine has no rule-set structure to compile combinator
            # specs from: push the router's qualified-name table instead.
            engine._groups = self._group_specs
            if arrivals[si]:
                engine._touched.update(arrivals[si])
                engine._schedule_wakeups()

    # -- event routing --------------------------------------------------------

    def handle_event(self, event: Event) -> None:
        """Node inbox entry point: route the event and its derivations."""
        self._route(event)
        for derived in derive_events(self._event_views, event, self.node.uri):
            self.derived_events += 1
            self._route(derived)

    def _route(self, event: Event) -> None:
        self._enqueue(next(self._seq), event)
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.node.clock.soon(self._drain)

    def _enqueue(self, seq: int, event: Event) -> None:
        fire = self._fire_shard(event.term)
        if fire is _AMBIGUOUS:
            # The event shows a split label's axis ambiguously: any value
            # shard might hold a matching rule, so every shard gets a copy
            # whose fire field *names* the rules that shard may fire — the
            # rules it is time-primary for.  Each interested rule is
            # time-primary on exactly one of its replicas, so it still
            # fires exactly once; the other copies count dedups.
            primary = self._plan.primary_names
            for si in range(self.n_shards):
                box = self._inboxes[si]
                box.append((seq, event, primary[si], frozenset()))
                if len(box) > self.inbox_peaks[si]:
                    self.inbox_peaks[si] = len(box)
            return
        if self._plan.has_wildcard:
            shards = range(self.n_shards)  # wildcard replicas see everything
        else:
            needs = self._plan.needs.get(event.term.label, frozenset())
            shards = sorted(needs | {fire})
        for si in shards:
            box = self._inboxes[si]
            box.append((seq, event, si == fire, frozenset()))
            if len(box) > self.inbox_peaks[si]:
                self.inbox_peaks[si] = len(box)

    def _fire_shard(self, term):
        """The one shard that executes actions for this event.

        All rules the event can fire live there (the label's home — or,
        for a split label, the shard owning the event's axis value, with
        residual replicas everywhere), so local installation order is
        global firing order.  Returns ``_AMBIGUOUS`` when the event shows
        a split label's axis ambiguously and no single shard suffices.
        """
        label = term.label
        split = self._plan.splits.get(label)
        if split is not None:
            (kind, key), value_shard = split
            value, ambiguous = extract_axis_value(term, kind, key)
            if ambiguous:
                return _AMBIGUOUS
            if value is None:
                return shard_of(label, self.n_shards)
            shard = value_shard.get(value)
            if shard is not None:
                return shard
            return shard_of(f"{label}={value}", self.n_shards)
        home = self._plan.home.get(label)
        if home is not None:
            return home
        return shard_of(label, self.n_shards)

    def _requeue_pending(self, new_names: frozenset) -> None:
        """Re-route queued events after a re-partition.

        A rule installed mid-run must see the events still queued when it
        arrived (the single engine's inbox guarantees exactly that), so
        *fully pending* events — no copy processed yet — are collapsed
        back to one event per sequence number and re-enqueued under the
        new tables.  An event whose processing already *started* (its
        firing copy may be consumed) keeps its remaining copies verbatim,
        tagged so rules installed by this re-partition never observe it —
        the same snapshot semantics the single engine's mid-dispatch
        install has, and the guarantee that nothing fires twice.
        """
        started: list[list] = [[] for _ in range(self.n_shards)]
        fresh: dict[int, Event] = {}
        for si, box in enumerate(self._inboxes):
            while box:
                seq, event, fire, exclude = box.popleft()
                if seq <= self._started_seq:
                    started[si].append((seq, event, fire, exclude | new_names))
                else:
                    fresh[seq] = event
        if not fresh and not any(started):
            return
        # Per-shard seq order is preserved: started entries predate every
        # fresh one, and _enqueue appends fresh seqs in ascending order.
        for si, entries in enumerate(started):
            self._inboxes[si].extend(entries)
        for seq in sorted(fresh):
            self._enqueue(seq, fresh[seq])
        self._schedule_drain()

    def _drain(self) -> None:
        """Merge-drain the shard inboxes in global arrival order.

        Always pops the globally oldest pending event (copies of one event
        share a sequence number; ties resolve lowest shard first), which
        is what keeps N-shard firing order identical to one engine.  With
        ``inbox_batch=k`` each shard consumes at most *k* events per
        drain; when the oldest event's shard is out of budget the router
        re-yields to the scheduler at the same instant, so fairness never
        reorders.
        """
        self._drain_scheduled = False
        self.inbox_drains += 1
        bounded = self._inbox_batch is not None
        budgets = [self._inbox_batch] * self.n_shards
        while True:
            best, best_seq = -1, None
            for si in range(self.n_shards):
                box = self._inboxes[si]
                if box and (best_seq is None or box[0][0] < best_seq):
                    best, best_seq = si, box[0][0]
            if best < 0:
                break
            # Ambiguous event: several shards fire disjoint rule sets for
            # the *same* seq, so all its copies are consumed as one unit
            # (popping shard-by-shard would fire shard-major).
            ambiguous = isinstance(self._inboxes[best][0][2], frozenset)
            if ambiguous:
                involved = [si for si in range(self.n_shards)
                            if self._inboxes[si]
                            and self._inboxes[si][0][0] == best_seq]
            else:
                involved = (best,)
            if bounded:
                if any(budgets[si] == 0 for si in involved):
                    break  # over budget: the whole unit yields to the scheduler
                for si in involved:
                    budgets[si] -= 1
            if best_seq > self._started_seq:
                self._started_seq = best_seq
            if ambiguous:
                self._fire_ambiguous(involved)
                continue
            _seq, event, fire, exclude = self._inboxes[best].popleft()
            self._dispatch_depth += 1
            try:
                self.engines[best].handle_event(event, fire=fire,
                                                exclude=exclude)
            finally:
                self._dispatch_depth -= 1
        if any(self._inboxes):
            self._schedule_drain()

    def _fire_ambiguous(self, involved: list) -> None:
        """Pop and dispatch one ambiguous event's copies, firing merged.

        Each involved shard advances its replicas with the copy's fire
        *set* (the rules it is time-primary for) under the engine's
        collector seam, then the collected answers fire in global
        installation order — grouped (combinator) winners after ungrouped
        answers, exactly as a single engine's dispatch resolves them.  On
        an engine failure the already-collected prefix still fires before
        the error propagates: a single engine fires each evaluator's
        answers as its dispatch loop reaches it, so answers produced
        before the raise have fired.
        """
        rows: list = []
        order = self._plan.order
        group_specs = self._group_specs
        self._dispatch_depth += 1
        try:
            try:
                for si in involved:
                    _seq, event, fire_for, exclude = self._inboxes[si].popleft()
                    engine = self.engines[si]
                    collected: list = []
                    engine.collector = collected
                    try:
                        engine.handle_event(event, exclude=exclude,
                                            fire_for=fire_for)
                    finally:
                        engine.collector = None
                        for k, (name, rule, bindings) in enumerate(collected):
                            rows.append((name in group_specs,
                                         order.get(name, len(order)), k,
                                         si, rule, bindings))
            finally:
                rows.sort(key=lambda row: row[:3])
                for _g, _o, _k, si, rule, bindings in rows:
                    self.engines[si]._fire(rule, bindings)
        finally:
            self._dispatch_depth -= 1
            for si in involved:
                engine = self.engines[si]
                if engine._touched:
                    engine._schedule_wakeups()

    # -- wake-ups -------------------------------------------------------------

    def _request_wakeup(self, deadline: float) -> None:
        """Shard engines register absence deadlines here (one callback per
        distinct instant across the whole fleet)."""
        if deadline not in self._pending_wakeups:
            self._pending_wakeups.add(deadline)
            self.node.clock.at(deadline, lambda d=deadline: self._on_time(d))

    def _on_time(self, when: float) -> None:
        """Advance expiring evaluators across shards in global rule order.

        Each engine's deadline owners are pulled and merged by global
        installation sequence (replicas of one rule sort adjacently, by
        shard), so absence answers at a shared deadline fire exactly as a
        single engine would; only each rule's designated shard fires, the
        other replicas dedup.  ``coalesced_wakeups=False`` advances every
        active evaluator on every shard instead — the E14 ablation.

        Combinator members may answer at a shared deadline on different
        engines, so every engine buffers its grouped answers into one
        list for the whole wake-up (rows land in advance order, i.e.
        global installation order) and the groups are resolved once,
        globally — a per-engine resolution would fire different groups'
        winners in engine order instead.
        """
        self._pending_wakeups.discard(when)
        merged = self._due_rows(when)
        time_primary = self._plan.time_primary
        advanced: dict = {}
        buffer: "list | None" = [] if self._group_specs else None
        for engine in self.engines:
            engine._group_buffer = buffer
        self._dispatch_depth += 1  # installs from absence firings must freeze
        try:
            for _gseq, si, name, rule, evaluator, engine in merged:
                engine.advance_evaluator(when, rule, evaluator,
                                         fire=(si == time_primary[name]))
                advanced[engine] = None
            if buffer:
                resolve_group_answers(buffer)
        finally:
            self._dispatch_depth -= 1
            for engine in self.engines:
                engine._group_buffer = None
        for engine in advanced:
            engine.stats.wakeups += 1
            engine._schedule_wakeups()

    def _due_rows(self, when: float) -> list:
        """The evaluators to advance at *when*, in global firing order.

        Rows are ``(global install seq, host shard, name, rule, evaluator,
        host engine)``, sorted by (seq, shard) — the order they are
        advanced and fired in.
        """
        order = self._plan.order
        merged = []
        seen: set[int] = set()
        for si, engine in enumerate(self.engines):
            owners = engine._deadline_owners.pop(when, set())
            if self._coalesced:
                candidates = owners
            else:
                candidates = [evaluator
                              for _rule, evaluator in engine._active.values()]
            for evaluator in candidates:
                # An in-flight re-partition may have moved the evaluator
                # since it registered this deadline: redirect to its
                # current host engine; truly uninstalled owners drop.
                host_idx, host = si, engine
                if evaluator not in host._eval_entry:
                    for sj, other in enumerate(self.engines):
                        if evaluator in other._eval_entry:
                            host_idx, host = sj, other
                            break
                    else:
                        continue
                if id(evaluator) in seen:
                    continue  # already collected via its own registration
                seen.add(id(evaluator))
                _local_seq, name, rule = host._eval_entry[evaluator]
                merged.append((order[name], host_idx, name, rule,
                               evaluator, host))
        merged.sort(key=lambda row: (row[0], row[1]))
        return merged

    # -- introspection --------------------------------------------------------

    def placement(self) -> dict[str, tuple[int, ...]]:
        """Rule name -> shard indices it is installed on (copy)."""
        return dict(self._plan.placement)

    def mechanism_report(self) -> dict[str, dict]:
        """Per-rule mechanism snapshot, merged across the fleet.

        For a replicated rule the first hosting shard's row is reported.
        Adaptive governors take decisions only from evaluator-local
        signals (decayed label masses in *simulated* time), and replicas
        of one rule see identical interested-event streams, so every
        replica runs the same mechanism with the same switch count —
        property-tested, so picking the first shard loses nothing.
        """
        report: dict[str, dict] = {}
        for engine in self.engines:
            for name, row in engine.mechanism_report().items():
                report.setdefault(name, row)
        return report

    def evaluator_switches(self) -> int:
        """Total mechanism switches across the fleet (replicas included,
        like every other aggregate counter: it measures fleet work)."""
        return sum(engine.evaluator_switches() for engine in self.engines)

    def aggregate_stats(self) -> EngineStats:
        """Sum of all shard counters, plus router-level derived events.

        Replication inflates the per-delivery counters relative to one
        engine (``events_processed`` counts each shard's copy) — that is
        the point: the aggregate measures total fleet work, while
        ``firings_deduped`` shows how much of it was replica upkeep.
        """
        total = EngineStats()
        for engine in self.engines:
            for field_ in fields(EngineStats):
                value = getattr(engine.stats, field_.name)
                if isinstance(value, (int, float)):
                    setattr(total, field_.name,
                            getattr(total, field_.name) + value)
        total.derived_events += self.derived_events
        # Live switch counters sit on the evaluators, not in engine.stats
        # (the summed field is always 0) — stamp the snapshot here.
        total.evaluator_switches = self.evaluator_switches()
        return total

    def shard_stats(self) -> tuple[EngineStats, ...]:
        """Per-shard counters with that shard's inbox depth/peak mirrored in."""
        return tuple(
            replace(engine.stats,
                    inbox_depth=len(self._inboxes[si]),
                    inbox_peak=self.inbox_peaks[si],
                    evaluator_switches=engine.evaluator_switches())
            for si, engine in enumerate(self.engines)
        )


def _axis_value(interest: EventInterest, label: str, axis: "tuple[str, str]"):
    """The constant *interest* pins on (label, axis), or None (residual).

    *axis* is a ``(kind, key)`` pair.  Mirrors the engine trie's routing
    choice when a rule somehow pins several constants on one axis: the
    canonically smallest.
    """
    on_axis = sorted(
        (disc for disc in interest.discriminators(label)
         if disc.axis == axis),
        key=lambda disc: canonical_str(disc.value),
    )
    return on_axis[0].value if on_axis else None
