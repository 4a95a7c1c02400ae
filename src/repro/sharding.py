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

When placements move
--------------------

The tables above are kept *live*.  A plain rule arriving is a **delta**:
only it is placed, onto the tables as they stand (a new label or axis
value goes to the lightest shard), and forwarded to only its hosts through
the engine's O(trie depth) ``add_rule`` with the *global* installation
sequence, so no shard renumbers; a rule leaving is dropped from its hosts
and every table entry it alone kept alive is pruned.  No delta moves an
installed rule.  Placements move only at a **full plan** — homes and
splits chosen afresh over the whole base, applied to the shards as a
placement diff — which runs only with no event in flight (an evaluator
must not move between two replicas' copies of one event) and only when a
rule set is installed or removed, ``refresh()`` is called, the rules on
delta placements plus the arriving batch reach the size of the last full
plan (a growable array's doubling rule: amortised O(1) re-plans per
rule), or the arriving rule would have to be replicated across a split
label's value shards (a fresh plan may find an axis it pins; once the
label is delivered everywhere the next such rule is a delta).  Surviving
evaluators re-plan their joins from observed rates only at a full plan,
as a single engine does only at ``refresh()``; the balance contract is
stated in ``docs/ARCHITECTURE.md`` ("Sharded nodes").

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
from typing import NamedTuple

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


class _Placed(NamedTuple):
    """One installed rule as the router holds it."""

    seq: tuple  # global installation sequence, in the engine's tuple shape
    rule: ECARule
    interest: EventInterest  # the rule's own: what its hosts dispatch on
    planned: EventInterest   # what it is placed by: its group's union
    hosts: tuple             # shards; hosts[0] fires at wake-ups


class _Plan:
    """The partition tables, kept live: a delta edits them in place.

    ``place`` puts one rule onto the tables as they stand; ``unplace``
    takes it off and prunes every entry it alone kept alive.  A full plan
    is a new ``_Plan`` whose ``home`` / ``splits`` are chosen over the
    whole base before every rule is placed onto them.
    """

    def __init__(self, n_shards: int) -> None:
        self.rules: dict[str, _Placed] = {}
        self.home: dict[str, int] = {}           # unsplit label -> shard
        # Trie-prefix partitioning: every hot label may split on its own
        # (kind, key) axis — label -> ((kind, key), value -> shard).
        self.splits: dict[str, tuple[tuple[str, str], dict]] = {}
        # label -> shard -> rules needing the label's events there (beyond
        # the firing shard): every hosted interested rule — except
        # single-label rules pinning a split label's axis, whose events
        # the value table already routes to exactly their shard.
        self.needs: dict[str, dict[int, int]] = {}
        # label or (split label, value) -> rules keeping that entry alive.
        self.refs: dict = {}
        self.wildcards = 0
        self.loads = [0] * n_shards              # rules hosted per shard
        # Per shard: the rules it fires at wake-ups — the fire set handed
        # to each copy of an ambiguous event.  Queued copies share the
        # live set: every change to it re-stamps what is still pending
        # (`_requeue_pending`), so a snapshot could never read differently.
        self.primary_names: tuple[set, ...] = tuple(
            set() for _ in range(n_shards))

    def copy(self) -> "_Plan":
        """Independent tables over the same (immutable) rule records."""
        twin = _Plan(0)
        vars(twin).update(copy.deepcopy(
            {key: value for key, value in vars(self).items() if key != "rules"}))
        twin.rules = dict(self.rules)
        return twin

    def _pinned(self, planned: EventInterest):
        """``(label, value)`` when the split value table alone routes the
        rule: one label, split, with a constant on the split axis."""
        if planned.labels is not None and len(planned.labels) == 1:
            label, = planned.labels
            split = self.splits.get(label)
            if split is not None:
                value = _axis_value(planned, label, split[0])
                if value is not None:
                    return label, value
        return None

    def widens(self, planned: EventInterest) -> bool:
        """Whether placing the rule would start delivering a split label's
        events to every shard (a residual or label-spanning rule)."""
        return self._pinned(planned) is None and any(
            label in self.splits
            and len(self.needs.get(label, ())) < len(self.loads)
            for label in planned.labels or ())

    def _lightest(self) -> int:
        return min(range(len(self.loads)), key=lambda i: (self.loads[i], i))

    def place(self, name: str, seq: tuple, rule: ECARule,
              interest: EventInterest, planned: EventInterest) -> _Placed:
        labels = planned.labels
        pinned = self._pinned(planned)
        if pinned is not None:
            value_shard = self.splits[pinned[0]][1]
            if pinned[1] not in value_shard:
                value_shard[pinned[1]] = self._lightest()
            hosts = (value_shard[pinned[1]],)
        elif labels is None or labels & self.splits.keys():
            # A wildcard sees everything, a residual every event of the
            # split label; a spanning rule may fire on any value shard.
            hosts = tuple(range(len(self.loads)))
        else:
            for label in sorted(labels):
                if label not in self.home:
                    self.home[label] = self._lightest()
            hosts = tuple(sorted({self.home[label] for label in labels}))
        self._count(labels, pinned, hosts, 1)
        self.primary_names[hosts[0]].add(name)
        placed = self.rules[name] = _Placed(seq, rule, interest, planned, hosts)
        return placed

    def unplace(self, name: str) -> _Placed:
        placed = self.rules.pop(name)
        self.primary_names[placed.hosts[0]].discard(name)
        self._count(placed.planned.labels, self._pinned(placed.planned),
                    placed.hosts, -1)
        return placed

    def _count(self, labels, pinned, hosts, step: int) -> None:
        for si in hosts:
            self.loads[si] += step
        if labels is None:
            self.wildcards += step
            return
        if pinned is not None and not _bump(self.refs, pinned, step):
            del self.splits[pinned[0]][1][pinned[1]]
        for label in labels:
            if pinned is None:
                row = self.needs.setdefault(label, {})
                for si in hosts:
                    _bump(row, si, step)
                if not row:
                    del self.needs[label]
            if not _bump(self.refs, label, step):
                self.home.pop(label, None)
                self.splits.pop(label, None)


def _bump(counts: dict, key, step: int) -> int:
    """Add *step* to a refcount, dropping the entry at zero."""
    count = counts.get(key, 0) + step
    if count:
        counts[key] = count
    else:
        del counts[key]
    return count


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
        self._next_single = itertools.count()  # singles' global seqs (0, i)
        self._started_seq = -1  # highest seq whose first copy was processed
        self._dispatch_depth = 0  # > 0 while a shard is mid-dispatch/advance
        self._drain_scheduled = False
        self._pending_wakeups: set[float] = set()
        # Same rule-base bookkeeping shape as ReactiveEngine, so install /
        # uninstall semantics and error messages stay in lock-step.
        self._single_rules: dict[str, ECARule] = {}
        self._rulesets: list[RuleSet] = []
        self._group_specs: dict[str, tuple[str, str, float]] = {}
        self._plan = _Plan(self.n_shards)
        # The doubling rule's books: rules the last full plan placed, rules
        # on delta placements since, full plans run (tests and reports).
        self._planned = 0
        self._delta: set[str] = set()
        self.full_plans = 0
        node.on_event(self.handle_event)

    # -- rule management ------------------------------------------------------

    def install(self, item: "ECARule | RuleSet") -> None:
        """Install a rule or a whole rule set."""
        self.install_all((item,))

    def install_all(self, items, procedures=()) -> None:
        """Install many rules / rule sets (and procedures) in one batch.

        Same contract as :meth:`ReactiveEngine.install_all`: atomic — every
        evaluator is built before the first shard is touched, so a
        rejected item leaves the rule base as it was, and no procedure is
        defined.  Plain rules are *deltas*, O(trie depth) each, unless a
        full plan is due (module docstring); a rule set plans in full.
        """
        procedures = tuple(procedures)
        pending: set[str] = set()
        for name, _params, _action in procedures:
            if name in self.engines[0]._procedures or name in pending:
                raise RuleError(f"procedure {name!r} already defined")
            pending.add(name)
        items = tuple(items)
        rules = {}
        for item in items:
            if isinstance(item, ECARule):
                if item.name in self._single_rules or item.name in rules:
                    raise RuleError(f"rule {item.name!r} already installed")
                if item.name in self._plan.rules:
                    raise RuleError(f"duplicate rule name {item.name!r}")
                rules[item.name] = item
            elif not isinstance(item, RuleSet):
                raise RuleError(f"cannot install {item!r}")
        interests = {name: query_interest(rule.event)
                     for name, rule in rules.items()}
        full = len(rules) < len(items)
        if not full and self._quiescent():
            full = (len(self._delta) + len(rules) >= self._planned
                    or any(map(self._plan.widens, interests.values())))
        if full:
            self._replan({**self._single_rules, **rules}, self._rulesets
                         + [item for item in items if isinstance(item, RuleSet)])
        else:
            self._install_delta(rules, interests)
        for name, params, action in procedures:
            self.define_procedure(name, tuple(params), action)

    def _install_delta(self, rules: dict, interests: dict) -> None:
        """Place only the arriving rules, forward each to only its hosts."""
        plan = self._plan
        built = {}
        try:
            for name, rule in rules.items():
                placed = plan.place(name, (0, next(self._next_single)), rule,
                                    interests[name], interests[name])
                built[name] = self.engines[placed.hosts[0]].build_evaluator(rule)
        except Exception:
            for name in rules:
                if name in plan.rules:
                    plan.unplace(name)
            raise
        self._single_rules.update(rules)
        self._delta.update(rules)
        for name, evaluator in built.items():
            placed = plan.rules[name]
            self._host(name, placed, {placed.hosts[0]: evaluator})
        self._requeue_pending(frozenset(rules))

    def uninstall(self, item: "str | ECARule | RuleSet") -> None:
        """Remove an installed rule or rule set, by object or by name.

        Mirrors :meth:`ReactiveEngine.uninstall` (same resolution branches
        and error messages).  A plain rule is dropped from exactly its
        hosts and the table entries it alone kept alive are pruned;
        removing a rule set plans in full.
        """
        if isinstance(item, RuleSet):
            if not any(existing is item for existing in self._rulesets):
                raise RuleError(
                    f"rule set {item.name!r} is not installed ({self._summary()})"
                )
            rulesets = [rs for rs in self._rulesets if rs is not item]
        elif isinstance(item, ECARule):
            # Structural equality, not identity (meta round-trips compare equal).
            if self._single_rules.get(item.name) != item:
                raise RuleError(
                    f"rule {item.name!r} is not installed ({self._summary()})"
                )
            return self._retire(item.name)
        elif isinstance(item, str):
            if item in self._single_rules:
                return self._retire(item)
            named_sets = [rs for rs in self._rulesets if rs.name == item]
            if not named_sets:
                raise RuleError(
                    f"no installed rule or rule set {item!r} ({self._summary()})"
                )
            rulesets = [rs for rs in self._rulesets if rs is not named_sets[0]]
        else:
            raise RuleError(f"cannot uninstall {item!r}")
        self._replan(self._single_rules, rulesets)

    def _retire(self, name: str) -> None:
        del self._single_rules[name]
        self._delta.discard(name)
        placed = self._plan.unplace(name)
        for si in placed.hosts:
            self.engines[si].drop_rule(name, placed.interest)
        self._requeue_pending(frozenset())

    def rules(self) -> list[str]:
        """Names of the active rules, in global installation order."""
        placed = self._plan.rules
        return sorted(placed, key=lambda name: placed[name].seq)

    def refresh(self) -> None:
        """Re-plan the whole base (e.g. after toggling a rule set)."""
        self._replan(self._single_rules, self._rulesets)

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

    def _quiescent(self) -> bool:
        """No event in flight: a rule firing (the engine's entries snapshot
        still running over not-yet-advanced evaluators) or queued copies
        mean some replica has yet to consume what another already has, and
        moving or copying an evaluator would fork state."""
        return self._dispatch_depth == 0 and not any(self._inboxes)

    def _decompose(self, singles: dict, rulesets: list) -> dict[str, tuple]:
        """Flatten the items to name -> (global seq, rule, interest).

        Sequences have the engine's shape and order — singles ``(0, i)``
        in installation order (a single keeps the seq it arrived at), then
        rule-set rules ``(1, set, member)`` — since shards=1 firing order
        follows it.  Only a rule not yet placed has its interest derived.
        """
        old = self._plan.rules
        rows: dict[str, tuple] = {}
        for name, rule in singles.items():
            was = old.get(name)
            rows[name] = ((0, next(self._next_single)) if was is None
                          or was.seq[0] else was.seq, rule)
        for j, ruleset in enumerate(rulesets):
            for k, (qualified, rule, _owner) in enumerate(ruleset.qualified()):
                if qualified in rows:
                    raise RuleError(f"duplicate rule name {qualified!r}")
                rows[qualified] = ((1, j, k), rule)
        return {name: (seq, rule, old[name].interest
                       if name in old and old[name].rule is rule
                       else query_interest(rule.event))
                for name, (seq, rule) in rows.items()}

    def _replan(self, singles: dict, rulesets: list) -> None:
        """Plan the base *singles* + *rulesets*, move the fleet onto it.

        Quiescent, this is a *full plan*: fresh tables (`_fresh_plan`),
        the one place evaluators move.  With an event in flight every
        surviving rule stays where it is and the difference is placed by
        delta onto a copy of the live tables.  Either way nothing changes
        until every new rule's evaluator is built (a rejected rule leaves
        the node as it was), and then the shards see only the difference.
        """
        rows = self._decompose(singles, rulesets)
        specs = compile_group_specs(rulesets)
        # Combinator group members are planned with their group's *union*
        # interest: identical interests mean identical placements, so the
        # group's answering members always meet on the event's firing
        # shard and dispatch-time winner resolution stays engine-local.
        union: dict[str, EventInterest] = {}
        for name, (gid, _kind, _prec) in specs.items():
            own = rows[name][2]
            union[gid] = union[gid].union(own) if gid in union else own
        table = {name: row + (union[specs[name][0]] if name in specs
                              else row[2],)
                 for name, row in rows.items()}
        old = self._plan.rules
        full = self._quiescent()
        if full:
            plan = self._fresh_plan(table)
        else:
            plan = self._plan.copy()
            for name, was in old.items():
                if name not in table or table[name][1] is not was.rule:
                    plan.unplace(name)
            for name, row in table.items():
                if name in plan.rules:
                    plan.rules[name] = plan.rules[name]._replace(seq=row[0])
                else:
                    plan.place(name, *row)
        built = {name: self.engines[now.hosts[0]].build_evaluator(now.rule)
                 for name, now in plan.rules.items()
                 if name not in old or old[name].rule is not now.rule}
        self._single_rules, self._rulesets = singles, rulesets
        self._plan = plan
        self._group_specs = specs
        self._apply(old, built)
        for engine in self.engines:
            engine._groups = specs
            if full:
                # Survivors reorder their join plans from the rates seen so
                # far here and only here, like a single engine's refresh.
                rates = engine.label_rates()
                for _rule, evaluator in engine._active.values():
                    if hasattr(evaluator, "replan"):
                        evaluator.replan(rates)
        if full:
            self.full_plans += 1
            self._planned = len(table)
            self._delta.clear()
        self._requeue_pending(frozenset(built))

    def _fresh_plan(self, table: dict) -> _Plan:
        """Greedy homes + hot splits over the whole base (pure)."""
        n = self.n_shards
        plan = _Plan(n)
        label_rules: dict[str, list[str]] = {}
        interests = {}
        for name, (_seq, _rule, _own, planned) in table.items():
            interests[name] = planned
            for label in sorted(planned.labels or ()):
                label_rules.setdefault(label, []).append(name)
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
        # Every label now has a home or a split with all its values, so
        # placing finds each rule's hosts and extends nothing.
        for name, row in table.items():
            plan.place(name, *row)
        return plan

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

    def _apply(self, old: dict, built: dict) -> None:
        """Forward the difference between *old* and the plan to the shards.

        Everything that leaves a shard, moves or changes seq is dropped
        before anything is added, so no two rows ever share a seq.
        """
        new = self._plan.rules
        arrivals = [(name, {new[name].hosts[0]: evaluator})
                    for name, evaluator in built.items()]
        for name, was in old.items():
            now = new.get(name)
            kept = now is not None and now.rule is was.rule
            if kept and now.hosts == was.hosts and now.seq == was.seq:
                continue
            have = {si: self.engines[si].drop_rule(name, was.interest)
                    for si in was.hosts}
            if kept:
                arrivals.append((name, have))
        for name, have in arrivals:
            self._host(name, new[name], have)

    def _host(self, name: str, placed: _Placed, have: dict) -> None:
        """Add one rule to its hosts — the primitive of delta and full plan.

        *have* holds its evaluators by shard: those just taken off shards,
        or the one built to validate a new rule, for its first host.
        Replicas hold identical state (they see identical relevant
        streams), so a host gaining the rule takes a displaced evaluator
        when one is free and a deep copy of a surviving one otherwise, and
        re-registers the pending absence deadlines it carries.
        """
        spare = deque(evaluator for si, evaluator in sorted(have.items())
                      if si not in placed.hosts)
        for si in placed.hosts:
            evaluator = have.get(si)
            if evaluator is None:
                evaluator = (spare.popleft() if spare
                             else copy.deepcopy(have[min(have)]))
            self.engines[si].add_rule(placed.seq, name, placed.rule, evaluator,
                                      placed.interest)
            self.engines[si]._schedule_wakeups((evaluator,))

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
        if self._plan.wildcards:
            shards = range(self.n_shards)  # wildcard replicas see everything
        else:
            needs = self._plan.needs.get(event.term.label)
            shards = sorted(needs.keys() | {fire}) if needs else (fire,)
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
        """Re-route queued events after any change to the tables.

        A rule installed mid-run must see the events still queued when it
        arrived (the single engine's inbox guarantees exactly that), so
        *fully pending* events — no copy processed yet — are collapsed
        back to one event per sequence number and re-enqueued under the
        new tables.  An event whose processing already *started* (its
        firing copy may be consumed) keeps its remaining copies verbatim,
        tagged so rules installed by this change never observe it —
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
            ambiguous = isinstance(self._inboxes[best][0][2], set)
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
        placed = self._plan.rules
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
                                         placed[name].seq, k,
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
        single engine would; only each rule's first host fires, the other
        replicas dedup.  ``coalesced_wakeups=False`` advances every
        active evaluator on every shard instead — the E14 ablation.

        Combinator members may answer at a shared deadline on different
        engines, so every engine buffers its grouped answers into one
        list for the whole wake-up (rows land in advance order, i.e.
        global installation order) and the groups are resolved once,
        globally — a per-engine resolution would fire different groups'
        winners in engine order instead.
        """
        self._pending_wakeups.discard(when)
        placed = self._plan.rules
        merged = []  # (seq, shard, rule, evaluator, engine, fires here?)
        for si, engine in enumerate(self.engines):
            owners = engine.take_due(when)
            if not self._coalesced:
                owners = [evaluator
                          for _rule, evaluator in engine._active.values()]
            for evaluator in owners:
                seq, name, rule = engine._eval_entry[evaluator]
                merged.append((seq, si, rule, evaluator, engine,
                               si == placed[name].hosts[0]))
        merged.sort(key=lambda row: row[:2])
        advanced: dict = {}
        buffer: "list | None" = [] if self._group_specs else None
        for engine in self.engines:
            engine._group_buffer = buffer
        self._dispatch_depth += 1  # installs from absence firings are in flight
        try:
            for _seq, _si, rule, evaluator, engine, fire in merged:
                engine.advance_evaluator(when, rule, evaluator, fire=fire)
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

    # -- introspection --------------------------------------------------------

    def placement(self) -> dict[str, tuple[int, ...]]:
        """Rule name -> shard indices it is installed on (copy)."""
        return {name: placed.hosts
                for name, placed in self._plan.rules.items()}

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
