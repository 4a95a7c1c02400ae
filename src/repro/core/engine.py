"""The reactive engine: local rule processing at one Web node (Thesis 2).

Each node runs its own engine over its own rule base; engines never talk to
each other except through event messages and resource reads — global
behaviour is choreography, not orchestration.

The engine:

- keeps one *incremental* event evaluator per installed rule (Thesis 6);
- schedules scheduler wake-ups at absence deadlines, so trailing-``ENot``
  answers fire at the right simulated time without polling;
- evaluates rule conditions against local and remote resources,
  parameterised by the event bindings (Thesis 7);
- executes actions, including atomic sequences, alternatives, procedure
  calls (Thesis 9), and rule installation from received rule terms
  (Thesis 11);
- optionally expands *deductive event views* (Thesis 9): a non-recursive
  deductive program derives further event terms from each incoming event
  (e.g. classifying ``order`` events as ``high-value-order``), and rules
  can subscribe to the derived labels.

Dispatch: the discrimination trie
---------------------------------

Deciding *which* rules an incoming event can affect is the per-event hot
path, so the rule base is compiled into a multi-level discrimination
**trie** consulted by ``_interested``:

1. **Root label** — the first level keys on the event's root label, built
   from each evaluator's ``interest()``
   (:class:`~repro.events.queries.EventInterest`).  Wildcard rules (label
   variables, ``desc``, bare variables) are kept in one seq-ordered side
   list merged in at dispatch; events whose label has no bucket see only
   the wildcard rules.
2. **Discriminator trie** — within one label, rules are recursively split
   by the constants they constrain — attribute values and constant-scalar
   children (``stock[sym: "ACME"]``).  Each trie node picks the most
   selective axis among its rules' remaining discriminators (the axis the
   most rules constrain, ties broken by distinct-value count then axis
   name), routes each rule either to the child keyed by its constant on
   that axis (consuming the discriminator) or to the *residual* subtrie
   of rules that don't constrain the axis, and splits again until no
   discriminators remain (``EngineConfig(trie_depth=...)`` caps the
   recursion; ``trie_depth=1`` is the old two-level net).  Dispatch
   extracts the event's value per visited axis
   (:func:`~repro.events.queries.extract_axis_value`) and descends into
   the matching child plus the residual, merging the reached leaves (and
   wildcards) by installation sequence.  Extraction is conservative: an
   event exhibiting an axis ambiguously (several same-label children,
   non-scalar content) degrades to that node's whole subtree, so
   discrimination can over-deliver but never under-deliver.

Maintenance is **incremental**: installing a rule inserts one row per
interested label along an O(depth) trie path (splitting only the touched
leaf), and uninstalling prunes the same path eagerly (collapsing emptied
nodes), so neither pays the O(rules) full rebuild — that cost is reserved
for :meth:`ReactiveEngine.refresh`, which still handles rule-set changes
by rebuilding through the same insert machinery.

``EngineConfig(trie_depth=...)`` is the one depth knob: ``trie_depth=0``
stops at the root label (E15); the default runs the full trie (depth
swept in E22).  Every depth produces identical answers, firing counts and
firing order; only the candidate count changes
(``EngineStats.candidates_considered`` / ``index_probes`` /
``matcher_calls`` expose it).

Overlapping-rule combinators (:mod:`repro.core.rulesets`) compile into
per-rule ``(group, kind, precedence)`` specs: at dispatch, answers of
grouped rules are set aside while ungrouped rules fire exactly as before,
then each group fires only its highest-precedence answering members —
losers are counted in ``EngineStats.firings_suppressed``.  Within one
event instant, group winners therefore fire after ungrouped rules, in
installation order.

Sharding hooks
--------------

One engine is one *shard* of a node's rule base.  With
``EngineConfig(shards=N)`` (N > 1) the facade puts a
:class:`~repro.sharding.ShardRouter` in front of N engines; the router
drives each engine through a few dedicated seams instead of the node
inbox:

- ``attach=False`` skips the ``node.on_event`` registration (the router
  is the node's only handler and feeds shards from per-shard inboxes);
- :meth:`ReactiveEngine.handle_event` takes ``fire=False`` for events
  delivered to a *replica* of a rule hosted on several shards: the
  evaluators advance (state stays identical across replicas) but the
  answers are counted in ``EngineStats.firings_deduped`` instead of
  firing — exactly-once actions across the fleet;
- ``wakeup_via`` redirects absence-deadline registration to the router,
  which merges same-instant wake-ups across shards so firing order at a
  shared deadline follows global installation order;
- ``installer`` redirects ``INSTALL``/``UNINSTALL`` actions (Thesis 11)
  executed inside a shard back to the router, which places the rule;
- :meth:`ReactiveEngine.add_rule` / :meth:`ReactiveEngine.drop_rule`,
  the O(trie depth) primitives under incremental install and uninstall,
  are also how the router places a rule on a shard or takes it off: it
  passes the *global* installation sequence, so no shard ever renumbers,
  and ``drop_rule`` hands back the evaluator, state intact, to be moved.

None of this affects a directly-constructed engine: with the default
``shards=1`` nothing changes, bit for bit.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, fields

from repro.core import actions as act
from repro.core import conditions as cond
from repro.core.rules import ECARule
from repro.core.rulesets import RuleSet, compile_group_specs
from repro.deductive.base import TermBase
from repro.deductive.evaluation import forward_chain
from repro.deductive.rules import Program
from repro.errors import ActionError, RecursionRejected, RuleError
from repro.events.consumption import ConsumingEvaluator, ConsumptionPolicy
from repro.events.factory import resolve_evaluator
from repro.events.model import Event, make_event
from repro.events.queries import extract_axis_value
from repro.terms.ast import Bindings, Data, canonical_str
from repro.terms.simulation import matcher_call_count, scalar_key
from repro.updates.primitives import delete_terms, insert_child, replace_terms
from repro.updates.transactions import Transaction
from repro.web.network import authority
from repro.web.node import WebNode


@dataclass
class EngineStats:
    """Counters the benchmark experiments report.

    The dispatch-efficiency triple measures the discrimination trie:
    ``candidates_considered`` counts (rule, evaluator) pairs handed an
    event (close to the rules that can actually match; ``trie_depth=0``
    hands over the event label's whole bucket), ``index_probes`` counts
    dispatch-index probes — one for the root-label lookup plus one per trie
    node visited, so at most 1 + the trie depth per event — and
    ``matcher_calls`` counts term-matcher invocations made by the
    evaluators the event reached — the work the index failed to avoid.

    ``firings_deduped`` counts answers produced by *replica* evaluators
    of rules hosted on several shards and therefore suppressed (the
    designated shard fired them); always 0 outside sharded mode.
    ``firings_suppressed`` counts answers of combinator-group members
    outvoted by a higher-precedence member answering the same instant
    (see :mod:`repro.core.rulesets`); 0 without combinator groups.  See
    :attr:`repro.api.ReactiveNode.stats` for the full key-by-key guide.

    Keys are also readable dict-style — ``stats["rule_firings"]`` — for
    report scripts.
    """

    events_processed: int = 0
    derived_events: int = 0
    rule_firings: int = 0
    condition_evaluations: int = 0
    actions_executed: int = 0
    updates_applied: int = 0
    events_raised: int = 0
    rollbacks: int = 0
    wakeups: int = 0
    evaluator_advances: int = 0
    candidates_considered: int = 0
    index_probes: int = 0
    matcher_calls: int = 0
    firings_deduped: int = 0
    firings_suppressed: int = 0
    # Mirrored from the node's inbox by ReactiveNode.stats (the facade is
    # the one place that sees both halves); 0 for a bare engine.
    inbox_depth: int = 0
    inbox_peak: int = 0

    def __getitem__(self, key: str):
        """Dict-style read access (``stats["rule_firings"]``) for reports."""
        if key not in _ENGINE_STATS_FIELDS:
            raise KeyError(key)
        return getattr(self, key)


_ENGINE_STATS_FIELDS = frozenset(field_.name for field_ in fields(EngineStats))


@dataclass(frozen=True)
class EngineConfig:
    """Everything configurable about one node's engine, in one value.

    This is the single reference for every knob; pass it as
    ``sim.reactive_node(uri, config=EngineConfig(...))`` or directly to
    :class:`ReactiveEngine`.

    **Semantics**

    - ``consumption`` — event instance consumption policy applied to every
      rule's evaluator: ``"unrestricted"`` (default), ``"chronicle"``, or
      ``"recent"`` (see :mod:`repro.events.consumption`).
    - ``evaluator`` — the event-query evaluation mechanism built for each
      rule: ``"incremental"`` (default; prefix extension) or ``"naive"``
      (full re-evaluation, the Thesis 6 baseline and the test oracle).
      Also accepts a custom :class:`~repro.events.factory.EvaluatorFactory`
      or a bare ``(query, rates) -> evaluator`` callable (called with
      ``rates=None``); both built-in mechanisms produce the same answers
      (property-tested), so the knob only moves cost.  The engine, the
      shard router, and the facade all build evaluators through this one
      seam.
    - ``event_views`` — a non-recursive deductive :class:`Program`
      deriving further event terms from each incoming event (Thesis 9);
      rules can subscribe to the derived labels.

    **Dispatch**

    - ``trie_depth`` — cap on how many axis levels the discrimination
      trie may split below each root label: within one label's bucket,
      rules are sub-indexed by their constant discriminators (attribute
      values or constant-scalar children), so high-fanout labels stop
      broadcasting to their whole bucket.  ``None`` (default) splits
      until rules run out of discriminators; ``1`` reproduces the old
      two-level net (one shared axis per label bucket) — the E22
      ablation; ``0`` stops the net at the root label — the E15
      ablation, i.e. pre-discrimination behaviour.  Every depth is
      observationally equivalent; only the candidate counts in
      :class:`EngineStats` change.

    **Delivery**

    - ``inbox_batch`` — cap on events one inbox drain processes before
      re-yielding to the scheduler (``None`` = leave the node's setting
      alone; a fresh node drains its whole backlog at once).  With
      ``shards > 1`` the same value caps how many events each *shard*
      consumes per router drain — the fairness knob that stops one
      backlogged shard from starving the others.

    **Scale-out**

    - ``shards`` — number of engine shards behind one
      :class:`~repro.api.ReactiveNode` (default 1: a single engine, the
      exact pre-sharding code path).  With N > 1 the facade builds a
      :class:`~repro.sharding.ShardRouter` that partitions installed rules
      across N engines by root label (splitting one hot label along its
      discriminator-attribute axis), gives each shard its own FIFO inbox,
      and drains them from the scheduler in global arrival order —
      answers and firing order are identical to ``shards=1`` (the E16
      experiment; property-tested).  Only the facade interprets this
      field: a bare :class:`ReactiveEngine` rejects N > 1.

    **Ingestion**

    - ``ingest`` — an :class:`~repro.ingest.admission.IngestConfig` puts
      the ingestion tier's admission controller in front of the node
      inbox: high-water backpressure with an overflow policy (``reject``
      / ``drop-oldest`` / ``spill``), per-sender token-bucket rate
      limiting, weighted-fair service, and enqueue-to-fire latency
      accounting (see :mod:`repro.ingest`).  The facade exposes the
      gateway as :attr:`~repro.api.ReactiveNode.ingest` and its live
      counters as ``ReactiveNode.stats.ingest``.
      ``None`` (default) builds no gateway at all — events reach the
      inbox exactly as before; the E18 ablation.  Only the facade
      interprets this field, like ``shards``.

    **Persistence**

    - ``store`` — a :class:`~repro.store.StoreConfig` makes the node's
      resource store durable: committed outermost transactions are
      persisted (``backend="wal"``: one CRC-framed group-commit record
      and one fsync per transaction, with periodic snapshot compaction)
      and reopening a node on the same path recovers the committed state,
      per-URI version floors included (see :mod:`repro.store`).  ``None``
      or ``backend="memory"`` (the defaults) keep the plain in-memory
      store — bit-for-bit the pre-persistence path.  Only the facade
      interprets this field: it opens the store and swaps it in as
      ``node.resources`` before the engine (or shard fleet) attaches, so
      every layer — engine actions, polling, identity monitors, all
      shards — shares the one durable store.
    """

    consumption: str = "unrestricted"
    event_views: "Program | None" = None
    trie_depth: "int | None" = None
    inbox_batch: int | None = None
    shards: int = 1
    ingest: "object | None" = None  # IngestConfig; typed loosely to keep
    # the core layer free of an import from repro.ingest (which imports web)
    store: "object | None" = None  # StoreConfig; same deferred-import
    # discipline as ingest — core stays free of an import from repro.store
    evaluator: "str | object" = "incremental"

    def __post_init__(self) -> None:
        # Fail at construction, not at first install; ConsumptionPolicy is
        # the single source of truth for valid policy names.
        ConsumptionPolicy(self.consumption)
        resolve_evaluator(self.evaluator)
        if self.trie_depth is not None and self.trie_depth < 0:
            raise RuleError(f"trie_depth must be >= 0, got {self.trie_depth}")
        if self.inbox_batch is not None and self.inbox_batch < 1:
            raise RuleError(f"inbox_batch must be >= 1, got {self.inbox_batch}")
        if self.shards < 1:
            raise RuleError(f"shards must be >= 1, got {self.shards}")
        if self.ingest is not None:
            # Deferred import: repro.ingest sits above the web layer and
            # must stay un-imported by core unless the knob is used.
            from repro.ingest.admission import IngestConfig

            if not isinstance(self.ingest, IngestConfig):
                raise RuleError(
                    f"ingest must be an IngestConfig, got {self.ingest!r}"
                )
        if self.store is not None:
            from repro.store import StoreConfig

            if not isinstance(self.store, StoreConfig):
                raise RuleError(
                    f"store must be a StoreConfig, got {self.store!r}"
                )


@dataclass(frozen=True)
class Procedure:
    """A named, parameterised action (Thesis 9 procedural abstraction)."""

    name: str
    params: tuple[str, ...]
    action: object


def derive_events(program: "Program | None", event: Event,
                  source_uri: str) -> list[Event]:
    """Expand one event through a deductive event-view program (Thesis 9).

    Shared by the single engine and the shard router: on a sharded node
    derivation must happen *before* routing (a derived event's label may
    live on a different shard than the triggering event's), so the router
    calls this once per incoming event and routes every derived event like
    a fresh arrival.
    """
    if program is None:
        return []
    base = TermBase([event.term])
    closed = forward_chain(program, base)
    out = []
    for fact in closed:
        if canonical_str(fact) == canonical_str(event.term):
            continue
        out.append(make_event(fact, event.time, source=source_uri,
                              occurrence=event.occurrence))
    return out


def _row_seq(row):
    """Sort key of one trie row: its installation sequence."""
    return row[0]


class _TrieNode:
    """One node of a root label's discrimination trie.

    A node is either a **leaf** (``axis is None``) holding seq-sorted rows
    ``(seq, rule, evaluator, remaining_discriminators)``, or **internal**:
    ``axis`` names the ``(kind, key)`` pair it discriminates on,
    ``children`` maps each constant on that axis to the subtrie of rows
    requiring it (the routing discriminator consumed), and ``residual``
    holds the subtrie of rows with no discriminator on the axis.  A leaf
    *splits* when some row still carries an unconsumed discriminator (and
    the depth cap allows), picking the most selective axis exactly like
    the old two-level net did: most constraining rows, ties broken by
    distinct-value count then axis name.

    All edits are in-place and O(path): ``insert`` descends by the row's
    discriminators (splitting only the touched leaf), ``remove`` prunes
    the same path and collapses emptied nodes (splicing a lone residual
    up).  Dispatch (``collect``) therefore copies what it returns —
    callers never hold references into live node state.  ``_subtree``
    caches the seq-sorted rows of a whole subtree for ambiguous events;
    any edit below a node invalidates the caches along its path.
    """

    __slots__ = ("axis", "children", "residual", "entries", "_subtree")

    def __init__(self) -> None:
        self.axis: "tuple[str, str] | None" = None
        self.children: "dict | None" = None  # value -> _TrieNode
        self.residual: "_TrieNode | None" = None
        self.entries: list = []  # leaf rows, seq-sorted
        self._subtree: "list | None" = None

    def _route(self, discs: frozenset):
        """The discriminator this node's axis consumes from *discs*.

        Deterministic when a row carries several constants on one axis
        (canonically smallest wins), so remove retraces insert's path.
        """
        on_axis = [d for d in discs if (d.kind, d.key) == self.axis]
        if not on_axis:
            return None
        return min(on_axis, key=lambda d: canonical_str(d.value))

    def insert(self, row, depth: int, max_depth: "int | None") -> None:
        """Insert one row, splitting the reached leaf if it discriminates."""
        self._subtree = None
        if self.axis is None:
            bisect.insort(self.entries, row, key=_row_seq)
            if max_depth is None or depth < max_depth:
                self._maybe_split(depth, max_depth)
            return
        seq, rule, evaluator, discs = row
        routed = self._route(discs)
        if routed is None:
            if self.residual is None:
                self.residual = _TrieNode()
            self.residual.insert(row, depth + 1, max_depth)
        else:
            child = self.children.get(routed.value)
            if child is None:
                child = self.children[routed.value] = _TrieNode()
            child.insert((seq, rule, evaluator, discs - {routed}),
                         depth + 1, max_depth)

    def _maybe_split(self, depth: int, max_depth: "int | None") -> None:
        """Split this leaf on its most selective remaining axis, if any.

        Even a single-row leaf splits (matching the old net, where a
        lone discriminating rule still got a value sub-index): the value
        child lets dispatch skip the rule entirely on other constants.
        """
        values_per_axis: dict[tuple[str, str], set] = {}
        for _seq, _rule, _evaluator, discs in self.entries:
            for disc in discs:
                values_per_axis.setdefault(disc.axis, set()).add(
                    scalar_key(disc.value)
                )
        if not values_per_axis:
            return
        counts = {
            axis: sum(
                1 for _s, _r, _e, discs in self.entries
                if any(d.axis == axis for d in discs)
            )
            for axis in values_per_axis
        }
        axis = max(counts, key=lambda a: (counts[a], len(values_per_axis[a]), a))
        rows, self.entries = self.entries, []
        self.axis = axis
        self.children = {}
        for row in rows:
            self.insert(row, depth, max_depth)

    def remove(self, row) -> bool:
        """Remove the row (matched by seq), collapsing emptied nodes.

        Retraces the insert path by the row's discriminators; returns
        whether the row was found.  A node whose children all empty out
        splices its residual into its own place (or reverts to an empty
        leaf), so the trie never accumulates dead interior nodes.
        """
        self._subtree = None
        if self.axis is None:
            for i, existing in enumerate(self.entries):
                if existing[0] == row[0]:
                    del self.entries[i]
                    return True
            return False
        seq, rule, evaluator, discs = row
        routed = self._route(discs)
        if routed is None:
            if self.residual is None:
                return False
            found = self.residual.remove(row)
            if found and self.residual.is_empty():
                self.residual = None
        else:
            child = self.children.get(routed.value)
            if child is None:
                return False
            found = child.remove((seq, rule, evaluator, discs - {routed}))
            if found and child.is_empty():
                del self.children[routed.value]
        if found and not self.children:
            spliced = self.residual
            if spliced is None:
                self.axis = None
                self.children = None
                self.entries = []
            else:
                self.axis = spliced.axis
                self.children = spliced.children
                self.residual = spliced.residual
                self.entries = spliced.entries
        return found

    def is_empty(self) -> bool:
        return self.axis is None and not self.entries

    def subtree_rows(self) -> list:
        """All rows below this node, seq-sorted (cached until edited)."""
        if self.axis is None:
            return self.entries
        if self._subtree is None:
            lists = [child.subtree_rows() for child in self.children.values()]
            if self.residual is not None:
                lists.append(self.residual.subtree_rows())
            self._subtree = sorted(
                (row for rows in lists for row in rows), key=_row_seq
            )
        return self._subtree

    def collect(self, term: Data, stats: EngineStats, out: list) -> None:
        """Append the seq-sorted row lists *term* can affect to *out*.

        Iterative descent: at each internal node extract the event's
        constant on the node's axis once, then follow the matching value
        child plus the residual.  Ambiguity takes the whole subtree
        instead (the residual is already inside it).
        """
        stack = [self]
        while stack:
            node = stack.pop()
            if node.axis is None:
                if node.entries:
                    out.append(node.entries)
                continue
            stats.index_probes += 1
            value, ambiguous = extract_axis_value(term, *node.axis)
            if ambiguous:
                rows = node.subtree_rows()
                if rows:
                    out.append(rows)
                continue
            if node.residual is not None:
                stack.append(node.residual)
            if value is not None:
                child = node.children.get(value)
                if child is not None:
                    stack.append(child)


def resolve_group_answers(rows: list) -> None:
    """Fire each combinator group's winning answers, suppress losers.

    *rows* are ``(engine, name, rule, answers, (gid, kind, prec))`` in
    installation order — one engine's rows at dispatch and at its own
    wake-ups, several engines' rows when the shard router resolves a
    shared deadline globally.  Per group, exactly the answering members
    at the highest precedence fire (ties all fire; first-match groups
    have unique precedences, so one winner); losers' answers are counted
    in their engine's ``stats.firings_suppressed``.
    """
    best: dict[str, float] = {}
    for _engine, _name, _rule, _answers, (gid, _kind, prec) in rows:
        if gid not in best or prec > best[gid]:
            best[gid] = prec
    for engine, name, rule, answers, (gid, _kind, prec) in rows:
        if prec != best[gid]:
            engine.stats.firings_suppressed += len(answers)
            continue
        for answer in answers:
            if engine.collector is not None:
                engine.collector.append((name, rule, answer.bindings))
            else:
                engine._fire(rule, answer.bindings)


class ReactiveEngine:
    """Rule evaluation and action execution for one node."""

    def __init__(self, node: WebNode, config: "EngineConfig | None" = None,
                 *, attach: bool = True) -> None:
        if config is None:
            config = EngineConfig()
        if config.shards != 1:
            raise RuleError(
                f"a bare ReactiveEngine is exactly one shard; shards="
                f"{config.shards} is interpreted by the ReactiveNode facade "
                "(sim.reactive_node(uri, config=...)), which puts a "
                "ShardRouter in front of the engines"
            )
        if config.event_views is not None and config.event_views.is_recursive():
            raise RecursionRejected(
                "event-level deductive views must be non-recursive (Thesis 9)"
            )
        self.node = node
        self.config = config
        self.stats = EngineStats()
        self.consumption = config.consumption
        self._factory = resolve_evaluator(config.evaluator)
        self._event_views = config.event_views
        # Depth cap handed to trie inserts (None = unbounded, 0 = never
        # split: the root-label-only ablation).
        self._split_depth = config.trie_depth
        # Only settings the config actually specifies reach the node;
        # node-level delivery choices survive an engine with defaults.
        if config.inbox_batch is not None:
            node.configure_delivery(inbox_batch=config.inbox_batch)
        self._rulesets: list[RuleSet] = []
        self._single_rules: dict[str, ECARule] = {}
        self._active: dict[str, tuple[ECARule, object]] = {}
        # The discrimination trie (maintained incrementally, rebuilt
        # wholesale only by refresh): root label of an incoming event ->
        # _TrieNode over the (seq, rule, evaluator, discriminators) rows
        # whose queries can be affected by it.  Wildcard rules live in the
        # seq-sorted _wildcard_rows side list, merged in at dispatch (so a
        # wildcard install is O(log n), not O(labels)).
        self._index: dict[str, _TrieNode] = {}
        self._wildcard_rows: list = []
        # Installation sequences are tuples — singles (0, i), rule-set
        # rules (1, set_index, member_index) — so incrementally installed
        # singles keep firing before all rule-set rules, exactly the order
        # a full refresh would assign.  _next_single continues the single
        # counter between refreshes.
        self._next_single = 0
        # Combinator-group dispatch specs: qualified rule name ->
        # (group_path, kind, precedence), compiled from the installed rule
        # sets (see repro.core.rulesets.compile_group_specs); the shard
        # router overrides this with the node-wide table.
        self._groups: dict[str, tuple[str, str, float]] = {}
        # Wake-up group deferral: _on_time (and the shard router, across
        # shards) plants a list here so grouped answers produced by
        # advance_evaluator are resolved once per instant instead of
        # firing as they appear.  None = resolve/fire immediately.
        self._group_buffer: "list | None" = None
        self._procedures: dict[str, Procedure] = {}
        # Evaluators whose deadlines may have moved since the last wake-up
        # scheduling pass: only these need a next_deadline() probe, keeping
        # per-event scheduling work proportional to the rules dispatched
        # to, not to the total rule count.
        self._touched: set[object] = set()
        # deadline instant -> evaluators owning an absence window that may
        # expire then.  One scheduler callback per distinct instant; at the
        # wake-up only the owners are advanced, so idle
        # rules pay nothing for other rules' deadlines.
        self._deadline_owners: dict[float, set[object]] = {}
        # The reverse map — evaluator -> instants it owns — so uninstalling
        # a rule touches its own deadlines, not every pending instant.
        self._owned_instants: dict[object, set[float]] = {}
        # evaluator -> (installation sequence tuple, rule name, rule);
        # maintained incrementally (rebuilt in refresh).  Lets _on_time
        # order and advance just the owners without scanning the whole
        # active table, drops stale (uninstalled) owners, and gives the
        # shard router the name it keys global installation order by.
        self._eval_entry: dict[object, tuple[tuple, str, ECARule]] = {}
        self._web_views: dict[str, object] = {}  # uri -> BackwardEvaluator
        # Sharding seams (see the module docstring): the router replaces
        # `wakeup_via` to merge deadlines across shards and `installer` to
        # route INSTALL/UNINSTALL actions through its placement.  Both
        # default to plain single-engine behaviour.
        self.wakeup_via = None  # callable(deadline) | None
        self.installer = self
        # Collect seam for the router's ambiguous-event unit: while a list
        # is planted here, handle_event *collects* answers as
        # (qualified_name, rule, bindings) instead of firing them and
        # defers wake-up scheduling — the router fires the copies' merged
        # answers in global installation order, then schedules the
        # wake-ups.  None = fire inline.
        self.collector = None  # list[(str, ECARule, Bindings)] | None
        if attach:
            node.on_event(self.handle_event)

    # -- rule management ------------------------------------------------------

    def install(self, item: "ECARule | RuleSet") -> None:
        """Install a rule or a whole rule set."""
        self.install_all((item,))

    def install_all(self, items, procedures=()) -> None:
        """Install many rules / rule sets (and procedures) in one batch.

        Atomic: if any item is rejected (bad type, duplicate rule or
        procedure name — even one only detected while rebuilding the
        active table), the rule base is restored to its previous state
        before the error propagates and no procedure is defined.

        A batch of plain rules takes the *incremental* path — each rule is
        admitted with an O(trie depth) dispatch edit and no full rebuild,
        the property that keeps per-install latency flat at 100k installed
        rules (E22).  Batches containing rule sets still rebuild through
        :meth:`refresh` (set membership and combinator-group compilation
        are whole-base properties).  *procedures* holds ``(name, params, action)``
        triples, as produced by :func:`repro.lang.parser.parse_program`.
        """
        procedures = tuple(procedures)
        pending: set[str] = set()
        for name, _params, _action in procedures:
            if name in self._procedures or name in pending:
                raise RuleError(f"procedure {name!r} already defined")
            pending.add(name)
        items = tuple(items)
        if all(isinstance(item, ECARule) for item in items):
            self._install_rules_incremental(items)
        else:
            saved_rules = dict(self._single_rules)
            saved_sets = list(self._rulesets)
            try:
                for item in items:
                    self._admit(item)
                self.refresh()
            except Exception:
                self._single_rules = saved_rules
                self._rulesets = saved_sets
                self.refresh()
                raise
        for name, params, action in procedures:
            self.define_procedure(name, tuple(params), action)

    def _install_rules_incremental(self, batch: tuple) -> None:
        """Admit a batch of plain rules without rebuilding the index.

        Order of operations makes atomicity free: all duplicate checks
        and all evaluator construction (the only part that can fail)
        happen before the first mutation.
        """
        seen: set[str] = set()
        for rule in batch:
            if rule.name in self._single_rules or rule.name in seen:
                raise RuleError(f"rule {rule.name!r} already installed")
            if rule.name in self._active:
                # Collides with an active qualified rule-set name — the
                # same rejection a full refresh would raise.
                raise RuleError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
        built = [(rule, self.build_evaluator(rule)) for rule in batch]
        for rule, evaluator in built:
            self._single_rules[rule.name] = rule
            self.add_rule((0, self._next_single), rule.name, rule, evaluator)
            self._next_single += 1

    def _admit(self, item: "ECARule | RuleSet") -> None:
        if isinstance(item, RuleSet):
            self._rulesets.append(item)
        elif isinstance(item, ECARule):
            if item.name in self._single_rules:
                raise RuleError(f"rule {item.name!r} already installed")
            self._single_rules[item.name] = item
        else:
            raise RuleError(f"cannot install {item!r}")

    def uninstall(self, item: "str | ECARule | RuleSet") -> None:
        """Remove an installed rule or rule set, by object or by name.

        A string uninstalls the single rule of that name, or — if no such
        rule exists — the installed rule set of that name.  A plain rule
        is pruned from the dispatch trie *eagerly* (O(trie depth), its
        pending absence deadlines dropped with it — an uninstalled rule
        must neither see another event nor wake the engine); removing a
        rule set rebuilds through :meth:`refresh`.
        """
        if isinstance(item, RuleSet):
            if not any(existing is item for existing in self._rulesets):
                raise RuleError(
                    f"rule set {item.name!r} is not installed ({self._installed()})"
                )
            self._rulesets = [rs for rs in self._rulesets if rs is not item]
        elif isinstance(item, ECARule):
            # Structural equality, not identity: rules round-tripped through
            # the meta wire format or re-parsed from text compare equal.
            if self._single_rules.get(item.name) != item:
                raise RuleError(
                    f"rule {item.name!r} is not installed ({self._installed()})"
                )
            del self._single_rules[item.name]
            self.drop_rule(item.name)
            return
        elif isinstance(item, str):
            if item in self._single_rules:
                del self._single_rules[item]
                self.drop_rule(item)
                return
            named = [rs for rs in self._rulesets if rs.name == item]
            if not named:
                raise RuleError(
                    f"no installed rule or rule set {item!r} ({self._installed()})"
                )
            self._rulesets.remove(named[0])
        else:
            raise RuleError(f"cannot uninstall {item!r}")
        self.refresh()

    def build_evaluator(self, rule: ECARule):
        """A fresh evaluator for *rule*, wrapped in the consumption policy."""
        evaluator: object = self._factory.build(rule.event)
        if self.consumption != "unrestricted":
            evaluator = ConsumingEvaluator(evaluator, self.consumption)
        return evaluator

    def add_rule(self, seq: tuple, name: str, rule: ECARule, evaluator,
                 interest=None) -> None:
        """Admit one rule at installation sequence *seq*, O(trie depth).

        With :meth:`drop_rule`, the one primitive under incremental
        installs, :meth:`refresh` and the shard router — which passes the
        *global* sequence, an evaluator that may carry state, and the
        *interest* it already derived (``None``: ask the evaluator).
        """
        if interest is None:
            interest = evaluator.interest()
        self._active[name] = (rule, evaluator)
        self._eval_entry[evaluator] = (seq, name, rule)
        if interest.by_label is None:
            bisect.insort(self._wildcard_rows,
                          (seq, rule, evaluator, frozenset()), key=_row_seq)
            return
        for label, discriminators in interest.by_label:
            root = self._index.get(label)
            if root is None:
                root = self._index[label] = _TrieNode()
            root.insert((seq, rule, evaluator, discriminators), 0,
                        self._split_depth)

    def drop_rule(self, name: str, interest=None):
        """Eagerly prune one rule from every dispatch structure.

        Returns its evaluator, partial-match state intact.
        """
        rule, evaluator = self._active.pop(name)
        seq = self._eval_entry.pop(evaluator)[0]
        if interest is None:
            interest = evaluator.interest()
        if interest.by_label is None:
            self._wildcard_rows = [
                row for row in self._wildcard_rows if row[0] != seq
            ]
        else:
            for label, discriminators in interest.by_label:
                root = self._index.get(label)
                if root is None:
                    continue
                root.remove((seq, rule, evaluator, discriminators))
                if root.is_empty():
                    del self._index[label]
        self._touched.discard(evaluator)
        self._forget_deadlines(evaluator)
        return evaluator

    def _forget_deadlines(self, evaluator) -> None:
        """Deadlines an evaluator owned die with it, O(its own instants).

        The owner sets are emptied but the instants' entries stay (their
        clock callbacks are already scheduled; the entry stops a later
        deadline at that instant from scheduling a duplicate) — _on_time
        skips an all-pruned instant without counting a wakeup.
        """
        for when in self._owned_instants.pop(evaluator, ()):
            self._deadline_owners[when].discard(evaluator)

    def take_due(self, when: float) -> set:
        """Pop the evaluators owning a deadline at *when*."""
        owners = self._deadline_owners.pop(when, set())
        for evaluator in owners:
            self._owned_instants[evaluator].discard(when)
        return owners

    def _installed(self) -> str:
        rules = ", ".join(sorted(self._single_rules)) or "none"
        sets = ", ".join(ruleset.name for ruleset in self._rulesets) or "none"
        return f"installed rules: {rules}; installed rule sets: {sets}"

    def refresh(self) -> None:
        """Rebuild the active rule table and the dispatch trie wholesale.

        Evaluators of rules that stay installed keep their partial-match
        state; new rules start fresh.  Sequences are renumbered — singles
        first in admission order, then rule-set rules in set order — and
        the trie is rebuilt through the same insert machinery incremental
        installs use, so a refreshed base and an incrementally grown one
        dispatch identically.  Combinator-group specs are recompiled here
        (groups live in rule sets, which only change through this path).
        """
        wanted: dict[str, ECARule] = {}
        order: dict[str, tuple] = {}
        for i, (name, rule) in enumerate(self._single_rules.items()):
            wanted[name] = rule
            order[name] = (0, i)
        for j, ruleset in enumerate(self._rulesets):
            for k, (qualified_name, rule, _owner) in enumerate(ruleset.qualified()):
                if qualified_name in wanted:
                    raise RuleError(f"duplicate rule name {qualified_name!r}")
                wanted[qualified_name] = rule
                order[qualified_name] = (1, j, k)
        active: dict[str, tuple[ECARule, object]] = {}
        for name, rule in wanted.items():
            current = self._active.get(name)
            if current is not None and current[0] is rule:
                active[name] = current  # survivors keep their state
            else:
                active[name] = (rule, self.build_evaluator(rule))
        self._next_single = len(self._single_rules)
        live = {evaluator for _rule, evaluator in active.values()}
        self._touched.intersection_update(live)
        for evaluator in [ev for ev in self._owned_instants if ev not in live]:
            self._forget_deadlines(evaluator)
        self._active = {}
        self._index = {}
        self._wildcard_rows = []
        self._eval_entry = {}
        for name, (rule, evaluator) in active.items():
            self.add_rule(order[name], name, rule, evaluator)
        self._groups = compile_group_specs(self._rulesets)

    def rules(self) -> list[str]:
        """Names of the currently active rules, in installation order."""
        return [entry[1] for entry in
                sorted(self._eval_entry.values(), key=lambda e: e[0])]

    def define_procedure(self, name: str, params: tuple[str, ...], action) -> None:
        """Register a named action procedure (Thesis 9)."""
        if name in self._procedures:
            raise RuleError(f"procedure {name!r} already defined")
        self._procedures[name] = Procedure(name, tuple(params), action)

    def define_web_views(self, uri: str, program: Program) -> None:
        """Attach deductive views to a local resource (Thesis 9).

        Conditions querying *uri* then see the resource's child terms plus
        every fact the view rules derive from them — like querying a
        database view.  Views may be recursive (they run over persistent
        data, not per event) and are re-materialised lazily after the
        resource changes.
        """
        from repro.deductive.evaluation import BackwardEvaluator

        resource_uri = uri

        class _ViewState:
            def __init__(self, node) -> None:
                self.node = node
                self.evaluator: BackwardEvaluator | None = None

            def refresh(self) -> BackwardEvaluator:
                if self.evaluator is None:
                    root = self.node.resources.get(resource_uri)
                    base = TermBase.from_document(root)
                    self.evaluator = BackwardEvaluator(program, base)
                return self.evaluator

            def invalidate(self, changed_uri, old, new, version) -> None:
                if changed_uri == resource_uri:
                    self.evaluator = None

        state = _ViewState(self.node)
        # immediate=True: the view cache must track *uncommitted* state too
        # (conditions inside an atomic sequence query through it), and must
        # be invalidated again when a rollback restores earlier content —
        # transactional (buffered) delivery would leave it stale both ways.
        self.node.resources.watch(state.invalidate, immediate=True)
        self._web_views[uri] = state

    # -- event handling ----------------------------------------------------------

    def handle_event(self, event: Event, fire: bool = True,
                     exclude: frozenset = frozenset(),
                     fire_for: "frozenset | None" = None) -> None:
        """Node inbox entry point.

        ``fire=False`` is the shard router's replica mode: evaluators
        advance exactly as usual (replica state must track the designated
        shard's state), but answers are suppressed and counted in
        ``stats.firings_deduped`` instead of executing actions — the
        designated shard fires them exactly once.  ``fire_for`` is the
        per-rule refinement for *ambiguous* events the router delivered to
        every shard of a label: only the named rules fire here (the rules
        whose designated shard this is), the rest dedup — so one event
        copy can fire shard-local rules and advance replicas at once.
        ``exclude`` names rules the event must stay invisible to: rules
        installed *while* the event was mid-flight across shards (the
        single engine's dispatch snapshot hides an in-progress event from
        rules it installs; the router reproduces that by tagging the
        event's remaining copies).
        """
        self.stats.events_processed += 1
        self._dispatch(event, fire, exclude, fire_for)
        for derived in self._derive_events(event):
            self.stats.derived_events += 1
            self._dispatch(derived, fire, exclude, fire_for)
        if self.collector is None:
            self._schedule_wakeups()
        # Collect mode: _touched accumulates; the router runs
        # _schedule_wakeups once the collected answers have fired.

    def _derive_events(self, event: Event) -> list[Event]:
        return derive_events(self._event_views, event, self.node.uri)

    def _dispatch(self, event: Event, fire: bool = True,
                  exclude: frozenset = frozenset(),
                  fire_for: "frozenset | None" = None) -> None:
        stats = self.stats
        entries = self._interested(event)
        eval_entry = self._eval_entry
        if exclude:
            entries = [(rule, evaluator) for rule, evaluator in entries
                       if eval_entry[evaluator][1] not in exclude]
        stats.candidates_considered += len(entries)
        groups = self._groups
        deferred: "list | None" = None
        for rule, evaluator in entries:
            entry = eval_entry.get(evaluator)
            if entry is None:
                # Uninstalled by an earlier rule's action mid-dispatch: it
                # no longer sees the in-flight event, just as a rule
                # installed mid-dispatch is absent from the snapshot.
                continue
            self._touched.add(evaluator)
            before = matcher_call_count()
            answers = evaluator.on_event(event)
            stats.matcher_calls += matcher_call_count() - before
            if rule.firing == "first" and len(answers) > 1:
                answers = answers[:1]
            if not answers:
                continue
            name = entry[1]
            if not (fire if fire_for is None else name in fire_for):
                # Replica mode dedups *before* group resolution: the
                # rule's designated shard is the one that arbitrates.
                stats.firings_deduped += len(answers)
                continue
            spec = groups.get(name) if groups else None
            if spec is not None:
                # Grouped answers are set aside and resolved once the
                # whole instant is seen; ungrouped rules below fire
                # exactly as they always did.
                if deferred is None:
                    deferred = []
                deferred.append((self, name, rule, answers, spec))
                continue
            for answer in answers:
                if self.collector is not None:
                    self.collector.append((name, rule, answer.bindings))
                else:
                    self._fire(rule, answer.bindings)
        if deferred:
            resolve_group_answers(deferred)

    def _interested(self, event: Event) -> list[tuple[ECARule, object]]:
        """Snapshot of the rules whose queries can be affected by *event*.

        Probes the event label's trie root, descends by the constants the
        event exhibits on each visited axis, and merges the reached leaf
        lists with the wildcard rules by installation sequence.
        Root-label-only mode (``trie_depth=0``) never splits the trie, so
        the root is one flat leaf.  Always a *fresh* list: firing a rule
        may install/uninstall rules, which edits the trie in place
        mid-dispatch — the snapshot the loop iterates must not alias live
        node state.
        """
        self.stats.index_probes += 1
        root = self._index.get(event.term.label)
        lists: list = []
        if root is not None:
            root.collect(event.term, self.stats, lists)
        if self._wildcard_rows:
            lists.append(self._wildcard_rows)
        rows = lists[0] if len(lists) == 1 else heapq.merge(*lists,
                                                            key=_row_seq)
        return [(rule, evaluator) for _s, rule, evaluator, _d in rows]

    def _on_time(self, when: float) -> None:
        owners = self.take_due(when)
        if not owners:
            # Every owner was eagerly pruned (uninstalled) after this
            # wake-up was scheduled: nothing can expire, so the instant is
            # not a wake-up at all — don't count or advance anything.
            return
        self.stats.wakeups += 1
        # Owners advance in installation order, so firing order at a shared
        # deadline is deterministic; per-wakeup work scales with the
        # expiring rules, never the whole rule base.
        batch = sorted(owners, key=lambda ev: self._eval_entry[ev][0])
        # Same deferral as _dispatch, across the whole instant: grouped
        # answers compete per instant, not per evaluator.
        buffer: "list | None" = [] if self._groups else None
        self._group_buffer = buffer
        try:
            for evaluator in batch:
                self.advance_evaluator(when, evaluator)
        finally:
            self._group_buffer = None
        if buffer:
            resolve_group_answers(buffer)
        self._schedule_wakeups()

    def advance_evaluator(self, when: float, evaluator,
                          fire: bool = True) -> None:
        """Advance one evaluator to *when*, firing (or deduping) answers.

        The wake-up work unit: `_on_time` applies it to every expiring
        local rule; the shard router applies it across shards in global
        installation order, with ``fire=False`` on all but the rule's
        designated shard so absence answers act exactly once.  The caller
        is responsible for the follow-up :meth:`_schedule_wakeups` — and,
        when combinator groups are active, for planting ``_group_buffer``
        around the instant and resolving it after (grouped answers with no
        buffer planted fire immediately, ungrouped semantics).  An evaluator
        uninstalled earlier in the same wake-up is skipped, as in dispatch.
        """
        entry = self._eval_entry.get(evaluator)
        if entry is None:
            return
        _seq, name, rule = entry
        self._touched.add(evaluator)
        self.stats.evaluator_advances += 1
        before = matcher_call_count()
        answers = evaluator.advance_time(when)
        self.stats.matcher_calls += matcher_call_count() - before
        if rule.firing == "first" and len(answers) > 1:
            answers = answers[:1]
        if not fire:
            self.stats.firings_deduped += len(answers)
            return
        if not answers:
            return
        if self._group_buffer is not None:
            spec = self._groups.get(name) if self._groups else None
            if spec is not None:
                self._group_buffer.append((self, name, rule, answers, spec))
                return
        for answer in answers:
            self._fire(rule, answer.bindings)

    def _schedule_wakeups(self, arrived=None) -> None:
        """Register the next deadline of every touched evaluator — or of
        just the *arrived* ones the shard router moved here."""
        for evaluator in self._touched if arrived is None else arrived:
            deadline = evaluator.next_deadline()
            if deadline is None:
                continue
            owners = self._deadline_owners.get(deadline)
            if owners is None:
                owners = self._deadline_owners[deadline] = set()
                if self.wakeup_via is not None:
                    self.wakeup_via(deadline)
                else:
                    self.node.clock.at(deadline,
                                       lambda d=deadline: self._on_time(d))
            owners.add(evaluator)
            self._owned_instants.setdefault(evaluator, set()).add(deadline)
        if arrived is None:
            self._touched.clear()

    # -- rule firing ------------------------------------------------------------------

    def _fire(self, rule: ECARule, bindings: Bindings) -> None:
        self.stats.rule_firings += 1
        for branch_condition, action in rule.branches:
            if branch_condition is None or isinstance(branch_condition, cond.TrueCond):
                extensions = [bindings]
            else:
                extensions = cond.evaluate(branch_condition, self.node, bindings,
                                           self.stats, self._web_views)
            if extensions:
                if rule.firing == "first":
                    extensions = extensions[:1]
                for extension in extensions:
                    self.execute(action, extension)
                return
        if rule.otherwise is not None:
            self.execute(rule.otherwise, bindings)

    # -- action execution -----------------------------------------------------------------

    def execute(self, action, bindings: Bindings) -> None:
        """Execute one action under the given bindings."""
        self.stats.actions_executed += 1
        if isinstance(action, act.Raise):
            to = act.resolve_uri(action.to, bindings)
            term = act.build_term(action.term, bindings)
            self.stats.events_raised += 1
            self.node.raise_event(to, term)
            return
        if isinstance(action, act.Update):
            self._apply_update(action, bindings)
            return
        if isinstance(action, act.PutResource):
            uri = self._local_uri(act.resolve_uri(action.uri, bindings))
            self.node.resources.put(uri, act.build_term(action.content, bindings))
            self.stats.updates_applied += 1
            return
        if isinstance(action, act.DeleteResource):
            uri = self._local_uri(act.resolve_uri(action.uri, bindings))
            self.node.resources.delete(uri)
            self.stats.updates_applied += 1
            return
        if isinstance(action, act.Persist):
            self._persist(action, bindings)
            return
        if isinstance(action, act.Sequence):
            self._run_sequence(action, bindings)
            return
        if isinstance(action, act.Alternative):
            self._run_alternative(action, bindings)
            return
        if isinstance(action, act.Conditional):
            extensions = cond.evaluate(action.condition, self.node, bindings,
                                       self.stats, self._web_views)
            if extensions:
                self.execute(action.then, extensions[0])
            elif action.otherwise is not None:
                self.execute(action.otherwise, bindings)
            return
        if isinstance(action, act.CallProcedure):
            self._call_procedure(action, bindings)
            return
        if isinstance(action, act.InstallRule):
            from repro.core.meta import term_to_rule

            rule = term_to_rule(act.build_term(action.rule_term, bindings))
            # Through the installer seam: on a sharded node the router
            # places the rule instead of installing into this shard only.
            self.installer.install(rule)
            return
        if isinstance(action, act.UninstallRule):
            name = action.name
            if not isinstance(name, str):
                value = bindings.get(name.name)
                if not isinstance(value, str):
                    raise ActionError(f"rule-name variable {name.name!r} unbound")
                name = value
            self.installer.uninstall(name)
            return
        if isinstance(action, act.PyAction):
            try:
                action.fn(self.node, bindings)
            except ActionError:
                raise
            except Exception as exc:  # noqa: BLE001 - deliberate wrap
                raise ActionError(f"python action {action.label!r} failed: {exc}") from exc
            return
        raise ActionError(f"not an action: {action!r}")

    # -- helpers ---------------------------------------------------------------------------

    def _local_uri(self, uri: str) -> str:
        if authority(uri) != self.node.uri:
            raise ActionError(
                f"{self.node.uri} cannot update remote resource {uri}; "
                "request the update by raising an event (Thesis 2)"
            )
        return uri

    def _apply_update(self, action: act.Update, bindings: Bindings) -> None:
        uri = self._local_uri(act.resolve_uri(action.uri, bindings))
        root = self.node.resources.get(uri)
        if action.kind == "insert":
            new_root, count = insert_child(root, action.target, action.payload,
                                           bindings, action.position)
        elif action.kind == "delete":
            new_root, count = delete_terms(root, action.target, bindings)
        else:
            new_root, count = replace_terms(root, action.target, action.payload, bindings)
        if count == 0 and action.require_effect:
            raise ActionError(f"update on {uri} matched nothing")
        if count:
            self.node.resources.put(uri, new_root)
            self.stats.updates_applied += 1

    def _persist(self, action: act.Persist, bindings: Bindings) -> None:
        uri = self._local_uri(act.resolve_uri(action.uri, bindings))
        content = act.build_term(action.content, bindings)
        if uri in self.node.resources:
            root = self.node.resources.get(uri)
        else:
            root = Data(action.root_label, (), False)
        self.node.resources.put(uri, root.append(content))
        self.stats.updates_applied += 1

    def _run_sequence(self, action: act.Sequence, bindings: Bindings) -> None:
        if not action.atomic:
            for step in action.actions:
                self.execute(step, bindings)
            return
        transaction = Transaction(self.node.resources)
        try:
            for step in action.actions:
                self.execute(step, bindings)
        except Exception:
            transaction.rollback()
            self.stats.rollbacks += 1
            raise
        transaction.commit()

    def _run_alternative(self, action: act.Alternative, bindings: Bindings) -> None:
        failures = []
        for option in action.actions:
            try:
                self.execute(option, bindings)
                return
            except ActionError as exc:
                failures.append(str(exc))
        raise ActionError(
            f"all {len(action.actions)} alternatives failed: {failures}"
        )

    def _call_procedure(self, action: act.CallProcedure, bindings: Bindings) -> None:
        procedure = self._procedures.get(action.name)
        if procedure is None:
            raise ActionError(f"no procedure {action.name!r}")
        from repro.terms.construct import instantiate

        supplied = dict(action.args)
        items = []
        for param in procedure.params:
            if param not in supplied:
                raise ActionError(
                    f"procedure {action.name!r} missing argument {param!r}"
                )
            items.append((param, instantiate(supplied[param], bindings)))
        self.execute(procedure.action, Bindings(tuple(items)))
