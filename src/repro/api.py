"""The unified public API: reactive nodes and a fluent rule builder.

The paper's Thesis 2 makes the *node* — a Web site with local resources,
an inbox, and its own rule base — the unit of the system.  This module
gives that unit a single first-class object, so applications never have to
hand-wire a :class:`~repro.web.node.WebNode` to a
:class:`~repro.core.engine.ReactiveEngine`::

    from repro.web import Simulation

    sim = Simulation()
    shop = sim.reactive_node("http://shop.example")      # -> ReactiveNode
    shop.put("http://shop.example/stock", 'stock{ item["ball"] }')
    shop.install('''
        RULE take-order
        ON order{{ item[var I], reply-to[var C] }}
        DO RAISE TO var C confirmation{ item[var I] }
    ''')

:class:`ReactiveNode` bundles rule management (``install`` / ``uninstall``
/ ``define_procedure`` / ``define_web_views``), messaging (``raise_event``
/ ``raise_local``), resource access (``get`` / ``put`` / ``delete``) and
the engine's ``stats`` behind one facade.  With
``EngineConfig(ingest=IngestConfig(...))`` the facade also fronts the
ingestion tier (:mod:`repro.ingest`): :attr:`ReactiveNode.ingest` is the
admission gateway, :meth:`ReactiveNode.loopback` hands out in-process
clients, and ``stats.ingest`` carries the front door's admission
counters and enqueue-to-fire latency percentiles.  Anywhere a term or
rule is expected, a surface-syntax string is accepted and parsed.

For building rules programmatically there is a fluent builder that lowers
to the existing :class:`~repro.core.rules.ECARule`::

    from repro import rule

    shop.install(
        rule("restock-alert")
        .on('COUNT 3 OF out-of-stock{{ item[var I] }} WITHIN 60.0 BY [I]')
        .when('IN "http://shop.example/config" : alerts{{ enabled["yes"] }}')
        .do('RAISE TO "http://ops.example" restock{ item[var I] }')
    )

``.on`` / ``.when`` / ``.do`` accept either surface-syntax strings or the
structured objects (event queries, conditions, actions); several
``.when(...).do(...)`` pairs build an ECnAn rule, ``.otherwise`` the final
else branch, and ``.firing("first")`` selects single-firing semantics.

Engines are tuned through :class:`~repro.core.engine.EngineConfig` — the
one place every knob is documented: consumption policy, deductive event
views, the discrimination trie's depth (``trie_depth``), the inbox drain
batch (``inbox_batch``), the evaluator mechanism, scale-out (``shards``),
and persistence (``store`` — a :class:`~repro.store.StoreConfig` swaps a
durable WAL-backed resource store under the node before
anything attaches; reopening on the same path recovers committed state,
and :meth:`ReactiveNode.deliver_replayed` re-notifies the replayed
commits exactly once) — passed as ``sim.reactive_node(uri, config=...)``.

With ``EngineConfig(shards=N)`` (N > 1) the facade fronts N engine
shards behind a :class:`~repro.sharding.ShardRouter` instead of a single
engine: rules are partitioned by root label (hot labels are split along
their most selective discriminator axis — attribute value or constant
child — the same prefixes the in-engine trie recurses on), each shard
drains its own FIFO inbox, and answers and firing order stay identical
to ``shards=1``.  The
facade surface is unchanged; :attr:`ReactiveNode.shards` and
``ReactiveNode.stats.shards`` expose the fleet.

The old explicit wiring (``ReactiveEngine(sim.node(uri))``) keeps working;
the facade is sugar over it, not a replacement.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.core.engine import EngineConfig, EngineStats, ReactiveEngine
from repro.sharding import ShardRouter
from repro.core.rules import ECARule
from repro.deductive.rules import Program
from repro.errors import RuleError
from repro.events.model import Event
from repro.events.queries import EWithin
from repro.lang.parser import (
    parse_action,
    parse_condition,
    parse_event_query,
    parse_program,
)
from repro.terms.ast import Data
from repro.terms.parser import parse_data

__all__ = ["EngineConfig", "NodeStats", "ReactiveNode", "RuleBuilder", "rule"]


class RuleBuilder:
    """Fluent construction of an :class:`~repro.core.rules.ECARule`.

    Build order: ``.on`` once, then any number of ``.when``/``.do`` branch
    pairs (``.do`` without a preceding ``.when`` makes an unconditional
    branch; consecutive ``.when`` calls are conjoined), optionally
    ``.otherwise`` and ``.firing``.  ``.build()`` lowers to the frozen
    :class:`ECARule`; installing the builder directly on a
    :class:`ReactiveNode` builds it implicitly.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._event = None
        self._branches: list[tuple[object, object]] = []
        self._pending = None
        self._otherwise = None
        self._firing = "all"

    def on(self, event) -> "RuleBuilder":
        """Set the event query (surface string or structured query)."""
        if self._event is not None:
            raise RuleError(f"rule {self._name!r} already has an event query")
        self._event = parse_event_query(event) if isinstance(event, str) else event
        return self

    def when(self, condition) -> "RuleBuilder":
        """Add a condition for the next ``.do`` (strings are parsed)."""
        if isinstance(condition, str):
            condition = parse_condition(condition)
        if self._pending is None:
            self._pending = condition
        else:
            from repro.core.conditions import AndCond

            self._pending = AndCond(self._pending, condition)
        return self

    def do(self, action) -> "RuleBuilder":
        """Close the current branch with its action (strings are parsed)."""
        if isinstance(action, str):
            action = parse_action(action)
        self._branches.append((self._pending, action))
        self._pending = None
        return self

    def otherwise(self, action) -> "RuleBuilder":
        """Set the final else action, fired when no branch condition holds."""
        if self._otherwise is not None:
            raise RuleError(f"rule {self._name!r} already has an otherwise action")
        self._otherwise = parse_action(action) if isinstance(action, str) else action
        return self

    def within(self, seconds: float) -> "RuleBuilder":
        """Constrain the event query to a *seconds*-wide sliding window.

        Sugar for wrapping the ``.on(...)`` query in an
        :class:`~repro.events.queries.EWithin` — required before sequences
        with negation (the window bounds absence checking and blocker
        storage).  Call after ``.on``; repeated calls nest (the answers
        must satisfy every window).
        """
        if self._event is None:
            raise RuleError(
                f"rule {self._name!r} needs an event query before "
                ".within(...): call .on(...) first"
            )
        self._event = EWithin(self._event, seconds)
        return self

    def firing(self, mode: str) -> "RuleBuilder":
        """Select the firing mode: ``"all"`` (default) or ``"first"``."""
        self._firing = mode
        return self

    def build(self) -> ECARule:
        """Lower to a frozen :class:`ECARule` (validates the event query)."""
        if self._event is None:
            raise RuleError(f"rule {self._name!r} needs an event query: .on(...)")
        if self._pending is not None:
            raise RuleError(
                f"rule {self._name!r} has a dangling .when(...); close it with .do(...)"
            )
        return ECARule(self._name, self._event, tuple(self._branches),
                       self._otherwise, self._firing)


def rule(name: str) -> RuleBuilder:
    """Start building a rule: ``rule("n").on(E).when(C).do(A)``."""
    return RuleBuilder(name)


class NodeStats:
    """Every counter of one node, behind one namespace.

    Three typed sub-views, taken together in one consistent snapshot by
    :attr:`ReactiveNode.stats`:

    - :attr:`engine` — the node-wide
      :class:`~repro.core.engine.EngineStats` snapshot (shards summed,
      node-inbox gauges mirrored in);
    - :attr:`shards` — per-shard :class:`EngineStats` snapshots, each
      carrying its own FIFO inbox's depth/peak; length 1 (mirroring the
      node inbox) when unsharded;
    - :attr:`ingest` — the ingestion gateway's live
      :class:`~repro.ingest.stats.IngestStats`, or ``None`` without a
      gateway.

    Any other attribute or ``["key"]`` access delegates to :attr:`engine`,
    so ``node.stats.rule_firings`` and ``node.stats["rule_firings"]``
    read the engine view directly.
    """

    __slots__ = ("engine", "shards", "ingest")

    def __init__(self, engine: EngineStats, shards: tuple, ingest) -> None:
        self.engine = engine
        self.shards = shards
        self.ingest = ingest

    def __getattr__(self, name: str):
        return getattr(self.engine, name)

    def __getitem__(self, key: str):
        return self.engine[key]

    def __repr__(self) -> str:
        gateway = "" if self.ingest is None else ", ingest"
        return (f"NodeStats(rule_firings={self.engine.rule_firings}, "
                f"shards={len(self.shards)}{gateway})")


class ReactiveNode:
    """One reactive Web site: a node and its rule engine behind one facade.

    Created via :meth:`repro.web.node.Simulation.reactive_node`.  The
    underlying parts stay reachable as :attr:`node` and :attr:`engine` for
    anything the facade does not cover.
    """

    def __init__(self, node, config: EngineConfig | None = None) -> None:
        self.node = node
        # Persistence first: the durable store must be in place as
        # `node.resources` *before* the engine (or shard fleet) attaches
        # its watchers — every later layer dereferences node.resources
        # dynamically, so this swap is the single point of configuration.
        # Recovery happens here (open_store replays the backend's log);
        # the replayed commit notifications wait until deliver_replayed().
        if config is not None and config.store is not None \
                and config.store.backend != "memory":
            from repro.store import open_store

            node.resources = open_store(config.store)
        self.store = node.resources
        if config is not None and config.shards > 1:
            # N engine shards behind a router; `engine` stays None so a
            # caller reaching for single-engine internals fails loudly
            # instead of touching one arbitrary shard.
            self.router: ShardRouter | None = ShardRouter(node, config)
            self.engine = None
            self._impl = self.router
        else:
            self.engine = ReactiveEngine(node, config=config)
            self.router = None
            self._impl = self.engine
        # The ingestion gateway registers its latency hook *after* the
        # engine/router, so it observes each event post-firing — that is
        # what makes its latency reading "enqueue to fire".
        if config is not None and config.ingest is not None:
            from repro.ingest.admission import IngestGateway

            self.ingest: "IngestGateway | None" = IngestGateway(
                node, config.ingest)
        else:
            self.ingest = None

    # -- identity ------------------------------------------------------------

    @property
    def uri(self) -> str:
        return self.node.uri

    @property
    def now(self) -> float:
        return self.node.now

    @property
    def shards(self) -> tuple[ReactiveEngine, ...]:
        """The underlying engine shard(s); length 1 unless sharded."""
        if self.router is not None:
            return self.router.engines
        return (self.engine,)

    @property
    def stats(self) -> NodeStats:
        """A consistent snapshot of the node's counters (:class:`NodeStats`).

        The snapshot's sub-views are ``stats.engine`` (the node-wide
        :class:`EngineStats`), ``stats.shards`` (per-shard snapshots) and
        ``stats.ingest`` (the gateway's live
        :class:`~repro.ingest.stats.IngestStats`, or ``None``); plain
        attribute and ``["key"]`` access keep delegating to the engine
        view.  Keys of the engine view (all monotone counters unless
        noted):

        - ``events_processed`` — events handled by the engine(s); on a
          sharded node every shard's copy of a replicated delivery counts
          (fleet work, not unique events);
        - ``derived_events`` — extra events produced by deductive event
          views (Thesis 9);
        - ``rule_firings`` / ``condition_evaluations`` /
          ``actions_executed`` — the ECA pipeline: answers fired,
          condition parts evaluated, actions run;
        - ``updates_applied`` / ``events_raised`` / ``rollbacks`` —
          action effects: resource updates, RAISEd messages, atomic
          sequences rolled back;
        - ``wakeups`` / ``evaluator_advances`` — absence-deadline
          scheduling: scheduler wake-ups taken and evaluators advanced at
          them (sharded: summed per shard involved);
        - ``candidates_considered`` / ``index_probes`` /
          ``matcher_calls`` — dispatch efficiency: (rule, evaluator)
          pairs handed an event, discrimination-trie node visits while
          routing it (≈ trie depth per event, bounded by
          ``EngineConfig(trie_depth=...)``), and term-matcher calls;
        - ``firings_deduped`` — answers produced by replicas of rules
          hosted on several shards and suppressed there (the designated
          shard fired them — or, for an event ambiguous on a split child
          axis, the shard designated *per rule*); 0 unless
          ``shards > 1``;
        - ``firings_suppressed`` — answers of combinator-group members
          (``priority_group`` / ``first_match`` /
          ``specificity_override``) outranked by their group's winner
          and therefore never fired; 0 without combinator groups;
        - ``inbox_depth`` / ``inbox_peak`` — *gauges*: the node inbox's
          current and peak backlog (backpressure);
        - ``evaluator_switches`` — mechanism switches taken by adaptive
          evaluators (``EngineConfig(evaluator="adaptive")``), summed
          across rules and shards (replicas included, like every fleet
          counter); always 0 for fixed mechanisms.  The per-rule view is
          :meth:`mechanisms`.

        With an ingestion gateway configured (``EngineConfig(ingest=...)``)
        the front door's counters — ``admitted`` / ``rejected`` /
        ``dropped`` / ``rate_limited`` / ``malformed`` / ``spilled`` and
        the enqueue-to-fire ``latency`` percentiles (simulated seconds) —
        are at ``stats.ingest``.

        On a sharded node the engine view sums all shards (see
        :meth:`~repro.sharding.ShardRouter.aggregate_stats`); per-shard
        snapshots — including each shard's own inbox depth/peak — are at
        ``stats.shards``.  Re-read the property for fresh values; a
        single engine's live object stays at ``engine.stats``.
        """
        gauges = {"inbox_depth": self.node.inbox_depth,
                  "inbox_peak": self.node.inbox_peak}
        if self.router is not None:
            total = replace(self.router.aggregate_stats(), **gauges)
            shards = self.router.shard_stats()
        else:
            # Unsharded: the one engine is the one shard, and the node
            # inbox is its inbox — a single snapshot serves both views.
            total = replace(
                self.engine.stats,
                evaluator_switches=self.engine.evaluator_switches(), **gauges)
            shards = (total,)
        return NodeStats(total, shards,
                         self.ingest.stats if self.ingest is not None else None)

    def mechanisms(self) -> dict[str, dict]:
        """Per-rule evaluation-mechanism report, by rule name.

        Each row carries ``mechanism`` (``"incremental"`` / ``"tree"`` /
        ``"naive"`` — for ``evaluator="adaptive"``, whichever the
        governor currently runs), ``switches`` (mechanism switches taken
        so far; always 0 for fixed mechanisms), and ``pinned`` (adaptive
        only: ``True`` when the query admits no safe runtime switch and
        is pinned to its initial mechanism; ``None`` for fixed
        mechanisms).  On a sharded node replicas of one rule agree — the
        governor decides from replica-identical signals — so one row per
        rule is reported.
        """
        impl = self.router if self.router is not None else self.engine
        return impl.mechanism_report()

    def __repr__(self) -> str:
        shards = "" if self.router is None else f", shards={len(self.router.engines)}"
        return f"ReactiveNode({self.uri!r}, rules={len(self._impl.rules())}{shards})"

    # -- rule management -------------------------------------------------------

    def install(self, *items) -> "ReactiveNode":
        """Install rules, rule sets, builders, or surface-syntax programs.

        Each item may be an :class:`ECARule`, a :class:`RuleSet`, a
        :class:`RuleBuilder` (built implicitly), or a string holding one or
        more ``RULE`` / ``RULESET`` / ``PROCEDURE`` definitions.
        """
        # Parse and validate everything before mutating the engine, so a
        # bad item late in the arguments cannot leave a half-installed node.
        batch = []
        procedures = []
        for item in items:
            if isinstance(item, str):
                for parsed in parse_program(item):
                    if isinstance(parsed, tuple) and parsed[0] == "procedure":
                        procedures.append(parsed[1:])
                    else:
                        batch.append(parsed)
            elif isinstance(item, RuleBuilder):
                batch.append(item.build())
            else:
                batch.append(item)
        self._impl.install_all(batch, procedures)  # atomic across both
        return self

    def uninstall(self, item) -> "ReactiveNode":
        """Remove an installed rule or rule set (by object or name)."""
        self._impl.uninstall(item)
        return self

    def rules(self) -> list[str]:
        """Names of the currently active rules (rule-set rules qualified)."""
        return self._impl.rules()

    def define_procedure(self, name: str, params, action) -> "ReactiveNode":
        """Register a named action procedure (Thesis 9)."""
        if isinstance(params, str):
            raise RuleError(
                f"params must be a sequence of parameter names, "
                f"not the bare string {params!r}"
            )
        if isinstance(action, str):
            action = parse_action(action)
        self._impl.define_procedure(name, tuple(params), action)
        return self

    def define_web_views(self, uri: str, program: Program) -> "ReactiveNode":
        """Attach deductive views to a local resource (Thesis 9)."""
        self._impl.define_web_views(uri, program)
        return self

    # -- messaging --------------------------------------------------------------

    def raise_event(self, to: str, term: "Data | str") -> "ReactiveNode":
        """Push an event message to another node (strings are parsed)."""
        self.node.raise_event(to, self._term(term))
        return self

    def raise_local(self, term: "Data | str") -> "ReactiveNode":
        """Dispatch an event to this node's own rules, without the network."""
        self.node.raise_local(self._term(term))
        return self

    def on_event(self, handler: Callable[[Event], None]) -> "ReactiveNode":
        """Register an extra inbox handler alongside the rule engine."""
        self.node.on_event(handler)
        return self

    # -- resources -----------------------------------------------------------------

    def get(self, uri: str) -> Data:
        """Read a resource: local directly, remote over the network."""
        return self.node.get(uri)

    def put(self, uri: str, root: "Data | str") -> "ReactiveNode":
        """Write a local resource (strings are parsed as data terms)."""
        self.node.put(uri, self._term(root))
        return self

    def delete(self, uri: str) -> "ReactiveNode":
        """Delete a local resource (remote deletes go through events)."""
        self.node.delete(uri)
        return self

    # -- persistence ---------------------------------------------------------

    def deliver_replayed(self) -> int:
        """Deliver recovery-replayed commit notifications, exactly once.

        On a node reopened over a durable store
        (``EngineConfig(store=StoreConfig(backend="wal", path=...))``)
        the commits recovered from the log wait until this is called,
        so watchers registered *after* construction — polling baselines,
        identity monitors, application callbacks — hear each replayed
        commit exactly once.  Returns the number of commits
        delivered; 0 on a memory-backed node, on a fresh store, and on
        every call after the first.
        """
        return self.node.resources.deliver_replayed()

    def checkpoint(self) -> "ReactiveNode":
        """Compact the durable store now (no-op on a memory backend):
        fold the current state into the backend's snapshot and discard
        the log prefix it covers."""
        checkpoint = getattr(self.node.resources, "checkpoint", None)
        if checkpoint is not None:
            checkpoint()
        return self

    def close(self) -> None:
        """Release the durable store's file handles (idempotent; no-op
        on a memory backend).  Mutations after close raise
        :class:`~repro.errors.StoreError`."""
        close = getattr(self.node.resources, "close", None)
        if close is not None:
            close()

    # -- ingestion ------------------------------------------------------------

    def loopback(self, sender: str = "", codec: str = "wire"):
        """An in-process ingestion client bound to this node's gateway.

        Requires ``EngineConfig(ingest=IngestConfig(...))``; see
        :class:`repro.ingest.transport.LoopbackClient` for the codecs.
        """
        from repro.ingest.transport import LoopbackClient

        if self.ingest is None:
            raise RuleError(
                f"{self.uri} has no ingestion gateway; configure one with "
                "EngineConfig(ingest=IngestConfig(...))"
            )
        return LoopbackClient(self.ingest, sender=sender, codec=codec)

    @staticmethod
    def _term(term: "Data | str") -> Data:
        return parse_data(term) if isinstance(term, str) else term
