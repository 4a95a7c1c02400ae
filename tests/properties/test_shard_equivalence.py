"""The sharding property: N engine shards ≡ one engine, observably.

Hypothesis generates random rule fleets (label rules with and without
discriminator constants, wildcard rules, absence rules, cross-label
sequences) and random event streams (shared instants, ambiguous
discriminators, unknown labels), then requires a sharded node to produce
*exactly* the single-engine node's firing sequence — same rules, same
bindings, same order — through the full production path: node inbox,
router, per-shard inboxes, discrimination net, absence wake-ups.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EngineConfig, Simulation
from repro.core import RuleSet, eca
from repro.core.actions import PyAction
from repro.core.rulesets import priority_group
from repro.events import EAtom, ENot, ESeq, EWithin
from repro.terms import LabelVar, Var, d, q

LABELS = ["a", "b", "c", "n"]
SYMBOLS = ["ACME", "IBM", "XYZ"]

# One rule spec; the shapes cover every placement class the router knows:
#   ("atom", label, symbol|None)  - single label, optionally value-pinned
#   ("wild",)                     - wildcard: replicated to every shard
#   ("absent", label, label2)     - absence deadline (wake-up merging)
#   ("seq", label, label2)        - may span two shards (replication)
RULE_SPECS = st.lists(
    st.one_of(
        st.tuples(st.just("atom"), st.sampled_from(LABELS),
                  st.sampled_from(SYMBOLS + [None])),
        st.tuples(st.just("wild")),
        st.tuples(st.just("absent"), st.sampled_from(LABELS),
                  st.sampled_from(LABELS)),
        st.tuples(st.just("seq"), st.sampled_from(LABELS),
                  st.sampled_from(LABELS)),
    ),
    min_size=1,
    max_size=6,
)

# Streams of (delta, label, symbol-or-marker, payload); "BOTH" produces an
# event with two sym children (ambiguous on a child axis), None omits it.
STREAMS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from(LABELS + ["x"]),
        st.sampled_from(SYMBOLS + [None, "BOTH"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=0,
    max_size=12,
)


def _build_rule(index, spec, fired):
    kind = spec[0]
    record = PyAction(lambda n, b, i=index: fired.append((i, str(b))), "record")
    if kind == "atom":
        _, label, symbol = spec
        if symbol is None:
            query = EAtom(q(label, q("val", Var("V"))))
        else:
            # An attribute constant: the discriminator axis the router may
            # split the hot label on.
            query = EAtom(q(label, q("val", Var("V")), sym=symbol))
        return eca(f"r{index}", query, record)
    if kind == "child":
        # A constant *child*: an axis an event can exhibit ambiguously.
        _, label, symbol = spec
        return eca(f"r{index}",
                   EAtom(q(label, q("sym", symbol), q("val", Var("V")))), record)
    if kind == "wild":
        return eca(f"r{index}", EAtom(q(LabelVar("L"))), record)
    if kind == "absent":
        _, label, blocker = spec
        return eca(
            f"r{index}",
            EWithin(ESeq(EAtom(q(label, q("val", Var("V")))), ENot(q(blocker))), 4.0),
            record,
        )
    _, first, second = spec
    return eca(
        f"r{index}",
        EWithin(ESeq(EAtom(q(first)), EAtom(q(second))), 8.0),
        record,
    )


def _event_term(label, symbol, payload):
    children = (d("val", payload),)
    if symbol == "BOTH":  # two sym children: ambiguous below the root label
        return d(label, d("sym", SYMBOLS[0]), d("sym", SYMBOLS[1]), *children)
    if symbol is None:
        return d(label, *children)
    # Attribute + child form, so both discriminator kinds are exercised.
    from repro.terms.ast import Data

    return Data(label, (d("sym", symbol),) + children, False, (("sym", symbol),))


def _run_fleet(specs, stream, **config_kwargs):
    sim = Simulation(latency=0.0)
    node = sim.reactive_node("http://p.example",
                             config=EngineConfig(**config_kwargs))
    fired = []
    node.install(*(
        _build_rule(index, spec, fired) for index, spec in enumerate(specs)
    ))
    clock = 0.0
    for delta, label, symbol, payload in stream:
        clock += delta
        term = _event_term(label, symbol, payload)
        sim.scheduler.at(clock, lambda t=term: node.raise_local(t))
    sim.run()
    return fired, node.stats.rule_firings


@given(RULE_SPECS, STREAMS, st.sampled_from([2, 3, 4]))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_equals_single_engine(specs, stream, n_shards):
    """shards=N must reproduce the shards=1 firing sequence exactly."""
    single, single_firings = _run_fleet(specs, stream)
    sharded, sharded_firings = _run_fleet(specs, stream, shards=n_shards)
    assert sharded_firings == single_firings
    assert sharded == single


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_shard_fairness_batching_preserves_order(specs, stream, batch):
    """The per-shard drain budget must never reorder observable firings."""
    batched, _ = _run_fleet(specs, stream, shards=4, inbox_batch=batch)
    whole, _ = _run_fleet(specs, stream, shards=4)
    assert batched == whole


@given(RULE_SPECS, STREAMS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_broadcast_wakeups_equal_coalesced(specs, stream):
    """The E14 wake-up ablation must hold on a sharded node too."""
    coalesced, _ = _run_fleet(specs, stream, shards=3)
    broadcast, _ = _run_fleet(specs, stream, shards=3, coalesced_wakeups=False)
    assert broadcast == coalesced


def _run_fleet_with_mid_run_install(specs, stream, extra_rules, **config_kwargs):
    sim = Simulation(latency=0.0)
    node = sim.reactive_node("http://p.example",
                             config=EngineConfig(**config_kwargs))
    fired = []
    node.install(*(
        _build_rule(index, spec, fired)
        for index, spec in enumerate(specs)
    ))
    cut = len(stream) // 2
    clock = 0.0
    for step, (delta, label, symbol, payload) in enumerate(stream):
        clock += delta
        term = _event_term(label, symbol, payload)
        sim.scheduler.at(clock, lambda t=term: node.raise_local(t))
        if step == cut:
            # Installing disjoint-label rules mid-run forces a
            # re-partition while evaluators hold partial matches.
            sim.scheduler.at(clock, lambda: node.install(*(
                _build_rule(100 + i, ("atom", f"mid-{i}", None), fired)
                for i in range(extra_rules)
            )))
    sim.run()
    return fired


@given(RULE_SPECS, STREAMS, st.sampled_from([2, 4]),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mid_run_install_preserves_equivalence(specs, stream, n_shards,
                                               extra_rules):
    """Repartitioning mid-run (frozen re-partition, evaluator migration)
    must stay equivalent."""
    if not stream:
        return
    run = _run_fleet_with_mid_run_install
    assert run(specs, stream, extra_rules, shards=n_shards) == \
        run(specs, stream, extra_rules)


# -- delta placement: a router grown rule by rule ≡ one batch ≡ one engine ----

# Rules of a rule set; "child" rules pin a constant child, the one axis an
# event ("BOTH") can show ambiguously, on two labels so they run hot.
MEMBER = st.one_of(
    st.tuples(st.just("atom"), st.sampled_from(LABELS),
              st.sampled_from(SYMBOLS + [None])),
    st.tuples(st.just("child"), st.sampled_from(LABELS[:2]),
              st.sampled_from(SYMBOLS)),
    st.tuples(st.just("absent"), st.sampled_from(LABELS),
              st.sampled_from(LABELS)),
    st.tuples(st.just("seq"), st.sampled_from(LABELS),
              st.sampled_from(LABELS)),
)
SPEC = st.one_of(MEMBER, st.tuples(st.just("wild")))

# Three installable rule sets per example: a plain set of one to three
# rules, or a priority group whose members overlap on one label.
SET_SPECS = st.lists(
    st.one_of(
        st.tuples(st.just("plain"), st.lists(MEMBER, min_size=1, max_size=3)),
        st.tuples(st.just("group"), st.sampled_from(LABELS),
                  st.lists(st.sampled_from(SYMBOLS + [None]),
                           min_size=2, max_size=3)),
    ),
    min_size=3, max_size=3,
)

EVENT = st.tuples(
    st.just("event"), st.sampled_from(LABELS + ["x"]),
    st.sampled_from(SYMBOLS + [None, "BOTH"]),
    st.integers(min_value=0, max_value=3),
)
CHANGE = st.one_of(
    st.tuples(st.just("install"), st.lists(SPEC, min_size=1, max_size=3)),
    st.tuples(st.just("uninstall"), st.integers(0, 50)),
    st.tuples(st.just("set+"), st.integers(0, 2)),
    st.tuples(st.just("set-"), st.integers(0, 2)),
    st.tuples(st.just("toggle"), st.integers(0, 2)),
)
# One step of a run: (delta, op).  A change runs between events, from the
# scheduler, or — ("fire", change) — inside a firing rule's action:
# mid-dispatch, replica copies of the triggering event still queued.
OPS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3.0),
              st.one_of(EVENT, EVENT, CHANGE,
                        st.tuples(st.just("fire"), CHANGE))),
    min_size=0, max_size=14,
)


class _Churn:
    """One node driven through a prelude of single installs, a list of
    interleaved ops, a quiet gap longer than every window, and a tail of
    plain events."""

    # Every example starts from two rules pinning different constants on
    # one label's child axis, so the label runs hot, splits on that axis
    # and "BOTH" events on it are ambiguous to the router.
    PRELUDE = (("child", "a", SYMBOLS[0]), ("child", "a", SYMBOLS[1]))

    def __init__(self, set_specs, **config_kwargs):
        self.sim = Simulation(latency=0.0)
        self.node = self.sim.reactive_node(
            "http://p.example", config=EngineConfig(**config_kwargs))
        self.fired = []
        self.singles = []       # installed plain rules: (index, spec)
        self.sets = {}          # k -> installed RuleSet, installation order
        self.set_specs = set_specs
        self.counter = 0
        self.pending = []       # thunks the next `ctl` events run
        # The control rule goes first, so a fired thunk runs before the
        # wildcard rules see the `ctl` event.
        self.node.install(eca("ctl", EAtom(q("ctl")), PyAction(
            lambda n, b: self.pending.pop(0)(), "control")))

    def ruleset(self, k):
        spec = self.set_specs[k]
        if spec[0] == "plain":
            out = RuleSet(f"S{k}")
            for j, member in enumerate(spec[1]):
                out.add(_build_rule(1000 + 10 * k + j, member, self.fired))
            return out
        out = priority_group(f"S{k}")
        for j, symbol in enumerate(spec[2]):
            out.add(_build_rule(1000 + 10 * k + j, ("atom", spec[1], symbol),
                                self.fired), priority=float(j % 2))
        return out

    def install(self, specs):
        batch = [(self.counter + i, spec) for i, spec in enumerate(specs)]
        self.counter += len(batch)
        self.node.install(*(_build_rule(index, spec, self.fired)
                            for index, spec in batch))
        self.singles.extend(batch)

    def uninstall(self, pick, fired=False):
        # A fired uninstall must not remove a rule the `ctl` event itself
        # is still being dispatched to (only wildcards are; rule sets
        # hold none).
        pool = [entry for entry in self.singles
                if not (fired and entry[1][0] == "wild")]
        if pool:
            entry = pool[pick % len(pool)]
            self.singles.remove(entry)
            self.node.uninstall(f"r{entry[0]}")

    def apply(self, op, fired=False):
        kind = op[0]
        if kind == "event":
            self.node.raise_local(_event_term(*op[1:]))
        elif kind == "fire":
            self.pending.append(lambda: self.apply(op[1], fired=True))
            self.node.raise_local(d("ctl"))
        elif kind == "install":
            self.install(op[1])
        elif kind == "uninstall":
            self.uninstall(op[1], fired)
        elif kind == "set+" and op[1] not in self.sets:
            self.sets[op[1]] = self.ruleset(op[1])
            self.node.install(self.sets[op[1]])
        elif kind == "set-" and op[1] in self.sets:
            self.node.uninstall(self.sets.pop(op[1]))
        elif kind == "toggle":
            if op[1] in self.sets:
                self.sets[op[1]].enabled = not self.sets[op[1]].enabled
            (self.node.router or self.node.engine).refresh()

    def run(self, ops, tail):
        """``(firings while the ops ran, firings of the tail, total)``."""
        clock = 0.0
        for delta, op in ops:
            clock += delta
            self.sim.scheduler.at(clock, lambda op=op: self.apply(op))
        self.sim.run()
        cut = len(self.fired)
        clock = self.sim.scheduler.now + 20.0  # every window has closed
        for delta, label, symbol, payload in tail:
            clock += delta
            term = _event_term(label, symbol, payload)
            self.sim.scheduler.at(clock, lambda t=term: self.node.raise_local(t))
        self.sim.run()
        return self.fired[:cut], self.fired[cut:], self.node.stats.rule_firings


@given(st.lists(SPEC, min_size=2, max_size=2), SET_SPECS, OPS, STREAMS, st.sampled_from([2, 3, 4]))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_grown_router_equals_batch_equals_single_engine(
        prelude, set_specs, ops, tail, n_shards):
    """Events (ambiguous ones, absence deadlines) interleaved with single
    and batch installs, uninstalls, rule-set churn and refresh(), between
    events and from firing rules: the router that grew by deltas and
    doubling re-plans fires exactly like one engine — and, once every
    window has closed, exactly like a fresh router given the surviving
    base in one batch."""
    single, grown = _Churn(set_specs), _Churn(set_specs, shards=n_shards)
    for node in (single, grown):
        for spec in _Churn.PRELUDE + tuple(prelude):
            node.install([spec])
    # The doubling rule: 5 rules (ctl + 4) arrived one by one, so full
    # plans ran at sizes 1, 2 and 4; the 5th is a delta — unless it had to
    # widen a split label's delivery, which plans once more.
    assert grown.node.router.full_plans in (3, 4)
    during, after, firings = grown.run(ops, tail)
    assert (during, after, firings) == single.run(ops, tail)

    batch = _Churn(set_specs, shards=n_shards)
    batch.sets = {k: batch.ruleset(k) for k in grown.sets}
    for k, twin in batch.sets.items():
        twin.enabled = grown.sets[k].enabled
    batch.node.install(
        *(_build_rule(index, spec, batch.fired) for index, spec in grown.singles),
        *batch.sets.values())
    assert batch.node.rules() == grown.node.rules()
    assert batch.run([], tail)[1] == after
