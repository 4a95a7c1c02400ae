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
from repro.core import eca
from repro.core.actions import PyAction
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
