"""The dispatch-trie property: every index shape fires identically.

Hypothesis generates rule bases whose event queries pin *several* axes at
once (attribute constants, constant children, both, neither) plus
wildcards and absence rules, and event streams that exhibit those axes
unambiguously, partially, or ambiguously (several same-label children).
The multi-level discrimination trie (default), the two-level net
(``trie_depth=1``), the root-label ablation (``trie_depth=0``) and the
broadcast reference (``tests/_broadcast.py``) must all produce the same
answers in the same firing order — as must every shard count, including
mid-run installs *and* uninstalls (the eager-prune path).
"""

from _broadcast import use_broadcast
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EngineConfig, Simulation
from repro.core import eca
from repro.core.actions import PyAction
from repro.events import EAtom, ENot, ESeq, EWithin
from repro.terms import LabelVar, Var, d, q
from repro.terms.ast import Data

# "hot" twice: concentrating rules on one label makes the router's
# hot-label split (attr or child axis) actually trigger.
LABELS = ["hot", "hot", "cold"]
SYMBOLS = ["ACME", "IBM", "XYZ"]
VENUES = ["NYSE", "LSE"]

# One rule spec:
#   ("deep", label, sym|None, venue|None) — a query pinning up to two
#       axes: the `sym` attribute and a constant `venue` child.  With
#       both None it is the label's residual rule.
#   ("wild",)                — label wildcard, replicated everywhere
#   ("absent", label, label) — absence deadline (wake-up merging)
RULE_SPECS = st.lists(
    st.one_of(
        st.tuples(st.just("deep"), st.sampled_from(LABELS),
                  st.sampled_from(SYMBOLS + [None]),
                  st.sampled_from(VENUES + [None])),
        st.tuples(st.just("wild")),
        st.tuples(st.just("absent"), st.sampled_from(LABELS),
                  st.sampled_from(LABELS)),
    ),
    min_size=1,
    max_size=7,
)

# Stream steps: (delta, label, sym|None, venue|None|"BOTH", payload).
# "BOTH" emits two venue children — ambiguous on the (child, venue) axis,
# the case that must route to every shard of a split label.
STREAMS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from(["hot", "cold", "x"]),
        st.sampled_from(SYMBOLS + [None]),
        st.sampled_from(VENUES + [None, "BOTH"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=0,
    max_size=10,
)


def _build_rule(index, spec, fired):
    kind = spec[0]
    record = PyAction(lambda n, b, i=index: fired.append((i, str(b))), "record")
    if kind == "deep":
        _, label, symbol, venue = spec
        children = [q("val", Var("V"))]
        if venue is not None:
            children.insert(0, q("venue", venue))
        attrs = {} if symbol is None else {"sym": symbol}
        return eca(f"r{index}", EAtom(q(label, *children, **attrs)), record)
    if kind == "wild":
        return eca(f"r{index}", EAtom(q(LabelVar("L"))), record)
    _, label, blocker = spec
    return eca(
        f"r{index}",
        EWithin(ESeq(EAtom(q(label, q("val", Var("V")))), ENot(q(blocker))), 4.0),
        record,
    )


def _event_term(label, symbol, venue, payload):
    children = []
    if venue == "BOTH":
        children = [d("venue", VENUES[0]), d("venue", VENUES[1])]
    elif venue is not None:
        children = [d("venue", venue)]
    children.append(d("val", payload))
    attrs = () if symbol is None else (("sym", symbol),)
    return Data(label, tuple(children), False, attrs)


def _run(specs, stream, mid_run=False, reference=False, **config_kwargs):
    sim = Simulation(latency=0.0)
    node = sim.reactive_node("http://t.example",
                             config=EngineConfig(**config_kwargs))
    if reference:
        use_broadcast(node)
    fired = []
    node.install(*(
        _build_rule(index, spec, fired) for index, spec in enumerate(specs)
    ))
    cut = len(stream) // 2
    clock = 0.0
    for step, (delta, label, symbol, venue, payload) in enumerate(stream):
        clock += delta
        term = _event_term(label, symbol, venue, payload)
        sim.scheduler.at(clock, lambda t=term: node.raise_local(t))
        if mid_run and step == cut:
            # A re-partition and an eager prune while evaluators hold
            # partial matches and events sit queued.
            def churn():
                node.install(
                    _build_rule(100, ("deep", "hot", SYMBOLS[0], None), fired),
                    _build_rule(101, ("deep", "hot", None, VENUES[1]), fired),
                )
                node.uninstall("r0")
            sim.scheduler.at(clock, churn)
    sim.run()
    return fired, node.stats.rule_firings


@given(RULE_SPECS, STREAMS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_trie_equals_every_dispatch_ablation(specs, stream):
    """trie ≡ two-level ≡ root-label ≡ broadcast on one engine."""
    trie = _run(specs, stream)
    assert _run(specs, stream, trie_depth=1) == trie
    assert _run(specs, stream, trie_depth=0) == trie
    assert _run(specs, stream, reference=True) == trie


@given(RULE_SPECS, STREAMS, st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_trie_depth_cap_is_observably_free(specs, stream, cap):
    """Capping the trie depth changes probe counts, never behaviour."""
    assert _run(specs, stream, trie_depth=cap) == _run(specs, stream)


@given(RULE_SPECS, STREAMS, st.sampled_from([2, 4]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sharded_trie_equals_single_engine(specs, stream, n_shards):
    """Trie-prefix partitioning (multi-axis splits, ambiguous events
    delivered to all shards) must reproduce shards=1 exactly."""
    single = _run(specs, stream)
    sharded = _run(specs, stream, shards=n_shards)
    assert sharded == single


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 2, 4]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mid_run_install_and_uninstall_stay_equivalent(
        specs, stream, n_shards):
    """Incremental trie edits (install + eager uninstall prune) mid-run
    must match the single-engine baseline."""
    if not stream:
        return
    baseline = _run(specs, stream, mid_run=True)
    churned = _run(specs, stream, mid_run=True, shards=n_shards)
    assert churned == baseline


def _grouped_rules(fired):
    """A fixed overlapping rule base: every combinator kind, one label."""
    from repro.core import first_match, priority_group, specificity_override

    def record(tag):
        return PyAction(lambda n, b, t=tag: fired.append((t, str(b))), "record")

    fm = first_match("fm")
    fm.add(eca("pin", EAtom(q("hot", sym=SYMBOLS[0])), record("fm/pin")))
    fm.add(eca("any", EAtom(q("hot", q("val", Var("V")))), record("fm/any")))
    pg = priority_group("pg")
    pg.add(eca("low", EAtom(q("hot", q("val", Var("V")))), record("pg/low")),
           priority=1.0)
    pg.add(eca("high", EAtom(q("hot", sym=SYMBOLS[1])), record("pg/high")),
           priority=2.0)
    so = specificity_override("so")
    so.add(eca("exact", EAtom(q("hot", q("venue", VENUES[0]))), record("so/exact")))
    so.add(eca("loose", EAtom(q("hot", q("val", Var("V")))), record("so/loose")))
    plain = eca("plain", EAtom(q("cold", q("val", Var("V")))), record("plain"))
    return [fm, pg, so, plain]


@given(STREAMS, st.sampled_from([1, 2, 4]))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_combinator_groups_shard_transparently(stream, n_shards):
    """Winner resolution must not depend on shard count."""
    def run(**config_kwargs):
        sim = Simulation(latency=0.0)
        node = sim.reactive_node("http://t.example",
                                 config=EngineConfig(**config_kwargs))
        fired = []
        node.install(*_grouped_rules(fired))
        clock = 0.0
        for delta, label, symbol, venue, payload in stream:
            clock += delta
            term = _event_term(label, symbol, venue, payload)
            sim.scheduler.at(clock, lambda t=term: node.raise_local(t))
        sim.run()
        suppressed = node.stats.firings_suppressed
        return fired, suppressed

    single = run()
    sharded = run(shards=n_shards)
    assert sharded == single
