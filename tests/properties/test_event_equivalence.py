"""The flagship property: incremental evaluation ≡ naive re-evaluation.

Thesis 6 claims the data-driven incremental approach computes the same
answers as query-driven full-history evaluation, only cheaper.  Here
hypothesis generates random event queries and random event streams
(including explicit time advances) and requires the two engines to emit
exactly the same answer sets at every step.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import EngineConfig, PyAction, ReactiveEngine, eca
from repro.events import (
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
    IncrementalEvaluator,
    NaiveEvaluator,
)
from repro.events.model import make_event
from repro.terms import LabelVar, Var, compile_pattern, d, match, q
from repro.terms.ast import Compare, Data, Optional_, QTerm, Without
from repro.web import Simulation

# Small alphabet so that streams actually hit the queries.
LABELS = ["a", "b", "c", "n"]

ATOMS = st.sampled_from(LABELS).map(lambda lab: EAtom(q(lab, Var(f"V_{lab}"))))
GROUND_ATOMS = st.sampled_from(LABELS).map(lambda lab: EAtom(q(lab)))
WINDOWS = st.sampled_from([2.0, 5.0, 10.0])


def _seq_with_negation(children):
    """Insert an ENot in the middle or at the end of a sequence."""
    base, position, label = children
    members = list(base)
    members.insert(position % (len(members)) + 1, ENot(q(label)))
    return EWithin(ESeq(*members), 6.0)


def event_queries() -> st.SearchStrategy:
    simple = st.one_of(ATOMS, GROUND_ATOMS)
    composite = st.one_of(
        st.lists(simple, min_size=2, max_size=3).map(lambda ms: EAnd(*ms)),
        st.lists(simple, min_size=2, max_size=3).map(lambda ms: EOr(*ms)),
        st.lists(simple, min_size=2, max_size=3).map(lambda ms: ESeq(*ms)),
        st.tuples(simple, WINDOWS).map(lambda t: EWithin(t[0], t[1])),
        st.tuples(
            st.lists(GROUND_ATOMS, min_size=2, max_size=3),
            st.integers(min_value=0, max_value=2),
            st.sampled_from(LABELS),
        ).map(_seq_with_negation),
        st.tuples(st.sampled_from(LABELS), st.integers(2, 3), WINDOWS).map(
            lambda t: ECount(q(t[0]), t[1], t[2])
        ),
        st.tuples(st.sampled_from(LABELS), st.integers(2, 3)).map(
            lambda t: EAggregate(q(t[0], Var("P")), "P", "avg", "AVG", size=t[1])
        ),
    )
    nested = st.one_of(
        st.tuples(composite, WINDOWS).map(lambda t: EWithin(t[0], t[1])),
        st.lists(st.one_of(simple, composite), min_size=2, max_size=2).map(
            lambda ms: EAnd(*ms)
        ),
        st.lists(st.one_of(simple, composite), min_size=2, max_size=2).map(
            lambda ms: EOr(*ms)
        ),
        composite,
    )
    return st.one_of(simple, composite, nested)


def streams() -> st.SearchStrategy:
    """A stream of (delta_time, label, value) plus trailing time advances."""
    step = st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from(LABELS + ["x"]),  # 'x' never matches: noise
        st.integers(min_value=0, max_value=3),
    )
    return st.lists(step, min_size=0, max_size=14)


@given(event_queries(), streams())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_equals_naive(query, stream):
    incremental = IncrementalEvaluator(query)
    naive = NaiveEvaluator(query)
    clock = 0.0
    inc_answers: set = set()
    nav_answers: set = set()
    for delta, label, value in stream:
        clock += delta
        event = make_event(d(label, value), clock)
        # Same Event object fed to both engines: identical ids.
        got_inc = incremental.on_event(event)
        got_nav = naive.on_event(event)
        assert set(got_inc) == set(got_nav), (
            f"divergence at t={clock} on {label}: "
            f"incremental={sorted(map(str, got_inc))} naive={sorted(map(str, got_nav))}"
        )
        inc_answers |= set(got_inc)
        nav_answers |= set(got_nav)
    # Drain pending absence deadlines far in the future.
    for horizon in (clock + 5.0, clock + 50.0):
        got_inc = incremental.advance_time(horizon)
        got_nav = naive.advance_time(horizon)
        assert set(got_inc) == set(got_nav)
        inc_answers |= set(got_inc)
        nav_answers |= set(got_nav)
    assert inc_answers == nav_answers


@given(event_queries(), streams())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_duplicate_emissions(query, stream):
    """Each engine emits every answer at most once over a whole run."""
    incremental = IncrementalEvaluator(query)
    clock = 0.0
    seen: set = set()
    for delta, label, value in stream:
        clock += delta
        for answer in incremental.on_event(make_event(d(label, value), clock)):
            assert answer not in seen, f"duplicate emission: {answer}"
            seen.add(answer)
    for answer in incremental.advance_time(clock + 100.0):
        assert answer not in seen
        seen.add(answer)


def _run_engine(query, stream, **config_kwargs):
    """Drive a whole node+engine over *stream*; the firing sequence.

    Events are scheduled on the simulation clock (same instants allowed),
    so delivery goes through the node's inbox and absence deadlines through
    the engine's wake-ups — the full production path, unlike the
    evaluator-level tests above.
    """
    sim = Simulation(latency=0.0)
    node = sim.node("http://p.example")
    engine = ReactiveEngine(node, config=EngineConfig(**config_kwargs))
    fired = []
    engine.install(eca(
        "r", query, PyAction(lambda n, b: fired.append(b), "record")
    ))
    clock = 0.0
    for delta, label, value in stream:
        clock += delta
        sim.scheduler.at(clock, lambda t=d(label, value): node.raise_local(t))
    sim.run()
    return fired, engine.stats.rule_firings


@given(event_queries(), streams())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_queued_delivery_equals_sync(query, stream):
    """The async inbox must not change what fires, how often, or in what
    order — only *when* control reaches the handlers."""
    queued, queued_firings = _run_engine(query, stream, sync_delivery=False)
    inline, inline_firings = _run_engine(query, stream, sync_delivery=True)
    assert queued_firings == inline_firings
    assert queued == inline


@given(event_queries(), streams(), st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_inbox_batching_preserves_firings(query, stream, batch):
    """Splitting a backlog over several same-instant drains is invisible."""
    batched, _ = _run_engine(query, stream, inbox_batch=batch)
    whole, _ = _run_engine(query, stream)
    assert batched == whole


@given(event_queries(), streams())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_coalesced_wakeups_equal_broadcast(query, stream):
    """Advancing only deadline owners at a wake-up must produce exactly the
    broadcast (advance-everything) firing sequence."""
    coalesced, coalesced_firings = _run_engine(query, stream,
                                               coalesced_wakeups=True)
    broadcast, broadcast_firings = _run_engine(query, stream,
                                               coalesced_wakeups=False)
    assert coalesced_firings == broadcast_firings
    assert coalesced == broadcast


# ---------------------------------------------------------------------------
# Discriminating dispatch: broadcast ≡ root-label ≡ two-level net
# ---------------------------------------------------------------------------

SYMBOLS = ["ACME", "IBM", "XYZ"]

# One rule spec: (label, required symbol or None).  None is the residual
# shape (no discriminator); a whole fleet sharing one label exercises the
# second index level, mixed labels the first.
RULE_SPECS = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(SYMBOLS + [None])),
    min_size=1,
    max_size=5,
)

# Streams of (delta, label, symbol or None, payload) — events may carry a
# discriminating sym child, several of them, or none at all.
DISC_STREAMS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from(LABELS + ["x"]),
        st.sampled_from(SYMBOLS + [None, "BOTH"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=0,
    max_size=12,
)


def _fleet_rule(index, label, symbol):
    if symbol is None:
        query = EAtom(q(label, q("val", Var("V"))))
    else:
        query = EAtom(q(label, q("sym", symbol), q("val", Var("V"))))
    return index, query


def _disc_event_term(label, symbol, payload):
    children = [d("val", payload)]
    if symbol == "BOTH":  # ambiguous: two sym children
        children = [d("sym", SYMBOLS[0]), d("sym", SYMBOLS[1])] + children
    elif symbol is not None:
        children = [d("sym", symbol)] + children
    return d(label, *children)


def _run_fleet(specs, stream, include_wildcard, **config_kwargs):
    """Drive several rules (shared labels, mixed discriminators) at once."""
    sim = Simulation(latency=0.0)
    node = sim.node("http://p.example")
    engine = ReactiveEngine(node, config=EngineConfig(**config_kwargs))
    fired = []
    for index, (label, symbol) in enumerate(specs):
        name, query = _fleet_rule(index, label, symbol)
        engine.install(eca(
            f"r{name}", query,
            PyAction(lambda n, b, i=index: fired.append((i, b)), "record"),
        ))
    if include_wildcard:
        engine.install(eca(
            "wild", EAtom(q(LabelVar("L"))),
            PyAction(lambda n, b: fired.append(("wild", b)), "record"),
        ))
    clock = 0.0
    for delta, label, symbol, payload in stream:
        clock += delta
        term = _disc_event_term(label, symbol, payload)
        sim.scheduler.at(clock, lambda t=term: node.raise_local(t))
    sim.run()
    return fired, engine.stats.rule_firings, engine.stats.candidates_considered


@given(RULE_SPECS, DISC_STREAMS, st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dispatch_modes_agree_on_answers_and_order(specs, stream, wildcard):
    """Broadcast, root-label-only, and discriminating dispatch must produce
    identical answer sets and firing orders; discrimination may only shrink
    the candidate count, never change what fires."""
    disc = _run_fleet(specs, stream, wildcard)
    root = _run_fleet(specs, stream, wildcard, trie_depth=0)
    bcast = _run_fleet(specs, stream, wildcard, indexed_dispatch=False)
    assert disc[:2] == root[:2] == bcast[:2]
    assert disc[2] <= root[2] <= bcast[2]  # candidates only ever shrink


# ---------------------------------------------------------------------------
# Compiled pattern matchers ≡ interpreted simulation
# ---------------------------------------------------------------------------

PATTERN_LABELS = ["a", "b", "k"]
PATTERN_SCALARS = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["u", "v", ""]),
    st.booleans(),
    st.sampled_from([1.0, 2.5]),
)


def _data_terms():
    leaves = PATTERN_SCALARS
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda label, kids, ordered, attrs: Data(
                label, tuple(kids), ordered, tuple(attrs.items())
            ),
            st.sampled_from(PATTERN_LABELS),
            st.lists(children, max_size=3),
            st.booleans(),
            st.dictionaries(st.sampled_from(["p", "s"]),
                            st.sampled_from(["1", "2"]), max_size=2),
        ),
        max_leaves=6,
    ).filter(lambda t: isinstance(t, Data))


def _patterns():
    child_leaf = st.one_of(
        PATTERN_SCALARS,
        st.sampled_from([Var("X"), Var("Y")]),
        st.builds(Compare, st.sampled_from(["<", ">=", "=="]),
                  st.integers(min_value=0, max_value=2)),
        st.builds(
            lambda label, value: QTerm(label, (value,), False, False),
            st.sampled_from(PATTERN_LABELS),
            st.one_of(PATTERN_SCALARS, st.sampled_from([Var("Z")])),
        ),
    )
    decorated = st.one_of(
        child_leaf,
        child_leaf.map(Optional_),
        child_leaf.map(Without),
    )
    label = st.one_of(st.sampled_from(PATTERN_LABELS),
                      st.just("*"), st.just(LabelVar("L")))
    attrs = st.dictionaries(
        st.sampled_from(["p", "s"]),
        st.one_of(st.sampled_from(["1", "2"]), st.just(Var("A"))),
        max_size=2,
    )
    return st.builds(
        lambda lab, kids, ordered, total, attr_map: QTerm(
            lab, tuple(kids), ordered,
            # 'without' is rejected in ordered total terms; degrade those.
            total and not (ordered and any(isinstance(c, Without) for c in kids)),
            tuple(attr_map.items()),
        ),
        label,
        st.lists(decorated, max_size=3),
        st.booleans(),
        st.booleans(),
        attrs,
    )


@given(_patterns(), _data_terms())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_pattern_equals_interpreted_match(pattern, data):
    """compile_pattern must agree with match exactly — same binding lists,
    same order — on arbitrary patterns and data terms."""
    assert compile_pattern(pattern)(data) == match(pattern, data)


@given(_patterns(), _data_terms(), st.sampled_from(SYMBOLS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_pattern_respects_prior_bindings(pattern, data, bound):
    from repro.terms import Bindings

    pre = Bindings.of(X=bound)
    assert compile_pattern(pattern)(data, pre) == match(pattern, data, pre)


@given(event_queries(), streams())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_frequent_time_advance_is_harmless(query, stream):
    """Interleaving advance_time between events must not change the answers."""
    plain = IncrementalEvaluator(query)
    chatty = IncrementalEvaluator(query)
    clock = 0.0
    plain_all: set = set()
    chatty_all: set = set()
    for delta, label, value in stream:
        clock += delta
        event = make_event(d(label, value), clock)
        plain_all |= set(plain.on_event(event))
        chatty_all |= set(chatty.advance_time(clock))
        chatty_all |= set(chatty.on_event(event))
        chatty_all |= set(chatty.advance_time(clock))
    plain_all |= set(plain.advance_time(clock + 100.0))
    chatty_all |= set(chatty.advance_time(clock + 100.0))
    assert plain_all == chatty_all
