"""The evaluator-mechanism property: incremental ≡ naive.

The incremental evaluator and the scheduled naive evaluator are
alternative *mechanisms* behind the same contract: identical answers,
identical batch order, identical firing sequences through the full
production path.  Hypothesis drives both over the house query/stream
generators plus long chains under heavy label skew, then repeats the
exercise at node level across shard counts and mid-run installs, with
``EngineConfig(evaluator=...)`` as the only knob.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.events import (
    EAtom,
    ESeq,
    EWithin,
    IncrementalEvaluator,
    NaiveEvaluator,
    ScheduledNaiveEvaluator,
)
from repro.events.model import make_event
from repro.terms import Var, d, q

from test_event_equivalence import _run_engine, event_queries, streams
from test_shard_equivalence import (
    RULE_SPECS,
    STREAMS,
    _run_fleet,
    _run_fleet_with_mid_run_install,
)


@st.composite
def skewed_chains(draw):
    """A windowed ``ESeq`` of 4–8 distinct-label members with a stream in
    which the first member's label is 8× as frequent as each of the
    others: long patterns under heavy skew, where prefix extension holds
    the most partial matches."""
    length = draw(st.integers(min_value=4, max_value=8))
    labels = [f"m{i}" for i in range(length)]
    query = EWithin(
        ESeq(*(EAtom(q(label, Var(f"V{i}"))) for i, label in enumerate(labels))),
        draw(st.sampled_from([2.0, 4.0])))
    gap = st.floats(min_value=0.0, max_value=0.1)
    value = st.integers(min_value=0, max_value=3)
    step = st.tuples(gap, st.sampled_from([labels[0]] * 8 + labels[1:] + ["x"]),
                     value)
    stream = draw(st.lists(step, min_size=0, max_size=30))
    if draw(st.booleans()):
        # Thread one of each member through the stream in order, so chains
        # complete and the joins behind them are compared too.
        cuts = sorted(draw(st.lists(st.integers(0, len(stream)),
                                    min_size=length, max_size=length)))
        for offset, (cut, label) in enumerate(zip(cuts, labels)):
            stream.insert(cut + offset, (draw(gap), label, draw(value)))
    return query, stream


QUERY_STREAMS = st.one_of(st.tuples(event_queries(), streams()), skewed_chains())


def _drive_pair(left, right, stream):
    """Feed the *same* Event objects (identical ids) to both evaluators;
    the paired per-step answer batches."""
    clock = 0.0
    batches = []
    for delta, label, value in stream:
        clock += delta
        event = make_event(d(label, value), clock)
        batches.append((left.on_event(event), right.on_event(event)))
    for horizon in (clock + 5.0, clock + 50.0):
        batches.append((left.advance_time(horizon),
                        right.advance_time(horizon)))
    return batches


@given(QUERY_STREAMS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_equals_naive_batches(case):
    """Not just the same answers: the same batches in the same order at
    every step, so downstream firing order is mechanism-independent."""
    query, stream = case
    for got_inc, got_naive in _drive_pair(
            IncrementalEvaluator(query), NaiveEvaluator(query), stream):
        assert got_inc == got_naive, (
            f"inc={list(map(str, got_inc))} naive={list(map(str, got_naive))}"
        )


@given(QUERY_STREAMS)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_equals_naive_answer_sets(case):
    """Against the specification evaluator the comparison is per-step
    answer sets, on every generator input."""
    query, stream = case
    for got_inc, got_naive in _drive_pair(
            IncrementalEvaluator(query), NaiveEvaluator(query), stream):
        assert set(got_inc) == set(got_naive)


@given(event_queries(), streams())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_scheduled_naive_matches_deadline_driven_naive(query, stream):
    """ScheduledNaiveEvaluator must emit absence answers when *polled only
    at its own advertised deadlines*, exactly like the plain naive
    evaluator polled continuously — that is what lets the engine drive it
    with wake-ups instead of a clock tick per instant."""
    scheduled = ScheduledNaiveEvaluator(query)
    polled = NaiveEvaluator(query)
    clock = 0.0
    sched_all: set = set()
    polled_all: set = set()
    for delta, label, value in stream:
        clock += delta
        # Honour every advertised deadline up to now, like engine wake-ups.
        while True:
            deadline = scheduled.next_deadline()
            if deadline is None or deadline > clock:
                break
            sched_all |= set(scheduled.advance_time(deadline))
            polled_all |= set(polled.advance_time(deadline))
        event = make_event(d(label, value), clock)
        sched_all |= set(scheduled.on_event(event))
        polled_all |= set(polled.on_event(event))
        assert sched_all == polled_all
    horizon = clock + 100.0
    sched_all |= set(scheduled.advance_time(horizon))
    polled_all |= set(polled.advance_time(horizon))
    assert sched_all == polled_all


@given(QUERY_STREAMS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_firing_sequence_is_mechanism_independent(case):
    """The full production path — inbox, dispatch, wake-ups — must fire
    the same rules with the same bindings in the same order whichever
    mechanism EngineConfig selects."""
    query, stream = case
    baseline, baseline_firings = _run_engine(query, stream)
    other, other_firings = _run_engine(query, stream, evaluator="naive")
    assert other_firings == baseline_firings
    assert other == baseline


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_naive_fleet_equals_incremental_fleet(specs, stream, n_shards):
    """shards ∈ {1, 2, 4}, naive vs incremental, full node path."""
    baseline, baseline_firings = _run_fleet(specs, stream)
    kwargs = {"evaluator": "naive"}
    if n_shards > 1:
        kwargs.update(shards=n_shards)
    naive, naive_firings = _run_fleet(specs, stream, **kwargs)
    assert naive_firings == baseline_firings
    assert naive == baseline


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 4]),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_naive_mid_run_install_preserves_equivalence(
        specs, stream, n_shards, extra_rules):
    """Mid-run installs re-partition shards and rebuild evaluators while
    partial matches are live; the naive mechanism (whose state is the
    whole history) must stay observably identical."""
    if not stream:
        return
    run = _run_fleet_with_mid_run_install
    kwargs = {"evaluator": "naive"}
    if n_shards > 1:
        kwargs["shards"] = n_shards
    assert run(specs, stream, extra_rules, **kwargs) == \
        run(specs, stream, extra_rules)
