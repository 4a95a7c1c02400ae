"""The evaluator-mechanism property: tree ≡ incremental ≡ naive.

The tree evaluator (frequency-ordered join plans over per-leaf buffers)
and the scheduled naive evaluator are alternative *mechanisms* behind the
same contract: identical answers, identical batch order, identical firing
sequences through the full production path.  Hypothesis drives all three
over the house query/stream generators, then repeats the exercise at node
level across shard counts and mid-run installs — the axes the issue
names — with ``EngineConfig(evaluator=...)`` as the only knob.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.events import (
    IncrementalEvaluator,
    NaiveEvaluator,
    ScheduledNaiveEvaluator,
    TreeEvaluator,
)
from repro.events.model import make_event
from repro.terms import d

from test_event_equivalence import _run_engine, event_queries, streams
from test_shard_equivalence import (
    RULE_SPECS,
    STREAMS,
    _run_fleet,
    _run_fleet_with_mid_run_install,
)

EVALUATOR_NAMES = st.sampled_from(["tree", "naive"])


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


@given(event_queries(), streams())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tree_equals_incremental_batches(query, stream):
    """Not just the same answers: the same batches in the same order at
    every step, so downstream firing order is mechanism-independent."""
    clock = 0.0
    tree = TreeEvaluator(query)
    incremental = IncrementalEvaluator(query)
    for delta, label, value in stream:
        clock += delta
        event = make_event(d(label, value), clock)
        got_tree = tree.on_event(event)
        got_inc = incremental.on_event(event)
        assert got_tree == got_inc, (
            f"divergence at t={clock} on {label}: "
            f"tree={list(map(str, got_tree))} inc={list(map(str, got_inc))}"
        )
    for horizon in (clock + 5.0, clock + 50.0):
        assert tree.advance_time(horizon) == incremental.advance_time(horizon)


@given(event_queries(), streams())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tree_equals_naive_answer_sets(query, stream):
    """Against the specification evaluator the comparison is per-step
    answer sets (naive has no incremental batch-order guarantee)."""
    for got_tree, got_naive in _drive_pair(
            TreeEvaluator(query), NaiveEvaluator(query), stream):
        assert set(got_tree) == set(got_naive)


@given(event_queries(), streams(), st.integers(min_value=1, max_value=5))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replan_mid_stream_is_invisible(query, stream, cut):
    """Re-ordering the join plan while partial matches are buffered must
    not change a single batch.  The skewed rates push the plan away from
    textual order, so the rebuild actually moves leaves."""
    plain = TreeEvaluator(query)
    replanned = TreeEvaluator(query)
    clock = 0.0
    for step, (delta, label, value) in enumerate(stream):
        clock += delta
        event = make_event(d(label, value), clock)
        assert replanned.on_event(event) == plain.on_event(event)
        if step % cut == 0:
            replanned.replan({"a": 100.0, "b": 1.0, "c": 50.0, "n": 2.0})
    horizon = clock + 50.0
    assert replanned.advance_time(horizon) == plain.advance_time(horizon)


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


@given(event_queries(), streams(), EVALUATOR_NAMES)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_firing_sequence_is_mechanism_independent(
        query, stream, evaluator):
    """The full production path — inbox, dispatch, wake-ups — must fire
    the same rules with the same bindings in the same order whichever
    mechanism EngineConfig selects."""
    baseline, baseline_firings = _run_engine(query, stream)
    other, other_firings = _run_engine(query, stream, evaluator=evaluator)
    assert other_firings == baseline_firings
    assert other == baseline


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tree_fleet_equals_incremental_fleet(specs, stream, n_shards):
    """The issue's acceptance matrix: shards ∈ {1, 2, 4}, tree vs
    incremental, full node path."""
    baseline, baseline_firings = _run_fleet(specs, stream)
    kwargs = {"evaluator": "tree"}
    if n_shards > 1:
        kwargs.update(shards=n_shards)
    tree, tree_firings = _run_fleet(specs, stream, **kwargs)
    assert tree_firings == baseline_firings
    assert tree == baseline


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 4]),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tree_mid_run_install_preserves_equivalence(
        specs, stream, n_shards, extra_rules):
    """Mid-run installs re-partition shards and rebuild evaluators while
    partial matches are live; the tree mechanism (including its migrated
    buffers and replanned joins) must stay observably identical."""
    if not stream:
        return
    run = _run_fleet_with_mid_run_install
    kwargs = {"evaluator": "tree"}
    if n_shards > 1:
        kwargs["shards"] = n_shards
    assert run(specs, stream, extra_rules, **kwargs) == \
        run(specs, stream, extra_rules)
