"""The switch-equivalence property: adaptive ≡ fixed, switches included.

The adaptive evaluator's safety claim is that a mechanism switch is
*observationally invisible*: answers, batch order, and engine firing
sequences match a fixed-mechanism run no matter when switches happen.
Hypothesis forces switches at arbitrary points of random streams (the
strongest adversary — the governor can only switch at a subset of these
points), then repeats the exercise with an aggressively-switching
governor through the full node path across shards × mid-run installs.  Unit tests pin the nasty migration states by hand: a
half-built ``ESeq`` prefix, a pending trailing-``ENot`` deadline, a
same-instant window expiry racing the switch, and consumption marks.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.events import (
    AdaptiveEvaluator,
    ConsumingEvaluator,
    EAtom,
    ENot,
    ESeq,
    EWithin,
    GovernorConfig,
    IncrementalEvaluator,
    adaptive,
)
from repro.events.model import make_event
from repro.terms import d, q

from test_event_equivalence import _run_engine, event_queries, streams
from test_shard_equivalence import (
    RULE_SPECS,
    STREAMS,
    _run_fleet,
    _run_fleet_with_mid_run_install,
)

# Forced-switch tests disable the governor (absurd epoch/period) so the
# *test* chooses the switch points; the fleet tests do the opposite.
MANUAL = dict(epoch_events=10**9, period=1e9)
# An aggressively-switching governor: decides every event, no dwell, no
# margin, fast decay — the worst case for migration, the opposite of the
# production defaults.
EAGER = dict(epoch_events=1, dwell_epochs=0, margin=0.0, halflife=1.0,
             period=1.0)


def _flip(evaluator):
    """Switch to whichever mechanism is not currently running."""
    target = "tree" if evaluator.mechanism == "incremental" else "incremental"
    return evaluator.switch_to(target)


@given(event_queries(), streams(),
       st.lists(st.integers(min_value=0, max_value=13), max_size=4),
       st.booleans())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_forced_switches_preserve_batches(query, stream, cuts, start_tree):
    """Switches forced at arbitrary points must not change a single batch
    — not the answers, not their order, not which step emits them."""
    config = GovernorConfig(initial="tree" if start_tree else "incremental",
                            **MANUAL)
    switchy = AdaptiveEvaluator(query, config=config)
    baseline = IncrementalEvaluator(query)
    clock = 0.0
    for step, (delta, label, value) in enumerate(stream):
        clock += delta
        event = make_event(d(label, value), clock)
        got = switchy.on_event(event)
        want = baseline.on_event(event)
        assert got == want, (
            f"divergence at t={clock} on {label} "
            f"(mechanism={switchy.mechanism}, switches={switchy.switches}): "
            f"adaptive={list(map(str, got))} fixed={list(map(str, want))}"
        )
        if step in cuts:
            _flip(switchy)  # False (refused) on pinned queries is fine too
    for horizon in (clock + 5.0, clock + 50.0):
        assert switchy.advance_time(horizon) == baseline.advance_time(horizon)
        _flip(switchy)


@given(event_queries(), streams())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_switch_after_every_event_preserves_batches(query, stream):
    """The densest possible switch schedule: flip after *every* event and
    every advance.  Subsumes any governor behaviour."""
    switchy = AdaptiveEvaluator(query, config=GovernorConfig(**MANUAL))
    baseline = IncrementalEvaluator(query)
    clock = 0.0
    for delta, label, value in stream:
        clock += delta
        event = make_event(d(label, value), clock)
        assert switchy.on_event(event) == baseline.on_event(event)
        _flip(switchy)
    for horizon in (clock + 5.0, clock + 50.0):
        assert switchy.advance_time(horizon) == baseline.advance_time(horizon)
        _flip(switchy)


@given(event_queries(), streams())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_engine_firing_sequence_matches_fixed(query, stream):
    """Full production path, governor switching as eagerly as it likes:
    the firing sequence must match the fixed-mechanism engine."""
    baseline, baseline_firings = _run_engine(query, stream)
    got, got_firings = _run_engine(query, stream, evaluator=adaptive(**EAGER))
    assert got_firings == baseline_firings
    assert got == baseline


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_fleet_equals_incremental_fleet(specs, stream, n_shards):
    """The acceptance matrix: shards ∈ {1, 2, 4}, an eagerly-switching
    adaptive fleet vs the incremental baseline, full node path."""
    baseline, baseline_firings = _run_fleet(specs, stream)
    kwargs = {"evaluator": adaptive(**EAGER)}
    if n_shards > 1:
        kwargs.update(shards=n_shards)
    got, got_firings = _run_fleet(specs, stream, **kwargs)
    assert got_firings == baseline_firings
    assert got == baseline


@given(RULE_SPECS, STREAMS, st.sampled_from([1, 4]),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_mid_run_install_preserves_equivalence(
        specs, stream, n_shards, extra_rules):
    """Mid-run installs re-partition shards and replan survivors while
    governors are mid-dwell; equivalence must survive."""
    if not stream:
        return
    run = _run_fleet_with_mid_run_install
    kwargs = {"evaluator": adaptive(**EAGER)}
    if n_shards > 1:
        kwargs["shards"] = n_shards
    assert run(specs, stream, extra_rules, **kwargs) == \
        run(specs, stream, extra_rules)


@given(RULE_SPECS, STREAMS, st.sampled_from(["chronicle", "recent"]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_adaptive_consumption_equals_fixed_consumption(specs, stream, policy):
    """Consumption policies layer outside the adaptive evaluator, so
    consumed-event marks must be switch-invariant too."""
    baseline = _run_fleet(specs, stream, consumption=policy)
    got = _run_fleet(specs, stream, consumption=policy,
                     evaluator=adaptive(**EAGER))
    assert got == baseline


# ---------------------------------------------------------------------------
# The nasty migration states, pinned by hand
# ---------------------------------------------------------------------------


def _pair(query, initial="incremental"):
    switchy = AdaptiveEvaluator(query, config=GovernorConfig(initial=initial,
                                                             **MANUAL))
    fixed = IncrementalEvaluator(query)
    return switchy, fixed


def _step(switchy, fixed, term, time):
    event = make_event(term, time)
    got, want = switchy.on_event(event), fixed.on_event(event)
    assert got == want
    return got


def test_half_built_seq_prefix_survives_switch():
    """a then b buffered, switch, then c completes the compound event."""
    query = EWithin(ESeq(EAtom(q("a")), EAtom(q("b")), EAtom(q("c"))), 10.0)
    switchy, fixed = _pair(query)
    _step(switchy, fixed, d("a"), 1.0)
    _step(switchy, fixed, d("b"), 2.0)
    assert switchy.state_size() > 0
    assert switchy.switch_to("tree")
    answers = _step(switchy, fixed, d("c"), 3.0)
    assert len(answers) == 1
    assert answers[0].start == 1.0 and answers[0].end == 3.0
    assert switchy.advance_time(20.0) == fixed.advance_time(20.0)


def test_pending_absence_deadline_survives_switch():
    """A trailing-ENot pending crosses the switch: its absence answer must
    fire exactly once, at the same deadline, on the new mechanism."""
    query = EWithin(ESeq(EAtom(q("a")), EAtom(q("b")), ENot(q("n"))), 4.0)
    switchy, fixed = _pair(query)
    _step(switchy, fixed, d("a"), 1.0)
    _step(switchy, fixed, d("b"), 2.0)  # pending: absence confirms at 5.0
    assert switchy.switch_to("tree")
    assert switchy.next_deadline() == fixed.next_deadline() == 5.0
    got, want = switchy.advance_time(5.0), fixed.advance_time(5.0)
    assert got == want and len(got) == 1
    # And nothing fires twice later.
    assert switchy.advance_time(50.0) == fixed.advance_time(50.0) == []


def test_blocker_after_switch_still_blocks_pending():
    """The pending migrated; a blocker arriving after the switch must
    still cancel it."""
    query = EWithin(ESeq(EAtom(q("a")), EAtom(q("b")), ENot(q("n"))), 4.0)
    switchy, fixed = _pair(query)
    _step(switchy, fixed, d("a"), 1.0)
    _step(switchy, fixed, d("b"), 2.0)
    assert switchy.switch_to("tree")
    _step(switchy, fixed, d("n"), 3.0)  # blocks the pending
    assert switchy.advance_time(50.0) == fixed.advance_time(50.0) == []


def test_same_instant_expiry_racing_a_switch():
    """A window expiring at exactly the switch instant: the absence answer
    fired by the triggering call must not be lost or duplicated."""
    query = EWithin(ESeq(EAtom(q("a")), EAtom(q("b")), ENot(q("n"))), 4.0)
    switchy, fixed = _pair(query)
    _step(switchy, fixed, d("a"), 1.0)
    _step(switchy, fixed, d("b"), 2.0)
    # An unrelated event lands at exactly the 5.0 deadline: both
    # mechanisms fire the absence answer inside this on_event call.
    answers = _step(switchy, fixed, d("x"), 5.0)
    assert len(answers) == 1
    assert switchy.switch_to("tree")  # replay must not re-fire it
    assert switchy.advance_time(5.0) == fixed.advance_time(5.0) == []
    assert switchy.advance_time(50.0) == fixed.advance_time(50.0) == []
    # Symmetric race: the switch happens first at the deadline instant.
    switchy2, fixed2 = _pair(query)
    _step(switchy2, fixed2, d("a"), 1.0)
    _step(switchy2, fixed2, d("b"), 2.0)
    assert switchy2.advance_time(5.0) == fixed2.advance_time(5.0)
    assert switchy2.switch_to("tree")
    assert switchy2.advance_time(5.0) == fixed2.advance_time(5.0) == []


def test_consumption_marks_survive_switch():
    """Chronicle consumption: events consumed before the switch must stay
    consumed after it (the policy wraps outside the migrating state)."""
    query = EWithin(ESeq(EAtom(q("a")), EAtom(q("b"))), 10.0)
    switchy = ConsumingEvaluator(
        AdaptiveEvaluator(query, config=GovernorConfig(**MANUAL)), "chronicle")
    fixed = ConsumingEvaluator(IncrementalEvaluator(query), "chronicle")
    _step(switchy, fixed, d("a"), 1.0)
    _step(switchy, fixed, d("a"), 2.0)
    # b completes two candidate answers; chronicle accepts the older one
    # and consumes a@1 and b@3.
    got = _step(switchy, fixed, d("b"), 3.0)
    assert len(got) == 1 and got[0].start == 1.0
    assert switchy.switch_to("tree")
    # After the switch a fresh b may only pair with the unconsumed a@2.
    got = _step(switchy, fixed, d("b"), 4.0)
    assert len(got) == 1 and got[0].start == 2.0
    got = _step(switchy, fixed, d("b"), 5.0)
    assert got == []
    assert switchy.advance_time(50.0) == fixed.advance_time(50.0)
