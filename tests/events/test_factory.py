"""The evaluator factory, the scheduled naive evaluator, and named edge cases
both mechanisms must agree on.

The property suite (tests/properties/test_evaluator_equivalence.py) proves
incremental ≡ naive over random streams; these tests pin down the named
edge cases — same-instant absence deadlines, binding-sensitive interior
negation, window expiry racing a positive — plus ``resolve_evaluator``
itself and the deadlines :class:`ScheduledNaiveEvaluator` advertises.
"""

import pytest

from repro.core import EngineConfig, PyAction, ReactiveEngine, eca
from repro.errors import EventQueryError
from repro.events import (
    EAtom,
    ENot,
    ESeq,
    EWithin,
    IncrementalEvaluator,
    NaiveEvaluator,
    ScheduledNaiveEvaluator,
    register_evaluator,
    resolve_evaluator,
)
from repro.events.model import make_event
from repro.terms import Var, d, q
from repro.web import Simulation


def feed(evaluator, *specs):
    """Feed (time, term) specs — term None means advance_time."""
    out = []
    for time, term in specs:
        if term is None:
            out.extend(evaluator.advance_time(time))
        else:
            out.extend(evaluator.on_event(make_event(term, time)))
    return out


def all_mechanisms(query, *specs):
    """Run *specs* through both mechanisms; assert agreement and return
    the incremental evaluator's answers."""
    results = {}
    for mechanism in (IncrementalEvaluator, NaiveEvaluator):
        # Fresh Event objects per mechanism get fresh ids; compare on the
        # content that is id-independent.
        answers = feed(mechanism(query), *specs)
        results[mechanism.__name__] = [
            (a.bindings, a.start, a.end, a.span) for a in answers
        ]
    assert set(map(tuple, results["IncrementalEvaluator"])) == \
        set(map(tuple, results["NaiveEvaluator"]))
    return results["IncrementalEvaluator"]


ABSENCE = EWithin(ESeq(EAtom(q("a", Var("V"))), ENot(q("n"))), 4.0)


class TestNegationEdgeCases:
    def test_same_instant_deadline_fires_in_event_pass(self):
        # The deadline (1.0 + 4.0) coincides with an unrelated event: the
        # absence answer must fire in that very on_event pass.
        out = all_mechanisms(ABSENCE, (1.0, d("a", 7)), (5.0, d("b", 0)))
        assert len(out) == 1
        bindings, start, end, span = out[0]
        assert bindings["V"] == 7
        assert (start, end, span) == (1.0, 5.0, 4.0)

    def test_blocker_exactly_at_deadline_blocks(self):
        # The trailing gap is inclusive at the deadline: a blocker at
        # exactly start + window still cancels the match.
        assert all_mechanisms(ABSENCE, (1.0, d("a", 7)), (5.0, d("n", 0))) == []

    def test_interior_negation_is_binding_sensitive(self):
        query = EWithin(
            ESeq(EAtom(q("a", Var("V"))), ENot(q("n", Var("V"))),
                 EAtom(q("b", Var("V")))),
            10.0,
        )
        # n{2} binds V=2, the combination binds V=1: not a blocker.
        out = all_mechanisms(
            query, (1.0, d("a", 1)), (2.0, d("n", 2)), (3.0, d("b", 1)))
        assert len(out) == 1 and out[0][0]["V"] == 1
        # n{1} shares the binding: blocked.
        assert all_mechanisms(
            query, (1.0, d("a", 1)), (2.0, d("n", 1)), (3.0, d("b", 1))) == []

    def test_window_expiry_racing_a_positive(self):
        # The closing positive lands exactly at start + window: span == 2.0
        # is still inside EWithin; half a tick later the prefix has expired.
        query = EWithin(ESeq(EAtom(q("a", Var("X"))), EAtom(q("b", Var("Y")))), 2.0)
        on_edge = all_mechanisms(query, (1.0, d("a", 1)), (3.0, d("b", 2)))
        assert len(on_edge) == 1 and on_edge[0][3] == 2.0
        assert all_mechanisms(query, (1.0, d("a", 1)), (3.5, d("b", 2))) == []


class TestScheduledNaive:
    def test_advertises_candidate_deadlines(self):
        naive = ScheduledNaiveEvaluator(ABSENCE)
        assert naive.next_deadline() is None
        feed(naive, (1.0, d("a", 7)))
        assert naive.next_deadline() == 5.0
        out = feed(naive, (5.0, None))
        assert len(out) == 1 and out[0].bindings["V"] == 7
        assert naive.next_deadline() is None

    def test_reset_clears_deadlines(self):
        naive = ScheduledNaiveEvaluator(ABSENCE)
        feed(naive, (1.0, d("a", 7)))
        naive.reset()
        assert naive.next_deadline() is None


class TestFactory:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(EventQueryError, match="incremental.*naive"):
            resolve_evaluator("bogus")

    def test_engine_config_validates_the_knob(self):
        assert EngineConfig(evaluator="naive").evaluator == "naive"
        with pytest.raises(EventQueryError):
            EngineConfig(evaluator="bogus")
        for retired in ("tree", "adaptive"):
            with pytest.raises(EventQueryError):
                EngineConfig(evaluator=retired)

    def test_factory_object_passes_through(self):
        factory = resolve_evaluator("naive")
        assert resolve_evaluator(factory) is factory
        assert factory.name == "naive"
        assert isinstance(factory.build(ABSENCE), ScheduledNaiveEvaluator)

    def test_rates_reach_the_builder(self):
        """A custom builder receives whatever rates ``build`` was given;
        the engine gives none."""
        seen = []

        def recording(query, rates=None):
            seen.append(rates)
            return IncrementalEvaluator(query)

        resolve_evaluator(recording).build(ABSENCE, {"a": 1.0})
        engine = ReactiveEngine(Simulation().node("http://f.example"),
                                config=EngineConfig(evaluator=recording))
        engine.install(eca("r", ABSENCE, PyAction(lambda n, b: None, "noop")))
        assert seen == [{"a": 1.0}, None]

    def test_bare_callable_is_wrapped(self):
        def my_mechanism(query, rates=None):
            return IncrementalEvaluator(query)

        factory = resolve_evaluator(my_mechanism)
        assert factory.name == "my_mechanism"
        assert isinstance(factory.build(ABSENCE), IncrementalEvaluator)

    def test_register_evaluator_round_trips(self):
        register_evaluator(
            "test-naive-alias", lambda query, rates=None: NaiveEvaluator(query))
        config = EngineConfig(evaluator="test-naive-alias")
        built = resolve_evaluator(config.evaluator).build(ABSENCE)
        assert isinstance(built, NaiveEvaluator)

    def test_non_factory_rejected(self):
        with pytest.raises(EventQueryError, match="name, factory, or builder"):
            resolve_evaluator(42)
