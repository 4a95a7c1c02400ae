"""Unit tests for event query validation, variable analysis and replay horizons."""

import pytest

from repro.errors import EventQueryError
from repro.events import (
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
    replay_horizon,
    validate_query,
)
from repro.events.queries import query_vars
from repro.terms import Var, q


A = EAtom(q("a", Var("X")))
B = EAtom(q("b", Var("Y")))
N = ENot(q("n"))


class TestValidation:
    def test_atom_valid(self):
        validate_query(A)

    def test_empty_and_rejected(self):
        with pytest.raises(EventQueryError):
            validate_query(EAnd())

    def test_empty_or_rejected(self):
        with pytest.raises(EventQueryError):
            validate_query(EOr())

    def test_not_inside_and_rejected(self):
        with pytest.raises(EventQueryError):
            validate_query(EAnd(A, N))  # type: ignore[arg-type]

    def test_seq_needs_positive(self):
        with pytest.raises(EventQueryError):
            validate_query(ESeq(N))

    def test_leading_not_rejected(self):
        with pytest.raises(EventQueryError):
            validate_query(EWithin(ESeq(N, A), 10.0))

    def test_adjacent_nots_rejected(self):
        with pytest.raises(EventQueryError):
            validate_query(EWithin(ESeq(A, N, ENot(q("m")), B), 10.0))

    def test_not_requires_window(self):
        with pytest.raises(EventQueryError):
            validate_query(ESeq(A, N, B))

    def test_not_with_window_valid(self):
        validate_query(EWithin(ESeq(A, N, B), 10.0))

    def test_trailing_not_with_window_valid(self):
        validate_query(EWithin(ESeq(A, N), 10.0))

    def test_window_must_be_positive(self):
        with pytest.raises(EventQueryError):
            validate_query(EWithin(A, 0.0))

    def test_window_outer_covers_inner_seq(self):
        validate_query(EWithin(EAnd(ESeq(A, N, B), B), 5.0))

    def test_count_threshold(self):
        with pytest.raises(EventQueryError):
            validate_query(ECount(q("a"), 0, 10.0))

    def test_count_window(self):
        with pytest.raises(EventQueryError):
            validate_query(ECount(q("a"), 3, -1.0))

    def test_aggregate_needs_exactly_one_extent(self):
        with pytest.raises(EventQueryError):
            EAggregate(q("a", Var("P")), "P", "avg", "A")
        with pytest.raises(EventQueryError):
            EAggregate(q("a", Var("P")), "P", "avg", "A", size=5, window=10.0)

    def test_aggregate_bad_fn(self):
        with pytest.raises(EventQueryError):
            EAggregate(q("a", Var("P")), "P", "median", "A", size=5)

    def test_aggregate_bad_predicate(self):
        with pytest.raises(EventQueryError):
            EAggregate(q("a", Var("P")), "P", "avg", "A", size=5, predicate=("~", 1.0))

    def test_aggregate_valid(self):
        validate_query(
            EAggregate(q("a", Var("P")), "P", "avg", "A", size=5, predicate=("rise%", 5.0))
        )

    def test_non_query_rejected(self):
        with pytest.raises(EventQueryError):
            validate_query("not a query")  # type: ignore[arg-type]


class TestQueryVars:
    def test_atom_vars(self):
        assert query_vars(A) == {"X"}

    def test_alias_included(self):
        assert query_vars(EAtom(q("a"), alias="E")) == {"E"}

    def test_composition_union(self):
        assert query_vars(EAnd(A, B)) == {"X", "Y"}
        assert query_vars(EOr(A, B)) == {"X", "Y"}
        assert query_vars(ESeq(A, B)) == {"X", "Y"}

    def test_negation_vars_excluded(self):
        assert query_vars(EWithin(ESeq(A, ENot(q("n", Var("Z"))), B), 5.0)) == {"X", "Y"}

    def test_count_binds_group_key(self):
        assert query_vars(ECount(q("o", Var("S")), 3, 10.0, group_by=("S",))) == {"S"}

    def test_aggregate_binds_into(self):
        agg = EAggregate(q("p", Var("P")), "P", "avg", "AVG", size=5, group_by=("S",))
        assert query_vars(agg) == {"S", "AVG"}


# A windowed two-member chain: its live state needs 5 s of history.
AB = EWithin(ESeq(EAtom(q("a")), EAtom(q("b"))), 5.0)


class TestReplayHorizon:
    def test_atom_needs_no_history(self):
        assert replay_horizon(EAtom(q("a"))) == 0.0

    def test_windowed_chain_is_bounded_by_its_window(self):
        assert replay_horizon(AB) == 5.0

    def test_unwindowed_chain_is_unbounded(self):
        assert replay_horizon(ESeq(EAtom(q("a")), EAtom(q("b")))) is None

    def test_negation_members_add_nothing(self):
        query = EWithin(ESeq(EAtom(q("a")), EAtom(q("b")), ENot(q("n"))), 4.0)
        assert replay_horizon(query) == 4.0

    def test_nested_windows_accumulate(self):
        inner = EWithin(ESeq(EAtom(q("b")), EAtom(q("c"))), 2.0)
        query = EWithin(ESeq(EAtom(q("a")), inner), 10.0)
        assert replay_horizon(query) == 12.0

    def test_or_takes_the_worst_member(self):
        assert replay_horizon(EOr(EAtom(q("a")), AB)) == 5.0
        assert replay_horizon(
            EOr(AB, ESeq(EAtom(q("a")), EAtom(q("b"))))) is None

    def test_count_is_bounded_by_its_window(self):
        assert replay_horizon(ECount(q("a"), 3, 5.0)) == 5.0

    def test_aggregate_baseline_is_unbounded(self):
        # The rise% baseline survives gc, so no bounded suffix rebuilds it.
        assert replay_horizon(
            EAggregate(q("s"), "p", "avg", "out", window=9.0)) is None
