"""Evaluation of deductive programs: forward and backward chaining.

Thesis 7 asks which evaluation methods a query language supports; we provide
both classic strategies over the same rule representation:

- :func:`forward_chain` — bottom-up, semi-naive, stratum by stratum; returns
  the materialised base (extensional + derived facts).  Used for persistent
  Web views that many queries read.
- :class:`BackwardEvaluator` — on-demand: a query for a derived label lazily
  materialises only the subprogram reachable from that label and memoises
  the result (a simple form of tabling).  Used when views are consulted
  rarely or the base changes often.

Both agree on stratified programs (tested property).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.deductive.base import TermBase
from repro.deductive.graph import descendants
from repro.deductive.rules import DeductiveRule, Filter, Match, Negation, Program, _root_label
from repro.errors import DeductiveError
from repro.terms.ast import Bindings, Data, Query
from repro.terms.construct import instantiate
from repro.terms.simulation import _compare_holds, match


def _solve_goals(
    goals: tuple["Match | Negation | Filter", ...],
    index: int,
    bindings: Bindings,
    full: TermBase,
    delta: "TermBase | None",
    pivot: int,
) -> Iterator[Bindings]:
    """Join the body goals left to right.

    When *delta* is given, the goal at position *pivot* draws candidates from
    the delta instead of the full base (the semi-naive rewriting: a new
    derivation must use at least one new fact).
    """
    if index == len(goals):
        yield bindings
        return
    goal = goals[index]
    if isinstance(goal, Match):
        source = delta if (delta is not None and index == pivot) else full
        for extended in source.solve(goal.query, bindings):
            yield from _solve_goals(goals, index + 1, extended, full, delta, pivot)
    elif isinstance(goal, Negation):
        if not full.solve(goal.query, bindings):
            yield from _solve_goals(goals, index + 1, bindings, full, delta, pivot)
    else:  # Filter
        value = bindings.get(goal.var)
        if value is not None and _compare_holds(goal.as_compare(), value, bindings):
            yield from _solve_goals(goals, index + 1, bindings, full, delta, pivot)


def _positive_indices(rule: DeductiveRule) -> list[int]:
    return [i for i, goal in enumerate(rule.body) if isinstance(goal, Match)]


def _derive(rule: DeductiveRule, bindings: Bindings) -> Data:
    fact = instantiate(rule.head, bindings)
    if not isinstance(fact, Data):
        raise DeductiveError(f"rule head must construct a data term, got {fact!r}")
    return fact


def forward_chain(program: Program, base: TermBase) -> TermBase:
    """Materialise all derived facts bottom-up (semi-naive, stratified).

    The input base is not modified; the returned base contains both the
    extensional facts and everything derivable.
    """
    derived = base.copy()
    for stratum in program.strata():
        # Initial round: full evaluation of every rule in the stratum.
        delta = TermBase()
        for rule in stratum:
            for bindings in _solve_goals(rule.body, 0, Bindings(), derived, None, -1):
                fact = _derive(rule, bindings)
                if derived.add(fact):
                    delta.add(fact)
        # Semi-naive iteration: new derivations must touch a delta fact.
        while len(delta):
            next_delta = TermBase()
            for rule in stratum:
                for pivot in _positive_indices(rule):
                    for bindings in _solve_goals(
                        rule.body, 0, Bindings(), derived, delta, pivot
                    ):
                        fact = _derive(rule, bindings)
                        if derived.add(fact):
                            next_delta.add(fact)
            delta = next_delta
    return derived


class BackwardEvaluator:
    """On-demand (goal-directed) evaluation with memoisation.

    A query against a derived label materialises only the rules reachable
    from that label in the dependency graph, then answers from the combined
    facts.  Materialisations are cached until :meth:`invalidate` is called
    (e.g. after the extensional base changed).
    """

    def __init__(self, program: Program, base: TermBase) -> None:
        self._program = program
        self._base = base
        self._cache: dict[frozenset[str], TermBase] = {}

    def invalidate(self) -> None:
        """Drop memoised materialisations (call after base updates)."""
        self._cache.clear()

    def _reachable_labels(self, label: str) -> frozenset[str]:
        graph = self._program._graph
        head_labels = {rule.head_label for rule in self._program.rules}
        if label == "*":
            return frozenset(head_labels)
        if label not in graph:
            return frozenset({label} & head_labels)
        reachable = {label} | descendants(graph, label)
        return frozenset(reachable & head_labels)

    def _materialise(self, labels: frozenset[str]) -> TermBase:
        cached = self._cache.get(labels)
        if cached is not None:
            return cached
        rules = [rule for rule in self._program.rules if rule.head_label in labels]
        subprogram = Program(rules, allow_recursion=True) if rules else None
        result = forward_chain(subprogram, self._base) if subprogram else self._base
        self._cache[labels] = result
        return result

    def solve(self, query: Query, bindings: Bindings = Bindings()) -> list[Bindings]:
        """Answer *query* over extensional plus (reachable) derived facts."""
        labels = self._reachable_labels(_root_label(query))
        return self._materialise(labels).solve(query, bindings)

    def facts(self, label: str) -> tuple[Data, ...]:
        """All facts (extensional and derived) with the given label."""
        labels = self._reachable_labels(label)
        return self._materialise(labels).with_label(label)
