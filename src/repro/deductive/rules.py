"""Deductive rule and program definitions with dependency analysis.

A rule has the form ``head <- goal, goal, ...`` where the head is a construct
term and each goal either

- matches a query term against the fact base (:class:`Match`),
- filters bindings with a scalar comparison (:class:`Filter`), or
- requires the *absence* of any match (:class:`Negation`, negation as
  failure; stratification is enforced).

Programs are analysed with a label-level dependency graph
(:mod:`repro.deductive.graph`):
recursion is detected (and can be *rejected* — the paper's Thesis 9 requires
this for event-level views), negation must not occur in a cycle, and rule
safety (head variables bound by positive goals) is checked at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.deductive.graph import (
    DiGraph,
    is_directed_acyclic_graph,
    strongly_connected_components,
)
from repro.errors import DeductiveError, RecursionRejected
from repro.terms.ast import (
    Compare,
    Construct,
    CTerm,
    LabelVar,
    QTerm,
    Query,
    Var,
    all_vars,
    free_vars,
)


@dataclass(frozen=True)
class Match:
    """A positive goal: match *query* against the fact base."""

    query: Query


@dataclass(frozen=True)
class Negation:
    """A negative goal: succeeds iff *query* has no match (NAF)."""

    query: Query


@dataclass(frozen=True)
class Filter:
    """A comparison goal over a bound variable, e.g. ``X > 5``."""

    var: str
    op: str
    rhs: "object"

    def as_compare(self) -> Compare:
        return Compare(self.op, self.rhs)  # type: ignore[arg-type]


Goal = "Match | Negation | Filter"


@dataclass(frozen=True)
class DeductiveRule:
    """``head <- body``; derives one fact per body solution."""

    head: CTerm
    body: tuple["Match | Negation | Filter", ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.head, CTerm):
            raise DeductiveError(f"rule head must be a structured construct term: {self.head!r}")
        if not self.body:
            raise DeductiveError("rule body must have at least one goal")
        positive_vars: set[str] = set()
        for goal in self.body:
            if isinstance(goal, Match):
                positive_vars |= free_vars(goal.query)
        # Safety: head vars and negated/filter vars must be bound positively.
        unbound_head = free_vars(self.head) - positive_vars
        if unbound_head:
            raise DeductiveError(
                f"unsafe rule {self.name or self.head!r}: head variables "
                f"{sorted(unbound_head)} not bound by any positive goal"
            )
        for goal in self.body:
            if isinstance(goal, Filter) and goal.var not in positive_vars:
                raise DeductiveError(
                    f"unsafe rule: filter variable {goal.var!r} not bound positively"
                )

    @property
    def head_label(self) -> str:
        """The label of derived facts; '*' if the head label is a variable."""
        return self.head.label if isinstance(self.head.label, str) else "*"

    def body_labels(self) -> set[tuple[str, bool]]:
        """Labels this rule depends on, tagged with negation flag."""
        out: set[tuple[str, bool]] = set()
        for goal in self.body:
            if isinstance(goal, Match):
                out.add((_root_label(goal.query), False))
            elif isinstance(goal, Negation):
                out.add((_root_label(goal.query), True))
        return out


def _root_label(query: Query) -> str:
    """The root label a goal consults; '*' when unknown (wildcards, vars)."""
    if isinstance(query, QTerm):
        if isinstance(query.label, LabelVar):
            return "*"
        return query.label
    if isinstance(query, Var) and query.inner is not None:
        return _root_label(query.inner)
    return "*"


class Program:
    """A set of deductive rules with dependency analysis.

    Parameters
    ----------
    rules:
        The rules of the program.
    allow_recursion:
        If False (the event-query profile from Thesis 9), any cycle in the
        dependency graph raises :class:`RecursionRejected` immediately.
    """

    def __init__(self, rules: Iterable[DeductiveRule], allow_recursion: bool = True) -> None:
        self.rules = tuple(rules)
        self.allow_recursion = allow_recursion
        self._graph = self._dependency_graph()
        if not allow_recursion and self.is_recursive():
            raise RecursionRejected(
                "recursive deductive rules are rejected for event-level views"
            )
        self._check_stratification()

    def _dependency_graph(self) -> DiGraph:
        """Head label -> each derived label its body consults; the edge
        payload says whether any such goal is negated."""
        graph = DiGraph()
        head_labels = dict.fromkeys(rule.head_label for rule in self.rules)
        for rule in self.rules:
            graph.add_node(rule.head_label)
            edges = graph.succ[rule.head_label]
            for label, negated in rule.body_labels():
                # '*' goals may consult any derived label.
                targets = head_labels if label == "*" else (
                    {label} & head_labels.keys())
                for target in targets:
                    graph.add_edge(rule.head_label, target,
                                   edges.get(target, False) or negated)
        return graph

    def is_recursive(self) -> bool:
        """True if some derived label (transitively) depends on itself."""
        return not is_directed_acyclic_graph(self._graph)

    def _check_stratification(self) -> None:
        """Negation through a cycle is not stratifiable; reject it."""
        for component in strongly_connected_components(self._graph):
            for source in component:
                for target, negated in self._graph.succ[source].items():
                    if negated and target in component:
                        raise DeductiveError(
                            f"negation in recursive cycle through {source!r} "
                            "is not stratifiable"
                        )

    def strata(self) -> list[list[DeductiveRule]]:
        """Rules grouped into evaluation strata (dependencies first).

        A stratum is one strongly connected component of the dependency
        graph, ranked by Tarjan's emission order, which already puts every
        component after the ones it depends on.  Memoised: programs are
        immutable and event-level views evaluate per event.
        """
        cached = getattr(self, "_strata_cache", None)
        if cached is not None:
            return cached
        component_rank = {
            label: rank
            for rank, component in enumerate(
                strongly_connected_components(self._graph))
            for label in component
        }
        buckets: dict[int, list[DeductiveRule]] = {}
        for rule in self.rules:
            buckets.setdefault(component_rank[rule.head_label], []).append(rule)
        result = [buckets[rank] for rank in sorted(buckets)]
        self._strata_cache = result
        return result

    def rules_for(self, label: str) -> list[DeductiveRule]:
        """Rules that can derive facts with the given root label."""
        return [
            rule
            for rule in self.rules
            if rule.head_label == label or rule.head_label == "*" or label == "*"
        ]
