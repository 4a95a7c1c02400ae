"""Static analysis of reactive rule programs (Thesis 1).

    "Rules are well-suited for processing and analyzing by machines.
    Methods for automatic optimization, verification, and transformation
    into other types of rules [...] have been well-studied."

This module implements the machine-analysability the thesis advertises:

- :func:`trigger_graph` — which rule can trigger which: an edge from rule
  R to rule S when R's action can raise an event whose label S's event
  query consumes (conservative label-level approximation);
- :func:`find_trigger_cycles` — potential infinite event loops, the classic
  hazard of reactive rule bases;
- :func:`dead_rules` — rules whose trigger labels no analysed rule (or
  listed external source) produces;
- :func:`raised_labels` / :func:`consumed_labels` — the per-rule label
  interfaces the above build on.

The analysis is *conservative*: label wildcards and label variables consume
everything, and dynamically constructed labels produce the unknown label
``"*"`` which matches everything.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import actions as act
from repro.core.rules import ECARule
from repro.deductive.graph import DiGraph, strongly_connected_components
from repro.events.queries import (
    EAggregate,
    EAnd,
    EAtom,
    ECount,
    ENot,
    EOr,
    ESeq,
    EWithin,
)
from repro.terms.ast import CTerm, LabelVar, QTerm, Var


def consumed_labels(rule: ECARule) -> frozenset[str]:
    """Root labels of events the rule's event query can react to.

    ``"*"`` means the rule reacts to any label (wildcard or label
    variable in trigger position).
    """
    out: set[str] = set()
    _collect_consumed(rule.event, out)
    return frozenset(out)


def _collect_consumed(query, out: set[str]) -> None:
    if isinstance(query, EAtom):
        out.add(_pattern_label(query.pattern))
    elif isinstance(query, (EAnd, EOr, ESeq)):
        for member in query.members:
            if not isinstance(member, ENot):
                _collect_consumed(member, out)
    elif isinstance(query, EWithin):
        _collect_consumed(query.query, out)
    elif isinstance(query, (ECount, EAggregate)):
        out.add(_pattern_label(query.pattern))


def _pattern_label(pattern) -> str:
    if isinstance(pattern, QTerm):
        if isinstance(pattern.label, LabelVar):
            return "*"
        return pattern.label
    return "*"


def raised_labels(rule: ECARule) -> frozenset[str]:
    """Root labels of events the rule's actions can raise.

    ``"*"`` stands for a dynamically constructed label (label variable).
    """
    out: set[str] = set()
    for _condition, action in rule.branches:
        _collect_raised(action, out)
    if rule.otherwise is not None:
        _collect_raised(rule.otherwise, out)
    return frozenset(out)


def _collect_raised(action, out: set[str]) -> None:
    if isinstance(action, act.Raise):
        term = action.term
        if isinstance(term, CTerm):
            out.add(term.label if isinstance(term.label, str) else "*")
        elif isinstance(term, Var):
            out.add("*")
        else:
            from repro.terms.ast import Data

            out.add(term.label if isinstance(term, Data) else "*")
    elif isinstance(action, act.Sequence):
        for step in action.actions:
            _collect_raised(step, out)
    elif isinstance(action, act.Alternative):
        for option in action.actions:
            _collect_raised(option, out)
    elif isinstance(action, act.Conditional):
        _collect_raised(action.then, out)
        if action.otherwise is not None:
            _collect_raised(action.otherwise, out)
    elif isinstance(action, act.InstallRule):
        out.add("*")  # an installed rule may raise anything
    elif isinstance(action, act.PyAction):
        out.add("*")  # opaque code may raise anything
    # CallProcedure: resolved against the registry by analyse_engine;
    # standalone analysis treats it as opaque.
    elif isinstance(action, act.CallProcedure):
        out.add("*")


def _matches(produced: str, consumed: str) -> bool:
    return produced == "*" or consumed == "*" or produced == consumed


def trigger_graph(rules: Iterable[ECARule]) -> DiGraph:
    """Rule-level triggering graph: edge R -> S iff R can trigger S."""
    rules = list(rules)
    graph = DiGraph()
    interfaces = {}
    for rule in rules:
        graph.add_node(rule.name)
        interfaces[rule.name] = (raised_labels(rule), consumed_labels(rule))
    for source in rules:
        produced, _ = interfaces[source.name]
        for target in rules:
            _, consumed = interfaces[target.name]
            if any(_matches(p, c) for p in produced for c in consumed):
                graph.add_edge(source.name, target.name)
    return graph


def find_trigger_cycles(rules: Iterable[ECARule]) -> list[list[str]]:
    """Potential infinite event loops (conservative).

    Returns the rule-name cycles of the trigger graph; an empty list means
    the rule base provably terminates at the label level.  A reported
    cycle is a *potential* loop — data-dependent conditions may break it
    at run time, which is exactly why the analysis flags it for review.
    """
    graph = trigger_graph(rules)
    return [sorted(component) for component in strongly_connected_components(graph)
            if len(component) > 1 or graph.has_edge(*(list(component) * 2)[:2])]


def dead_rules(rules: Iterable[ECARule],
               external_labels: Iterable[str] = ()) -> list[str]:
    """Rules that nothing can trigger.

    ``external_labels`` lists event labels arriving from outside the
    analysed rule base (remote nodes, monitors); ``"*"`` disables the
    check for externally exposed systems.
    """
    rules = list(rules)
    external = set(external_labels)
    produced_anywhere: set[str] = set(external)
    for rule in rules:
        produced_anywhere |= raised_labels(rule)
    dead = []
    for rule in rules:
        consumed = consumed_labels(rule)
        if not any(_matches(p, c) for p in produced_anywhere for c in consumed):
            dead.append(rule.name)
    return dead


def analysis_report(rules: Iterable[ECARule],
                    external_labels: Iterable[str] = ()) -> dict:
    """A summary dict suitable for printing or asserting in CI."""
    rules = list(rules)
    cycles = find_trigger_cycles(rules)
    dead = dead_rules(rules, external_labels)
    return {
        "rules": len(rules),
        "trigger_edges": trigger_graph(rules).number_of_edges(),
        "potential_loops": cycles,
        "dead_rules": dead,
        "clean": not cycles and not dead,
    }
