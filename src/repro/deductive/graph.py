"""A minimal directed graph for label-level dependency analysis.

The deductive layer and :mod:`repro.core.analysis` ask a handful of
questions of graphs with at most a few hundred labels: edges,
descendants, strongly connected components and acyclicity.  This module
answers them with the standard library alone, so the package has no
runtime dependency.  Each node's successors form an insertion-ordered
``dict`` whose values are edge payloads (e.g. the deductive ``negated``
flag), so every traversal is deterministic.
"""

from __future__ import annotations

from typing import Hashable


class DiGraph:
    """Nodes with ordered, payload-carrying out-edges."""

    def __init__(self) -> None:
        self.succ: dict[Hashable, dict[Hashable, object]] = {}

    def add_node(self, node: Hashable) -> None:
        self.succ.setdefault(node, {})

    def add_edge(self, source: Hashable, target: Hashable,
                 data: object = None) -> None:
        self.add_node(target)
        self.succ.setdefault(source, {})[target] = data

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        return target in self.succ.get(source, ())

    def number_of_edges(self) -> int:
        return sum(map(len, self.succ.values()))

    def __contains__(self, node: Hashable) -> bool:
        return node in self.succ


def descendants(graph: DiGraph, source: Hashable) -> set:
    """Every node reachable from *source* by at least one edge, except
    *source* itself."""
    seen: set = set()
    frontier = [source]
    while frontier:
        for target in graph.succ[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    seen.discard(source)
    return seen


def strongly_connected_components(graph: DiGraph) -> list[set]:
    """Iterative Tarjan: the components in reverse topological order (a
    component comes after every component it reaches), so ranking them
    by position puts dependencies first."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    components: list[set] = []
    for root in graph.succ:
        if root in index:
            continue
        work = [(root, None)]
        while work:
            node, targets = work.pop()
            if targets is None:  # first visit
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
                targets = iter(graph.succ[node])
            for target in targets:
                if target not in index:
                    work += [(node, targets), (target, None)]
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            else:
                if low[node] == index[node]:
                    split = stack.index(node)
                    component = set(stack[split:])
                    del stack[split:]
                    on_stack -= component
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components


def is_directed_acyclic_graph(graph: DiGraph) -> bool:
    """True iff no node reaches itself (self-loops included)."""
    return (all(len(c) == 1 for c in strongly_connected_components(graph))
            and not any(node in out for node, out in graph.succ.items()))
