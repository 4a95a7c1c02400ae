"""The stdlib graph module agrees with networkx, its oracle.

:mod:`repro.deductive.graph` replaces networkx at run time; hypothesis
generates random directed graphs (self-loops and cycles included) and
checks descendants, strongly connected components, the reverse-topological
order the strata rely on, and acyclicity against networkx.
"""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.deductive.graph import (
    DiGraph,
    descendants,
    is_directed_acyclic_graph,
    strongly_connected_components,
)

ROOT = Path(__file__).resolve().parents[2]

NODES = st.integers(min_value=0, max_value=11)
GRAPHS = st.tuples(st.lists(NODES, max_size=6),
                   st.lists(st.tuples(NODES, NODES), max_size=30))


def _both(spec):
    nodes, edges = spec
    ours, theirs = DiGraph(), nx.DiGraph()
    for node in nodes:
        ours.add_node(node)
        theirs.add_node(node)
    for source, target in edges:
        ours.add_edge(source, target)
        theirs.add_edge(source, target)
    return ours, theirs


@given(GRAPHS)
def test_descendants_match(spec):
    ours, theirs = _both(spec)
    for node in theirs:
        assert descendants(ours, node) == nx.descendants(theirs, node)


@given(GRAPHS)
def test_components_match_in_reverse_topological_order(spec):
    ours, theirs = _both(spec)
    components = strongly_connected_components(ours)
    assert (sorted(map(sorted, components))
            == sorted(map(sorted, nx.strongly_connected_components(theirs))))
    rank = {node: i for i, component in enumerate(components)
            for node in component}
    for source, target in theirs.edges:
        assert rank[target] <= rank[source]  # dependencies emitted first


@given(GRAPHS)
def test_acyclicity_matches(spec):
    ours, theirs = _both(spec)
    assert is_directed_acyclic_graph(ours) == nx.is_directed_acyclic_graph(theirs)
    assert ours.number_of_edges() == theirs.number_of_edges()
    assert all(ours.has_edge(*edge) for edge in theirs.edges)


@pytest.mark.parametrize("script", [
    "import repro",
    "import runpy; runpy.run_path("
    f"{str(ROOT / 'examples' / 'quickstart.py')!r}, run_name='__main__')",
])
def test_package_runs_without_networkx(script):
    """No runtime dependency: with networkx blocked, the package imports
    and the quickstart example runs."""
    code = f"import sys; sys.modules['networkx'] = None; {script}"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            env={"PYTHONPATH": str(ROOT / "src")},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
