"""Property test: ``witness_order`` against networkx on small multigraphs.

For a random removal dict it returns an order exactly when networkx finds
the arcs left acyclic, every arc left points forward in that order, and
otherwise it raises ``ValueError``.  Every ``run_once`` removal yields an
order.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scimap.mfas import Multigraph, run_once, witness_order  # noqa: E402


@st.composite
def multigraphs_with_removals(draw):
    names = [f"v{i}" for i in range(draw(st.integers(3, 6)))]
    pairs = [(u, v) for u in names for v in names if u != v]
    mg = Multigraph(nodes=set(names))
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        mg.add(u, v, draw(st.integers(1, 3)))
    removed = {}
    for bundle, m in sorted(mg.bundles.items()):
        count = draw(st.integers(0, m))
        if count:
            removed[bundle] = count
    return mg, removed


def residual_arcs(mg, removed):
    return [bundle for bundle, m in mg.bundles.items() if m > removed.get(bundle, 0)]


def assert_is_witness(mg, removed, order):
    assert sorted(order) == sorted(mg.nodes)
    position = {node: i for i, node in enumerate(order)}
    for u, v in residual_arcs(mg, removed):
        assert position[u] < position[v], (u, v)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=multigraphs_with_removals(), seed=st.integers(0, 2**32))
def test_witness_order_exactly_when_residual_is_acyclic(case, seed):
    mg, removed = case
    residual = nx.MultiDiGraph()
    residual.add_nodes_from(mg.nodes)
    residual.add_edges_from(residual_arcs(mg, removed))
    if nx.is_directed_acyclic_graph(residual):
        assert_is_witness(mg, removed, witness_order(mg, removed))
    else:
        with pytest.raises(ValueError, match="still close a cycle"):
            witness_order(mg, removed)
    solution = run_once(mg, seed)
    assert_is_witness(mg, solution.removed, witness_order(mg, solution.removed))
