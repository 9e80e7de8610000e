"""Property test: walktrap equals its heap-based oracle on small random
graphs with tie-prone integer weights and any walk length from 1 to 5."""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scimap.community import walktrap  # noqa: E402
from scimap.graphs import Graph, GraphNode  # noqa: E402
from walktrap_reference import walktrap as reference_walktrap  # noqa: E402


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 12))
    ids = [f"v{i:02d}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(chosen),
                            max_size=len(chosen)))
    return Graph(nodes=[GraphNode(id=i, label=i) for i in ids],
                 edges=[(u, v, float(w)) for (u, v), w in zip(chosen, weights)])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graph=small_graphs(), walk_length=st.integers(1, 5))
def test_walktrap_equals_reference(graph, walk_length):
    got = walktrap(graph, walk_length)
    want = reference_walktrap(graph, walk_length)
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.n_clusters == want.n_clusters
    assert repr(got.modularity) == repr(want.modularity)
