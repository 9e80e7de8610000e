"""Walktrap against its heap-based oracle and against networkx.

``walktrap`` must return the same assignment (in the same order), cluster
count and modularity bits as ``walktrap_reference.walktrap`` on seeded
graphs of every shape its merge order has to get right: sparse and
dense, several components and isolated vertices, exact ties from integer
weights (cliques, a ring of cliques, a star), parallel edges and
self-loops, each with walk lengths 1 to 5.  ``community.modularity`` of
each returned partition, and the modularity walktrap reports for it, must
also agree with networkx within 1e-12.

Walktrap holds at most two n x n arrays at once on every graph; two
tracemalloc tests bound its peak, on a sparse and on a dense graph.
"""
from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest

from scimap.community import modularity, walktrap
from scimap.graphs import Graph, GraphNode
from walktrap_reference import walktrap as reference_walktrap


def build_graph(ids, edges):
    return Graph(nodes=[GraphNode(id=i, label=i) for i in ids],
                 edges=[(u, v, float(w)) for u, v, w in edges])


def names(prefix, count):
    return [f"{prefix}{i:02d}" for i in range(count)]


def clique(ids, weight=1):
    return [(u, v, weight) for u, v in combinations(sorted(ids), 2)]


def random_graph(seed, n, p, integer):
    rng = random.Random(seed)
    ids = names("n", n)
    edges = [(u, v, rng.randrange(1, 4) if integer else rng.uniform(0.1, 5.0))
             for u, v in combinations(ids, 2) if rng.random() < p]
    return build_graph(ids, edges)


def components_and_isolated():
    rng = random.Random(17)
    ids, edges = [], []
    for block, size in enumerate((9, 6, 4)):
        members = names(f"c{block}_", size)
        ids += members
        edges += [(u, v, rng.randrange(1, 3))
                  for u, v in combinations(members, 2) if rng.random() < 0.5]
        edges.append((members[0], members[-1], 1))
    ids += names("iso", 4)
    return build_graph(ids, edges)


def disjoint_cliques():
    blocks = [names(f"k{b}_", size) for b, size in enumerate((7, 5, 4, 3))]
    return build_graph([i for block in blocks for i in block],
                       [e for block in blocks for e in clique(block)])


def ring_of_cliques(count=6, size=4):
    blocks = [names(f"r{b}_", size) for b in range(count)]
    edges = [e for block in blocks for e in clique(block)]
    for b in range(count):
        u, v = blocks[b][-1], blocks[(b + 1) % count][0]
        edges.append((min(u, v), max(u, v), 1))
    return build_graph([i for block in blocks for i in block], edges)


def star(leaves=12):
    ids = ["hub"] + names("leaf", leaves)
    return build_graph(ids, [(min("hub", leaf), max("hub", leaf), 1)
                             for leaf in ids[1:]])


def parallel_edges():
    """Repeated and reversed edges: entry weights sum in edge order."""
    rng = random.Random(23)
    ids = names("p", 14)
    edges = []
    for u, v in combinations(ids, 2):
        if rng.random() < 0.3:
            for _ in range(rng.randrange(1, 4)):
                w = rng.uniform(0.1, 1.0)
                edges.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    return build_graph(ids, edges)


def self_loops():
    """Self-loops add to degrees but never join two communities."""
    graph = random_graph(5, 20, 0.2, integer=True)
    rng = random.Random(29)
    return graph._replace(edges=graph.edges + [
        (u, u, float(rng.randrange(1, 4)))
        for u in graph.node_ids() if rng.random() < 0.3])


def sparse_mix(seed, n, isolated=5):
    """Several components, each a random tree plus a few chords, with
    float weights; some edges repeat, reversed, with a new weight; some
    vertices carry self-loops, and ``isolated`` have no edge."""
    rng = random.Random(seed)
    ids = names("s", n)
    order = ids[:n - isolated]
    rng.shuffle(order)
    edges = []
    cuts = sorted(rng.sample(range(2, len(order) - 1), 3))
    for members in (order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)])):
        edges += [(members[i], rng.choice(members[:i]), rng.uniform(0.1, 5.0))
                  for i in range(1, len(members))]
        edges += [(*rng.sample(members, 2), rng.uniform(0.1, 5.0))
                  for _ in range(len(members) // 4)]
    edges += [(v, u, rng.uniform(0.1, 1.0)) for u, v, _ in rng.sample(edges, n // 5)]
    edges += [(u, u, rng.uniform(0.1, 2.0)) for u in rng.sample(order, n // 10)]
    return build_graph(ids, edges)


GRAPHS = {
    "sparse-int": lambda: random_graph(1, 60, 0.06, integer=True),
    "sparse-float": lambda: random_graph(2, 60, 0.06, integer=False),
    "dense-int": lambda: random_graph(3, 40, 0.5, integer=True),
    "dense-float": lambda: random_graph(4, 40, 0.5, integer=False),
    "components-isolated": components_and_isolated,
    "edgeless": lambda: build_graph(names("e", 5), []),
    "cliques": disjoint_cliques,
    "ring-of-cliques": ring_of_cliques,
    "star": star,
    "parallel-edges": parallel_edges,
    "self-loops": self_loops,
    "sparse-mix-200": lambda: sparse_mix(31, 200),
    "sparse-mix-320": lambda: sparse_mix(37, 320, isolated=12),
    "ring-of-60-cliques": lambda: ring_of_cliques(count=60),
    "star-250": lambda: star(leaves=250),
}
CASES = [(name, length) for name in GRAPHS for length in range(1, 6)]


@pytest.mark.parametrize("name, walk_length", CASES)
def test_walktrap_matches_reference(name, walk_length):
    graph = GRAPHS[name]()
    got = walktrap(graph, walk_length)
    want = reference_walktrap(graph, walk_length)
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.n_clusters == want.n_clusters
    assert repr(got.modularity) == repr(want.modularity)


def walktrap_peak(graph):
    """Peak traced bytes of one walktrap call."""
    tracemalloc.start()
    try:
        walktrap(graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_walktrap_peaks_below_2_3_matrices():
    # 640 vertices in four components, about 1.5 edges per vertex.
    assert walktrap_peak(sparse_mix(41, 640)) < 2.3 * 8 * 640 ** 2


def test_dense_walktrap_peaks_below_3_9_matrices():
    # 400 vertices, about 24,000 adjacent pairs: the walk power and the
    # Ward costs are freed before the replay builds its weight matrix.
    assert walktrap_peak(random_graph(43, 400, 0.3, integer=False)) < 3.9 * 8 * 400 ** 2


@pytest.mark.parametrize("name, walk_length", CASES)
def test_modularity_matches_networkx(name, walk_length):
    nx = pytest.importorskip("networkx")
    graph = GRAPHS[name]()
    if not graph.edges:
        pytest.skip("networkx modularity is undefined without edges")
    result = walktrap(graph, walk_length)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.node_ids())
    for u, v, w in graph.edges:
        old = nx_graph.get_edge_data(u, v, {"weight": 0.0})["weight"]
        nx_graph.add_edge(u, v, weight=old + w)
    blocks: dict[int, set[str]] = {}
    for node, cluster in result.assignment.items():
        blocks.setdefault(cluster, set()).add(node)
    expected = nx.community.modularity(nx_graph, blocks.values(), weight="weight")
    assert abs(modularity(graph, result.assignment) - expected) <= 1e-12
    # The reported value counts self-loops as internal weight too.
    assert abs(result.modularity - expected) <= 1e-12
