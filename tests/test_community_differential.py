"""Walktrap against its heap-based oracle and against networkx.

``walktrap`` must return the same assignment (in the same order), cluster
count and modularity bits as ``walktrap_reference.walktrap`` on seeded
graphs of every shape its merge order has to get right: sparse and
dense, several components and isolated vertices, exact ties from integer
weights (cliques, a ring of cliques, a star), parallel edges and
self-loops, each with walk lengths 1 to 5.  ``community.modularity`` of each returned
partition must also agree with networkx within 1e-12.
"""
from __future__ import annotations

import random
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
