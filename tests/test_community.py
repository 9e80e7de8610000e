from __future__ import annotations

import random
from itertools import combinations

import pytest

from scimap.community import Clustering, modularity, walktrap
from scimap.graphs import Graph, GraphNode


def build_graph(ids, edges):
    return Graph(nodes=[GraphNode(id=i, label=i) for i in ids],
                 edges=[(u, v, float(w)) for u, v, w in edges])


def clique_edges(ids):
    return [(min(u, v), max(u, v), 1) for u, v in combinations(ids, 2)]


def bridged_cliques():
    left = [f"a{i}" for i in range(4)]
    right = [f"b{i}" for i in range(4)]
    edges = clique_edges(left) + clique_edges(right) + [("a0", "b0", 1)]
    return build_graph(left + right, edges), left, right


def all_partitions(items):
    """Every set partition of ``items`` (exhaustive oracle helper)."""
    if not items:
        yield []
        return
    head, *rest = items
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1:]
        yield partition + [[head]]


def test_two_bridged_cliques_split_exactly():
    graph, left, right = bridged_cliques()
    result = walktrap(graph)
    assert result.n_clusters == 2
    clusters = {}
    for node, cluster in result.assignment.items():
        clusters.setdefault(cluster, set()).add(node)
    assert sorted(clusters.values(), key=sorted) == [set(left), set(right)]


def test_bridged_cliques_modularity_is_global_maximum():
    # Exhaustive partition search over the 8 nodes (4140 partitions)
    # certifies that the returned split attains the maximum modularity.
    graph, _, _ = bridged_cliques()
    ids = graph.node_ids()
    best = max(
        modularity(graph, {nid: k for k, block in enumerate(partition)
                           for nid in block})
        for partition in all_partitions(ids))
    result = walktrap(graph)
    assert abs(result.modularity - best) < 1e-12


def test_reported_modularity_matches_independent_recomputation():
    graph, _, _ = bridged_cliques()
    result = walktrap(graph)
    assert abs(result.modularity - modularity(graph, result.assignment)) < 1e-12


def test_single_clique_one_community():
    ids = [f"v{i}" for i in range(5)]
    result = walktrap(build_graph(ids, clique_edges(ids)))
    assert result.n_clusters == 1


def test_disconnected_triangles_two_communities():
    edges = clique_edges(["a0", "a1", "a2"]) + clique_edges(["b0", "b1", "b2"])
    result = walktrap(build_graph([f"a{i}" for i in range(3)]
                                  + [f"b{i}" for i in range(3)], edges))
    assert result.n_clusters == 2
    assert result.assignment["a0"] == result.assignment["a1"] == result.assignment["a2"]
    assert result.assignment["b0"] == result.assignment["b1"] == result.assignment["b2"]
    assert result.assignment["a0"] != result.assignment["b0"]


@pytest.mark.parametrize("walk_length", [0, -1])
def test_walk_length_below_one_rejected(walk_length):
    graph, _, _ = bridged_cliques()
    with pytest.raises(ValueError, match="walk length must be at least 1"):
        walktrap(graph, walk_length=walk_length)
    with pytest.raises(ValueError, match="walk length must be at least 1"):
        walktrap(Graph([], []), walk_length=walk_length)


def test_directed_graph_rejected():
    # Two directed 3-cycles joined by one arc: treated as undirected, it
    # would cluster into two communities.
    graph = Graph(nodes=[GraphNode(id=i, label=i) for i in "abcdef"],
                  edges=[("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0),
                         ("d", "e", 1.0), ("e", "f", 1.0), ("f", "d", 1.0),
                         ("c", "d", 1.0)],
                  directed=True)
    with pytest.raises(ValueError, match="undirected"):
        walktrap(graph)


def test_tiny_graphs():
    assert walktrap(Graph([], [])) == Clustering(assignment={}, modularity=0.0,
                                           n_clusters=0)
    single = walktrap(build_graph(["x"], []))
    assert single.assignment == {"x": 0}
    assert single.n_clusters == 1


def test_partition_is_total_on_random_graphs():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randrange(2, 12)
        ids = [f"n{i}" for i in range(n)]
        edges = [(f"n{u}", f"n{v}", rng.randrange(1, 4))
                 for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        graph = build_graph(ids, edges)
        result = walktrap(graph)
        assert set(result.assignment) == set(ids)
        assert result.n_clusters == len(set(result.assignment.values()))
        assert abs(result.modularity - modularity(graph, result.assignment)) < 1e-12


def test_deterministic_given_graph():
    graph, _, _ = bridged_cliques()
    first = walktrap(graph)
    second = walktrap(graph)
    assert first == second


def test_weighted_triangles_split_on_light_bridge():
    left = ["a0", "a1", "a2"]
    right = ["b0", "b1", "b2"]
    edges = [(u, v, 5) for u, v, _ in clique_edges(left)]
    edges += [(u, v, 5) for u, v, _ in clique_edges(right)]
    edges.append(("a0", "b0", 1))
    result = walktrap(build_graph(left + right, edges))
    assert result.n_clusters == 2
    assert len({result.assignment[n] for n in left}) == 1
    assert len({result.assignment[n] for n in right}) == 1
    assert result.assignment["a0"] != result.assignment["b0"]


def test_planted_partition_recovered():
    # three dense 10-node blocks with sparse cross links: the walk-based
    # clustering recovers the planted communities
    rng = random.Random(2024)
    blocks = [[f"b{k}n{i}" for i in range(10)] for k in range(3)]
    ids = [nid for block in blocks for nid in block]
    edges = set()
    for block in blocks:
        for u, v in combinations(block, 2):
            if rng.random() < 0.8:
                edges.add((min(u, v), max(u, v)))
    for first, second in combinations(range(3), 2):
        for _ in range(3):
            u = rng.choice(blocks[first])
            v = rng.choice(blocks[second])
            edges.add((min(u, v), max(u, v)))
    graph = build_graph(ids, [(u, v, 1) for u, v in sorted(edges)])
    result = walktrap(graph)
    assert result.n_clusters == 3
    for block in blocks:
        assert len({result.assignment[n] for n in block}) == 1
    assert abs(result.modularity - modularity(graph, result.assignment)) < 1e-12
