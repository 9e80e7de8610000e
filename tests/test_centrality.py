from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from scimap.centrality import PageRankDivergence, betweenness, pagerank
from scimap.graphs import Graph, GraphNode


def build_graph(n, edges, directed=False):
    return Graph(nodes=[GraphNode(id=f"n{i}", label=f"n{i}") for i in range(n)],
                 edges=[(f"n{u}", f"n{v}", float(w)) for u, v, w in edges],
                 directed=directed)


def random_graph(rng, max_nodes, directed, weighted=False):
    n = rng.randrange(2, max_nodes + 1)
    edges = []
    seen = set()
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if not directed and u > v:
                continue
            if rng.random() < 0.45:
                weight = rng.randrange(1, 6) if weighted else 1
                if (u, v) not in seen:
                    edges.append((u, v, weight))
                    seen.add((u, v))
    if not edges:
        edges = [(0, 1, 1)]
    return build_graph(n, edges, directed=directed)


# Independent oracle: dense transition matrix and long power iteration.
def pagerank_oracle(graph, damping=0.85):
    ids = sorted(graph.node_ids())
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    weight = np.zeros((n, n))
    for u, v, w in graph.edges:
        weight[index[u], index[v]] += w
        if not graph.directed:
            weight[index[v], index[u]] += w
    out = weight.sum(axis=1)
    transition = np.zeros((n, n))
    dangling = out == 0
    transition[~dangling] = weight[~dangling] / out[~dangling, None]
    scores = np.full(n, 1.0 / n)
    for _ in range(10000):
        nxt = (1 - damping) / n \
            + damping * (transition.T @ scores + scores[dangling].sum() / n)
        if np.abs(nxt - scores).sum() < 1e-15:
            scores = nxt
            break
        scores = nxt
    return {nid: float(scores[index[nid]]) for nid in ids}


def test_pagerank_directed_three_cycle():
    graph = build_graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], directed=True)
    scores = pagerank(graph)
    for value in scores.values():
        assert abs(value - 1 / 3) < 1e-9


def test_pagerank_star_center_dominates():
    graph = build_graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    scores = pagerank(graph)
    assert all(scores["n0"] > scores[f"n{i}"] for i in (1, 2, 3))


def test_pagerank_matches_dense_oracle_on_random_graphs():
    rng = random.Random(101)
    for trial in range(50):
        graph = random_graph(rng, 8, directed=bool(trial % 2), weighted=True)
        mine = pagerank(graph, tolerance=1e-13, max_iter=5000)
        reference = pagerank_oracle(graph)
        assert sum(mine.values()) == pytest.approx(1.0, abs=1e-9)
        for nid in mine:
            assert abs(mine[nid] - reference[nid]) < 1e-8


def test_pagerank_scores_invariant_under_weight_scaling():
    rng = random.Random(103)
    for _ in range(10):
        graph = random_graph(rng, 7, directed=False, weighted=True)
        scaled = Graph(nodes=graph.nodes,
                       edges=[(u, v, w * 17.0) for u, v, w in graph.edges],
                       directed=graph.directed)
        a = pagerank(graph)
        b = pagerank(scaled)
        for nid in a:
            assert abs(a[nid] - b[nid]) < 1e-9


def test_pagerank_nonconvergence_carries_residual():
    graph = build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)],
                        directed=True)
    with pytest.raises(PageRankDivergence) as err:
        pagerank(graph, tolerance=1e-30, max_iter=3)
    assert err.value.residual > 0


def test_pagerank_empty_graph_rejected():
    with pytest.raises(ValueError):
        pagerank(Graph([], []))


# Betweenness -----------------------------------------------------------------

# Independent oracle: enumerate every shortest path explicitly and count
# interior-node traversals with exact rational arithmetic.
def betweenness_oracle(graph):
    ids = sorted(graph.node_ids())
    neighbors = {nid: set() for nid in ids}
    for u, v, _ in graph.edges:
        neighbors[u].add(v)
        if not graph.directed:
            neighbors[v].add(u)

    def all_shortest_paths(source, target):
        # BFS distances from source, then DFS over distance-decreasing arcs.
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for node in frontier:
                for other in neighbors[node]:
                    if other not in dist:
                        dist[other] = dist[node] + 1
                        nxt.append(other)
            frontier = nxt
        if target not in dist:
            return []
        paths = []

        def extend(path):
            node = path[-1]
            if node == target:
                paths.append(list(path))
                return
            for other in sorted(neighbors[node]):
                if dist.get(other) == dist[node] + 1 and dist[other] <= dist[target]:
                    extend(path + [other])

        extend([source])
        return paths

    score = {nid: Fraction(0) for nid in ids}
    pairs = [(s, t) for s in ids for t in ids if s != t]
    if not graph.directed:
        pairs = [(s, t) for s, t in pairs if s < t]
    for s, t in pairs:
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        through = {}
        for path in paths:
            for node in path[1:-1]:
                through[node] = through.get(node, 0) + 1
        for node, count in through.items():
            score[node] += Fraction(count, len(paths))
    return score


def test_betweenness_path():
    graph = build_graph(3, [(0, 1, 1), (1, 2, 1)])
    scores = betweenness(graph)
    assert scores == {"n0": 0.0, "n1": 1.0, "n2": 0.0}


def test_betweenness_star_closed_form():
    for leaves in (3, 5, 8):
        graph = build_graph(leaves + 1, [(0, i, 1) for i in range(1, leaves + 1)])
        scores = betweenness(graph)
        assert scores["n0"] == leaves * (leaves - 1) / 2
        assert all(scores[f"n{i}"] == 0.0 for i in range(1, leaves + 1))


def test_betweenness_leaves_score_zero():
    graph = build_graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1)])
    scores = betweenness(graph)
    degree = {nid: 0 for nid in graph.node_ids()}
    for u, v, _ in graph.edges:
        degree[u] += 1
        degree[v] += 1
    for nid, deg in degree.items():
        if deg == 1:
            assert scores[nid] == 0.0


def test_betweenness_path_graph_total_closed_form():
    n = 7
    graph = build_graph(n, [(i, i + 1, 1) for i in range(n - 1)])
    scores = betweenness(graph)
    assert sum(scores.values()) == sum(k * (n - 1 - k) for k in range(n))


def test_betweenness_matches_enumeration_oracle_exactly():
    rng = random.Random(107)
    for trial in range(50):
        graph = random_graph(rng, 7, directed=False)
        mine = betweenness(graph)
        reference = betweenness_oracle(graph)
        for nid, value in mine.items():
            assert Fraction(value).limit_denominator(10**6) == reference[nid]


def test_betweenness_directed_matches_oracle():
    rng = random.Random(109)
    for _ in range(25):
        graph = random_graph(rng, 6, directed=True)
        mine = betweenness(graph)
        reference = betweenness_oracle(graph)
        for nid, value in mine.items():
            assert Fraction(value).limit_denominator(10**6) == reference[nid]


def test_betweenness_ignores_edge_weights():
    light = build_graph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)])
    heavy = build_graph(4, [(0, 1, 9), (1, 3, 9), (0, 2, 1), (2, 3, 1)])
    assert betweenness(light) == betweenness(heavy)


# networkx differential -----------------------------------------------------------

def networkx_pairs(seed, count=40):
    """Seeded weighted graphs, directed and undirected, dense to sparse
    (isolated and dangling nodes included), each with its networkx twin."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for trial in range(count):
        directed = bool(trial % 2)
        n = rng.randrange(2, 31)
        p = rng.choice((0.05, 0.15, 0.45))
        edges = [(u, v, rng.randrange(1, 6) * rng.choice((1.0, 0.37)))
                 for u in range(n) for v in range(n)
                 if u != v and (directed or u < v) and rng.random() < p]
        graph = build_graph(n, edges or [(0, 1, 1)], directed=directed)
        twin = nx.DiGraph() if directed else nx.Graph()
        twin.add_nodes_from(graph.node_ids())
        twin.add_weighted_edges_from(graph.edges)
        yield nx, graph, twin


def assert_relative(mine, theirs, rel):
    assert sorted(mine) == sorted(theirs)
    for nid, value in theirs.items():
        assert mine[nid] == pytest.approx(value, rel=rel, abs=0.0), nid


def test_pagerank_matches_networkx():
    for nx, graph, twin in networkx_pairs(113):
        mine = pagerank(graph, tolerance=1e-14, max_iter=1000)
        theirs = nx.pagerank(twin, alpha=0.85, tol=1e-15, max_iter=1000,
                             weight="weight")
        assert_relative(mine, theirs, 1e-12)


def test_betweenness_matches_networkx():
    for nx, graph, twin in networkx_pairs(127):
        theirs = nx.betweenness_centrality(twin, normalized=False, weight=None)
        assert_relative(betweenness(graph), theirs, 1e-12)
