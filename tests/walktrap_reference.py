"""Test-only oracle: the heap-based walktrap that ``scimap.community``
shipped before its slot-array rewrite, kept verbatim but for one fix: a
self-loop counts as internal weight from the start, as in
``scimap.community.modularity`` and networkx.

It pops one heap entry per live adjacent pair, calls ``merge_cost`` once
per pair, and recomputes the partition and its modularity after every
improving merge.  ``tests/test_community_differential.py`` requires the
shipped walktrap to return the same assignment, cluster count and
modularity bits as this function.
"""
from __future__ import annotations

import heapq

import numpy as np

from scimap.community import Clustering
from scimap.graphs import Graph


def walktrap(graph: Graph, walk_length: int = 4) -> Clustering:
    """Cluster an undirected weighted graph by short random-walk distance.

    Vertices whose ``walk_length``-step walk distributions look alike are
    likely to share a community; merging greedily on that distance and
    cutting the merge sequence at maximum modularity follows the method's
    standard form.  Ties in merge priority break deterministically on
    community creation order.
    """
    ids = sorted(graph.node_ids())
    n = len(ids)
    if n == 0:
        return Clustering(assignment={}, modularity=0.0, n_clusters=0)
    if n == 1:
        return Clustering(assignment={ids[0]: 0}, modularity=0.0, n_clusters=1)
    index = {nid: i for i, nid in enumerate(ids)}

    weights = np.zeros((n, n), dtype=float)
    for u, v, w in graph.edges:
        weights[index[u], index[v]] += w
        weights[index[v], index[u]] += w
    degree = weights.sum(axis=1)
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)

    transition = weights * inv_degree[:, None]
    for i in range(n):
        if degree[i] == 0.0:  # isolated vertex: walk stays put
            transition[i, i] = 1.0
    walks = np.linalg.matrix_power(transition, walk_length)

    # Community state, keyed by creation-ordered integer ids.
    size = {i: 1 for i in range(n)}
    dist = {i: walks[i].copy() for i in range(n)}
    neighbor_weight: dict[int, dict[int, float]] = {i: {} for i in range(n)}
    internal = {i: 0.0 for i in range(n)}
    comm_degree = {i: float(degree[i]) for i in range(n)}
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for u, v, w in graph.edges:
        a, b = index[u], index[v]
        neighbor_weight[a][b] = neighbor_weight[a].get(b, 0.0) + w
        neighbor_weight[b][a] = neighbor_weight[b].get(a, 0.0) + w
        if a == b:  # a self-loop is internal weight from the start
            internal[a] += w

    m = float(degree.sum()) / 2.0

    def merge_cost(a: int, b: int) -> float:
        gap = dist[a] - dist[b]
        r2 = float(np.dot(gap * gap, inv_degree))
        return (size[a] * size[b]) / (size[a] + size[b]) * r2 / n

    current: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int, int]] = []
    for a in range(n):
        for b in neighbor_weight[a]:
            if a < b:
                cost = merge_cost(a, b)
                current[(a, b)] = cost
                heapq.heappush(heap, (cost, a, b))

    def partition_q() -> float:
        if m == 0:
            return 0.0
        total = 0.0
        for comm in sorted(size):
            total += internal[comm] / m - (comm_degree[comm] / (2.0 * m)) ** 2
        return total

    def snapshot() -> dict[str, int]:
        label = {}
        for order, comm in enumerate(sorted(size)):
            for vertex in members[comm]:
                label[ids[vertex]] = order
        return label

    best_q = partition_q()
    best_assignment = snapshot()
    next_id = n

    while heap:
        cost, a, b = heapq.heappop(heap)
        key = (a, b) if a < b else (b, a)
        if current.get(key) != cost or a not in size or b not in size:
            continue  # stale entry
        del current[key]

        merged = next_id
        next_id += 1
        size[merged] = size[a] + size[b]
        dist[merged] = (size[a] * dist[a] + size[b] * dist[b]) / size[merged]
        members[merged] = members.pop(a) + members.pop(b)
        internal[merged] = internal.pop(a) + internal.pop(b) \
            + neighbor_weight[a].get(b, 0.0)
        comm_degree[merged] = comm_degree.pop(a) + comm_degree.pop(b)

        fresh: dict[int, float] = {}
        for old in (a, b):
            for other, w in neighbor_weight.pop(old).items():
                if other in (a, b):
                    continue
                fresh[other] = fresh.get(other, 0.0) + w
                neighbor_weight[other].pop(old, None)
                current.pop((min(old, other), max(old, other)), None)
        neighbor_weight[merged] = fresh
        for other, w in fresh.items():
            neighbor_weight[other][merged] = w
        del size[a], size[b], dist[a], dist[b]

        for other in sorted(fresh):
            cost = merge_cost(merged, other)
            key = (min(merged, other), max(merged, other))
            current[key] = cost
            heapq.heappush(heap, (cost, key[0], key[1]))

        q = partition_q()
        if q > best_q:
            best_q = q
            best_assignment = snapshot()

    return Clustering(assignment=best_assignment, modularity=best_q,
                      n_clusters=len(set(best_assignment.values())))
