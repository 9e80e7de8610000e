"""Node centralities: PageRank and shortest-path betweenness.

Betweenness deliberately ignores edge weights: collaboration counts are
tie strengths, not distances, so paths are hop-count shortest paths.
This choice is echoed in the output metadata of the CLI.
"""
from __future__ import annotations

from collections import deque

from .graphs import Graph


class PageRankDivergence(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(f"PageRank did not converge within {iterations} "
                         f"iterations (residual {residual:.3e})")
        self.residual = residual
        self.iterations = iterations


def pagerank(graph: Graph, damping: float = 0.85, tolerance: float = 1e-9,
             max_iter: int = 200) -> dict[str, float]:
    """Power iteration with uniform teleport and uniform dangling spread.

    Undirected graphs are treated as bidirectional; transition weight is
    proportional to edge weight.  Scores sum to one within tolerance.
    Non-convergence raises, carrying the final residual.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"PageRank damping must lie in [0, 1], got {damping!r}")
    ids = sorted(graph.node_ids())
    if not ids:
        raise ValueError("PageRank needs a non-empty graph")
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)

    out_weight = [0.0] * n
    incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    arcs = []
    for u, v, w in graph.edges:
        arcs.append((index[u], index[v], w))
        if not graph.directed:
            arcs.append((index[v], index[u], w))
    for u, v, w in arcs:
        out_weight[u] += w
        incoming[v].append((u, w))

    scores = [1.0 / n] * n
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        dangling = sum(scores[i] for i in range(n) if out_weight[i] == 0.0)
        base = teleport + damping * dangling / n
        fresh = [base] * n
        for v in range(n):
            total = 0.0
            for u, w in incoming[v]:
                total += scores[u] * (w / out_weight[u])
            fresh[v] += damping * total
        residual = sum(abs(fresh[i] - scores[i]) for i in range(n))
        scores = fresh
        if residual <= tolerance:
            return {nid: scores[index[nid]] for nid in ids}
    raise PageRankDivergence(residual, max_iter)


def betweenness(graph: Graph) -> dict[str, float]:
    """Exact unweighted shortest-path betweenness (Brandes accumulation).

    Undirected pair counting: the path A-B-C gives B a score of 1.
    """
    ids = sorted(graph.node_ids())
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in graph.edges:
        neighbors[index[u]].append(index[v])
        if not graph.directed:
            neighbors[index[v]].append(index[u])
    for adjacency in neighbors:
        adjacency.sort()

    centrality = [0.0] * n
    for source in range(n):
        # single-source shortest paths and path counts
        order: list[int] = []
        predecessors: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[source] = 1.0
        distance = [-1] * n
        distance[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in neighbors[node]:
                if distance[nxt] < 0:
                    distance[nxt] = distance[node] + 1
                    queue.append(nxt)
                if distance[nxt] == distance[node] + 1:
                    sigma[nxt] += sigma[node]
                    predecessors[nxt].append(node)
        # dependency accumulation
        delta = [0.0] * n
        for node in reversed(order):
            for pred in predecessors[node]:
                delta[pred] += sigma[pred] / sigma[node] * (1.0 + delta[node])
            if node != source:
                centrality[node] += delta[node]

    if not graph.directed:
        centrality = [c / 2.0 for c in centrality]
    return {nid: centrality[index[nid]] for nid in ids}
