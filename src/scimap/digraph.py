"""Directed-graph helpers shared by the historiograph and the MFAS solver.

A leaf module: it imports nothing from the package, so every layer can
use it.
"""
from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Mapping, Optional


def topological_order(nodes: Iterable[Hashable],
                      arcs: Iterable[tuple[Hashable, Hashable]],
                      ) -> Optional[list]:
    """Kahn's algorithm; None when the arcs close a cycle.

    The smallest ready node always goes next, so the order is unique and
    independent of the iteration order of ``nodes`` and ``arcs``.
    """
    indegree = {node: 0 for node in nodes}
    out: dict = {node: [] for node in indegree}
    for u, v in arcs:
        out[u].append(v)
        indegree[v] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in out[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order if len(order) == len(indegree) else None


def reaches(adjacency: Mapping[Hashable, Iterable[Hashable]],
            start: Hashable, goal: Hashable) -> bool:
    """Whether a directed path leads from ``start`` to ``goal`` (DFS)."""
    stack, seen = [start], set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency[node])
    return False
