"""Directed-graph helpers shared by the historiograph and the MFAS solver.

A leaf module: it imports nothing from the package, so every layer can
use it.
"""
from __future__ import annotations

import heapq
from typing import Container, Hashable, Iterable, Mapping, Optional, Sequence


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
            start: Hashable, goal: Hashable,
            within: Optional[Container[Hashable]] = None) -> bool:
    """Whether a directed path leads from ``start`` to ``goal`` (DFS).

    With ``within``, only paths whose every node lies in ``within`` count,
    and the search never leaves it.
    """
    stack, seen = [start], set()
    while stack:
        node = stack.pop()
        if node in seen or within is not None and node not in within:
            continue
        if node == goal:
            return True
        seen.add(node)
        stack.extend(adjacency[node])
    return False


def strongly_connected_components(
        nodes: Sequence[Hashable],
        successors: Mapping[Hashable, Iterable[Hashable]]) -> list[list]:
    """Iterative Tarjan over the subgraph induced by ``nodes``.

    Arcs to nodes outside ``nodes`` are ignored, so one component can be
    split again on its own after an arc inside it is removed.  Components
    come out in reverse topological order; both that order and the order
    within each component follow the iteration order of ``nodes`` and of
    each successor collection.
    """
    inside = set(nodes)
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    components = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in inside:
                    continue
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors[child])))
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components
