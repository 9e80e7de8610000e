from __future__ import annotations

import random

import pytest

from scimap.digraph import reaches, strongly_connected_components, topological_order


def sorted_list_kahn(nodes, arcs):
    """Reference: Kahn's algorithm re-sorting a ready list after each step."""
    indegree = {node: 0 for node in nodes}
    out = {node: [] for node in nodes}
    for u, v in arcs:
        out[u].append(v)
        indegree[v] += 1
    ready = sorted(node for node, degree in indegree.items() if degree == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in out[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    return order if len(order) == len(indegree) else None


def test_smallest_ready_node_goes_first():
    assert topological_order(["c", "a", "b"], [("c", "a")]) == ["b", "c", "a"]


def test_cycle_gives_none():
    assert topological_order("abc", [("a", "b"), ("b", "c"), ("c", "a")]) is None


def test_parallel_arcs_and_empty_graph():
    assert topological_order("ab", [("a", "b"), ("a", "b")]) == ["a", "b"]
    assert topological_order([], []) == []


def test_matches_sorted_list_kahn_on_random_digraphs():
    rng = random.Random(5)
    cyclic = 0
    for _ in range(300):
        nodes = [f"n{i}" for i in rng.sample(range(40), rng.randrange(1, 12))]
        arcs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randrange(0, 15))
                if len(nodes) > 1]
        if rng.random() < 0.5:  # orient by name: acyclic
            arcs = [(min(arc), max(arc)) for arc in arcs]
        expected = sorted_list_kahn(nodes, arcs)
        cyclic += expected is None
        shuffled = list(arcs)
        rng.shuffle(shuffled)
        assert topological_order(set(nodes), shuffled) == expected
    assert 0 < cyclic < 300


def test_reaches_follows_arc_direction():
    adjacency = {"a": {"b"}, "b": {"c"}, "c": set(), "d": {"a"}}
    assert reaches(adjacency, "d", "c")
    assert not reaches(adjacency, "c", "a")
    assert reaches(adjacency, "c", "c")


def test_reaches_terminates_on_cycles():
    adjacency = {"a": ["b"], "b": ["a"], "c": []}
    assert not reaches(adjacency, "a", "c")


def test_reaches_within_stays_inside_the_node_set():
    adjacency = {"a": ["b", "x"], "b": ["c"], "c": [], "x": ["c"]}
    assert reaches(adjacency, "a", "c", within={"a", "b", "c"})
    assert not reaches(adjacency, "a", "c", within={"a", "x", "b"})
    assert not reaches(adjacency, "a", "a", within={"b"})


def test_reaches_within_matches_networkx_on_random_digraphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(300):
        nodes = [f"n{i}" for i in range(rng.randrange(1, 20))]
        arcs = {tuple(rng.sample(nodes, 2)) for _ in range(rng.randrange(0, 40))
                if len(nodes) > 1}
        adjacency = {node: [] for node in nodes}
        for u, v in sorted(arcs):
            adjacency[u].append(v)
        whole = nx.DiGraph()
        whole.add_nodes_from(nodes)
        whole.add_edges_from(arcs)
        within = set(rng.sample(nodes, rng.randrange(1, len(nodes) + 1)))
        start, goal = rng.choice(sorted(within)), rng.choice(nodes)
        expected = goal in within and nx.has_path(whole.subgraph(within), start, goal)
        assert reaches(adjacency, start, goal, within=within) == expected
        assert reaches(adjacency, start, goal) == nx.has_path(whole, start, goal)


def partition(components):
    return sorted(sorted(component) for component in components)


def test_scc_ignores_arcs_leaving_the_node_set():
    successors = {"a": ["b"], "b": ["a", "c"], "c": ["a"]}
    assert partition(strongly_connected_components("abc", successors)) == [["a", "b", "c"]]
    assert partition(strongly_connected_components("ab", successors)) == [["a", "b"]]
    assert partition(strongly_connected_components("bc", successors)) == [["b"], ["c"]]


def test_scc_components_come_in_reverse_topological_order():
    successors = {"a": ["b"], "b": ["c"], "c": ["b"], "d": ["a"]}
    assert strongly_connected_components("abcd", successors) == [["c", "b"], ["a"], ["d"]]


def test_scc_matches_networkx_on_random_digraphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(300):
        nodes = [f"n{i}" for i in range(rng.randrange(1, 25))]
        arcs = {tuple(rng.sample(nodes, 2)) for _ in range(rng.randrange(0, 40))
                if len(nodes) > 1}
        for u, v in list(arcs):  # 2-cycles
            if rng.random() < 0.2:
                arcs.add((v, u))
        successors = {node: [] for node in nodes}
        for u, v in sorted(arcs):
            successors[u].append(v)
        reference = nx.DiGraph()
        reference.add_nodes_from(nodes)  # keeps isolated nodes
        reference.add_edges_from(arcs)
        rng.shuffle(nodes)
        assert partition(strongly_connected_components(nodes, successors)) == \
            partition(nx.strongly_connected_components(reference))
