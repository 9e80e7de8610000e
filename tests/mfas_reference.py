"""Test-only oracle: the MFAS sampler that ``scimap.mfas`` shipped before
its incremental rewrite, kept verbatim except that it returns its own
``ReferenceSolution`` with the witness order built at once, and that it
copies a multigraph and lists its successors with the test helpers
``copy_of`` and ``successors_of``, each call marked by an ``Edit``
comment, since ``Multigraph`` no longer has those methods.

After every single arc removal it reruns a full Tarjan over the working
copy, sorts all on-cycle bundles and scans them linearly to map the
random draw to a bundle.  ``tests/test_mfas_differential.py`` requires
the shipped ``run_once`` to return the same removals, size and witness
order as this function for every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from conftest import copy_of, successors_of
from scimap.digraph import reaches, topological_order
from scimap.mfas import Bundle, Multigraph


@dataclass
class ReferenceSolution:
    removed: dict[Bundle, int]
    size: int
    witness_order: list[str]


def _strongly_connected_components(mg: Multigraph) -> dict[str, int]:
    """Iterative Tarjan; returns node -> component id."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    component: dict[str, int] = {}
    counter = [0]
    comp_counter = [0]
    out = successors_of(mg)  # Edit: was mg.successors()

    for root in sorted(mg.nodes):
        if root in index_of:
            continue
        work = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(child, len(out[node])):
                nxt = out[node][i]
                if nxt not in index_of:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_counter[0]
                    if member == node:
                        break
                comp_counter[0] += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return component


def cycle_bundles(mg: Multigraph) -> list[tuple[Bundle, int]]:
    """Bundles currently lying on at least one directed cycle, sorted.

    An arc (u, v) with u != v sits on a cycle exactly when u and v share
    a strongly connected component.
    """
    component = _strongly_connected_components(mg)
    return sorted(((u, v), m) for (u, v), m in mg.bundles.items()
                  if component[u] == component[v])


def run_once(mg: Multigraph, seed: int, check_support: bool = False,
             ) -> ReferenceSolution:
    """One Monte Carlo run: break uniformly chosen on-cycle arcs until the
    graph is acyclic.  Deterministic given the seed.

    ``check_support`` re-verifies, independently of the sampler, that
    every removed arc lay on a cycle at its removal time.
    """
    rng = random.Random(seed)
    work = copy_of(mg)  # Edit: was mg.copy()
    removed: dict[Bundle, int] = {}
    while True:
        candidates = cycle_bundles(work)
        if not candidates:
            break
        total = sum(m for _, m in candidates)
        pick = rng.randrange(total)
        for bundle, mult in candidates:
            if pick < mult:
                break
            pick -= mult
        if check_support:
            # Edit: was work.successors()
            assert reaches(successors_of(work), bundle[1], bundle[0]), \
                f"sampled off-cycle arc {bundle}"
        removed[bundle] = removed.get(bundle, 0) + 1
        if work.bundles[bundle] == 1:
            del work.bundles[bundle]
        else:
            work.bundles[bundle] -= 1
    order = topological_order(work.nodes, work.bundles)
    assert order is not None
    return ReferenceSolution(removed=dict(sorted(removed.items())),
                             size=sum(removed.values()), witness_order=order)
