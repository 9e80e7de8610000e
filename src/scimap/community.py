"""Random-walk community detection (walktrap) and modularity.

The method is deterministic given the graph: no sampling happens.  Short
random-walk distributions are computed exactly as powers of the
transition matrix; communities are merged agglomeratively by Ward-style
distance, merging adjacent communities only, and the merge stage with
the highest modularity is returned.  Connected components never mix, so
they are effectively handled independently.

Merge loop, then replay.  The merge order depends only on the walk
rows, community sizes and degrees, never on edge weights, so walktrap
runs in two passes.  The merge loop keeps community state in fixed
arrays of n slots, one per vertex at the start.  Slot i's row of the
walk matrix holds the walk distribution of the community in that slot;
a merge writes the size-weighted mean of the two rows into the slot of
the older community and retires the other slot.  Per slot the loop also
keeps the creation id, the size, the Ward cost to each adjacent slot
and the slot's cheapest partner, and it records each merge as its two
slots.  A merge computes the costs from the new community to all its
neighbours in one batched ``np.vecdot``, which runs the same BLAS dot
per row that ``np.dot`` runs on a single pair, so every cost keeps its
bits.

Once the loop ends, the walk power and the Ward costs are freed, and the
replay runs the merge list over an n x n edge-weight matrix: each pair's
edges summed in edge order from 0.0, then at each merge "older slot +
newer slot", kept symmetric.  A community's internal weight starts at
its vertex's self-loop weights and gains the weight between the two
communities at each merge.  Modularity after each merge is summed over
the live communities in creation order, as a running Python-float sum
would, and the best cut is kept as a merge count: the partition is built
once, at the end, by replaying the merge list up to it.  So walktrap
holds at most two n x n arrays at once on every graph: the walk power
and the Ward costs in the loop, the weight matrix alone in the replay.

Merge order.  A pair's cost depends only on its two communities, so the
next merge is the live adjacent pair that minimises (cost, older
creation id, newer creation id).  Each slot keeps the partner that
minimises (cost, partner creation id); the minimum of those per-slot
entries under the pair key is that same pair.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

# Entries per block of rows in a batched cost or minimum evaluation: its
# temporaries stay at 128 KiB however large n is.
_BLOCK_ITEMS = 1 << 14


class Clustering(NamedTuple):
    assignment: dict[str, int]
    modularity: float
    n_clusters: int


def modularity(graph: Graph, assignment: dict[str, int]) -> float:
    """Newman weighted modularity of a node partition.

    Q = sum over clusters of (internal weight / m - (degree sum / 2m)^2),
    with m the total edge weight of the undirected graph.
    """
    m = sum(w for _, _, w in graph.edges)
    if m == 0:
        return 0.0
    internal: dict[int, float] = {}
    degree: dict[int, float] = {}
    for node in graph.nodes:
        degree.setdefault(assignment[node.id], 0.0)
    for u, v, w in graph.edges:
        cu, cv = assignment[u], assignment[v]
        degree[cu] += w
        degree[cv] += w
        if cu == cv:
            internal[cu] = internal.get(cu, 0.0) + w
    total = 0.0
    for cluster in sorted(degree):
        total += internal.get(cluster, 0.0) / m - (degree[cluster] / (2.0 * m)) ** 2
    return total


def _weight_matrix(n: int, heads: np.ndarray, tails: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Symmetric edge-weight matrix; each entry sums its edges' weights
    in edge order, starting from 0.0."""
    import numpy as np

    first = np.column_stack((heads, tails)).ravel()
    second = np.column_stack((tails, heads)).ravel()
    out = np.zeros((n, n))
    np.add.at(out, (first, second), np.repeat(weights, 2))
    return out


def _walks(ids: list[str], heads: np.ndarray, tails: np.ndarray,
           weights: np.ndarray, walk_length: int):
    """Weighted degrees, their reciprocals (0.0 for an isolated vertex)
    and the ``walk_length``-th power of the transition matrix.

    The power takes numpy's own products in numpy's own order
    (``np.linalg.matrix_power``: ``(t @ t) @ t`` for length 3, otherwise
    squarings over the bits from the lowest), so every entry keeps its
    bits, and drops each factor as soon as that order no longer needs
    it: a power of two holds at most two n x n arrays at once.
    """
    import numpy as np

    n = len(ids)
    with np.errstate(over="ignore"):
        transition = _weight_matrix(n, heads, tails, weights)
        degree = transition.sum(axis=1)
        total = degree.sum()
        # No Ward cost exceeds n / (the smallest positive degree).
        cost_bound = np.divide(float(n), degree, out=np.zeros(n), where=degree > 0)
    if not np.isfinite(total):
        node = int(degree.argmax())
        raise ValueError(f"node {ids[node]!r}: weighted degree {float(degree[node])!r} "
                         f"is too large for walktrap: the total edge weight "
                         f"overflows a float")
    small = np.flatnonzero(~np.isfinite(cost_bound))
    if len(small):
        node = int(small[0])
        raise ValueError(f"node {ids[node]!r}: weighted degree {float(degree[node])!r} "
                         f"is too small for walktrap: {n} / degree overflows a float")
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    transition *= inv_degree[:, None]
    isolated = np.flatnonzero(degree == 0.0)
    transition[isolated, isolated] = 1.0  # isolated vertex: walk stays put
    if walk_length == 3:
        return degree, inv_degree, (transition @ transition) @ transition
    power = None
    while True:
        walk_length, bit = divmod(walk_length, 2)
        if bit:
            power = transition if power is None else power @ transition
        if not walk_length:
            return degree, inv_degree, power
        transition = transition @ transition  # the next power of two


def _merge_order(walks: np.ndarray, inv_degree: np.ndarray, heads: np.ndarray,
                 tails: np.ndarray) -> list[tuple[int, int]]:
    """Walktrap's merges, each as (slot of the older community, which
    keeps the merged one, slot of the newer).  ``walks`` is overwritten
    with the communities' walk rows."""
    import numpy as np

    n = len(inv_degree)
    # Distinct pairs, sorted; np.unique would give the same array but
    # imports numpy.ma on every call.
    keys = np.sort(np.minimum(heads, tails) * n + np.maximum(heads, tails))
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    lo, hi = np.divmod(pairs, n)
    lo, hi = lo[lo != hi], hi[lo != hi]  # a self-loop joins no two communities

    # cost[s, t] is the Ward merge cost of the communities in slots s and
    # t, inf when they are not adjacent.
    cost = np.full((n, n), np.inf)
    cid = np.arange(n)
    size = np.ones(n, dtype=np.int64)
    best_cost = np.full(n, np.inf)
    best_partner = np.zeros(n, dtype=np.intp)

    rows_per_block = max(1, min(n, _BLOCK_ITEMS // n))
    gap_rows = np.empty((rows_per_block, n))

    def ward_costs(slot: int, others: np.ndarray) -> np.ndarray:
        """Costs of merging the community in ``slot`` with each of ``others``."""
        r2 = np.empty(len(others))
        for start in range(0, len(others), rows_per_block):
            block = others[start:start + rows_per_block]
            gap = gap_rows[:len(block)]
            # mode="clip" lets take write straight into ``out``; the
            # indices are valid, so it clips nothing.
            np.take(walks, block, axis=0, out=gap, mode="clip")
            gap -= walks[slot]
            gap *= gap
            r2[start:start + rows_per_block] = np.vecdot(gap, inv_degree)
        sizes = size[others]
        return (size[slot] * sizes) / (size[slot] + sizes) * r2 / n

    def refresh(rows: np.ndarray) -> None:
        """Cheapest partner of each row, ties to the oldest partner."""
        for start in range(0, len(rows), rows_per_block):
            block_rows = rows[start:start + rows_per_block]
            block = cost[block_rows]
            low = block.min(axis=1)
            # The block now holds each tied partner's creation id, and 2n
            # elsewhere; the ids are exact as floats.
            tied = block == low[:, None]
            block.fill(2 * n)
            np.copyto(block, cid, where=tied)
            best_partner[block_rows] = block.argmin(axis=1)
            best_cost[block_rows] = low

    bounds = np.searchsorted(lo, np.arange(n + 1))
    for a in np.flatnonzero(np.diff(bounds)).tolist():
        later = hi[bounds[a]:bounds[a + 1]]
        cost[a, later] = cost[later, a] = ward_costs(a, later)
    refresh(np.arange(n))

    merges: list[tuple[int, int]] = []
    while True:
        low = best_cost.min()
        if low == np.inf:
            return merges
        rows = np.flatnonzero(best_cost == low)
        if len(rows) > 1:
            own, other = cid[rows], cid[best_partner[rows]]
            rows = rows[np.lexsort((np.maximum(own, other), np.minimum(own, other)))]
        sa, sb = int(rows[0]), int(best_partner[rows[0]])
        if cid[sb] < cid[sa]:
            sa, sb = sb, sa
        cid[sa] = n + len(merges)
        merges.append((sa, sb))

        merged_size = size[sa] + size[sb]
        walks[sa] = (size[sa] * walks[sa] + size[sb] * walks[sb]) / merged_size
        size[sa], size[sb] = merged_size, 0

        # Only rows adjacent to a or b hold entries in columns sa and sb.
        # Slot sb is never read again, and neither is the diagonal; but
        # refresh scans whole rows, so live rows drop their sb entry.
        adjacent = (cost[sa] < np.inf) | (cost[sb] < np.inf)
        adjacent[[sa, sb]] = False
        others = np.flatnonzero(adjacent)
        cost[sa] = np.inf
        cost[others, sb] = np.inf
        best_cost[sb] = np.inf

        if len(others):
            values = ward_costs(sa, others)
            cost[sa, others] = cost[others, sa] = values
            # Rows whose cheapest partner was a or b rescan; the others
            # only compare with the new, newest-created partner.
            partners = best_partner[others]
            stale = (partners == sa) | (partners == sb)
            better = ~stale & (values < best_cost[others])
            best_cost[others[better]] = values[better]
            best_partner[others[better]] = sa
            refresh(others[stale])
        refresh(np.array([sa]))


def _best_cut(heads: np.ndarray, tails: np.ndarray, weights: np.ndarray,
              degree: np.ndarray, merges: list[tuple[int, int]]) -> tuple[int, float]:
    """Replay ``merges`` over the edge weights: the number of merges whose
    partition has the highest modularity (the fewest on ties), and that
    modularity."""
    import numpy as np

    n = len(degree)
    m = float(degree.sum()) / 2.0
    if m == 0:
        return 0, 0.0
    internal = [0.0] * n
    loops = heads == tails  # a self-loop is internal weight from the start
    for head, w in zip(heads[loops].tolist(), weights[loops].tolist()):
        internal[head] += w
    comm_degree = degree.tolist()

    def term(slot: int) -> float:
        return internal[slot] / m - (comm_degree[slot] / (2.0 * m)) ** 2

    # terms[c + 1] is community c's modularity term while it is live and
    # 0.0 after it merged; the leading 0.0 starts the running sum.
    terms = np.zeros(2 * n)
    terms[1:n + 1] = [term(a) for a in range(n)]
    best_q, best_step = float(np.cumsum(terms[:n + 1])[-1]), 0
    cid = list(range(n))
    weight = _weight_matrix(n, heads, tails, weights)
    for step, (sa, sb) in enumerate(merges, 1):
        internal[sa] = internal[sa] + internal[sb] + float(weight[sa, sb])
        comm_degree[sa] = comm_degree[sa] + comm_degree[sb]
        # Row sa becomes older + newer; only the entries where row sb is
        # nonzero change, and they are copied to column sa.
        changed = np.flatnonzero(weight[sb])
        weight[sa] += weight[sb]
        weight[changed, sa] = weight[sa, changed]
        terms[cid[sa] + 1] = terms[cid[sb] + 1] = 0.0
        cid[sa] = n + step - 1
        terms[cid[sa] + 1] = term(sa)
        q = float(np.cumsum(terms[:cid[sa] + 2])[-1])
        if q > best_q:
            best_q, best_step = q, step
    return best_step, best_q


def walktrap(graph: Graph, walk_length: int = 4) -> Clustering:
    """Cluster an undirected weighted graph by short random-walk distance.

    Vertices whose ``walk_length``-step walk distributions look alike are
    likely to share a community; merging greedily on that distance and
    cutting the merge sequence at maximum modularity follows the method's
    standard form.  Ties in merge priority break deterministically on
    community creation order.  A directed graph, or a weighted degree
    whose reciprocal or whose sum with the others leaves the float range,
    raises ``ValueError``.
    """
    import numpy as np  # deferred: only clustering commands pay for numpy

    if walk_length < 1:
        raise ValueError(f"walk length must be at least 1, got {walk_length}")
    if graph.directed:
        raise ValueError("walktrap needs an undirected graph; "
                         "this graph's arcs are directed")
    ids = sorted(graph.node_ids())
    n = len(ids)
    if n == 0:
        return Clustering(assignment={}, modularity=0.0, n_clusters=0)
    if n == 1:
        return Clustering(assignment={ids[0]: 0}, modularity=0.0, n_clusters=1)
    index = {nid: i for i, nid in enumerate(ids)}
    heads = np.array([index[u] for u, _, _ in graph.edges], dtype=np.intp)
    tails = np.array([index[v] for _, v, _ in graph.edges], dtype=np.intp)
    edge_weights = np.array([w for _, _, w in graph.edges], dtype=float)

    degree, inv_degree, walks = _walks(ids, heads, tails, edge_weights, walk_length)
    merges = _merge_order(walks, inv_degree, heads, tails)
    del walks  # the replay's weight matrix takes its place
    best_step, best_q = _best_cut(heads, tails, edge_weights, degree, merges)

    members: dict[int, list[int]] = {slot: [slot] for slot in range(n)}
    cid = list(range(n))
    for step, (sa, sb) in enumerate(merges[:best_step]):
        members[sa] += members.pop(sb)
        cid[sa] = n + step
    assignment = {ids[vertex]: order
                  for order, slot in enumerate(sorted(members, key=cid.__getitem__))
                  for vertex in members[slot]}
    return Clustering(assignment=assignment, modularity=best_q,
                      n_clusters=len(members))
