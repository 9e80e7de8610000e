"""Random-walk community detection (walktrap) and modularity.

The method is deterministic given the graph: no sampling happens.  Short
random-walk distributions are computed exactly as powers of the
transition matrix; communities are merged agglomeratively by Ward-style
distance, merging adjacent communities only, and the merge stage with
the highest modularity is returned.  Connected components never mix, so
they are effectively handled independently.

Slot layout.  Community state lives in fixed arrays of n slots, one per
vertex at the start.  Slot i's row of the walk matrix holds the walk
distribution of the community in that slot; a merge writes the
size-weighted mean of the two rows into the slot of the older community
and retires the other slot.  Per slot the code also keeps the creation
id, size, internal and total degree weight, the edge weight and the Ward
cost to each adjacent slot, and the slot's cheapest partner.  A merge
computes the costs from the new community to all its neighbours in one
batched ``np.vecdot``, which runs the same BLAS dot per row that
``np.dot`` runs on a single pair, so every cost keeps its bits.

Merge order.  A pair's cost depends only on its two communities, so the
next merge is the live adjacent pair that minimises (cost, older
creation id, newer creation id).  Each slot keeps the partner that
minimises (cost, partner creation id); the minimum of those per-slot
entries under the pair key is that same pair.  Modularity after each
merge is summed over the live communities in creation order, as a
running Python-float sum would, and the best cut is kept as a merge
count: the partition is built once, at the end, by replaying the merge
list up to it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

_ROW_BLOCK = 64  # rows per batched cost or minimum evaluation


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


def walktrap(graph: Graph, walk_length: int = 4) -> Clustering:
    """Cluster an undirected weighted graph by short random-walk distance.

    Vertices whose ``walk_length``-step walk distributions look alike are
    likely to share a community; merging greedily on that distance and
    cutting the merge sequence at maximum modularity follows the method's
    standard form.  Ties in merge priority break deterministically on
    community creation order.
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

    transition = _weight_matrix(n, heads, tails, edge_weights)
    degree = transition.sum(axis=1)
    inv_degree = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    transition *= inv_degree[:, None]
    isolated = np.flatnonzero(degree == 0.0)
    transition[isolated, isolated] = 1.0  # isolated vertex: walk stays put
    walks = np.linalg.matrix_power(transition, walk_length)
    del transition

    # Slot state.  weight[s, t] is the edge weight between the communities
    # in slots s and t; cost[s, t] is their Ward merge cost, inf when they
    # are not adjacent.  The weights are rebuilt rather than copied before
    # the matrix power, so that no more than three n x n arrays are live
    # at once.
    weight = _weight_matrix(n, heads, tails, edge_weights)
    cost = np.full((n, n), np.inf)
    cid = np.arange(n)
    size = np.ones(n, dtype=np.int64)
    internal = [0.0] * n
    comm_degree = degree.tolist()
    best_cost = np.full(n, np.inf)
    best_partner = np.zeros(n, dtype=np.intp)

    gap_rows = np.empty((min(n, _ROW_BLOCK), n))

    def ward_costs(slot: int, others: np.ndarray) -> np.ndarray:
        """Costs of merging the community in ``slot`` with each of ``others``."""
        r2 = np.empty(len(others))
        for start in range(0, len(others), _ROW_BLOCK):
            block = others[start:start + _ROW_BLOCK]
            gap = gap_rows[:len(block)]
            # mode="clip" lets take write straight into ``out``; the
            # indices are valid, so it clips nothing.
            np.take(walks, block, axis=0, out=gap, mode="clip")
            gap -= walks[slot]
            gap *= gap
            r2[start:start + _ROW_BLOCK] = np.vecdot(gap, inv_degree)
        sizes = size[others]
        return (size[slot] * sizes) / (size[slot] + sizes) * r2 / n

    def refresh(rows: np.ndarray) -> None:
        """Cheapest partner of each row, ties to the oldest partner."""
        for start in range(0, len(rows), _ROW_BLOCK):
            block_rows = rows[start:start + _ROW_BLOCK]
            block = cost[block_rows]
            low = block.min(axis=1)
            tied = np.where(block == low[:, None], cid, 2 * n)
            best_partner[block_rows] = tied.argmin(axis=1)
            best_cost[block_rows] = low

    # Distinct pairs, sorted; np.unique would give the same array but
    # imports numpy.ma on every call.
    keys = np.sort(np.minimum(heads, tails) * n + np.maximum(heads, tails))
    pairs = keys[np.diff(keys, prepend=-1) != 0]
    lo, hi = np.divmod(pairs, n)
    lo, hi = lo[lo != hi], hi[lo != hi]  # self-loops count in degrees only
    bounds = np.searchsorted(lo, np.arange(n + 1))
    for a in np.flatnonzero(np.diff(bounds)).tolist():
        later = hi[bounds[a]:bounds[a + 1]]
        cost[a, later] = cost[later, a] = ward_costs(a, later)
    refresh(np.arange(n))

    m = float(degree.sum()) / 2.0

    def term(slot: int) -> float:
        return internal[slot] / m - (comm_degree[slot] / (2.0 * m)) ** 2

    # terms[c + 1] is community c's modularity term while it is live and
    # 0.0 after it merged; the leading 0.0 starts the running sum.
    terms = np.zeros(2 * n)
    if m != 0:
        terms[1:n + 1] = [term(a) for a in range(n)]
    best_q = float(np.cumsum(terms[:n + 1])[-1])
    best_step = 0
    merges: list[tuple[int, int]] = []

    while True:
        low = best_cost.min()
        if low == np.inf:
            break
        rows = np.flatnonzero(best_cost == low)
        if len(rows) > 1:
            own, other = cid[rows], cid[best_partner[rows]]
            rows = rows[np.lexsort((np.maximum(own, other), np.minimum(own, other)))]
        sa, sb = int(rows[0]), int(best_partner[rows[0]])
        if cid[sb] < cid[sa]:
            sa, sb = sb, sa
        a_id, b_id = int(cid[sa]), int(cid[sb])
        merged_id = n + len(merges)
        merges.append((a_id, b_id))

        merged_size = size[sa] + size[sb]
        walks[sa] = (size[sa] * walks[sa] + size[sb] * walks[sb]) / merged_size
        internal[sa] = internal[sa] + internal[sb] + float(weight[sa, sb])
        comm_degree[sa] = comm_degree[sa] + comm_degree[sb]
        size[sa], size[sb] = merged_size, 0
        cid[sa] = merged_id

        # Only rows adjacent to a or b hold entries in columns sa and sb.
        # Slot sb is never read again, and neither is the diagonal; but
        # refresh scans whole rows, so live rows drop their sb entry.
        adjacent = (cost[sa] < np.inf) | (cost[sb] < np.inf)
        adjacent[[sa, sb]] = False
        others = np.flatnonzero(adjacent)
        weight[sa] += weight[sb]
        weight[others, sa] = weight[sa, others]
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

        if m != 0:
            terms[a_id + 1] = terms[b_id + 1] = 0.0
            terms[merged_id + 1] = term(sa)
            q = float(np.cumsum(terms[:merged_id + 2])[-1])
            if q > best_q:
                best_q, best_step = q, len(merges)

    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step, (a_id, b_id) in enumerate(merges[:best_step]):
        members[n + step] = members.pop(a_id) + members.pop(b_id)
    assignment = {ids[vertex]: order
                  for order, comm in enumerate(sorted(members))
                  for vertex in members[comm]}
    return Clustering(assignment=assignment, modularity=best_q,
                      n_clusters=len(members))
