"""Monte Carlo minimum feedback arc set on directed multigraphs.

One run samples an arc uniformly among all arcs currently lying on a
directed cycle, removes it, and repeats until the graph is acyclic.
Repeating the run t times and keeping the smallest removal set drives
the failure probability down geometrically; the reference model's bound
2^-t is reported alongside, clearly separated from any instance-specific
empirical rate measured by the calibration harness.

Removal support is restricted to on-cycle arcs: removing an arc that
lies on no cycle can never help and only inflates the solution.
"""
from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, NamedTuple, Optional

from .digraph import reaches, strongly_connected_components, topological_order

if TYPE_CHECKING:
    from fractions import Fraction

GENERATOR_ID = "mt19937-sha256-split"

# Entry bound of the split memo that the runs on one graph share (see
# run_once).  The 3,000 calibration runs on a 9-bundle graph need about 270
# entries; a run on a 500-bundle graph adds about 260 (0.15 MB), nearly
# all of them never met again, so the bound caps that at about 2.5 MB.
SPLIT_MEMO_SIZE = 1 << 12

Bundle = tuple[str, str]


class Multigraph:
    """Directed multigraph: parallel arcs allowed, no loops, no weights."""

    __slots__ = ("nodes", "bundles")

    def __init__(self, nodes: Optional[set[str]] = None,
                 bundles: Optional[dict[Bundle, int]] = None) -> None:
        self.nodes = set() if nodes is None else nodes
        self.bundles = {} if bundles is None else bundles

    def add(self, u: str, v: str, multiplicity: int = 1) -> None:
        if u == v:
            raise ValueError(f"loops are not allowed: {u!r}")
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        self.nodes.update((u, v))
        self.bundles[(u, v)] = self.bundles.get((u, v), 0) + multiplicity

    def total_arcs(self) -> int:
        return sum(self.bundles.values())

    @classmethod
    def from_lines(cls, lines) -> "Multigraph":
        """Parse the delimited format: one bundle per line, ``u v mult``
        (multiplicity defaults to 1); '#' starts a comment."""
        mg = cls()
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            try:
                if len(parts) not in (2, 3):
                    raise ValueError("expected 'u v [multiplicity]'")
                mult = int(parts[2]) if len(parts) == 3 else 1
                mg.add(parts[0], parts[1], mult)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return mg


def _component_of(components: list[list[str]]) -> dict[str, set[str]]:
    """Node -> the member set of its component; two nodes share a
    component exactly when they map to the same set object."""
    component = {}
    for members in components:
        inside = set(members)
        for node in members:
            component[node] = inside
    return component


class McSolution(NamedTuple):
    """The arcs one run removed, per bundle, and how many in all."""

    removed: dict[Bundle, int]
    size: int


def witness_order(mg: Multigraph, removed: dict[Bundle, int]) -> list[str]:
    """The topological order of the arcs that ``removed`` leaves in ``mg``.

    Raises ValueError when those arcs still close a cycle.
    """
    left = (bundle for bundle, m in mg.bundles.items() if m > removed.get(bundle, 0))
    order = topological_order(mg.nodes, left)
    if order is None:
        raise ValueError("the arcs left after the removal still close a cycle")
    return order


# What emptying one bundle does to its component: None when the tail still
# reaches the head inside it, else each node of the old component mapped
# to its new member set, and the bundles that now cross between parts.
_Split = Optional[tuple[dict[str, set[str]], list[int]]]


class _RunStart(NamedTuple):
    """What every run on one graph starts from.  Runs only read the other
    fields, copying what they change; they read and fill ``splits``."""

    bundles: list[Bundle]              # sorted; bundle i is index i below
    multiplicity: list[int]
    out: dict[str, dict[str, int]]     # u -> {v: index of bundle (u, v)}
    component: dict[str, set[str]]
    tree: list[int]                    # Fenwick tree of the weights, see run_once
    # The split memo, keyed on the set of emptied bundles as a bitmask
    # and the bundle emptied last.
    splits: dict[tuple[int, int], _Split]


def _fenwick(weight: list[int]) -> list[int]:
    """A Fenwick (binary indexed) tree over ``weight``: entry i (1-based)
    sums the weights at 0-based indices i - (i & -i) .. i - 1.

    Its size is a power of two, padded with zero weights, so a descent
    from the top step visits every partial sum.
    """
    size = 1
    while size < len(weight):
        size *= 2
    tree = [0] * (size + 1)
    tree[1:len(weight) + 1] = weight
    for i in range(1, size):
        parent = i + (i & -i)
        if parent <= size:
            tree[parent] += tree[i]
    return tree


def _fenwick_add(tree: list[int], index: int, delta: int) -> None:
    i, size = index + 1, len(tree)
    while i < size:
        tree[i] += delta
        i += i & -i


def _fenwick_find(tree: list[int], target: int) -> int:
    """The first index whose running weight sum exceeds ``target``."""
    index, step = 0, len(tree) - 1
    while step:
        if tree[index + step] <= target:
            index += step
            target -= tree[index]
        step //= 2
    return index


def _run_start(mg: Multigraph) -> _RunStart:
    bundles = sorted(mg.bundles)
    multiplicity = [mg.bundles[bundle] for bundle in bundles]
    out: dict[str, dict[str, int]] = {node: {} for node in mg.nodes}
    for i, (u, v) in enumerate(bundles):
        out[u][v] = i
    component = _component_of(strongly_connected_components(sorted(mg.nodes), out))
    weight = [m if component[u] is component[v] else 0
              for (u, v), m in zip(bundles, multiplicity)]
    return _RunStart(bundles, multiplicity, out, component, _fenwick(weight), {})


def _derive_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def run_once(mg: Multigraph, seed: int, *,
             start: Optional[_RunStart] = None) -> McSolution:
    """One Monte Carlo run: break uniformly chosen on-cycle arcs until the
    graph is acyclic.  Deterministic given the seed.

    Each bundle's sampling weight is its remaining multiplicity while its
    ends share a strongly connected component, else 0; only a Fenwick
    tree holds the weights.  A draw ``randrange(total)`` picks the first
    bundle, in sorted order, whose running weight sum exceeds it, found by
    descending the tree.  Taking one arc from a bundle only lowers its
    weight.  Emptying bundle (u, v) splits the component that held it
    exactly when u no longer reaches v inside it; only then does Tarjan
    rerun, on that component alone, and each bundle now crossing between
    parts drops its weight, which is still its remaining multiplicity
    since components only split.  Whether and how a component splits
    depends only on which bundles are empty, so each answer is looked up
    in the split memo before it is computed, and stored while the memo
    holds fewer than ``SPLIT_MEMO_SIZE`` entries.

    ``start`` is ``_run_start(mg)``, built once when many runs share a
    graph, and with it its split memo.  Without it the run builds its own.
    """
    if start is None:
        start = _run_start(mg)
    splits = start.splits
    rng = random.Random(seed)
    bundles = start.bundles
    left = start.multiplicity.copy()
    tree = start.tree.copy()   # tree[-1] is the total weight
    out = {node: succ.copy() for node, succ in start.out.items()}
    component = start.component.copy()
    emptied = 0
    while tree[-1]:
        i = _fenwick_find(tree, rng.randrange(tree[-1]))
        u, v = bundles[i]
        left[i] -= 1
        _fenwick_add(tree, i, -1)
        if left[i]:
            continue
        del out[u][v]
        emptied |= 1 << i
        key = (emptied, i)
        if key in splits:
            split = splits[key]
        else:
            split = _split(out, component[u], u, v)
            if len(splits) < SPLIT_MEMO_SIZE:
                splits[key] = split
        if split is not None:
            parts, crossing = split
            component.update(parts)
            for j in crossing:
                _fenwick_add(tree, j, -left[j])
    removed = {bundle: m - k for bundle, m, k in zip(bundles, start.multiplicity, left)
               if k < m}
    return McSolution(removed=removed, size=sum(removed.values()))


def _split(out: dict[str, dict[str, int]], members: set[str], u: str, v: str,
           ) -> _Split:
    """How ``members``, the component that held the just emptied bundle
    (u, v), falls apart; ``out`` no longer holds that bundle."""
    if reaches(out, u, v, within=members):
        return None
    parts = _component_of(strongly_connected_components(members, out))
    crossing = [j for node in members for nxt, j in out[node].items()
                if nxt in members and parts[node] is not parts[nxt]]
    return parts, crossing


def success_lower_bound(t: int) -> Fraction:
    """The reference model's success bound 1 - 2^-t, exactly."""
    if t < 1:
        raise ValueError("at least one run is required")
    from fractions import Fraction  # deferred: only mfas commands pay for it
    return Fraction(2**t - 1, 2**t)


class ConfidenceReport(NamedTuple):
    runs: int
    best_size: int
    reference_bound: Fraction


def _runs(mg: Multigraph, start: _RunStart, t: int, *seed_parts,
          ) -> tuple[McSolution, list[int]]:
    """Runs r = 0 .. t-1 under the seeds ``_derive_seed(*seed_parts, r)``:
    the first smallest solution, and every run's size in run order."""
    best: Optional[McSolution] = None
    sizes = []
    for r in range(t):
        solution = run_once(mg, _derive_seed(*seed_parts, r), start=start)
        sizes.append(solution.size)
        if best is None or solution.size < best.size:
            best = solution
    assert best is not None
    return best, sizes


def solve(mg: Multigraph, t: int, seed: int) -> tuple[McSolution, ConfidenceReport]:
    """Best of ``t`` independent runs under split seeds.

    Run i's seed depends only on (seed, i), so extending t keeps the
    earlier runs identical and the best size can only improve.
    """
    if t < 1:
        raise ValueError("at least one run is required")
    best, _ = _runs(mg, _run_start(mg), t, seed)
    return best, ConfidenceReport(runs=t, best_size=best.size,
                                  reference_bound=success_lower_bound(t))


# Exhaustive oracle ---------------------------------------------------------

def brute_force_optimum(mg: Multigraph, cap: int = 20,
                        ) -> tuple[int, dict[Bundle, int]]:
    """Exact optimum by exhaustive search, for small instances only.

    Removing part of a bundle never breaks a cycle, so an optimal removal
    set empties whole bundles; the search walks bundle subsets in
    nondecreasing total multiplicity and the first acyclic residual wins.
    """
    total = mg.total_arcs()
    if total > cap:
        raise ValueError(f"instance has {total} arcs, above the cap of {cap}")
    if topological_order(mg.nodes, mg.bundles) is not None:
        return 0, {}
    bundles = sorted(mg.bundles.items())
    masks = sorted(range(1, 1 << len(bundles)),
                   key=lambda mask: (sum(bundles[i][1] for i in range(len(bundles))
                                         if mask >> i & 1), mask))
    for mask in masks:
        residual = [b for i, (b, _) in enumerate(bundles) if not mask >> i & 1]
        if topological_order(mg.nodes, residual) is not None:
            witness = {b: m for i, (b, m) in enumerate(bundles) if mask >> i & 1}
            return sum(witness.values()), witness
    raise AssertionError("unreachable: removing every arc is always acyclic")


# Calibration harness ---------------------------------------------------------

def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")


def wilson_interval(successes: int, n: int, confidence: float = 0.99,
                    ) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_confidence(confidence)
    if n == 0:
        return 0.0, 1.0
    from statistics import NormalDist  # deferred: only calibration pays for it
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    margin = z * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5) / denom
    return max(0.0, center - margin), min(1.0, center + margin)


class TrialRecord(NamedTuple):
    trial: int
    best_size: int
    first_success_run: Optional[int]  # 1-based run index, None if never
    successes: int


class CalibrationResult(NamedTuple):
    optimum: int
    records: list[TrialRecord]
    empirical_cumulative: list[float]   # index r-1: success within r runs
    theoretical_cumulative: list[Fraction]  # reference bound 1 - 2^-r
    per_run_success_rate: float
    wilson_low: float
    wilson_high: float
    confidence: float


def calibration_harness(mg: Multigraph, t: int, trials: int, seed: int,
                        confidence: float = 0.99) -> CalibrationResult:
    """Measure the solver against the exhaustive oracle.

    Each trial is an independent best-of-t solve; the harness records
    which runs attained the oracle optimum, the cumulative success curve,
    and the per-run empirical success rate with its Wilson interval.  The
    1 - 2^-t curve is emitted alongside as the reference model's bound,
    never asserted for the instance.
    """
    if t < 1 or trials < 1:
        raise ValueError("both t and trials must be at least 1")
    _check_confidence(confidence)
    optimum, _ = brute_force_optimum(mg)
    start = _run_start(mg)
    records = []
    cumulative_hits = [0] * t
    run_successes = 0
    for j in range(trials):
        best, sizes = _runs(mg, start, t, seed, j)
        successes = sizes.count(optimum)
        first_success = sizes.index(optimum) + 1 if successes else None
        if first_success is not None:
            for r in range(first_success - 1, t):
                cumulative_hits[r] += 1
        run_successes += successes
        records.append(TrialRecord(trial=j, best_size=best.size,
                                   first_success_run=first_success,
                                   successes=successes))
    rate = run_successes / (trials * t)
    low, high = wilson_interval(run_successes, trials * t, confidence)
    return CalibrationResult(
        optimum=optimum, records=records,
        empirical_cumulative=[hits / trials for hits in cumulative_hits],
        theoretical_cumulative=[success_lower_bound(r + 1) for r in range(t)],
        per_run_success_rate=rate, wilson_low=low, wilson_high=high,
        confidence=confidence)

