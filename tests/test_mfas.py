from __future__ import annotations

import copy
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import pytest

from scimap import mfas
from scimap.digraph import topological_order
from scimap.mfas import (
    ConfidenceReport, Multigraph, brute_force_optimum, calibration_harness,
    run_once, solve, success_lower_bound, wilson_interval, witness_order,
)
from conftest import copy_of, to_lines, triangle_example
from golden_suite import SCC_MULTIGRAPH


def random_multigraph(rng, max_nodes=5, max_extra=8):
    mg = Multigraph()
    n = rng.randrange(2, max_nodes + 1)
    names = [f"v{i}" for i in range(n)]
    attempts = rng.randrange(1, max_extra)
    for _ in range(attempts):
        u, v = rng.sample(names, 2)
        mg.add(u, v, rng.randrange(1, 3))
        if mg.total_arcs() >= 12:
            break
    return mg


def order_of(mg):
    return topological_order(mg.nodes, mg.bundles)


def block_multigraph(rng, blocks=3, size=6):
    """Rings with chords in ordered blocks, forward bridges between them
    and one isolated node: runs both thin bundles and split components."""
    mg = Multigraph(nodes={"isolated"})
    names = [[f"b{b}n{k}" for k in range(size)] for b in range(blocks)]
    for members in names:
        for u, v in zip(members, members[1:] + members[:1]):
            mg.add(u, v, rng.randint(1, 3))
        for _ in range(size):
            mg.add(*rng.sample(members, 2), rng.randint(1, 3))
    for _ in range(size):
        first, second = sorted(rng.sample(range(blocks), 2))
        mg.add(rng.choice(names[first]), rng.choice(names[second]))
    return mg


def test_triangle_is_cyclic():
    assert order_of(triangle_example()) is None


def test_empty_graph_acyclic():
    assert order_of(Multigraph()) == []


def test_two_node_two_cycle():
    mg = Multigraph()
    mg.add("a", "b")
    mg.add("b", "a")
    assert order_of(mg) is None


def test_acyclic_graph_topological_witness():
    mg = Multigraph()
    mg.add("a", "b", 2)
    mg.add("b", "c")
    order = order_of(mg)
    assert order.index("a") < order.index("b") < order.index("c")


def test_loops_rejected():
    with pytest.raises(ValueError):
        Multigraph().add("x", "x")


@pytest.mark.parametrize("text, message", [
    ("a b 1\na b x\n", "line 2: invalid literal for int"),
    ("# header\n\nb a 0\n", "line 3: multiplicity must be at least 1"),
    ("a b\nb b\n", "line 2: loops are not allowed"),
    ("a b 1 2\n", "line 1: expected 'u v \\[multiplicity\\]'"),
])
def test_multigraph_input_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        Multigraph.from_lines(text.splitlines())


def test_multigraph_line_round_trip():
    mg = triangle_example()
    again = Multigraph.from_lines(to_lines(mg))
    assert again.bundles == mg.bundles


# run_once ---------------------------------------------------------------------

def test_run_once_on_acyclic_input_removes_nothing():
    mg = Multigraph()
    mg.add("a", "b", 3)
    solution = run_once(mg, seed=1)
    assert solution.size == 0 and solution.removed == {}


def test_run_once_first_pick_probability_one_sixth():
    # On the triangle the run is optimal exactly when the first sampled
    # arc is the single-multiplicity bundle: probability 1/6.
    hits = sum(run_once(triangle_example(), seed=s).size == 1
               for s in range(6000))
    assert abs(hits / 6000 - 1 / 6) < 0.02


def test_run_once_deterministic_given_seed():
    mg = triangle_example()
    first = run_once(mg, seed=99)
    for _ in range(5):
        again = run_once(mg, seed=99)
        assert again == first


def test_run_once_input_not_mutated():
    mg = triangle_example()
    before = dict(mg.bundles)
    run_once(mg, seed=3)
    assert mg.bundles == before


def test_run_once_soundness_and_support_on_random_instances():
    rng = random.Random(71)
    for trial in range(100):
        mg = random_multigraph(rng)
        solution = run_once(mg, seed=trial)
        residual = copy_of(mg)
        for bundle, count in solution.removed.items():
            residual.bundles[bundle] -= count
            assert residual.bundles[bundle] >= 0
            if residual.bundles[bundle] == 0:
                del residual.bundles[bundle]
        order = order_of(residual)
        assert order is not None
        assert solution.size == sum(solution.removed.values())
        assert sorted(order) == sorted(residual.nodes)


def test_runs_sharing_one_start_match_runs_on_their_own():
    graphs = [block_multigraph(random.Random(k)) for k in (1, 2)]
    starts = [mfas._run_start(mg) for mg in graphs]
    pristine = copy.deepcopy(starts)
    keys = [(g, seed) for g in range(len(graphs)) for seed in range(6)]
    alone = {(g, seed): run_once(graphs[g], seed) for g, seed in keys}
    for order in (keys[::-1], random.Random(3).sample(keys, len(keys))):
        runs = {(g, seed): run_once(graphs[g], seed, start=starts[g])
                for g, seed in order}
        for (g, seed), solution in runs.items():
            assert solution.removed == alone[g, seed].removed, (g, seed)
            assert witness_order(graphs[g], solution.removed) == \
                witness_order(graphs[g], alone[g, seed].removed), (g, seed)
    # runs fill the split memo and leave every other field as it was
    assert [start._replace(splits={}) for start in starts] == \
        [start._replace(splits={}) for start in pristine]


def test_runs_sharing_a_split_memo_match_runs_on_their_own():
    graphs = [block_multigraph(random.Random(k)) for k in (5, 6)]
    starts = [mfas._run_start(mg) for mg in graphs]
    keys = [(g, seed) for g in range(len(graphs)) for seed in range(30)]
    alone = {(g, seed): run_once(graphs[g], seed) for g, seed in keys}
    for order in (keys, random.Random(7).sample(keys, len(keys))):
        for g, seed in order:
            got = run_once(graphs[g], seed, start=starts[g])
            assert got.removed == alone[g, seed].removed, (g, seed)
            assert witness_order(graphs[g], got.removed) == \
                witness_order(graphs[g], alone[g, seed].removed), (g, seed)
    for memo in (start.splits for start in starts):
        assert any(split is not None for split in memo.values())


def test_split_memo_keys_on_the_bundle_emptied_last():
    # Two disjoint 2-cycles: runs that empty a->b and c->d in either
    # order reach the same emptied set, and must not take each other's
    # split of the other cycle.
    mg = Multigraph.from_lines(["a b", "b a", "c d", "d c"])
    start = mfas._run_start(mg)
    for seed in range(40):
        got = run_once(mg, seed, start=start)
        assert got.size == 2, seed
        assert got.removed == run_once(mg, seed).removed, seed
    last = {}
    for emptied, i in start.splits:
        last.setdefault(emptied, set()).add(i)
    assert any(len(bundles) > 1 for bundles in last.values())


@pytest.mark.parametrize("bound", [0, 1])
def test_split_memo_bound_changes_no_result(monkeypatch, bound):
    mg = block_multigraph(random.Random(4))
    small = Multigraph.from_lines(SCC_MULTIGRAPH.splitlines())
    want = (solve(mg, t=8, seed=2), calibration_harness(small, t=5, trials=40, seed=3))
    monkeypatch.setattr(mfas, "SPLIT_MEMO_SIZE", bound)
    best, report = solve(mg, t=8, seed=2)
    assert (best.removed, witness_order(mg, best.removed), report) == (
        want[0][0].removed, witness_order(mg, want[0][0].removed), want[0][1])
    assert calibration_harness(small, t=5, trials=40, seed=3) == want[1]
    start = mfas._run_start(mg)
    for seed in range(5):
        run_once(mg, seed, start=start)
    assert len(start.splits) == bound


def test_calibration_runs_tarjan_once_per_distinct_split(monkeypatch):
    mg = Multigraph.from_lines(SCC_MULTIGRAPH.splitlines())
    tarjan, starts = [], []
    real_tarjan, real_run = mfas.strongly_connected_components, mfas.run_once
    monkeypatch.setattr(mfas, "strongly_connected_components",
                        lambda *args: tarjan.append(1) or real_tarjan(*args))
    monkeypatch.setattr(mfas, "run_once", lambda *args, start: starts.append(start)
                        or real_run(*args, start=start))
    calibration_harness(mg, t=10, trials=300, seed=5)
    assert len(starts) == 3000 and all(start is starts[0] for start in starts)
    splits = sum(split is not None for split in starts[0].splits.values())
    assert len(tarjan) == 1 + splits   # the start's pass, then one per split
    assert len(tarjan) < len(starts) / 3


def test_witness_order_is_built_only_when_read(monkeypatch):
    # neither solve nor calibration sorts a residual; the oracle's own
    # sorts are left out by answering for it
    mg = block_multigraph(random.Random(4))
    small = Multigraph.from_lines(SCC_MULTIGRAPH.splitlines())
    optimum = brute_force_optimum(small)
    monkeypatch.setattr(mfas, "brute_force_optimum", lambda mg: optimum)
    built = []
    monkeypatch.setattr(mfas, "topological_order",
                        lambda *args: built.append(1) or topological_order(*args))
    best, _ = solve(mg, t=5, seed=8)
    calibration_harness(small, t=5, trials=20, seed=8)
    assert built == []
    assert sorted(witness_order(mg, best.removed)) == sorted(mg.nodes)
    assert built == [1]


def test_solve_and_calibration_call_run_once_once_per_run(monkeypatch):
    # the benchmark counts runs by wrapping the module-level run_once
    calls = []
    real = mfas.run_once
    monkeypatch.setattr(mfas, "run_once",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    solve(triangle_example(), t=7, seed=1)
    assert len(calls) == 7
    calls.clear()
    calibration_harness(triangle_example(), t=4, trials=9, seed=1)
    assert len(calls) == 4 * 9


def test_run_once_never_removes_an_off_cycle_bundle():
    mg = Multigraph()
    mg.add("a", "b")
    mg.add("b", "a")
    mg.add("a", "c", 5)  # dangling, never on a cycle
    for seed in range(20):
        removed = run_once(mg, seed).removed
        assert ("a", "c") not in removed, seed
        assert sum(removed.values()) == 1, seed


# solve -------------------------------------------------------------------------

def test_reference_bound_values():
    assert success_lower_bound(1) == Fraction(1, 2)
    assert success_lower_bound(10) == Fraction(1023, 1024)
    assert float(success_lower_bound(10)) == 0.9990234375
    assert float(success_lower_bound(20)) == 0.99999904632568359375
    with pytest.raises(ValueError):
        success_lower_bound(0)


def test_reference_bound_strictly_monotone():
    bounds = [success_lower_bound(t) for t in range(1, 61)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_solve_reports_bound_and_best():
    best, report = solve(triangle_example(), t=10, seed=7)
    assert isinstance(report, ConfidenceReport)
    assert report.reference_bound == Fraction(1023, 1024)
    assert report.runs == 10
    assert best.size == report.best_size >= 1


def test_solve_triangle_t50_attains_optimum():
    best, _ = solve(triangle_example(), t=50, seed=2023)
    assert best.size == 1
    assert best.removed == {("ellen", "tim"): 1}


def test_solve_best_of_t_dominance_under_prefix_seeds():
    mg = triangle_example()
    rng = random.Random(5)
    for _ in range(10):
        seed = rng.randrange(10**6)
        small, _ = solve(mg, t=3, seed=seed)
        large, _ = solve(mg, t=9, seed=seed)
        assert large.size <= small.size


def test_solve_deterministic():
    mg = triangle_example()
    a = solve(mg, t=12, seed=31)
    b = solve(mg, t=12, seed=31)
    assert a == b
    assert witness_order(mg, a[0].removed) == witness_order(mg, b[0].removed)


# brute force oracle --------------------------------------------------------------

def test_oracle_triangle_optimum_is_single_arc_bundle():
    size, witness = brute_force_optimum(triangle_example())
    assert size == 1
    assert witness == {("ellen", "tim"): 1}


def test_oracle_trivial_cases():
    mg = Multigraph()
    mg.add("a", "b")
    assert brute_force_optimum(mg) == (0, {})
    two = Multigraph()
    two.add("a", "b")
    two.add("b", "a")
    size, witness = brute_force_optimum(two)
    assert size == 1 and sum(witness.values()) == 1


def test_oracle_cap_enforced():
    mg = Multigraph()
    mg.add("a", "b", 21)
    with pytest.raises(ValueError):
        brute_force_optimum(mg, cap=20)


def test_oracle_witness_is_feasible_and_minimal_on_random_instances():
    rng = random.Random(73)
    for _ in range(40):
        mg = random_multigraph(rng)
        size, witness = brute_force_optimum(mg)
        residual = copy_of(mg)
        for bundle, count in witness.items():
            assert residual.bundles[bundle] == count  # whole bundles only
            del residual.bundles[bundle]
        assert order_of(residual) is not None
        # no strictly cheaper bundle subset is acyclic
        bundles = sorted(mg.bundles.items())
        for mask in range(1 << len(bundles)):
            cost = sum(m for i, (_, m) in enumerate(bundles) if mask >> i & 1)
            if cost >= size:
                continue
            candidate = Multigraph(
                nodes=set(mg.nodes),
                bundles={b: m for i, (b, m) in enumerate(bundles)
                         if not mask >> i & 1})
            assert order_of(candidate) is None


def test_best_of_50_against_oracle_on_small_instances():
    # Per-run success probability is instance-dependent, so equality holds
    # for the overwhelming majority but not universally; the best size is
    # never below the optimum, and the triangle fixture (per-run 1/6) is
    # asserted exactly in the acceptance suite.
    rng = random.Random(79)
    checked = matched = 0
    for trial in range(30):
        mg = random_multigraph(rng)
        if mg.total_arcs() > 12:
            continue
        checked += 1
        optimum, _ = brute_force_optimum(mg)
        best, _ = solve(mg, t=50, seed=trial)
        assert best.size >= optimum
        matched += best.size == optimum
    assert checked >= 20
    # misses concentrate on heavy two-cycles whose per-run success rate
    # is a few percent; with this seeded instance set 26 of 29 match
    assert matched / checked >= 0.85


# calibration ---------------------------------------------------------------------

def test_wilson_interval_sanity():
    low, high = wilson_interval(50, 100, confidence=0.95)
    assert low < 0.5 < high
    assert wilson_interval(0, 0) == (0.0, 1.0)
    tight_low, tight_high = wilson_interval(50, 100, confidence=0.5)
    assert tight_low > low and tight_high < high


@pytest.mark.parametrize("confidence", [-0.5, 0.0, 1.0, 1.5, float("nan")])
def test_confidence_outside_unit_interval_refused_before_any_run(monkeypatch,
                                                                 confidence):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking the confidence")

    monkeypatch.setattr(mfas, "run_once", no_run)
    monkeypatch.setattr(mfas, "brute_force_optimum", no_run)
    message = f"confidence must lie in \\(0, 1\\), got {confidence!r}"
    with pytest.raises(ValueError, match=message):
        wilson_interval(5, 10, confidence=confidence)
    with pytest.raises(ValueError, match=message):
        wilson_interval(0, 0, confidence=confidence)
    with pytest.raises(ValueError, match=message):
        calibration_harness(triangle_example(), t=10, trials=3000, seed=1,
                            confidence=confidence)


def test_calibration_on_acyclic_instance_all_optimal():
    mg = Multigraph()
    mg.add("a", "b", 2)
    result = calibration_harness(mg, t=4, trials=20, seed=11)
    assert result.optimum == 0
    assert result.empirical_cumulative == [1.0] * 4
    assert result.per_run_success_rate == 1.0


def test_calibration_triangle_rate_and_curves():
    result = calibration_harness(triangle_example(), t=10, trials=300, seed=17)
    assert result.optimum == 1
    assert result.wilson_low <= 1 / 6 <= result.wilson_high
    curve = result.empirical_cumulative
    assert all(b >= a for a, b in zip(curve, curve[1:]))  # monotone
    assert result.theoretical_cumulative[0] == Fraction(1, 2)
    assert len(result.records) == 300
    for record in result.records:
        if record.first_success_run is not None:
            assert record.best_size == 1


def test_calibration_deterministic():
    a = calibration_harness(triangle_example(), t=5, trials=50, seed=23)
    b = calibration_harness(triangle_example(), t=5, trials=50, seed=23)
    assert a == b


def test_fenwick_picks_the_bundle_bisect_picks():
    """The tree descent picks what ``bisect_right`` over the running sums
    picks, for every draw, at every length (powers of two and not) and
    after point updates, zeroed weights included."""
    rng = random.Random(11)
    for n in list(range(0, 18)) + [31, 33, 100]:
        weight = [rng.choice([0, 0, 1, 2, 5]) for _ in range(n)]
        tree = mfas._fenwick(weight)
        for _ in range(4):
            running = list(accumulate(weight))
            assert tree[-1] == sum(weight)
            for target in range(sum(weight)):
                assert mfas._fenwick_find(tree, target) == bisect_right(running, target)
            for i in rng.sample(range(n), min(n, 3)):
                delta = -weight[i] if rng.random() < 0.5 else -min(weight[i], 1)
                weight[i] += delta
                mfas._fenwick_add(tree, i, delta)
