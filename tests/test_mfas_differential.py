"""The incremental MFAS sampler against its full-rescan oracle.

``run_once`` must consume the same random draws and pick the same
bundles as ``mfas_reference.run_once`` for every seed: equal removals,
size and witness order.  The oracle runs with ``check_support`` on every
comparison, so each removal is also re-verified to lie on a cycle.  ``solve``
and ``calibration_harness``, which share one start among their runs,
must return what they return when every run is the oracle's.  The graphs
have several strongly connected components (rings plus random arcs
inside ordered blocks), acyclic bridges from earlier to later blocks,
isolated nodes and multiplicities 1 to 3, so runs both decrement bundles
and split components.
"""
from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import mfas_reference  # noqa: E402
from scimap import mfas  # noqa: E402
from scimap.mfas import (  # noqa: E402
    Multigraph, calibration_harness, run_once, solve, witness_order,
)

SEEDS = range(12)


@st.composite
def block_multigraphs(draw):
    n = draw(st.integers(2, 15))
    names = draw(st.permutations([f"v{i:02d}" for i in range(n)]))
    block = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    mg = Multigraph(nodes=set(names))
    for b in sorted(set(block)):
        members = [names[i] for i in range(n) if block[i] == b]
        if len(members) > 1 and draw(st.booleans()):
            for u, v in zip(members, members[1:] + members[:1]):
                mg.add(u, v, draw(st.integers(1, 3)))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(n)
             if i != j and block[i] <= block[j]]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)):
        mg.add(u, v, draw(st.integers(1, 3)))
    return mg


def assert_same_runs(mg, seeds):
    for seed in seeds:
        got = run_once(mg, seed)
        want = mfas_reference.run_once(mg, seed, check_support=True)
        assert list(got.removed.items()) == list(want.removed.items()), seed
        assert got.size == want.size
        assert witness_order(mg, got.removed) == want.witness_order


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mg=block_multigraphs())
def test_run_once_equals_reference(mg):
    assert_same_runs(mg, SEEDS)


def test_run_once_equals_reference_on_large_components():
    # Three 20-node rings with chords and bridges: long runs that empty
    # many bundles inside big components before they fall apart.
    rng = random.Random(41)
    mg = Multigraph()
    blocks = [[f"b{b}n{k:02d}" for k in range(20)] for b in range(3)]
    for members in blocks:
        for u, v in zip(members, members[1:] + members[:1]):
            mg.add(u, v, rng.randint(1, 3))
        for _ in range(30):
            u, v = rng.sample(members, 2)
            mg.add(u, v, rng.randint(1, 3))
    for _ in range(20):
        first, second = sorted(rng.sample(range(3), 2))
        mg.add(rng.choice(blocks[first]), rng.choice(blocks[second]))
    assert_same_runs(mg, range(4))


def reference_driven(function, *args, **kwargs):
    """``function`` with every run it makes done by the oracle."""
    def oracle_run(mg, seed, *, start=None):
        return mfas_reference.run_once(mg, seed, check_support=True)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfas, "run_once", oracle_run)
        return function(*args, **kwargs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mg=block_multigraphs(), seed=st.integers(0, 2**32))
def test_solve_equals_reference_driven_solve(mg, seed):
    best, report = solve(mg, t=6, seed=seed)
    want, want_report = reference_driven(solve, mg, t=6, seed=seed)
    assert list(best.removed.items()) == list(want.removed.items())
    assert best.size == want.size
    assert witness_order(mg, best.removed) == want.witness_order
    assert report == want_report


def test_calibration_equals_reference_driven_calibration():
    rng = random.Random(23)
    for trial in range(12):
        mg = Multigraph()
        names = [f"v{i}" for i in range(rng.randrange(3, 6))]
        arcs = rng.randrange(4, 11)
        while mg.total_arcs() < arcs:
            mg.add(*rng.sample(names, 2), rng.randint(1, 2))
        got = calibration_harness(mg, t=5, trials=20, seed=trial)
        want = reference_driven(calibration_harness, mg, t=5, trials=20, seed=trial)
        assert got.records == want.records
        assert got.empirical_cumulative == want.empirical_cumulative
        assert got.per_run_success_rate == want.per_run_success_rate
        assert got == want
