from __future__ import annotations

import random
from fractions import Fraction

import pytest

from scimap.amortize import (
    amortize, amortized_h_index, citable_years, h_index, resolve_amortized_ties,
)

# Ten-row worked example: (year, h, citable years, pondering scalar,
# normalized scalar, amortized value).  The printed reference values are
# truncated to 4 decimals; comparisons allow 1e-3.
B1_ROWS = [
    (1991, 51, 10, 1.0000, 0.1000, 5.1000),
    (1992, 44, 9, 1.1111, 0.1111, 4.8888),
    (1993, 42, 8, 1.2500, 0.1250, 5.2500),
    (1994, 36, 7, 1.4285, 0.1428, 5.1428),
    (1995, 34, 6, 1.6666, 0.1666, 5.6666),
    (1996, 27, 5, 2.0000, 0.2000, 5.4000),
    (1997, 21, 4, 2.5000, 0.2500, 5.2500),
    (1998, 14, 3, 3.3333, 0.3333, 4.6666),
    (1999, 11, 2, 5.0000, 0.5000, 5.5000),
    (2000, 5, 1, 10.0000, 1.0000, 5.0000),
]


def test_worked_example_all_columns():
    rows = amortize([(year, h) for year, h, *_ in B1_ROWS], reference_year=2000)
    for row, (year, h, cy, ps, nps, amortized) in zip(rows, B1_ROWS):
        assert row.year == year
        assert row.citable_years == cy
        assert abs(float(row.pondering_scalar) - ps) < 1e-3
        assert abs(float(row.normalized_ps) - nps) < 1e-3
        assert abs(float(row.amortized) - amortized) < 1e-3


def test_worked_example_spot_values_exact():
    rows = amortize([(year, h) for year, h, *_ in B1_ROWS], reference_year=2000)
    by_year = {row.year: row for row in rows}
    assert by_year[1991].amortized == Fraction(51, 10)
    assert by_year[1997].normalized_ps == Fraction(1, 4)
    assert by_year[1997].amortized == Fraction(21, 4)  # 0.25 * 21 = 5.25
    assert by_year[2000].amortized == 5  # final year is the fixed point


def test_display_scale_only_affects_display():
    rows = amortize([(1999, 10), (2000, 4)], reference_year=2000, display_scale=7)
    assert rows[0].amortized == 5
    assert rows[0].display == 35
    assert rows[1].amortized == 4
    assert rows[1].display == 28


def test_amortize_rejects_future_years():
    with pytest.raises(ValueError):
        amortize([(2024, 1.0)], reference_year=2023)
    assert citable_years(2023, 2023) == 1


def test_fixed_point_and_monotonicity_properties():
    rng = random.Random(11)
    for _ in range(100):
        ref = rng.randrange(1995, 2024)
        years = sorted(rng.sample(range(1960, ref + 1), rng.randrange(2, 12)))
        metric = rng.randrange(1, 400)
        rows = amortize([(y, metric) for y in years], reference_year=ref)
        youngest = min(rows, key=lambda r: r.citable_years)
        assert youngest.amortized == youngest.metric
        ordered = sorted(rows, key=lambda r: r.citable_years)
        for earlier, later in zip(ordered, ordered[1:]):
            assert earlier.amortized > later.amortized


def test_scale_equivariance_of_ranking():
    rng = random.Random(13)
    for _ in range(50):
        ref = 2023
        points = [(rng.randrange(1990, ref + 1), rng.randrange(1, 500))
                  for _ in range(8)]
        base = amortize(points, reference_year=ref)
        scaled = amortize([(y, m * 17) for y, m in points], reference_year=ref)
        rank = sorted(range(8), key=lambda i: (-base[i].amortized, i))
        rank_scaled = sorted(range(8), key=lambda i: (-scaled[i].amortized, i))
        assert rank == rank_scaled


# h-index --------------------------------------------------------------------

def test_h_index_hirsch_scenario():
    # ten papers, five with 100 citations each, five uncited
    assert h_index([100] * 5 + [0] * 5) == 5


def test_h_index_edge_cases():
    assert h_index([]) == 0
    assert h_index([10, 8, 5, 4, 3]) == 4


def test_h_index_bounds_and_monotone_under_addition():
    rng = random.Random(17)
    for _ in range(300):
        counts = [rng.randrange(0, 40) for _ in range(rng.randrange(0, 25))]
        h = h_index(counts)
        assert 0 <= h <= min(len(counts), max(counts, default=0))
        assert h_index(counts + [rng.randrange(0, 40)]) >= h


# amortized h-index ------------------------------------------------------------

def test_table_as_ten_items():
    items = [(str(year), h, year) for year, h, *_ in B1_ROWS]
    ranked = amortized_h_index(items, reference_year=2000)
    expected = {str(year): amortized for year, *_, amortized in B1_ROWS}
    for item in ranked:
        assert abs(float(item.amortized) - expected[item.id]) < 1e-3
    values = [item.amortized for item in ranked]
    assert values == sorted(values, reverse=True)


def test_single_item_self_normalizes():
    (item,) = amortized_h_index([("only", 33, 2010)], reference_year=2023)
    assert item.amortized == 33


def test_tie_then_resolution():
    items = [("A", 10, 1999), ("B", 5, 2000)]  # reference 2000: cy 2 vs 1
    ranked = amortized_h_index(items, reference_year=2000)
    assert ranked[0].amortized == ranked[1].amortized == 5
    resolved = resolve_amortized_ties(ranked)
    by_id = {item.id: item for item in resolved}
    # one decrement each; the input items keep their raw h
    assert [(item.id, item.h) for item in ranked] == [("A", 10), ("B", 5)]
    assert (by_id["A"].h, by_id["B"].h) == (9, 4)
    assert by_id["A"].amortized == Fraction(9, 2)
    assert by_id["B"].amortized == 4
    assert [item.id for item in resolved] == ["A", "B"]


def test_no_ties_passthrough():
    items = [("A", 12, 2018), ("B", 5, 2021)]
    ranked = amortized_h_index(items, reference_year=2023)
    resolved = resolve_amortized_ties(ranked)
    assert [(i.id, i.amortized) for i in resolved] == \
        [(i.id, i.amortized) for i in ranked]
    assert [(i.id, i.h) for i in resolved] == [("A", 12), ("B", 5)]


def test_degenerate_zero_tie_broken_by_first_year():
    items = [("late", 0, 2000), ("early", 0, 1999)]
    ranked = amortized_h_index(items, reference_year=2000)
    resolved = resolve_amortized_ties(ranked)
    assert [(item.id, item.h) for item in resolved] == [("early", 0), ("late", 0)]
    assert all(item.tie_flag for item in resolved)


def test_resolution_terminates_on_cascading_ties():
    rng = random.Random(23)
    for _ in range(50):
        items = [(f"i{k}", rng.randrange(0, 12), rng.randrange(2015, 2024))
                 for k in range(6)]
        ranked = amortized_h_index(items, reference_year=2023)
        resolved = resolve_amortized_ties(ranked)
        values = [item.amortized for item in resolved]
        unresolved = [v for v in values if values.count(v) > 1]
        for value in unresolved:  # only the h = 0 floor may still collide
            assert value == 0


def test_fractional_metrics_stay_exact():
    # mean-citation rates arrive as decimals; 8.5 must become exactly 17/2
    rows = amortize([(2021, 8.5), (2023, 5.0)], reference_year=2023)
    assert rows[0].metric == Fraction(17, 2)
    assert rows[0].amortized == Fraction(17, 2) / 3
    assert rows[1].amortized == 5
