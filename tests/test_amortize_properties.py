"""Property tests of the amortized h-index and its tie resolution, and
of ``amortize`` on float metrics.

The expected values come from the closed form amortized = h * min_cy / cy,
where cy is an item's citable years and min_cy the smallest in the item
set, computed here without ``amortize``.  A float metric or display
scale counts as the exact decimal its ``repr`` shows.
"""
from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scimap.amortize import (  # noqa: E402
    amortize, amortized_h_index, resolve_amortized_ties,
)

REFERENCE_YEAR = 2023
FLAG = "tie-at-zero-broken-by-first-year"

# Small h and year ranges, so tied amortized values are common.
ITEMS = st.lists(st.tuples(st.integers(0, 12), st.integers(2012, REFERENCE_YEAR)),
                 min_size=1, max_size=8).map(
    lambda rows: [(f"i{k}", h, year) for k, (h, year) in enumerate(rows)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(items=ITEMS)
def test_amortized_h_index_and_ties_match_closed_form(items):
    before = list(items)
    cy = {item_id: REFERENCE_YEAR - year + 1 for item_id, _, year in items}
    min_cy = min(cy.values())
    raw_h = {item_id: h for item_id, h, _ in items}

    def closed_form(item_id, h):
        return Fraction(h * min_cy, cy[item_id])

    ranked = amortized_h_index(items, REFERENCE_YEAR)
    assert items == before
    assert sorted(item.id for item in ranked) == sorted(raw_h)
    for item in ranked:
        assert item.h == raw_h[item.id]
        assert item.citable_years == cy[item.id]
        assert item.amortized == closed_form(item.id, item.h)
        assert item.tie_flag is None
    values = [item.amortized for item in ranked]
    assert values == sorted(values, reverse=True)

    snapshot = list(ranked)
    resolved = resolve_amortized_ties(ranked)
    assert ranked == snapshot
    assert sorted(item.id for item in resolved) == sorted(raw_h)
    for item in resolved:
        assert 0 <= item.h <= raw_h[item.id]
        assert item.amortized == closed_form(item.id, item.h)
    keys = [(-item.amortized, item.first_year, item.id) for item in resolved]
    assert keys == sorted(keys)
    counts = Counter(item.amortized for item in resolved)
    for item in resolved:
        if counts[item.amortized] > 1:
            assert item.tie_flag == FLAG


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(st.integers(2000, REFERENCE_YEAR), FINITE),
                       min_size=1, max_size=6),
       scale=FINITE)
def test_amortize_reads_a_float_as_the_decimal_it_prints(points, scale):
    def decimal(value):
        return Fraction(Decimal(repr(value)))

    cy = [REFERENCE_YEAR - year + 1 for year, _ in points]
    rows = amortize(points, REFERENCE_YEAR, display_scale=scale)
    for (year, metric), own_cy, row in zip(points, cy, rows):
        assert row.metric == decimal(metric)
        assert row.amortized == Fraction(min(cy), own_cy) * decimal(metric)
        assert row.display == row.amortized * decimal(scale)
