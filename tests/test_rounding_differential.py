"""Half-up rounding on integers against the ``Decimal`` rounding it
replaced.

Wherever ``rounding_reference.round_half_up`` returns a float,
``tables.round_half_up`` must return the same float with the same sign,
on hypothesis-drawn floats (decimal ties at every place, ``-0.0``,
subnormals, values of 10^22 and above) at places 0 to 4.  Where the
reference raises, past its 28 digits or on an infinity, the result is
the value itself; NaN passes through, and ``fmt`` prints all three.
"""
from __future__ import annotations

import math
from decimal import InvalidOperation

import pytest

import rounding_reference
from scimap.tables import fmt, round_half_up

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PLACES = st.integers(0, 4)
# A decimal ending in 5 one place past 0 to 5 places: a tie at some place.
TIES = st.tuples(st.integers(-10**9, 10**9), st.integers(1, 6)).map(
    lambda pair: float(f"{pair[0]}5e-{pair[1]}"))
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    TIES,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.005, -0.005, 2.5, -2.5,
                     1e22, -1e22, 1e24, 1e26, 2.675, 1.0005]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e22, max_value=1e300).flatmap(
        lambda v: st.sampled_from([v, -v])),
)


def same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(value=VALUES, places=PLACES)
def test_round_half_up_matches_decimal_quantize(value, places):
    got = round_half_up(value, places)
    try:
        expected = rounding_reference.round_half_up(value, places)
    except InvalidOperation:  # more than 28 digits
        assert same_float(got, value), (value, places, got)
        return
    assert same_float(got, expected), (value, places, got, expected)


@pytest.mark.parametrize("value, places, expected", [
    (0.125, 2, 0.13), (-0.125, 2, -0.13), (2.5, 0, 3.0), (-2.5, 0, -3.0),
    (0.045, 2, 0.05), (-0.004, 2, -0.0), (-0.0, 0, -0.0), (1e30, 4, 1e30),
])
def test_ties_go_away_from_zero_and_zero_keeps_its_sign(value, places, expected):
    assert same_float(round_half_up(value, places), expected)


def test_non_finite_values_pass_through():
    inf = float("inf")
    assert round_half_up(inf) == inf and round_half_up(-inf, 4) == -inf
    assert math.isnan(round_half_up(float("nan")))
    assert (fmt(inf), fmt(-inf, 4), fmt(float("nan"))) == ("inf", "-inf", "nan")
    assert fmt(-0.001) == "-0.00"
