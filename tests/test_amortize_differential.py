"""The amortized h-index and its tie resolution against the versions
they replaced.

``amortized_h_index`` and ``resolve_amortized_ties`` must return the same
items (equal fields, ``Fraction`` values included) in the same order as
``amortize_reference``, or raise a ``ValueError`` with the same message.
The h-index items come from (id, h, first year) triples; the tie
resolution also runs on items built by hand, whose normalized scalar is
any positive fraction, so items with different denominators can tie.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

import amortize_reference
from scimap.amortize import AmortizedItem, amortized_h_index, resolve_amortized_ties

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

REFERENCE_YEAR = 2023


def outcome(function, *args):
    try:
        return [tuple(item) for item in function(*args)]
    except ValueError as exc:
        return str(exc)


# Small h and year ranges and few ids, so ties, repeated ids and equal
# first years are common; a year after the reference year or a negative
# h must raise as before.
TRIPLES = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
                             st.integers(-1, 12), st.integers(2005, REFERENCE_YEAR + 1)),
                   max_size=10)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(triples=TRIPLES)
def test_amortized_h_index_and_ties_match_the_reference(triples):
    expected = outcome(amortize_reference.amortized_h_index, triples, REFERENCE_YEAR)
    assert outcome(amortized_h_index, triples, REFERENCE_YEAR) == expected
    if isinstance(expected, list):
        items = amortized_h_index(triples, REFERENCE_YEAR)
        assert outcome(resolve_amortized_ties, items) == \
            outcome(amortize_reference.resolve_amortized_ties, items)


SCALARS = st.one_of(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
)


@st.composite
def hand_built_items(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(["x", "y", "z", "w"]),
                                   st.integers(0, 9), st.integers(1990, 2023),
                                   SCALARS, st.sampled_from([None, "kept"])),
                         max_size=10))
    return [AmortizedItem(item_id, h, year, REFERENCE_YEAR - year + 1, nps,
                          nps * h, flag)
            for item_id, h, year, nps, flag in rows]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(items=hand_built_items())
def test_resolve_amortized_ties_on_hand_built_items(items):
    assert outcome(resolve_amortized_ties, items) == \
        outcome(amortize_reference.resolve_amortized_ties, items)


def test_many_items_with_long_tie_chains():
    rng = random.Random(2501)
    triples = [(f"author{k}", rng.choice([0, 1, 1, 2, 2, 3, 5, 8, 13]),
                rng.randrange(1995, REFERENCE_YEAR + 1)) for k in range(600)]
    items = amortized_h_index(triples, REFERENCE_YEAR)
    assert [tuple(item) for item in items] == \
        outcome(amortize_reference.amortized_h_index, triples, REFERENCE_YEAR)
    assert outcome(resolve_amortized_ties, items) == \
        outcome(amortize_reference.resolve_amortized_ties, items)
