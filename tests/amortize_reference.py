"""Test-only oracle: the amortized h-index and its tie resolution that
``scimap.amortize`` shipped before it ranked items on integer keys,
kept verbatim.

``amortized_h_index`` reads its rows from ``amortize`` and sorts on the
``Fraction`` values; ``resolve_amortized_ties`` regroups every item on
its ``Fraction`` value in every round.
``tests/test_amortize_differential.py`` requires the shipped functions
to return equal items in the same order, or to raise a ``ValueError``
with the same message, for every input.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from scimap.amortize import AmortizedItem, amortize


def amortized_h_index(items: Sequence[tuple[str, int, int]],
                      reference_year: int) -> list[AmortizedItem]:
    """Amortize h-indexes of items with differing track-record start years.

    ``items`` are (id, h, first_year) triples; normalization runs across
    the item set, so the item with the shortest record keeps its raw h.
    Returns the items ranked by descending amortized value (ties keep
    input order; resolve them with :func:`resolve_amortized_ties`).
    """
    rows = amortize([(first_year, h) for _, h, first_year in items], reference_year)
    out = []
    for (item_id, h, first_year), row in zip(items, rows):
        if h < 0:
            raise ValueError(f"negative h for {item_id}")
        out.append(AmortizedItem(item_id, h, first_year, row.citable_years,
                                 row.normalized_ps, row.amortized))
    out.sort(key=lambda item: (-item.amortized, item.id))
    return out


def resolve_amortized_ties(items: Sequence[AmortizedItem]) -> list[AmortizedItem]:
    """Break amortized-value ties by decrementing the raw h of tied items.

    Every item in a tied group loses one h point per round and its
    amortized value is recomputed, until no two items share a value
    above zero; a tie at zero cannot be resolved, so it is broken in
    favor of the earlier first year and flagged.  Returns the re-ranked
    items; their ``h`` is the raw h less the decrements applied.
    """
    working = list(items)
    while True:
        groups: dict[Fraction, list[int]] = {}
        for index, item in enumerate(working):
            groups.setdefault(item.amortized, []).append(index)
        # A value above zero means h > 0, the normalized scalar being positive.
        tied = [i for value, group in groups.items() if value and len(group) > 1
                for i in group]
        if not tied:
            break
        for i in tied:
            item = working[i]
            working[i] = item._replace(h=item.h - 1,
                                       amortized=item.normalized_ps * (item.h - 1))
    at_zero = groups.get(0, [])
    if len(at_zero) > 1:
        for i in at_zero:
            working[i] = working[i]._replace(tie_flag="tie-at-zero-broken-by-first-year")
    working.sort(key=lambda item: (-item.amortized, item.first_year, item.id))
    return working
