"""Citation amortization: time-normalized metrics with a recent fixed point.

A per-year metric (an h-index, a mean citation rate) is scaled by a
pondering factor inversely related to the number of citable years, then
normalized so the youngest row keeps its raw value.  Internally everything
is exact rational arithmetic; decimals appear only at presentation.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

Metric = Union[int, float, Fraction]


def citable_years(year: int, reference_year: int) -> int:
    """Years a publication from ``year`` has had to collect citations,
    counting the in-progress year as one (conservative estimate)."""
    if year > reference_year:
        raise ValueError(f"year {year} lies after reference year {reference_year}")
    return reference_year - year + 1


class AmortizationRow(NamedTuple):
    year: int
    metric: Fraction
    citable_years: int
    pondering_scalar: Fraction
    normalized_ps: Fraction
    amortized: Fraction
    display: Fraction  # amortized times the display scale, presentation only


def amortize(points: Sequence[tuple[int, Metric]], reference_year: int,
             display_scale: Metric = 1) -> list[AmortizationRow]:
    """Amortize (year, metric) rows against ``reference_year``.

    The pondering scalar of a row is the quotient of the highest citable
    years in the set and the row's own citable years; normalizing by the
    maximum scalar pins the youngest row as the fixed point.  The display
    scale inflates only the separate display value, never the stored
    amortized value.
    """
    if not points:
        return []
    cys = {year: citable_years(year, reference_year) for year, _ in points}
    max_cy = max(cys.values())
    max_ps = Fraction(max_cy, min(cys.values()))
    scale = Fraction(display_scale).limit_denominator(10**9) \
        if isinstance(display_scale, float) else Fraction(display_scale)
    rows = []
    for year, metric in points:
        value = Fraction(metric).limit_denominator(10**9) \
            if isinstance(metric, float) else Fraction(metric)
        ps = Fraction(max_cy, cys[year])
        nps = ps / max_ps
        amortized = nps * value
        rows.append(AmortizationRow(
            year=year, metric=value, citable_years=cys[year],
            pondering_scalar=ps, normalized_ps=nps, amortized=amortized,
            display=amortized * scale))
    return rows


def h_index(citation_counts: Sequence[int]) -> int:
    """Largest h such that at least h entries are >= h."""
    ranked = sorted(citation_counts, reverse=True)
    h = 0
    for i, citations in enumerate(ranked, start=1):
        if citations >= i:
            h = i
        else:
            break
    return h


class AmortizedItem:
    __slots__ = ("id", "h", "first_year", "citable_years", "normalized_ps",
                 "amortized", "tie_flag")

    def __init__(self, id: str, h: int, first_year: int, citable_years: int,
                 normalized_ps: Fraction, amortized: Fraction,
                 tie_flag: Optional[str] = None) -> None:
        self.id = id
        self.h = h
        self.first_year = first_year
        self.citable_years = citable_years
        self.normalized_ps = normalized_ps
        self.amortized = amortized
        self.tie_flag = tie_flag


def amortized_h_index(items: Sequence[tuple[str, int, int]],
                      reference_year: int) -> list[AmortizedItem]:
    """Amortize h-indexes of items with differing track-record start years.

    ``items`` are (id, h, first_year) triples; normalization runs across
    the item set, so the item with the shortest record keeps its raw h.
    Returns the items ranked by descending amortized value (ties keep
    input order; resolve them with :func:`resolve_amortized_ties`).
    """
    if not items:
        return []
    cys = [citable_years(first_year, reference_year) for _, _, first_year in items]
    max_cy, min_cy = max(cys), min(cys)
    max_ps = Fraction(max_cy, min_cy)
    out = []
    for (item_id, h, first_year), cy in zip(items, cys):
        if h < 0:
            raise ValueError(f"negative h for {item_id}")
        nps = Fraction(max_cy, cy) / max_ps
        out.append(AmortizedItem(id=item_id, h=h, first_year=first_year,
                                 citable_years=cy, normalized_ps=nps,
                                 amortized=nps * h))
    out.sort(key=lambda item: (-item.amortized, item.id))
    return out


def resolve_amortized_ties(items: Sequence[AmortizedItem]) -> list[AmortizedItem]:
    """Break amortized-value ties by decrementing the raw h of tied items.

    Every item in a tied group loses one h point per round and its
    amortized value is recomputed, until all values are unique or a tied
    item sits at h = 0; an unresolvable tie at the floor is broken in
    favor of the earlier first year and flagged.  Returns the re-ranked
    items; their ``h`` is the raw h less the decrements applied.
    """
    working = [AmortizedItem(item.id, item.h, item.first_year, item.citable_years,
                             item.normalized_ps, item.amortized, item.tie_flag)
               for item in items]
    while True:
        groups: dict[Fraction, list[AmortizedItem]] = {}
        for item in working:
            groups.setdefault(item.amortized, []).append(item)
        tied = [group for group in groups.values() if len(group) > 1]
        if not tied:
            break
        progressed = False
        for group in tied:
            if all(item.h == 0 for item in group):
                for item in group:
                    item.tie_flag = "tie-at-zero-broken-by-first-year"
                continue
            for item in group:
                if item.h > 0:
                    item.h -= 1
                    item.amortized = item.normalized_ps * item.h
                    progressed = True
        if not progressed:
            break
    working.sort(key=lambda item: (-item.amortized, item.first_year, item.id))
    return working
