"""Citation amortization: time-normalized metrics with a recent fixed point.

A per-year metric (an h-index, a mean citation rate) is scaled by a
pondering factor inversely related to the number of citable years, then
normalized so the youngest row keeps its raw value.  Internally everything
is exact rational arithmetic; decimals appear only at presentation.
"""
from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

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
    from fractions import Fraction  # deferred: only amortizing commands pay for it
    cys = {year: citable_years(year, reference_year) for year, _ in points}
    max_cy = max(cys.values())
    max_ps = Fraction(max_cy, min(cys.values()))
    # A float is the decimal its repr (and str) shows: 0.1 is 1/10.
    scale = Fraction(str(display_scale) if isinstance(display_scale, float)
                     else display_scale)
    rows = []
    for year, metric in points:
        value = Fraction(str(metric) if isinstance(metric, float) else metric)
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


class AmortizedItem(NamedTuple):
    id: str
    h: int
    first_year: int
    citable_years: int
    normalized_ps: Fraction
    amortized: Fraction
    tie_flag: Optional[str] = None


def amortized_h_index(items: Sequence[tuple[str, int, int]],
                      reference_year: int) -> list[AmortizedItem]:
    """Amortize h-indexes of items with differing track-record start years.

    ``items`` are (id, h, first_year) triples; normalization runs across
    the item set, so the item with the shortest record keeps its raw h:
    the normalized scalar is the shortest record's citable years over
    the item's own, as :func:`amortize` normalizes.  Returns the items
    ranked by descending amortized value (ties keep input order; resolve
    them with :func:`resolve_amortized_ties`).
    """
    cys = [citable_years(first_year, reference_year) for _, _, first_year in items]
    if not items:
        return []
    from fractions import Fraction  # deferred: only amortizing commands pay for it
    shortest = min(cys)
    out = []
    for (item_id, h, first_year), cy in zip(items, cys):
        if h < 0:
            raise ValueError(f"negative h for {item_id}")
        nps = Fraction(shortest, cy)
        out.append(AmortizedItem(item_id, h, first_year, cy, nps, nps * h))
    units = _units(out)
    order = sorted(range(len(out)), key=lambda i: (-out[i].h * units[i], out[i].id))
    return [out[i] for i in order]


def _units(items: Sequence[AmortizedItem]) -> list[int]:
    """Each item's normalized scalar times ``L``, the lcm of the scalars'
    denominators: ``numerator * (L // denominator)``, an integer.  Times
    ``h`` it is the amortized value times ``L``, so it groups and ranks
    items as their values do, without a ``Fraction`` operation."""
    scale = lcm(*{item.normalized_ps.denominator for item in items})
    return [item.normalized_ps.numerator * (scale // item.normalized_ps.denominator)
            for item in items]


def resolve_amortized_ties(items: Sequence[AmortizedItem]) -> list[AmortizedItem]:
    """Break amortized-value ties by decrementing the raw h of tied items.

    Every item in a tied group loses one h point per round and its
    amortized value is recomputed, until no two items share a value
    above zero; a tie at zero cannot be resolved, so it is broken in
    favor of the earlier first year and flagged.  Returns the re-ranked
    items; their ``h`` is the raw h less the decrements applied.

    An item's amortized value is its normalized scalar times its h, and
    items are grouped on that value scaled to an integer (``_units``).
    A round moves only tied items, so a tie in the next round holds at
    least one of them: only their new values are looked up.
    """
    units = _units(items)
    hs = [item.h for item in items]
    keys = [h * unit for h, unit in zip(hs, units)]
    groups: dict[int, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    candidates = set(groups)
    while True:
        # A value above zero means h > 0, the normalized scalar being positive.
        tied = [i for key in candidates if key and len(groups[key]) > 1
                for i in groups.pop(key)]
        if not tied:
            break
        for i in tied:
            hs[i] -= 1
            keys[i] -= units[i]
            groups.setdefault(keys[i], []).append(i)
        candidates = {keys[i] for i in tied}
    working = [item if item.h == h else
               item._replace(h=h, amortized=item.normalized_ps * h)
               for item, h in zip(items, hs)]
    at_zero = groups.get(0, [])
    if len(at_zero) > 1:
        for i in at_zero:
            working[i] = working[i]._replace(tie_flag="tie-at-zero-broken-by-first-year")
    order = sorted(range(len(working)),
                   key=lambda i: (-keys[i], working[i].first_year, working[i].id))
    return [working[i] for i in order]
