"""Test-only oracle: the half-up rounding that ``scimap.tables`` shipped
before it rounded on integers, kept verbatim.

It quantizes ``Decimal(repr(value))`` under the default context, so it
raises ``decimal.InvalidOperation`` on infinities and on results of more
than 28 digits.  ``tests/test_rounding_differential.py`` requires the
shipped ``round_half_up`` to return the same float, sign of zero
included, wherever this function returns one.
"""
from __future__ import annotations

from decimal import Decimal, ROUND_HALF_UP


def round_half_up(value: float, places: int = 2) -> float:
    """Round with ties away from zero (the documented printing convention)."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
