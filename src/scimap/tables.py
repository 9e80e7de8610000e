"""Deterministic delimited-table output shared by all commands.

Every artifact starts with a ``#``-prefixed header block (engine version,
config hash, corpus provenance, seed when randomized) followed by an
RFC-4180-style CSV body.  Identical inputs produce byte-identical files.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from heapq import nsmallest
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from . import ENGINE_VERSION


def round_half_up(value: float, places: int = 2) -> float:
    """Round with ties away from zero (the documented printing convention).

    The decimal digits of ``repr(value)`` are rounded at ``places`` (0
    or more) as one integer, so the result is the float nearest that
    decimal, as ``Decimal(repr(value)).quantize`` with ``ROUND_HALF_UP``
    gives it, sign of zero included, but with no limit on the digits.
    NaN and infinities pass through."""
    if not math.isfinite(value):
        return value
    text = repr(value)
    negative = text[0] == "-"
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    # |value| * 10**places = int(whole + fraction) / 10**dropped
    dropped = len(fraction) - places - int(exponent or 0)
    if dropped <= 0:  # already exact at ``places``
        return float(value)
    unit = 10 ** dropped
    rounded, rest = divmod(int(whole + fraction), unit)
    if 2 * rest >= unit:
        rounded += 1
    result = rounded / 10 ** places  # int division rounds correctly
    return -result if negative else result


def fmt(value: Any, places: int = 2) -> str:
    """Render a cell: floats at fixed places (round-half-up; ``nan`` and
    ``inf`` as such), rest as str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{round_half_up(value, places):.{places}f}"
    if value is None:
        return ""
    return str(value)


def ranked(pairs: Iterable[tuple[Any, Any]], k: Optional[int] = None) -> list:
    """(name, value) pairs by descending value, ties by ascending name:
    all of them, or the first ``k``.  A ``k`` below 1 raises ValueError."""
    if k is None:
        # Two stable sorts, by name and then by value descending, give the
        # order of the (-value, name) key without building a key tuple.
        out = sorted(pairs, key=itemgetter(0))
        out.sort(key=itemgetter(1), reverse=True)
        return out
    if k < 1:
        raise ValueError(f"top-k must be at least 1, got {k}")
    return nsmallest(k, pairs, key=lambda item: (-item[1], item[0]))


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable SHA-256 of a resolved configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def header_lines(meta: Mapping[str, Any] | None) -> list[str]:
    """The header of every artifact, table or graph: the engine version,
    then one ``key: value`` line per meta entry, each without a prefix."""
    lines = [f"scimap {ENGINE_VERSION}"]
    lines.extend(f"{key}: {value}" for key, value in (meta or {}).items())
    return lines


def write_table(rows: Sequence[Sequence[Any]], schema: Sequence[str],
                path: str | Path, meta: Mapping[str, Any] | None = None) -> Path:
    """Write a table artifact; returns the path written.  Every row's
    width is checked before the file is opened, so a bad row leaves no
    file; the rows then go to the open file as they are rendered."""
    width = len(schema)
    if set(map(len, rows)) - {width}:
        bad = next(len(row) for row in rows if len(row) != width)
        raise ValueError(f"row width {bad} != schema width {width}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as out:
        out.writelines(f"# {line}\n" for line in header_lines(meta))
        writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(schema)
        # csv writes None as an empty field.
        writer.writerows(rows)
    return path
