"""Test-only oracle: the WoS plaintext reader that ``scimap.parsing``
shipped before it took one tag pattern and one continuation branch,
kept verbatim.

It matches a ``TAG value`` line and a bare ``TAG`` line with two
patterns, and appends indented lines and other non-tag lines inside a
record through two branches.  ``tests/test_parsing_differential.py``
requires the shipped ``parse_plaintext_export`` to return the same
entries, flags and record indexes as this function, or to raise an
``ExportParseError`` with the same message, for every input.
"""
from __future__ import annotations

import re
from typing import Optional

from scimap.parsing import ExportParseError, _decode
from scimap.records import RawRecord

# Tags that belong to the file envelope, not to any record.
_FILE_TAGS = {"FN", "VR", "EF"}

_TAG_LINE = re.compile(r"^([A-Z][A-Z0-9]) (.*)$")
_TAG_ONLY = re.compile(r"^([A-Z][A-Z0-9])$")


def parse_plaintext_export(data: bytes, source_file: str = "") -> list[RawRecord]:
    """Parse a WoS tagged plaintext export into raw records.

    Records are sequences of ``TAG value`` lines terminated by ``ER``;
    continuation lines are indented with three spaces and append to the
    preceding tag's value list.  ``FN`` / ``VR`` header lines and the final
    ``EF`` trailer are ignored.
    """
    text = _decode(data)
    records: list[RawRecord] = []
    current: Optional[RawRecord] = None
    last_tag: Optional[str] = None
    index = 0

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        match = _TAG_LINE.match(line)
        tag_only = _TAG_ONLY.match(line) if match is None else None
        tag = match.group(1) if match else (tag_only.group(1) if tag_only else None)

        if tag == "EF":
            break
        if tag == "ER":
            if current is None:
                raise ExportParseError("record terminator without record",
                                       record_index=index, line=lineno)
            records.append(current)
            current, last_tag = None, None
            index += 1
            continue
        if tag in _FILE_TAGS:
            continue
        if tag is not None:
            if current is None:
                current = RawRecord(source_file=source_file, record_index=index)
            value = match.group(2).strip() if match else ""
            if value:
                current.add(tag, value)
            else:
                current.entries.setdefault(tag, [])
            last_tag = tag
            continue
        if line.startswith("   ") and current is not None and last_tag is not None:
            value = line[3:].strip()
            if value:
                current.add(last_tag, value)
            continue
        # Junk outside records is header/trailer noise; inside a record we
        # treat it as a lenient continuation rather than failing the file.
        if current is not None and last_tag is not None:
            current.add(last_tag, line.strip())

    if current is not None:
        raise ExportParseError("unterminated record (missing ER)",
                               record_index=index)
    return records
