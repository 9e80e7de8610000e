"""Parsers for the two Web of Science export carriers.

Both parsers are total over arbitrary byte input: they either return a list
of ``RawRecord`` or raise ``ExportParseError`` with a position.  Unknown
field tags are preserved verbatim and are never fatal.
"""
from __future__ import annotations

import re
from typing import Optional

from .records import RawRecord
from .textterms import collapse_whitespace

# Tags that belong to the file envelope, not to any record.
_FILE_TAGS = {"FN", "VR", "EF"}

# A two-character tag, then a space or the end of the line.
_TAG = re.compile(r"[A-Z][A-Z0-9](?: |$)")


class ExportParseError(ValueError):
    """Raised when an export file cannot be parsed; carries a position.

    ``record_index`` counts records from 0, as ``RawRecord.record_index``
    does; the message counts them from 1, as the command line does."""

    def __init__(self, message: str, source_file: str = "",
                 record_index: Optional[int] = None,
                 line: Optional[int] = None, offset: Optional[int] = None):
        where = source_file or "<input>"
        if record_index is not None:
            where += f", record {record_index + 1}"
        if line is not None:
            where += f", line {line}"
        if offset is not None:
            where += f", byte {offset}"
        super().__init__(f"{message} ({where})")
        self.source_file = source_file
        self.record_index = record_index
        self.line = line
        self.offset = offset


def _decode(data: bytes, source_file: str) -> str:
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExportParseError(
            f"input is not valid UTF-8: {exc.reason}",
            source_file=source_file, offset=exc.start) from None


def parse_plaintext_export(data: bytes, source_file: str = "") -> list[RawRecord]:
    """Parse a WoS tagged plaintext export into raw records.

    Records are sequences of ``TAG value`` lines terminated by ``ER``.
    Any other non-blank line inside a record, such as the three-space
    indented continuation lines of the export, appends to the preceding
    tag's value list.  ``FN`` / ``VR`` header lines and non-tag lines
    outside records are ignored, and the ``EF`` trailer ends the file.
    """
    text = _decode(data, source_file)
    records: list[RawRecord] = []
    current: Optional[RawRecord] = None
    last_tag = ""

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if not _TAG.match(line):
            # inside a record a lenient continuation, not a failed file
            if current is not None:
                current.add(last_tag, line.strip())
            continue
        tag, value = line[:2], line[3:].strip()
        if tag == "EF":
            break
        if tag == "ER":
            if current is None:
                raise ExportParseError("record terminator without record",
                                       source_file, record_index=len(records),
                                       line=lineno)
            records.append(current)
            current = None
        elif tag not in _FILE_TAGS:
            if current is None:
                current = RawRecord(source_file=source_file,
                                    record_index=len(records))
            values = current.entries.setdefault(tag, [])
            if value:
                values.append(value)
            last_tag = tag

    if current is not None:
        raise ExportParseError("unterminated record (missing ER)",
                               source_file, record_index=len(records))
    return records


# BibTeX flavor ----------------------------------------------------------

# Export field names mapped onto the plaintext tag vocabulary.
_BIBTEX_FIELD_TAGS = {
    "author": "AU",
    "title": "TI",
    "journal": "SO",
    "year": "PY",
    "abstract": "AB",
    "keywords": "DE",
    "keywords-plus": "ID",
    "cited-references": "CR",
    "times-cited": "TC",
    "number-of-cited-references": "NR",
    "type": "DT",
    "doctype": "DT",
    "language": "LA",
    "doi": "DI",
    "web-of-science-categories": "WC",
    "affiliation": "C1",
    "affiliations": "C1",
    "reprint-address": "RP",
}

# Common auxiliary export fields kept under their conventional tags.
_BIBTEX_AUX_TAGS = {
    "volume": "VL",
    "number": "IS",
    "pages": "PG",
    "month": "PD",
    "publisher": "PU",
    "issn": "SN",
    "eissn": "EI",
    "unique-id": "UT",
    "journal-iso": "J9",
    "research-areas": "SC",
    "note": "NT",
}

# Fields whose value is a list; the splitting separator per tag.
_MULTI_VALUE_SEPS = {"AU": " and ", "DE": "; ", "ID": "; "}

# Tags with semantics Table-4 analyses rely on; synthetic fallback tags for
# unknown fields must never collide with these.
_RESERVED_TAGS = {tag for tag in _BIBTEX_FIELD_TAGS.values()} | {"ER", "EF", "FN", "VR", "PT"}


def parse_bibtex_export(data: bytes, source_file: str = "",
                        reference_separator: str = "\n") -> list[RawRecord]:
    """Parse a BibTeX-flavored export into the plaintext tag vocabulary.

    ``reference_separator`` splits the cited-references field (export
    tooling varies; the default is one reference per line).  Unbalanced
    braces raise with a byte offset; a duplicated field within one entry
    keeps the last value and flags the record.
    """
    text = _decode(data, source_file)
    records: list[RawRecord] = []
    pos = 0
    index = 0
    n = len(text)
    while True:
        at = text.find("@", pos)
        if at < 0:
            break
        brace = text.find("{", at)
        if brace < 0:
            raise ExportParseError("entry has no opening brace",
                                   source_file, record_index=index, offset=at)
        entry_type = text[at + 1:brace].strip().lower()
        if entry_type == "comment":
            pos = _skip_braced(text, brace, source_file, index)
            continue
        record = RawRecord(source_file=source_file, record_index=index)
        end = _parse_entry_body(text, brace, record, source_file, index,
                                reference_separator)
        records.append(record)
        index += 1
        pos = end
        if pos >= n:
            break
    return records


def _skip_braced(text: str, open_brace: int, source_file: str, index: int) -> int:
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    raise ExportParseError("unbalanced braces", source_file,
                           record_index=index, offset=open_brace)


def _parse_entry_body(text: str, open_brace: int, record: RawRecord,
                      source_file: str, index: int,
                      reference_separator: str) -> int:
    """Parse ``{ key, name = {value}, ... }`` starting at ``open_brace``."""
    i = open_brace + 1
    n = len(text)
    # Citation key: up to the first comma at depth 1 (may be empty).
    comma = _find_at_depth(text, i, ",")
    close = _find_at_depth(text, i, "}")
    if close is None:
        raise ExportParseError("unbalanced braces", source_file,
                               record_index=index, offset=open_brace)
    if comma is None or comma > close:
        return close + 1  # key-only entry, no fields
    key = text[i:comma].strip()
    if key:
        record.add("UT", key)
    i = comma + 1
    seen: set[str] = set()
    while i < n:
        while i < n and text[i] in " \t\r\n,":
            i += 1
        if i >= n:
            raise ExportParseError("unbalanced braces", source_file,
                                   record_index=index, offset=open_brace)
        if text[i] == "}":
            return i + 1
        eq = text.find("=", i)
        if eq < 0:
            raise ExportParseError("field without '='", source_file,
                                   record_index=index, offset=i)
        name = text[i:eq].strip().lower()
        i = eq + 1
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n:
            raise ExportParseError("unbalanced braces", source_file,
                                   record_index=index, offset=open_brace)
        if text[i] == "{":
            end = _skip_braced(text, i, source_file, index)
            value = text[i + 1:end - 1]
            i = end
        elif text[i] == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ExportParseError("unterminated quoted value", source_file,
                                       record_index=index, offset=i)
            value = text[i + 1:end]
            i = end + 1
        else:  # bare token (numbers)
            end = i
            while end < n and text[end] not in ",}\r\n":
                end += 1
            value = text[i:end]
            i = end
        _store_field(record, name, value, seen, reference_separator)
    raise ExportParseError("unbalanced braces", source_file,
                           record_index=index, offset=open_brace)


def _find_at_depth(text: str, start: int, needle: str) -> Optional[int]:
    depth = 0
    for i in range(start, len(text)):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            if depth == 0:
                return i if needle == "}" else None
            depth -= 1
        elif ch == needle and depth == 0:
            return i
    return None


def _store_field(record: RawRecord, name: str, value: str, seen: set[str],
                 reference_separator: str) -> None:
    tag = _BIBTEX_FIELD_TAGS.get(name) or _BIBTEX_AUX_TAGS.get(name)
    if tag is None:
        # Unknown export field: preserve it under a synthetic two-character
        # tag unless that would collide with a tag carrying real semantics.
        candidate = re.sub(r"[^A-Z0-9]", "", name.upper())[:2]
        if len(candidate) == 2 and candidate not in _RESERVED_TAGS:
            tag = candidate
        else:
            record.flags.append(f"unmapped-field:{name}")
            return
    value = _strip_braces(value)
    if name in seen:
        record.flags.append(f"duplicate-field:{name}")
        record.entries.pop(tag, None)
    seen.add(name)
    if tag == "CR":
        parts = [p.strip().rstrip(".") for p in value.split(reference_separator)]
        for part in parts:
            if part:
                record.add(tag, collapse_whitespace(part))
    elif tag == "C1":
        # one affiliation per line; the bracketed author prefix may hold
        # semicolons, so only newlines separate entries
        for part in value.split("\n"):
            part = part.strip()
            if part:
                record.add(tag, collapse_whitespace(part))
    elif tag in _MULTI_VALUE_SEPS:
        for part in value.split(_MULTI_VALUE_SEPS[tag]):
            part = collapse_whitespace(part)
            if part:
                record.add(tag, part)
    else:
        record.add(tag, collapse_whitespace(value))


def _strip_braces(value: str) -> str:
    value = value.strip()
    while value.startswith("{") and value.endswith("}") and _balanced(value[1:-1]):
        value = value[1:-1].strip()
    for escaped, plain in (("\\&", "&"), ("\\%", "%"), ("\\_", "_"),
                           ("\\#", "#"), ("\\$", "$")):
        value = value.replace(escaped, plain)
    return value


def _balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0
