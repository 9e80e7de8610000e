"""Test-only oracle: the BibTeX reader that ``scimap.parsing`` shipped
before it counted braces in one scanner, kept verbatim but for six
fixes, each marked by a ``Fix`` comment:

1. a field name ends at the next ``}``, so a field without ``=`` no
   longer swallows the entries after it;
2. error offsets count bytes of the decoded input (after a stripped
   BOM), as ``_decode`` counts them, not characters;
3. ``@string`` and ``@preamble`` entries are skipped as ``@comment`` is,
   so they are not records;
4. a key-only entry keeps its key as ``UT``;
5. a later field for a tag that an earlier field filled is the
   duplicate, whatever its name, not only a repeated name;
6. such a duplicate drops only the earlier field's values, so a
   repeated ``Unique-ID`` keeps the citation key in ``UT``.

It counts braces one character at a time in three scanners
(``_skip_braced``, ``_find_at_depth`` and ``_balanced``).
``tests/test_bibtex_differential.py`` requires the shipped
``parse_bibtex_export`` to return the same entries, flags and record
indexes as this function, or to raise an ``ExportParseError`` with the
same message, for every input.
"""
from __future__ import annotations

import re
from typing import Optional

from scimap.parsing import ExportParseError, _decode
from scimap.records import RawRecord
from scimap.textterms import collapse_whitespace


# Fix 2: an offset into the decoded text, in bytes of its UTF-8 encoding.
def _byte_offset(text: str, i: int) -> int:
    return len(text[:i].encode("utf-8"))


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
    text = _decode(data)
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
                                   record_index=index, offset=_byte_offset(text, at))
        entry_type = text[at + 1:brace].strip().lower()
        # Fix 3: @string and @preamble hold no document either.
        if entry_type in ("comment", "string", "preamble"):
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
    raise ExportParseError("unbalanced braces",
                           record_index=index, offset=_byte_offset(text, open_brace))


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
        raise ExportParseError("unbalanced braces",
                               record_index=index, offset=_byte_offset(text, open_brace))
    if comma is None or comma > close:
        # Fix 4: the key of a key-only entry is kept.
        key = text[i:close].strip()
        if key:
            record.add("UT", key)
        return close + 1  # key-only entry, no fields
    key = text[i:comma].strip()
    if key:
        record.add("UT", key)
    i = comma + 1
    seen: dict[str, int] = {}
    while i < n:
        while i < n and text[i] in " \t\r\n,":
            i += 1
        if i >= n:
            raise ExportParseError("unbalanced braces",
                                   record_index=index, offset=_byte_offset(text, open_brace))
        if text[i] == "}":
            return i + 1
        eq = text.find("=", i)
        # Fix 1: the field name may not run past the next "}".
        if eq < 0 or text.find("}", i, eq) >= 0:
            raise ExportParseError("field without '='",
                                   record_index=index, offset=_byte_offset(text, i))
        name = text[i:eq].strip().lower()
        i = eq + 1
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n:
            raise ExportParseError("unbalanced braces",
                                   record_index=index, offset=_byte_offset(text, open_brace))
        if text[i] == "{":
            end = _skip_braced(text, i, source_file, index)
            value = text[i + 1:end - 1]
            i = end
        elif text[i] == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise ExportParseError("unterminated quoted value",
                                       record_index=index, offset=_byte_offset(text, i))
            value = text[i + 1:end]
            i = end + 1
        else:  # bare token (numbers)
            end = i
            while end < n and text[end] not in ",}\r\n":
                end += 1
            value = text[i:end]
            i = end
        _store_field(record, name, value, seen, reference_separator)
    raise ExportParseError("unbalanced braces",
                           record_index=index, offset=_byte_offset(text, open_brace))


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


def _store_field(record: RawRecord, name: str, value: str, seen: dict[str, int],
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
    # Fix 5: seen holds tags, not field names.
    if tag in seen:
        record.flags.append(f"duplicate-field:{name}")
        # Fix 6: drop only the earlier field's values, not the citation key.
        if seen[tag]:
            del record.entries[tag][seen[tag]:]
        else:
            record.entries.pop(tag, None)
    seen[tag] = len(record.entries.get(tag, ()))
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
