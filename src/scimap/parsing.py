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
    """Raised when an export cannot be parsed; carries a position inside
    it, never the file's name, which the caller adds.

    ``record_index`` counts records from 0, as ``RawRecord.record_index``
    does; the message counts them from 1, as the command line does."""

    def __init__(self, message: str, record_index: Optional[int] = None,
                 line: Optional[int] = None, offset: Optional[int] = None):
        places = (("record", None if record_index is None else record_index + 1),
                  ("line", line), ("byte", offset))
        where = ", ".join(f"{name} {value}" for name, value in places
                          if value is not None)
        super().__init__(f"{where}: {message}" if where else message)
        self.record_index = record_index
        self.line = line
        self.offset = offset


def _decode(data: bytes) -> str:
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExportParseError(f"input is not valid UTF-8: {exc.reason}",
                               offset=exc.start) from None


def parse_plaintext_export(data: bytes, source_file: str = "") -> list[RawRecord]:
    """Parse a WoS tagged plaintext export into raw records.

    Records are sequences of ``TAG value`` lines terminated by ``ER``.
    Any other non-blank line inside a record, such as the three-space
    indented continuation lines of the export, appends to the preceding
    tag's value list.  ``FN`` / ``VR`` header lines and non-tag lines
    outside records are ignored, and the ``EF`` trailer ends the file.
    """
    text = _decode(data)
    records: list[RawRecord] = []
    current: Optional[RawRecord] = None
    values: list[str] = []  # the value list of the record's last tag

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        # A line led by a space cannot hold a tag: it is a continuation.
        if line[0] == " " or not _TAG.match(line):
            # inside a record a lenient continuation, not a failed file
            if current is not None:
                values.append(stripped)
            continue
        tag = line[:2]
        if tag == "EF":
            break
        if tag == "ER":
            if current is None:
                raise ExportParseError("record terminator without record",
                                       record_index=len(records), line=lineno)
            records.append(current)
            current = None
        elif tag not in _FILE_TAGS:
            if current is None:
                current = RawRecord(source_file=source_file,
                                    record_index=len(records))
            values = current.entries.setdefault(tag, [])
            value = line[3:].strip()
            if value:
                values.append(value)

    if current is not None:
        raise ExportParseError("unterminated record (missing ER)",
                               record_index=len(records))
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

# Fields whose value is a list; the splitting separator per tag.  One
# affiliation per line: the bracketed author prefix of a C1 entry may hold
# semicolons, so only newlines separate affiliations.
_MULTI_VALUE_SEPS = {"AU": " and ", "DE": "; ", "ID": "; ", "C1": "\n"}

# Entry types that hold no document.
_SKIPPED_ENTRIES = ("comment", "string", "preamble")

# Tags with semantics Table-4 analyses rely on; synthetic fallback tags for
# unknown fields must never collide with these.
_RESERVED_TAGS = {tag for tag in _BIBTEX_FIELD_TAGS.values()} | {"ER", "EF", "FN", "VR", "PT"}

# The BibTeX reader's patterns, compiled (and kept in re's cache) on the
# first read: every command imports this module, few read BibTeX.
_BRACES = r"[{}]"
_BRACES_OR_COMMA = r"[{},]"
_SPACE = r"[ \t\r\n]*"
_SPACE_OR_COMMA = r"[ \t\r\n,]*"
_BARE_TOKEN = r"[^,}\r\n]*"


def parse_bibtex_export(data: bytes, source_file: str = "",
                        reference_separator: str = "\n") -> list[RawRecord]:
    """Parse a BibTeX-flavored export into the plaintext tag vocabulary.

    ``reference_separator`` splits the cited-references field (export
    tooling varies; the default is one reference per line).  Unbalanced
    braces raise with a byte offset; a later field for a tag an earlier
    field of the entry filled keeps only its value and flags the record.
    ``@comment``, ``@string`` and ``@preamble`` entries are skipped.
    """
    text = _decode(data)
    records: list[RawRecord] = []
    pos = 0
    while True:
        at = text.find("@", pos)
        if at < 0:
            return records
        brace = text.find("{", at)
        if brace < 0:
            raise _error("entry has no opening brace", text, at, len(records))
        if text[at + 1:brace].strip().lower() in _SKIPPED_ENTRIES:
            pos = _skip_braced(text, brace, len(records))
            continue
        record = RawRecord(source_file=source_file, record_index=len(records))
        pos = _parse_entry_body(text, brace, record, reference_separator)
        records.append(record)


def _error(message: str, text: str, at: int, index: int) -> ExportParseError:
    """``message`` at character ``at`` of ``text``, placed by its byte
    offset, counted as ``_decode`` counts (after a stripped BOM)."""
    return ExportParseError(message, record_index=index,
                            offset=len(text[:at].encode("utf-8")))


def _find_at_depth(text: str, start: int, needle: str) -> Optional[int]:
    """The first ``needle`` (``"}"`` or ``","``) at brace depth 0 from
    ``start``, jumping brace to brace; None if there is none or, for
    ``","``, if the closing ``"}"`` comes first.  The one brace counter."""
    depth = 0
    stops = re.compile(_BRACES if needle == "}" else _BRACES_OR_COMMA)
    for stop in stops.finditer(text, start):
        char = stop.group()
        if char == "{":
            depth += 1
        elif depth == 0:
            return stop.start() if char == needle else None
        elif char == "}":
            depth -= 1
    return None


def _skip_braced(text: str, open_brace: int, index: int) -> int:
    """The position after the brace that closes ``open_brace``."""
    close = _find_at_depth(text, open_brace + 1, "}")
    if close is None:
        raise _error("unbalanced braces", text, open_brace, index)
    return close + 1


def _parse_entry_body(text: str, open_brace: int, record: RawRecord,
                      reference_separator: str) -> int:
    """Parse ``{ key, name = {value}, ... }`` starting at ``open_brace``."""
    index = record.record_index
    skip_space = re.compile(_SPACE).match
    skip_separators = re.compile(_SPACE_OR_COMMA).match
    bare_token = re.compile(_BARE_TOKEN).match
    # An unclosed entry is refused before its fields are read.
    end = _skip_braced(text, open_brace, index)
    # Citation key: up to the first comma at depth 1 (may be empty).
    comma = _find_at_depth(text, open_brace + 1, ",")
    key = text[open_brace + 1:end - 1 if comma is None else comma].strip()
    if key:
        record.add("UT", key)
    if comma is None:
        return end  # key-only entry, no fields
    i = comma + 1
    seen: dict[str, int] = {}  # tag filled by a field -> values before it
    while True:
        i = skip_separators(text, i).end()
        if i == len(text):
            raise _error("unbalanced braces", text, open_brace, index)
        if text[i] == "}":
            return i + 1
        eq = text.find("=", i)
        if eq < 0 or text.find("}", i, eq) >= 0:  # the name ends at a "}"
            raise _error("field without '='", text, i, index)
        name = text[i:eq].strip().lower()
        i = skip_space(text, eq + 1).end()
        if i == len(text):
            raise _error("unbalanced braces", text, open_brace, index)
        if text[i] == "{":
            end = _skip_braced(text, i, index)
            value = text[i + 1:end - 1]
        elif text[i] == '"':
            end = text.find('"', i + 1) + 1
            if end == 0:
                raise _error("unterminated quoted value", text, i, index)
            value = text[i + 1:end - 1]
        else:  # bare token (numbers)
            end = bare_token(text, i).end()
            value = text[i:end]
        i = end
        _store_field(record, name, value, seen, reference_separator)


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
    if tag in seen:
        record.flags.append(f"duplicate-field:{name}")
        # Only the earlier field's values go: a citation key in UT stays.
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
    elif tag in _MULTI_VALUE_SEPS:
        for part in value.split(_MULTI_VALUE_SEPS[tag]):
            part = collapse_whitespace(part)
            if part:
                record.add(tag, part)
    else:
        record.add(tag, collapse_whitespace(value))


def _strip_braces(value: str) -> str:
    value = value.strip()
    while value.startswith("{") and _find_at_depth(value, 1, "}") == len(value) - 1:
        value = value[1:-1].strip()
    for escaped, plain in (("\\&", "&"), ("\\%", "%"), ("\\_", "_"),
                           ("\\#", "#"), ("\\$", "$")):
        value = value.replace(escaped, plain)
    return value
