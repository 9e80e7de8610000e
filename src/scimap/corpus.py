"""Corpus construction: deduplication, screening, coverage, file round-trip.

Duplicates arise from overlapping export queries; the merge keeps the
maximum citation snapshot and the union of keyword lists.  DOI equality
outranks the title+year key because the DOI is the only globally unique
key among the exported fields.
"""
from __future__ import annotations

import io
import json
import re
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

from .normalize import fold_ascii, normalize_doi
from .records import (
    Corpus, CoverageRow, CitedReference, Document,
    FIELD_ROLES, ScreeningEntry, coverage_label,
)
from .tables import round_half_up

CORPUS_SCHEMA = "scimap-corpus/7"
_ALNUM_RUN = re.compile(r"[a-z0-9]+")


def normalized_title(title: str) -> str:
    """The title's ASCII letter and digit runs, lowercased, one space
    apart: the title half of the duplicate key."""
    return " ".join(_ALNUM_RUN.findall(fold_ascii(title).lower()))


def dedupe_and_screen(documents: Iterable[Document],
                      retracted: Iterable[str] = (),
                      reference_year: Optional[int] = None,
                      provenance: Iterable[str] = ()) -> Corpus:
    """Merge duplicates, drop retracted items, and freeze a corpus.

    Every document is assigned its work before any merge, so the groups
    do not depend on the order of the input.  A document's work is its
    DOI; else the smallest DOI that a document with the same (normalized
    title, year) key carries; else that key.  A document with neither a
    DOI nor a title is a work of its own.  Conflicting DOIs therefore mean
    distinct works even under an identical title.  Each work keeps its
    first document, which absorbs the others in input order, and every
    removal lands in the screening ledger with its reason.

    A merge that fills an empty title or year can make a match the pass
    did not see; after one, the pass runs again on the kept documents,
    its ledger rows following, so applying the function to its own
    result removes nothing.  No document passed in is edited: a merge
    keeps a new one.
    """
    retracted_keys = set()
    for key in retracted:
        retracted_keys.add(key)
        doi = normalize_doi(key)
        if doi:
            retracted_keys.add(doi)

    documents = list(documents)
    live = [not (doc.id in retracted_keys or (doc.doi and doc.doi in retracted_keys))
            for doc in documents]
    title_keys = [(normalized_title(doc.title), doc.pub_year) if doc.title else None
                  for doc in documents]
    dois_by_key: dict[tuple, set[str]] = {}
    for doc, key, alive in zip(documents, title_keys, live):
        if alive and key and doc.doi:
            dois_by_key.setdefault(key, set()).add(doc.doi)

    kept: list[Document] = []
    screening: list[ScreeningEntry] = []
    filled = False
    position: dict[object, int] = {}   # work -> position in kept
    for index, (doc, key, alive) in enumerate(zip(documents, title_keys, live)):
        if not alive:
            screening.append(ScreeningEntry(removed_id=doc.id, reason="retracted"))
            continue
        dois = dois_by_key.get(key, ())
        # a DOI, a title key and an input position never compare equal
        work = doc.doi or (min(dois) if dois else key) or index
        if work not in position:
            position[work] = len(kept)
            kept.append(doc)
            continue
        target = kept[position[work]]
        reason = ("duplicate-doi" if doc.doi and doc.doi == target.doi
                  else "duplicate-title-year")
        detail = (f"title-year key holds {len(dois)} DOIs: joined the "
                  f"smallest ({work})" if not doc.doi and len(dois) > 1 else "")
        screening.append(ScreeningEntry(removed_id=doc.id, reason=reason,
                                        kept_id=target.id, detail=detail))
        merged = kept[position[work]] = _merged(target, doc)
        filled |= (merged.title, merged.pub_year) != (target.title, target.pub_year)

    if filled:
        again = dedupe_and_screen(kept, reference_year=reference_year,
                                  provenance=provenance)
        again.screening[:0] = screening
        return again

    if reference_year is None:
        dated = [d.pub_year for d in kept if d.pub_year is not None]
        if not dated:
            raise ValueError("reference_year must be given for an undated corpus")
        reference_year = max(dated)

    return Corpus(documents=kept, reference_year=reference_year,
                  provenance=list(provenance), screening=screening)


# Fields of a kept document that a duplicate fills when they are empty
# (None, "" or []); a ref_count of 0 is a value.
_FILLED_FIELDS = ("authors", "title", "source", "pub_year", "cited_refs",
                  "ref_count", "abstract", "affiliations", "corresponding",
                  "doi", "doc_type", "language")
_EMPTY = (None, "", [])
_UNION_FIELDS = ("author_keywords", "keywords_plus", "categories",
                 "quality_flags")


def _merged(kept: Document, dup: Document) -> Document:
    """``kept`` merged with its duplicate: max citations, union of the
    keyword, category and flag lists, empty fields filled from ``dup``,
    and missing only the tags both miss."""
    changes = {name: _union(getattr(kept, name), getattr(dup, name))
               for name in _UNION_FIELDS}
    changes.update((name, getattr(dup, name)) for name in _FILLED_FIELDS
                   if getattr(kept, name) in _EMPTY
                   and getattr(dup, name) not in _EMPTY)
    return kept._replace(
        total_citations=max(kept.total_citations, dup.total_citations),
        missing_fields=[t for t in kept.missing_fields
                        if t in dup.missing_fields],
        **changes)


def _union(first: list[str], second: list[str]) -> list[str]:
    merged = list(first)
    known = set(first)
    for item in second:
        if item not in known:
            merged.append(item)
            known.add(item)
    return merged


# Coverage ----------------------------------------------------------------

def coverage_report(corpus: Corpus) -> list[CoverageRow]:
    """Per-field missing counts with the quality label scale applied."""
    if not corpus.documents:
        raise ValueError("coverage report needs a non-empty corpus")
    n = len(corpus.documents)
    rows = []
    for tag, description in FIELD_ROLES:
        missing = sum(1 for doc in corpus.documents if tag in doc.missing_fields)
        pct = round_half_up(100.0 * missing / n, 2)
        rows.append(CoverageRow(tag=tag, description=description,
                                missing_count=missing, missing_pct=pct,
                                label=coverage_label(pct)))
    return rows


# Canonical corpus file ----------------------------------------------------
#
# Line 1 is a JSON header: schema, reference year and provenance; the
# screening ledger is not kept.  Line 2 is the reference table: a JSON
# array with one positional array in REFERENCE_FIELDS order per distinct
# cited reference, in the order the documents first cite them.  Then
# comes one line per document field, in DOCUMENT_FIELDS order: a JSON
# array of that field's value in each document, in document order.  The
# last line holds each document's cited references as an array of
# indices into the table.  A load decodes the lines of the fields it
# asks for, and the id line, which fixes the document count; it reads
# past every other line undecoded.  A load with references builds each
# table entry once, and every document citing it shares that immutable
# CitedReference.

REFERENCE_FIELDS = ("raw", "first_author", "year", "source", "doi")
# The field lines, in file order: Document's fields but cited_refs,
# whose indices fill the last line.
DOCUMENT_FIELDS = tuple(name for name in Document._fields
                        if name != "cited_refs")
_STR = frozenset((str,))
_INT = frozenset((int,))
_TEXT = frozenset((str, type(None)))
_OPTIONAL_INT = frozenset((int, type(None)))
_LIST = frozenset((list,))
# The value types a line may hold, matched exactly, so a bool year is
# refused; every list holds strings.
_TYPE_NAMES = {_STR: "strings", _INT: "integers", _TEXT: "strings or null",
               _OPTIONAL_INT: "integers or null", _LIST: "lists of strings"}
# In REFERENCE_FIELDS order: raw a string, year an int or null, the rest
# strings or nulls.
_REFERENCE_TYPES = (_STR, _TEXT, _OPTIONAL_INT, _TEXT, _TEXT)
# What save_corpus writes for each document field, in DOCUMENT_FIELDS order.
_FIELD_TYPES = {
    "id": _STR, "authors": _LIST, "title": _STR, "source": _STR,
    "pub_year": _OPTIONAL_INT, "total_citations": _INT,
    "ref_count": _OPTIONAL_INT, "author_keywords": _LIST,
    "keywords_plus": _LIST, "abstract": _TEXT, "affiliations": _LIST,
    "corresponding": _TEXT, "doi": _TEXT, "doc_type": _STR, "language": _STR,
    "categories": _LIST, "quality_flags": _LIST, "missing_fields": _LIST,
}
_INDEX_LINE = len(DOCUMENT_FIELDS) + 3
# Values per write of an array line, so the encoded line is never held
# whole.
_TABLE_SLICE = 1024

# One encoder and one decoder for every line: json.dumps with options
# builds a new encoder on each call.
_dump = json.JSONEncoder(ensure_ascii=True, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode


def _decoded(line: str):
    """The JSON value that fills ``line`` up to its newline; None when
    the line holds anything else.  No corpus line is a JSON null."""
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        return None
    return value if line[end:] in ("\n", "") else None


def _write_array(handle, values: Iterable) -> None:
    """Write ``values`` as one JSON array line, a slice at a time: the
    bytes of ``_dump(list(values))``, never one string."""
    values = iter(values)
    handle.write("[")
    separator = ""
    while chunk := list(islice(values, _TABLE_SLICE)):
        handle.write(separator)
        handle.write(_dump(chunk)[1:-1])
        separator = ","
    handle.write("]\n")


def save_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write the versioned corpus file: one JSON header line, the reference
    table, one line per document field in stable field order, then the
    reference indices.

    A corpus loaded with only some fields is refused, and so is a
    document without its references or its ``missing_fields`` list,
    which ``load_corpus`` requires, all before the file is opened, so a
    data error leaves no file behind; then each line is written straight
    to the open file.
    """
    path = Path(path)
    if corpus.fields != Document._fields:
        unread = [name for name in Document._fields if name not in corpus.fields]
        raise TypeError(f"corpus was loaded without {', '.join(unread)} "
                        f"and cannot be saved")
    for doc in corpus.documents:
        if doc.cited_refs is None:
            raise TypeError(f"document {doc.id!r} has no references "
                            f"and cannot be saved")
        if type(doc.missing_fields) is not list:
            raise TypeError(f"document {doc.id!r} has no missing_fields list "
                            f"and cannot be saved")
    table: dict[CitedReference, int] = {}
    for doc in corpus.documents:
        for ref in doc.cited_refs:
            table.setdefault(ref, len(table))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(_dump({
            "schema": CORPUS_SCHEMA,
            "reference_year": corpus.reference_year,
            "provenance": corpus.provenance,
        }))
        handle.write("\n")
        # A CitedReference is a tuple in REFERENCE_FIELDS order, so it
        # dumps as the positional array.
        _write_array(handle, table)
        for name in DOCUMENT_FIELDS:
            _write_array(handle, map(itemgetter(Document._fields.index(name)),
                                     corpus.documents))
        _write_array(handle, ([table[ref] for ref in doc.cited_refs]
                              for doc in corpus.documents))
    return path


def _reference_table(line: str) -> Optional[list[CitedReference]]:
    """The references of the table line; None when it is malformed.
    Each part is checked a column at a time."""
    entries = _decoded(line)
    if (type(entries) is not list or not _LIST.issuperset(map(type, entries))
            or not {len(REFERENCE_FIELDS)}.issuperset(map(len, entries))
            or not all(types.issuperset(map(type, column)) for types, column
                       in zip(_REFERENCE_TYPES, zip(*entries)))):
        return None
    return list(map(CitedReference._make, entries))


def _field_values(line: str, types: frozenset) -> Optional[list]:
    """The values of one field line; None when it is not a JSON array of
    values of ``types``."""
    values = _decoded(line)
    if type(values) is not list or not types.issuperset(map(type, values)):
        return None
    if types is _LIST and not _STR.issuperset(
            map(type, chain.from_iterable(values))):
        return None
    return values


def _cited(line: str, table: list[CitedReference],
           ) -> Optional[list[list[CitedReference]]]:
    """Each document's references, from the index line; None when it is
    malformed."""
    indices = _decoded(line)
    if (type(indices) is not list or not _LIST.issuperset(map(type, indices))
            or not _INT.issuperset(map(type, chain.from_iterable(indices)))):
        return None
    if (min(chain.from_iterable(indices), default=0) < 0
            or max(chain.from_iterable(indices), default=-1) >= len(table)):
        return None
    entry = table.__getitem__
    return [list(map(entry, refs)) for refs in indices]


def _read_past(handle) -> bool:
    """Read past one line a buffer at a time, so it is never held whole;
    False when the file has ended."""
    read = False
    while chunk := handle.readline(io.DEFAULT_BUFFER_SIZE):
        read = True
        if chunk[-1] == "\n":
            break
    return read


def _header_fields(header: dict) -> tuple[int, list[str]]:
    """The reference year and provenance of a corpus header, each checked
    to have the type ``save_corpus`` writes."""
    reference_year = header.get("reference_year")
    if type(reference_year) is not int:
        raise ValueError(f"header reference_year must be an integer, "
                         f"got {reference_year!r}")
    provenance = header.get("provenance")
    if type(provenance) is not list or not all(
            type(name) is str for name in provenance):
        raise ValueError(f"header provenance must be a list of strings, "
                         f"got {provenance!r}")
    return reference_year, provenance


def _check_count(lineno: int, name: str, values: list, ids: list) -> None:
    """A line must hold one value per document, as the id line does."""
    if len(values) != len(ids):
        raise ValueError(f"line {lineno}: {name} line holds {len(values)} "
                         f"values for {len(ids)} documents")


def load_corpus(path: str | Path,
                fields: Iterable[str] = Document._fields) -> Corpus:
    """Read a corpus file, with an empty screening ledger.

    Only the lines of the document ``fields`` named are decoded and
    checked, and the id line, which fixes the document count; every
    other line is read past undecoded, and its field is None in every
    document, so code that reads a field it did not ask for fails at
    once instead of seeing empty values.  The corpus's ``fields`` names
    the fields read.
    """
    wanted = {"id", *fields}
    unknown = wanted.difference(Document._fields)
    if unknown:
        raise ValueError(f"unknown document fields: {', '.join(sorted(unknown))}")
    path = Path(path)
    columns = dict.fromkeys(Document._fields)
    with path.open(encoding="utf-8") as handle:
        header = _decoded(handle.readline())
        if header is None:
            raise ValueError("not a corpus file")
        schema = header.get("schema") if type(header) is dict else None
        if schema != CORPUS_SCHEMA:
            raise ValueError(f"unsupported corpus schema {schema!r} (expected "
                             f"{CORPUS_SCHEMA}): re-ingest with this version")
        reference_year, provenance = _header_fields(header)
        references = "cited_refs" in wanted
        if not references:
            if not _read_past(handle):
                raise ValueError("line 2: no reference table")
        else:
            line = handle.readline()
            if not line:
                raise ValueError("line 2: no reference table")
            table = _reference_table(line)
            if table is None:
                raise ValueError(f"line 2: reference table is not a JSON "
                                 f"array of {len(REFERENCE_FIELDS)}-element "
                                 f"arrays (raw a string, year an integer or "
                                 f"null, the rest strings or null)")
        for lineno, name in enumerate(DOCUMENT_FIELDS, start=3):
            if name not in wanted:
                if not _read_past(handle):
                    raise ValueError(f"line {lineno}: no {name} line")
                continue
            line = handle.readline()
            if not line:
                raise ValueError(f"line {lineno}: no {name} line")
            types = _FIELD_TYPES[name]
            values = columns[name] = _field_values(line, types)
            if values is None:
                raise ValueError(f"line {lineno}: {name} line is not a JSON "
                                 f"array of {_TYPE_NAMES[types]}")
            _check_count(lineno, name, values, columns["id"])
        if not references:
            if not _read_past(handle):
                raise ValueError(f"line {_INDEX_LINE}: no index line")
        else:
            line = handle.readline()
            if not line:
                raise ValueError(f"line {_INDEX_LINE}: no index line")
            cited = columns["cited_refs"] = _cited(line, table)
            if cited is None:
                raise ValueError(f"line {_INDEX_LINE}: index line is not a "
                                 f"JSON array of arrays of reference table "
                                 f"indices, integers in [0, {len(table)})")
            _check_count(_INDEX_LINE, "index", cited, columns["id"])
        if _read_past(handle):
            raise ValueError(f"line {_INDEX_LINE + 1}: a line after the "
                             f"index line")
    documents = list(map(Document._make, zip(*(
        repeat(None) if values is None else values
        for values in columns.values()))))
    return Corpus(documents=documents, reference_year=reference_year,
                  provenance=provenance,
                  fields=tuple(name for name in Document._fields
                               if name in wanted))
