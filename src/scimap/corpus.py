"""Corpus construction: deduplication, screening, coverage, file round-trip.

Duplicates arise from overlapping export queries; the merge keeps the
maximum citation snapshot and the union of keyword lists.  DOI equality
outranks the title+year key because the DOI is the only globally unique
key among the exported fields.
"""
from __future__ import annotations

import json
import re
from itertools import chain, islice, product
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

from .normalize import fold_ascii, normalize_doi
from .records import (
    Corpus, CoverageRow, CitedReference, Document,
    FIELD_ROLES, ScreeningEntry, coverage_label,
)
from .tables import round_half_up

CORPUS_SCHEMA = "scimap-corpus/6"
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
# cited reference, in the order the documents first cite them.  Each
# document then takes two lines: its fields as a positional JSON array
# in DOCUMENT_FIELDS order, and its cited references as a JSON array of
# indices into the table.  Only the analyses of cited references decode
# the table and the index lines; every other load skips them undecoded.
# A load with references builds each table entry once, and every
# document citing it shares that immutable CitedReference.

REFERENCE_FIELDS = ("raw", "first_author", "year", "source", "doi")
# The field types a reference array may have, in REFERENCE_FIELDS order:
# raw a string, year an int or null, the rest strings or nulls.  Types
# are matched exactly, so a bool year is refused.
_TEXT = (str, type(None))
_OPTIONAL_INT = (int, type(None))
_REFERENCE_TYPES = frozenset(product((str,), _TEXT, _OPTIONAL_INT,
                                     _TEXT, _TEXT))
# The positions of a document line: Document's fields but cited_refs,
# which the loader puts back at its place.
DOCUMENT_FIELDS = tuple(name for name in Document._fields
                        if name != "cited_refs")
_CITED_REFS_AT = Document._fields.index("cited_refs")
_document_values = itemgetter(*map(Document._fields.index, DOCUMENT_FIELDS))
# The types save_corpus writes for a document's fields, in DOCUMENT_FIELDS
# order, matched exactly like a reference's; every list holds strings.
_STR, _INT, _LIST = (str,), (int,), (list,)
_DOCUMENT_FIELD_TYPES = (
    _STR, _LIST, _STR, _STR, _OPTIONAL_INT, _INT,          # id .. total_citations
    _OPTIONAL_INT, _LIST, _LIST, _TEXT, _LIST, _TEXT,      # ref_count .. corresponding
    _TEXT, _STR, _STR, _LIST, _LIST, _LIST)                # doi .. missing_fields
_DOCUMENT_TYPES = frozenset(product(*_DOCUMENT_FIELD_TYPES))
_document_lists = itemgetter(*(position for position, types
                               in enumerate(_DOCUMENT_FIELD_TYPES)
                               if types is _LIST))
_ONLY_STR = frozenset((str,))
_ONLY_INT = frozenset((int,))
# References per write of the table line, so the encoded line is never
# held whole.
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


def save_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write the versioned corpus file: one JSON header line, the reference
    table, then two lines per document (fields, reference indices) in
    stable field order.

    Every document is checked to hold its references and its
    ``missing_fields`` list, which ``load_corpus`` requires, before the
    file is opened, so a data error leaves no file behind; then each
    line is written straight to the open file.
    """
    path = Path(path)
    for doc in corpus.documents:
        if doc.cited_refs is None:
            raise TypeError(f"document {doc.id!r} was loaded without its "
                            f"references and cannot be saved")
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
        # dumps as the positional array.  The table goes out a slice at a
        # time: the bytes of _dump(list(table)), never one string.
        handle.write("[")
        refs = iter(table)
        separator = ""
        while chunk := list(islice(refs, _TABLE_SLICE)):
            handle.write(separator)
            handle.write(_dump(chunk)[1:-1])
            separator = ","
        handle.write("]\n")
        for doc in corpus.documents:
            handle.write(_dump(_document_values(doc)))
            handle.write("\n")
            handle.write(_dump([table[ref] for ref in doc.cited_refs]))
            handle.write("\n")
    return path


def _reference_table(line: str) -> Optional[list[CitedReference]]:
    """The references of the table line; None when it is malformed."""
    entries = _decoded(line)
    if type(entries) is not list or not all(
            type(entry) is list and tuple(map(type, entry)) in _REFERENCE_TYPES
            for entry in entries):
        return None
    return list(map(CitedReference._make, entries))


def _cited(line: str, table: list[CitedReference],
           ) -> Optional[list[CitedReference]]:
    """The references of one index line; None when it is malformed."""
    indices = _decoded(line)
    if type(indices) is not list or not _ONLY_INT.issuperset(map(type, indices)):
        return None
    if indices and (min(indices) < 0 or max(indices) >= len(table)):
        return None
    return list(map(table.__getitem__, indices))


def _document(line: str, cited_refs: Optional[list[CitedReference]],
              ) -> Optional[Document]:
    """The document of one document line; None when it is malformed."""
    values = _decoded(line)
    if (type(values) is not list
            or tuple(map(type, values)) not in _DOCUMENT_TYPES
            or not _ONLY_STR.issuperset(
                map(type, chain.from_iterable(_document_lists(values))))):
        return None
    values.insert(_CITED_REFS_AT, cited_refs)
    return Document._make(values)


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


def load_corpus(path: str | Path, references: bool = False) -> Corpus:
    """Read a corpus file, with an empty screening ledger.

    Without ``references`` the reference table and each index line are
    skipped undecoded and every document's ``cited_refs`` is None, so
    code that reads them without asking fails at once instead of seeing
    empty lists.
    """
    path = Path(path)
    documents = []
    with path.open(encoding="utf-8") as handle:
        header = _decoded(handle.readline())
        if header is None:
            raise ValueError("not a corpus file")
        schema = header.get("schema") if type(header) is dict else None
        if schema != CORPUS_SCHEMA:
            raise ValueError(f"unsupported corpus schema {schema!r} (expected "
                             f"{CORPUS_SCHEMA}): re-ingest with this version")
        reference_year, provenance = _header_fields(header)
        table_line = handle.readline()
        if not table_line:
            raise ValueError("line 2: no reference table")
        table = _reference_table(table_line) if references else None
        if references and table is None:
            raise ValueError(f"line 2: reference table is not a JSON array "
                             f"of {len(REFERENCE_FIELDS)}-element arrays "
                             f"(raw a string, year an integer or null, "
                             f"the rest strings or null)")
        lineno = 3
        while line := handle.readline():
            index_line = handle.readline()
            cited_refs = _cited(index_line, table) \
                if references and index_line else None
            doc = _document(line, cited_refs)
            if doc is None:
                raise ValueError(f"line {lineno}: not a document")
            if not index_line:
                raise ValueError(f"line {lineno}: document has no index line")
            if references and cited_refs is None:
                raise ValueError(f"line {lineno + 1}: index line is not a "
                                 f"JSON array of reference table indices, "
                                 f"integers in [0, {len(table)})")
            documents.append(doc)
            lineno += 2
    return Corpus(documents=documents, reference_year=reference_year,
                  provenance=provenance)
