"""Name, reference, and record normalization.

Turns raw export records into typed documents: author names into the
``SURNAME, IJ`` convention, cited-reference strings into classified
segments, DOIs into their canonical lowercase form.
"""
from __future__ import annotations

import functools
import re
import unicodedata
from typing import Callable, Optional

from .records import (
    Document, CitedReference, RawRecord, FIELD_ROLES, MIN_PLAUSIBLE_YEAR,
)
from .textterms import bigrams_of, collapse_whitespace

_DOI_RE = re.compile(r"^10\.[^/\s]+/\S+$")
_YEAR_SEG = re.compile(r"^(1[4-9]\d{2}|20\d{2}|21\d{2})$")
_VOLUME_SEG = re.compile(r"^V\d+[A-Z]?$")
_PAGE_SEG = re.compile(r"^P[A-Z]?\d+[A-Z]?$")
# The bracketed author list WoS puts ahead of an affiliation.
_AUTHOR_LIST = re.compile(r"^\[[^\]]*\]\s*")

# Country aliases for the ragged last segment of WoS affiliation strings.
_UK_PARTS = {"ENGLAND", "SCOTLAND", "WALES", "NORTH IRELAND", "NORTHERN IRELAND"}

# Entry bounds of the per-process memos of the pure string parsers.  A
# corpus repeats the same reference strings and author names many times,
# so each distinct string is parsed once per process.  Author names and
# surname keys share a bound.
REFERENCE_CACHE_SIZE = 1 << 16
SURNAME_CACHE_SIZE = 1 << 15


def fold_ascii(text: str) -> str:
    """Fold diacritics to ASCII (NFKD decomposition, combining marks dropped)."""
    if text.isascii():  # ASCII is NFKD-stable and has no combining marks
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


@functools.lru_cache(maxsize=SURNAME_CACHE_SIZE)
def normalize_author_name(raw: str) -> str:
    """Normalize a personal name to ``SURNAME, IJ``.

    Accepts the comma form ("Tsai, Chih-Fong"), the surname-first citing
    form ("SHIN KS"), and anything already normalized; the function is
    idempotent and case-insensitive on input.  Blank input is an error.
    """
    if not raw or not raw.strip():
        raise ValueError("blank author name")
    text = collapse_whitespace(fold_ascii(raw).replace(".", " "))
    if "," in text:
        surname, _, given = text.partition(",")
    else:
        tokens = text.split(" ")
        if len(tokens) == 1:
            surname, given = tokens[0], ""
        else:
            # Surname-first convention: a short final token is the initials.
            surname, given = " ".join(tokens[:-1]), tokens[-1]
    initials = "".join(map(_initials_of, given.replace("-", " ").split()))
    surname = re.sub(r"[^A-Za-z\- ]", "", surname).upper().strip()
    if not surname:
        raise ValueError(f"no surname in author name: {raw!r}")
    return f"{surname}, {initials}" if initials else surname


def _initials_of(part: str) -> str:
    # "KS" is two initials; "Kyung" contributes one.
    if part.isupper() and len(part) <= 3:
        return "".join(ch for ch in part if ch.isalpha())
    for ch in part:
        if ch.isalpha():
            return ch.upper()
    return ""


@functools.lru_cache(maxsize=SURNAME_CACHE_SIZE)
def surname_of(name: str) -> str:
    """Surname match key of a name in either convention.

    Handles "KUMAR, PR" and the citing form "KUMAR PR" alike; spaces and
    hyphens are squeezed out so multi-word surnames compare stably.
    """
    head = fold_ascii(name).upper().replace(".", " ").strip()
    if "," in head:
        head = head.split(",")[0]
    else:
        tokens = head.split()
        if len(tokens) > 1 and len(tokens[-1]) <= 3:
            tokens = tokens[:-1]  # trailing initials
        head = " ".join(tokens)
    return re.sub(r"[\s\-]+", "", head)


def normalize_doi(raw: str) -> Optional[str]:
    """Canonical lowercase DOI, or None when the syntax does not hold."""
    text = raw.strip()
    for prefix in ("https://doi.org/", "http://doi.org/", "http://dx.doi.org/", "doi:", "DOI:", "DOI "):
        if text.lower().startswith(prefix.lower()):
            text = text[len(prefix):].strip()
    text = text.strip("[]")
    if "," in text:  # bracketed DOI lists in some CR exports: keep the first
        text = text.split(",")[0].strip()
    text = text.lower().rstrip(".;")
    return text if _DOI_RE.match(text) else None


@functools.lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def parse_cited_reference(raw: str) -> CitedReference:
    """Classify the comma-separated segments of a cited-reference string.

    Segments are assigned positionally and by shape: leading name, 4-digit
    year, venue, DOI token.  The first V- and P-token are claimed, so that
    neither becomes the venue, and dropped.  Whatever cannot be
    classified stays in ``raw`` only; the function never fails.  A
    ``CitedReference`` cannot be edited, so each distinct string is
    parsed once and its reference shared by every document citing it.
    """
    first_author = year = source = doi = None
    volume = page = False
    if not raw.strip():
        return CitedReference(raw)
    segments = [seg.strip() for seg in raw.split(",")]
    claimed = [False] * len(segments)

    for i, seg in enumerate(segments):
        # Each shape test first checks what its pattern needs of the
        # segment's head or length, so most segments run no regex.
        upper = seg.upper()
        head = upper[:1]
        tagged = upper.startswith("DOI")
        if doi is None and (tagged or (
                seg[:1] == "1" and _DOI_RE.match(seg.rstrip(".;")))):
            doi = normalize_doi(seg[3:].removeprefix(":") if tagged else seg)
            if doi:
                claimed[i] = True
        elif year is None and len(seg) == 4 and _YEAR_SEG.match(seg):
            year = int(seg)
            claimed[i] = True
        elif not volume and head == "V" and _VOLUME_SEG.match(upper):
            volume = claimed[i] = True
        elif not page and head == "P" and _PAGE_SEG.match(upper):
            page = claimed[i] = True

    if segments and not claimed[0] and segments[0]:
        first_author = collapse_whitespace(
            fold_ascii(segments[0]).replace(".", " ")).upper()
        claimed[0] = True
    # The venue is the first unclaimed letter-initial segment after the
    # author; segments of other shapes (e.g. a malformed year) stay in raw.
    for i, seg in enumerate(segments):
        if not claimed[i] and seg and i > 0 and seg[0].isalpha():
            source = collapse_whitespace(fold_ascii(seg)).upper()
            break
    return CitedReference(raw, first_author, year, source, doi)


def reference_key(ref: CitedReference) -> tuple:
    """Identity of a cited reference: the DOI when present, else the
    (author, year, source) triple.  Volume and page are not kept, so two
    renderings differing only there merge."""
    if ref.doi:
        return ("doi", ref.doi)
    return ("meta", ref.first_author or "", ref.year or 0, ref.source or "")


def normalize_affiliation(raw: str) -> str:
    """Normalize one affiliation line: strip the bracketed author list WoS
    prepends, fold to ASCII uppercase, collapse whitespace."""
    text = _AUTHOR_LIST.sub("", raw) if raw[:1] == "[" else raw
    return collapse_whitespace(fold_ascii(text).upper()).rstrip(".")


def institution_of(affiliation: str) -> str:
    """Leading segment of a normalized affiliation (the institution name)."""
    return affiliation.split(",")[0].strip()


def country_of(affiliation: str) -> Optional[str]:
    """Country from the trailing segment of a normalized affiliation."""
    segments = [seg.strip() for seg in affiliation.split(",") if seg.strip()]
    if not segments:
        return None
    tail = segments[-1].rstrip(".").strip()
    if not tail:
        return None
    if tail.endswith("USA"):
        return "USA"
    if tail in _UK_PARTS:
        return "UNITED KINGDOM"
    if tail == "PEOPLES R CHINA":
        return "CHINA"
    return tail


_DT_MAP = (
    ("early access", "early-access"),
    ("review", "review"),
    ("article", "article"),
)


def classify_doc_type(raw: str) -> str:
    lowered = raw.lower()
    for needle, label in _DT_MAP:
        if needle in lowered:
            return label
    return "other"


def _split_terms(values: list[str]) -> list[str]:
    """Split keyword value lines on ';', lowercase and trim, drop repeats."""
    seen: dict[str, None] = {}
    for value in values:
        for term in value.split(";"):
            term = collapse_whitespace(term).lower()
            if term:
                seen.setdefault(term, None)
    return list(seen)


def _joined(entries: dict[str, list[str]], tag: str) -> str:
    """The value lines of ``tag`` joined, whitespace runs collapsed."""
    return collapse_whitespace(" ".join(entries.get(tag, ())))


def to_document(record: RawRecord, reference_year: int) -> Document:
    """Map a raw record onto the sixteen field roles of a ``Document``.

    Missing tags yield empty or optional fields (reported later by the
    coverage report, never an error here).  An unparseable publication
    year degrades to an absent year plus a quality flag; a total-citation
    value that is not a non-negative integer is a hard error.
    """
    entries = record.entries
    doc_id = record.first("UT") \
        or f"{record.source_file or 'record'}:{record.record_index}"
    flags = list(record.flags)
    authors = [normalize_author_name(raw_name)
               for raw_name in entries.get("AU", []) if raw_name.strip()]

    pub_year = None
    py_raw = record.first("PY")
    if py_raw is not None:
        try:
            year = int(py_raw.strip())
        except ValueError:
            year = None
        if year is not None and MIN_PLAUSIBLE_YEAR <= year <= reference_year:
            pub_year = year
        else:
            flags.append(f"unparseable-py:{py_raw.strip()}")

    total_citations = 0
    tc_raw = record.first("TC")
    if tc_raw is not None:
        try:
            total_citations = int(tc_raw.strip())
        except ValueError:
            raise ValueError(f"total citations not an integer: {tc_raw!r} "
                             f"(document {doc_id})") from None
        if total_citations < 0:
            raise ValueError(f"negative total citations: {total_citations} "
                             f"(document {doc_id})")

    cited_refs = [parse_cited_reference(line)
                  for line in entries.get("CR", []) if line.strip()]

    ref_count = None
    nr_raw = record.first("NR")
    if nr_raw is not None:
        try:
            ref_count = int(nr_raw.strip())
        except ValueError:
            flags.append(f"unparseable-nr:{nr_raw.strip()}")
        if ref_count is not None and cited_refs and ref_count != len(cited_refs):
            flags.append(f"nr-cr-mismatch:{ref_count}!={len(cited_refs)}")

    rp_raw = " ".join(entries.get("RP", [])).strip()
    di_raw = record.first("DI")
    doi = normalize_doi(di_raw) if di_raw else None
    if di_raw and doi is None:
        flags.append(f"invalid-doi:{di_raw.strip()}")
    dt_raw = (record.first("DT") or "").strip()

    return Document(
        id=doc_id,
        authors=authors,
        title=_joined(entries, "TI"),
        source=_joined(entries, "SO").upper(),
        pub_year=pub_year,
        total_citations=total_citations,
        cited_refs=cited_refs,
        ref_count=ref_count,
        author_keywords=_split_terms(entries.get("DE", [])),
        keywords_plus=_split_terms(entries.get("ID", [])),
        abstract=_joined(entries, "AB") or None,
        affiliations=[normalize_affiliation(line)
                      for line in entries.get("C1", []) if line.strip()],
        corresponding=normalize_affiliation(rp_raw) if rp_raw else None,
        doi=doi,
        doc_type=classify_doc_type(dt_raw) if dt_raw else "",
        language=(record.first("LA") or "").strip(),
        categories=[seg.strip() for value in entries.get("WC", [])
                    for seg in value.split(";") if seg.strip()],
        quality_flags=flags,
        missing_fields=[tag for tag, _ in FIELD_ROLES
                        if not any(map(str.strip, entries.get(tag, ())))],
    )


# Field accessor ----------------------------------------------------------------

def _present(value) -> set[str]:
    return set() if value is None or value == "" else {str(value)}


# Tag -> the Document fields its accessor reads, and the accessor: the
# distinct values a document shows in that field, for the sixteen field
# roles plus derived fields.  C1 yields institutions; CR yields raw
# reference strings (sankey labels CR by local-citation matching
# instead).  A command that reads a tag loads the corpus with its fields.
_FIELD_VALUES: dict[str, tuple[tuple[str, ...],
                               Callable[[Document], set[str]]]] = {
    "AU": (("authors",), lambda doc: set(doc.authors)),
    "CR": (("cited_refs",), lambda doc: {ref.raw for ref in doc.cited_refs}),
    "DT": (("doc_type",), lambda doc: _present(doc.doc_type)),
    "SO": (("source",), lambda doc: _present(doc.source)),
    "LA": (("language",), lambda doc: _present(doc.language)),
    "NR": (("ref_count",), lambda doc: _present(doc.ref_count)),
    "TI": (("title",), lambda doc: _present(doc.title)),
    "TC": (("total_citations",), lambda doc: _present(doc.total_citations)),
    "AB": (("abstract",), lambda doc: _present(doc.abstract)),
    "C1": (("affiliations",),
           lambda doc: {institution_of(a) for a in doc.affiliations}),
    "RP": (("corresponding",), lambda doc: _present(doc.corresponding)),
    "DI": (("doi",), lambda doc: _present(doc.doi)),
    "PY": (("pub_year",), lambda doc: _present(doc.pub_year)),
    "DE": (("author_keywords",), lambda doc: set(doc.author_keywords)),
    "ID": (("keywords_plus",), lambda doc: set(doc.keywords_plus)),
    "WC": (("categories",), lambda doc: set(doc.categories)),
    "CO": (("affiliations",),
           lambda doc: {c for c in map(country_of, doc.affiliations) if c}),
    "CR_SO": (("cited_refs",),
              lambda doc: {ref.source for ref in doc.cited_refs
                           if ref.source}),
    "title-bigrams": (("title",), lambda doc: set(bigrams_of(doc.title))),
    "abstract-bigrams": (("abstract",),
                         lambda doc: set(bigrams_of(doc.abstract or ""))),
}

# Entity levels of the collaboration network and the h-index table.
LEVEL_TAGS = {"author": "AU", "institution": "C1", "country": "CO",
              "source": "SO"}


def tag_fields(*tags: str) -> set[str]:
    """The Document fields that ``field_values`` reads for ``tags``.  An
    unknown tag adds none: a command refuses it where it reads it."""
    return {name for tag in tags if tag in _FIELD_VALUES
            for name in _FIELD_VALUES[tag][0]}


def field_values(doc: Document, tag: str) -> set[str]:
    """The distinct values ``doc`` shows in the field ``tag``; empty when
    the field is absent.  An unknown tag is an error."""
    try:
        _, values = _FIELD_VALUES[tag]
    except KeyError:
        raise ValueError(f"unknown field tag {tag!r} "
                         f"(expected one of {', '.join(_FIELD_VALUES)})") from None
    return values(doc)
