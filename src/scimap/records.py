"""Core record types shared by the ingestion pipeline and every analysis.

A ``RawRecord`` is the untyped result of parsing one exported item; a
``Document`` is the normalized bibliographic record carrying the sixteen
Web of Science field roles; a ``Corpus`` is the deduplicated, screened,
immutable collection every analysis reads from.
"""
from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple, Optional

# The sixteen field roles tracked for coverage reporting, in canonical order.
FIELD_ROLES: tuple[tuple[str, str], ...] = (
    ("AU", "Author"),
    ("CR", "Cited References"),
    ("DT", "Document Type"),
    ("SO", "Journal"),
    ("LA", "Language"),
    ("NR", "No. of Cited References"),
    ("TI", "Title"),
    ("TC", "Total Citation"),
    ("AB", "Abstract"),
    ("C1", "Affiliation"),
    ("RP", "Corresponding Author"),
    ("DI", "Digital Object Identifier"),
    ("PY", "Publication Year"),
    ("DE", "Keywords"),
    ("ID", "Keywords Plus"),
    ("WC", "Science Categories"),
)

# Publication years outside this window are treated as data errors.
MIN_PLAUSIBLE_YEAR = 1450
MAX_PLAUSIBLE_YEAR = 2100


class RawRecord:
    """One exported item as an ordered tag -> value-lines multimap."""

    __slots__ = ("entries", "source_file", "record_index", "flags")

    def __init__(self, source_file: str = "", record_index: int = 0) -> None:
        self.entries: dict[str, list[str]] = {}
        self.source_file = source_file
        self.record_index = record_index
        # Non-fatal parse oddities (e.g. duplicate BibTeX field, last value won).
        self.flags: list[str] = []

    def add(self, tag: str, value: str) -> None:
        self.entries.setdefault(tag, []).append(value)

    def first(self, tag: str) -> Optional[str]:
        values = self.entries.get(tag)
        return values[0] if values else None


class CitedReference(NamedTuple):
    """One parsed entry of a document's reference list.

    ``raw`` is always preserved byte-exact; the remaining fields are filled
    only when a segment of the reference string could be classified.
    """

    raw: str
    first_author: Optional[str] = None
    year: Optional[int] = None
    source: Optional[str] = None
    doi: Optional[str] = None


class Document(NamedTuple):
    """A normalized bibliographic record (Web of Science field roles).

    Built in one call and changed only with ``_replace``.  Every field is
    required: a default list would be shared by every document.  Field
    order is the corpus file's line order.  In a document that
    ``load_corpus`` read, every field it was not asked for is None.
    """

    id: str
    authors: list[str]
    title: str
    source: str
    pub_year: Optional[int]
    total_citations: int
    cited_refs: Optional[list[CitedReference]]
    ref_count: Optional[int]
    author_keywords: list[str]
    keywords_plus: list[str]
    abstract: Optional[str]
    affiliations: list[str]
    corresponding: Optional[str]
    doi: Optional[str]
    doc_type: str
    language: str
    categories: list[str]
    # Non-fatal data oddities noticed during normalization (e.g. NR vs CR
    # disagreement, unparseable year).  Never raised, always carried.
    quality_flags: list[str]
    # Table-4 tags absent from the raw record, set by to_document.
    missing_fields: list[str]


class ScreeningEntry(NamedTuple):
    """One removal performed while building a corpus."""

    removed_id: str
    reason: str  # "duplicate-doi" | "duplicate-title-year" | "retracted"
    kept_id: str = ""
    detail: str = ""


class Corpus:
    """Deduplicated document collection with screening ledger and provenance.

    ``reference_year`` is the year used as "now" by every age computation;
    it defaults to the latest publication year present and must be pinned
    explicitly for reproducible runs.  The corpus file does not keep the
    ``screening`` ledger, so a loaded corpus has none.  ``fields`` names
    the Document fields the documents hold; a corpus loaded with only
    some holds None in the others.
    """

    __slots__ = ("documents", "reference_year", "provenance", "screening",
                 "fields")

    def __init__(self, documents: list[Document], reference_year: int,
                 provenance: Optional[list[str]] = None,
                 screening: Optional[list[ScreeningEntry]] = None,
                 fields: tuple[str, ...] = Document._fields) -> None:
        self.documents = documents
        self.reference_year = reference_year
        self.provenance = [] if provenance is None else provenance
        self.screening = [] if screening is None else screening
        self.fields = fields

    def __len__(self) -> int:
        return len(self.documents)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Corpus:
            return NotImplemented
        return _corpus_values(self) == _corpus_values(other)


_corpus_values = attrgetter(*Corpus.__slots__)


class CoverageRow(NamedTuple):
    tag: str
    description: str
    missing_count: int
    missing_pct: float
    label: str


def coverage_label(pct: float) -> str:
    """Map a missing percentage in [0, 100] onto the quality scale.

    The scale partitions [0, 100]: 0 is Excellent, 100 is Completely
    Missing, and the interior is split at 10 / 20 / 50.
    """
    if pct <= 0.0:
        return "Excellent"
    if pct >= 100.0:
        return "Completely Missing"
    if pct <= 10.0:
        return "Good"
    if pct <= 20.0:
        return "Acceptable"
    if pct <= 50.0:
        return "Poor"
    return "Critical"
