"""Core record types shared by the ingestion pipeline and every analysis.

A ``RawRecord`` is the untyped result of parsing one exported item; a
``Document`` is the normalized bibliographic record carrying the sixteen
Web of Science field roles; a ``Corpus`` is the deduplicated, screened,
immutable collection every analysis reads from.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


@dataclass
class RawRecord:
    """One exported item as an ordered tag -> value-lines multimap."""

    entries: dict[str, list[str]] = field(default_factory=dict)
    source_file: str = ""
    record_index: int = 0
    # Non-fatal parse oddities (e.g. duplicate BibTeX field, last value won).
    flags: list[str] = field(default_factory=list)

    def add(self, tag: str, value: str) -> None:
        self.entries.setdefault(tag, []).append(value)

    def first(self, tag: str) -> Optional[str]:
        values = self.entries.get(tag)
        return values[0] if values else None


@dataclass
class CitedReference:
    """One parsed entry of a document's reference list.

    ``raw`` is always preserved byte-exact; the remaining fields are filled
    only when a segment of the reference string could be classified.
    """

    raw: str
    first_author: Optional[str] = None
    year: Optional[int] = None
    source: Optional[str] = None
    volume: Optional[str] = None
    page: Optional[str] = None
    doi: Optional[str] = None


@dataclass
class Document:
    """A normalized bibliographic record (Web of Science field roles)."""

    id: str
    authors: list[str] = field(default_factory=list)
    title: str = ""
    source: str = ""
    pub_year: Optional[int] = None
    total_citations: int = 0
    # None after a corpus load that did not ask for references.
    cited_refs: Optional[list[CitedReference]] = field(default_factory=list)
    ref_count: Optional[int] = None
    author_keywords: list[str] = field(default_factory=list)
    keywords_plus: list[str] = field(default_factory=list)
    abstract: Optional[str] = None
    affiliations: list[str] = field(default_factory=list)
    corresponding: Optional[str] = None
    doi: Optional[str] = None
    doc_type: str = ""
    language: str = ""
    categories: list[str] = field(default_factory=list)
    # Non-fatal data oddities noticed during normalization (e.g. NR vs CR
    # disagreement, unparseable year).  Never raised, always carried.
    quality_flags: list[str] = field(default_factory=list)
    # Unknown export tags preserved verbatim for forward compatibility.
    extra: dict[str, list[str]] = field(default_factory=dict)
    # Table-4 tags absent from the raw record, filled by to_document and by
    # save_corpus; when None (documents built in code and not yet saved)
    # coverage falls back to value emptiness.
    missing_fields: Optional[list[str]] = None


@dataclass
class ScreeningEntry:
    """One removal performed while building a corpus."""

    removed_id: str
    reason: str  # "duplicate-doi" | "duplicate-title-year" | "retracted"
    kept_id: str = ""
    detail: str = ""


@dataclass
class Corpus:
    """Deduplicated document collection with screening ledger and provenance.

    ``reference_year`` is the year used as "now" by every age computation;
    it defaults to the latest publication year present and must be pinned
    explicitly for reproducible runs.
    """

    documents: list[Document]
    reference_year: int
    provenance: list[str] = field(default_factory=list)
    screening: list[ScreeningEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass
class CoverageRow:
    tag: str
    description: str
    missing_count: int
    missing_pct: float
    label: str


@dataclass
class CoverageReport:
    rows: list[CoverageRow]


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
