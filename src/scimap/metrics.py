"""Corpus-level descriptive statistics, distribution laws, term statistics.

All operations here are pure functions of an immutable corpus; nothing
mutates shared state.
"""
from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .amortize import citable_years
from .normalize import country_of, field_values, reference_key
from .records import Corpus
from .tables import ranked, round_half_up

if TYPE_CHECKING:
    from fractions import Fraction


class AnnualSeries(NamedTuple):
    points: list[tuple[int, int]]
    undated: int = 0


class SummaryStats(NamedTuple):
    first_year: int
    last_year: int
    sources: int
    documents: int
    annual_growth_rate_pct: Optional[float]
    document_average_age: float
    average_citations: float
    total_references: int
    author_keywords: int
    keywords_plus: int
    authors: int
    single_document_authors: int
    single_authored_documents: int
    coauthors_per_document: float
    international_coauthorship_pct: float


def descriptive_summary(corpus: Corpus) -> SummaryStats:
    """Headline statistics of a corpus (timespan, production, collaboration)."""
    dated = [doc for doc in corpus.documents if doc.pub_year is not None]
    if not dated:
        raise ValueError("descriptive summary needs at least one dated document")
    years = [doc.pub_year for doc in dated]
    first_year, last_year = min(years), max(years)
    n = len(corpus.documents)

    refs = {reference_key(ref) for doc in corpus.documents for ref in doc.cited_refs}
    author_counts = Counter(a for doc in corpus.documents for a in set(doc.authors))

    international = sum(1 for doc in corpus.documents
                        if len(field_values(doc, "CO")) >= 2)

    return SummaryStats(
        first_year=first_year,
        last_year=last_year,
        sources=len({doc.source for doc in corpus.documents if doc.source}),
        documents=n,
        annual_growth_rate_pct=annual_growth_rate(corpus),
        document_average_age=sum(
            corpus.reference_year - y for y in years) / len(years),
        average_citations=sum(d.total_citations for d in corpus.documents) / n,
        total_references=len(refs),
        author_keywords=len({t for d in corpus.documents for t in d.author_keywords}),
        keywords_plus=len({t for d in corpus.documents for t in d.keywords_plus}),
        authors=len(author_counts),
        single_document_authors=sum(1 for c in author_counts.values() if c == 1),
        single_authored_documents=sum(
            1 for d in corpus.documents if len(d.authors) == 1),
        coauthors_per_document=sum(len(d.authors) for d in corpus.documents) / n,
        international_coauthorship_pct=100.0 * international / n,
    )


def annual_growth_rate(corpus: Corpus) -> Optional[float]:
    """Compound annual growth between the first and last dated year, in
    percent: (N_last / N_first) ** (1 / (Y_last - Y_first)) - 1."""
    per_year = Counter(doc.pub_year for doc in corpus.documents
                       if doc.pub_year is not None)
    if not per_year:
        raise ValueError("growth rate needs dated documents")
    first, last = min(per_year), max(per_year)
    if last == first:
        return None
    ratio = per_year[last] / per_year[first]
    return 100.0 * (ratio ** (1.0 / (last - first)) - 1.0)


def annual_production(corpus: Corpus) -> AnnualSeries:
    """Documents per publication year; undated documents go into the
    series' remainder bucket, never silently dropped."""
    per_year = Counter()
    undated = 0
    for doc in corpus.documents:
        if doc.pub_year is None:
            undated += 1
        else:
            per_year[doc.pub_year] += 1
    points = sorted(per_year.items())
    return AnnualSeries(points=points, undated=undated)


def mean_citation_per_elapsed_years(corpus: Corpus) -> list[tuple[int, Fraction]]:
    """Per publication year: mean total citations of that year's documents
    divided by the citable years.  Exact rational values."""
    from fractions import Fraction  # deferred: only this table pays for it
    per_year: dict[int, list[int]] = {}
    for doc in corpus.documents:
        if doc.pub_year is not None:
            per_year.setdefault(doc.pub_year, []).append(doc.total_citations)
    out = []
    for year in sorted(per_year):
        tcs = per_year[year]
        mean = Fraction(sum(tcs), len(tcs))
        out.append((year, mean / citable_years(year, corpus.reference_year)))
    return out


# Source and author laws ------------------------------------------------------

class BradfordZone(NamedTuple):
    zone_index: int
    sources: list[tuple[str, int]]
    cumulative: list[int]
    source_share_pct: float
    article_share_pct: float


def bradford_zones(source_counts: Sequence[tuple[str, int]]) -> list[BradfordZone]:
    """Partition sources into the three Bradford productivity zones.

    Sources are ranked by descending article count (ties lexicographic);
    a source belongs to zone 1 while the cumulative article count stays
    within the first third (ceiling), to zone 2 within two thirds.
    """
    if len(source_counts) < 3:
        raise ValueError("Bradford zoning needs at least 3 sources")
    order = ranked(source_counts)
    total_articles = sum(count for _, count in order)
    total_sources = len(order)
    t1 = -(-total_articles // 3)        # ceil(total / 3)
    t2 = -(-2 * total_articles // 3)    # ceil(2 * total / 3)

    zones: dict[int, list[tuple[str, int]]] = {1: [], 2: [], 3: []}
    cumulatives: dict[int, list[int]] = {1: [], 2: [], 3: []}
    running = 0
    for rank, (source, count) in enumerate(order):
        running += count
        index = 1 if running <= t1 else 2 if running <= t2 else 3
        if rank == 0:
            # the most productive source is the core even when it alone
            # holds more than a third of all articles
            index = 1
        zones[index].append((source, count))
        cumulatives[index].append(running)

    out = []
    for index in (1, 2, 3):
        articles = sum(count for _, count in zones[index])
        out.append(BradfordZone(
            zone_index=index,
            sources=zones[index],
            cumulative=cumulatives[index],
            source_share_pct=round_half_up(
                100.0 * len(zones[index]) / total_sources, 2),
            article_share_pct=round_half_up(
                100.0 * articles / total_articles, 2),
        ))
    return out


def source_article_counts(corpus: Corpus) -> list[tuple[str, int]]:
    return ranked(Counter(doc.source for doc in corpus.documents
                          if doc.source).items())


class LotkaFit(NamedTuple):
    observed: dict[int, int]
    predicted: dict[int, float]
    baseline_authors: int


def lotka_fit(author_doc_counts: Sequence[tuple[str, int]]) -> LotkaFit:
    """Observed authors-per-document-count histogram against the classical
    inverse-square prediction anchored on single-document authors."""
    observed = Counter(n for _, n in author_doc_counts if n > 0)
    baseline = observed.get(1, 0)
    if baseline == 0:
        raise ValueError("Lotka baseline undefined: no single-document author")
    predicted = {n: baseline / (n * n) for n in sorted(observed)}
    return LotkaFit(observed=dict(sorted(observed.items())),
                    predicted=predicted, baseline_authors=baseline)


def author_document_counts(corpus: Corpus) -> list[tuple[str, int]]:
    return ranked(Counter(a for doc in corpus.documents
                          for a in set(doc.authors)).items())


# Term statistics -------------------------------------------------------------

def term_frequencies(corpus: Corpus, term_field: str = "DE",
                     top_n: Optional[int] = None) -> list[tuple[str, int]]:
    """(term, document-occurrence count) pairs, descending, ties
    lexicographic.

    A term repeated inside one document counts once (per-document
    presence, matching the full-counting link semantics)."""
    counts = Counter()
    for doc in corpus.documents:
        counts.update(field_values(doc, term_field))
    return ranked(counts.items(), top_n)


class TermStat(NamedTuple):
    term: str
    frequency: int
    q1_year: int
    median_year: int
    q3_year: int


def _nearest_rank(sorted_values: list[int], quantile: float) -> int:
    rank = max(1, -(-int(quantile * 100) * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def trending_terms(corpus: Corpus, min_freq: int = 5,
                   max_per_year: int = 4) -> list[TermStat]:
    """Author keywords with quartile placement over their occurrence years.

    A term qualifies at ``min_freq`` dated occurrences; its occurrence
    years give Q1/median/Q3 by the nearest-rank method.  Each calendar
    year shows at most ``max_per_year`` terms, ranked by that-year
    frequency.
    """
    years_by_term: dict[str, list[int]] = {}
    for doc in corpus.documents:
        if doc.pub_year is None:
            continue
        for term in field_values(doc, "DE"):
            years_by_term.setdefault(term, []).append(doc.pub_year)

    candidates = []
    for term, years in years_by_term.items():
        if len(years) < min_freq:
            continue
        years.sort()
        stat = TermStat(term=term, frequency=len(years),
                        q1_year=_nearest_rank(years, 0.25),
                        median_year=_nearest_rank(years, 0.50),
                        q3_year=_nearest_rank(years, 0.75))
        year_freq = years.count(stat.median_year)
        candidates.append((stat.median_year, -year_freq, -stat.frequency,
                           term, stat))

    out: list[TermStat] = []
    per_year_kept = Counter()
    for median_year, _, _, _, stat in sorted(candidates, key=lambda c: c[:4]):
        if per_year_kept[median_year] < max_per_year:
            per_year_kept[median_year] += 1
            out.append(stat)
    return out


# Collaboration ---------------------------------------------------------------

class CountryCollaboration(NamedTuple):
    country: str
    scp: int
    mcp: int
    mcp_pct: float


def collaboration_indices(corpus: Corpus,
                          ) -> tuple[list[CountryCollaboration], list[str]]:
    """Single- vs multi-country publication counts per country.

    A document whose affiliations span one country is an SCP of that
    country; one spanning several is an MCP attributed to the
    corresponding author's country.  Documents without a resolvable
    country are excluded and their ids returned for flagging.
    """
    scp = Counter()
    mcp = Counter()
    excluded = []
    for doc in corpus.documents:
        countries = []
        for aff in doc.affiliations:
            country = country_of(aff)
            if country and country not in countries:
                countries.append(country)
        if not countries:
            excluded.append(doc.id)
            continue
        if len(countries) == 1:
            scp[countries[0]] += 1
            continue
        lead = country_of(doc.corresponding) if doc.corresponding else None
        mcp[lead if lead in countries else countries[0]] += 1

    out = []
    for country, _ in ranked((scp + mcp).items()):
        s, m = scp[country], mcp[country]
        out.append(CountryCollaboration(
            country=country, scp=s, mcp=m,
            mcp_pct=mcp_ratio_pct(s, m)))
    return out, excluded


def mcp_ratio_pct(scp: int, mcp: int) -> float:
    """MCP share of a country's output, in percent, half-up to 1 decimal."""
    if scp + mcp == 0:
        return 0.0
    return round_half_up(100.0 * mcp / (scp + mcp), 1)


# Lexicon-driven method tally -------------------------------------------------

class MethodOccurrence(NamedTuple):
    niches: list[str]
    methods: list[str]
    counts: dict[tuple[str, str], int]
    row_totals: dict[str, int]
    column_totals: dict[str, int]
    suppressed: list[tuple[str, str, int]]


def method_occurrence(corpus: Corpus,
                      niches: dict[str, list[str]],
                      lexicon: dict[str, list[str]],
                      min_occ: int = 3) -> MethodOccurrence:
    """Tally lexicon-matched method mentions per topic niche.

    A document belongs to a niche when any of its author keywords matches
    a marker term of the niche, and counts toward (niche, method) when
    any of them matches a synonym of the method.  Cells below ``min_occ``
    are reported as 0 and listed as suppressed; totals cover retained
    cells only.
    """
    if not lexicon:
        raise ValueError("method occurrence needs a non-empty lexicon")
    markers = {niche: {m.strip().lower() for m in terms}
               for niche, terms in niches.items()}
    synonyms = {method: {s.strip().lower() for s in terms}
                for method, terms in lexicon.items()}
    raw: dict[tuple[str, str], int] = {}
    found: set[str] = set()
    for doc in corpus.documents:
        doc_terms = set(doc.author_keywords)
        for niche, marks in markers.items():
            if not doc_terms & marks:
                continue
            found.add(niche)
            for method, terms in synonyms.items():
                if doc_terms & terms:
                    raw[(niche, method)] = raw.get((niche, method), 0) + 1

    result = MethodOccurrence(niches=sorted(found), methods=sorted(lexicon),
                              counts={}, row_totals={},
                              column_totals=dict.fromkeys(sorted(lexicon), 0),
                              suppressed=[])
    for niche in result.niches:
        for method in result.methods:
            count = raw.get((niche, method), 0)
            if 0 < count < min_occ:
                result.suppressed.append((niche, method, count))
                count = 0
            result.counts[(niche, method)] = count
            result.row_totals[niche] = result.row_totals.get(niche, 0) + count
            result.column_totals[method] += count
    return result
