from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import build_corpus, make_document
from scimap.metrics import (
    annual_growth_rate, annual_production, author_document_counts,
    bradford_zones, collaboration_indices, descriptive_summary, lotka_fit,
    mcp_ratio_pct, mean_citation_per_elapsed_years, method_occurrence,
    term_frequencies, trending_terms,
)

# The zone-1 core of the 1890-article / 637-source fixture.
CORE_SOURCES = [
    ("Expert Systems with Applications", 173),
    ("Computational Intelligence and Neuroscience", 42),
    ("European Journal of Operational Research", 39),
    ("Sustainability", 38),
    ("Decision Support Systems", 35),
    ("IEEE Access", 32),
    ("Knowledge-Based Systems", 28),
    ("Applied Soft Computing", 27),
    ("Mobile Information Systems", 23),
    ("Journal of Forecasting", 22),
    ("Annals of Operations Research", 20),
    ("Intelligent Systems in Accounting Finance & Management", 20),
    ("Journal of Risk and Financial Management", 20),
    ("Scientific Programming", 17),
    ("Computational Economics", 16),
    ("Mathematical Problems in Engineering", 16),
    ("Neural Computing & Applications", 16),
    ("Neurocomputing", 16),
    ("Applied Sciences-Basel", 15),
    ("Information Sciences", 14),
]

EXPECTED_CUMULATIVE = [173, 215, 254, 292, 327, 359, 387, 414, 437, 459,
                       479, 499, 519, 536, 552, 568, 584, 600, 615, 629]


def full_bradford_fixture():
    """637 sources totalling 1890 articles whose top 20 are the core."""
    sources = list(CORE_SOURCES)
    for i in range(200):
        sources.append((f"aux journal a{i:03d}", 3))
    for i in range(244):
        sources.append((f"aux journal b{i:03d}", 2))
    for i in range(173):
        sources.append((f"aux journal c{i:03d}", 1))
    assert len(sources) == 637
    assert sum(count for _, count in sources) == 1890
    return sources


def test_bradford_core_zone_matches_reference_table():
    zones = bradford_zones(full_bradford_fixture())
    zone1 = zones[0]
    assert [s for s, _ in zone1.sources] == [s for s, _ in CORE_SOURCES]
    assert zone1.cumulative == EXPECTED_CUMULATIVE
    assert zone1.cumulative[-1] == 629
    assert zone1.article_share_pct == 33.28
    assert zone1.source_share_pct == 3.14


def test_bradford_three_equal_sources():
    zones = bradford_zones([("a", 5), ("b", 5), ("c", 5)])
    assert [[s for s, _ in z.sources] for z in zones] == [["a"], ["b"], ["c"]]


def test_bradford_requires_three_sources():
    with pytest.raises(ValueError):
        bradford_zones([("a", 3), ("b", 1)])


def test_bradford_zone_conservation_property():
    rng = random.Random(5)
    for _ in range(50):
        sources = [(f"s{i}", rng.randrange(1, 60))
                   for i in range(rng.randrange(3, 40))]
        zones = bradford_zones(sources)
        zoned = [s for z in zones for s, _ in z.sources]
        assert sorted(zoned) == sorted(s for s, _ in sources)
        assert sum(c for z in zones for _, c in z.sources) == \
            sum(c for _, c in sources)
        assert zones[2].cumulative[-1] == sum(c for _, c in sources)


# Descriptive summary ---------------------------------------------------------

def test_average_citation_is_plain_mean():
    docs = [make_document(f"d{i}", title=f"t{i}", pub_year=2020, total_citations=tc)
            for i, tc in enumerate([10, 20, 39])]
    stats = descriptive_summary(build_corpus(docs, reference_year=2023))
    assert stats.average_citations == 23.0


def test_document_average_age():
    docs = [make_document("a", title="a", pub_year=2020),
            make_document("b", title="b", pub_year=2016)]
    stats = descriptive_summary(build_corpus(docs, reference_year=2023))
    assert stats.document_average_age == 5.0


def test_growth_rate_closed_form():
    docs = [make_document(f"f{i}", title=f"f{i}", pub_year=2000) for i in range(2)]
    docs += [make_document(f"l{i}", title=f"l{i}", pub_year=2002) for i in range(8)]
    corpus = build_corpus(docs)
    assert abs(annual_growth_rate(corpus) - 100.0) < 1e-9
    stats = descriptive_summary(corpus)
    assert abs(stats.annual_growth_rate_pct - 100.0) < 1e-9


def test_summary_requires_dated_documents():
    corpus = build_corpus([make_document("a", title="a", pub_year=2000)])
    corpus.documents[0] = corpus.documents[0]._replace(pub_year=None)
    with pytest.raises(ValueError):
        descriptive_summary(corpus)


def test_summary_author_and_keyword_counts():
    docs = [
        make_document("a", title="a", pub_year=2001, authors=["SMITH, J", "WU, C"],
                      keywords=["alpha", "beta"], keywords_plus=["GAMMA"]),
        make_document("b", title="b", pub_year=2002, authors=["SMITH, J"],
                      keywords=["alpha"]),
    ]
    stats = descriptive_summary(build_corpus(docs))
    assert stats.authors == 2
    assert stats.single_document_authors == 1  # WU, C
    assert stats.single_authored_documents == 1  # doc b
    assert stats.author_keywords == 2
    assert stats.keywords_plus == 1
    assert stats.coauthors_per_document == 1.5


# Annual series ----------------------------------------------------------------

def test_annual_production_counts():
    docs = [make_document("a", title="a", pub_year=1991),
            make_document("b", title="b", pub_year=1991),
            make_document("c", title="c", pub_year=1993)]
    series = annual_production(build_corpus(docs))
    assert series.points == [(1991, 2.0), (1993, 1.0)]


def test_annual_production_peak_year_and_undated():
    docs = [make_document(f"p{i}", title=f"p{i}", pub_year=2022) for i in range(416)]
    docs.append(make_document("nodate", title="nodate"))
    series = annual_production(build_corpus(docs, reference_year=2023))
    assert (2022, 416.0) in series.points
    assert series.undated == 1


def test_annual_production_empty_corpus():
    corpus = build_corpus([make_document("a", title="a", pub_year=2000)])
    corpus.documents = []
    assert annual_production(corpus).points == []


def test_mean_citation_per_elapsed_years_exact():
    docs = [make_document("a", title="a", pub_year=2021, total_citations=8),
            make_document("b", title="b", pub_year=2021, total_citations=9),
            make_document("c", title="c", pub_year=2023, total_citations=5)]
    corpus = build_corpus(docs, reference_year=2023)
    points = dict(mean_citation_per_elapsed_years(corpus))
    assert points[2021] == Fraction(17, 2) / 3  # mean 8.5 over 3 citable years
    assert abs(float(points[2021]) - 2.8333333) < 1e-6
    assert points[2023] == 5  # single citable year
    assert 2022 not in points


# Lotka -------------------------------------------------------------------------

def test_lotka_inverse_square_prediction():
    counts = [(f"a{i}", 1) for i in range(10)] + [("b", 3)]
    fit = lotka_fit(counts)
    assert fit.baseline_authors == 10
    assert abs(fit.predicted[3] - 10 / 9) < 0.01
    assert fit.predicted[1] == 10.0


def test_lotka_requires_single_document_author():
    with pytest.raises(ValueError):
        lotka_fit([("a", 2), ("b", 3)])


def test_lotka_near_perfect_inverse_square_data():
    counts = []
    histogram = {1: 100, 2: 25, 3: 11}
    k = 0
    for n_docs, n_authors in histogram.items():
        for _ in range(n_authors):
            counts.append((f"a{k}", n_docs))
            k += 1
    fit = lotka_fit(counts)
    for n_docs, n_authors in histogram.items():
        assert abs(fit.predicted[n_docs] - n_authors) <= 0.2


def test_author_document_counts_use_distinct_authorship():
    docs = [make_document("a", title="a", pub_year=2000,
                          authors=["SMITH, J", "SMITH, J"])]
    assert author_document_counts(build_corpus(docs)) == [("SMITH, J", 1)]


# Terms --------------------------------------------------------------------------

def test_term_frequencies_top_term():
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                          keywords=["machine learning"] + (["other"] if i < 100 else []))
            for i in range(306)]
    stats = term_frequencies(build_corpus(docs), "DE", top_n=2)
    assert stats == [("machine learning", 306), ("other", 100)]


def test_term_frequencies_once_per_document():
    doc = make_document("a", title="a", pub_year=2000, keywords=["dup", "dup"])
    stats = term_frequencies(build_corpus([doc]), "DE")
    assert stats == [("dup", 1)]


def test_term_frequencies_empty_corpus():
    corpus = build_corpus([make_document("a", title="a", pub_year=2000)])
    corpus.documents = []
    assert term_frequencies(corpus, "DE") == []


def test_term_frequency_conservation_property():
    rng = random.Random(31)
    vocabulary = [f"term{i}" for i in range(12)]
    docs = []
    for i in range(60):
        docs.append(make_document(
            f"d{i}", title=f"d{i}", pub_year=2000,
            keywords=rng.sample(vocabulary, rng.randrange(0, 6))))
    corpus = build_corpus(docs, reference_year=2001)
    stats = term_frequencies(corpus, "DE")
    pairs = sum(len(set(d.author_keywords)) for d in corpus.documents)
    assert sum(frequency for _, frequency in stats) == pairs


def test_trending_terms_quartiles_and_threshold():
    docs = []
    years = [2014, 2015, 2015, 2016, 2017]
    for i, year in enumerate(years):
        docs.append(make_document(f"m{i}", title=f"m{i}", pub_year=year,
                                  keywords=["sustained interest"]))
    for i, year in enumerate([2016, 2017, 2018, 2019]):  # freq 4: excluded
        docs.append(make_document(f"r{i}", title=f"r{i}", pub_year=year,
                                  keywords=["rare topic"]))
    for i in range(5):  # single-year term
        docs.append(make_document(f"s{i}", title=f"s{i}", pub_year=2020,
                                  keywords=["burst topic"]))
    stats = trending_terms(build_corpus(docs), min_freq=5)
    by_term = {s.term: s for s in stats}
    assert by_term["sustained interest"].median_year == 2015
    assert by_term["sustained interest"].q1_year == 2015
    assert by_term["sustained interest"].q3_year == 2016
    assert "rare topic" not in by_term
    burst = by_term["burst topic"]
    assert burst.q1_year == burst.median_year == burst.q3_year == 2020


def test_trending_terms_max_per_year_cap():
    docs = []
    for t in range(6):
        for i in range(5 + t):
            docs.append(make_document(f"t{t}i{i}", title=f"t{t}i{i}",
                                      pub_year=2010, keywords=[f"term {t}"]))
    stats = trending_terms(build_corpus(docs, reference_year=2010),
                           min_freq=5, max_per_year=4)
    assert len(stats) == 4
    # ranked by in-year frequency: the four most frequent terms survive
    assert {s.term for s in stats} == {"term 5", "term 4", "term 3", "term 2"}
    for stat in stats:
        assert stat.q1_year <= stat.median_year <= stat.q3_year


# Collaboration ------------------------------------------------------------------

def test_mcp_ratio_reference_values():
    assert mcp_ratio_pct(538, 123) == 18.6
    assert mcp_ratio_pct(29, 42) == 59.2


def test_collaboration_classification():
    docs = [
        make_document("cn1", title="a", pub_year=2020,
                      affiliations=["UNIV A, BEIJING, PEOPLES R CHINA"]),
        make_document("cn2", title="b", pub_year=2020,
                      affiliations=["UNIV A, BEIJING, PEOPLES R CHINA",
                                    "UNIV B, SHANGHAI, PEOPLES R CHINA"]),
        make_document("mix", title="c", pub_year=2020,
                      affiliations=["UNIV A, BEIJING, PEOPLES R CHINA",
                                    "NYU, NEW YORK, NY 10012 USA"],
                      corresponding="UNIV A, BEIJING, PEOPLES R CHINA"),
        make_document("lost", title="d", pub_year=2020),
    ]
    rows, excluded = collaboration_indices(build_corpus(docs))
    by_country = {r.country: r for r in rows}
    assert by_country["CHINA"].scp == 2
    assert by_country["CHINA"].mcp == 1
    assert "USA" not in by_country  # MCP attributed to corresponding country
    assert excluded == ["lost"]


def test_collaboration_single_country_corpus_all_zero():
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                          affiliations=["UNIV X, PARIS, FRANCE"])
            for i in range(4)]
    rows, _ = collaboration_indices(build_corpus(docs))
    assert all(r.mcp_pct == 0.0 for r in rows)


def test_collaboration_totals_bounded_by_corpus_size():
    rng = random.Random(41)
    countries = ["FRANCE", "GERMANY", "SPAIN", "ITALY"]
    docs = []
    for i in range(40):
        affs = [f"UNIV {c}, CITY, {c}" for c in
                rng.sample(countries, rng.randrange(0, 3))]
        docs.append(make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                                  affiliations=affs))
    corpus = build_corpus(docs, reference_year=2020)
    rows, excluded = collaboration_indices(corpus)
    assert sum(r.scp + r.mcp for r in rows) + len(excluded) == len(corpus)


# Method occurrence ------------------------------------------------------------------

NICHES = {"perf": ["bankruptcy prediction", "firm performance"],
          "fintech": ["fintech", "blockchain"]}


def test_method_occurrence_threshold_boundary():
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                          keywords=["bankruptcy prediction",
                                    "artificial neural network"])
            for i in range(3)]
    lexicon = {"ANN": ["artificial neural network", "neural network"]}
    result = method_occurrence(build_corpus(docs), NICHES, lexicon, min_occ=3)
    assert result.counts[("perf", "ANN")] == 3  # at threshold: retained
    assert result.row_totals["perf"] == 3
    assert result.column_totals["ANN"] == 3


def test_method_occurrence_suppression_below_threshold():
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                          keywords=["fintech", "topic modeling"])
            for i in range(2)]
    lexicon = {"TM": ["topic modeling"]}
    result = method_occurrence(build_corpus(docs), NICHES, lexicon, min_occ=3)
    assert result.counts[("fintech", "TM")] == 0
    assert ("fintech", "TM", 2) in result.suppressed


def test_method_occurrence_empty_synonym_column():
    docs = [make_document("d", title="d", pub_year=2020,
                          keywords=["bankruptcy prediction"])]
    lexicon = {"GHOST": []}
    result = method_occurrence(build_corpus(docs), NICHES, lexicon)
    assert result.column_totals["GHOST"] == 0


def test_bradford_top_heavy_core_never_empty():
    # one source holding over a third of everything is the core zone
    zones = bradford_zones([("giant", 10), ("minor a", 1), ("minor b", 1),
                            ("minor c", 1)])
    assert [s for s, _ in zones[0].sources] == ["giant"]
    zoned = [s for z in zones for s, _ in z.sources]
    assert len(zoned) == 4
