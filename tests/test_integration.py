"""Whole-pipeline checks on a larger synthetic corpus (a few hundred
documents with skewed source/keyword/citation distributions)."""
from __future__ import annotations

import random

from conftest import build_corpus, graph_order, make_document, make_ref
from scimap.centrality import pagerank
from scimap.community import modularity, walktrap
from scimap.corpus import coverage_report
from scimap.graphs import (
    cocitation_graph, collaboration_graph, cooccurrence_graph, historiograph,
    match_local_citations, rpys,
)
from scimap.metrics import (
    annual_production, bradford_zones, descriptive_summary,
    source_article_counts, term_frequencies, trending_terms,
)

SOURCES = [f"JOURNAL {chr(65 + i)} LONGTITLE" for i in range(12)]
VOCAB = ["machine learning", "bankruptcy prediction", "credit scoring",
         "neural networks", "deep learning", "fintech", "crowdfunding",
         "fraud detection", "support vector machine", "genetic algorithm",
         "financial distress", "ensemble learning"]
COUNTRIES = ["PEOPLES R CHINA", "NY 10012 USA", "ENGLAND", "SOUTH KOREA",
             "SPAIN", "INDIA"]
CLASSICS = ["ALTMAN EI, 1968, J FINANC, V23, P589",
            "BEAVER WH, 1966, J ACCOUNTING RES, V4, P71",
            "OHLSON JA, 1980, J ACCOUNTING RES, V18, P109",
            "BAYES T, 1764, PHILOS TRANS R SOC"]
PHRASES = ["neural network models", "credit risk assessment",
           "bankruptcy prediction accuracy", "machine learning pipelines",
           "entrepreneurial finance decisions", "support vector machines"]


def synthetic_corpus(n_docs=260, seed=20230815):
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        year = min(2023, 1991 + int(32 * (rng.random() ** 0.5)))
        source_index = min(int(rng.expovariate(0.45)), len(SOURCES) - 1)
        keywords = rng.sample(VOCAB, rng.randrange(1, 5))
        refs = [make_ref(r) for r in rng.sample(CLASSICS, rng.randrange(1, 4))]
        for _ in range(rng.randrange(0, 3)):
            target = rng.randrange(n_docs)
            if target != i:
                refs.append(make_ref(
                    f"SELFREF X, {1991 + target % 33}, INTERNAL VENUE, "
                    f"DOI 10.99/doc{target:04d}"))
        affiliations = [f"UNIV {k}, CITY, {rng.choice(COUNTRIES)}"
                        for k in rng.sample(range(20), rng.randrange(1, 3))]
        docs.append(make_document(
            f"doc{i:04d}", authors=[f"AUTHOR, A{rng.randrange(90)}",
                                    f"WRITER, B{rng.randrange(90)}"],
            title=f"Study number {i}", source=SOURCES[source_index],
            pub_year=year, total_citations=int(rng.expovariate(0.02)),
            keywords=keywords, cited_refs=refs,
            abstract=" ".join(rng.choice(PHRASES) for _ in range(12)),
            affiliations=affiliations, doi=f"10.99/doc{i:04d}"))
    return build_corpus(docs, reference_year=2023)


def test_large_corpus_pipeline_invariants():
    corpus = synthetic_corpus()
    n = len(corpus)
    assert n == 260

    report = coverage_report(corpus)
    assert all(0.0 <= row.missing_pct <= 100.0 for row in report)

    stats = descriptive_summary(corpus)
    assert stats.documents == n
    assert stats.first_year >= 1991 and stats.last_year <= 2023

    production = annual_production(corpus)
    assert sum(v for _, v in production.points) + production.undated == n

    zones = bradford_zones(source_article_counts(corpus))
    assert sum(c for z in zones for _, c in z.sources) == n

    terms = term_frequencies(corpus, "DE")
    assert sum(frequency for _, frequency in terms) == \
        sum(len(set(d.author_keywords)) for d in corpus.documents)
    for stat in trending_terms(corpus, min_freq=5):
        assert stat.q1_year <= stat.median_year <= stat.q3_year

    local = match_local_citations(corpus)
    rows, undated = rpys(local)
    dated = {k for k, y in local.reference_years.items() if y is not None}
    assert sum(r.n_references for r in rows) == len(dated)

    co = cooccurrence_graph(corpus, "DE", min_occurrence=5)
    occurrence = {node.id: node.weight for node in co.nodes}
    for u, v, w in co.edges:
        assert w <= min(occurrence[u], occurrence[v])

    cocite = cocitation_graph(local, min_citations=5)
    clustering = walktrap(cocite)
    assert set(clustering.assignment) == set(cocite.node_ids())
    assert abs(clustering.modularity
               - modularity(cocite, clustering.assignment)) < 1e-12

    collab = collaboration_graph(corpus, "country")
    if collab.nodes:
        scores = pagerank(collab)
        assert abs(sum(scores.values()) - 1.0) < 1e-9

    graph, _ = historiograph(corpus, local, n=30)
    assert len(graph.nodes) == 30
    assert graph_order(graph) is not None


def test_large_corpus_deterministic():
    first = synthetic_corpus()
    second = synthetic_corpus()
    assert [d.id for d in first.documents] == [d.id for d in second.documents]
    assert term_frequencies(first, "DE") == term_frequencies(second, "DE")
    a, _ = historiograph(first, match_local_citations(first), n=20)
    b, _ = historiograph(second, match_local_citations(second), n=20)
    assert a.edges == b.edges
