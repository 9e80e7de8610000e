from __future__ import annotations

import random

import pytest

from conftest import build_corpus, graph_order, make_document, make_ref
from scimap.graphs import (
    cocitation_graph, collaboration_graph, cooccurrence_graph, historiograph,
    match_local_citations, rpys, three_field_flow,
)
from scimap.metrics import term_frequencies


def kumar_style_corpus(n_citing=187):
    """A cited review plus n documents citing it through their CR lists."""
    docs = [make_document(
        "kumar2007", authors=["KUMAR, PR"], title="A survey of techniques",
        source="EUR J OPER RES", pub_year=2007, total_citations=609,
        doi="10.1016/j.ejor.2006.08.043")]
    for i in range(n_citing):
        docs.append(make_document(
            f"citing{i:03d}", authors=[f"AUTHOR, A{i}"], title=f"Paper {i}",
            source="EXPERT SYST APPL", pub_year=2010 + i % 10,
            cited_refs=[make_ref("KUMAR PR, 2007, EUR J OPER RES, V180, P1"),
                        make_ref("ALTMAN EI, 1968, J FINANC, V23, P589")]))
    return build_corpus(docs, reference_year=2023)


def test_local_citation_count_via_author_year_source():
    corpus = kumar_style_corpus(187)
    local = match_local_citations(corpus)
    assert local.reference_counts[("doc", "kumar2007")] == 187
    assert all(local.reference_counts[("doc", f"citing{i:03d}")] == 0
               for i in range(5))


def test_local_citation_count_via_doi():
    docs = [make_document("target", authors=["SMITH, J"], title="t",
                          source="SOME J", pub_year=2000, doi="10.5/abc"),
            make_document("citer", authors=["WU, C"], title="c", pub_year=2005,
                          cited_refs=[make_ref("SMITHE J, 2001, OTHER SRC, "
                                               "DOI 10.5/abc")])]
    local = match_local_citations(build_corpus(docs))
    assert local.reference_counts[("doc", "target")] == 1


def test_references_differing_only_in_page_merge():
    docs = [make_document("a", authors=["A, A"], title="a", pub_year=2010,
                          cited_refs=[make_ref("OLD X, 1980, SOME VENUE, V1, P10")]),
            make_document("b", authors=["B, B"], title="b", pub_year=2011,
                          cited_refs=[make_ref("OLD X, 1980, SOME VENUE, V1, P99")])]
    local = match_local_citations(build_corpus(docs))
    non_doc = [c for key, c in local.reference_counts.items() if key[0] == "meta"]
    assert non_doc == [2]


def test_uncited_document_counts_zero():
    corpus = kumar_style_corpus(3)
    local = match_local_citations(corpus)
    assert local.reference_counts[("doc", "citing000")] == 0


# Co-occurrence ---------------------------------------------------------------

def test_cooccurrence_triangle():
    docs = [make_document("d", title="d", pub_year=2000,
                          keywords=["a", "b", "c"])]
    graph = cooccurrence_graph(build_corpus(docs), "DE", min_occurrence=1)
    assert sorted(graph.node_ids()) == ["a", "b", "c"]
    assert graph.edges == [("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 1.0)]


def test_cooccurrence_edge_weight_counts_documents():
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2000,
                          keywords=["a", "b"]) for i in range(2)]
    graph = cooccurrence_graph(build_corpus(docs), "DE", min_occurrence=1)
    assert graph.edges == [("a", "b", 2.0)]


def test_cooccurrence_threshold_and_strength_properties():
    rng = random.Random(3)
    vocabulary = [f"kw{i}" for i in range(10)]
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2000,
                          keywords=rng.sample(vocabulary, rng.randrange(1, 5)))
            for i in range(50)]
    corpus = build_corpus(docs, reference_year=2000)
    graph = cooccurrence_graph(corpus, "DE", min_occurrence=5)
    occurrence = {node.id: node.weight for node in graph.nodes}
    assert all(weight >= 5 for weight in occurrence.values())
    for u, v, w in graph.edges:
        assert u < v  # stored once, ordered endpoints
        assert w <= min(occurrence[u], occurrence[v])


# Co-citation ------------------------------------------------------------------

def test_cocitation_pair_weight():
    refs = ["ALTMAN EI, 1968, J FINANC, V23, P589",
            "OHLSON JA, 1980, J ACCOUNTING RES, V18, P109"]
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2000,
                          cited_refs=[make_ref(r) for r in refs])
            for i in range(3)]
    graph = cocitation_graph(match_local_citations(build_corpus(docs)),
                             min_citations=1)
    assert len(graph.nodes) == 2
    assert [w for _, _, w in graph.edges] == [3.0]


def test_cocitation_threshold_boundary():
    ref_a = "ALTMAN EI, 1968, J FINANC, V23, P589"
    ref_b = "OHLSON JA, 1980, J ACCOUNTING RES, V18, P109"
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2000,
                          cited_refs=[make_ref(ref_a)] +
                          ([make_ref(ref_b)] if i < 19 else []))
            for i in range(20)]
    graph = cocitation_graph(match_local_citations(build_corpus(docs)),
                             min_citations=20)
    assert [node.label.startswith("ALTMAN") for node in graph.nodes] == [True]


def test_cocitation_label_suffix_skips_labels_in_use():
    # Two DOIs share a label; a third reference already carries "(2)".
    refs = ["FOO A, 2001, JOURNAL, DOI 10.1/a", "FOO A, 2001, JOURNAL, DOI 10.1/b",
            "FOO A, 2001, JOURNAL (2)"]
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                          cited_refs=[make_ref(r) for r in refs])
            for i in range(2)]
    graph = cocitation_graph(match_local_citations(build_corpus(docs)),
                             min_citations=1)
    assert sorted(graph.node_ids()) == ["FOO A, 2001, JOURNAL",
                                        "FOO A, 2001, JOURNAL (2)",
                                        "FOO A, 2001, JOURNAL (3)"]
    assert [w for _, _, w in graph.edges] == [2, 2, 2]


def test_cocitation_edge_bounded_by_citation_counts():
    rng = random.Random(9)
    pool = [f"AUTH{i} X, 19{70 + i}, VENUE {i} LONGNAME" for i in range(6)]
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2000,
                          cited_refs=[make_ref(r) for r in
                                      rng.sample(pool, rng.randrange(1, 5))])
            for i in range(30)]
    graph = cocitation_graph(match_local_citations(build_corpus(docs)),
                             min_citations=2)
    counts = {node.id: node.weight for node in graph.nodes}
    for u, v, w in graph.edges:
        assert w <= min(counts[u], counts[v])


# Collaboration ------------------------------------------------------------------

def test_collaboration_single_paper_two_institutions():
    docs = [make_document("d", title="d", pub_year=2000,
                          affiliations=["INST X, TOWN, FRANCE",
                                        "INST Y, CITY, GERMANY"])]
    graph = collaboration_graph(build_corpus(docs), "institution")
    assert graph.edges == [("INST X", "INST Y", 1.0)]


def test_collaboration_dominant_pair_heaviest():
    docs = []
    for i in range(10):
        docs.append(make_document(
            f"cnus{i}", title=f"cnus{i}", pub_year=2020,
            affiliations=["UNIV A, BEIJING, PEOPLES R CHINA",
                          "UNIV B, BOSTON, MA 02115 USA"]))
    docs.append(make_document("other", title="other", pub_year=2020,
                              affiliations=["UNIV C, PARIS, FRANCE",
                                            "UNIV B, BOSTON, MA 02115 USA"]))
    graph = collaboration_graph(build_corpus(docs), "country")
    heaviest = max(graph.edges, key=lambda e: e[2])
    assert {heaviest[0], heaviest[1]} == {"CHINA", "USA"}
    assert heaviest[2] == 10.0


def test_collaboration_top_n_is_monotone_restriction():
    rng = random.Random(15)
    names = [f"AUTHOR, A{i}" for i in range(12)]
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2000,
                          authors=rng.sample(names, rng.randrange(1, 4)))
            for i in range(40)]
    corpus = build_corpus(docs, reference_year=2000)
    restricted = collaboration_graph(corpus, "author", top_n=5)
    full = collaboration_graph(corpus, "author")
    assert set(restricted.node_ids()) <= set(full.node_ids())
    assert all(len(set(e[:2])) == 2 for e in full.edges)  # no self-loops


# Historiograph -------------------------------------------------------------------

def chain_corpus():
    docs = [
        make_document("a1994", authors=["ADAMS, A"], title="first",
                      source="VENUE ONE LONG", pub_year=1994),
        make_document("b2005", authors=["BAKER, B"], title="second",
                      source="VENUE TWO LONG", pub_year=2005,
                      cited_refs=[make_ref("ADAMS A, 1994, VENUE ONE LONG")]),
        make_document("c2017", authors=["CLARK, C"], title="third",
                      source="VENUE SIX LONG", pub_year=2017,
                      cited_refs=[make_ref("BAKER B, 2005, VENUE TWO LONG")]),
    ]
    return build_corpus(docs, reference_year=2023)


def test_historiograph_chain():
    corpus = chain_corpus()
    graph, flags = historiograph(corpus, match_local_citations(corpus), n=30)
    assert graph.directed
    assert sorted(graph.edges) == [("b2005", "a1994", 1.0),
                                   ("c2017", "b2005", 1.0)]
    assert graph_order(graph) == ["c2017", "b2005", "a1994"]
    assert flags == []


def test_historiograph_keeps_isolated_and_most_cited():
    corpus = kumar_style_corpus(10)
    graph, _ = historiograph(corpus, match_local_citations(corpus), n=5)
    assert "kumar2007" in graph.node_ids()  # the maximal local-citation doc
    # citing docs cite nothing inside the top set besides kumar: isolated kept
    assert len(graph.nodes) == 5
    assert graph_order(graph) is not None


def test_historiograph_same_year_flagged_and_acyclic():
    docs = [
        make_document("x", authors=["XU, A"], title="x", source="VENUE X LONG",
                      pub_year=2010,
                      cited_refs=[make_ref("YANG B, 2010, VENUE Y LONG")]),
        make_document("y", authors=["YANG, B"], title="y", source="VENUE Y LONG",
                      pub_year=2010,
                      cited_refs=[make_ref("XU A, 2010, VENUE X LONG")]),
    ]
    corpus = build_corpus(docs, reference_year=2023)
    graph, flags = historiograph(corpus, match_local_citations(corpus), n=10)
    assert graph_order(graph) is not None
    assert len(graph.edges) == 1
    assert any("same-year" in flag for flag in flags)


# Three-field flow -----------------------------------------------------------------

def test_three_field_flow_single_document():
    docs = [make_document("d", title="d", pub_year=2020, keywords=["ml"],
                          affiliations=["INST X, BEIJING, PEOPLES R CHINA"])]
    flow = three_field_flow(build_corpus(docs), "CO", "DE", "C1",
                            k_left=5, k_mid=5, k_right=5)
    assert flow.flows_left == [("CHINA", "ml", 1)]
    assert flow.flows_right == [("ml", "INST X", 1)]


def test_three_field_flow_k1_cap():
    docs = [make_document(f"d{i}", title=f"d{i}", pub_year=2020,
                          keywords=["ml", "ai"], source=f"J{i % 2}",
                          affiliations=["INST X, PARIS, FRANCE"])
            for i in range(4)]
    flow = three_field_flow(build_corpus(docs), "SO", "DE", "C1",
                            k_left=1, k_mid=1, k_right=1)
    assert len(flow.left) == 1 and len(flow.middle) == 1 and len(flow.right) == 1
    assert len(flow.flows_left) <= 1 and len(flow.flows_right) <= 1


def test_three_field_flow_conservation():
    rng = random.Random(21)
    docs = []
    for i in range(30):
        docs.append(make_document(
            f"d{i}", title=f"d{i}", pub_year=2020, source=f"J{rng.randrange(3)}",
            keywords=[f"kw{rng.randrange(4)}"],
            affiliations=[f"INST {rng.randrange(3)}, TOWN, FRANCE"]))
    flow = three_field_flow(build_corpus(docs), "SO", "DE", "C1")
    middle_counts = dict(flow.middle)
    for term, count in middle_counts.items():
        # SO is single-valued per document, so the inflow of a middle item
        # cannot exceed its document count
        inflow = sum(w for _, b, w in flow.flows_left if b == term)
        assert inflow <= count
    for _, b, w in flow.flows_left:
        assert w <= middle_counts.get(b, 0)


# RPYS -----------------------------------------------------------------------------

def test_rpys_single_old_reference():
    docs = [make_document("d", title="d", pub_year=2020,
                          cited_refs=[make_ref("BAYES T, 1764, PHILOS TRANS")])]
    rows, undated = rpys(match_local_citations(build_corpus(docs)))
    assert (rows[0].year, rows[0].n_references, rows[0].citations) == (1764, 1, 1)
    assert undated == 0


def test_rpys_conservation_and_undated_bucket():
    rng = random.Random(33)
    pool = [f"AUTH{i} A, {1950 + rng.randrange(60)}, VENUE {i} LONG" for i in range(8)]
    pool.append("MYSTERY B, 19XX, UNKNOWN VENUE")
    docs = []
    for i in range(25):
        docs.append(make_document(
            f"d{i}", title=f"d{i}", pub_year=2020,
            cited_refs=[make_ref(r) for r in rng.sample(pool, rng.randrange(1, 6))]))
    corpus = build_corpus(docs)
    local = match_local_citations(corpus)
    rows, undated = rpys(local)
    dated_keys = {k for k, y in local.reference_years.items() if y is not None}
    assert sum(r.n_references for r in rows) == len(dated_keys)
    total_dated_mentions = sum(
        1 for keys in local.mentions.values() for k in keys if k in dated_keys)
    assert sum(r.citations for r in rows) == total_dated_mentions
    total_undated_mentions = sum(
        1 for keys in local.mentions.values() for k in keys if k not in dated_keys)
    assert undated == total_undated_mentions
    years = [r.year for r in rows]
    assert years == list(range(min(years), max(years) + 1))


def test_historiograph_undated_mutual_citations_stay_acyclic():
    docs = [
        # undated references carry no year: match via author+source only
        # fails, so force direct citations through DOIs instead
        make_document("p", authors=["PRICE, R"], title="p",
                      source="VENUE P LONG", doi="10.9/p",
                      cited_refs=[make_ref("QUINE W, , VENUE Q LONG")
                                  ._replace(doi="10.9/q")]),
        make_document("q", authors=["QUINE, W"], title="q",
                      source="VENUE Q LONG", doi="10.9/q",
                      cited_refs=[make_ref("PRICE R, , VENUE P LONG")
                                  ._replace(doi="10.9/p")]),
        make_document("anchor", authors=["ADAMS, A"], title="anchor",
                      pub_year=2000),
    ]
    corpus = build_corpus(docs, reference_year=2023)
    graph, flags = historiograph(corpus, match_local_citations(corpus), n=10)
    assert graph_order(graph) is not None
    assert any("cycle-closing" in flag for flag in flags)


# Top-k ----------------------------------------------------------------------------

TOP_K = {
    "term_frequencies": lambda corpus, k: term_frequencies(corpus, "DE", top_n=k),
    "collaboration_graph": lambda corpus, k: collaboration_graph(corpus, top_n=k),
    "historiograph": lambda corpus, k: historiograph(
        corpus, match_local_citations(corpus), n=k),
    "three_field_flow k_left": lambda corpus, k: three_field_flow(
        corpus, "AU", "DE", "SO", k_left=k),
    "three_field_flow k_mid": lambda corpus, k: three_field_flow(
        corpus, "AU", "DE", "SO", k_mid=k),
    "three_field_flow k_right": lambda corpus, k: three_field_flow(
        corpus, "AU", "DE", "SO", k_right=k),
}


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("name", sorted(TOP_K))
def test_top_k_below_one_is_refused(name, k):
    # A slice [:k] would keep all but the last |k| items without a word.
    docs = [make_document(f"d{i}", authors=["A, X", "B, Y"], title=f"d{i}",
                          source="J", pub_year=2020, keywords=["ml", "ai"])
            for i in range(3)]
    with pytest.raises(ValueError, match="at least 1"):
        TOP_K[name](build_corpus(docs), k)
