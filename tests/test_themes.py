from __future__ import annotations

import pytest

from conftest import build_corpus, make_document
from scimap.themes import _slice_graph, inclusion_index, thematic_evolution


def test_inclusion_index_values():
    assert inclusion_index({"a", "b", "c"}, {"a", "b", "c"}) == 1.0
    assert inclusion_index({"a"}, {"b"}) == 0.0
    five = {f"t{i}" for i in range(5)}
    other = {"t0", "x1", "x2", "x3", "x4", "x5", "x6"}
    assert inclusion_index(five, other) == 0.2  # overlap 1, min size 5


def abstract_doc(i, year, text):
    return make_document(f"d{year}_{i}", title=f"d{year}_{i}", pub_year=year,
                         abstract=text)


def themed_corpus():
    docs = []
    # first slice: a neural-network theme and a credit-risk theme
    for i in range(6):
        docs.append(abstract_doc(i, 1995 + i % 3,
                                 "neural network models improve bankruptcy "
                                 "prediction beyond neural network baselines"))
    for i in range(4):  # extra weight on the theme's headline bigram
        docs.append(abstract_doc(30 + i, 1995 + i % 3,
                                 "another neural network angle"))
    for i in range(6):
        docs.append(abstract_doc(10 + i, 1995 + i % 3,
                                 "credit risk assessment needs credit risk data"))
    # second slice: neural networks continue, credit risk vanishes
    for i in range(6):
        docs.append(abstract_doc(20 + i, 2005 + i % 3,
                                 "deep neural network models dominate "
                                 "bankruptcy prediction work"))
    return build_corpus(docs, reference_year=2010)


def test_identical_term_sets_link_with_weight_one():
    docs = [abstract_doc(i, 1995, "alpha beta gamma delta") for i in range(4)]
    docs += [abstract_doc(10 + i, 2005, "alpha beta gamma delta") for i in range(4)]
    slices = thematic_evolution(build_corpus(docs, reference_year=2010),
                                [(1990, 1999), (2000, 2009)],
                                min_cluster_freq=1, min_weight_index=0.02)
    assert slices[0].links_to_next
    assert all(weight == 1.0 for _, _, weight in slices[0].links_to_next)


def test_disjoint_term_sets_do_not_link():
    docs = [abstract_doc(i, 1995, "alpha beta alpha beta") for i in range(4)]
    docs += [abstract_doc(10 + i, 2005, "gamma delta gamma delta") for i in range(4)]
    slices = thematic_evolution(build_corpus(docs, reference_year=2010),
                                [(1990, 1999), (2000, 2009)],
                                min_cluster_freq=1, min_weight_index=0.02)
    assert slices[0].links_to_next == []


def test_thematic_slices_cluster_and_label():
    slices = thematic_evolution(themed_corpus(), [(1990, 1999), (2000, 2010)],
                                min_cluster_freq=5, min_weight_index=0.02)
    first, second = slices
    labels = {c.label for c in first.clusters}
    assert "neural network" in labels
    assert "credit risk" in labels
    assert any("neural network" in terms
               for c in second.clusters for terms in c.terms)
    # the neural theme persists across slices
    assert any(a == "neural network" for a, _, _ in first.links_to_next)
    for _, _, weight in first.links_to_next:
        assert 0.0 < weight <= 1.0


def test_min_cluster_frequency_drops_small_clusters():
    slices = thematic_evolution(themed_corpus(), [(1990, 1999), (2000, 2010)],
                                min_cluster_freq=10**6)
    assert all(s.clusters == [] for s in slices)


def test_slice_without_abstracts_flagged():
    docs = [make_document("bare", title="bare", pub_year=1995)]
    docs += [abstract_doc(1, 2005, "alpha beta alpha beta")]
    slices = thematic_evolution(build_corpus(docs, reference_year=2010),
                                [(1990, 1999), (2000, 2009)],
                                min_cluster_freq=1)
    assert slices[0].flag == "no-abstracts"
    assert slices[0].clusters == []


def test_slice_bounds_validated():
    corpus = build_corpus([abstract_doc(0, 2000, "alpha beta")])
    with pytest.raises(ValueError):
        thematic_evolution(corpus, [])
    with pytest.raises(ValueError):
        thematic_evolution(corpus, [(2005, 2000)])
    with pytest.raises(ValueError):
        thematic_evolution(corpus, [(1990, 2000), (1995, 2005)])


def test_top_terms_rank_by_frequency_then_term():
    texts = (["alpha beta"] * 3 + ["omega zeta"] * 2 + ["gamma delta"] * 2
             + ["kappa lambda"])
    corpus = build_corpus([abstract_doc(i, 2000, text)
                           for i, text in enumerate(texts)])
    freq = {"alpha beta": 3, "omega zeta": 2, "gamma delta": 2,
            "kappa lambda": 1}
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    for n_terms in range(1, 6):
        graph, kept = _slice_graph(corpus, 2000, 2000, n_terms, ngram=2)
        assert list(kept.items()) == ranked[:n_terms]
        assert graph.node_ids() == sorted(kept)
    assert list(_slice_graph(corpus, 2000, 2000, 2, ngram=2)[1]) == [
        "alpha beta", "gamma delta"]


def test_term_count_must_be_positive():
    corpus = build_corpus([abstract_doc(0, 2000, "alpha beta")])
    with pytest.raises(ValueError, match="n_terms"):
        thematic_evolution(corpus, [(1990, 2000)], n_terms=0)
