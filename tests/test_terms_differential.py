"""The term kernels against the versions they replaced.

``terms_reference`` holds, verbatim, the bigram extractor that tested
each neighbour pair, the ranking by a ``(-value, name)`` key, and the
slice network counted through a ``Counter`` of pair tuples.  Bigrams
must be equal; rankings must hold the same pair objects in the same
order; slice networks must have equal nodes, equal edges with ``int``
weights, and equal kept terms in the same order, also when the
incidence product runs in blocks of a few documents.
"""
from __future__ import annotations

from unittest import mock

import pytest

import terms_reference
from conftest import build_corpus, make_document
from scimap import themes
from scimap.tables import ranked
from scimap.textterms import bigrams_of

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# Stopwords, bare numbers, hyphenated and apostrophe words, and a few
# content words that repeat, so bigrams recur within a text.
WORDS = ["the", "of", "and", "based", "2019", "3", "0", "1e5", "risk-based",
         "firm's", "credit", "risk", "credit", "risk", "neural", "network",
         "data", "-x", "'s"]
SEPARATORS = [" ", "  ", ", ", ". ", "\n", "-", "'", "(", ")", "; "]
TEXT = st.one_of(
    st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)),
             max_size=30).map(lambda parts: "".join(w + s for w, s in parts)),
    st.text(max_size=40))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(TEXT)
@example("credit risk and credit risk of 2019 risk-based firm's data")
def test_bigrams_equal_the_pairwise_filter(text):
    assert bigrams_of(text) == terms_reference.bigrams_of(text)
    assert bigrams_of(text.upper()) == terms_reference.bigrams_of(text.upper())


# Tied values across int and float (1 == 1.0), repeated names, and pairs
# equal in both name and value.
PAIRS = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "aa", ""]),
                           st.sampled_from([0, 1, 2, 1.0, 2.5, -1, -0.0, 0.0])),
                 max_size=25)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(PAIRS, st.none() | st.integers(1, 30))
def test_ranked_equals_the_key_sort(pairs, k):
    got = ranked(pairs, k)
    want = terms_reference.ranked(pairs, k)
    # The same tuple objects in the same order: stability included.
    assert [id(pair) for pair in got] == [id(pair) for pair in want]
    assert ranked(iter(pairs), k) == want


ABSTRACT_WORDS = ["credit", "risk", "neural", "network", "deep", "model",
                  "data", "the", "2020"]
ABSTRACT = st.lists(st.sampled_from(ABSTRACT_WORDS), max_size=12).map(" ".join)


@st.composite
def slice_corpora(draw):
    texts = draw(st.lists(st.none() | ABSTRACT, min_size=1, max_size=10))
    docs = [make_document(f"d{i}", title=f"d{i}", abstract=text,
                          pub_year=draw(st.none() | st.integers(2000, 2003)))
            for i, text in enumerate(texts)]
    if draw(st.booleans()):
        # One document holds every term of the vocabulary, and so every
        # kept term.
        everything = " ".join(f"{a} {b}" for a in ABSTRACT_WORDS
                              for b in ABSTRACT_WORDS)
        docs.append(make_document("all", title="all", abstract=everything,
                                  pub_year=2001))
    return build_corpus(docs, reference_year=2023)


def assert_same_slice(corpus, start, end, n_terms, ngram):
    got = themes._slice_graph(corpus, start, end, n_terms, ngram)
    want = terms_reference._slice_graph(corpus, start, end, n_terms, ngram)
    if want is None:
        assert got is None
        return
    graph, kept = got
    want_graph, want_kept = want
    assert list(kept.items()) == list(want_kept.items())
    assert graph == want_graph
    assert [type(w) for _, _, w in graph.edges] == [int] * len(graph.edges)
    graph.validate()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(slice_corpora(), st.integers(2000, 2003), st.integers(0, 2),
       st.integers(1, 120), st.sampled_from([1, 2]), st.integers(1, 40))
def test_slice_network_equals_pair_counting(corpus, start, span, n_terms,
                                            ngram, block_cells):
    # block_cells below the term count puts one document in each block.
    with mock.patch.object(themes, "_BLOCK_CELLS", block_cells):
        assert_same_slice(corpus, start, start + span, n_terms, ngram)
    assert_same_slice(corpus, start, start + span, n_terms, ngram)


@pytest.mark.parametrize("texts, n_terms", [
    (["credit risk credit risk", "neural network data"], 1),   # one kept term
    (["credit risk", "neural network", "deep model"], 10),     # no edges
    (["credit risk neural", "credit risk"], 1000),             # n_terms > vocabulary
])
def test_slice_network_edge_cases(texts, n_terms):
    corpus = build_corpus([make_document(f"d{i}", title=f"d{i}", abstract=text,
                                         pub_year=2000)
                           for i, text in enumerate(texts)])
    assert_same_slice(corpus, 2000, 2000, n_terms, 2)
