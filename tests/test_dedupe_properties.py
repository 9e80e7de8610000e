"""Property tests of deduplication over small pools of titles, DOIs and
years, so that collisions are common.

For every multiset of documents, and every order of it:
- the partition into works is the same;
- a second ``dedupe_and_screen`` removes nothing;
- no two kept documents share a DOI;
- no two kept documents share a title key unless both DOIs are set and
  differ.

The first property draws every document with a title and a year; the
second lets both be empty, so a merge can fill them and only the passes
that follow such a merge find what it made match.
"""
from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import build_corpus, make_document  # noqa: E402
from scimap.corpus import dedupe_and_screen, normalized_title  # noqa: E402

DOCUMENTS = st.lists(
    st.tuples(st.sampled_from(["T", "T (corrected)", "U"]),
              st.sampled_from([None, "10.1/x", "10.1/y"]),
              st.sampled_from([2001, 2002])),
    min_size=1, max_size=7)


def partition(corpus):
    groups = {doc.id: {doc.id} for doc in corpus.documents}
    for entry in corpus.screening:
        groups[entry.kept_id].add(entry.removed_id)
    return {frozenset(group) for group in groups.values()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=DOCUMENTS, data=st.data())
def test_dedupe_is_order_free_and_leaves_nothing_to_merge(fields, data):
    docs = [make_document(f"d{i}", title=title, doi=doi, pub_year=year)
            for i, (title, doi, year) in enumerate(fields)]
    corpus = build_corpus(docs)
    shuffled = data.draw(st.permutations(docs))
    assert partition(build_corpus(shuffled)) == partition(corpus)

    again = dedupe_and_screen(corpus.documents,
                              reference_year=corpus.reference_year)
    assert again.screening == []
    kept = corpus.documents
    dois = [doc.doi for doc in kept if doc.doi]
    assert len(dois) == len(set(dois))
    for i, first in enumerate(kept):
        for second in kept[i + 1:]:
            same_key = (normalized_title(first.title), first.pub_year) == \
                (normalized_title(second.title), second.pub_year)
            assert not same_key or (first.doi and second.doi
                                    and first.doi != second.doi)


# Titles and years may be empty here, so a merge can fill them.
SPARSE_DOCUMENTS = st.lists(
    st.tuples(st.sampled_from(["", "T", "U"]),
              st.sampled_from([None, "10.1/x", "10.1/y"]),
              st.sampled_from([None, 2001])),
    min_size=1, max_size=7)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=SPARSE_DOCUMENTS)
def test_dedupe_of_its_own_result_removes_nothing(fields):
    docs = [make_document(f"d{i}", title=title, doi=doi, pub_year=year)
            for i, (title, doi, year) in enumerate(fields)]
    corpus = build_corpus(docs, reference_year=2001)
    again = dedupe_and_screen(corpus.documents, reference_year=2001)
    assert again.screening == []
    assert again.documents == corpus.documents
