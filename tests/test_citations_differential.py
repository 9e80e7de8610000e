"""Local-citation matching against two oracles.

``citations_reference.match_local_citations`` is the matcher that worked
one mention at a time; the result must equal it with every dict's order
and the ``Counter``'s order compared as lists.  The brute-force oracle
checks each reference against each document by the documented rule,
over corpora drawn so that surnames, years, source prefixes and DOIs
collide often.
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

import citations_reference
from conftest import make_document
from scimap.cli import main
from scimap.corpus import load_corpus
from scimap.graphs import SOURCE_PREFIX_MIN, match_local_citations
from scimap.normalize import reference_key, surname_of
from scimap.records import CitedReference, Corpus

SAMPLE = Path(__file__).resolve().parent / "data" / "sample_export.txt"


def assert_same_in_order(corpus: Corpus) -> None:
    got = match_local_citations(corpus)
    want = citations_reference.match_local_citations(corpus)
    assert got == want
    for name in ("mentions", "reference_counts", "reference_labels",
                 "reference_years"):
        assert list(getattr(got, name).items()) == \
            list(getattr(want, name).items()), name
    for doc_id, keys in got.mentions.items():
        assert list(keys) == list(want.mentions[doc_id]), doc_id


def test_sample_export_matches_the_per_mention_oracle(tmp_path):
    path = tmp_path / "corpus.dat"
    assert main(["ingest", str(SAMPLE), "-o", str(path)]) == 0
    corpus = load_corpus(path)
    assert any(count > 1 for count in Counter(
        ref for doc in corpus.documents for ref in doc.cited_refs).values())
    local = match_local_citations(corpus)
    assert any(key[0] == "doc" for key in local.reference_counts)
    assert_same_in_order(corpus)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Surnames that fold, case and punctuate alike, so they collide.
SURNAMES = ["SMITH", "Smíth", "O-NEIL", "ONEIL"]
YEARS = [None, 2000, 2000, 2001]
# Source prefixes of 5 to 8 characters around SOURCE_PREFIX_MIN.
SOURCES = ["", "J FIN", "J FINA", "J FINAN", "J FINANC", "J FINANCE",
           "J FINANCIAL ECON", "EXPER", "EXPERT", "EXPERT S",
           "EXPERT SYST APPL"]
DOIS = ["10.1/a", "10.1/b", "10.1/c"]

REFERENCE = st.builds(
    CitedReference,
    raw=st.sampled_from(["r1", "r2"]),
    first_author=st.sampled_from([None, ""] + [f"{s} J" for s in SURNAMES]),
    year=st.sampled_from(YEARS), source=st.sampled_from([None] + SOURCES),
    doi=st.sampled_from([None] * len(DOIS) + DOIS))
DOCUMENT = st.tuples(
    st.lists(st.sampled_from([f"{s}, J" for s in SURNAMES]), max_size=2),
    st.sampled_from(YEARS), st.sampled_from(SOURCES),
    st.sampled_from([None, None] + DOIS), st.lists(REFERENCE, max_size=6))
CORPUS = st.lists(DOCUMENT, max_size=8).map(lambda drawn: Corpus(
    documents=[make_document(f"d{i}", authors=authors, pub_year=year,
                             source=source, doi=doi, cited_refs=refs)
               for i, (authors, year, source, doi, refs) in enumerate(drawn)],
    reference_year=2023))


def brute_force_target(corpus: Corpus, ref: CitedReference):
    """The id of the first document the documented rule matches, or None:
    the DOI first, else surname, year and a shared source prefix of at
    least SOURCE_PREFIX_MIN characters."""
    for doc in corpus.documents:
        if ref.doi and doc.doi == ref.doi:
            return doc.id
    if not ref.first_author or ref.year is None:
        return None
    for doc in corpus.documents:
        if not doc.authors or doc.pub_year != ref.year:
            continue
        if surname_of(doc.authors[0]) != surname_of(ref.first_author):
            continue
        cited, own = ref.source or "", doc.source or ""
        shorter = min(cited, own, key=len)
        if len(shorter) >= SOURCE_PREFIX_MIN and \
                (cited.startswith(own) or own.startswith(cited)):
            return doc.id
    return None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(CORPUS)
def test_matching_equals_the_per_mention_oracle(corpus):
    assert_same_in_order(corpus)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(CORPUS)
def test_matching_follows_the_documented_rule(corpus):
    local = match_local_citations(corpus)
    year_of = {doc.id: doc.pub_year for doc in corpus.documents}
    expected: dict[str, set] = {}
    for doc in corpus.documents:
        keys = expected[doc.id] = set()
        for ref in doc.cited_refs:
            target = brute_force_target(corpus, ref)
            if target == doc.id:
                continue  # self-citations are dropped
            key = ("doc", target) if target else reference_key(ref)
            keys.add(key)
            if target:
                assert local.reference_years[key] == year_of[target]
    assert local.mentions == expected
    assert local.reference_counts == Counter(
        key for keys in expected.values() for key in keys)
