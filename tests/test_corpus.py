from __future__ import annotations

import copy
from itertools import permutations

import pytest

from conftest import build_corpus, make_document, make_ref
from scimap.corpus import (
    coverage_report, dedupe_and_screen, load_corpus, save_corpus,
)
from scimap.records import Document, coverage_label


def test_doi_duplicates_merge_keep_max_tc():
    docs = [
        make_document("a", title="Same work", doi="10.1/x", total_citations=5,
                      keywords=["alpha"], pub_year=2001),
        make_document("b", title="Same Work!", doi="10.1/x", total_citations=7,
                      keywords=["beta"], pub_year=2001),
    ]
    corpus = build_corpus(docs)
    assert len(corpus) == 1
    kept = corpus.documents[0]
    assert kept.total_citations == 7
    assert kept.author_keywords == ["alpha", "beta"]
    assert [e.reason for e in corpus.screening] == ["duplicate-doi"]
    assert corpus.screening[0].kept_id == "a"


def _document(doc_id, **fields):
    """A document with every field given, empty unless set."""
    empty = dict(authors=[], title="", source="", pub_year=None,
                 total_citations=0, cited_refs=[], ref_count=None,
                 author_keywords=[], keywords_plus=[], abstract=None,
                 affiliations=[], corresponding=None, doi=None, doc_type="",
                 language="", categories=[], quality_flags=[],
                 missing_fields=[])
    return Document(id=doc_id, **{**empty, **fields})


FULL = dict(authors=["ROE, J"], title="Dup title", source="J DUP",
            pub_year=2001, cited_refs=[make_ref("ALTMAN EI, 1968, J FINANC")],
            ref_count=1, abstract="An abstract.",
            affiliations=["UNIV X, CITY, USA"], corresponding="UNIV X, USA",
            doi="10.1/dup", doc_type="review", language="German",
            author_keywords=["beta", "alpha", "gamma"],
            keywords_plus=["plus b", "plus a"],
            categories=["Economics", "Business"],
            quality_flags=["flag-b", "flag-a", "flag-b"],
            missing_fields=["AB", "C1", "ID", "WC"])


def test_merge_fills_empty_fields_and_unions_lists():
    kept = _document("k", doi="10.1/dup", total_citations=3,
                     author_keywords=["alpha", "delta"],
                     keywords_plus=["plus a"], categories=["Business"],
                     quality_flags=["flag-a"],
                     missing_fields=["AU", "AB", "C1", "DE", "WC"])
    corpus = dedupe_and_screen([kept, _document("d", **FULL)],
                               reference_year=2023)
    assert [e.reason for e in corpus.screening] == ["duplicate-doi"]
    (merged,) = corpus.documents
    filled = ("authors", "title", "source", "pub_year", "cited_refs",
              "ref_count", "abstract", "affiliations", "corresponding",
              "doc_type", "language")
    assert {name: getattr(merged, name) for name in filled} == \
        {name: FULL[name] for name in filled}
    assert merged.id == "k" and merged.doi == "10.1/dup"
    assert merged.total_citations == 3
    assert merged.author_keywords == ["alpha", "delta", "beta", "gamma"]
    assert merged.keywords_plus == ["plus a", "plus b"]
    assert merged.categories == ["Business", "Economics"]
    assert merged.quality_flags == ["flag-a", "flag-b"]
    # missing only where both miss, in the kept document's order
    assert merged.missing_fields == ["AB", "C1", "WC"]


def test_merge_keeps_the_fields_the_kept_document_has():
    values = dict(authors=["DOE, A"], title="Dup title", source="J KEPT",
                  pub_year=2001, cited_refs=[], ref_count=0,
                  abstract="Kept.", affiliations=["UNIV Y, TOWN, PERU"],
                  corresponding="UNIV Y, PERU", doc_type="article",
                  language="English", missing_fields=["DI", "CR"])
    kept = _document("k", total_citations=9, **values)
    corpus = dedupe_and_screen([kept, _document("d", **FULL)],
                               reference_year=2023)
    assert [e.reason for e in corpus.screening] == ["duplicate-title-year"]
    (merged,) = corpus.documents
    # an empty reference list is filled; a ref_count of 0 is a value
    assert merged.cited_refs == FULL["cited_refs"]
    assert merged.doi == "10.1/dup"
    kept_values = {name: value for name, value in values.items()
                   if name not in ("cited_refs", "missing_fields")}
    assert {name: getattr(merged, name) for name in kept_values} == kept_values
    assert merged.total_citations == 9
    assert merged.missing_fields == []


def test_dedupe_leaves_its_input_documents_alone():
    docs = [
        make_document("a", title="Same work", doi="10.1/x", keywords=["a"],
                      pub_year=2001),
        make_document("b", title="Same work", doi="10.1/x", keywords=["b"],
                      authors=["ROE, J"], pub_year=2001, total_citations=4),
        make_document("c", title="Other work", pub_year=2002),
        make_document("d", title="other work.", pub_year=2002,
                      abstract="Filled.", categories=["Economics"]),
    ]
    before = copy.deepcopy(docs)
    corpus = build_corpus(docs)
    assert len(corpus) == 2
    assert docs == before


def test_duplicate_merges_into_the_document_it_matched_when_ids_repeat():
    # two exports sharing a file name give records without UT one id
    docs = [
        make_document("wos.txt:0", title="First", pub_year=2001, doi="10.1/a"),
        make_document("wos.txt:0", title="Second", pub_year=2002, doi="10.1/b"),
        make_document("wos.txt:1", title="First", pub_year=2001, doi="10.1/a",
                      total_citations=8),
    ]
    corpus = build_corpus(docs)
    assert [(doc.title, doc.total_citations) for doc in corpus.documents] == \
        [("First", 8), ("Second", 0)]


def test_title_year_duplicates_merge_without_doi():
    docs = [
        make_document("a", title="A Study of Things", pub_year=2010, total_citations=1),
        make_document("b", title="a study of things.", pub_year=2010, total_citations=4),
        make_document("c", title="A Study of Things", pub_year=2011, total_citations=9),
    ]
    corpus = build_corpus(docs)
    assert len(corpus) == 2  # 2011 edition is a different work
    assert corpus.documents[0].total_citations == 4


def test_doi_outranks_title_year():
    docs = [
        make_document("a", title="Shared title", pub_year=2010, doi="10.1/first"),
        make_document("b", title="Shared title", pub_year=2010, doi="10.1/second"),
    ]
    corpus = build_corpus(docs)
    # different DOIs: the title+year key would merge them, DOI says distinct
    assert len(corpus) == 2


# a has no DOI; its title key carries b's DOI, which c shares under
# another title, so all three are one work in every order
ABC = {"a": dict(title="T", pub_year=2001),
       "b": dict(title="T", pub_year=2001, doi="10.1/x"),
       "c": dict(title="T (corrected)", pub_year=2001, doi="10.1/x")}


@pytest.mark.parametrize("order", ["".join(p) for p in permutations("abc")])
def test_work_groups_do_not_depend_on_the_order(order):
    corpus = build_corpus([make_document(k, **ABC[k]) for k in order])
    assert [doc.id for doc in corpus.documents] == [order[0]]
    assert corpus.documents[0].doi == "10.1/x"
    assert [(e.removed_id, e.kept_id) for e in corpus.screening] == \
        [(k, order[0]) for k in order[1:]]
    assert dedupe_and_screen(corpus.documents, reference_year=2001).screening == []


def test_screening_reason_compares_with_the_kept_document_doi():
    corpus = build_corpus([make_document(k, **ABC[k]) for k in "abc"])
    # b fills a's DOI when it merges, so c then matches it by DOI
    assert [e.reason for e in corpus.screening] == [
        "duplicate-title-year", "duplicate-doi"]
    corpus = build_corpus([make_document(k, **ABC[k]) for k in "cba"])
    assert [e.reason for e in corpus.screening] == [
        "duplicate-doi", "duplicate-title-year"]


@pytest.mark.parametrize("order", ["".join(p) for p in permutations("abc")])
def test_document_without_doi_joins_the_smallest_doi_of_its_title(order):
    works = {"a": dict(title="Shared", pub_year=2001),
             "b": dict(title="Shared", pub_year=2001, doi="10.1/y"),
             "c": dict(title="shared.", pub_year=2001, doi="10.1/x")}
    corpus = build_corpus([make_document(k, **works[k]) for k in order])
    groups = {doc.id: {doc.id} for doc in corpus.documents}
    for entry in corpus.screening:
        groups[entry.kept_id].add(entry.removed_id)
    assert sorted(map(sorted, groups.values())) == [["a", "c"], ["b"]]
    assert sorted(doc.doi for doc in corpus.documents) == ["10.1/x", "10.1/y"]
    details = {e.removed_id: e.detail for e in corpus.screening}
    if "a" in details:
        assert details["a"] == ("title-year key holds 2 DOIs: joined the "
                                "smallest (10.1/x)")


def test_retracted_removed_by_id_or_doi():
    docs = [
        make_document("keep", title="Fine", pub_year=2000),
        make_document("bad-id", title="Withdrawn A", pub_year=2000),
        make_document("x", title="Withdrawn B", pub_year=2000, doi="10.9/gone"),
    ]
    corpus = build_corpus(docs, retracted={"bad-id", "10.9/GONE"})
    assert [d.id for d in corpus.documents] == ["keep"]
    assert sorted(e.removed_id for e in corpus.screening) == ["bad-id", "x"]
    assert all(e.reason == "retracted" for e in corpus.screening)


def test_screening_arithmetic_matches_input_sizes():
    # 12 inputs with 4 duplicate/retracted leave a corpus of 8 (the paper's
    # 2694 - 804 = 1890 pattern at desk scale).
    docs = [make_document(f"d{i}", title=f"Work {i}", pub_year=2000 + i)
            for i in range(10)]
    docs.append(make_document("dup1", title="Work 1", pub_year=2001))
    docs.append(make_document("dup2", title="Work 2", pub_year=2002))
    corpus = build_corpus(docs, retracted={"d8", "d9"})
    assert len(docs) - len(corpus.screening) == len(corpus) == 8


def test_disjoint_records_keep_corpus_size():
    docs = [make_document(f"d{i}", title=f"T{i}", pub_year=1999) for i in range(5)]
    assert len(build_corpus(docs)) == 5


def test_dedupe_idempotent():
    docs = [
        make_document("a", title="Same", pub_year=2001, doi="10.1/x"),
        make_document("b", title="Same", pub_year=2001, doi="10.1/x"),
        make_document("c", title="Other", pub_year=2002),
    ]
    corpus = build_corpus(docs)
    again = dedupe_and_screen(corpus.documents, reference_year=corpus.reference_year)
    assert len(again) == len(corpus)
    assert again.screening == []


def test_second_pass_merges_what_a_filled_title_and_year_match():
    # k takes its title from d, so only then does k share l's (title,
    # year) key; the second pass merges l, and a third call removes nothing.
    docs = [_document("k", pub_year=2001, doi="10.1/x"),
            _document("d", title="T", doi="10.1/x"),
            _document("l", title="T", pub_year=2001)]
    corpus = dedupe_and_screen(docs, reference_year=2001)
    assert [(doc.id, doc.title, doc.pub_year, doc.doi)
            for doc in corpus.documents] == [("k", "T", 2001, "10.1/x")]
    assert [(e.removed_id, e.reason, e.kept_id) for e in corpus.screening] == \
        [("d", "duplicate-doi", "k"), ("l", "duplicate-title-year", "k")]
    again = dedupe_and_screen(corpus.documents, reference_year=2001)
    assert [doc.id for doc in again.documents] == ["k"]
    assert again.screening == []


def test_reference_year_defaults_to_latest_pub_year():
    corpus = build_corpus([make_document("a", title="t", pub_year=2014),
                           make_document("b", title="u", pub_year=2021)])
    assert corpus.reference_year == 2021


def test_reference_year_required_when_undated():
    with pytest.raises(ValueError):
        build_corpus([make_document("a", title="t")])


def test_no_kept_document_in_screening_ledger():
    docs = [make_document("a", title="Same", pub_year=2001),
            make_document("b", title="Same", pub_year=2001)]
    corpus = build_corpus(docs)
    removed = {e.removed_id for e in corpus.screening}
    assert all(doc.id not in removed for doc in corpus.documents)


# Coverage ------------------------------------------------------------------

def test_coverage_de_row_matches_scale():
    docs = [make_document(f"d{i}", title=f"T{i}", pub_year=2000,
                          keywords=["kw"] if i >= 250 else [])
            for i in range(1890)]
    report = coverage_report(build_corpus(docs))
    row = {r.tag: r for r in report}["DE"]
    assert row.missing_count == 250
    assert row.missing_pct == 13.23
    assert row.label == "Acceptable"


def test_coverage_full_and_empty_fields():
    docs = [make_document(f"d{i}", title=f"T{i}", pub_year=2000,
                          authors=["SMITH, J"]) for i in range(4)]
    report = coverage_report(build_corpus(docs))
    rows = {r.tag: r for r in report}
    assert rows["AU"].missing_pct == 0.0 and rows["AU"].label == "Excellent"
    assert rows["AB"].missing_pct == 100.0
    assert rows["AB"].label == "Completely Missing"


def test_coverage_empty_corpus_is_error():
    corpus = build_corpus([make_document("a", title="t", pub_year=2000)])
    corpus.documents = []
    with pytest.raises(ValueError):
        coverage_report(corpus)


def test_coverage_labels_partition_0_to_100():
    expected = [
        (0.0, "Excellent"), (0.01, "Good"), (10.0, "Good"),
        (10.01, "Acceptable"), (20.0, "Acceptable"), (20.01, "Poor"),
        (50.0, "Poor"), (50.01, "Critical"), (99.99, "Critical"),
        (100.0, "Completely Missing"),
    ]
    for pct, label in expected:
        assert coverage_label(pct) == label
    # every representable 2-decimal percentage maps to exactly one label
    for i in range(0, 10001):
        assert coverage_label(i / 100.0) in {
            "Excellent", "Good", "Acceptable", "Poor", "Critical",
            "Completely Missing"}


# Corpus file round-trip ------------------------------------------------------

def test_corpus_file_round_trip(tmp_path):
    from conftest import make_ref
    docs = [
        make_document("a", authors=["KUMAR, PR"], title="Review", pub_year=2007,
                      total_citations=609, doi="10.1016/j.ejor.2006.08.043",
                      keywords=["bankruptcy prediction"],
                      cited_refs=[make_ref("ALTMAN EI, 1968, J FINANC, V23, P589")],
                      abstract="A review of methods.",
                      affiliations=["IDRBT, HYDERABAD, INDIA"]),
        make_document("b", title="Other", pub_year=2010, total_citations=3),
    ]
    corpus = build_corpus(docs + [make_document("c", title="Other", pub_year=2010)])
    path = tmp_path / "corpus.dat"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded.reference_year == corpus.reference_year
    assert [d.id for d in loaded.documents] == [d.id for d in corpus.documents]
    assert loaded.documents[0] == corpus.documents[0]
    # the ledger is written beside the file by ingest, not kept in it
    assert [e.reason for e in corpus.screening] == ["duplicate-title-year"]
    assert loaded.screening == []
    # byte-stable re-serialization
    second = tmp_path / "again.dat"
    save_corpus(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_round_trip_preserves_analyses(tmp_path):
    from conftest import make_ref
    from scimap.graphs import match_local_citations, rpys
    from scimap.metrics import annual_production, term_frequencies
    docs = [
        make_document("a", authors=["KUMAR, PR"], title="Review",
                      source="EUR J OPER RES", pub_year=2007,
                      total_citations=609, keywords=["neural networks"]),
        make_document("b", authors=["MIN, JH"], title="Kernel study",
                      source="EXPERT SYST APPL", pub_year=2008,
                      total_citations=512, keywords=["neural networks", "svm"],
                      cited_refs=[make_ref("KUMAR PR, 2007, EUR J OPER RES, "
                                           "V180, P1")]),
    ]
    corpus = build_corpus(docs, reference_year=2023)
    path = tmp_path / "corpus.dat"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert annual_production(loaded) == annual_production(corpus)
    assert term_frequencies(loaded, "DE") == term_frequencies(corpus, "DE")
    assert match_local_citations(loaded) == match_local_citations(corpus)
    assert rpys(match_local_citations(loaded)) == rpys(match_local_citations(corpus))
