"""Corpus file schema 6: a header without the screening ledger, a
reference table holding each distinct cited reference once as a
five-element array, two lines per document (its fields as a positional
array, indices into the table), the table and the index lines decoded on
request only, and malformed files rejected with a line number."""
from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import pytest

from conftest import build_corpus, make_document, make_ref
from scimap import corpus as corpus_module
from scimap.cli import main
from scimap.corpus import (
    CORPUS_SCHEMA, DOCUMENT_FIELDS, REFERENCE_FIELDS, _dump, coverage_report,
    load_corpus, save_corpus,
)
from scimap.normalize import REFERENCE_TAGS, _FIELD_VALUES, field_values
from scimap.records import (
    CitedReference, Corpus, Document, FIELD_ROLES, ScreeningEntry,
)


def sample_corpus():
    docs = [
        make_document("a", authors=["KUMAR, PR"], title="Review", pub_year=2007,
                      source="EUR J OPER RES", total_citations=9,
                      cited_refs=[make_ref("ALTMAN EI, 1968, J FINANC, V23, P589"),
                                  make_ref("OHLSON JA, 1980, J ACCOUNTING RES")],
                      affiliations=["IDRBT, HYDERABAD, INDIA"]),
        make_document("b", title="Other", pub_year=2010, keywords=["svm"]),
    ]
    return build_corpus(docs, reference_year=2023)


def saved_lines(tmp_path):
    path = tmp_path / "corpus.dat"
    save_corpus(sample_corpus(), path)
    return path, path.read_text("utf-8").splitlines(keepends=True)


def test_reference_fields_follow_the_record():
    assert REFERENCE_FIELDS == CitedReference._fields


def test_document_fields_keep_their_file_order():
    assert DOCUMENT_FIELDS == (
        "id", "authors", "title", "source", "pub_year", "total_citations",
        "ref_count", "author_keywords", "keywords_plus", "abstract",
        "affiliations", "corresponding", "doi", "doc_type", "language",
        "categories", "quality_flags", "missing_fields")


def test_two_lines_per_document(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert json.loads(lines[0]) == {"schema": CORPUS_SCHEMA,
                                    "reference_year": 2023,
                                    "provenance": ["test"]}
    assert CORPUS_SCHEMA == "scimap-corpus/6"
    assert len(lines) == 2 + 2 * 2
    assert json.loads(lines[1]) == [
        ["ALTMAN EI, 1968, J FINANC, V23, P589", "ALTMAN EI", 1968,
         "J FINANC", None],
        ["OHLSON JA, 1980, J ACCOUNTING RES", "OHLSON JA", 1980,
         "J ACCOUNTING RES", None]]
    a = sample_corpus().documents[0]
    assert json.loads(lines[2]) == [getattr(a, name) for name in DOCUMENT_FIELDS]
    assert lines[2].startswith('["a",["KUMAR, PR"],"Review","EUR J OPER RES",'
                               '2007,9,null,[],')
    assert json.loads(lines[3]) == [0, 1]
    assert json.loads(lines[5]) == []


def test_each_distinct_reference_is_stored_and_built_once(tmp_path):
    altman = make_ref("ALTMAN EI, 1968, J FINANC, V23, P589")
    ohlson = make_ref("OHLSON JA, 1980, J ACCOUNTING RES")
    docs = [make_document("a", title="A", pub_year=2001,
                          cited_refs=[altman, ohlson]),
            make_document("b", title="B", pub_year=2002,
                          cited_refs=[ohlson, altman, ohlson]),
            # equal to altman, built apart
            make_document("c", title="C", pub_year=2003,
                          cited_refs=[CitedReference(*altman)])]
    path = tmp_path / "corpus.dat"
    save_corpus(build_corpus(docs, reference_year=2023), path)
    lines = path.read_text("utf-8").splitlines()
    assert json.loads(lines[1]) == [list(altman), list(ohlson)]
    assert [json.loads(line) for line in lines[3::2]] == [[0, 1], [1, 0, 1], [0]]
    a, b, c = load_corpus(path, references=True).documents
    assert a.cited_refs == [altman, ohlson]
    assert b.cited_refs[0] is b.cited_refs[2] is a.cited_refs[1]
    assert b.cited_refs[1] is c.cited_refs[0] is a.cited_refs[0]


def test_load_without_references_leaves_them_unset(tmp_path):
    path, _ = saved_lines(tmp_path)
    loaded = load_corpus(path)
    doc = loaded.documents[0]
    assert doc.cited_refs is None
    with pytest.raises(TypeError):
        len(doc.cited_refs)
    for tag in _FIELD_VALUES:
        if tag in REFERENCE_TAGS:
            with pytest.raises(TypeError):
                field_values(doc, tag)
        else:
            field_values(doc, tag)


def test_invalid_reference_line_is_skipped_undecoded(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[1] = "{not json\n"
    lines[3] = "{not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert [d.id for d in load_corpus(path).documents] == ["a", "b"]
    with pytest.raises(ValueError, match="line 2: reference table"):
        load_corpus(path, references=True)


def test_load_without_references_never_decodes_table_or_index_lines(
        tmp_path, monkeypatch):
    path, lines = saved_lines(tmp_path)
    decoded = []
    raw_decode = corpus_module._raw_decode

    def spy(text, *args, **kwargs):
        decoded.append(text)
        return raw_decode(text, *args, **kwargs)

    monkeypatch.setattr(corpus_module, "_raw_decode", spy)
    monkeypatch.setattr(json, "loads", None)  # every line goes through the spy
    load_corpus(path)
    assert decoded == [lines[0], lines[2], lines[4]]
    decoded.clear()
    load_corpus(path, references=True)
    assert sorted(decoded) == sorted(lines)


def test_file_without_reference_table_names_line_2(tmp_path, capsys):
    path, lines = saved_lines(tmp_path)
    path.write_text(lines[0], encoding="utf-8")
    for references in (False, True):
        with pytest.raises(ValueError, match="line 2: no reference table"):
            load_corpus(path, references=references)
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "line 2: no reference table" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ['{"raw": "x"}', '["ALTMAN EI, 1968"]',
                                 '[["ALTMAN EI, 1968", "ALTMAN EI", 1968]]',
                                 '[[1, 2, 3, 4, 5, 6, 7, 8]]',
                                 # a schema-5 entry, volume and page included
                                 '[["A, 1968, J, V1, P2", "A", 1968, "J", '
                                 '"V1", "P2", null]]'])
def test_reference_line_must_hold_five_element_arrays(tmp_path, capsys, bad):
    path, lines = saved_lines(tmp_path)
    lines[1] = bad + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    load_corpus(path)
    with pytest.raises(ValueError, match="line 2: reference table is not a "
                                         "JSON array of 5-element arrays"):
        load_corpus(path, references=True)
    assert main(["stats", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "line 2: reference table" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("year", "1968"), ("year", True),
                                          ("year", 1968.0), ("source", 5),
                                          ("doi", ["10.1/x"]), ("raw", None)])
def test_reference_fields_must_have_their_types(tmp_path, capsys, field, value):
    path, lines = saved_lines(tmp_path)
    entries = json.loads(lines[1])
    entries[1][REFERENCE_FIELDS.index(field)] = value
    lines[1] = json.dumps(entries) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    load_corpus(path)
    with pytest.raises(ValueError, match="line 2: reference table is not"):
        load_corpus(path, references=True)
    assert main(["rpys", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "line 2: reference table" in capsys.readouterr().err


def test_reference_fields_may_be_null(tmp_path):
    path, lines = saved_lines(tmp_path)
    entries = json.loads(lines[1])
    entries[1] = [entries[1][0]] + [None] * (len(REFERENCE_FIELDS) - 1)
    lines[1] = json.dumps(entries) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    refs = load_corpus(path, references=True).documents[0].cited_refs
    assert refs[1] == CitedReference(raw=entries[1][0])


def test_last_document_without_reference_line(tmp_path, capsys):
    path, lines = saved_lines(tmp_path)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    for references in (False, True):
        with pytest.raises(ValueError, match="line 5: document has no index"):
            load_corpus(path, references=references)
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert "line 5: document has no index line" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["{not json", '{"0": 0}', "0", "[true]",
                                 "[-1]", "[0.0]", "[1.5]", "[2]", '["0"]',
                                 "[[0]]", "[0, null]", "null", " [0]", "[0] ",
                                 "[0]x", "[0][1]"])
def test_index_line_must_hold_table_indices(tmp_path, capsys, bad):
    path, lines = saved_lines(tmp_path)
    lines[3] = bad + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert [d.id for d in load_corpus(path).documents] == ["a", "b"]
    with pytest.raises(ValueError, match=r"line 4: index line is not a JSON "
                                         r"array of reference table indices, "
                                         r"integers in \[0, 2\)"):
        load_corpus(path, references=True)
    assert main(["cocite", "--corpus", str(path), "--min-citations", "1",
                 "--out", str(tmp_path / "o")]) == 1
    assert "line 4: index line" in capsys.readouterr().err


# The fields of "b" in ``sample_corpus``, in document-line order.
_B_VALUES = [getattr(sample_corpus().documents[1], name)
             for name in DOCUMENT_FIELDS]
_B = json.dumps(_B_VALUES)
_AUTHORS_AT = DOCUMENT_FIELDS.index("authors")
_CITED_REFS_AT = Document._fields.index("cited_refs")


@pytest.mark.parametrize("bad", [
    # object lines, schema 4's layout, whole or not
    '{"id": "b", "unknown": 1}', '{"id": "b", "missing_fields": null}',
    '{"missing_fields": []}',
    pytest.param(json.dumps(dict(zip(DOCUMENT_FIELDS, _B_VALUES))),
                 id="object-line"),
    '["b"]', "[]", "null", '"b"', "{not json",
    pytest.param(json.dumps(_B_VALUES[:_AUTHORS_AT] + _B_VALUES[_AUTHORS_AT + 1:]),
                 id="no-authors"),
    pytest.param(json.dumps(_B_VALUES[:-1]), id="no-missing_fields"),
    pytest.param(json.dumps(_B_VALUES + [[]]), id="one-more-field"),
    pytest.param(json.dumps(_B_VALUES[:_CITED_REFS_AT] + [[]]
                            + _B_VALUES[_CITED_REFS_AT:]), id="cited_refs-key"),
    pytest.param(json.dumps([_B_VALUES]), id="nested"),
    pytest.param(" " + _B, id="leading-space"),
    pytest.param(_B + " ", id="trailing-space"),
    pytest.param(_B + "[]", id="second-value"),
    pytest.param(_B + "x", id="trailing-text"),
    pytest.param(_B[:-1], id="truncated")])
def test_malformed_document_line_names_its_line(tmp_path, bad):
    path, lines = saved_lines(tmp_path)
    lines[4] = bad + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="line 5: not a document"):
        load_corpus(path)


# A value of a type save_corpus never writes, for each document field.
WRONG_TYPES = {
    "id": 7, "authors": "KUMAR, PR", "title": None, "source": ["X"],
    "pub_year": "2001", "total_citations": None, "ref_count": True,
    "author_keywords": ["svm", 1], "keywords_plus": [None], "abstract": 3,
    "affiliations": {}, "corresponding": ["X"], "doi": 10.1,
    "doc_type": False, "language": 1, "categories": [["x"]],
    "quality_flags": "flag", "missing_fields": [16],
}


def test_every_document_field_has_a_wrong_type_case():
    assert tuple(WRONG_TYPES) == DOCUMENT_FIELDS


@pytest.mark.parametrize("field, value",
                         [*WRONG_TYPES.items(), ("pub_year", True),
                          ("pub_year", 2001.0), ("total_citations", False),
                          ("authors", None)])
def test_document_fields_must_have_their_types(tmp_path, capsys, field, value):
    path, lines = saved_lines(tmp_path)
    values = json.loads(lines[4])
    values[DOCUMENT_FIELDS.index(field)] = value
    lines[4] = json.dumps(values) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    for references in (False, True):
        with pytest.raises(ValueError, match="line 5: not a document"):
            load_corpus(path, references=references)
    for command in ("stats", "coverage"):
        assert main([command, "--corpus", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert "line 5: not a document" in capsys.readouterr().err


@pytest.mark.parametrize("schema", ["scimap-corpus/1", "scimap-corpus/2",
                                    "scimap-corpus/3", "scimap-corpus/4",
                                    "scimap-corpus/5"])
def test_version_1_file_asks_for_reingest(tmp_path, capsys, schema):
    path = tmp_path / "old.dat"
    path.write_text(json.dumps({"schema": schema,
                                "reference_year": 2023}) + "\n"
                    + json.dumps({"id": "a", "cited_refs": []}) + "\n")
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert schema in err and "re-ingest with this version" in err


@pytest.mark.parametrize("key, value", [
    ("reference_year", None), ("reference_year", "abc"),
    ("reference_year", 2023.0), ("reference_year", True),
    ("provenance", "sample.txt"), ("provenance", [1]), ("provenance", None),
])
def test_malformed_header_names_the_file(tmp_path, capsys, key, value):
    path, lines = saved_lines(tmp_path)
    header = json.loads(lines[0])
    if value is None:
        del header[key]
    else:
        header[key] = value
    lines[0] = json.dumps(header) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: header {key}" in err
    assert err.count(str(path)) == 1


def test_reference_table_is_written_in_slices(tmp_path):
    # 10,000 distinct references of about 270 bytes: a 2.7 MB table line.
    # Encoded whole, the save peaked at 6 MB under tracemalloc; a slice
    # at a time it peaks at 1.5 MB.
    refs = [CitedReference(f"AUTHOR{i} X, 2001, {'LONG ' * 21}{i}",
                           f"AUTHOR{i} X", 2001, f"{'LONG ' * 21}{i}")
            for i in range(10_000)]
    docs = [make_document(f"d{j}", title=f"t{j}", pub_year=2000,
                          cited_refs=refs[j::20]) for j in range(20)]
    corpus = build_corpus(docs, reference_year=2023)
    path = tmp_path / "corpus.dat"
    tracemalloc.start()
    try:
        save_corpus(corpus, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_line = path.read_text("utf-8").splitlines()[1]
    assert len(table_line) > 2_700_000
    # A bool, so a failure does not print a diff of two 2.7 MB strings.
    same = table_line == _dump([ref for doc in docs for ref in doc.cited_refs])
    assert same
    assert peak < 2_500_000, peak


def test_save_fills_missing_fields_so_coverage_needs_no_references(tmp_path):
    corpus = sample_corpus()
    # make_document fills both from their values, references included
    assert ["CR" in doc.missing_fields for doc in corpus.documents] == [False, True]
    expected = coverage_report(corpus)
    path = tmp_path / "corpus.dat"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert all(doc.missing_fields is not None for doc in loaded.documents)
    assert "CR" in loaded.documents[1].missing_fields
    assert "CR" not in loaded.documents[0].missing_fields
    assert coverage_report(loaded) == expected



def test_document_that_cannot_fill_missing_fields_leaves_no_file(tmp_path):
    corpus = sample_corpus()
    # as after a plain load
    corpus.documents[-1] = corpus.documents[-1]._replace(cited_refs=None)
    path = tmp_path / "corpus.dat"
    with pytest.raises(TypeError):
        save_corpus(corpus, path)
    assert not path.exists()

def test_corpus_loaded_without_references_is_not_saved(tmp_path):
    path, _ = saved_lines(tmp_path)
    again = tmp_path / "again.dat"
    with pytest.raises(TypeError, match="loaded without its references"):
        save_corpus(load_corpus(path), again)
    assert not again.exists()


@pytest.mark.parametrize("missing", [None, "CR", ("CR",)])
def test_document_without_missing_fields_list_leaves_no_file(tmp_path, missing):
    # load_corpus refuses a document whose missing_fields is not a list,
    # so save_corpus must not write one
    corpus = sample_corpus()
    corpus.documents[0] = corpus.documents[0]._replace(missing_fields=missing)
    path = tmp_path / "corpus.dat"
    with pytest.raises(TypeError, match="missing_fields"):
        save_corpus(corpus, path)
    assert not path.exists()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TEXT = st.text(max_size=12)
OPTIONAL_TEXT = st.none() | TEXT
OPTIONAL_INT = st.none() | st.integers(-10**6, 10**6)
TEXTS = st.lists(TEXT, max_size=3)
# A few fixed references recur across documents, so the table is shared.
REFERENCE = st.sampled_from([
    CitedReference("ALTMAN EI, 1968, J FINANC", "ALTMAN EI", 1968, "J FINANC"),
    CitedReference("ALTMAN EI, 1968, J FINANC"),
    CitedReference(""),
]) | st.builds(
    CitedReference,
    raw=st.one_of(TEXT, st.sampled_from(['A "quoted" ref\nsplit',
                                         "KUDELIĆ R, 2019, ÜBER, V1, P2"])),
    first_author=OPTIONAL_TEXT, year=OPTIONAL_INT, source=OPTIONAL_TEXT,
    doi=OPTIONAL_TEXT)
DOCUMENT = st.builds(
    Document, id=TEXT, authors=TEXTS, title=TEXT, source=TEXT,
    pub_year=OPTIONAL_INT, total_citations=st.integers(0, 10**6),
    cited_refs=st.lists(REFERENCE, max_size=4), ref_count=OPTIONAL_INT,
    author_keywords=TEXTS, keywords_plus=TEXTS, abstract=OPTIONAL_TEXT,
    affiliations=TEXTS, corresponding=OPTIONAL_TEXT, doi=OPTIONAL_TEXT,
    doc_type=TEXT, language=TEXT, categories=TEXTS, quality_flags=TEXTS,
    missing_fields=st.lists(
        st.sampled_from([tag for tag, _ in FIELD_ROLES]), unique=True))
CORPUS = st.builds(
    Corpus, documents=st.lists(DOCUMENT, max_size=4),
    reference_year=st.integers(1450, 2100), provenance=TEXTS,
    screening=st.lists(st.builds(ScreeningEntry, removed_id=TEXT, reason=TEXT,
                                 kept_id=TEXT, detail=TEXT), max_size=2))


def _without_references(doc: Document) -> Document:
    """A copy of ``doc`` as a load without references gives it."""
    return doc._replace(cited_refs=None)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(CORPUS, st.integers(1, 4))
def test_round_trip_with_and_without_references(tmp_path_factory, corpus,
                                                table_slice):
    path = tmp_path_factory.mktemp("rt") / "corpus.dat"
    # A small slice writes the table in several pieces; the second save
    # below writes it with the default slice and must give the same bytes.
    with mock.patch.object(corpus_module, "_TABLE_SLICE", table_slice):
        save_corpus(corpus, path)
    distinct = list(dict.fromkeys(ref for doc in corpus.documents
                                  for ref in doc.cited_refs))
    table_line = path.read_text("utf-8").splitlines()[1]
    assert table_line == _dump(distinct)
    # The file does not keep the screening ledger.
    assert load_corpus(path, references=True) == Corpus(
        corpus.documents, corpus.reference_year, corpus.provenance)
    without = load_corpus(path)
    assert without == Corpus(
        [_without_references(doc) for doc in corpus.documents],
        corpus.reference_year, corpus.provenance)
    again = path.with_name("again.dat")
    save_corpus(load_corpus(path, references=True), again)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(DOCUMENT, min_size=1, max_size=4))
def test_each_document_is_one_positional_line_and_loads_equal(
        tmp_path_factory, documents):
    path = tmp_path_factory.mktemp("docs") / "corpus.dat"
    save_corpus(Corpus(documents, 2023), path)
    lines = path.read_text("utf-8").splitlines()
    assert [json.loads(line) for line in lines[2::2]] == [
        [getattr(doc, name) for name in DOCUMENT_FIELDS] for doc in documents]
    assert load_corpus(path, references=True).documents == documents


# Text after a document's array on its line; a line break would start a
# new line.
TRAILING = st.text(st.characters(blacklist_characters="\r\n"),
                   min_size=1, max_size=4)
OTHER_VALUE = st.none() | st.booleans() | TEXT | st.integers() | TEXTS


@settings(max_examples=300, derandomize=True, deadline=None)
@given(DOCUMENT, st.sampled_from(("shorter", "longer", "object", "trailing")),
       st.data())
def test_document_line_of_another_shape_is_refused(tmp_path_factory, doc,
                                                   change, data):
    values = [getattr(doc, name) for name in DOCUMENT_FIELDS]
    if change == "shorter":
        line = json.dumps(values[:data.draw(st.integers(0, len(values) - 1))])
    elif change == "longer":
        line = json.dumps(values + data.draw(st.lists(OTHER_VALUE, min_size=1,
                                                      max_size=3)))
    elif change == "object":
        line = json.dumps(dict(zip(DOCUMENT_FIELDS, values)))
    else:
        line = json.dumps(values) + data.draw(TRAILING)
    path = tmp_path_factory.mktemp("bad") / "corpus.dat"
    save_corpus(Corpus([doc], 2023), path)
    lines = path.read_text("utf-8").splitlines(keepends=True)
    lines[2] = line + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    for references in (False, True):
        with pytest.raises(ValueError, match="line 3: not a document"):
            load_corpus(path, references=references)
