"""Corpus file schema 7: a header without the screening ledger, a
reference table holding each distinct cited reference once as a
five-element array, one line per document field holding that field's
value in each document, and a last line of indices into the table.  A
load decodes only the lines of the fields it asks for, and the id line;
malformed lines it reads are rejected with their line number."""
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
from scimap.normalize import _FIELD_VALUES, field_values
from scimap.records import (
    CitedReference, Corpus, Document, FIELD_ROLES, ScreeningEntry,
)

# 1-based line numbers: the header, the table, one line per field, the
# index line.
FIELD_LINE = {name: 3 + i for i, name in enumerate(DOCUMENT_FIELDS)}
INDEX_LINE = 3 + len(DOCUMENT_FIELDS)


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


def column(name: str) -> list:
    """The values of field ``name`` in ``sample_corpus``, in file order."""
    return [getattr(doc, name) for doc in sample_corpus().documents]


def test_reference_fields_follow_the_record():
    assert REFERENCE_FIELDS == CitedReference._fields


def test_document_fields_keep_their_file_order():
    assert DOCUMENT_FIELDS == (
        "id", "authors", "title", "source", "pub_year", "total_citations",
        "ref_count", "author_keywords", "keywords_plus", "abstract",
        "affiliations", "corresponding", "doi", "doc_type", "language",
        "categories", "quality_flags", "missing_fields")


def test_one_line_per_field(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert json.loads(lines[0]) == {"schema": CORPUS_SCHEMA,
                                    "reference_year": 2023,
                                    "provenance": ["test"]}
    assert CORPUS_SCHEMA == "scimap-corpus/7"
    assert len(lines) == INDEX_LINE
    assert json.loads(lines[1]) == [
        ["ALTMAN EI, 1968, J FINANC, V23, P589", "ALTMAN EI", 1968,
         "J FINANC", None],
        ["OHLSON JA, 1980, J ACCOUNTING RES", "OHLSON JA", 1980,
         "J ACCOUNTING RES", None]]
    for name, lineno in FIELD_LINE.items():
        assert lines[lineno - 1] == _dump(column(name)) + "\n"
    assert lines[FIELD_LINE["id"] - 1] == '["a","b"]\n'
    assert lines[FIELD_LINE["pub_year"] - 1] == "[2007,2010]\n"
    assert lines[FIELD_LINE["abstract"] - 1] == "[null,null]\n"
    assert lines[-1] == "[[0,1],[]]\n"


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
    assert json.loads(lines[-1]) == [[0, 1], [1, 0, 1], [0]]
    a, b, c = load_corpus(path).documents
    assert a.cited_refs == [altman, ohlson]
    assert b.cited_refs[0] is b.cited_refs[2] is a.cited_refs[1]
    assert b.cited_refs[1] is c.cited_refs[0] is a.cited_refs[0]


def test_load_without_references_leaves_them_unset(tmp_path):
    path, _ = saved_lines(tmp_path)
    loaded = load_corpus(path, DOCUMENT_FIELDS)
    assert loaded.fields == DOCUMENT_FIELDS
    doc = loaded.documents[0]
    assert doc.cited_refs is None
    with pytest.raises(TypeError):
        len(doc.cited_refs)
    for tag, (names, _) in _FIELD_VALUES.items():
        if names == ("cited_refs",):
            with pytest.raises(TypeError):
                field_values(doc, tag)
        else:
            field_values(doc, tag)


def test_tag_fields_name_what_each_accessor_reads():
    full = sample_corpus().documents[0]
    for tag, (names, _) in _FIELD_VALUES.items():
        # every other field None, as a load of only these fields leaves it
        only = Document._make(getattr(full, name) if name in names else None
                              for name in Document._fields)
        assert field_values(only, tag) == field_values(full, tag), tag


@pytest.mark.parametrize("name", Document._fields)
def test_unread_fields_are_none(tmp_path, name):
    path, _ = saved_lines(tmp_path)
    loaded = load_corpus(path, [name])
    assert loaded.fields == tuple(dict.fromkeys(("id", name)))
    expected = sample_corpus().documents
    for doc, want in zip(loaded.documents, expected, strict=True):
        for field in Document._fields:
            assert getattr(doc, field) == (
                getattr(want, field) if field in ("id", name) else None)
    assert loaded.reference_year == 2023 and loaded.provenance == ["test"]


def test_unknown_field_is_refused(tmp_path):
    path, _ = saved_lines(tmp_path)
    with pytest.raises(ValueError, match="unknown document fields: volume"):
        load_corpus(path, ["title", "volume"])


def test_invalid_reference_line_is_skipped_undecoded(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[1] = "{not json\n"
    lines[-1] = "{not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert [d.id for d in load_corpus(path, DOCUMENT_FIELDS).documents] \
        == ["a", "b"]
    with pytest.raises(ValueError, match="line 2: reference table"):
        load_corpus(path)


@pytest.mark.parametrize("name", Document._fields)
def test_load_without_references_never_decodes_table_or_index_lines(
        tmp_path, monkeypatch, name):
    # A load decodes the header, the id line and the lines of the fields
    # it asks for; a load with references also decodes the table.
    path, lines = saved_lines(tmp_path)
    decoded = []
    raw_decode = corpus_module._raw_decode

    def spy(text, *args, **kwargs):
        decoded.append(text)
        return raw_decode(text, *args, **kwargs)

    monkeypatch.setattr(corpus_module, "_raw_decode", spy)
    monkeypatch.setattr(json, "loads", None)  # every line goes through the spy
    load_corpus(path, [name])
    wanted = [lines[1], lines[-1]] if name == "cited_refs" \
        else [lines[FIELD_LINE[name] - 1]]
    assert sorted(decoded) == sorted({lines[0], lines[2], *wanted})
    decoded.clear()
    load_corpus(path)
    assert sorted(decoded) == sorted(lines)


def test_file_without_reference_table_names_line_2(tmp_path, capsys):
    path, lines = saved_lines(tmp_path)
    path.write_text(lines[0], encoding="utf-8")
    for fields in ((), Document._fields):
        with pytest.raises(ValueError, match="line 2: no reference table"):
            load_corpus(path, fields)
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
    load_corpus(path, DOCUMENT_FIELDS)
    with pytest.raises(ValueError, match="line 2: reference table is not a "
                                         "JSON array of 5-element arrays"):
        load_corpus(path)
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
    load_corpus(path, DOCUMENT_FIELDS)
    with pytest.raises(ValueError, match="line 2: reference table is not"):
        load_corpus(path)
    assert main(["rpys", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "line 2: reference table" in capsys.readouterr().err


def test_reference_fields_may_be_null(tmp_path):
    path, lines = saved_lines(tmp_path)
    entries = json.loads(lines[1])
    entries[1] = [entries[1][0]] + [None] * (len(REFERENCE_FIELDS) - 1)
    lines[1] = json.dumps(entries) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    refs = load_corpus(path).documents[0].cited_refs
    assert refs[1] == CitedReference(raw=entries[1][0])


@pytest.mark.parametrize("kept", range(2, INDEX_LINE))
def test_missing_line_names_its_line(tmp_path, capsys, kept):
    # The file ends after its first ``kept`` lines; every load fails,
    # whichever fields it reads.
    path, lines = saved_lines(tmp_path)
    path.write_text("".join(lines[:kept]), encoding="utf-8")
    what = "index" if kept + 1 == INDEX_LINE else DOCUMENT_FIELDS[kept - 2]
    for fields in ((), ["title"], Document._fields):
        with pytest.raises(ValueError, match=f"^line {kept + 1}: no {what} "
                                             f"line$"):
            load_corpus(path, fields)
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert f"line {kept + 1}: no {what} line" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["[]\n", "\n", "x"])
def test_extra_line_names_its_line(tmp_path, capsys, extra):
    path, lines = saved_lines(tmp_path)
    path.write_text("".join(lines) + extra, encoding="utf-8")
    for fields in ((), Document._fields):
        with pytest.raises(ValueError, match=f"^line {INDEX_LINE + 1}: a line "
                                             f"after the index line$"):
            load_corpus(path, fields)
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert f"line {INDEX_LINE + 1}: a line after" in capsys.readouterr().err


def test_id_line_sets_the_document_count(tmp_path):
    path, lines = saved_lines(tmp_path)
    lines[FIELD_LINE["id"] - 1] = '["a"]\n'
    path.write_text("".join(lines), encoding="utf-8")
    assert [doc.id for doc in load_corpus(path, ["id"]).documents] == ["a"]
    with pytest.raises(ValueError, match=f"^line {FIELD_LINE['authors']}: "
                                         f"authors line holds 2 values for "
                                         f"1 documents$"):
        load_corpus(path)


# Index-line params that hold document a's entry with text around it put
# that text around the whole line instead.
_AROUND_THE_LINE = {" [0]", "[0] ", "[0]x", "[0][1]"}


@pytest.mark.parametrize("bad", ["{not json", '{"0": 0}', "0", "[true]",
                                 "[-1]", "[0.0]", "[1.5]", "[2]", '["0"]',
                                 "[[0]]", "[0, null]", "null", " [0]", "[0] ",
                                 "[0]x", "[0][1]"])
def test_index_line_must_hold_table_indices(tmp_path, capsys, bad):
    path, lines = saved_lines(tmp_path)
    lines[-1] = (bad.replace("[0]", "[[0,1],[]]") if bad in _AROUND_THE_LINE
                 else f"[{bad},[]]") + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert [d.id for d in load_corpus(path, DOCUMENT_FIELDS).documents] \
        == ["a", "b"]
    with pytest.raises(ValueError, match=rf"line {INDEX_LINE}: index line is "
                                         r"not a JSON array of arrays of "
                                         r"reference table indices, "
                                         r"integers in \[0, 2\)"):
        load_corpus(path)
    assert main(["cocite", "--corpus", str(path), "--min-citations", "1",
                 "--out", str(tmp_path / "o")]) == 1
    assert f"line {INDEX_LINE}: index line" in capsys.readouterr().err


@pytest.mark.parametrize("entries", [[[0, 1]], [[0, 1], [], []], []])
def test_index_line_holds_one_entry_per_document(tmp_path, entries):
    path, lines = saved_lines(tmp_path)
    lines[-1] = json.dumps(entries) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    load_corpus(path, DOCUMENT_FIELDS)
    with pytest.raises(ValueError, match=f"line {INDEX_LINE}: index line "
                                         f"holds {len(entries)} values for "
                                         f"2 documents"):
        load_corpus(path)


_AUTHORS = json.dumps(column("authors"))


@pytest.mark.parametrize("bad", [
    # object lines, and a line per document as schema 6 wrote
    '{"id": "b", "unknown": 1}', '{"id": "b", "missing_fields": null}',
    '{"missing_fields": []}',
    pytest.param(("authors", json.dumps(dict(zip("ab", column("authors"))))),
                 id="object-line"),
    '["b"]', "[]", "null", '"b"', "{not json",
    pytest.param(("authors", json.dumps(column("authors")[1:])),
                 id="no-authors"),
    pytest.param(("missing_fields", json.dumps(column("missing_fields")[:-1])),
                 id="no-missing_fields"),
    pytest.param(("authors", json.dumps(column("authors") + [[]])),
                 id="one-more-field"),
    pytest.param(("authors", "[[0,1],[]]"), id="cited_refs-key"),
    pytest.param(("authors", json.dumps([column("authors")])), id="nested"),
    pytest.param(("authors", " " + _AUTHORS), id="leading-space"),
    pytest.param(("authors", _AUTHORS + " "), id="trailing-space"),
    pytest.param(("authors", _AUTHORS + "[]"), id="second-value"),
    pytest.param(("authors", _AUTHORS + "x"), id="trailing-text"),
    pytest.param(("authors", _AUTHORS[:-1]), id="truncated")])
def test_malformed_document_line_names_its_line(tmp_path, bad):
    # A document line is the line of one field; a bare string replaces
    # the authors line.  Only a load that reads the field sees the fault.
    name, text = bad if isinstance(bad, tuple) else ("authors", bad)
    path, lines = saved_lines(tmp_path)
    lines[FIELD_LINE[name] - 1] = text + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    for fields in ([name], Document._fields):
        with pytest.raises(ValueError, match=f"^line {FIELD_LINE[name]}: "
                                             f"{name} line "):
            load_corpus(path, fields)
    assert len(load_corpus(path, ["title"])) == 2


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
    values = column(field)
    values[1] = value
    lines[FIELD_LINE[field] - 1] = json.dumps(values) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    for fields in ([field], Document._fields):
        with pytest.raises(ValueError, match=f"^line {FIELD_LINE[field]}: "
                                             f"{field} line is not a JSON "
                                             f"array of "):
            load_corpus(path, fields)
    # coverage reads missing_fields, and every load reads the ids
    read_by_coverage = field in ("id", "missing_fields")
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == int(read_by_coverage)
    assert (f"line {FIELD_LINE[field]}: {field} line"
            in capsys.readouterr().err) == read_by_coverage


@pytest.mark.parametrize("schema", ["scimap-corpus/1", "scimap-corpus/2",
                                    "scimap-corpus/3", "scimap-corpus/4",
                                    "scimap-corpus/5", "scimap-corpus/6"])
def test_version_1_file_asks_for_reingest(tmp_path, capsys, schema):
    path = tmp_path / "old.dat"
    path.write_text(json.dumps({"schema": schema,
                                "reference_year": 2023}) + "\n"
                    + json.dumps({"id": "a", "cited_refs": []}) + "\n")
    assert main(["coverage", "--corpus", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert schema in err and "re-ingest with this version" in err


def test_schema_6_file_asks_for_reingest(tmp_path, capsys):
    # A whole schema-6 file: the header, the table, then two lines per
    # document (its fields as one array, its reference indices).
    docs = sample_corpus().documents
    lines = [_dump({"schema": "scimap-corpus/6", "reference_year": 2023,
                    "provenance": ["test"]}),
             _dump([docs[0].cited_refs[0], docs[0].cited_refs[1]])]
    for doc, indices in zip(docs, ([0, 1], [])):
        lines += [_dump([getattr(doc, name) for name in DOCUMENT_FIELDS]),
                  _dump(indices)]
    path = tmp_path / "old.dat"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("coverage", "stats"):
        assert main([command, "--corpus", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"scimap: error: {path}: unsupported corpus schema "
            f"'scimap-corpus/6' (expected scimap-corpus/7): re-ingest with "
            f"this version\n")


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


def _save_peak(corpus: Corpus, path) -> int:
    tracemalloc.start()
    try:
        save_corpus(corpus, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    peak = _save_peak(corpus, path)
    table_line = path.read_text("utf-8").splitlines()[1]
    assert len(table_line) > 2_700_000
    # A bool, so a failure does not print a diff of two 2.7 MB strings.
    same = table_line == _dump([ref for doc in docs for ref in doc.cited_refs])
    assert same
    assert peak < 2_500_000, peak


def test_field_and_index_lines_are_written_in_slices(tmp_path):
    # 10,000 documents with a 270-byte abstract and 20 references each:
    # a 2.7 MB abstract line and a 0.8 MB index line of 200,000 indices.
    # Encoded whole, either line alone would peak above 2.5 MB.
    refs = [CitedReference(f"R{i}") for i in range(1000)]
    docs = [make_document(f"d{j}", title=f"t{j}", pub_year=2000,
                          abstract=f"{'LONG ' * 53}{j:05}",
                          cited_refs=refs[j % 50::50])
            for j in range(10_000)]
    corpus = Corpus(docs, 2023)
    path = tmp_path / "corpus.dat"
    peak = _save_peak(corpus, path)
    lines = path.read_text("utf-8").splitlines()
    abstracts = lines[FIELD_LINE["abstract"] - 1]
    assert len(abstracts) > 2_700_000 and len(lines[-1]) > 750_000
    table = {ref: index for index, ref in enumerate(dict.fromkeys(
        ref for doc in docs for ref in doc.cited_refs))}
    same = (abstracts == _dump([doc.abstract for doc in docs])
            and lines[-1] == _dump([[table[ref] for ref in doc.cited_refs]
                                    for doc in docs]))
    assert same
    assert peak < 2_500_000, peak


def test_loading_one_field_peaks_well_below_a_full_load(tmp_path):
    # 4,000 documents with abstracts, keywords, affiliations and 20
    # references each, from a 4.7 MB reference table.  A load of
    # missing_fields decodes the ids and that one line and reads past the
    # rest, the table line too, a buffer at a time.  The schema-6 loader
    # decoded every field but the references on each load: on the same
    # documents that peaked at 14.5 MB under tracemalloc, against 19.7 MB
    # for a full load here and 2.7 MB for this one.  Read whole, the
    # table line alone took this load to 9.5 MB.
    refs = [CitedReference(f"AUTHOR{i} X, 2001, {'SOURCE ' * 80}{i}",
                           f"AUTHOR{i} X", 2001, f"{'SOURCE ' * 80}{i}")
            for i in range(4000)]
    docs = [make_document(f"doc{j}", authors=[f"AUTHOR{j % 300}, X"],
                          title=f"A title of document {j}", pub_year=2000,
                          source="SOME JOURNAL", keywords=["a", "b", f"k{j}"],
                          abstract=f"{'words of an abstract ' * 40}{j}",
                          affiliations=[f"UNIV {j % 50}, CITY, COUNTRY"],
                          cited_refs=refs[j % 200::200])
            for j in range(4000)]
    path = tmp_path / "corpus.dat"
    save_corpus(Corpus(docs, 2023), path)
    with path.open(encoding="utf-8") as handle:
        handle.readline()
        table_size = len(handle.readline())
    assert table_size > 4_500_000
    peaks = {}
    for fields in (["missing_fields"], Document._fields):
        tracemalloc.start()
        try:
            loaded = load_corpus(path, fields)
            peaks[len(fields)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 4000
        del loaded
    partial, full = peaks[1], peaks[len(Document._fields)]
    assert partial < full / 4, peaks
    assert partial < table_size, (partial, table_size)


def test_save_fills_missing_fields_so_coverage_needs_no_references(tmp_path):
    corpus = sample_corpus()
    # make_document fills both from their values, references included
    assert ["CR" in doc.missing_fields for doc in corpus.documents] == [False, True]
    expected = coverage_report(corpus)
    path = tmp_path / "corpus.dat"
    save_corpus(corpus, path)
    loaded = load_corpus(path, ["missing_fields"])
    assert all(doc.missing_fields is not None for doc in loaded.documents)
    assert "CR" in loaded.documents[1].missing_fields
    assert "CR" not in loaded.documents[0].missing_fields
    assert coverage_report(loaded) == expected


def test_document_that_cannot_fill_missing_fields_leaves_no_file(tmp_path):
    corpus = sample_corpus()
    # a document built in code without its references
    corpus.documents[-1] = corpus.documents[-1]._replace(cited_refs=None)
    path = tmp_path / "corpus.dat"
    with pytest.raises(TypeError, match="'b' has no references"):
        save_corpus(corpus, path)
    assert not path.exists()


def test_corpus_loaded_without_references_is_not_saved(tmp_path):
    path, _ = saved_lines(tmp_path)
    again = tmp_path / "again.dat"
    with pytest.raises(TypeError, match="loaded without cited_refs and "
                                        "cannot be saved"):
        save_corpus(load_corpus(path, DOCUMENT_FIELDS), again)
    assert not again.exists()


@pytest.mark.parametrize("name", DOCUMENT_FIELDS[1:])
def test_corpus_loaded_with_some_fields_is_not_saved(tmp_path, name):
    # Unread fields hold None, which some fields may also hold, so the
    # corpus, not its documents, tells a partial load.
    path, _ = saved_lines(tmp_path)
    again = tmp_path / "again.dat"
    partial = load_corpus(path, [field for field in Document._fields
                                 if field != name])
    with pytest.raises(TypeError, match=f"loaded without {name} and cannot"):
        save_corpus(partial, again)
    with pytest.raises(TypeError, match="loaded without authors, title, "):
        save_corpus(load_corpus(path, ["id"]), again)
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
FIELDS = st.sets(st.sampled_from(Document._fields))


def _only(doc: Document, fields) -> Document:
    """A copy of ``doc`` as a load of ``fields`` gives it."""
    return Document._make(value if name == "id" or name in fields else None
                          for name, value in zip(Document._fields, doc))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(CORPUS, st.integers(1, 4), FIELDS)
def test_round_trip_with_and_without_references(tmp_path_factory, corpus,
                                                table_slice, fields):
    path = tmp_path_factory.mktemp("rt") / "corpus.dat"
    # A small slice writes each line in several pieces; the second save
    # below writes them with the default slice and must give the same
    # bytes.
    with mock.patch.object(corpus_module, "_TABLE_SLICE", table_slice):
        save_corpus(corpus, path)
    distinct = list(dict.fromkeys(ref for doc in corpus.documents
                                  for ref in doc.cited_refs))
    table_line = path.read_text("utf-8").splitlines()[1]
    assert table_line == _dump(distinct)
    # The file does not keep the screening ledger.
    assert load_corpus(path) == Corpus(
        corpus.documents, corpus.reference_year, corpus.provenance)
    some = load_corpus(path, fields)
    assert some.documents == [_only(doc, fields) for doc in corpus.documents]
    assert some.fields == tuple(name for name in Document._fields
                                if name == "id" or name in fields)
    again = path.with_name("again.dat")
    save_corpus(load_corpus(path), again)
    assert again.read_bytes() == path.read_bytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(DOCUMENT, min_size=1, max_size=4))
def test_each_field_is_one_line_and_loads_equal(tmp_path_factory, documents):
    path = tmp_path_factory.mktemp("docs") / "corpus.dat"
    save_corpus(Corpus(documents, 2023), path)
    lines = path.read_text("utf-8").splitlines()
    assert [json.loads(lines[FIELD_LINE[name] - 1])
            for name in DOCUMENT_FIELDS] == [
        [getattr(doc, name) for doc in documents] for name in DOCUMENT_FIELDS]
    assert load_corpus(path).documents == documents


# Text after a line's array; a line break would start a new line.
TRAILING = st.text(st.characters(blacklist_characters="\r\n"),
                   min_size=1, max_size=4)
OTHER_VALUE = st.none() | st.booleans() | TEXT | st.integers() | TEXTS


@settings(max_examples=300, derandomize=True, deadline=None)
@given(DOCUMENT, st.sampled_from(DOCUMENT_FIELDS[1:]),
       st.sampled_from(("shorter", "longer", "object", "trailing")), st.data())
def test_document_line_of_another_shape_is_refused(tmp_path_factory, doc,
                                                   name, change, data):
    # A document line is the line of one field: it must hold one value
    # per document and nothing after its array.  The id line sets the
    # count (see test_id_line_sets_the_document_count).
    values = [getattr(doc, name)]
    if change == "shorter":
        line = "[]"
    elif change == "longer":
        line = json.dumps(values + data.draw(st.lists(OTHER_VALUE, min_size=1,
                                                      max_size=3)))
    elif change == "object":
        line = json.dumps({doc.id: values[0]})
    else:
        line = json.dumps(values) + data.draw(TRAILING)
    path = tmp_path_factory.mktemp("bad") / "corpus.dat"
    save_corpus(Corpus([doc], 2023), path)
    lines = path.read_text("utf-8").splitlines(keepends=True)
    lines[FIELD_LINE[name] - 1] = line + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    for fields in ([name], Document._fields):
        with pytest.raises(ValueError, match=f"line {FIELD_LINE[name]}: "
                                             f"{name} line "):
            load_corpus(path, fields)
