from __future__ import annotations

import random

import pytest

from scimap.parsing import (
    ExportParseError, parse_bibtex_export, parse_plaintext_export,
)

HEADER = "FN Clarivate Analytics Web of Science\nVR 1.0\n"

MINIMAL_RECORD = (
    "PT J\n"
    "AU Altman, EI\n"
    "TI Financial ratios and the prediction of corporate bankruptcy\n"
    "SO JOURNAL OF FINANCE\n"
    "PY 1968\n"
    "TC 512\n"
    "ER\n"
)


def test_single_record_has_six_tags():
    records = parse_plaintext_export((HEADER + MINIMAL_RECORD + "EF\n").encode())
    assert len(records) == 1
    assert set(records[0].entries) == {"PT", "AU", "TI", "SO", "PY", "TC"}


def test_empty_file_after_header():
    assert parse_plaintext_export((HEADER + "EF\n").encode()) == []
    assert parse_plaintext_export(b"") == []


def test_cr_block_with_three_continuation_lines():
    # Hand-parse oracle: the CR tag line opens the block, each of the three
    # indented lines contributes one value.
    text = (
        HEADER
        + "PT J\n"
        + "AU Kumar, P. Ravi\n"
        + "TI A review\n"
        + "CR\n"
        + "   ALTMAN EI, 1968, J FINANC, V23, P589\n"
        + "   OHLSON JA, 1980, J ACCOUNTING RES, V18, P109\n"
        + "   BEAVER WH, 1966, J ACCOUNTING RES, V4, P71\n"
        + "PY 2007\n"
        + "TC 609\n"
        + "ER\nEF\n"
    )
    records = parse_plaintext_export(text.encode())
    assert len(records) == 1
    assert records[0].entries["CR"] == [
        "ALTMAN EI, 1968, J FINANC, V23, P589",
        "OHLSON JA, 1980, J ACCOUNTING RES, V18, P109",
        "BEAVER WH, 1966, J ACCOUNTING RES, V4, P71",
    ]


def test_continuation_appends_to_previous_tag():
    text = (
        HEADER
        + "PT J\n"
        + "TI Bankruptcy prediction in banks and firms via statistical and\n"
        + "   intelligent techniques - A review\n"
        + "TC 609\n"
        + "ER\nEF\n"
    )
    records = parse_plaintext_export(text.encode())
    assert records[0].entries["TI"] == [
        "Bankruptcy prediction in banks and firms via statistical and",
        "intelligent techniques - A review",
    ]


def test_unterminated_record_names_file_and_index():
    data = (HEADER + "PT J\nTI No terminator\n").encode()
    with pytest.raises(ExportParseError) as err:
        parse_plaintext_export(data, source_file="broken.txt")
    assert "broken.txt" not in str(err.value)  # the caller names the file
    assert "record 1: " in str(err.value)


def test_terminator_without_record_names_its_line():
    data = (HEADER + MINIMAL_RECORD + "\nER\nEF\n").encode()
    with pytest.raises(ExportParseError) as err:
        parse_plaintext_export(data, source_file="stray.txt")
    assert str(err.value) == ("record 2, line 11: record terminator "
                              "without record")
    assert err.value.line == 11


def test_tag_only_line_records_an_empty_value_list():
    text = HEADER + "PT J\nDE\nID   \nTC 1\nER\nEF\n"
    (record,) = parse_plaintext_export(text.encode())
    assert record.entries["DE"] == []
    assert record.entries["ID"] == []
    assert list(record.entries) == ["PT", "DE", "ID", "TC"]


def test_unindented_line_inside_a_record_continues_the_last_tag():
    text = (HEADER + "PT J\nTI A title broken\nacross two lines\n"
            "  and a short indent\nDE\nloose keyword\nER\nEF\n")
    (record,) = parse_plaintext_export(text.encode())
    assert record.entries["TI"] == ["A title broken", "across two lines",
                                    "and a short indent"]
    assert record.entries["DE"] == ["loose keyword"]


def test_non_tag_lines_outside_records_are_ignored():
    text = ("junk before the header\n" + HEADER + "   indented noise\n"
            + MINIMAL_RECORD + "between records\n" + MINIMAL_RECORD + "EF\n")
    records = parse_plaintext_export(text.encode())
    assert [r.record_index for r in records] == [0, 1]
    assert records[0].entries == records[1].entries
    assert records[0].entries["TC"] == ["512"]


def test_lines_after_the_trailer_are_ignored():
    text = HEADER + MINIMAL_RECORD + "EF\nPT J\nTI Never closed\nER\nER\n"
    records = parse_plaintext_export(text.encode())
    assert len(records) == 1
    assert records[0].entries["TI"] == [
        "Financial ratios and the prediction of corporate bankruptcy"]


def test_crlf_line_ends_parse_like_lf():
    text = (HEADER + "PT J\nTI Title\n   continued\nDE\nER\n"
            + MINIMAL_RECORD + "EF\n")
    lf = parse_plaintext_export(text.encode())
    crlf = parse_plaintext_export(text.replace("\n", "\r\n").encode())
    assert [(r.entries, r.record_index) for r in crlf] == \
        [(r.entries, r.record_index) for r in lf]
    assert crlf[0].entries["TI"] == ["Title", "continued"]


def test_unknown_tags_preserved():
    text = HEADER + "PT J\nZ9 640\nU1 12\nTC 1\nER\nEF\n"
    records = parse_plaintext_export(text.encode())
    assert records[0].entries["Z9"] == ["640"]
    assert records[0].entries["U1"] == ["12"]


def test_bom_tolerated():
    data = b"\xef\xbb\xbf" + (HEADER + MINIMAL_RECORD + "EF\n").encode()
    assert len(parse_plaintext_export(data)) == 1


def test_plaintext_totality_on_fuzz_input():
    rng = random.Random(20230505)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        try:
            result = parse_plaintext_export(blob)
        except ExportParseError:
            continue
        assert isinstance(result, list)


BIBTEX_ENTRY = """\
@article{ WOS:000245606900001,
Author = {Kumar, P. Ravi and Ravi, V.},
Title = {{Bankruptcy prediction in banks and firms via statistical and
   intelligent techniques - A review}},
Journal = {{EUROPEAN JOURNAL OF OPERATIONAL RESEARCH}},
Year = {{2007}},
Keywords = {{bankruptcy prediction; neural networks}},
Cited-References = {{ALTMAN EI, 1968, J FINANC, V23, P589.
OHLSON JA, 1980, J ACCOUNTING RES, V18, P109.}},
Times-Cited = {{187}},
DOI = {{10.1016/j.ejor.2006.08.043}},
}
"""


def test_bibtex_times_cited_maps_to_tc():
    records = parse_bibtex_export("@article{X, Times-Cited = {{187}}}".encode())
    assert len(records) == 1
    assert records[0].entries["TC"] == ["187"]


def test_bibtex_full_entry_vocabulary():
    records = parse_bibtex_export(BIBTEX_ENTRY.encode())
    record = records[0]
    assert record.entries["AU"] == ["Kumar, P. Ravi", "Ravi, V."]
    assert record.entries["SO"] == ["EUROPEAN JOURNAL OF OPERATIONAL RESEARCH"]
    assert record.entries["PY"] == ["2007"]
    assert record.entries["DE"] == ["bankruptcy prediction", "neural networks"]
    assert record.entries["DI"] == ["10.1016/j.ejor.2006.08.043"]
    assert "A review" in record.entries["TI"][0]


def test_bibtex_missing_abstract_is_not_an_error():
    records = parse_bibtex_export(BIBTEX_ENTRY.encode())
    assert "AB" not in records[0].entries


def test_bibtex_cited_references_split_on_separator():
    # Two separator-joined references, checked against a manual split.
    records = parse_bibtex_export(BIBTEX_ENTRY.encode())
    assert records[0].entries["CR"] == [
        "ALTMAN EI, 1968, J FINANC, V23, P589",
        "OHLSON JA, 1980, J ACCOUNTING RES, V18, P109",
    ]


def test_bibtex_duplicate_field_last_wins_and_flags():
    entry = "@article{X,\nYear = {{1999}},\nYear = {{2001}},\n}\n"
    records = parse_bibtex_export(entry.encode())
    assert records[0].entries["PY"] == ["2001"]
    assert any(flag.startswith("duplicate-field:year") for flag in records[0].flags)


@pytest.mark.parametrize("fields, tag, value, flag", [
    ("Type = {Article}, DocType = {Review}", "DT", ["Review"],
     "duplicate-field:doctype"),
    ("Affiliation = {A}, Affiliations = {B\nC}", "C1", ["B", "C"],
     "duplicate-field:affiliations"),
])
def test_bibtex_two_names_for_one_tag_are_a_duplicate(fields, tag, value, flag):
    # The citation key is not a field: a Unique-ID field adds to it.
    entry = f"@article{{k, Unique-ID = {{WOS:2}}, {fields}}}"
    [record] = parse_bibtex_export(entry.encode())
    assert record.entries[tag] == value
    assert record.entries["UT"] == ["k", "WOS:2"]
    assert record.flags == [flag]


@pytest.mark.parametrize("key, ut", [("k", ["k", "B"]), ("", ["B"])])
def test_bibtex_repeated_unique_id_keeps_the_citation_key(key, ut):
    # Only the earlier field's value is dropped; the key stays the first UT,
    # which to_document takes as the document id.
    entry = f"@article{{{key}, Unique-ID={{A}}, Unique-ID={{B}}}}"
    [record] = parse_bibtex_export(entry.encode())
    assert record.entries["UT"] == ut
    assert record.flags == ["duplicate-field:unique-id"]


def test_bibtex_string_and_preamble_are_not_records():
    data = b'@article{WOS:1}\n@string{jfe = "J"}\n@preamble{"x"}\n@article{k2,}'
    records = parse_bibtex_export(data)
    assert [(r.entries, r.record_index) for r in records] == \
        [({"UT": ["WOS:1"]}, 0), ({"UT": ["k2"]}, 1)]


def test_bibtex_key_only_entry_keeps_its_key():
    [record] = parse_bibtex_export(b"@article{ WOS:000123 }")
    assert record.entries == {"UT": ["WOS:000123"]}


def test_bibtex_unbalanced_braces_reports_offset():
    entry = "@article{X,\nTitle = {{broken},\n}\n"
    with pytest.raises(ExportParseError) as err:
        parse_bibtex_export(entry.encode(), source_file="bad.bib")
    assert err.value.offset is not None
    assert "record 1, byte " in str(err.value)


def test_bibtex_field_name_stops_at_a_closing_brace():
    # "junk" has no "=" before the entry's "}"; the next entry's "=" must
    # not end its name, which would file k2's title under k1.
    data = ("@article{k1, Title = {First}, junk}\n"
            "@article{k2, Title = {Second}, Year = {2001}}").encode()
    with pytest.raises(ExportParseError) as err:
        parse_bibtex_export(data, source_file="f.bib")
    assert str(err.value) == "record 1, byte 30: field without '='"
    assert err.value.offset == data.index(b"junk")


def test_bibtex_error_offset_counts_bytes():
    # k2's opening brace is character 50 and byte 53: three of the
    # characters before it take two bytes each.
    data = ("@article{k1, Title = {Économie à Zürich}}\n"
            "@article{k2, Title = {x}").encode()
    assert data.index(b"{k2") == 53
    with pytest.raises(ExportParseError) as err:
        parse_bibtex_export(data, source_file="f.bib")
    assert str(err.value) == "record 2, byte 53: unbalanced braces"
    # counted after a stripped BOM, as the UTF-8 check counts
    with pytest.raises(ExportParseError) as err:
        parse_bibtex_export(b"\xef\xbb\xbf" + data)
    assert err.value.offset == 53
    with pytest.raises(ExportParseError) as err:
        parse_bibtex_export(b"\xef\xbb\xbf@article{k1, Title = {\xff}}")
    assert err.value.offset == 22


def test_bibtex_totality_on_fuzz_input():
    rng = random.Random(424242)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        try:
            result = parse_bibtex_export(blob)
        except ExportParseError:
            continue
        assert isinstance(result, list)


def test_mutation_fuzz_over_real_exports():
    # flipped bytes in a well-formed export either still parse or raise
    # the positioned error, never anything else
    from pathlib import Path
    base = (Path(__file__).parent / "data" / "sample_export.txt").read_bytes()
    rng = random.Random(515151)
    for _ in range(120):
        blob = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        try:
            records = parse_plaintext_export(bytes(blob))
        except ExportParseError:
            continue
        assert isinstance(records, list)
