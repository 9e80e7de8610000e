"""The BibTeX reader against the reader it replaced.

``parse_bibtex_export`` must return the same records as
``bibtex_reference.parse_bibtex_export`` (equal entries, flags and
record indexes) or raise an ``ExportParseError`` with the same message,
offset included, on the sample export, on mutated copies of it and on
soups of entries: nested and unbalanced braces, quoted values holding
``}``, bare tokens, ``@comment``, ``@string`` and ``@preamble``, fields
without ``=``, two field names for one tag, repeated ``Unique-ID``
fields after a citation key and non-ASCII text.
"""
from __future__ import annotations

import random
from pathlib import Path

import pytest

import bibtex_reference
from scimap.parsing import ExportParseError, parse_bibtex_export

SAMPLE = (Path(__file__).parent / "data" / "sample_export.bib").read_bytes()


def outcome(parse, data):
    try:
        records = parse(data, source_file="soup.bib")
    except ExportParseError as exc:
        return str(exc)
    return [(r.entries, r.flags, r.record_index, r.source_file) for r in records]


def assert_same_outcome(data):
    assert outcome(parse_bibtex_export, data) == \
        outcome(bibtex_reference.parse_bibtex_export, data), data


def test_sample_export_parses_as_before():
    assert len(parse_bibtex_export(SAMPLE)) == 2
    assert_same_outcome(SAMPLE)
    assert_same_outcome(SAMPLE.replace(b"\n", b"\r\n"))
    assert_same_outcome(b"\xef\xbb\xbf" + SAMPLE)


def test_mutated_samples_parse_as_before():
    rng = random.Random(2301)
    for _ in range(300):
        blob = bytearray(SAMPLE)
        for _ in range(rng.randrange(1, 6)):
            at = rng.randrange(len(blob))
            if rng.randrange(2):
                del blob[at]
            else:
                blob[at:at] = rng.choice([b"{", b"}", b",", b"=", b'"', b"@",
                                          b"\n", "é".encode()])
        assert_same_outcome(bytes(blob))


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NAMES = ["Title", "author", "Year", "Cited-References", "Affiliation",
         "Keywords", "Keywords-Plus", "Times-Cited", "Foo-Bar", "x", "ER",
         "unique-id", "Journal", "Zürich", "", "Type", "DocType",
         "Affiliations", "Unique-ID"]
TOKENS = st.one_of(
    st.sampled_from(["{", "}", ",", "=", '"', "@", " ", "\n", "\t", "\r", "\r\n"]),
    st.sampled_from(["@article{", "@comment{", "@Comment {", "@misc ", "k1,",
                     "@string{", "@Preamble {"]),
    st.sampled_from(NAMES),
    st.sampled_from(["2001", "Économie à Zürich", "a and b", "a; b", "\\&",
                     '"q}uote"', "{{x}}", "{a}{b}", "junk", "[A; B] Inst",
                     "REF A, 1999.\nREF B, 2000."]),
)
TEXTS = ["Économie", " and ", "; ", "\n", "}", "{", ",", "=", "A, 1999.",
         "[X; Y] Univ", " \\% ", "plain"]


@st.composite
def values(draw, depth=0):
    kind = draw(st.sampled_from(["braced", "quoted", "bare"] if depth < 3
                                else ["quoted", "bare"]))
    if kind == "bare":
        return draw(st.sampled_from(["2001", "", "12 ", "x\n", "1\r2", "-"]))
    parts = draw(st.lists(st.one_of(st.sampled_from(TEXTS), values(depth + 1)),
                          max_size=3))
    if kind == "quoted":
        return '"' + "".join(parts).replace('"', "") + '"'
    return "{" + "".join(parts) + "}"


@st.composite
def entries(draw):
    fields = draw(st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from([" = ", "=", " ", "= \n"]),
                  values()).map("".join), max_size=5))
    # Repeated Unique-ID fields, which share UT with the citation key.
    fields += draw(st.lists(st.sampled_from(
        ["Unique-ID = {WOS:2}", "unique-id={}", 'Unique-ID = "WOS:3"']), max_size=3))
    fields = draw(st.permutations(fields))
    kind = draw(st.sampled_from(["article", "comment", " article ", "misc",
                                 "string", "preamble"]))
    key = draw(st.sampled_from(["WOS:1", "", " k ", "{k}", "k=1"]))
    separator = draw(st.sampled_from([",", ",\n", " , ", ",,"]))
    end = draw(st.sampled_from(["}", ",}", "\n}\n", "", "}}"]))
    return f"@{kind}{{{key}{separator}" + separator.join(fields) + end


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(tokens=st.lists(TOKENS, max_size=40))
def test_token_soups_parse_as_before(tokens):
    assert_same_outcome("".join(tokens).encode())


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.one_of(entries(), TOKENS), max_size=6))
def test_entry_soups_parse_as_before(parts):
    assert_same_outcome("".join(parts).encode())
