"""The memoized string parsers against their unmemoized oracle.

``parse_cited_reference`` caches the classified fields of each distinct
reference string and ``surname_of`` caches its key; ``fold_ascii``
returns ASCII text as it is.  Each must return what
``normalize_reference`` (the code before the memos) returns, on the
first call and on every repeat.  The cached reference is shared by every
document citing it, so editing one must be refused.
"""
from __future__ import annotations

from pathlib import Path

import pytest

import normalize_reference
from scimap.normalize import (
    REFERENCE_CACHE_SIZE, SURNAME_CACHE_SIZE, fold_ascii, normalize_author_name,
    parse_cited_reference, surname_of,
)
from scimap.parsing import parse_bibtex_export, parse_plaintext_export
from scimap.records import CitedReference

DATA = Path(__file__).parent / "data"


def _fields(ref):
    """Field values with their types, so 1968 and "1968" differ."""
    assert type(ref) is CitedReference
    return [(type(value), value) for value in ref]


def assert_same_reference(raw: str) -> None:
    expected = _fields(normalize_reference.parse_cited_reference(raw))
    assert _fields(parse_cited_reference(raw)) == expected
    assert _fields(parse_cited_reference(raw)) == expected  # cached


def _sample_records():
    return (parse_plaintext_export((DATA / "sample_export.txt").read_bytes())
            + parse_bibtex_export((DATA / "sample_export.bib").read_bytes()))


def test_every_sample_reference_matches_the_oracle():
    lines = [line for record in _sample_records()
             for line in record.entries.get("CR", [])]
    assert len(lines) >= 30
    for line in lines:
        assert_same_reference(line)


def test_every_sample_name_matches_the_oracle():
    names = [name for record in _sample_records()
             for name in record.entries.get("AU", [])]
    names += [ref.first_author for line in
              (line for record in _sample_records()
               for line in record.entries.get("CR", []))
              for ref in [parse_cited_reference(line)] if ref.first_author]
    assert len(names) > 40
    for name in names:
        assert surname_of(name) == normalize_reference.surname_of(name)


def test_a_reference_cannot_be_edited():
    raw = "ALTMAN EI, 1968, J FINANC, V23, P589, DOI 10.2307/2978933"
    first = parse_cited_reference(raw)
    assert parse_cited_reference(raw) == first
    for name, value in (("doi", "10.9/edited"), ("first_author", "EDITED"),
                        ("year", 1900)):
        with pytest.raises(AttributeError):
            setattr(first, name, value)
    again = parse_cited_reference(raw)
    assert again.doi == "10.2307/2978933"
    assert again.first_author == "ALTMAN EI"
    assert again.year == 1968


def test_caches_are_bounded():
    assert parse_cited_reference.cache_info().maxsize == REFERENCE_CACHE_SIZE
    assert surname_of.cache_info().maxsize == SURNAME_CACHE_SIZE
    assert normalize_author_name.cache_info().maxsize == SURNAME_CACHE_SIZE
    assert 0 < REFERENCE_CACHE_SIZE and 0 < SURNAME_CACHE_SIZE


def test_fold_ascii_returns_ascii_text_unchanged():
    text = "ALTMAN EI, 1968"
    assert fold_ascii(text) is text
    assert fold_ascii("Kudelić") == "Kudelic"


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Segments in the shapes the classifier looks for, malformed neighbours,
# diacritics and arbitrary text.
SEGMENT = st.one_of(
    st.sampled_from([
        "ALTMAN EI", "Kudelić R.", "du Jardin P", "O'NEILL J.-P.", "ÅSTRÖM K",
        "1968", "2023", "1399", "20XX", "2200", "V23", "v9a", "VOL 3",
        "P589", "PA12", "p7", "J FINANC", "Eur. J. Oper. Res.", "9TH CONF",
        "DOI 10.2307/2978933", "doi:10.1/ABC.", "10.1016/j.x.2020.01.002;",
        "DOI", "DOI [10.1/a", "10.2/b]", "https://doi.org/10.5/Q", "",
        "  ", " ", "ﬁnance", "Ｊ ＦＩＮＡＮＣ",
    ]),
    st.text(max_size=12),
)
REFERENCE = st.one_of(
    st.lists(SEGMENT, max_size=8).map(", ".join),
    st.lists(SEGMENT, max_size=8).map(",".join),
    st.text(max_size=60),
)
NAME = st.one_of(
    st.lists(st.sampled_from(["Kumar", "KUMAR", "Du", "Jardin", "Kudelić",
                              "Smith-Jones", "van", "der", "PR", "P.", "Ravi",
                              "J.-P.", "ÅSTRÖM", "Li"]),
             min_size=1, max_size=4).flatmap(
        lambda parts: st.sampled_from([" ".join(parts), ", ".join(parts),
                                       parts[0] + ", " + " ".join(parts[1:])])),
    st.text(max_size=20),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(REFERENCE)
def test_memoized_reference_matches_the_oracle(raw):
    assert_same_reference(raw)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(NAME)
def test_memoized_surname_matches_the_oracle(name):
    expected = normalize_reference.surname_of(name)
    assert surname_of(name) == expected
    assert surname_of(name) == expected  # cached


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127))))
def test_fold_ascii_matches_the_nfkd_path(text):
    assert fold_ascii(text) == normalize_reference.fold_ascii(text)
