"""Ingest's field normalizers against the regex versions they replaced.

Ingest collapses whitespace with ``str.split`` and checks each
cited-reference segment's head or length before running its pattern.
``normalize_reference`` keeps the code before that change verbatim; each
shipped function must return what its copy returns, or raise the same
error, on text drawn from every code point ``str.isspace`` accepts, a
zero-width space (not whitespace), leading and trailing runs, and the
tokens whose shape or case a guard could misjudge: ``ß`` (its upper case
is longer), Arabic-Indic digits (``\\d`` matches them and ``int`` parses
them), ``doi``/``DOI`` prefixes, lower-case ``v``/``p`` tokens, and
bracketed and unbracketed affiliations.  ``normalize_doi`` is checked
against its copy on DOIs behind each prefix, in any case.
"""
from __future__ import annotations

import re
import sys

import pytest

import normalize_reference
from scimap.corpus import normalized_title
from scimap.normalize import (
    _joined, _split_terms, normalize_affiliation, normalize_author_name,
    normalize_doi, parse_cited_reference, to_document,
)
from scimap.records import FIELD_ROLES, RawRecord
from scimap.textterms import collapse_whitespace

WHITESPACE = tuple(chr(code) for code in range(sys.maxunicode + 1)
                   if chr(code).isspace())
ZERO_WIDTH_SPACE = "\u200b"


def test_re_whitespace_is_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert len(WHITESPACE) == 29
    assert tuple(re.findall(r"\s", every)) == WHITESPACE
    assert not ZERO_WIDTH_SPACE.isspace()


def outcome(function, *args):
    """The value ``function`` returns, or the type and text of its error."""
    try:
        return "value", function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _fields(ref):
    """Field values with their types, so 1968 and "1968" differ."""
    return [(type(value), value) for value in ref]


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SPACE_RUN = st.text(alphabet=WHITESPACE + (ZERO_WIDTH_SPACE,), max_size=3)
# Tokens of the shapes the reference segment tests look for, in both
# cases, with Arabic-Indic digits and non-ASCII letters.
SHAPES = [
    "1968", "2023", "19٦٨", "20٢٣", "١٩٦٨", "v23", "V9a", "v٢٣", "vol",
    "p589", "pa12", "P7", "p٥٨٩", "doi", "DOI", "doi 10.1/x", "Doi 10.3/Y",
    "DOI 10.2307/2978933", "doi:10.5/Q.", "DOI:", "10.1016/j.ejor.2020.01.002",
    "10.٣/x", "10.1/ß", "1", "ß", "Straße", "ALTMAN EI", "J FINANC", "",
]
NAMES = ["Tsai", "Chih-Fong", "Jean-Pierre", "KS", "J.-P.", "ß", "Straße",
         "Kudelić", "du", "Jardin", "O'Neill", "Smith-Jones", "İ", "ı", "Li",
         "19٦٨", "v", "-", "."]
AFFILIATIONS = ["[Smith, J; Lee, K]", "[Li, X]", "[", "]", "[]",
                "Univ Zagreb", "Croatia.", "Peoples R China", "machine learning",
                "ﬁnance", ",", ";"]
TOKEN = st.one_of(st.sampled_from(SHAPES + NAMES + AFFILIATIONS),
                  st.text(max_size=5))
# Tokens with whitespace runs between them and at both ends.
TEXT = st.builds(
    lambda lead, parts, trail: lead + "".join(t + s for t, s in parts) + trail,
    SPACE_RUN, st.lists(st.tuples(TOKEN, SPACE_RUN), max_size=6), SPACE_RUN)


def padded(tokens):
    """One of ``tokens`` with whitespace runs on both sides."""
    return st.builds(lambda lead, token, trail: lead + token + trail,
                     SPACE_RUN, tokens, SPACE_RUN)


NAME = st.one_of(
    TEXT,
    st.builds(lambda surname, separator, given: surname + separator + given,
              padded(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)
                     .map(" ".join)),
              st.sampled_from([",", " ", ""]),
              padded(st.sampled_from(NAMES))),
)
AFFILIATION = st.one_of(
    TEXT,
    st.builds(lambda authors, rest: f"[{authors}]{rest}", TEXT, TEXT),
    TEXT.map(lambda text: "[" + text),
)
REFERENCE = st.lists(st.one_of(padded(st.sampled_from(SHAPES)), TEXT),
                     max_size=7).map(",".join)
# A DOI behind any of its prefixes in any case, maybe bracketed, listed
# or closed with punctuation.
DOI = st.builds(
    lambda prefix, doi, tail: prefix + doi + tail,
    st.sampled_from(["", "[", "https://doi.org/", "HTTP://DX.DOI.ORG/",
                     "http://doi.org/", "doi:", "DOI:", "Doi: ", "DOI "]),
    st.one_of(padded(st.sampled_from(SHAPES)), TEXT),
    st.sampled_from(["", ".", ";", "]", ", 10.2/y]", ".;"]))
KEYWORD_LINES = st.lists(st.lists(TEXT, max_size=4).map(";".join), max_size=3)

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@SETTINGS
@given(TEXT)
def test_collapse_whitespace_is_the_regex_rule(text):
    expected = normalize_reference.WHITESPACE_RUN.sub(" ", text).strip()
    assert collapse_whitespace(text) == expected


@SETTINGS
@given(NAME)
def test_author_name_matches_the_regex_version(raw):
    expected = outcome(normalize_reference.normalize_author_name, raw)
    assert outcome(normalize_author_name, raw) == expected
    assert outcome(normalize_author_name, raw) == expected  # cached


@SETTINGS
@given(AFFILIATION)
def test_affiliation_matches_the_regex_version(raw):
    assert normalize_affiliation(raw) == \
        normalize_reference.normalize_affiliation(raw)


@SETTINGS
@given(KEYWORD_LINES)
def test_keyword_terms_match_the_regex_version(values):
    assert _split_terms(values) == normalize_reference._split_terms(values)


@SETTINGS
@given(st.lists(TEXT, max_size=4))
def test_joined_field_matches_the_regex_version(values):
    for entries in ({"TI": values}, {}):
        assert _joined(entries, "TI") == \
            normalize_reference._joined(entries, "TI")


@SETTINGS
@given(TEXT)
def test_title_key_matches_the_regex_version(title):
    assert normalized_title(title) == normalize_reference.normalized_title(title)


@SETTINGS
@given(DOI)
def test_doi_matches_the_copy(raw):
    assert normalize_doi(raw) == normalize_reference.normalize_doi(raw)


@SETTINGS
@given(REFERENCE)
def test_cited_reference_matches_the_unguarded_version(raw):
    expected = _fields(normalize_reference.parse_cited_reference(raw))
    assert _fields(parse_cited_reference(raw)) == expected
    assert _fields(parse_cited_reference(raw)) == expected  # cached


# A value each tag's normalizer accepts, standing in for a filled field.
FILLED = {"AU": "Li, X", "TC": "3", "PY": "2001", "NR": "1", "DI": "10.1/x"}


@SETTINGS
@given(st.dictionaries(
    # A blank total-citation value is an error, so TC is always filled.
    st.sampled_from([tag for tag, _ in FIELD_ROLES]),
    st.lists(st.one_of(st.text(alphabet=WHITESPACE, max_size=3), st.none()),
             max_size=3)))
def test_missing_fields_are_the_tags_with_only_blank_values(entries):
    record = RawRecord()
    for tag, values in entries.items():
        record.entries[tag] = [FILLED.get(tag, "x") if value is None or tag == "TC"
                               else value for value in values]
    expected = [tag for tag, _ in FIELD_ROLES
                if not any(v.strip() for v in record.entries.get(tag, []))]
    assert to_document(record, 2023).missing_fields == expected
