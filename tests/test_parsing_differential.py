"""The WoS plaintext reader against the reader it replaced.

``parse_plaintext_export`` must return the same records as
``plaintext_reference.parse_plaintext_export`` (equal entries, flags and
record indexes) or raise an ``ExportParseError`` with the same message,
on the sample export, on byte-mutated copies of it, on line soups
built from tags, ``ER``/``EF``, indents, junk and blank lines, and on
records whose lines between a tag and ``ER`` are led by spaces or tabs
or are ``FN``/``VR`` envelope lines.
"""
from __future__ import annotations

import random
from pathlib import Path

import pytest

import plaintext_reference
from scimap.parsing import ExportParseError, parse_plaintext_export

SAMPLE = (Path(__file__).parent / "data" / "sample_export.txt").read_bytes()


def outcome(parse, data):
    try:
        records = parse(data, source_file="soup.txt")
    except ExportParseError as exc:
        return str(exc)
    return [(r.entries, r.flags, r.record_index, r.source_file) for r in records]


def assert_same_outcome(data):
    assert outcome(parse_plaintext_export, data) == \
        outcome(plaintext_reference.parse_plaintext_export, data), data


def test_sample_export_parses_as_before():
    assert len(parse_plaintext_export(SAMPLE)) == 10
    assert_same_outcome(SAMPLE)
    assert_same_outcome(SAMPLE.replace(b"\n", b"\r\n"))


def test_byte_mutated_samples_parse_as_before():
    rng = random.Random(6101)
    for _ in range(400):
        blob = bytearray(SAMPLE)
        for _ in range(rng.randrange(1, 8)):
            at = rng.randrange(len(blob))
            action = rng.randrange(3)
            if action == 0:
                blob[at] = rng.randrange(256)
            elif action == 1:
                del blob[at]
            else:
                blob[at:at] = rng.choice([b"\n", b"   ", b"ER\n", b"EF\n", b"\r"])
        assert_same_outcome(bytes(blob))


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

TAGS = ["PT", "AU", "TI", "DE", "CR", "Z9", "ER", "EF", "FN", "VR", "C1", "a1"]
LINES = st.one_of(
    st.sampled_from(TAGS),
    st.tuples(st.sampled_from(TAGS),
              st.sampled_from([" ", "  ", " x", " Alpha, B", "   ", " \t"]))
    .map("".join),
    st.sampled_from(["", " ", "   ", "\t", "   indented value", "  two spaces",
                     "    four", "junk line", "AUX", "T1x", "ab c", "\x0c"]),
    st.text(alphabet="AZ 09x\t", max_size=6),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(LINES, max_size=25),
       ending=st.sampled_from(["\n", "\r\n", "\r"]))
def test_line_soups_parse_as_before(lines, ending):
    assert_same_outcome(ending.join(lines).encode())


INSIDE = st.one_of(
    st.tuples(st.sampled_from(["AU", "CR", "DE", "TI", "Z9"]),
              st.sampled_from([" ", " Alpha, B", "  x ", " \t"])).map("".join),
    st.tuples(st.sampled_from([" ", "   ", "  \t", "\t", "\t ", " \x0b"]),
              st.sampled_from(["", "cont", "Beta, C ", "AU x", "ER", "FN y"]))
    .map("".join),
    st.sampled_from(["FN Clarivate", "VR 1.0", "FN", "VR", "", " "]),
)


@st.composite
def records(draw):
    head = draw(st.sampled_from(["PT J", "AU Alpha, B", "TI x"]))
    body = draw(st.lists(INSIDE, max_size=8))
    end = draw(st.sampled_from(["ER", "ER", "ER ", ""]))
    return [head, *body, end]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(records(), max_size=4),
       ending=st.sampled_from(["\n", "\r\n"]))
def test_continuation_and_envelope_lines_inside_records_parse_as_before(parts, ending):
    lines = ["FN Clarivate", "VR 1.0"] + [line for part in parts for line in part]
    assert_same_outcome(ending.join(lines + ["EF"]).encode())
