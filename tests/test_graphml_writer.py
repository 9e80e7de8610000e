"""The text GraphML writer: same bytes as the ElementTree writer it
replaced, a faithful round trip, and files that always parse.

``graphio_reference.write_graphml`` is the old writer, kept verbatim.
"""
from __future__ import annotations

import re
import shutil
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from graphio_reference import write_graphml as reference_write_graphml
from scimap.cli import main
from scimap.graphio import _NOT_XML_CHAR, read_graphml, write_graphml
from scimap.tables import header_lines
from scimap.graphs import Graph, GraphNode

DATA = Path(__file__).parent / "data"
SAMPLE = DATA / "sample_export.txt"



def is_xml_char(code: int) -> bool:
    """The XML 1.0 Char production (W3C XML 1.0, section 2.2)."""
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF)


XML_CHAR = st.one_of(
    st.sampled_from(list("&<>\"'\r\n\t -a")),
    st.characters(min_codepoint=0x20, blacklist_categories=("Cs",)).filter(
        lambda c: is_xml_char(ord(c))))
XML_TEXT = st.text(XML_CHAR, max_size=8)
NUMBER = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def graphs(draw, labels=XML_TEXT, weights=st.floats()):
    ids = draw(st.lists(XML_TEXT, unique=True, max_size=7))
    directed = draw(st.booleans())
    nodes = [GraphNode(id=node_id, label=draw(labels), weight=draw(weights),
                       cluster=draw(st.none() | st.integers()))
             for node_id in ids]
    pairs = [(u, v) for u in ids for v in ids if u != v and (directed or u < v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(u, v, draw(weights)) for u, v in chosen]
    return Graph(nodes=nodes, edges=edges, directed=directed)


META = st.dictionaries(XML_TEXT, st.one_of(XML_TEXT, st.integers(), NUMBER),
                       max_size=4).filter(
    lambda meta: "--" not in " | ".join(header_lines(meta)))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("graphml")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(graph=graphs(), meta=st.none() | META)
def test_text_writer_matches_elementtree_bytes(scratch, graph, meta):
    new = write_graphml(graph, scratch / "text.graphml", meta)
    old = reference_write_graphml(graph, scratch / "tree.graphml", meta)
    assert new.read_bytes() == old.read_bytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(graph=graphs(labels=st.text(XML_CHAR.filter(lambda c: c != "\r"), max_size=8),
                    weights=NUMBER.filter(lambda w: w > 0)))
def test_graphml_round_trip_is_the_same_graph(scratch, graph):
    path = write_graphml(graph, scratch / "round_trip.graphml")
    again = read_graphml(path)
    assert again.directed == graph.directed
    assert sorted((n.id, n.label, n.weight, n.cluster) for n in again.nodes) == \
        sorted((n.id, n.label, n.weight, n.cluster) for n in graph.nodes)
    assert sorted(again.edges) == sorted(graph.edges)


def test_refused_characters_are_exactly_those_outside_xml_char():
    match = _NOT_XML_CHAR.match
    wrong = [code for code in range(0x110000)
             if (match(chr(code)) is None) != is_xml_char(code)]
    assert wrong == []


def test_comment_breaks_double_hyphens(tmp_path):
    graph = Graph(nodes=[GraphNode(id="a", label="a", weight=1.0)], edges=[])
    path = write_graphml(graph, tmp_path / "g.graphml", meta={"corpus": "wos---x.txt"})
    assert "<!-- scimap " in path.read_text()
    assert "corpus: wos- - -x.txt -->" in path.read_text()
    assert read_graphml(path).node_ids() == ["a"]


@pytest.mark.parametrize("graph, where", [
    (Graph(nodes=[GraphNode(id="a", label="x\x1ay", weight=1.0)], edges=[]),
     "node 'a' label holds U+001A"),
    (Graph(nodes=[GraphNode(id="a\x00", label="a", weight=1.0)], edges=[]),
     "node 'a\\x00' id holds U+0000"),
    (Graph(nodes=[GraphNode(id="a", label="a", weight=1.0)],
           edges=[("a", "b\ufffe", 1.0)], directed=True),
     "edge 'a'-'b\\ufffe' holds U+FFFE"),
])
def test_characters_xml_cannot_carry_are_refused(tmp_path, graph, where):
    with pytest.raises(ValueError, match=re.escape(where)):
        write_graphml(graph, tmp_path / "g.graphml")
    assert not (tmp_path / "g.graphml").exists()


def test_header_character_xml_cannot_carry_is_refused(tmp_path):
    with pytest.raises(ValueError, match=re.escape("the header comment holds U+0007")):
        write_graphml(Graph([], []), tmp_path / "g.graphml", meta={"corpus": "bell\x07"})


# Through the command line --------------------------------------------------

def test_corpus_named_with_double_hyphen_writes_parseable_graphml(tmp_path):
    export = tmp_path / "wos--2023.txt"
    shutil.copy(SAMPLE, export)
    corpus = tmp_path / "corpus.dat"
    assert main(["ingest", str(export), "--reference-year", "2023",
                 "-o", str(corpus)]) == 0
    out = tmp_path / "map"
    assert main(["cooccur", "--corpus", str(corpus), "--min-occurrence", "1",
                 "--out", str(out)]) == 0
    graph = out / "cooccurrence.graphml"
    assert "wos- -2023.txt" in graph.read_text()
    assert main(["pagerank", "--graph", str(graph), "--out", str(tmp_path / "pr")]) == 0


def test_keyword_xml_cannot_carry_exits_1(tmp_path, capsys):
    export = tmp_path / "control.txt"
    export.write_text(SAMPLE.read_text().replace(
        "DE bankruptcy prediction; neural networks;",
        "DE bankruptcy prediction; neural\x1anetworks;"))
    corpus = tmp_path / "corpus.dat"
    assert main(["ingest", str(export), "--reference-year", "2023",
                 "-o", str(corpus)]) == 0
    out = tmp_path / "map"
    assert main(["cooccur", "--corpus", str(corpus), "--min-occurrence", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scimap: error: node 'neural\\x1anetworks'")
    assert "U+001A" in err
    assert not (out / "cooccurrence.graphml").exists()


def test_malformed_graphml_exits_1_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "broken.graphml"
    bad.write_text("<?xml version='1.0' encoding='utf-8'?>\n"
                   "<graphml><!-- a -- b --></graphml>\n")
    assert main(["pagerank", "--graph", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scimap: error: {bad}: not well-formed GraphML:")
    assert "Traceback" not in err


GRAPHML_HEAD = ("<?xml version='1.0' encoding='utf-8'?>\n"
                '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
                '<graph edgedefault="directed">\n<node id="a" />\n')


@pytest.mark.parametrize("body, where", [
    ("<node />\n", "node 2: no id"),
    ('<node id="b" />\n<edge source="a" />\n', "edge 1: no target"),
    ('<node id="b" />\n<edge target="b" />\n', "edge 1: no source"),
])
def test_graphml_element_without_its_id_exits_1_naming_it(tmp_path, capsys,
                                                          body, where):
    bad = tmp_path / "partial.graphml"
    bad.write_text(GRAPHML_HEAD + body + "</graph>\n</graphml>\n")
    assert main(["pagerank", "--graph", str(bad), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"scimap: error: {bad}: {where}\n"


def test_large_graph_is_written_without_holding_the_file(tmp_path):
    # 50,100 edges, a 5.4 MB file.  With every piece held in one list the
    # write peaked at 8.7 MB under tracemalloc; piece by piece it peaks at
    # 0.5 MB, most of it the sorted edge list.
    ids = [f"node-{i:04d}" for i in range(400)]
    nodes = [GraphNode(id=x, label=x, weight=float(i)) for i, x in enumerate(ids)]
    edges = [(ids[i], ids[j], float(i + j)) for i in range(400)
             for j in range(i + 1, 400) if (i * 7 + j) % 8 < 5]
    graph = Graph(nodes=nodes, edges=edges)
    path = tmp_path / "large.graphml"
    tracemalloc.start()
    try:
        write_graphml(graph, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 50_100
    assert path.stat().st_size > 5_000_000
    assert peak < 1_500_000, peak
    reference = reference_write_graphml(graph, tmp_path / "reference.graphml")
    same = path.read_bytes() == reference.read_bytes()  # no 5 MB diff on failure
    assert same
