from __future__ import annotations

import csv
import io
import tracemalloc

import pytest

from scimap.graphio import read_dot, read_graph, read_graphml, write_graph
from scimap.graphs import Graph, GraphNode
from scimap.tables import (
    config_hash, fmt, header_lines, ranked, round_half_up, write_table,
)


def test_round_half_up_convention():
    assert round_half_up(3.139, 2) == 3.14
    assert round_half_up(3.135, 2) == 3.14  # half goes up, not to even
    assert round_half_up(33.2804, 2) == 33.28
    assert round_half_up(59.15, 1) == 59.2
    assert round_half_up(18.608, 1) == 18.6


def test_ranked_orders_by_value_then_name():
    pairs = [("b", 2), ("c", 3), ("a", 2), ("d", 1)]
    assert ranked(pairs) == [("c", 3), ("a", 2), ("b", 2), ("d", 1)]
    assert ranked(pairs, 2) == [("c", 3), ("a", 2)]
    assert ranked(iter(pairs), 9) == ranked(pairs)


@pytest.mark.parametrize("k", [0, -1])
def test_ranked_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="at least 1"):
        ranked([("a", 1)], k)


def test_fmt_cells():
    assert fmt(2.8333333) == "2.83"
    assert fmt(5.25, 4) == "5.2500"
    assert fmt(None) == ""
    assert fmt(12) == "12"


def test_render_table_header_block_and_quoting(tmp_path):
    path = write_table([("a,b", 1)], ["name", "value"], tmp_path / "t.csv",
                       {"config": "deadbeef"})
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\r\n")
    head = lines[0].split("\n")
    assert head[0].startswith("# scimap ")
    assert head[1] == "# config: deadbeef"
    assert head[2] == "name,value"
    assert lines[1] == '"a,b",1'


def test_empty_rows_give_header_only_file(tmp_path):
    path = write_table([], ["only", "header"], tmp_path / "empty.csv")
    body = path.read_bytes().decode()
    assert "only,header" in body
    assert body.count("\r\n") == 1


def test_write_table_deterministic(tmp_path):
    rows = [("x", 1.5), ("y", 2.5)]
    first = write_table(rows, ["k", "v"], tmp_path / "a.csv", {"config": "c"})
    second = write_table(rows, ["k", "v"], tmp_path / "b.csv", {"config": "c"})
    assert first.read_bytes() == second.read_bytes()


def test_row_width_checked(tmp_path):
    for rows in ([("a",)], [("a", 1), ("b", 2), ("c",)]):
        with pytest.raises(ValueError):
            write_table(rows, ["x", "y"], tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()


def test_large_table_is_written_without_holding_the_file(tmp_path):
    # 300,000 three-column rows, a 7.5 MB file.  Rendered into one string
    # and then written, the table peaked at 18 MB under tracemalloc; row
    # by row into the open file it peaks at 0.2 MB.
    rows = [(f"node{i}", f"node{i + 1}", i % 97) for i in range(300_000)]
    schema = ["source", "target", "weight"]
    path = tmp_path / "large.csv"
    tracemalloc.start()
    try:
        write_table(rows, schema, path, {"config": "c"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    reference = io.StringIO()
    reference.writelines(f"# {line}\n" for line in header_lines({"config": "c"}))
    writer = csv.writer(reference, lineterminator="\r\n")
    writer.writerow(schema)
    writer.writerows(rows)
    same = path.read_bytes() == reference.getvalue().encode("utf-8")
    assert same  # no 7 MB diff on failure


def test_config_hash_stable_and_order_free():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# Graph IO ---------------------------------------------------------------------

def sample_graph(directed=False):
    nodes = [GraphNode(id="a", label="Alpha, 1999", weight=3.0),
             GraphNode(id="b", label='With "quotes"', weight=1.0),
             GraphNode(id="c", label="Gamma", weight=2.0)]
    edges = [("a", "b", 2.0), ("a", "c", 1.5)] if directed \
        else [("a", "b", 2.0), ("a", "c", 1.5), ("b", "c", 1.0)]
    return Graph(nodes=nodes, edges=edges, directed=directed)


@pytest.mark.parametrize("flavor", ["graphml", "dot"])
def test_graph_round_trip(tmp_path, flavor):
    graph = sample_graph()
    path = write_graph(graph, tmp_path / f"g.{flavor}", flavor=flavor)
    again = read_graph(path)
    assert again.directed == graph.directed
    assert sorted(n.id for n in again.nodes) == sorted(n.id for n in graph.nodes)
    assert {n.id: n.weight for n in again.nodes} == \
        {n.id: n.weight for n in graph.nodes}
    assert {n.id: n.label for n in again.nodes} == \
        {n.id: n.label for n in graph.nodes}
    assert sorted(again.edges) == sorted(graph.edges)


@pytest.mark.parametrize("flavor", ["graphml", "dot"])
def test_directed_three_cycle_counts(tmp_path, flavor):
    graph = Graph(nodes=[GraphNode(id=x, label=x) for x in "abc"],
                  edges=[("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)],
                  directed=True)
    path = write_graph(graph, tmp_path / f"cycle.{flavor}", flavor=flavor)
    again = read_graph(path)
    assert len(again.nodes) == 3 and len(again.edges) == 3
    assert again.directed


def test_cluster_attribute_attached(tmp_path):
    graph = sample_graph()
    assignment = {"a": 0, "b": 0, "c": 1}
    graph = graph._replace(nodes=[node._replace(cluster=assignment[node.id])
                                  for node in graph.nodes])
    graphml = read_graphml(write_graph(graph, tmp_path / "g.graphml"))
    assert {n.id: n.cluster for n in graphml.nodes} == {"a": 0, "b": 0, "c": 1}
    dot = read_dot(write_graph(graph, tmp_path / "g.dot", flavor="dot"))
    assert {n.id: n.cluster for n in dot.nodes} == {"a": 0, "b": 0, "c": 1}


def test_graph_export_byte_stable(tmp_path):
    graph = sample_graph()
    a = write_graph(graph, tmp_path / "a.graphml")
    b = write_graph(graph, tmp_path / "b.graphml")
    assert a.read_bytes() == b.read_bytes()


def test_unknown_flavor_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_graph(sample_graph(), tmp_path / "g.gexf", flavor="gexf")


@pytest.mark.parametrize("flavor", ["graphml", "dot"])
def test_graph_header_block_survives_round_trip(tmp_path, flavor):
    graph = sample_graph()
    meta = {"config": "cafef00d", "corpus": "sample.txt"}
    path = write_graph(graph, tmp_path / f"g.{flavor}", flavor=flavor, meta=meta)
    text = path.read_text()
    assert "scimap" in text and "cafef00d" in text
    again = read_graph(path)  # comments must not disturb parsing
    assert sorted(again.edges) == sorted(graph.edges)
