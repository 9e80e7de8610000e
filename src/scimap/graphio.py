"""Graph export and re-import: GraphML and DOT.

Nodes carry label / weight / cluster attributes, edges carry weight;
output is byte-stable for a fixed graph, and both flavors re-parse into
an isomorphic graph.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping, Optional

from .graphs import Graph, GraphNode
from .tables import header_lines

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

_KEYS = (
    ("d_label", "node", "label", "string"),
    ("d_weight", "node", "weight", "double"),
    ("d_cluster", "node", "cluster", "long"),
    ("d_edge_weight", "edge", "weight", "double"),
)


def _escape_text(text: str) -> str:
    """Character data, escaped as ElementTree escapes it."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _escape_attribute(text: str) -> str:
    """An attribute value, escaped as ElementTree escapes it."""
    text = _escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


# Anything outside the XML 1.0 Char production (W3C XML 1.0, section
# 2.2): no escape can carry it, so a file holding it does not parse.
# Written as the complement of Char, not as a negated class: that one
# holds the astral range and takes six times as long to compile, on
# every start of the command line.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _refuse_not_xml_char(graph: Graph, comment: str, path: Path) -> None:
    """Raise naming the first string, and the character in it, that XML
    1.0 cannot carry."""
    places = [("the header comment", comment)]
    for node in graph.nodes:
        places += [(f"node {node.id!r} id", node.id),
                   (f"node {node.id!r} label", node.label or "")]
    places += [(f"edge {u!r}-{v!r}", u + v) for u, v, _ in graph.edges]
    for where, text in places:
        bad = _NOT_XML_CHAR.search(text)
        if bad:
            raise ValueError(f"{where} holds U+{ord(bad.group()):04X}, which "
                             f"XML 1.0 cannot carry; {path} not written")


def write_graphml(graph: Graph, path: str | Path,
                  meta: Optional[Mapping] = None) -> Path:
    """Write GraphML as text, byte for byte what ElementTree's indented
    serialization of the same tree gives.

    The header lines go into one comment, unescaped, with each ``--``
    broken to ``- -`` (a comment may not hold ``--``, section 2.5).  A
    character that XML 1.0 cannot carry, in the header, a node id, a
    label or an edge end, raises ``ValueError`` before anything is
    written.
    """
    path = Path(path)
    comment = re.sub("-(?=-)", "- ", " | ".join(header_lines(meta)))
    nodes = sorted(graph.nodes, key=lambda n: n.id)
    edges = sorted(graph.edges)
    # Each distinct id is escaped and checked once, not once per edge end.
    ids = {u for u, _, _ in edges}
    ids.update(v for _, v, _ in edges)
    ids.update(node.id for node in nodes)
    attribute = {name: _escape_attribute(name) for name in ids}
    if _NOT_XML_CHAR.search("".join([comment, *ids, *(n.label or "" for n in nodes)])):
        _refuse_not_xml_char(graph, comment, path)
    edgedefault = "directed" if graph.directed else "undirected"
    path.parent.mkdir(parents=True, exist_ok=True)
    # Piece by piece through the file's own buffer; the text is never
    # held whole.
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        write = handle.write
        write("<?xml version='1.0' encoding='utf-8'?>\n")
        write(f'<graphml xmlns="{GRAPHML_NS}">\n')
        write(f"  <!-- {comment} -->\n")
        handle.writelines(f'  <key id="{key_id}" for="{domain}" attr.name="{name}" '
                          f'attr.type="{kind}" />\n'
                          for key_id, domain, name, kind in _KEYS)
        if not nodes and not edges:
            write(f'  <graph id="G" edgedefault="{edgedefault}" />\n')
        else:
            write(f'  <graph id="G" edgedefault="{edgedefault}">\n')
            for node in nodes:
                label = (f'<data key="d_label">{_escape_text(node.label)}</data>'
                         if node.label else '<data key="d_label" />')
                cluster = ("" if node.cluster is None else
                           f'      <data key="d_cluster">{node.cluster}</data>\n')
                write(f'    <node id="{attribute[node.id]}">\n'
                      f"      {label}\n"
                      f'      <data key="d_weight">{node.weight!r}</data>\n'
                      f"{cluster}    </node>\n")
            handle.writelines(
                f'    <edge source="{attribute[u]}" target="{attribute[v]}">\n'
                f'      <data key="d_edge_weight">{w!r}</data>\n'
                "    </edge>\n" for u, v, w in edges)
            write("  </graph>\n")
        write("</graphml>\n")
    return path


def read_graphml(path: str | Path) -> Graph:
    """Read GraphML; an error places its problem, as ``node 2: no id``."""
    # Only commands that read GraphML load ElementTree; the writer above
    # does without it.
    import xml.etree.ElementTree as ET

    try:
        root = ET.parse(Path(path)).getroot()
    except ET.ParseError as exc:
        raise ValueError(f"not well-formed GraphML: {exc}") from None
    ns = {"g": GRAPHML_NS}
    container = root.find("g:graph", ns)
    if container is None:
        raise ValueError("no <graph> element")
    directed = container.get("edgedefault") == "directed"
    nodes = []
    for number, element in enumerate(container.findall("g:node", ns), start=1):
        (node_id,), values = _element(element, ns, f"node {number}", "id")
        cluster = values.get("d_cluster")
        nodes.append(GraphNode(
            id=node_id, label=values.get("d_label", node_id),
            weight=float(values.get("d_weight", 0.0)),
            cluster=int(cluster) if cluster is not None else None))
    edges = []
    for number, element in enumerate(container.findall("g:edge", ns), start=1):
        (u, v), values = _element(element, ns, f"edge {number}", "source", "target")
        edges.append((u, v, float(values.get("d_edge_weight", 1.0))))
    graph = Graph(nodes=nodes, edges=edges, directed=directed)
    graph.validate()
    return graph


def _element(element, ns: dict, where: str, *names: str) -> tuple[list, dict]:
    """The attributes ``names`` of a GraphML element, each required, and
    its data values by key."""
    for name in names:
        if element.get(name) is None:
            raise ValueError(f"{where}: no {name}")
    return ([element.get(name) for name in names],
            {data.get("key"): data.text or "" for data in element.findall("g:data", ns)})


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(graph: Graph, path: str | Path,
              meta: Optional[Mapping] = None) -> Path:
    kind = "digraph" if graph.directed else "graph"
    arrow = "->" if graph.directed else "--"
    lines = [f"{kind} G {{"]
    lines.extend(f"  // {line}" for line in header_lines(meta))
    for node in sorted(graph.nodes, key=lambda n: n.id):
        attrs = [f"label={_dot_quote(node.label)}", f"weight={node.weight!r}"]
        if node.cluster is not None:
            attrs.append(f"cluster={node.cluster}")
        lines.append(f"  {_dot_quote(node.id)} [{', '.join(attrs)}];")
    for u, v, w in sorted(graph.edges):
        lines.append(f"  {_dot_quote(u)} {arrow} {_dot_quote(v)} [weight={w!r}];")
    lines.append("}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


# The DOT reader's patterns, compiled (and kept in re's cache) on the
# first read: a command that reads no DOT file never compiles them.
_DOT_NODE = r'^\s*"((?:[^"\\]|\\.)*)" \[(.*)\];$'
_DOT_EDGE = r'^\s*"((?:[^"\\]|\\.)*)" (--|->) "((?:[^"\\]|\\.)*)" \[(.*)\];$'
_DOT_ATTR = r'(\w+)=(?:"((?:[^"\\]|\\.)*)"|([^,\]]+))'


def _dot_unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def read_dot(path: str | Path) -> Graph:
    """Re-parse the subset of DOT this module emits."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(("graph ", "digraph ")):
        raise ValueError("not a DOT graph")
    directed = lines[0].startswith("digraph")
    match_edge = re.compile(_DOT_EDGE).match
    match_node = re.compile(_DOT_NODE).match
    nodes, edges = [], []
    for line in lines[1:]:
        edge_match = match_edge(line)
        if edge_match:
            u, _, v, attrs = edge_match.groups()
            values = _parse_dot_attrs(attrs)
            edges.append((_dot_unquote(u), _dot_unquote(v),
                          float(values.get("weight", 1.0))))
            continue
        node_match = match_node(line)
        if node_match:
            node_id, attrs = node_match.groups()
            values = _parse_dot_attrs(attrs)
            cluster = values.get("cluster")
            nodes.append(GraphNode(
                id=_dot_unquote(node_id),
                label=_dot_unquote(values.get("label", node_id)),
                weight=float(values.get("weight", 0.0)),
                cluster=int(cluster) if cluster is not None else None))
    graph = Graph(nodes=nodes, edges=edges, directed=directed)
    graph.validate()
    return graph


def _parse_dot_attrs(text: str) -> dict[str, str]:
    out = {}
    for name, quoted, bare in re.findall(_DOT_ATTR, text):
        out[name] = quoted if quoted else bare.strip()
    return out


def write_graph(graph: Graph, path: str | Path, flavor: str = "graphml",
                meta: Optional[Mapping] = None) -> Path:
    if flavor == "graphml":
        return write_graphml(graph, path, meta)
    if flavor == "dot":
        return write_dot(graph, path, meta)
    raise ValueError(f"unknown graph flavor {flavor!r} (graphml or dot)")


def read_graph(path: str | Path) -> Graph:
    path = Path(path)
    if path.suffix == ".dot":
        return read_dot(path)
    return read_graphml(path)
