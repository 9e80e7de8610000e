"""Test-only oracle: the GraphML writer built on ElementTree.

``scimap.graphio.write_graphml`` formats the file as text in one pass.
This is the writer it replaced, kept verbatim so a differential test can
require byte-identical output; like the text writer, it reads each
node's cluster from ``GraphNode.cluster``.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Mapping, Optional

from scimap.graphio import GRAPHML_NS, _KEYS
from scimap.tables import header_lines
from scimap.graphs import Graph


def write_graphml(graph: Graph, path: str | Path,
                  meta: Optional[Mapping] = None) -> Path:
    root = ET.Element("graphml", xmlns=GRAPHML_NS)
    root.append(ET.Comment(" " + " | ".join(header_lines(meta)) + " "))
    for key_id, domain, name, kind in _KEYS:
        ET.SubElement(root, "key", id=key_id, **{"for": domain,
                      "attr.name": name, "attr.type": kind})
    container = ET.SubElement(
        root, "graph", id="G",
        edgedefault="directed" if graph.directed else "undirected")
    for node in sorted(graph.nodes, key=lambda n: n.id):
        element = ET.SubElement(container, "node", id=node.id)
        ET.SubElement(element, "data", key="d_label").text = node.label
        ET.SubElement(element, "data", key="d_weight").text = repr(node.weight)
        if node.cluster is not None:
            ET.SubElement(element, "data",
                          key="d_cluster").text = str(node.cluster)
    for u, v, w in sorted(graph.edges):
        element = ET.SubElement(container, "edge", source=u, target=v)
        ET.SubElement(element, "data", key="d_edge_weight").text = repr(w)
    ET.indent(root)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = ET.tostring(root, encoding="unicode", xml_declaration=True)
    path.write_text(payload + "\n", encoding="utf-8", newline="\n")
    return path
