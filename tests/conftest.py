from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from scimap.records import FIELD_ROLES, Document  # noqa: E402
from scimap.corpus import dedupe_and_screen  # noqa: E402
from scimap.normalize import field_values  # noqa: E402
from scimap.digraph import topological_order  # noqa: E402
from scimap.mfas import Multigraph  # noqa: E402


def make_document(doc_id, *, authors=(), title="", source="", pub_year=None,
                  total_citations=0, cited_refs=(), keywords=(), keywords_plus=(),
                  abstract=None, affiliations=(), corresponding=None, doi=None,
                  doc_type="article", language="English", categories=(),
                  ref_count=None):
    """A document built in code; ``missing_fields`` lists the tags whose
    values it leaves empty."""
    doc = Document(
        id=doc_id, authors=list(authors), title=title, source=source,
        pub_year=pub_year, total_citations=total_citations,
        cited_refs=list(cited_refs), ref_count=ref_count,
        author_keywords=[k.lower() for k in keywords],
        keywords_plus=[k.lower() for k in keywords_plus],
        abstract=abstract, affiliations=list(affiliations),
        corresponding=corresponding, doi=doi, doc_type=doc_type,
        language=language, categories=list(categories), quality_flags=[],
        missing_fields=[],
    )
    return doc._replace(missing_fields=[tag for tag, _ in FIELD_ROLES
                                        if not field_values(doc, tag)])


def make_ref(text):
    from scimap.normalize import parse_cited_reference
    return parse_cited_reference(text)


def graph_order(graph):
    """Topological order of a directed ``Graph``, None when cyclic."""
    return topological_order(graph.node_ids(),
                             [(u, v) for u, v, _ in graph.edges])


def build_corpus(documents, reference_year=None, retracted=(), provenance=("test",)):
    return dedupe_and_screen(documents, retracted=retracted,
                             reference_year=reference_year,
                             provenance=provenance)


def triangle_example() -> Multigraph:
    """The three-party message cycle with bundle multiplicities 3, 1, 2;
    breaking the single-arc bundle is the unique optimal repair."""
    mg = Multigraph()
    mg.add("john", "ellen", 3)
    mg.add("ellen", "tim", 1)
    mg.add("tim", "john", 2)
    return mg


def to_lines(mg: Multigraph) -> list[str]:
    """``mg`` in the delimited format ``Multigraph.from_lines`` reads."""
    return [f"{u} {v} {m}" for (u, v), m in sorted(mg.bundles.items())]


def copy_of(mg: Multigraph) -> Multigraph:
    """A copy of ``mg`` whose bundles can be edited apart from it."""
    return Multigraph(nodes=set(mg.nodes), bundles=dict(mg.bundles))


def successors_of(mg: Multigraph) -> dict[str, list[str]]:
    """Adjacency of the bundle digraph of ``mg`` (multiplicities dropped)."""
    out: dict[str, list[str]] = {node: [] for node in mg.nodes}
    for u, v in mg.bundles:
        out[u].append(v)
    return out
