"""Network construction: co-occurrence, co-citation, collaboration,
local-citation matching, historiograph, three-field flows, spectroscopy.

All link counting is full counting: every co-appearance inside one
document contributes one unit of edge weight.  Undirected graphs store
each edge once with the endpoint ids ordered.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product
from typing import Iterable, NamedTuple, Optional

from .digraph import reaches
from .normalize import LEVEL_TAGS, field_values, reference_key, surname_of
from .records import CitedReference, Corpus, Document
from .tables import ranked

# Minimum shared prefix for a cited-source string to match a corpus source.
SOURCE_PREFIX_MIN = 6


class GraphNode(NamedTuple):
    id: str
    label: str
    weight: float = 0.0
    cluster: Optional[int] = None


class Graph(NamedTuple):
    nodes: list[GraphNode]
    edges: list[tuple[str, str, float]]
    directed: bool = False

    def node_ids(self) -> list[str]:
        return [node.id for node in self.nodes]

    def validate(self) -> None:
        ids = self.node_ids()
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        known = set(ids)
        for u, v, w in self.edges:
            if u not in known or v not in known:
                raise ValueError(f"edge endpoint missing: {u!r}-{v!r}")
            if not 0 < w < math.inf:  # NaN fails this too
                raise ValueError(f"edge weight {w!r} on {u!r}-{v!r} is not "
                                 f"positive and finite")
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if not self.directed and u > v:
                raise ValueError(f"undirected edge not ordered: {u!r}-{v!r}")


def _undirected_graph(node_weights: dict[str, float],
                      pair_weights: dict[tuple[str, str], float]) -> Graph:
    nodes = [GraphNode(id=nid, label=nid, weight=node_weights[nid])
             for nid in sorted(node_weights)]
    edges = [(u, v, pair_weights[(u, v)]) for u, v in sorted(pair_weights)]
    graph = Graph(nodes=nodes, edges=edges, directed=False)
    graph.validate()
    return graph


def pair_counts(item_sets: Iterable[set[str]], kept: set[str]) -> Counter:
    """Full counting: each item set adds one unit to every unordered pair
    of its kept items, keyed (u, v) with u < v."""
    pairs = Counter()
    for items in item_sets:
        pairs.update(combinations(sorted(items & kept), 2))
    return pairs


# Local citation matching ------------------------------------------------------

class LocalCitations(NamedTuple):
    """Result of matching cited references against the corpus itself."""

    # citing document id -> set of reference keys it mentions; a
    # reference matched to a corpus document is keyed ("doc", id)
    mentions: dict[str, set[tuple]]
    # distinct corpus documents citing each reference (corpus or not)
    reference_counts: Counter
    reference_labels: dict[tuple, str]
    reference_years: dict[tuple, Optional[int]]


def _source_prefix_match(a: Optional[str], b: Optional[str]) -> bool:
    if not a or not b:
        return False
    short, long = (a, b) if len(a) <= len(b) else (b, a)
    return len(short) >= SOURCE_PREFIX_MIN and long.startswith(short)


def _ref_label(ref: CitedReference) -> str:
    parts = [ref.first_author or "?", str(ref.year) if ref.year else "?"]
    if ref.source:
        parts.append(ref.source)
    return ", ".join(parts)


def _doc_ref_label(doc: Document) -> str:
    author = surname_of(doc.authors[0]) if doc.authors else "?"
    initials = ""
    if doc.authors and "," in doc.authors[0]:
        initials = " " + doc.authors[0].split(",")[1].strip()
    year = str(doc.pub_year) if doc.pub_year else "?"
    return f"{author}{initials}, {year}" + (f", {doc.source}" if doc.source else "")


# The document fields match_local_citations reads, besides the id.
MATCHING_FIELDS = ("authors", "pub_year", "source", "doi", "cited_refs")


def match_local_citations(corpus: Corpus) -> LocalCitations:
    """Match every cited reference against the corpus.

    A reference hits a corpus document when the DOIs agree, or when the
    normalized first-author surname, the year, and a source prefix of at
    least six characters all agree.  Local citation counts are distinct
    citing documents; references never matched still get counted.  Each
    distinct reference is matched and keyed once, by value; whether it
    is a self-citation is decided per citing document.
    """
    by_doi: dict[str, str] = {}
    by_author_year: dict[tuple[str, int], list[Document]] = {}
    for doc in corpus.documents:
        if doc.doi:
            by_doi.setdefault(doc.doi, doc.id)
        if doc.authors and doc.pub_year is not None:
            key = (surname_of(doc.authors[0]), doc.pub_year)
            by_author_year.setdefault(key, []).append(doc)

    def match(ref: CitedReference) -> Optional[str]:
        if ref.doi and ref.doi in by_doi:
            return by_doi[ref.doi]
        if ref.first_author and ref.year is not None:
            key = (surname_of(ref.first_author), ref.year)
            for doc in by_author_year.get(key, []):
                if _source_prefix_match(ref.source, doc.source):
                    return doc.id
        return None

    labels: dict[tuple, str] = {}
    years: dict[tuple, Optional[int]] = {}
    mentions: dict[str, set[tuple]] = {}
    doc_by_id = {doc.id: doc for doc in corpus.documents}
    # distinct reference -> (matched document id or None, reference key)
    resolved: dict[CitedReference, tuple[Optional[str], tuple]] = {}

    for doc in corpus.documents:
        seen: set[tuple] = set()
        for ref in doc.cited_refs:
            hit = resolved.get(ref)
            if hit is None:
                target = match(ref)
                hit = resolved[ref] = (
                    target, ("doc", target) if target else reference_key(ref))
            target, key = hit
            if target == doc.id:
                continue  # a record citing itself carries no local signal
            seen.add(key)
            if key in labels:
                continue
            # The first mention names the key; later ones only count.
            if target:
                labels[key] = _doc_ref_label(doc_by_id[target])
                years[key] = doc_by_id[target].pub_year
            else:
                labels[key] = _ref_label(ref)
                years[key] = ref.year
        mentions[doc.id] = seen

    reference_counts = Counter()
    for keys in mentions.values():
        reference_counts.update(keys)
    return LocalCitations(mentions=mentions, reference_counts=reference_counts,
                          reference_labels=labels, reference_years=years)


# Graph builders ----------------------------------------------------------------

def cooccurrence_graph(corpus: Corpus, term_field: str = "DE",
                       min_occurrence: int = 5) -> Graph:
    """Term co-occurrence network over a keyword field (full counting).

    Nodes are terms appearing in at least ``min_occurrence`` documents;
    an edge weight counts the documents where both terms appear.
    """
    doc_terms = [field_values(doc, term_field) for doc in corpus.documents]
    occurrence = Counter(term for terms in doc_terms for term in terms)
    kept = {t for t, c in occurrence.items() if c >= min_occurrence}
    return _undirected_graph({t: float(occurrence[t]) for t in kept},
                             pair_counts(doc_terms, kept))


def cocitation_graph(local: LocalCitations, min_citations: int = 20) -> Graph:
    """Reference co-citation network (full counting).

    Nodes are cited references mentioned by at least ``min_citations``
    corpus documents; an edge weight counts the documents citing both.
    """
    kept = {key for key, count in local.reference_counts.items()
            if count >= min_citations}
    # Labels may collide between distinct keys; disambiguate
    # deterministically with a suffix no other kept reference carries.
    node_ids: dict[tuple, str] = {}
    taken = {local.reference_labels[key] for key in kept}
    used: dict[str, int] = {}
    for key in sorted(kept, key=lambda k: (local.reference_labels[k], repr(k))):
        label = local.reference_labels[key]
        n = used.get(label, 0) + 1
        while n > 1 and f"{label} ({n})" in taken:
            n += 1
        used[label] = n
        node_ids[key] = label if n == 1 else f"{label} ({n})"
        taken.add(node_ids[key])

    # Labels are unique after disambiguation, so label sets count pairs.
    cited = ({node_ids[key] for key in refs & kept}
             for refs in local.mentions.values())
    node_weights = {node_ids[key]: float(local.reference_counts[key])
                    for key in kept}
    return _undirected_graph(node_weights, pair_counts(cited, set(node_weights)))


def collaboration_graph(corpus: Corpus, level: str = "author",
                        top_n: Optional[int] = None) -> Graph:
    """Co-authorship network between authors, institutions, or countries.

    Edge weight counts co-authored documents; isolated entities are
    dropped.  ``top_n`` restricts nodes to the most productive entities
    before edges are counted.
    """
    if level not in LEVEL_TAGS:
        raise ValueError(f"unknown collaboration level {level!r} "
                         f"(expected one of {', '.join(LEVEL_TAGS)})")
    doc_entities = [field_values(doc, LEVEL_TAGS[level])
                    for doc in corpus.documents]
    doc_counts = Counter(entity for entities in doc_entities
                         for entity in entities)
    kept = set(doc_counts)
    if top_n is not None:
        kept = {entity for entity, _ in ranked(doc_counts.items(), top_n)}

    pair_weights = pair_counts(doc_entities, kept)
    linked = {u for u, _ in pair_weights} | {v for _, v in pair_weights}
    return _undirected_graph({e: float(doc_counts[e]) for e in sorted(linked)},
                             pair_weights)


# Historiograph -------------------------------------------------------------------

def historiograph(corpus: Corpus, local: LocalCitations, n: int = 30,
                  ) -> tuple[Graph, list[str]]:
    """Direct-citation graph over the ``n`` most locally cited documents.

    Arcs point from the citing (newer) document to the cited (older) one,
    so publication-year orientation keeps the graph acyclic.  A same-year
    citation keeps its citing orientation unless that would close a cycle;
    either way it is flagged, never guessed.
    """
    counts = local.reference_counts
    doc_by_id = {doc.id: doc for doc in corpus.documents}
    local_counts = ((doc.id, counts[("doc", doc.id)]) for doc in corpus.documents)
    top = [doc_by_id[doc_id] for doc_id, _ in ranked(local_counts, n)]
    top_ids = {doc.id for doc in top}
    year = {doc.id: doc.pub_year for doc in corpus.documents}

    # Matching already leaves self-citations out of the mentions.
    arcs = [(doc.id, key[1]) for doc in top
            for key in local.mentions.get(doc.id, ())
            if key[0] == "doc" and key[1] in top_ids]

    flags: list[str] = []
    adjacency: dict[str, set[str]] = {doc.id: set() for doc in top}
    kept_arcs = []
    for citing, cited in sorted(arcs):
        dated = year[citing] is not None and year[cited] is not None
        same_year = dated and year[citing] == year[cited]
        if dated and year[citing] < year[cited]:
            flags.append(f"arc {citing}->{cited} cites a later-dated document")
        # Publication-year orientation proves acyclicity only for strictly
        # newer-cites-older arcs; anything else gets a reachability check.
        if not (dated and year[citing] > year[cited]):
            if reaches(adjacency, cited, citing):
                flags.append(f"cycle-closing citation dropped: {citing}->{cited}")
                continue
            if same_year:
                flags.append(f"same-year citation kept by citing relation: "
                             f"{citing}->{cited}")
        adjacency[citing].add(cited)
        kept_arcs.append((citing, cited, 1.0))

    nodes = [GraphNode(id=doc.id, label=_doc_ref_label(doc),
                       weight=float(counts[("doc", doc.id)]))
             for doc in top]
    graph = Graph(nodes=nodes, edges=kept_arcs, directed=True)
    graph.validate()
    return graph, flags


# Three-field flows -----------------------------------------------------------------

class ThreeFieldFlow(NamedTuple):
    left: list[tuple[str, int]]
    middle: list[tuple[str, int]]
    right: list[tuple[str, int]]
    flows_left: list[tuple[str, str, int]]
    flows_right: list[tuple[str, str, int]]


def three_field_flow(corpus: Corpus, left: str, middle: str, right: str,
                     k_left: int = 10, k_mid: int = 10, k_right: int = 10,
                     ) -> ThreeFieldFlow:
    """Document flows between the top items of three fields.

    Pillar items are the top-k by document count, each pillar with its
    own k, also when two pillars show the same field; a flow weight
    counts the documents exhibiting both of its endpoints.
    """
    fields = (left, middle, right)
    local = match_local_citations(corpus) if "CR" in fields else None

    def items_of(doc: Document, side: str) -> set[str]:
        # CR pillars show local-citation labels, which only matching knows.
        if side == "CR":
            return {local.reference_labels[key]
                    for key in local.mentions.get(doc.id, set())}
        return field_values(doc, side)

    per_doc = [tuple(items_of(doc, side) for side in fields)
               for doc in corpus.documents]
    pillars = []
    for position, k in enumerate((k_left, k_mid, k_right)):
        counts = Counter()
        for items in per_doc:
            counts.update(items[position])
        pillars.append(ranked(counts.items(), k))
    kept_left, kept_mid, kept_right = ({item for item, _ in pillar}
                                       for pillar in pillars)
    flows_left = Counter()
    flows_right = Counter()
    for a, b, c in per_doc:
        b = b & kept_mid
        flows_left.update(product(a & kept_left, b))
        flows_right.update(product(b, c & kept_right))

    return ThreeFieldFlow(
        left=pillars[0], middle=pillars[1], right=pillars[2],
        flows_left=sorted((a, b, w) for (a, b), w in flows_left.items()),
        flows_right=sorted((b, c, w) for (b, c), w in flows_right.items()))


# Reference publication year spectroscopy --------------------------------------------

class RpysRow(NamedTuple):
    year: int
    n_references: int
    citations: int


def rpys(local: LocalCitations) -> tuple[list[RpysRow], int]:
    """Distinct references and citing mentions per reference year.

    Returns one row per year spanning the full min..max cited-year range
    plus the count of undated reference mentions (excluded from rows).
    """
    refs_per_year: dict[int, set[tuple]] = {}
    mentions_per_year: Counter = Counter()
    undated = 0
    for doc_id, keys in local.mentions.items():
        for key in keys:
            year = local.reference_years.get(key)
            if year is None:
                undated += 1
                continue
            refs_per_year.setdefault(year, set()).add(key)
            mentions_per_year[year] += 1
    if not refs_per_year:
        return [], undated
    rows = [RpysRow(year=year,
                    n_references=len(refs_per_year.get(year, set())),
                    citations=mentions_per_year[year])
            for year in range(min(refs_per_year), max(refs_per_year) + 1)]
    return rows, undated
