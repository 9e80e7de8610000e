"""Test-only oracle: the term kernels before the incidence product.

``scimap.textterms.bigrams_of`` judges each word once, ``scimap.tables.
ranked`` orders by two stable sorts, and ``scimap.themes._slice_graph``
counts a slice's co-occurrences as one product of its incidence matrix.
These are the versions they replaced, kept verbatim so differential
tests can require equal results: a ``Counter`` of pair tuples through
``pair_counts``, sorted and validated by ``_undirected_graph``.
"""
from __future__ import annotations

from collections import Counter
from heapq import nsmallest
from itertools import combinations
from typing import Any, Iterable, Optional

from scimap.graphs import Graph, GraphNode
from scimap.records import Corpus
from scimap.textterms import stopwords, tokenize


def bigrams_of(text: str) -> list[str]:
    """Stopword-filtered word bigrams of a text, in order of appearance.

    A bigram survives only when neither word is a stopword and neither is
    a bare number; duplicates within the text are kept (callers that want
    per-document presence semantics take the set).
    """
    words = tokenize(text)
    stop = stopwords()
    out = []
    for first, second in zip(words, words[1:]):
        if first in stop or second in stop:
            continue
        if first.isdigit() or second.isdigit():
            continue
        out.append(f"{first} {second}")
    return out


def ranked(pairs: Iterable[tuple[Any, Any]], k: Optional[int] = None) -> list:
    """(name, value) pairs by descending value, ties by ascending name:
    all of them, or the first ``k``.  A ``k`` below 1 raises ValueError."""
    if k is None:
        return sorted(pairs, key=lambda item: (-item[1], item[0]))
    if k < 1:
        raise ValueError(f"top-k must be at least 1, got {k}")
    return nsmallest(k, pairs, key=lambda item: (-item[1], item[0]))


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


def _doc_grams(text: str, ngram: int) -> list[str]:
    if ngram == 1:
        stop = stopwords()
        return [w for w in tokenize(text) if w not in stop and not w.isdigit()]
    return bigrams_of(text)


def _slice_graph(corpus: Corpus, start: int, end: int, n_terms: int,
                 ngram: int) -> Optional[tuple[Graph, dict[str, int]]]:
    """The slice's co-occurrence network and the frequency of each of its
    terms, or None when no document in the slice has an abstract."""
    grams = [_doc_grams(d.abstract, ngram) for d in corpus.documents
             if d.abstract and d.pub_year is not None and start <= d.pub_year <= end]
    if not grams:
        return None
    # Term frequency counts every occurrence; link weights stay
    # per-document (full counting).
    freq = Counter()
    for gram_list in grams:
        freq.update(gram_list)
    kept = dict(ranked(freq.items(), n_terms))
    graph = _undirected_graph({t: float(n) for t, n in kept.items()},
                              pair_counts((set(g) for g in grams), set(kept)))
    return graph, kept
