"""Thematic evolution over time slices.

Each slice gets its own abstract-bigram co-occurrence network, clustered
with walktrap; clusters below the frequency floor are discarded and the
survivors are linked across consecutive slices by inclusion index.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple, Optional

from .community import walktrap
from .graphs import Graph, GraphNode
from .records import Corpus
from .tables import ranked
from .textterms import bigrams_of, stopwords, tokenize

# Incidence cells per block of documents in ``_cooccurrences``: 2 MB of
# float64.
_BLOCK_CELLS = 1 << 18


class ThemeCluster(NamedTuple):
    label: str
    terms: list[str]
    frequency: int


class ThematicSlice(NamedTuple):
    period: tuple[int, int]
    clusters: list[ThemeCluster]
    # Filled by thematic_evolution; empty on the last slice.
    links_to_next: list[tuple[str, str, float]]
    flag: Optional[str] = None


def inclusion_index(a: set[str], b: set[str]) -> float:
    """|A n B| / min(|A|, |B|) over member-term sets; in (0, 1] when the
    sets overlap at all."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def _doc_grams(text: str, ngram: int) -> list[str]:
    if ngram == 1:
        stop = stopwords()
        return [w for w in tokenize(text) if w not in stop and not w.isdigit()]
    return bigrams_of(text)


def thematic_evolution(corpus: Corpus, slice_bounds: list[tuple[int, int]],
                       n_terms: int = 1000, min_cluster_freq: int = 20,
                       min_weight_index: float = 0.02,
                       ngram: int = 2) -> list[ThematicSlice]:
    """Time-sliced theme clusters with inclusion-index links.

    Per slice: the top ``n_terms`` abstract n-grams form a co-occurrence
    network, walktrap clusters it, clusters whose total term frequency
    falls below ``min_cluster_freq`` are dropped, and each survivor is
    labeled by its highest-frequency member term.  Consecutive slices are
    linked where the inclusion index reaches ``min_weight_index``.
    """
    _check_slices(slice_bounds)
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    # One slice at a time: each slice's grams, counts and graph are gone
    # before the next slice starts.
    out = [_slice_themes(corpus, start, end, n_terms, min_cluster_freq, ngram)
           for start, end in slice_bounds]
    for index, (current, following) in enumerate(zip(out, out[1:])):
        links = []
        for cluster in current.clusters:
            for nxt in following.clusters:
                weight = inclusion_index(set(cluster.terms), set(nxt.terms))
                if weight >= min_weight_index and weight > 0.0:
                    links.append((cluster.label, nxt.label, weight))
        out[index] = current._replace(links_to_next=sorted(links))
    return out


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
    ids = sorted(kept)
    column = {term: index for index, term in enumerate(ids)}
    # Each document's kept terms as columns; one kept term links nothing.
    hits = [cols for cols in ({column[t] for t in gram_list if t in column}
                              for gram_list in grams) if len(cols) > 1]
    del grams, freq  # gone before numpy loads and allocates
    nodes = [GraphNode(id=term, label=term, weight=float(kept[term]))
             for term in ids]
    return Graph(nodes=nodes, edges=_cooccurrences(hits, ids),
                 directed=False), kept


def _cooccurrences(hits: list[set[int]], ids: list[str],
                   ) -> list[tuple[str, str, int]]:
    """Full counting over documents given as sets of term columns: the
    weighted edges (ids[i], ids[j], n) with i < j, in row-major order.

    The counts are the off-diagonal entries of X'X for the 0/1 document
    x term incidence matrix X, summed over blocks of documents so no
    block exceeds ``_BLOCK_CELLS``.  Sums of products of 0/1 entries are
    exact integers in float64.  As ``ids`` is sorted, row-major order over
    the strict upper triangle is the sorted order of the (u, v) pairs.
    """
    if not hits:
        return []
    import numpy as np  # deferred: only clustering commands pay for numpy

    n = len(ids)
    counts = np.zeros((n, n))
    step = max(1, _BLOCK_CELLS // n)
    for first in range(0, len(hits), step):
        block = hits[first:first + step]
        incidence = np.zeros((len(block), n))
        incidence[np.repeat(np.arange(len(block)), list(map(len, block))),
                  list(chain.from_iterable(block))] = 1.0
        counts += incidence.T @ incidence
    rows, cols = np.nonzero(np.triu(counts, 1))
    weights = counts[rows, cols].astype(np.int64).tolist()
    return list(zip(map(ids.__getitem__, rows.tolist()),
                    map(ids.__getitem__, cols.tolist()), weights))


def _slice_themes(corpus: Corpus, start: int, end: int, n_terms: int,
                  min_cluster_freq: int, ngram: int) -> ThematicSlice:
    built = _slice_graph(corpus, start, end, n_terms, ngram)
    if built is None:
        return ThematicSlice((start, end), [], [], flag="no-abstracts")
    graph, freq = built
    # Only the graph and the kept terms' frequencies are alive while
    # walktrap runs.
    clustering = walktrap(graph)
    grouped: dict[int, list[str]] = {}
    for term, cluster in clustering.assignment.items():
        grouped.setdefault(cluster, []).append(term)
    # A cluster is labelled by its most frequent term.
    members: dict[str, list[str]] = {}
    totals: dict[str, int] = {}
    for terms in grouped.values():
        [(label, _)] = ranked(((t, freq[t]) for t in terms), 1)
        members[label] = sorted(terms)
        totals[label] = sum(freq[t] for t in terms)
    clusters = [ThemeCluster(label=label, terms=members[label], frequency=total)
                for label, total in ranked(totals.items())
                if total >= min_cluster_freq]
    return ThematicSlice((start, end), clusters, [])


def _check_slices(slice_bounds: list[tuple[int, int]]) -> None:
    if not slice_bounds:
        raise ValueError("at least one time slice is required")
    for start, end in slice_bounds:
        if start > end:
            raise ValueError(f"slice {start}-{end} is reversed")
    for (_, prev_end), (next_start, _) in zip(slice_bounds, slice_bounds[1:]):
        if next_start <= prev_end:
            raise ValueError("time slices must be ordered and non-overlapping")
