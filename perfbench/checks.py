"""Output correctness checks against independent oracles.

Each check reads the artifacts of one pass and returns a list of
``(op, reason)`` failures; the operation named is counted as failed.
PageRank, betweenness, modularity and acyclicity are recomputed with
networkx (a benchmark-only dependency); record counts, RPYS totals and
the MFAS optimum come from the generator's ground truth.
"""
from __future__ import annotations

import csv
import re
from pathlib import Path

import networkx as nx

REL_TOL = 1e-9


def read_artifact(path: Path) -> tuple[dict, list[dict]]:
    """Split a table artifact into its ``# key: value`` header and rows."""
    meta, body = {}, []
    with open(path, encoding="utf-8", newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(": ")
                meta[key] = value
            else:
                body.append(line)
    return meta, list(csv.DictReader(body))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


def check_ingest(log: Path, ingest_dir: Path, truth: dict) -> list[tuple[str, str]]:
    """Corpus documents + screened records = parsed records, and the
    planted duplicates are exactly what dedupe removed."""
    match = re.search(r"corpus: (\d+) documents \((\d+) screened out\)",
                      log.read_text(encoding="utf-8", errors="replace"))
    if not match:
        return [("ingest", "no corpus summary line in ingest output")]
    docs, screened = int(match.group(1)), int(match.group(2))
    out = []
    if docs + screened != truth["records"]:
        out.append(("ingest", f"{docs} documents + {screened} screened != "
                              f"{truth['records']} parsed records"))
    if docs != truth["documents"]:
        out.append(("ingest", f"{docs} documents, expected {truth['documents']}"))
    _, ledger = read_artifact(ingest_dir / "corpus.screening.csv")
    by_doi = sum(1 for row in ledger if row["reason"] == "duplicate-doi")
    if len(ledger) != screened or by_doi != truth["duplicates_by_doi"]:
        out.append(("ingest", f"screening ledger has {len(ledger)} rows "
                              f"({by_doi} by DOI), expected {truth['duplicates']} "
                              f"({truth['duplicates_by_doi']} by DOI)"))
    return out


def check_centrality(graph_path: Path, pagerank_csv: Path,
                     betweenness_csv: Path) -> list[tuple[str, str]]:
    graph = nx.read_graphml(graph_path)
    out = []
    n = graph.number_of_nodes()
    # Same power iteration, same L1 stopping rule (networkx stops when
    # the L1 change is below n * tol).
    reference = nx.pagerank(graph, alpha=0.85, tol=1e-9 / n, max_iter=200,
                            weight="weight")
    _, rows = read_artifact(pagerank_csv)
    written = {row["node"]: float(row["pagerank"]) for row in rows}
    bad = [node for node in reference
           if node not in written or not _close(written[node], reference[node])]
    if bad or len(written) != n:
        out.append(("pagerank", f"{len(bad)} of {n} scores differ from networkx "
                                f"beyond {REL_TOL} relative"))
    reference = nx.betweenness_centrality(graph, normalized=False, weight=None)
    _, rows = read_artifact(betweenness_csv)
    written = {row["node"]: float(row["betweenness"]) for row in rows}
    bad = [node for node in reference
           if node not in written or not _close(written[node], reference[node])]
    if bad or len(written) != n:
        out.append(("betweenness", f"{len(bad)} of {n} scores differ from "
                                   f"networkx beyond {REL_TOL} relative"))
    return out


def check_modularity(op: str, graph_path: Path, nodes_csv: Path) -> list[tuple[str, str]]:
    """The written walktrap partition's modularity equals the header value."""
    graph = nx.read_graphml(graph_path)
    meta, rows = read_artifact(nodes_csv)
    clusters: dict[str, set] = {}
    for row in rows:
        clusters.setdefault(row["cluster"], set()).add(row["id"])
    if "" in clusters or sum(map(len, clusters.values())) != graph.number_of_nodes():
        return [(op, "walktrap partition does not cover every node")]
    q = nx.community.modularity(graph, clusters.values(), weight="weight")
    if abs(q - float(meta["modularity"])) > 1e-9:
        return [(op, f"modularity {meta['modularity']} in header, networkx {q!r}")]
    if int(meta["clusters"]) != len(clusters):
        return [(op, "cluster count in header differs from the partition")]
    return []


def check_rpys(rpys_csv: Path, truth: dict) -> list[tuple[str, str]]:
    """RPYS conserves distinct dated references and dated mentions."""
    meta, rows = read_artifact(rpys_csv)
    years = [int(row["year"]) for row in rows]
    refs = sum(int(row["n_references"]) for row in rows)
    mentions = sum(int(row["citations"]) for row in rows)
    undated = int(meta["undated_mentions"])
    if not years or years != list(range(years[0], years[0] + len(years))):
        return [("rpys", "spectrum years are not one contiguous range")]
    if (refs, mentions, undated) != (truth["dated_references"],
                                     truth["dated_mentions"],
                                     truth["undated_mentions"]):
        return [("rpys", f"references/mentions/undated {refs}/{mentions}/{undated}, "
                         f"planted {truth['dated_references']}/"
                         f"{truth['dated_mentions']}/{truth['undated_mentions']}")]
    return []


def check_historiograph(graph_path: Path, docs_csv: Path) -> list[tuple[str, str]]:
    """Planted local citations are found: the historiograph has arcs and
    is acyclic, and its top document is cited locally."""
    graph = nx.read_graphml(graph_path)
    _, rows = read_artifact(docs_csv)
    top = max((int(row["local_citations"]) for row in rows), default=0)
    if graph.number_of_edges() == 0 or top == 0:
        return [("historiograph", "no local citations matched; cocite and "
                                  "historiograph would measure empty work")]
    if not nx.is_directed_acyclic_graph(graph):
        return [("historiograph", "historiograph has a cycle")]
    return []


def check_themes(themes_csv: Path, n_slices: int) -> list[tuple[str, str]]:
    _, rows = read_artifact(themes_csv)
    slices = {(row["slice_start"], row["slice_end"]) for row in rows if row["theme"]}
    if len(slices) != n_slices:
        return [("themes", f"themes found in {len(slices)} of {n_slices} slices")]
    return []


def _multigraph(text: str) -> dict:
    bundles = {}
    for line in text.splitlines():
        u, v, m = line.split()
        bundles[(u, v)] = int(m)
    return bundles


def check_mfas(graph_text: str, solution_csv: Path) -> list[tuple[str, str]]:
    """The removal set is within the multigraph and leaves it acyclic."""
    bundles = _multigraph(graph_text)
    meta, rows = read_artifact(solution_csv)
    removed = {(row["from"], row["to"]): int(row["removed"]) for row in rows}
    if any(bundles.get(b, 0) < m or m < 1 for b, m in removed.items()):
        return [("mfas", "solution removes arcs the multigraph does not have")]
    if sum(removed.values()) != int(meta["best_size"]):
        return [("mfas", "solution size differs from the header best_size")]
    residual = nx.DiGraph(b for b, m in bundles.items() if removed.get(b, 0) < m)
    if not nx.is_directed_acyclic_graph(residual):
        return [("mfas", "residual multigraph still has a cycle")]
    return []


def check_calibration(trials_csv: Path, optimum: int) -> list[tuple[str, str]]:
    """The reported optimum is the exhaustive one, no trial beats it, and
    the per-run success rate lies strictly inside (0, 1)."""
    meta, rows = read_artifact(trials_csv)
    out = []
    if int(meta["optimum"]) != optimum:
        out.append(("mfas-calibrate", f"optimum {meta['optimum']}, exhaustive "
                                      f"search gives {optimum}"))
    if any(int(row["best_size"]) < optimum for row in rows):
        out.append(("mfas-calibrate", "a trial beats the reported optimum"))
    if not 0.0 < float(meta["per_run_success_rate"]) < 1.0:
        out.append(("mfas-calibrate", "per-run success rate not inside (0, 1)"))
    return out
