"""Acceptance gate: the twelve contract criteria at their stated
tolerances, one printed pass/fail line each (run with ``pytest -s`` to
see the lines on a green suite)."""
from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import build_corpus, make_document, triangle_example
from golden_suite import run_cli_suite
from scimap.amortize import amortize, h_index
from scimap.centrality import betweenness, pagerank
from scimap.community import modularity, walktrap
from scimap.graphs import rpys, match_local_citations
from scimap.metrics import bradford_zones, lotka_fit, mcp_ratio_pct, \
    mean_citation_per_elapsed_years
from scimap.mfas import brute_force_optimum, calibration_harness, solve
from scimap.tables import fmt

import test_centrality as centrality_fixtures
import test_community as community_fixtures
from test_metrics import EXPECTED_CUMULATIVE, full_bradford_fixture


def report(number: int, name: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {name}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_01_amortized_reference_table():
    started = time.perf_counter()
    points = [(1991, 51), (1992, 44), (1993, 42), (1994, 36), (1995, 34),
              (1996, 27), (1997, 21), (1998, 14), (1999, 11), (2000, 5)]
    printed = {
        1991: (1.0000, 0.1000, 5.1000), 1992: (1.1111, 0.1111, 4.8888),
        1993: (1.2500, 0.1250, 5.2500), 1994: (1.4285, 0.1428, 5.1428),
        1995: (1.6666, 0.1666, 5.6666), 1996: (2.0000, 0.2000, 5.4000),
        1997: (2.5000, 0.2500, 5.2500), 1998: (3.3333, 0.3333, 4.6666),
        1999: (5.0000, 0.5000, 5.5000), 2000: (10.0000, 1.0000, 5.0000),
    }
    rows = amortize(points, reference_year=2000)
    ok = len(rows) == 10
    for row in rows:
        ps, nps, amortized = printed[row.year]
        ok = ok and abs(float(row.pondering_scalar) - ps) < 1e-3
        ok = ok and abs(float(row.normalized_ps) - nps) < 1e-3
        ok = ok and abs(float(row.amortized) - amortized) < 1e-3
        ok = ok and row.citable_years == 2000 - row.year + 1
    elapsed = time.perf_counter() - started
    report(1, f"amortized index reproduces the worked table "
              f"({elapsed:.3f}s < 1s)", ok and elapsed < 1.0)


def test_criterion_02_citation_per_elapsed_years_exact():
    docs = [make_document("a", title="a", pub_year=2021, total_citations=8),
            make_document("b", title="b", pub_year=2021, total_citations=9)]
    corpus = build_corpus(docs, reference_year=2023)
    points = dict(mean_citation_per_elapsed_years(corpus))
    value = points[2021]
    ok = value == Fraction(17, 6) and fmt(float(value)) == "2.83"
    report(2, "mean citation per elapsed years is exactly 17/6, printed 2.83", ok)


def test_criterion_03_bradford_cumulative_and_shares():
    zones = bradford_zones(full_bradford_fixture())
    zone1 = zones[0]
    ok = zone1.cumulative == EXPECTED_CUMULATIVE
    ok = ok and len(zone1.sources) == 20
    ok = ok and fmt(zone1.article_share_pct) == "33.28"
    ok = ok and fmt(zone1.source_share_pct) == "3.14"
    report(3, "core-source zone reproduces the cumulative column and 33.28%", ok)


def test_criterion_04_h_index_scenario_and_monotonicity():
    ok = h_index([100] * 5 + [0] * 5) == 5
    rng = random.Random(2023)
    for _ in range(1000):
        counts = [rng.randrange(0, 50) for _ in range(rng.randrange(0, 30))]
        before = h_index(counts)
        after = h_index(counts + [rng.randrange(0, 50)])
        ok = ok and after >= before
    report(4, "h-index: 10-paper scenario gives 5; adding a paper never "
              "lowers it (1000 cases)", ok)


def test_criterion_05_lotka_prediction():
    counts = [(f"a{i}", 1) for i in range(10)] + [("b", 2), ("c", 3)]
    fit = lotka_fit(counts)
    ok = abs(fit.predicted[3] - 10 / 9) < 0.01
    report(5, "inverse-square law predicts 10/9 authors at three documents", ok)


def test_criterion_06_collaboration_percentages():
    ok = mcp_ratio_pct(538, 123) == 18.6
    ok = ok and mcp_ratio_pct(29, 42) == 59.2
    report(6, "multi-country shares print 18.6% and 59.2% (half-up, "
              "1 decimal)", ok)


def test_criterion_07_mfas_triangle_oracle_and_solver():
    started = time.perf_counter()
    mg = triangle_example()
    optimum, witness = brute_force_optimum(mg)
    ok = optimum == 1 and witness == {("ellen", "tim"): 1}
    hits = 0
    for trial in range(200):
        best, reportrec = solve(mg, t=50, seed=900 + trial)
        hits += best.size == 1
    ok = ok and hits >= 199
    elapsed = time.perf_counter() - started
    report(7, f"triangle: oracle optimum 1, best-of-50 hit {hits}/200 "
              f"({elapsed:.2f}s < 5s)", ok and elapsed < 5.0)


def test_criterion_08_mfas_calibration():
    started = time.perf_counter()
    result = calibration_harness(triangle_example(), t=10, trials=1000,
                                 seed=20230505, confidence=0.99)
    ok = result.wilson_low <= 1 / 6 <= result.wilson_high
    curve = result.empirical_cumulative
    ok = ok and all(b >= a for a, b in zip(curve, curve[1:]))
    slack = 0.05
    for r, value in enumerate(curve, start=1):
        floor = 1.0 - (1.0 - result.wilson_low) ** r
        ok = ok and value >= floor - slack
    elapsed = time.perf_counter() - started
    report(8, f"calibration: per-run rate {result.per_run_success_rate:.4f} "
              f"inside Wilson 99% around 1/6; curve monotone and above the "
              f"per-run floor ({elapsed:.2f}s < 30s)", ok and elapsed < 30.0)


def test_criterion_09_centrality_oracles():
    started = time.perf_counter()
    rng = random.Random(424243)
    ok = True
    for trial in range(50):
        graph = centrality_fixtures.random_graph(rng, 8, directed=bool(trial % 2),
                                                 weighted=True)
        mine = pagerank(graph, tolerance=1e-13, max_iter=5000)
        oracle = centrality_fixtures.pagerank_oracle(graph)
        ok = ok and all(abs(mine[n] - oracle[n]) < 1e-8 for n in mine)
    for trial in range(50):
        graph = centrality_fixtures.random_graph(rng, 7, directed=False)
        mine = betweenness(graph)
        oracle = centrality_fixtures.betweenness_oracle(graph)
        ok = ok and all(
            Fraction(value).limit_denominator(10**6) == oracle[node]
            for node, value in mine.items())
    elapsed = time.perf_counter() - started
    report(9, f"PageRank within 1e-8 of the dense oracle and betweenness "
              f"exact on enumeration, 50 graphs each ({elapsed:.2f}s < 30s)",
           ok and elapsed < 30.0)


def test_criterion_10_walktrap_bridged_cliques():
    graph, left, right = community_fixtures.bridged_cliques()
    result = walktrap(graph)
    clusters = {}
    for node, cluster in result.assignment.items():
        clusters.setdefault(cluster, set()).add(node)
    ok = result.n_clusters == 2
    ok = ok and sorted(clusters.values(), key=sorted) == [set(left), set(right)]
    ok = ok and abs(result.modularity - modularity(graph, result.assignment)) < 1e-12
    report(10, "bridged 4-cliques split exactly; modularity matches the "
               "independent recomputation to 1e-12", ok)


def test_criterion_11_rpys_conservation():
    rng = random.Random(77)
    pool = [f"AUTH{i} A, {1940 + rng.randrange(70)}, VENUE {i} LONG"
            for i in range(10)]
    pool.append("LOST B, 19??, SOMEWHERE LONG")
    docs = []
    for i in range(40):
        from conftest import make_ref
        docs.append(make_document(
            f"d{i}", title=f"d{i}", pub_year=2015,
            cited_refs=[make_ref(r) for r in
                        rng.sample(pool, rng.randrange(1, 7))]))
    corpus = build_corpus(docs)
    local = match_local_citations(corpus)
    rows, undated = rpys(local)
    dated_keys = {k for k, y in local.reference_years.items() if y is not None}
    mentions = [k for keys in local.mentions.values() for k in keys]
    ok = sum(r.n_references for r in rows) == len(dated_keys)
    ok = ok and sum(r.citations for r in rows) == \
        sum(1 for k in mentions if k in dated_keys)
    ok = ok and undated == sum(1 for k in mentions if k not in dated_keys)
    report(11, "spectroscopy conserves distinct references and dated "
               "mentions", ok)


def test_criterion_12_cli_determinism(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    first.mkdir()
    second.mkdir()
    run_cli_suite(first)
    run_cli_suite(second)
    files_first = sorted(p.relative_to(first) for p in first.rglob("*")
                         if p.is_file())
    files_second = sorted(p.relative_to(second) for p in second.rglob("*")
                          if p.is_file())
    ok = files_first == files_second and len(files_first) > 25
    for rel in files_first:
        ok = ok and (first / rel).read_bytes() == (second / rel).read_bytes()
    report(12, f"two CLI suite runs over {len(files_first)} artifacts are "
               f"byte-identical", ok)
