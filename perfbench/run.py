"""scimap benchmark: seeded CLI workloads, timed end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload science-map --seed 1 --seconds 35 --trace 0

Each operation is one ``scimap`` command run as a fresh child process,
as users run it.  The load is a closed loop with one client: the parent
runs the workload's command script serially, pass after pass, until the
next pass would overrun ``--seconds``.  Wall time is taken in the parent
and peak RSS is the child's own ``ru_maxrss`` from ``os.wait4``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain passes with passes launched through ``launch.py``, which records
layer spans, and reports the per-layer metrics; the difference between
the two kinds of pass is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every artifact is
checked (exit status, presence, identical digests across passes, and the
oracles in ``checks.py``); a failed check counts its operation as failed.
The program is imported from ``src/`` under the current directory; the
benchmark exits with status 2 and no result when it is not there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import synth

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1          # at or below nproc; one thread keeps runs steady
SETUP_REPEATS = 5         # setup_s is the median of this many set-ups
# End-to-end times are in reference seconds: wall time scaled by
# REF_CALIBRATION_S / (mean wall time of calibrate.py in the same run).
# The machine's speed swings by up to half as other tenants come and go;
# calibrate.py runs after every command and set-up, so it samples the
# slow and fast spells in the same proportion as the commands do, and no
# change to the program moves it.  Means, not medians, keep that
# proportion: the ratio of the two totals cancels it.
REF_CALIBRATION_S = 0.1
DEADLINE_S = 170.0        # the whole run ends well inside 180 s
N_DOCS = 1000
THEME_SLICES = "1995-2014,2015-2023"
THEME_TERMS = "400"
MFAS_RUNS = "5"
CALIBRATION_RUNS = "10"
CALIBRATION_TRIALS = "300"
ENTRY = "import sys; from scimap.cli import main; sys.exit(main())"
CLOCK = time.monotonic    # CLOCK_MONOTONIC, shared with launch.py

WORKLOADS = ("ingest-report", "science-map", "mfas")
END_TO_END = (("setup_s", "s"), ("session_s", "s"), ("peak_rss_mb", "MB"))
GROUPS = ("cmd.ingest_s", "cmd.report_s", "cmd.keyword_map_s", "cmd.cocite_s",
          "cmd.collab_s", "cmd.citation_history_s", "cmd.themes_s",
          "cmd.mfas_s", "cmd.mfas_calibrate_s")
# Spans whose self time is reported as <span>.self_s.
SELF_TIMED = (
    "parsing.parse_plaintext_export", "normalize.to_document",
    "corpus.dedupe_and_screen", "corpus.save_corpus", "corpus.load_corpus",
    "corpus.coverage_report", "metrics.term_frequencies",
    "metrics.trending_terms", "tables.write_table",
    "graphs.match_local_citations", "graphs.cooccurrence_graph",
    "graphs.cocitation_graph", "graphs.collaboration_graph",
    "graphs.historiograph", "graphs.rpys", "graphs.three_field_flow",
    "graphio.write_graph", "graphio.read_graph", "centrality.pagerank",
    "centrality.betweenness", "community.walktrap",
    "themes.thematic_evolution", "mfas.run_once", "mfas.brute_force_optimum")
CALLS = ("normalize.to_document", "corpus.load_corpus",
         "graphs.match_local_citations", "community.walktrap", "mfas.run_once")
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [("metrics.self_s", "s"), ("amortize.self_s", "s"),
       ("cli.self_s", "s"), ("cli.import_s", "s"),
       ("parsing.records", "count"), ("parsing.bytes", "bytes"),
       ("normalize.cited_refs", "count"), ("corpus.screened_ratio", "ratio"),
       ("corpus.bytes_per_export_byte", "ratio"), ("tables.rows_written", "count"),
       ("graphs.local_match_ratio", "ratio"), ("graphs.edges_built", "count"),
       ("graphio.bytes_written", "bytes"), ("graphio.edges_read", "count"),
       ("centrality.nodes", "count"), ("centrality.edges", "count"),
       ("community.walktrap.nodes", "count"), ("community.walktrap.edges", "count"),
       ("community.walktrap.rss_rise_mb", "MB"), ("mfas.best_run_ratio", "ratio"),
       ("mfas.calibration.per_run_success_rate", "ratio")]
    + [(group, "s") for group in GROUPS]
    + [("session_wall_s", "s"), ("calibration_s", "s")]
    + [("trace.overhead_s", "s"), ("trace.startup_s", "s"),
       ("trace.coverage_ratio", "ratio"), ("passes.traced", "count"),
       ("passes.untraced", "count"), ("blas_threads", "count")])


@dataclass
class Op:
    """One command of a workload script and the artifacts it must write."""

    name: str
    group: str
    argv: list
    out: Path
    artifacts: tuple


@dataclass
class Run:
    op: Op
    wall: float
    rss_mb: float
    code: int
    log: Path
    trace: Path | None = None
    spawned: float = 0.0
    digest: dict = field(default_factory=dict)


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SCIMAP_OUT"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(op: Op, log: Path, deadline: float, trace: Path | None = None) -> Run:
    """Run one command to completion; the parent times it and reaps it
    with ``os.wait4`` to read the child's own peak RSS."""
    argv = [str(a) for a in op.argv]
    if trace is None:
        command = [sys.executable, "-c", ENTRY, *argv]
    else:
        command = [sys.executable, str(HERE / "launch.py"), str(trace), *argv]
    with open(log, "wb") as handle:
        spawned = CLOCK()
        proc = subprocess.Popen(command, stdout=handle, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - CLOCK()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = CLOCK() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(op=op, wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
               code=proc.returncode, log=log, trace=trace, spawned=spawned)


# Workloads ----------------------------------------------------------------

REPORT = (
    ("coverage", ["coverage"], ("coverage.csv",)),
    ("stats", ["stats"], ("stats.csv", "annual_production.csv",
                          "citation_per_elapsed_years.csv")),
    ("bradford", ["bradford"], ("bradford_sources.csv", "bradford_zones.csv")),
    ("lotka", ["lotka"], ("lotka.csv",)),
    ("hindex", ["hindex", "--level", "author", "--amortized", "--resolve-ties"],
     ("hindex_author_amortized.csv",)),
    ("terms-DE", ["terms", "--field", "DE"], ("terms.csv",)),
    ("terms-bigrams", ["terms", "--field", "abstract-bigrams"], ("terms.csv",)),
    ("trending", ["trending"], ("trending.csv",)),
    ("sankey", ["sankey"], ("sankey_items.csv", "sankey_flows.csv")),
    ("collab-country", ["collab", "--level", "country"],
     ("collab_country.graphml", "collab_country_nodes.csv",
      "collab_country_edges.csv", "collaboration_indices.csv")),
)


def _graph_files(stem: str) -> tuple:
    return (f"{stem}.graphml", f"{stem}_nodes.csv", f"{stem}_edges.csv")


def ingest_op(inputs: dict, out: Path) -> Op:
    return Op("ingest", "cmd.ingest_s",
              ["ingest", inputs["export1"], inputs["export2"], "--reference-year",
               synth.REFERENCE_YEAR, "-o", out / "corpus.dat"],
              out, ("corpus.dat", "corpus.screening.csv"))


def script(workload: str, inputs: dict, pass_dir: Path, seed: int) -> list[Op]:
    """The timed command script of one pass."""
    if workload == "ingest-report":
        ops = [ingest_op(inputs, pass_dir / "ingest")]
        corpus = pass_dir / "ingest" / "corpus.dat"
        for name, argv, artifacts in REPORT:
            out = pass_dir / name
            ops.append(Op(name, "cmd.report_s",
                          [*argv, "--corpus", corpus, "--out", out], out, artifacts))
        return ops
    if workload == "science-map":
        corpus = inputs["corpus"]
        graph = pass_dir / "cooccur" / "cooccurrence.graphml"
        plan = (
            ("cooccur", "cmd.keyword_map_s", ["cooccur", "--field", "DE",
             "--min-occurrence", "5", "--cluster"], _graph_files("cooccurrence")),
            ("pagerank", "cmd.keyword_map_s", ["pagerank", "--graph", graph],
             ("pagerank.csv",)),
            ("betweenness", "cmd.keyword_map_s", ["betweenness", "--graph", graph],
             ("betweenness.csv",)),
            ("cocite", "cmd.cocite_s", ["cocite", "--min-citations", "20",
             "--cluster"], _graph_files("cocitation")),
            ("collab-author", "cmd.collab_s", ["collab", "--level", "author",
             "--cluster"], _graph_files("collab_author") + ("collaboration_indices.csv",)),
            ("historiograph", "cmd.citation_history_s", ["historiograph",
             "--top-n", "30"], ("historiograph.graphml", "historiograph_documents.csv")),
            ("rpys", "cmd.citation_history_s", ["rpys"], ("rpys.csv",)),
            ("themes", "cmd.themes_s", ["themes", "--slices", THEME_SLICES,
             "--n-terms", THEME_TERMS], ("themes.csv", "themes_links.csv")),
        )
        ops = []
        for name, group, argv, artifacts in plan:
            out = pass_dir / name
            if argv[0] not in ("pagerank", "betweenness"):
                argv = [*argv, "--corpus", corpus]
            ops.append(Op(name, group, [*argv, "--out", out], out, artifacts))
        return ops
    return [
        Op("mfas", "cmd.mfas_s", ["mfas", "--graph", inputs["large"], "-t", MFAS_RUNS,
           "--seed", seed, "--out", pass_dir / "mfas"], pass_dir / "mfas",
           ("mfas_solution.csv",)),
        Op("mfas-calibrate", "cmd.mfas_calibrate_s",
           ["mfas-calibrate", "--graph", inputs["small"], "-t", CALIBRATION_RUNS,
            "--trials", CALIBRATION_TRIALS, "--seed", seed,
            "--out", pass_dir / "mfas-calibrate"], pass_dir / "mfas-calibrate",
           ("calibration_trials.csv", "calibration_curve.csv")),
    ]


def warm_up(deadline: float) -> None:
    """Compile the program's bytecode and fill the page cache, untimed:
    users pay that once per installation, not once per command."""
    done = subprocess.run([sys.executable, "-c", "import scimap.cli"], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=deadline - CLOCK())
    if done.returncode != 0:
        raise SetupError(f"cannot import scimap.cli: {done.stderr.decode()[-500:]}")


def calibrate(deadline: float) -> float:
    """Wall time of one run of the fixed reference script."""
    start = CLOCK()
    done = subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=deadline - CLOCK())
    if done.returncode != 0:
        raise SetupError(f"calibration failed: {done.stderr.decode()[-500:]}")
    return CLOCK() - start


def setup(workload: str, seed: int, where: Path, deadline: float) -> dict:
    """Generate the workload's inputs from the seed (and, for science-map,
    ingest them into the corpus the timed script reads)."""
    where.mkdir(parents=True)
    if workload == "mfas":
        large, small, truth = synth.mfas_graphs(seed)
        (where / "large.tsv").write_text(large, encoding="utf-8")
        (where / "small.tsv").write_text(small, encoding="utf-8")
        return {"large": where / "large.tsv", "small": where / "small.tsv",
                "large_text": large, "truth": truth}
    text1, text2, truth = synth.wos_exports(seed, N_DOCS)
    inputs = {"export1": where / "export1.txt", "export2": where / "export2.txt",
              "truth": truth}
    inputs["export1"].write_text(text1, encoding="utf-8")
    inputs["export2"].write_text(text2, encoding="utf-8")
    if workload == "science-map":
        op = ingest_op(inputs, where / "ingest")
        run = run_child(op, where / "ingest.log", deadline)
        failures = checks.check_ingest(run.log, op.out, truth) if run.code == 0 \
            else [("ingest", f"exit status {run.code}")]
        if failures:
            raise SetupError(f"set-up ingest failed: {failures}")
        inputs["corpus"] = op.out / "corpus.dat"
    return inputs


# Passes and checks ---------------------------------------------------------

def _digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run_pass(ops: list[Op], pass_dir: Path, traced: bool, deadline: float,
             calibrations: list[float]):
    """Run the script once, calibrating after every command; the pass
    time is the sum of the commands' wall times."""
    logs = pass_dir / "logs"
    logs.mkdir(parents=True)
    runs = []
    for op in ops:
        trace = logs / f"{op.name}.jsonl" if traced else None
        runs.append(run_child(op, logs / f"{op.name}.log", deadline, trace))
        calibrations.append(calibrate(deadline))
    wall = sum(run.wall for run in runs)
    for run in runs:
        if run.op.out.is_dir():
            run.digest = _digest(run.op.out)
    return wall, runs


def op_failures(runs: list[Run], reference: dict) -> list[tuple[str, str]]:
    out = []
    for run in runs:
        missing = [a for a in run.op.artifacts if a not in run.digest]
        if run.code != 0:
            out.append((run.op.name, f"exit status {run.code}"))
        elif missing:
            out.append((run.op.name, f"missing artifacts {missing}"))
        elif run.digest != reference.get(run.op.name, run.digest):
            out.append((run.op.name, "artifacts differ from the first pass"))
    return out


def oracle_failures(workload: str, inputs: dict, runs: list[Run]) -> list[tuple[str, str]]:
    by_name = {run.op.name: run for run in runs}
    out_dir = {name: run.op.out for name, run in by_name.items()}
    truth = inputs["truth"]
    if workload == "ingest-report":
        return checks.check_ingest(by_name["ingest"].log, out_dir["ingest"], truth)
    if workload == "science-map":
        graph = out_dir["cooccur"] / "cooccurrence.graphml"
        failures = checks.check_centrality(graph, out_dir["pagerank"] / "pagerank.csv",
                                           out_dir["betweenness"] / "betweenness.csv")
        for name, stem in (("cooccur", "cooccurrence"), ("cocite", "cocitation"),
                           ("collab-author", "collab_author")):
            failures += checks.check_modularity(
                name, out_dir[name] / f"{stem}.graphml",
                out_dir[name] / f"{stem}_nodes.csv")
        failures += checks.check_rpys(out_dir["rpys"] / "rpys.csv", truth)
        failures += checks.check_historiograph(
            out_dir["historiograph"] / "historiograph.graphml",
            out_dir["historiograph"] / "historiograph_documents.csv")
        failures += checks.check_themes(out_dir["themes"] / "themes.csv",
                                        THEME_SLICES.count(",") + 1)
        return failures
    return (checks.check_mfas(inputs["large_text"], out_dir["mfas"] / "mfas_solution.csv")
            + checks.check_calibration(out_dir["mfas-calibrate"] / "calibration_trials.csv",
                                       truth["small_optimum"]))


# Trace analysis ------------------------------------------------------------

def read_trace(run: Run) -> tuple[list[dict], dict]:
    lines = run.trace.read_text(encoding="utf-8").splitlines()
    spans = [json.loads(line) for line in lines[:-1]]
    process = json.loads(lines[-1])
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(span["parent"], 0.0) \
                + span["end"] - span["start"]
    for span in spans:
        span["self"] = span["end"] - span["start"] - children.get(span["id"], 0.0)
    return spans, process


def layer_metrics(runs: list[Run]) -> tuple[dict, list[tuple[str, str]]]:
    """Per-layer totals of one traced pass, and the trace-coverage check:
    span self times plus import time must account for the command's wall
    time net of interpreter start-up and teardown."""
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    best_runs = [0, 0]
    accounted = net = startup = 0.0
    failures = []
    for run in runs:
        if run.code != 0:
            continue
        spans, process = read_trace(run)
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            name = span["name"]
            self_s[name] = self_s.get(name, 0.0) + span["self"]
            calls[name] = calls.get(name, 0) + 1
            for key, value in span.get("counts", {}).items():
                counts[(name, key)] = counts.get((name, key), 0) + value
            if name == "mfas.run_once" and span["parent"] is not None \
                    and by_id[span["parent"]]["name"] == "mfas.solve":
                best = by_id[span["parent"]]["counts"]["best_size"]
                best_runs[0] += span["counts"]["size"] == best
                best_runs[1] += 1
        covered = sum(span["self"] for span in spans) + process["import_s"]
        window = process["t_last"] - process["t_first"]
        accounted += covered
        net += window
        startup += process["t_first"] - run.spawned
        counts[("cli", "import_s")] = counts.get(("cli", "import_s"), 0.0) \
            + process["import_s"]
        if covered < 0.9 * window and window - covered > 0.05:
            failures.append((run.op.name, f"spans cover {covered:.3f} s of "
                                          f"{window:.3f} s traced wall time"))

    def ratio(a, b):
        return a / b if b else 0.0

    def count(name, key):
        return counts.get((name, key), 0)

    module_self = {}
    for name, value in self_s.items():
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + value
    graph_builders = ("cooccurrence_graph", "cocitation_graph",
                      "collaboration_graph", "historiograph")
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    metrics.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    metrics.update({
        "metrics.self_s": module_self.get("metrics", 0.0),
        "amortize.self_s": module_self.get("amortize", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.import_s": count("cli", "import_s"),
        "parsing.records": count("parsing.parse_plaintext_export", "records"),
        "parsing.bytes": count("parsing.parse_plaintext_export", "bytes"),
        "normalize.cited_refs": count("normalize.to_document", "cited_refs"),
        "corpus.screened_ratio": ratio(
            count("corpus.dedupe_and_screen", "screened"),
            count("corpus.dedupe_and_screen", "screened")
            + count("corpus.dedupe_and_screen", "documents")),
        "corpus.bytes_per_export_byte": ratio(
            count("corpus.save_corpus", "bytes"),
            count("parsing.parse_plaintext_export", "bytes")),
        "tables.rows_written": count("tables.write_table", "rows"),
        "graphs.local_match_ratio": ratio(
            count("graphs.match_local_citations", "matched"),
            count("graphs.match_local_citations", "mentions")),
        "graphs.edges_built": sum(count(f"graphs.{b}", "edges") for b in graph_builders),
        "graphio.bytes_written": count("graphio.write_graph", "bytes"),
        "graphio.edges_read": count("graphio.read_graph", "edges"),
        "centrality.nodes": count("centrality.pagerank", "nodes")
        + count("centrality.betweenness", "nodes"),
        "centrality.edges": count("centrality.pagerank", "edges")
        + count("centrality.betweenness", "edges"),
        "community.walktrap.nodes": count("community.walktrap", "nodes"),
        "community.walktrap.edges": count("community.walktrap", "edges"),
        "community.walktrap.rss_rise_mb": count("community.walktrap", "rss_rise_mb"),
        "mfas.best_run_ratio": ratio(*best_runs),
        "mfas.calibration.per_run_success_rate":
            count("mfas.calibration_harness", "per_run_success_rate"),
        "trace.startup_s": startup,
        "trace.coverage_ratio": ratio(accounted, net),
    })
    return metrics, failures


# Driver ---------------------------------------------------------------------

def group_times(runs: list[Run]) -> dict:
    totals = {group: 0.0 for group in GROUPS}
    for run in runs:
        totals[run.op.group] += run.wall
    return totals


def mean_of(dicts: list[dict]) -> dict:
    return {key: statistics.fmean(d[key] for d in dicts) for key in dicts[0]}


def median_of(dicts: list[dict]) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = CLOCK() + DEADLINE_S
    warm_up(deadline)
    calibrations = [calibrate(deadline)]
    setup_times = []
    for k in range(SETUP_REPEATS):
        start = CLOCK()
        inputs = setup(workload, seed, work / f"setup{k}", deadline)
        setup_times.append(CLOCK() - start)
        calibrations.append(calibrate(deadline))
    # set-up comes first, so it is scaled by the calibrations around it
    setup_scale = REF_CALIBRATION_S / statistics.fmean(calibrations)

    passes = []   # (traced, wall, runs)
    start = CLOCK()
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = work / f"pass{len(passes)}"
        ops = script(workload, inputs, pass_dir, seed)
        begun = CLOCK()
        wall, runs = run_pass(ops, pass_dir, traced, deadline, calibrations)
        longest = max(longest, CLOCK() - begun)
        passes.append((traced, wall, runs))
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and CLOCK() - start + longest > seconds:
            break
        if CLOCK() + longest > deadline:
            break

    reference = {run.op.name: run.digest for run in passes[0][2]}
    failed = set()
    reasons = []
    for index, (traced, _, runs) in enumerate(passes):
        for name, why in op_failures(runs, reference):
            failed.add((index, name))
            reasons.append(f"pass {index} {name}: {why}")
    if not any(index == 0 for index, _ in failed):
        for name, why in oracle_failures(workload, inputs, passes[0][2]):
            failed.update((index, name) for index in range(len(passes)))
            reasons.append(f"{name}: {why}")

    plain = [(wall, runs) for traced, wall, runs in passes if not traced]
    calibration = statistics.fmean(calibrations)
    scale = REF_CALIBRATION_S / calibration
    groups = {group: value * scale for group, value in
              mean_of([group_times(runs) for _, runs in plain]).items()}
    session_wall = statistics.fmean(wall for wall, _ in plain)
    metrics = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "session_s": session_wall * scale,
        "peak_rss_mb": max(run.rss_mb for _, runs in plain for run in runs),
    }
    raw = {"session_wall_s": session_wall, "calibration_s": calibration}
    layers = {}
    if trace:
        traced_passes = [(index, wall, runs)
                         for index, (traced, wall, runs) in enumerate(passes) if traced]
        if not traced_passes:
            raise SetupError("no traced pass fitted in the time limit")
        per_pass = []
        for index, _, runs in traced_passes:
            values, trace_failures = layer_metrics(runs)
            per_pass.append(values)
            for name, why in trace_failures:
                failed.add((index, name))
                reasons.append(f"pass {index} {name}: {why}")
        layers = median_of(per_pass)
        if workload == "science-map" and layers["graphs.local_match_ratio"] == 0:
            failed.update((index, "cocite") for index, _, _ in traced_passes)
            reasons.append("graphs.local_match_ratio is 0: no planted local "
                           "citation was matched")
        layers.update(groups)
        layers.update(raw)
        layers["trace.overhead_s"] = statistics.fmean(
            wall for _, wall, _ in traced_passes) - session_wall
        layers["passes.traced"] = len(traced_passes)
        layers["passes.untraced"] = len(plain)
        layers["blas_threads"] = BLAS_THREADS
    attempted = sum(len(runs) for _, _, runs in passes)
    return {"metrics": metrics, "groups": groups, "layers": layers, "raw": raw,
            "attempted": attempted, "failed": len(failed), "reasons": reasons,
            "passes": len(passes), "plain_passes": len(plain)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scimap" / "cli.py").is_file():
        print(f"run.py: no scimap sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    units = dict(END_TO_END + tuple(PER_LAYER))
    shown = dict(result["metrics"])
    shown.update(result["raw"])
    shown.update(result["groups"])
    shown.update(result["layers"])
    print(f"workload {args.workload}, seed {args.seed}: {result['passes']} passes "
          f"({result['plain_passes']} untraced), one client, closed loop, "
          f"BLAS threads {BLAS_THREADS} of {os.cpu_count()} CPUs")
    for name, value in shown.items():
        if args.trace or name in result["metrics"] or name in result["raw"] \
                or result["groups"].get(name):
            print(f"  {name:42s} {value:12.6g} {units[name]}")
    print(f"  {'failed_ratio':42s} {result['failed'] / result['attempted']:12.6g} "
          f"ratio ({result['failed']} of {result['attempted']} operations)")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    wanted = PER_LAYER if args.trace else END_TO_END
    source = result["layers"] if args.trace else result["metrics"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
