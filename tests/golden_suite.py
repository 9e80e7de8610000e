"""The golden CLI suite and its driver.

The acceptance CLI suite plus one command per field path and one
``mfas`` run on a multigraph with many topological orders must write
exactly the bytes recorded in ``data/golden_artifacts.sha256``.

An ``ingest`` of the BibTeX sample pins that carrier's reader end to
end.  The extra commands reach every tag of the field accessor that the
acceptance suite leaves out (keyword and bigram terms, ID co-occurrence,
author and institution collaboration, author h-index, sankey over AU,
SO, CR, ID, CR_SO and CO).  The acceptance suite's triangle leaves a
residual with one valid order; the residual of ``MULTIGRAPH`` has
several, so its ``witness_order`` pins the topological tie rule.
``SCC_MULTIGRAPH`` has three strongly connected components joined by
acyclic bridges and bundles of multiplicity 2 and 3, so its ``mfas`` and
``mfas-calibrate`` runs both decrement bundles in place and split
components when a bundle empties.

This module imports the standard library and ``scimap.cli`` only, and
nothing here loads numpy unless a command that clusters runs, so the
suite without those commands runs on an interpreter that has no numpy.
Run it as a script to print the digest table; write a fresh golden
table for an intended output change with

    PYTHONPATH=src python tests/golden_suite.py DIR > tests/data/golden_artifacts.sha256

which runs the suite under DIR (created when missing), sends the
commands' own output to stderr and prints only the table.  With
``--without-numpy`` it leaves out the commands that need numpy.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import re
import sys
from pathlib import Path

from scimap.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = DATA / "golden_artifacts.sha256"
_TABLE_LINE = re.compile(r"^([0-9a-f]{64})  (.+)$", re.MULTILINE)

CLI_SUITE_SEED = "7"

FIELD_COMMANDS = {
    "terms-ID": ["terms", "--field", "ID"],
    "terms-title": ["terms", "--field", "title-bigrams"],
    "terms-abstract": ["terms", "--field", "abstract-bigrams"],
    "cooccur-ID": ["cooccur", "--field", "ID", "--min-occurrence", "1"],
    "collab-author": ["collab", "--level", "author", "--cluster"],
    "collab-institution": ["collab", "--level", "institution"],
    "hindex-author": ["hindex", "--level", "author"],
    "sankey-AU-SO-CR": ["sankey", "--left", "AU", "--middle", "SO",
                        "--right", "CR"],
    "sankey-ID-CR_SO-CO": ["sankey", "--left", "ID", "--middle", "CR_SO",
                           "--right", "CO"],
}

BIBTEX_INGEST = ["ingest", "--format", "bibtex", str(DATA / "sample_export.bib"),
                 "--reference-year", "2023"]

# Two cycles through d (one over a parallel pair) plus acyclic branches.
MULTIGRAPH = "s d 1\nd x 2\nx d 1\nd b 1\nb c 1\nc d 1\ns a 1\na e 1\ns e 1\n"
# Components {a, b}, {c, d, e} and {f, g, h}, 18 arcs (the oracle's cap is 20).
SCC_MULTIGRAPH = ("a b 2\nb a 1\na c 1\nb d 1\nc d 1\nd e 2\ne c 1\nd c 1\n"
                  "d g 1\ne f 1\nf g 3\ng h 1\nh f 1\ng f 1\n")
MFAS_COMMANDS = {
    "mfas-multigraph": (MULTIGRAPH, ["mfas", "-t", "20"]),
    "mfas-scc": (SCC_MULTIGRAPH, ["mfas", "-t", "20"]),
    "mfas-scc-calibrate": (SCC_MULTIGRAPH,
                           ["mfas-calibrate", "-t", "5", "--trials", "50"]),
}


def needs_numpy(argv: list[str]) -> bool:
    """Clustering (``--cluster``, ``walktrap``, ``themes``) loads numpy;
    ``pagerank`` and ``betweenness`` read the clustered co-occurrence
    GraphML."""
    return "--cluster" in argv or argv[0] in (
        "walktrap", "themes", "pagerank", "betweenness")


def _run(argv: list[str], with_numpy: bool, run) -> None:
    if with_numpy or not needs_numpy(argv):
        assert run(argv) == 0, f"command failed: {argv}"


def run_cli_suite(root: Path, with_numpy: bool = True, run=main) -> None:
    """The acceptance CLI suite: every command once, under ``root``.
    ``run`` takes a command's argv and returns its exit status."""
    corpus = root / "corpus.dat"
    sample = str(DATA / "sample_export.txt")
    lexicon = root / "lexicon.json"
    lexicon.write_text(json.dumps({"SVM": ["support vector machine"],
                                   "ML": ["machine learning"]}))
    niches = root / "niches.json"
    niches.write_text(json.dumps(
        {"prediction": ["bankruptcy prediction", "credit scoring"]}))
    table = root / "b1.csv"
    table.write_text("year,metric\n1999,11\n2000,5\n")
    triangle = root / "triangle.tsv"
    triangle.write_text("john ellen 3\nellen tim 1\ntim john 2\n")
    out = str(root / "artifacts")
    commands = [
        ["ingest", sample, "--reference-year", "2023", "-o", str(corpus)],
        ["coverage", "--corpus", str(corpus), "--out", out],
        ["stats", "--corpus", str(corpus), "--out", out],
        ["bradford", "--corpus", str(corpus), "--out", out],
        ["lotka", "--corpus", str(corpus), "--out", out],
        ["hindex", "--corpus", str(corpus), "--level", "source",
         "--amortized", "--resolve-ties", "--out", out],
        ["amortize", "--table", str(table), "--out", out],
        ["terms", "--corpus", str(corpus), "--out", out],
        ["trending", "--corpus", str(corpus), "--min-freq", "2", "--out", out],
        ["cooccur", "--corpus", str(corpus), "--min-occurrence", "2",
         "--cluster", "--out", out],
        ["cocite", "--corpus", str(corpus), "--min-citations", "2", "--out", out],
        ["collab", "--corpus", str(corpus), "--level", "country", "--out", out],
        ["pagerank", "--graph", f"{out}/cooccurrence.graphml", "--out", out],
        ["betweenness", "--graph", f"{out}/cooccurrence.graphml", "--out", out],
        ["walktrap", "--graph", f"{out}/cooccurrence.graphml", "--out", out],
        ["historiograph", "--corpus", str(corpus), "--top-n", "6", "--out", out],
        ["sankey", "--corpus", str(corpus), "--out", out],
        ["themes", "--corpus", str(corpus), "--slices", "2007-2015,2016-2023",
         "--min-cluster-freq", "2", "--out", out],
        ["rpys", "--corpus", str(corpus), "--out", out],
        ["methods", "--corpus", str(corpus), "--lexicon", str(lexicon),
         "--niches", str(niches), "--min-occ", "2", "--out", out],
        ["mfas", "--graph", str(triangle), "-t", "20",
         "--seed", CLI_SUITE_SEED, "--out", out],
        ["mfas-calibrate", "--graph", str(triangle), "-t", "5", "--trials",
         "50", "--seed", CLI_SUITE_SEED, "--out", out],
    ]
    for argv in commands:
        _run(argv, with_numpy, run)


def run_golden_suite(root: Path, with_numpy: bool = True,
                     run=main) -> dict[str, str]:
    """Run the extended suite under ``root``, each command through
    ``run``; relative path -> SHA-256."""
    run_cli_suite(root, with_numpy, run)
    _run(BIBTEX_INGEST + ["-o", str(root / "bibtex" / "corpus.dat")],
         with_numpy, run)
    corpus = str(root / "corpus.dat")
    for name, argv in FIELD_COMMANDS.items():
        _run(argv + ["--corpus", corpus, "--out", str(root / "fields" / name)],
             with_numpy, run)
    inputs = {MULTIGRAPH: root / "multigraph.tsv",
              SCC_MULTIGRAPH: root / "scc-multigraph.tsv"}
    for text, path in inputs.items():
        path.write_text(text, encoding="utf-8")
    for name, (text, command) in MFAS_COMMANDS.items():
        argv = command + ["--graph", str(inputs[text]), "--seed",
                          CLI_SUITE_SEED, "--out", str(root / name)]
        _run(argv, with_numpy, run)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def format_table(digests: dict[str, str]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


def parse_table(text: str) -> dict[str, str]:
    """The digest lines of ``text``, by file name."""
    return {match[2]: match[1] for match in _TABLE_LINE.finditer(text)}


def assert_matches_golden(digests: dict[str, str]) -> None:
    expected = parse_table(GOLDEN.read_text("utf-8"))
    assert sorted(digests) == sorted(expected)
    changed = sorted(name for name in expected if digests[name] != expected[name])
    assert not changed, f"artifacts differ from the golden table: {changed}"


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):
        digests = run_golden_suite(out, "--without-numpy" not in sys.argv[2:])
    sys.stdout.write(format_table(digests))
