"""Golden artifacts: the acceptance CLI suite plus one command per field
path and one ``mfas`` run on a multigraph with many topological orders
must write exactly the bytes recorded in ``data/golden_artifacts.sha256``.

The extra commands reach every tag of the field accessor that the
acceptance suite leaves out (keyword and bigram terms, ID co-occurrence,
author and institution collaboration, author h-index, sankey over AU,
SO, CR, ID, CR_SO and CO).  The acceptance suite's triangle leaves a
residual with one valid order; the residual of ``MULTIGRAPH`` has
several, so its ``witness_order`` pins the topological tie rule.
``SCC_MULTIGRAPH`` has three strongly connected components joined by
acyclic bridges and bundles of multiplicity 2 and 3, so its ``mfas`` and
``mfas-calibrate`` runs both decrement bundles in place and split
components when a bundle empties.  The table is in ``sha256sum`` format;
write a fresh one for an intended output change with

    PYTHONPATH=src python tests/test_golden.py DIR > tests/data/golden_artifacts.sha256

which runs the suite under DIR (created when missing), sends the
commands' own output to stderr and prints only the table.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from scimap.cli import main
from test_acceptance import CLI_SUITE_SEED, run_cli_suite

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden_artifacts.sha256"
_TABLE_LINE = re.compile(r"^([0-9a-f]{64})  (.+)$", re.MULTILINE)

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


def run_golden_suite(root: Path) -> dict[str, str]:
    """Run the extended suite under ``root``; relative path -> SHA-256."""
    run_cli_suite(root)
    corpus = str(root / "corpus.dat")
    for name, argv in FIELD_COMMANDS.items():
        full = argv + ["--corpus", corpus, "--out", str(root / "fields" / name)]
        assert main(full) == 0, f"command failed: {full}"
    inputs = {MULTIGRAPH: root / "multigraph.tsv",
              SCC_MULTIGRAPH: root / "scc-multigraph.tsv"}
    for text, path in inputs.items():
        path.write_text(text, encoding="utf-8")
    for name, (text, command) in MFAS_COMMANDS.items():
        argv = command + ["--graph", str(inputs[text]), "--seed",
                          CLI_SUITE_SEED, "--out", str(root / name)]
        assert main(argv) == 0, f"command failed: {argv}"
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


def test_golden_artifacts(tmp_path):
    digests = run_golden_suite(tmp_path)
    assert len(digests) == 66
    assert_matches_golden(digests)


def test_golden_artifacts_independent_of_hash_seed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               str(root)], env=env, capture_output=True,
                              text=True, check=True)
        # stdout holds the table and nothing else, so it can be redirected
        # to the golden file as it is.
        assert done.stdout == format_table(parse_table(done.stdout))
        assert_matches_golden(parse_table(done.stdout))


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):
        digests = run_golden_suite(out)
    sys.stdout.write(format_table(digests))
