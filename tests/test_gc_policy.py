"""The cyclic garbage collector makes no full collection while a
command runs.

``cli.main`` sets the third generation's threshold out of reach around
parsing and the handler and restores the caller's thresholds on return,
on success and on error alike.  Young collections still run.  Garbage
that survives into the old generation then stays until the command
returns, which is safe only while a command leaves a fixed amount of it,
whatever the corpus size; the last test runs five commands on two
synthetic corpora, each in a fresh interpreter, and requires the
``gc.collect()`` count after each command not to grow with the corpus.
"""
from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from scimap import cli

HERE = Path(__file__).resolve().parent
SAMPLE = str(HERE / "data" / "sample_export.txt")


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.dat"
    assert cli.main(["ingest", SAMPLE, "--reference-year", "2023",
                     "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def gc_restored():
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    (gc.enable if enabled else gc.disable)()
    gc.set_threshold(*thresholds)


def full_collections() -> int:
    return gc.get_stats()[2]["collections"]


def test_no_full_collection_in_the_handler(corpus_file, tmp_path, monkeypatch,
                                           gc_restored):
    seen = []
    report = cli.coverage_report

    def probe(corpus):
        # 300,000 long-lived containers: with the default thresholds
        # they set off full collections.
        before = full_collections()
        held = [[] for _ in range(300_000)]
        seen.append((full_collections() - before, gc.isenabled(), len(held)))
        return report(corpus)

    monkeypatch.setattr(cli, "coverage_report", probe)
    gc.enable()
    gc.set_threshold(700, 10, 10)
    assert cli.main(["coverage", "--corpus", corpus_file,
                     "--out", str(tmp_path / "on")]) == 0
    assert seen == [(0, True, 300_000)]
    assert gc.isenabled() and gc.get_threshold() == (700, 10, 10)
    # A caller that turned the collector off keeps it off.
    gc.disable()
    gc.set_threshold(500, 5, 5)
    assert cli.main(["coverage", "--corpus", corpus_file,
                     "--out", str(tmp_path / "off")]) == 0
    assert not gc.isenabled() and gc.get_threshold() == (500, 5, 5)


@pytest.mark.parametrize("argv", [["coverage", "--corpus", "missing.dat"],
                                  ["no-such-command"]])
def test_thresholds_restored_after_a_failed_command(argv, gc_restored):
    gc.set_threshold(700, 10, 10)
    assert cli.main(argv) in (1, 2)
    assert gc.get_threshold() == (700, 10, 10)


SCRIPT = textwrap.dedent("""
    import gc, json, sys
    from pathlib import Path

    sys.path.insert(0, sys.argv[3])
    import synth
    from scimap.cli import main

    n_docs, out = int(sys.argv[1]), Path(sys.argv[2])
    first, second, _ = synth.wos_exports(7101, n_docs)
    (out / "e1.txt").write_text(first, encoding="utf-8")
    (out / "e2.txt").write_text(second, encoding="utf-8")
    (out / "triangle.tsv").write_text("a b 1\\nb c 1\\nc a 1\\n")
    corpus = str(out / "corpus.dat")
    commands = [
        ["ingest", str(out / "e1.txt"), str(out / "e2.txt"),
         "--reference-year", "2023", "-o", corpus],
        ["stats", "--corpus", corpus],
        ["cocite", "--corpus", corpus, "--min-citations", "3", "--cluster"],
        ["themes", "--corpus", corpus, "--slices", "1995-2014,2015-2023",
         "--n-terms", "100"],
        ["mfas", "--graph", str(out / "triangle.tsv"), "-t", "5",
         "--seed", "3"],
    ]
    gc.collect()
    counts = []
    for index, argv in enumerate(commands):
        if argv[0] != "ingest":
            argv += ["--out", str(out / str(index))]
        assert main(argv) == 0, argv
        counts.append(gc.collect())
    print(json.dumps(counts))
""")


def test_cyclic_garbage_does_not_grow_with_the_corpus(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    counts = []
    for n_docs in (100, 400):
        out = tmp_path / str(n_docs)
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(n_docs), str(out),
             str(HERE.parent / "perfbench")],
            env=env, capture_output=True, text=True, check=True)
        counts.append(json.loads(done.stdout.splitlines()[-1]))
    assert len(counts[0]) == len(counts[1]) == 5
    # Whether a young collection has freed the parser (about 720 objects)
    # before a command returns depends on how much the command allocates,
    # so the larger corpus may leave less; garbage kept per document
    # would leave hundreds more.
    for small, large in zip(*counts):
        assert large <= small + 20, counts
