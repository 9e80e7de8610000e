"""The process entry: ``main()`` without an argument list ends its process.

The ``scimap`` script, ``python -m scimap.cli`` and the benchmark run
``main()`` as the process's own command line; once the command returns,
``main`` flushes stdout and stderr and ends the process with
``os._exit``, skipping the interpreter's teardown.  These tests run it as
``python -c ENTRY ARGV...`` over pipes, with stdout buffered so that
output a missing flush would lose shows: the golden suite must write the
golden bytes, and each case's status, stdout and stderr must be those of
the library call ``main(argv)``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_suite import assert_matches_golden, run_golden_suite
from scimap import ENGINE_VERSION
from scimap.cli import main

HERE = Path(__file__).resolve().parent
SAMPLE = str(HERE / "data" / "sample_export.txt")
ENTRY = "import sys; from scimap.cli import main; sys.exit(main())"


def _env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["COLUMNS"] = "80"
    return env


def entry(argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", ENTRY, *map(str, argv)],
                          env=_env(), text=True, **kwargs)


def test_golden_artifacts_through_the_process_entry(tmp_path):
    def run(argv):
        done = entry(argv, capture_output=True)
        assert done.returncode == 0, done.stderr
        return done.returncode

    digests = run_golden_suite(tmp_path, run=run)
    assert len(digests) == 68
    assert_matches_golden(digests)


def test_ingest_prints_its_line_and_exits_0(tmp_path):
    corpus = tmp_path / "corpus.dat"
    done = entry(["ingest", SAMPLE, "--reference-year", "2023", "-o", corpus],
                 capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, f"corpus: 9 documents (1 screened out) -> {corpus}\n", "")
    assert corpus.exists() and corpus.with_suffix(".screening.csv").exists()


@pytest.mark.parametrize("argv, status, stream, text", [
    (["coverage", "--corpus", "{missing}"], 1, "err",
     "scimap: error: corpus file not found: "),
    # A bad flag after a complete command: the top-level usage names
    # every subcommand.
    (["coverage", "--corpus", "{missing}", "--bogus"], 2, "err",
     "scimap: error: unrecognized arguments: --bogus"),
    (["coverage", "--top-n", "3"], 2, "err", "usage: scimap coverage "),
    (["--help"], 0, "out", "usage: scimap [-h] [--version]"),
    (["--version"], 0, "out", f"scimap {ENGINE_VERSION}\n"),
])
def test_status_and_output_match_the_library_call(tmp_path, capsys, monkeypatch,
                                                  argv, status, stream, text):
    argv = [arg.format(missing=tmp_path / "missing.dat") for arg in argv]
    done = entry(argv, capture_output=True)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == status
    out, err = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (status, out, err)
    assert text in {"out": out, "err": err}[stream]


def test_a_failed_flush_is_left_to_the_interpreter():
    # Nobody reads stdout, so main's flush fails; main then returns, and
    # the interpreter's exit reports the error as it would without the
    # entry's early exit.
    read, write = os.pipe()
    os.close(read)
    try:
        done = entry(["--version"], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert done.returncode == 120
    assert "BrokenPipeError" in done.stderr
