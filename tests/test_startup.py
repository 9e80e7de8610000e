"""Start-up cost: numpy loads only when a command clusters, ElementTree
only when a command reads GraphML, ``fractions`` only when a command
computes an exact ratio, ``decimal`` only through ``fractions``,
``statistics`` only when ``mfas-calibrate`` runs, ``dataclasses``
never, and the BibTeX reader's patterns only when a BibTeX export is
read.

Each command runs in a fresh process, so an import that a command does
not use is paid on every command.  This runs, in one new interpreter,
``import scimap.cli`` and then commands that neither cluster nor read
GraphML (``cooccur`` writes it), checking that ``numpy``,
``xml.etree.ElementTree``, ``dataclasses`` and ``inspect`` (which
``dataclasses`` imports) stay out of ``sys.modules``, that
``fractions`` and ``decimal`` stay out until ``stats`` builds a
``Fraction`` (their load there shows the probe sees them), and that
``statistics`` stays out until ``mfas-calibrate`` runs.  Every pattern
compiled is recorded: none of ``parsing``'s BibTeX patterns may be
among them until a BibTeX ``ingest`` runs.  A ``pagerank --graph``
command after them must load ElementTree but not numpy, and a
``walktrap`` command must still import numpy and work without loading
``numpy.ma``.
"""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parent

SCRIPT = textwrap.dedent("""
    import re
    import sys
    from pathlib import Path

    compiled = set()
    compile_pattern = re._compile

    def recording_compile(pattern, flags):
        compiled.add(pattern)
        return compile_pattern(pattern, flags)

    re._compile = recording_compile

    import scimap.cli
    from scimap import parsing

    bibtex_patterns = {parsing._BRACES, parsing._BRACES_OR_COMMA,
                       parsing._SPACE, parsing._SPACE_OR_COMMA,
                       parsing._BARE_TOKEN}

    def run(*argv):
        assert scimap.cli.main(list(argv)) == 0, argv

    def numpy_loaded():
        return "numpy" in sys.modules

    def etree_loaded():
        return "xml.etree.ElementTree" in sys.modules

    def no_dataclasses(step):
        for name in ("dataclasses", "inspect"):
            assert name not in sys.modules, f"{step} loads {name}"

    def no_exact_ratios(step):
        for name in ("fractions", "statistics", "decimal"):
            assert name not in sys.modules, f"{step} loads {name}"

    sample, out = sys.argv[1], Path(sys.argv[2])
    assert not numpy_loaded(), "import scimap.cli"
    assert not etree_loaded(), "import scimap.cli"
    no_dataclasses("import scimap.cli")
    no_exact_ratios("import scimap.cli")
    assert not compiled & bibtex_patterns, "import scimap.cli"
    corpus = str(out / "corpus.dat")
    run("ingest", "--format", "plaintext", sample, "--reference-year", "2023",
        "-o", corpus)
    no_exact_ratios("ingest")
    run("coverage", "--corpus", corpus, "--out", str(out / "coverage"))
    assert not numpy_loaded(), "coverage"
    no_dataclasses("coverage")
    no_exact_ratios("coverage")
    assert not compiled & bibtex_patterns, "plaintext ingest"
    run("ingest", "--format", "bibtex", sys.argv[3], "-o", str(out / "bib.dat"))
    assert bibtex_patterns <= compiled, "bibtex ingest"
    run("cooccur", "--corpus", corpus, "--min-occurrence", "1",
        "--out", str(out / "cooccur"))
    assert not numpy_loaded(), "cooccur without --cluster"
    assert not etree_loaded(), "cooccur"
    no_dataclasses("cooccur")
    no_exact_ratios("cooccur")
    run("stats", "--corpus", corpus, "--out", str(out / "stats"))
    assert {"fractions", "decimal"} <= set(sys.modules), "stats"
    (out / "triangle.tsv").write_text("a b 1\\nb c 1\\nc a 1\\n")
    run("mfas", "--graph", str(out / "triangle.tsv"), "-t", "5", "--seed", "7",
        "--out", str(out / "mfas"))
    assert not numpy_loaded(), "mfas"
    no_dataclasses("mfas")
    assert "statistics" not in sys.modules, "mfas loads statistics"
    run("mfas-calibrate", "--graph", str(out / "triangle.tsv"), "-t", "3",
        "--trials", "2", "--seed", "7", "--out", str(out / "calibrate"))
    assert "statistics" in sys.modules, "mfas-calibrate"
    assert not numpy_loaded(), "mfas-calibrate"
    run("pagerank", "--graph", str(out / "cooccur" / "cooccurrence.graphml"),
        "--out", str(out / "pagerank"))
    assert etree_loaded(), "pagerank --graph"
    assert not numpy_loaded(), "pagerank"
    run("walktrap", "--graph", str(out / "cooccur" / "cooccurrence.graphml"),
        "--out", str(out / "walktrap"))
    assert numpy_loaded(), "walktrap"
    assert "numpy.ma" not in sys.modules, "walktrap loads numpy.ma"
    print("ok")
""")


def test_numpy_loads_only_for_clustering(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(HERE / "data" / "sample_export.txt"),
         str(tmp_path), str(HERE / "data" / "sample_export.bib")], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
    assert list(tmp_path.glob("walktrap/*"))
