"""Seeded mutations of every input file a command reads, run in process
through ``main(argv)``.

Each input kind starts from a valid file, and each run makes one to four
edits to it: byte deletes, inserts and replacements, a duplicated line,
two lines swapped, a truncation, and for GraphML the deletion of one
``id``, ``source`` or ``target`` attribute.  Every run must exit 0 or 1,
never raise.  On exit 1, stderr is one line starting ``scimap: error:``
that names the mutated file at most once, and the output directory holds
no file: no command writes an artifact before it fails.

A ``--config`` value that its flag refuses is a usage error, so a config
run may also exit 2, with argparse's usage text.

The cases at the end pin the one form of an input error,
``scimap: error: PATH: POSITION: WHAT``, for each reader.
"""
from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from scimap.cli import main
from scimap.graphio import write_graph
from scimap.graphs import Graph, GraphNode

DATA = Path(__file__).parent / "data"
SAMPLE = DATA / "sample_export.txt"
SAMPLE_BIB = DATA / "sample_export.bib"

# Bytes an insert or a replacement draws from: the syntax of every input
# kind, digits, a newline, and two bytes that break UTF-8.
ALPHABET = b'{}[]"\',:=<>/\\@#\n\t -.0123456789aeERTUxyz\xff\xc3'
ATTRIBUTE = re.compile(rb' (?:id|source|target)="[^"]*"')
MUTATIONS_PER_KIND = 300


def _graph() -> Graph:
    """Eight nodes, the last one without an edge."""
    ids = [f"n{i}" for i in range(8)]
    nodes = [GraphNode(id=x, label=f"label {x}", weight=float(i + 1),
                       cluster=i % 2) for i, x in enumerate(ids)]
    edges = [(ids[i], ids[j], float(1 + (i * j) % 3))
             for i in range(7) for j in range(i + 1, 7) if (i + 2 * j) % 3]
    return Graph(nodes=nodes, edges=edges)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid bytes of each input kind, and the valid files the
    commands read beside the mutated one."""
    base = tmp_path_factory.mktemp("inputs")
    corpus = base / "corpus.dat"
    assert main(["ingest", str(SAMPLE), "--reference-year", "2023",
                 "-o", str(corpus)]) == 0
    graphml = write_graph(_graph(), base / "graph.graphml", "graphml", {"x": 1})
    dot = write_graph(_graph(), base / "graph.dot", "dot", {"x": 1})
    lexicon = base / "lexicon.json"
    lexicon.write_text(json.dumps({"ML": ["machine learning", "neural network"],
                                   "Stats": ["logistic regression"]}))
    niches = base / "niches.json"
    niches.write_text(json.dumps({"credit": ["credit scoring"],
                                  "risk": ["bankruptcy prediction"]}))
    return {
        "plaintext": SAMPLE.read_bytes(),
        "bibtex": SAMPLE_BIB.read_bytes(),
        "corpus": corpus.read_bytes(),
        "graphml": graphml.read_bytes(),
        "dot": dot.read_bytes(),
        "multigraph": b"# bundles\na b 3\nb c 1\nc a 2\nc d 1\nd b 2\n",
        "table": b"year,metric\n2000,1.5\n2001,3\n# note\n2002,0.25\n",
        "config": json.dumps({"top-n": 5, "field": "DE"}).encode(),
        "retracted": b"sample_export.txt:1\n10.1002/for.3000\n",
        "lexicon": lexicon.read_bytes(),
        "niches": niches.read_bytes(),
    }, {"corpus": corpus, "lexicon": lexicon, "niches": niches}


# Input kind -> (file name, argument lists).  {file} is the mutated file,
# {out} the output directory, and {corpus}, {lexicon} and {niches} are
# valid files.
CASES = {
    "plaintext": ("export.txt", [
        ["ingest", "{file}", "--reference-year", "2023", "-o", "{out}/c.dat"]]),
    "bibtex": ("export.bib", [
        ["ingest", "--format", "bibtex", "{file}", "--reference-year", "2023",
         "-o", "{out}/c.dat"]]),
    "corpus": ("corpus.dat", [
        ["coverage", "--corpus", "{file}", "--out", "{out}"],
        ["stats", "--corpus", "{file}", "--out", "{out}"],
        ["cocite", "--corpus", "{file}", "--min-citations", "1", "--out", "{out}"],
        ["historiograph", "--corpus", "{file}", "--out", "{out}"]]),
    "graphml": ("graph.graphml", [
        ["pagerank", "--graph", "{file}", "--out", "{out}"],
        ["walktrap", "--graph", "{file}", "--out", "{out}"],
        ["betweenness", "--graph", "{file}", "--out", "{out}"]]),
    "dot": ("graph.dot", [
        ["pagerank", "--graph", "{file}", "--out", "{out}"],
        ["walktrap", "--graph", "{file}", "--out", "{out}"],
        ["betweenness", "--graph", "{file}", "--out", "{out}"]]),
    "multigraph": ("bundles.tsv", [
        ["mfas", "--graph", "{file}", "-t", "3", "--seed", "1", "--out", "{out}"]]),
    "table": ("metrics.csv", [
        ["amortize", "--table", "{file}", "--out", "{out}"]]),
    "config": ("config.json", [
        ["terms", "--corpus", "{corpus}", "--config", "{file}", "--out", "{out}"]]),
    "retracted": ("retracted.txt", [
        ["ingest", str(SAMPLE), "--retracted", "{file}", "--reference-year",
         "2023", "-o", "{out}/c.dat"]]),
    "lexicon": ("lexicon.json", [
        ["methods", "--corpus", "{corpus}", "--lexicon", "{file}",
         "--niches", "{niches}", "--out", "{out}"]]),
    "niches": ("niches.json", [
        ["methods", "--corpus", "{corpus}", "--lexicon", "{lexicon}",
         "--niches", "{file}", "--out", "{out}"]]),
}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one to four seeded edits."""
    for _ in range(rng.randint(1, 4)):
        edit = rng.choice(["delete", "insert", "replace", "duplicate", "swap",
                           "truncate"])
        at = rng.randrange(len(data) + 1)
        size = rng.randint(1, 8)
        lines = data.splitlines(keepends=True)
        if edit == "delete":
            data = data[:at] + data[at + size:]
        elif edit == "insert":
            data = data[:at] + bytes(rng.choices(ALPHABET, k=size)) + data[at:]
        elif edit == "replace":
            data = data[:at] + bytes(rng.choices(ALPHABET, k=size)) + data[at + size:]
        elif edit == "duplicate" and lines:
            line = rng.randrange(len(lines))
            lines.insert(line, lines[line])
            data = b"".join(lines)
        elif edit == "swap" and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
            data = b"".join(lines)
        elif edit == "truncate":
            data = data[:at]
    return data


def variants(kind: str, data: bytes):
    """The mutated files of one input kind: for GraphML first each file
    that lacks one ``id``, ``source`` or ``target`` attribute, then the
    seeded byte and line edits."""
    if kind == "graphml":
        for match in ATTRIBUTE.finditer(data):
            yield data[:match.start()] + data[match.end():]
    rng = random.Random(f"scimap-mutations-{kind}")
    for _ in range(MUTATIONS_PER_KIND):
        yield mutate(data, rng)


def _written(out: Path) -> list[Path]:
    return sorted(path for path in out.rglob("*") if path.is_file()) \
        if out.exists() else []


@pytest.mark.parametrize("kind", sorted(CASES))
def test_mutated_input_exits_0_or_1_with_one_error_line(inputs, tmp_path,
                                                        capsys, kind):
    name, argvs = CASES[kind]
    mutated = tmp_path / "mutated" / name
    mutated.parent.mkdir()
    data, valid = inputs
    out = tmp_path / "out"
    for run, variant in enumerate(variants(kind, data[kind])):
        mutated.write_bytes(variant)
        argv = [arg.format(file=mutated, out=out, **valid)
                for arg in argvs[run % len(argvs)]]
        context = f"{kind} run {run}: {argv}"
        try:
            status = main(argv)
        except Exception as exc:  # noqa: BLE001 - the failure under test
            pytest.fail(f"{context} raised {exc!r}")
        err = capsys.readouterr().err
        if status == 1:
            assert err.startswith("scimap: error: "), context
            assert err.count("\n") == 1 and err.endswith("\n"), (context, err)
            assert err.count(str(mutated)) <= 1, (context, err)
            assert _written(out) == [], (context, err)
        elif status == 2 and kind == "config":
            assert err.splitlines()[-1].startswith("scimap terms: error: "), \
                (context, err)
        else:
            assert status == 0, (context, status, err)
        shutil.rmtree(out, ignore_errors=True)


UNTERMINATED = "\n".join(SAMPLE.read_text("utf-8").rsplit("\nER\n", 1))
BAD_AUTHOR = SAMPLE.read_text("utf-8").replace("AU Shin, KS\n", "AU 123\n")
# Each input kind's first argument list.
ARGS = {kind: argvs[0] for kind, (_, argvs) in CASES.items()}


# (argument list, file name, file content, the error after "PATH: ").
FORMS = [
    (ARGS["plaintext"], "unterm.txt", UNTERMINATED.encode(),
     "record 10: unterminated record (missing ER)"),
    (ARGS["plaintext"], "stray.txt", b"FN Clarivate\nER\n",
     "record 1, line 2: record terminator without record"),
    (ARGS["plaintext"], "badutf.txt", b"FN abcdef\n\xff\n",
     "byte 10: input is not valid UTF-8: invalid start byte"),
    (ARGS["plaintext"], "badau.txt", BAD_AUTHOR.encode(),
     "record 3: no surname in author name: '123'"),
    (ARGS["bibtex"], "open.bib", b"@article{k, title = {x}\n",
     "record 1, byte 8: unbalanced braces"),
    (ARGS["retracted"], "retracted.txt", b"\xff\n",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (ARGS["table"], "table.csv", b"year,metric\n2000,x\n",
     "line 2: expected an integer year and a finite number, got '2000,x'"),
    (ARGS["corpus"], "corpus.dat", b"not json\n", "not a corpus file"),
    (ARGS["config"], "config.json", b"[]", "expected a JSON object"),
    (ARGS["lexicon"], "lexicon.json", b'{"ML": "machine learning"}',
     "'ML' must map to a list of strings"),
    (ARGS["dot"], "graph.dot", b"strict graph G {\n}\n", "not a DOT graph"),
    (ARGS["graphml"], "graph.graphml", b"<graphml", "not well-formed GraphML: "),
    (["walktrap", "--graph", "{file}", "--out", "{out}"], "weights.dot",
     b'graph G {\n  "a" [weight=1.0];\n  "b" [weight=1.0];\n'
     b'  "a" -- "b" [weight=nan];\n}\n',
     "edge weight nan on 'a'-'b' is not positive and finite"),
]
# Positive weights at the ends of the float range: walktrap needs each
# n / degree and the total weight to be finite floats.
FORMS += [
    (["walktrap", "--graph", "{file}", "--out", "{out}"], f"w{weight}.dot",
     b'graph G {\n  "a" [weight=1.0];\n  "b" [weight=1.0];\n  "c" [weight=1.0];\n'
     b'  "a" -- "b" [weight=%s];\n  "b" -- "c" [weight=1.0];\n}\n' % weight.encode(),
     f"node 'a': weighted degree {degree} is too {side} for walktrap: {why}")
    for weight, degree, side, why in [
        ("1e-320", "1e-320", "small", "3 / degree overflows a float"),
        ("5e-324", "5e-324", "small", "3 / degree overflows a float"),
        ("1e308", "1e+308", "large", "the total edge weight overflows a float")]]


@pytest.mark.parametrize("argv, name, content, error", FORMS,
                         ids=[form[1] for form in FORMS])
def test_input_error_reads_path_position_what(inputs, tmp_path, capsys,
                                              argv, name, content, error):
    (tmp_path / "d").mkdir()
    path = tmp_path / "d" / ".." / name  # the path as given, not resolved
    path.write_bytes(content)
    out = tmp_path / "out"
    assert main([arg.format(file=path, out=out, **inputs[1]) for arg in argv]) == 1
    err = capsys.readouterr().err
    expected = f"scimap: error: {path}: {error}"
    if error.endswith(": "):  # the rest is ElementTree's own text
        assert err.startswith(expected) and err.count("\n") == 1, err
    else:
        assert err == expected + "\n"
    assert _written(out) == []


def test_a_path_inside_the_message_is_still_named(tmp_path, capsys, monkeypatch):
    # "a" occurs in "invalid literal"; the file is named all the same.
    monkeypatch.chdir(tmp_path)
    Path("a").write_text("a b x\n")
    assert main(["mfas", "--graph", "a", "--seed", "1"]) == 1
    assert capsys.readouterr().err == (
        "scimap: error: a: line 1: invalid literal for int() with base 10: 'x'\n")
    assert not Path("mfas_solution.csv").exists()
