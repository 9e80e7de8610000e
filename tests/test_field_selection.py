"""Loading only the fields a command reads changes none of its artifacts.

Every command that reads a corpus runs twice on the same file: as
shipped, where it asks the loader for the document fields it reads, and
with its load asking for every field.  The two output trees must be
byte-identical.  The command lines enumerate every choice and switch
that ``build_parser()`` declares, and the sankey pillars take every tag
of the field accessor in each position.  The runs cover two corpora:
the sample export and a small synthetic one from ``perfbench/synth.py``.
In both, each corresponding address lies in the first listed country,
so the sample's copy moves one to the last, where the attribution of a
multi-country document reads it.  A command that reads a field it does not ask for fails here, either by
raising on a None or by writing other bytes.
"""
from __future__ import annotations

import importlib.util
import json
from itertools import product
from pathlib import Path

import pytest

from scimap import cli
from scimap.cli import _commands, build_parser, main
from scimap.normalize import _FIELD_VALUES
from scimap.records import Document

HERE = Path(__file__).resolve().parent
SAMPLE = HERE / "data" / "sample_export.txt"
SYNTH = HERE.parent / "perfbench" / "synth.py"
SYNTH_DOCS = 150

# Options a command requires besides --corpus, and thresholds lowered
# so the small corpora give non-empty tables and graphs.  {lexicon} is
# a term-list file.
EXTRA = {
    "themes": ["--slices", "1995-2009,2010-2023", "--min-cluster-freq", "1",
               "--n-terms", "60"],
    "methods": ["--lexicon", "{lexicon}", "--niches", "{lexicon}",
                "--min-occ", "1"],
    "cooccur": ["--min-occurrence", "2"],
    "cocite": ["--min-citations", "2"],
    "trending": ["--min-freq", "2"],
}


def _variants(name: str, parser) -> list[list[str]]:
    """Every combination of the choices and switches of one command."""
    options = []
    for action in parser._actions:
        flag = max(action.option_strings, key=len, default=None)
        if action.choices is not None and flag:
            options.append([[flag, str(choice)] for choice in action.choices])
        elif action.nargs == 0 and flag not in (None, "--help"):
            options.append([[], [flag]])
    return [[name, *EXTRA.get(name, ()), *(arg for option in chosen
                                           for arg in option)]
            for chosen in product(*options)]


def _sankey_pillars() -> list[list[str]]:
    """Every accessor tag in every pillar: the tags in order, rotated."""
    tags = list(_FIELD_VALUES)
    return [["sankey", "--left", tags[i], "--middle",
             tags[(i + 1) % len(tags)], "--right", tags[(i + 2) % len(tags)]]
            for i in range(len(tags))]


def command_lines() -> list[list[str]]:
    lines = []
    for name, parser in _commands(build_parser()).items():
        dests = {action.dest for action in parser._actions}
        if "corpus" not in dests:
            continue
        required = {max(action.option_strings, key=len)
                    for action in parser._actions
                    if action.required and action.dest != "corpus"}
        assert required <= set(EXTRA.get(name, ())), (name, required)
        lines += _sankey_pillars() if name == "sankey" \
            else _variants(name, parser)
    return lines


COMMAND_LINES = command_lines()


def _synthetic_exports(where: Path) -> list[Path]:
    spec = importlib.util.spec_from_file_location("synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    paths = []
    for index, text in enumerate(synth.wos_exports(7101, SYNTH_DOCS)[:2]):
        path = where / f"export{index}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


@pytest.fixture(scope="module", params=["sample", "synthetic"])
def corpus(request, tmp_path_factory):
    """A corpus file and a term-list file for ``methods``."""
    where = tmp_path_factory.mktemp(request.param)
    if request.param == "sample":
        exports = [where / "sample.txt"]
        exports[0].write_text(SAMPLE.read_text("utf-8").replace(
            "RP Barboza, F (corresponding author), Univ Fed Uberlandia, "
            "Uberlandia, Brazil.",
            "RP Altman, EI (corresponding author), NYU Stern Sch Business, "
            "New York, NY 10012 USA."), encoding="utf-8")
    else:
        exports = _synthetic_exports(where)
    path = where / "corpus.dat"
    assert main(["ingest", *map(str, exports), "--reference-year", "2023",
                 "-o", str(path)]) == 0
    lexicon = where / "terms.json"
    lexicon.write_text(json.dumps({
        "ML": ["machine learning", "neural networks"],
        "credit": ["credit scoring", "bankruptcy prediction"]}))
    return path, lexicon


def _tree(out: Path) -> dict[str, bytes]:
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_every_field_choice_is_enumerated():
    lines = [" ".join(argv) for argv in COMMAND_LINES]
    assert len(lines) == len(set(lines))
    for tag in _FIELD_VALUES:
        for side in ("--left", "--middle", "--right"):
            assert f"{side} {tag}" in " ".join(lines)
    for level in ("author", "institution", "country"):
        assert f"collab --level {level}" in " ".join(lines)
    for field in ("DE", "ID", "title-bigrams", "abstract-bigrams"):
        assert f"--field {field}" in " ".join(lines)


@pytest.mark.parametrize("argv", COMMAND_LINES,
                         ids=[" ".join(argv) for argv in COMMAND_LINES])
def test_loading_only_the_fields_read_changes_no_artifact(corpus, tmp_path,
                                                          monkeypatch, argv):
    path, lexicon = corpus
    argv = [arg.format(lexicon=lexicon) for arg in argv]
    shipped = tmp_path / "shipped"
    assert main([*argv, "--corpus", str(path), "--out", str(shipped)]) == 0
    load = cli._load
    monkeypatch.setattr(cli, "_load",
                        lambda args, fields: load(args, Document._fields))
    every = tmp_path / "every"
    assert main([*argv, "--corpus", str(path), "--out", str(every)]) == 0
    written = _tree(shipped)
    assert written and written == _tree(every)
