"""One subcommand per parse: ``_parse_args`` builds only the subcommand
that ``argv[0]`` names, and every subcommand when it names none.

Both parsers come from ``cli.COMMANDS``.  For each subcommand they must
print the same help and usage, parse each golden-suite command line and
a ``--config`` run to the same ``Namespace``, and report the same errors.
No command, an unknown one, ``--help`` and ``--version`` use the full
parser.  ``data/cli_arguments.json`` pins every argument of the full
parser (flags, destination, default, requirement, arity, choices, type
and help, in declaration order, which is help order) and each
subcommand's handler; after an intended change to the command line,
rewrite it with ``PYTHONPATH=src python tests/test_cli_parser.py``.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from golden_suite import run_golden_suite
from scimap import ENGINE_VERSION, cli
from scimap.cli import main

NAMES = list(cli.COMMANDS)
build_parser = cli.build_parser
PINNED = Path(__file__).resolve().parent / "data" / "cli_arguments.json"


def describe(parser) -> dict:
    """Each argument of ``parser`` and of its subcommands, and each
    subcommand's handler."""
    def arguments(p):
        return [[action.option_strings or [action.dest], action.dest,
                 repr(action.default), action.required, action.nargs,
                 None if action.choices is None else list(action.choices),
                 getattr(action.type, "__name__", None), action.help]
                for action in p._actions]
    return {"scimap": {"arguments": arguments(parser)},
            **{name: {"arguments": arguments(sub),
                      "handler": sub._defaults["handler"].__name__}
               for name, sub in cli._commands(parser).items()}}


def format_description(description: dict) -> str:
    """JSON with one argument a line."""
    parts = []
    for name, entry in description.items():
        lines = ",\n    ".join(json.dumps(argument) for argument in entry["arguments"])
        handler = f',\n  "handler": {json.dumps(entry["handler"])}' \
            if "handler" in entry else ""
        parts.append(f'{json.dumps(name)}: {{\n  "arguments": [\n    {lines}\n  ]{handler}}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def use_the_full_parser(monkeypatch):
    """From here on ``_parse_args`` builds every subcommand, whatever
    ``argv[0]`` names."""
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())


def golden_argvs(root) -> list[list[str]]:
    argvs = []
    run_golden_suite(root, run=lambda argv: argvs.append(argv) or 0)
    return argvs


def test_every_subcommand_is_in_the_table():
    assert len(NAMES) == 22
    assert list(cli._commands(build_parser())) == NAMES


def test_arguments_are_the_pinned_ones():
    description = describe(build_parser())
    assert json.loads(format_description(description)) == description
    assert description == json.loads(PINNED.read_text("utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_help_and_usage_are_the_full_parsers(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    one, full = build_parser(name), build_parser()
    assert list(cli._commands(one)) == [name]
    assert one.format_usage() == full.format_usage()
    assert cli._commands(one)[name].format_help() == \
        cli._commands(full)[name].format_help()


def test_golden_command_lines_parse_alike(tmp_path):
    argvs = golden_argvs(tmp_path)
    assert {argv[0] for argv in argvs} == set(NAMES)
    for argv in argvs:
        assert vars(build_parser(argv[0]).parse_args(argv)) == \
            vars(build_parser().parse_args(argv)), argv


def test_config_run_parses_alike(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min-occurrence": 3, "cluster": True,
                                  "flavor": "dot", "top_n": 4, "seed": 5}))
    argv = ["cooccur", "--corpus", "c.dat", "--config", str(config),
            "--min-occurrence", "4"]
    one = cli._parse_args(argv)
    use_the_full_parser(monkeypatch)
    assert vars(one) == vars(cli._parse_args(argv))
    assert (one.min_occurrence, one.cluster, one.flavor) == (4, True, "dot")


def test_refused_config_value_names_the_file_and_key(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"top-n": 0}))
    argv = ["terms", "--corpus", "c.dat", "--config", str(config)]
    one = _outcome(argv, capsys)
    use_the_full_parser(monkeypatch)
    assert _outcome(argv, capsys) == one
    status, (out, err) = one
    assert status == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"scimap terms: error: {config}: config key 'top-n': "
        "argument --top-n: must be at least 1, got 0")


def _outcome(argv, capsys):
    status = main(argv)
    return status, capsys.readouterr()


@pytest.mark.parametrize("name", NAMES)
def test_errors_and_help_print_alike(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [[name], [name, "-h"], [name, "--bogus"]]
    argvs += [argv + ["--bogus"] for argv in golden_argvs(tmp_path)
              if argv[0] == name]
    one = [_outcome(argv, capsys) for argv in argvs]
    use_the_full_parser(monkeypatch)
    assert [_outcome(argv, capsys) for argv in argvs] == one
    assert all(status in (0, 2) for status, _ in one)


def test_no_command_or_an_unknown_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = build_parser().format_usage()
    assert main([]) == 2
    assert capsys.readouterr().err == (
        usage + "scimap: error: the following arguments are required: command\n")
    assert main(["bogus"]) == 2
    err = capsys.readouterr().err
    prefix = usage + "scimap: error: argument command: invalid choice: 'bogus'"
    assert err.startswith(prefix)
    choices = re.fullmatch(r" \(choose from (.*)\)\n", err[len(prefix):])[1]
    assert [choice.strip("'") for choice in choices.split(", ")] == NAMES


def test_help_and_version(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out == build_parser().format_help()
    assert all(name in out for name in NAMES)
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"scimap {ENGINE_VERSION}\n"


if __name__ == "__main__":
    sys.stdout.write(format_description(describe(build_parser())))
