"""numpy is the only runtime dependency.

Every module under ``src/scimap`` may import the standard library,
``numpy`` and ``scimap`` itself, and nothing else; test-only packages
(networkx, scipy, hypothesis) must stay out of the program.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scimap"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scimap"}
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_modules_are_found():
    assert PACKAGE / "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_numpy_and_scimap(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    outside = [f"line {lineno}: {root}" for lineno, root in imported_roots(tree)
               if root not in ALLOWED]
    assert not outside, f"{module.name} imports {', '.join(outside)}"


def scimap_imports(tree: ast.AST):
    """What a module takes from scimap: the module of each ``from .mod``
    import, or the names of each ``from . import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "scimap":
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names
                        if alias.name.split(".")[0] == "scimap")


# Leaf modules take nothing from scimap; graph I/O knows the graph type
# and the artifact header, not how clusters are found, and the header
# knows only the engine version.  New modules go at the end, so the ids
# of the existing cases stay as they are.
LAYERS = {"digraph.py": set(), "graphio.py": {"graphs", "tables"},
          "records.py": set(), "textterms.py": set(), "amortize.py": set(),
          "tables.py": {"ENGINE_VERSION"}}


@pytest.mark.parametrize("name, allowed", LAYERS.items())
def test_low_layers_import_only_what_they_may_of_scimap(name, allowed):
    module = PACKAGE / name
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    assert set(scimap_imports(tree)) <= allowed
