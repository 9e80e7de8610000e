"""Guard for the traced benchmark launcher in ``perfbench/``.

The launcher wraps library functions by the names they are bound to in
their calling modules and names each span after the function's defining
module.  A refactor that moves or renames one of them would make traced
runs fail, or silently report zero for a layer metric; these tests catch
that here.  The benchmark files are only imported, never changed.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its siblings
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _span_names() -> set[str]:
    """The span name each binding would record, as the launcher forms it."""
    names = set()
    for module_name, attrs in _load("launch").BINDINGS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            fn = getattr(module, attr, None)
            assert callable(fn), f"{module_name}.{attr} is not bound"
            names.add(f"{fn.__module__.removeprefix('scimap.')}.{fn.__name__}")
    return names


def test_every_binding_resolves():
    assert _span_names()


def test_every_self_timed_span_has_a_binding():
    missing = set(_load("run").SELF_TIMED) - _span_names()
    assert not missing, f"no binding records these spans: {sorted(missing)}"
