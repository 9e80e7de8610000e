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
import json
import os
import re
import subprocess
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


def _traced(tmp_path: Path, argv: list[str]) -> tuple[str, list[dict]]:
    """Run ``perfbench/launch.py`` on ``argv``: its stdout and its spans."""
    trace = tmp_path / f"{argv[0]}.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PERFBENCH.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), str(trace), *argv,
         "--out", str(tmp_path / argv[0])],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = trace.read_text(encoding="utf-8").splitlines()
    return done.stdout, [span for span in map(json.loads, lines) if "name" in span]


def test_traced_launcher_records_the_mfas_counters(tmp_path):
    graph = tmp_path / "tri.txt"
    graph.write_text("a b 2\nb c\nc a\n", encoding="utf-8")

    out, spans = _traced(tmp_path, ["mfas", "--graph", str(graph), "-t", "3",
                                    "--seed", "1"])
    size = int(re.match(r"feedback arc set of size (\d+) after 3 runs", out)[1])
    [solve] = [span for span in spans if span["name"] == "mfas.solve"]
    assert solve["counts"]["best_size"] == size
    runs = [span for span in spans if span["name"] == "mfas.run_once"]
    assert len(runs) == 3
    assert all(span["parent"] == solve["id"] for span in runs)
    assert min(span["counts"]["size"] for span in runs) == size

    out, spans = _traced(tmp_path, ["mfas-calibrate", "--graph", str(graph),
                                    "-t", "3", "--trials", "5", "--seed", "1"])
    [harness] = [span for span in spans if span["name"] == "mfas.calibration_harness"]
    rate = harness["counts"]["per_run_success_rate"]
    assert f"per-run success rate {rate:.4f} " in out
