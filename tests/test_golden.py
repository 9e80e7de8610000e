"""Golden artifacts: the suite in ``golden_suite`` must write exactly the
bytes recorded in ``data/golden_artifacts.sha256``, in process, under
``PYTHONHASHSEED`` 0 and 1, and, for the commands that need no numpy,
under every other local CPython from 3.10 to 3.13.  ``golden_suite``
says how to write a fresh table for an intended output change.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden_suite import (
    GOLDEN, assert_matches_golden, format_table, parse_table, run_golden_suite,
)

HERE = Path(__file__).resolve().parent
DRIVER = HERE / "golden_suite.py"


def _driver_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = hash_seed
    return env


def other_pythons() -> list[str]:
    """Each ``python3.10`` to ``python3.13`` on the path that runs, is
    CPython and is not this interpreter's version."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            done = subprocess.run(
                [exe, "-c", "import sys; print(sys.implementation.name, "
                            "*sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode != 0 or done.stdout.split() != ["cpython", "3", str(minor)]:
            continue  # e.g. a version-manager shim with no such version
        if sys.version_info[:2] != (3, minor):
            found.append(exe)
    return found


def test_golden_artifacts(tmp_path):
    digests = run_golden_suite(tmp_path)
    assert len(digests) == 68
    assert_matches_golden(digests)


def test_golden_artifacts_independent_of_hash_seed(tmp_path):
    for seed in ("0", "1"):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        done = subprocess.run([sys.executable, str(DRIVER), str(root)],
                              env=_driver_env(seed), capture_output=True,
                              text=True, check=True)
        # stdout holds the table and nothing else, so it can be redirected
        # to the golden file as it is.
        assert done.stdout == format_table(parse_table(done.stdout))
        assert_matches_golden(parse_table(done.stdout))


def test_golden_artifacts_on_other_pythons(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython 3.10-3.13 on the path")
    expected = parse_table(GOLDEN.read_text("utf-8"))
    for exe in pythons:
        root = tmp_path / Path(exe).name
        root.mkdir()
        done = subprocess.run([exe, str(DRIVER), str(root), "--without-numpy"],
                              env=_driver_env("1"), capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, f"{exe}: {done.stderr[-2000:]}"
        digests = parse_table(done.stdout)
        # The twelve files of the commands that need numpy are left out.
        assert len(digests) == 56, exe
        changed = sorted(name for name, digest in digests.items()
                         if expected.get(name) != digest)
        assert not changed, f"{exe}: artifacts differ from the golden table: {changed}"
