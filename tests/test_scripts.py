"""Smoke tests for the scripts in scripts/: each one runs to exit 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("gap_experiments.py", ["--samples", "5", "--entry-bound", "1"]),
    ("run_harness.py", ["--nmax", "4", "--families", "5", "--out", "{tmp}/harness.json"]),
    ("minor_catalog.py", ["--nmax", "9", "--tmax", "4"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)]
        + [a.format(tmp=tmp_path) for a in args],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
