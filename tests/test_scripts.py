"""Smoke tests for the scripts in scripts/: each one runs to exit 0 (the
benchmark recorder, which needs minutes, has its summary and per-layer
medians checked instead, and its runs' argv with the runs stubbed)."""

import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("minor_catalog.py", ["--nmax", "9", "--tmax", "4"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)] + args,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def _load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_summary():
    summarize = _load_bench_record().summarize
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "hits", "unit": "count", "better": "higher"}]
    base = [2.0, 2.1, 1.9, 2.0, 2.2, 2.0, 1.8, 2.1, 2.0, 1.9]
    head = [1.0, 1.1, 0.9, 1.0, 2.3, 1.0, 0.8, 1.1, 1.0, 0.9]
    pairs = [({"wall_s": b, "hits": 5}, {"wall_s": h, "hits": 5 + (i < 3)})
             for i, (b, h) in enumerate(zip(base, head))]
    out = summarize(pairs, metrics)
    wall = out["wall_s"]
    assert wall["base"]["median"] == 2.0 and wall["head"]["median"] == 1.0
    assert wall["base"]["values"] == base and wall["pairs"] == 10
    assert wall["base"]["q1"] == 1.9 and wall["base"]["q3"] == 2.1
    assert wall["change"] == -0.5
    # the head lost one pair (2.2 -> 2.3): nine wins in ten still count
    assert wall["wins"] == 9 and wall["clear"]
    hits = out["hits"]
    assert hits["wins"] == 3 and hits["change"] == 0.0 and not hits["clear"]


def test_bench_record_summary_needs_gain_beyond_spread():
    summarize = _load_bench_record().summarize
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    # the head wins every pair by a hair, less than the base's quartile spread
    base = [1.0, 1.5, 2.0, 2.5]
    pairs = [({"wall_s": b}, {"wall_s": b - 0.01}) for b in base]
    wall = summarize(pairs, metrics)["wall_s"]
    assert wall["wins"] == 4 and not wall["clear"]
    # a single pair has no spread: its quartiles are the value itself
    one = summarize([({"wall_s": 2.0}, {"wall_s": 1.0})], metrics)["wall_s"]
    assert one["base"]["q1"] == one["base"]["q3"] == 2.0 and one["clear"]


def test_bench_record_layer_medians():
    layer_medians = _load_bench_record().layer_medians
    runs = [{"duality.fold_s": 0.166, "packing.konig_evals": 10},
            {"duality.fold_s": 0.128, "packing.konig_evals": 12},
            {"duality.fold_s": 0.131, "packing.konig_evals": 11}]
    out = layer_medians(runs)
    # the median of three raw runs, with the values in run order
    assert out["duality.fold_s"] == {"median": 0.131, "values": [0.166, 0.128, 0.131]}
    assert out["packing.konig_evals"] == {"median": 11, "values": [10, 12, 11]}
    assert layer_medians(runs[:1])["duality.fold_s"]["median"] == 0.166



def test_bench_record_runs_the_benchmark_command(monkeypatch, tmp_path):
    # every run is BENCHMARK.json's own command, in the side's checkout: the
    # base's extracted tree or the working tree
    module = _load_bench_record()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bench["workloads"] = bench["workloads"][:1]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    empty = io.BytesIO()
    tarfile.open(fileobj=empty, mode="w").close()
    metrics = {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}
    runs = []

    def fake_run(argv, **kwargs):
        if argv[0] == "git":
            out = "f" * 40 + "\n" if argv[1] == "rev-parse" else empty.getvalue()
            return subprocess.CompletedProcess(argv, 0, stdout=out)
        runs.append((argv, kwargs["cwd"]))
        line = json.dumps({"correct": True, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, stdout=f"progress\n{line}\n", stderr="")

    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    assert module.main([]) == 0
    assert (tmp_path / f"BENCH_{'f' * 7}.json").exists()
    workload = bench["workloads"][0]["name"]
    seconds = str(bench["run_seconds"])
    assert len(runs) == 2 * (module.PAIRS + len(module.TRACED_SEEDS))
    base = [cwd for _argv, cwd in runs if cwd != str(tmp_path)]
    assert len(base) == len(runs) // 2
    assert all(os.path.basename(cwd).startswith("bench-base-") for cwd in base)
    for argv, _cwd in runs:
        n = len(bench["command"])
        assert argv[:n] == bench["command"], argv
        assert argv[n:n + 2] == ["--workload", workload]
        assert argv[n + 4:n + 6] == ["--seconds", seconds]
