#!/usr/bin/env python3
"""Benchmark the working tree against a base commit and write BENCH_<sha>.json.

    python3 scripts/bench_record.py [--base HEAD]

The base commit is extracted with `git archive` into a temporary directory,
and each side runs BENCHMARK.json's `command` in its own checkout.  Every
workload in BENCHMARK.json is run for its run_seconds, in ten pairs of
runs: the number a claimed gain is judged on.  Pair i runs the workload
once per side at seed i, base first when i is odd and the working tree
first when i is even, so a slow stretch of the machine falls on both sides.
The file records, per workload and end-to-end metric (from BENCHMARK.json),
each side's median and quartiles, the change of the medians, and the number
of pairs the working tree won; then the per-layer split: three traced runs
(`--trace 1`) per side at seeds 1-3, in the same alternating order, with
each layer's median and its three values (one traced run's raw times move
too much to show a change).  The file is named after the base commit: it
measures the change on top of that commit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACED_SEEDS = (1, 2, 3)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per-metric comparison of paired runs.

    `pairs` holds one (base, head) pair of {metric: value} dicts per pair of
    runs; `metrics` holds BENCHMARK.json's end-to-end entries (name, better).
    A pair is a win when the head's value is strictly better.  `clear` says
    whether the head won at least nine in ten pairs and its median moved by
    more than the spread between the base's quartiles.
    """
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [b[name] for b, _h in pairs]
        head = [h[name] for _b, h in pairs]
        bq1, bmed, bq3 = _quartiles(base)
        hq1, hmed, hq3 = _quartiles(head)
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        gain = (bmed - hmed) if lower else (hmed - bmed)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3, "values": base},
            "head": {"median": hmed, "q1": hq1, "q3": hq3, "values": head},
            "change": (hmed - bmed) / bmed if bmed else 0.0,
            "wins": wins,
            "pairs": len(pairs),
            "clear": 10 * wins >= 9 * len(pairs) and gain > bq3 - bq1,
        }
    return out


def layer_medians(runs: list[dict]) -> dict:
    """Per metric of the first run, the median over `runs` (one
    {metric: value} dict per run) and the values in run order."""
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        out[name] = {"median": statistics.median(values), "values": values}
    return out


def _order(i: int) -> tuple[str, str]:
    """The sides of pair or traced run i: base first when i is odd."""
    return ("base", "head") if i % 2 else ("head", "base")


def run_bench(command: list[str], root: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One run of the benchmark's `command` in `root`; returns its JSON
    result line."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {workload} seed {seed}: {result['failed']} failed")
    return result


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="commit to measure against")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sha = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    out = os.path.join(ROOT, f"BENCH_{sha[:7]}.json")

    record = {"base": sha, "head": "working tree on top of base", "pairs": PAIRS,
              "seconds": seconds, "python": sys.version.split()[0], "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_root:
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_root)
        sides = {"base": base_root, "head": ROOT}
        for w in workloads:
            pairs = []
            for i in range(1, PAIRS + 1):
                got = {side: _values(run_bench(command, sides[side], w, i, seconds, 0))
                       for side in _order(i)}
                pairs.append((got["base"], got["head"]))
                print(f"{w} pair {i}: wall_s {got['base']['wall_s']:.3f} -> "
                      f"{got['head']['wall_s']:.3f}", flush=True)
            traced = {"base": [], "head": []}
            for i in TRACED_SEEDS:
                for side in _order(i):
                    traced[side].append(_values(run_bench(command, sides[side], w, i, seconds, 1)))
            record["workloads"][w] = {
                "end_to_end": summarize(pairs, bench["end_to_end"]),
                "traced": {side: layer_medians(runs) for side, runs in traced.items()},
            }
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, rec in record["workloads"].items():
        for name, s in rec["end_to_end"].items():
            print(f"{w:9s} {name:12s} {s['base']['median']:10.4g} -> "
                  f"{s['head']['median']:10.4g} {s['unit']:3s} ({s['change']:+.1%}, "
                  f"{s['wins']}/{s['pairs']} wins{', clear' if s['clear'] else ''})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
