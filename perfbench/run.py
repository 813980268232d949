#!/usr/bin/env python3
"""coverpack benchmark: one workload per run, one process, no extra threads.

    python3 perfbench/run.py --workload harness --seed 1 --seconds 32 --trace 0

--trace 0 measures the end-to-end metrics: set-up is repeated and its median
taken, then untraced passes over the workload's fixed task list run for up
to --seconds of measuring time (at least one pass), and the medians are
reported.  Every time in the JSON line (wall_s, cpu_s, setup_s) is
rescaled to a steady machine speed by a calibration kernel timed after each
0.2 s slice of the timed work (calibrate.py); the summary also prints the
raw times as raw_wall_s, raw_cpu_s and raw_setup_s.
--trace 1 runs one untraced pass and two traced passes at the same seed,
fails if any count differs between the traced passes, and reports the
per-layer metrics (self times averaged over the two traced passes).

Every pass's outputs are checked against independent references outside
the timed region.  A human-readable summary goes to stdout first; the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 5

# per-layer metrics, each (metric, span name): the span's self time, or
# its number of calls; COUNTS are tallied by the tracer's count hooks
SELF_TIMES = [
    ("ideals.minimalize_s", "ideals.minimalize"),
    ("duality.symbolic_power_self_s", "duality.symbolic_power"),
    ("duality.minimal_primes_s", "duality.minimal_primes"),
    ("duality.simis_check_self_s", "duality.simis_check"),
    ("ideals.member_power_s", "ideals.member_power"),
    ("packing.is_packed_self_s", "packing.is_packed"),
    ("ideals.min_cover_s", "ideals.min_cover"),
    ("duality.alexander_dual_s", "duality.alexander_dual"),
    ("tconn.cover_ideal_self_s", "tconn.cover_ideal"),
    ("tconn.t_connected_ideal_s", "tconn.t_connected_ideal"),
    ("graphs.connected_subsets_s", "graphs.connected_subsets"),
    ("lpdual.gap_search_self_s", "lpdual.gap_search"),
    ("lpdual.nu_s", "lpdual.nu"),
    ("lpdual.tau_s", "lpdual.tau"),
    ("lpdual.cover_matrix_s", "lpdual.cover_matrix"),
    ("classify.check_instance_self_s", "classify.check_instance"),
    ("classify.verify_theorem_self_s", "classify.verify_theorem"),
    ("cli.main_self_s", "cli.main"),
    ("cli.emit_report_s", "cli.emit_report"),
]
CALLS = [
    ("ideals.minimalize_calls", "ideals.minimalize"),
    ("duality.symbolic_power_calls", "duality.symbolic_power"),
    ("duality.minimal_primes_calls", "duality.minimal_primes"),
    ("ideals.member_power_calls", "ideals.member_power"),
    ("ideals.min_cover_calls", "ideals.min_cover"),
    ("lpdual.nu_calls", "lpdual.nu"),
    ("lpdual.tau_calls", "lpdual.tau"),
]
COUNTS = ["ideals.minimalize_in", "duality.symbolic_gens_out", "packing.minors_scanned",
          "duality.dual_gens_out", "lpdual.alpha_scanned", "classify.rows",
          "cli.report_bytes"]


def load():
    """Import the workloads, and with them coverpack from this checkout's
    sources; None when the sources are missing."""
    if not os.path.isdir(os.path.join(SRC, "coverpack")):
        print(f"perfbench: no coverpack sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, SRC)
    import workloads
    return workloads


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def reset_library_caches():
    """Empty coverpack's module-level caches (lru_caches and dicts named
    *_CACHE), so every pass starts from the state of a fresh process."""
    for modname, mod in list(sys.modules.items()):
        if modname != "coverpack" and not modname.startswith("coverpack."):
            continue
        for attr, val in list(vars(mod).items()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
            elif isinstance(val, dict) and attr.upper().endswith("_CACHE"):
                val.clear()


def run_pass(workload, inputs, tracer=None, clock=None):
    """One pass over the task list; returns (wall, cpu, attempted, failures).
    With a calibrate.SliceClock, the pass is timed by that clock instead."""
    args = workload.prepare(inputs)
    reset_library_caches()
    gc.collect()
    if clock is not None:
        with clock:
            out = workload.execute(args)
        wall, cpu = clock.wall, clock.cpu
    elif tracer is None:
        c0, t0 = process_time(), perf_counter()
        out = workload.execute(args)
        wall, cpu = perf_counter() - t0, process_time() - c0
    else:
        with tracer.installed():
            c0, t0 = process_time(), perf_counter()
            out = workload.execute(args)
            wall, cpu = perf_counter() - t0, process_time() - c0
    attempted, failures = workload.check(inputs, out)
    return wall, cpu, attempted, failures


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts
    m = {name: self_s.get(span, 0.0) for name, span in SELF_TIMES}
    m.update({name: calls.get(span, 0) for name, span in CALLS})
    m.update({name: counts.get(name, 0) for name in COUNTS})
    m["ideals.minimalize_kept_ratio"] = _ratio(counts["ideals.minimalize_out"],
                                               counts["ideals.minimalize_in"])
    m["ideals.member_power_hit_ratio"] = _ratio(counts["ideals.member_power_hits"],
                                                m["ideals.member_power_calls"])
    m["packing.konig_evals"] = tracer.calls_under("ideals.min_cover", "packing.is_packed")
    m["packing.konig_per_minor"] = _ratio(m["packing.konig_evals"],
                                          m["packing.minors_scanned"])
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - tracer.top_level_time()
    return m


def is_time(name: str) -> bool:
    return name.endswith("_s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # setup_s, part 1: importing coverpack (and the benchmark, which is small)
    with calibrate.SliceClock() as import_clock:
        workloads = load()
    if workloads is None:
        return 2
    import spans

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    attempted = 0
    failures: list[str] = []

    def tally(result):
        nonlocal attempted
        attempted += result[2]
        failures.extend(result[3])
        return result

    if args.trace == 0:
        setups = []
        for _ in range(SETUP_REPEATS):
            with calibrate.SliceClock() as clock:
                inputs = w.setup(args.seed)
            setups.append(clock)
        clocks = []
        # another pass only while it should still end within --seconds
        spent = []
        while not spent or sum(spent) + statistics.median(spent) <= args.seconds:
            clock = calibrate.SliceClock()
            tally(run_pass(w, inputs, clock=clock))
            clocks.append(clock)
            spent.append(clock.wall + clock.kernel_s)
        if not all(c.kernel_ok for c in [import_clock, *setups, *clocks]):
            print("perfbench: the calibration kernel returned a wrong result",
                  file=sys.stderr)
            return 3
        metrics = {
            "wall_s": (statistics.median(c.scaled_wall for c in clocks), "s"),
            "cpu_s": (statistics.median(c.scaled_cpu for c in clocks), "s"),
            "setup_s": (import_clock.scaled_wall
                        + statistics.median(c.scaled_wall for c in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        shown = dict(metrics,
                     raw_wall_s=(statistics.median(c.wall for c in clocks), "s"),
                     raw_cpu_s=(statistics.median(c.cpu for c in clocks), "s"),
                     raw_setup_s=(import_clock.wall
                                  + statistics.median(c.wall for c in setups), "s"),
                     kernel_ms=(1000 * statistics.median(
                         k for c in clocks for _w, _c, k, _kc in c.slices), "ms"),
                     failed_share=(_ratio(len(failures), attempted), "share"))
        print(f"{w.name} seed={args.seed}: {len(clocks)} passes, {SETUP_REPEATS} set-ups, "
              f"{sum(len(c.slices) for c in clocks)} slices")
    else:
        enum_s = 0.0

        def timed_enumerate(n):
            nonlocal enum_s
            t0 = perf_counter()
            out = list(workloads.classify.connected_graphs(n))
            enum_s += perf_counter() - t0
            return out

        inputs = w.setup(args.seed, timed_enumerate)
        plain_wall, *_ = tally(run_pass(w, inputs))
        layers = []
        for _ in range(2):
            tracer = spans.Tracer()
            wall, *_ = tally(run_pass(w, inputs, tracer))
            layers.append(layer_metrics(tracer, wall))
        first, second = layers
        moved = {k: (first[k], second[k]) for k in first
                 if not is_time(k) and first[k] != second[k]}
        if moved:
            print(f"perfbench: counts differ between two traced passes at seed "
                  f"{args.seed}: {moved}", file=sys.stderr)
            return 3
        avg = {k: (first[k] + second[k]) / 2 if is_time(k) else first[k] for k in first}
        avg["trace.overhead_s"] = avg["trace.wall_s"] - plain_wall
        avg["graphs.enumerate_s"] = enum_s
        covered = sum(avg[name] for name, _span in SELF_TIMES) + avg["trace.unattributed_s"]
        if abs(covered - avg["trace.wall_s"]) > 1e-6 * max(1.0, avg["trace.wall_s"]):
            print(f"perfbench: self times add up to {covered}, traced wall is "
                  f"{avg['trace.wall_s']}", file=sys.stderr)
            return 3
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(workloads.OUT_DIR,
                                  f"spans-{w.name}-seed{args.seed}.tsv.gz"))
        metrics = {k: (v, "s" if is_time(k) else
                       "ratio" if k.endswith("_ratio") or k.endswith("_per_minor")
                       else "bytes" if k.endswith("_bytes") else "count")
                   for k, v in sorted(avg.items())}
        shown = metrics
        print(f"{w.name} seed={args.seed}: 1 untraced and 2 traced passes, "
              f"{len(tracer.spans)} spans in the last")

    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for msg in failures[:MAX_FAILURES_SHOWN]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
