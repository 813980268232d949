#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one pass of each workload against a deliberately corrupted reference
(or a crashing task) and requires that exactly the corrupted tasks count as
failed, and that the run carries on.  Also requires that a wrong
calibration kernel result is caught.  Exits 0 when every corruption is
caught, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import sys

import calibrate
import run


@contextlib.contextmanager
def patched(obj, attr, value):
    saved = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, saved)


def main() -> int:
    workloads = run.load()
    if workloads is None:
        return 2
    ref, w = workloads.ref, workloads.WORKLOADS
    pinned = dict(workloads.PINNED)
    true_expected = ref.expected_packed

    def flipped(n, edges, t):
        # the expected verdict flips on the four 3-vertex rows only
        return true_expected(n, edges, t) != (n == 3)

    def crash(*_args, **_kwargs):
        raise RuntimeError("injected failure")

    wrong_gap = dict(pinned["gap_search"],
                     **{"cycle:12": dict(pinned["gap_search"]["cycle:12"], scanned=1)})
    cases = [
        ("harness: flipped expected verdicts", "harness", 4,
         patched(ref, "expected_packed", flipped)),
        ("harness: every row raises", "harness", 6264,
         patched(workloads.classify, "check_instance", crash)),
        ("families: wrong pinned digest", "families", 1,
         patched(workloads, "PINNED", dict(pinned, families_report_sha256="0" * 64))),
        ("dual_lp: wrong pinned gap-search result", "dual_lp", 1,
         patched(workloads, "PINNED", dict(pinned, gap_search=wrong_gap))),
    ]
    ok = True
    for label, name, want, corruption in cases:
        inputs = w[name].setup(seed=1)
        with corruption:
            _wall, _cpu, attempted, failures = run.run_pass(w[name], inputs)
        caught = len(failures) == want
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {label}: failed_share "
              f"{len(failures)}/{attempted} (expected {want} failed)")
        for msg in failures[:2]:
            print(f"       {msg}")
    with patched(calibrate, "EXPECTED", None), calibrate.SliceClock() as clock:
        pass
    caught = not clock.kernel_ok
    ok &= caught
    print(f"{'ok  ' if caught else 'FAIL'} calibration: a wrong expected kernel "
          f"result is caught")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
