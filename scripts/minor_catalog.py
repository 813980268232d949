#!/usr/bin/env python3
"""Catalogue of explicit non-packing witnesses for cycle cover ideals.

For every (n, t) with 3 <= t < n <= --nmax and J_t(C_n) outside the packed
family, prints either the non-Konig certificate (t does not divide n) or the
zero-set minor that collapses the ideal onto a smaller known-bad instance.
Each claim is checked before it is printed; a failed check prints
VERIFICATION FAILED and makes the script exit 1.
"""

import argparse
import sys

from coverpack.classify import theorem_classification
from coverpack.graphs import cycle
from coverpack.packing import VerificationError, cycle_nonpacking_minor


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=24)
    ap.add_argument("--tmax", type=int, default=6)
    args = ap.parse_args(argv)

    failures = 0
    for t in range(3, args.tmax + 1):
        for n in range(t + 1, args.nmax + 1):
            if theorem_classification(cycle(n), t).verdict:
                print(f"(n={n:2d}, t={t}): packed, no witness")
                continue
            try:
                r = cycle_nonpacking_minor(n, t)
            except VerificationError as e:
                print(f"(n={n:2d}, t={t}): VERIFICATION FAILED: {e}")
                failures += 1
                continue
            if r.kind == "not_konig":
                print(f"(n={n:2d}, t={t}): not Konig as-is (t does not divide n)")
            else:
                n2, t2 = r.target
                print(f"(n={n:2d}, t={t}): zeros {r.minor.zeros} -> J_{t2}(C_{n2})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
