#!/usr/bin/env python3
"""Covering/packing duality experiments on path and cycle cover ideals.

For each instance, sweeps random weight vectors looking for tau != nu, then
runs the exhaustive ascending gap search.  Instances whose cover ideal packs
should show no gap at any weight vector; the others should produce one.
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass

from coverpack.classify import theorem_classification
from coverpack.graphs import cycle, path
from coverpack.ideals import SizeLimitError
from coverpack.lpdual import duality_gap_search, nu, tau
from coverpack.tconn import cover_ideal


@dataclass(frozen=True)
class GapConfig:
    samples: int = 200
    max_entry: int = 3
    entry_bound: int = 2
    seed: int = 7


def run_instance(name, g, t, cfg: GapConfig):
    j = cover_ideal(g, t)
    predicted = theorem_classification(g, t).verdict
    rng = random.Random(cfg.seed)
    sampled_gap = None
    for _ in range(cfg.samples):
        alpha = tuple(rng.randint(0, cfg.max_entry) for _ in range(g.n))
        tv = tau(j, alpha)
        nv = nu(j, alpha)
        if tv != nv:
            sampled_gap = (alpha, tv, nv)
            break
    t0 = time.perf_counter()
    try:
        res = duality_gap_search(g, t, cfg.entry_bound)
        search = (f"first gap at {res.witness} (tau={res.tau}, nu={res.nu})"
                  if res.witness else f"no gap in {res.scanned} vectors")
    except SizeLimitError as e:
        search = f"skipped: {e}"
    dt = time.perf_counter() - t0
    sampled = (f"sampled gap {sampled_gap[0]} ({sampled_gap[1]} vs {sampled_gap[2]})"
               if sampled_gap else f"no gap in {cfg.samples} samples")
    print(f"{name:8s} predicted_packed={str(predicted):5s} {sampled}; {search} ({dt:.1f}s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--entry-bound", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    cfg = GapConfig(samples=args.samples, entry_bound=args.entry_bound, seed=args.seed)

    instances = [
        ("P6,t3", path(6), 3), ("P7,t4", path(7), 4), ("P9,t3", path(9), 3),
        ("C6,t3", cycle(6), 3), ("C8,t4", cycle(8), 4), ("C9,t3", cycle(9), 3),
        ("C7,t3", cycle(7), 3), ("C10,t3", cycle(10), 3), ("C12,t3", cycle(12), 3),
    ]
    for name, g, t in instances:
        run_instance(name, g, t, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
