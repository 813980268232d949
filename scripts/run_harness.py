#!/usr/bin/env python3
"""Run the packed/Simis classification harness and write a JSON report.

Checks every connected labelled graph up to --nmax (plus the path and cycle
families up to --families) against the shape-based prediction, recording the
packing verdict and a bounded symbolic-power comparison for each instance.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

from coverpack.classify import verify_theorem
from coverpack.graphs import cycle, path


@dataclass(frozen=True)
class HarnessConfig:
    nmax: int = 6
    families: int = 10
    t_min: int = 3
    t_max_families: int = 5
    rows: bool = False
    out: str = "harness_report.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=6,
                    help="largest vertex count for the exhaustive sweep")
    ap.add_argument("--families", type=int, default=10,
                    help="largest n for the extra path/cycle sweep (0 to skip)")
    ap.add_argument("--rows", action="store_true", help="keep per-instance rows")
    ap.add_argument("--out", default="harness_report.json")
    args = ap.parse_args(argv)
    cfg = HarnessConfig(nmax=args.nmax, families=args.families,
                        rows=args.rows, out=args.out)

    t0 = time.perf_counter()
    rep = verify_theorem(cfg.nmax, t_min=cfg.t_min)
    parts = {"all_graphs": rep}
    if cfg.families:
        fams = []
        for n in range(3, cfg.families + 1):
            fams.append(path(n))
            fams.append(cycle(n))
        parts["paths_cycles"] = verify_theorem(
            0, t_min=cfg.t_min, t_max=cfg.t_max_families, graphs=fams)
    elapsed = time.perf_counter() - t0

    disagreements = 0
    payload = {"config": asdict(cfg), "elapsed_seconds": round(elapsed, 2), "parts": {}}
    for name, part in parts.items():
        body = part.to_json()
        if not cfg.rows:
            body["rows"] = []
        payload["parts"][name] = body
        disagreements += len(part.disagreements)
        s = part.summary()
        print(f"{name}: {s['instances']} instances, "
              f"{s['predicted_true']} predicted packed, "
              f"{s['witnesses_found']} non-Simis witnesses, "
              f"{len(part.disagreements)} disagreements")
        print(f"{name}: computed {part.computed} of {s['instances']} rows",
              file=sys.stderr)
    with open(cfg.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"report written to {cfg.out} ({elapsed:.1f}s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
