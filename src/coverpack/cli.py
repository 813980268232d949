"""Command-line front end.

Subcommands: gens, simis, konig, packing, lp, gap-search, verify-theorem.
Graphs are given as path:N, cycle:N, star:N, complete:N, file:PATH (graph6
file) or a literal graph6 string.  Every command emits one schema-validated
JSON report; identical configurations produce byte-identical reports.

Exit codes: 0 success, 1 harness disagreement or failed self-check (a
closed-form generator list or weak duality in the gap search), 2 usage or
schema error, 3 resource-guard abort.  The COVERPACK_GEN_CAP and
COVERPACK_SCAN_CAP environment variables override the generator-count cap
and the scan cap (the alpha space of gap-search, the memoised minors of
packing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import jsonschema

from .classify import verify_theorem
from .duality import simis_check
from .graphs import Graph, Graph6ParseError, classify_shape, complete, cycle, parse_graph6, path, star
from .ideals import DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, SizeLimitError
from .lpdual import duality_gap_search, nu, tau
from .packing import is_konig, is_packed, VerificationError
from .tconn import GenerationError, brute_cover_ideal, cover_ideal, cycle_cover_gens, path_cover_gens

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "result"],
    "properties": {
        "command": {"type": "string",
                    "enum": ["gens", "simis", "konig", "packing", "lp",
                             "gap-search", "verify-theorem"]},
        "config": {"type": "object"},
        "result": {"type": "object"},
    },
    "additionalProperties": False,
    # each command's result must carry its own keys
    "allOf": [
        {"if": {"properties": {"command": {"const": command}}},
         "then": {"properties": {"result": {"required": keys}}}}
        for command, keys in [
            ("gens", ["n", "t", "generators"]),
            ("simis", ["s_max", "verdict"]),
            ("konig", ["konig", "height"]),
            ("packing", ["packed", "witness"]),
            ("lp", ["tau", "nu", "alpha", "equal"]),
            ("gap-search", ["witness", "scanned"]),
            ("verify-theorem", ["rows", "summary", "disagreements"]),
        ]
    ],
}

# built once: jsonschema.validate would re-check the schema itself on every call
_REPORT_VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)


class UsageError(ValueError):
    pass


def parse_graph_spec(spec: str) -> Graph:
    """path:N | cycle:N | star:N | complete:N | file:PATH | graph6 literal."""
    kind, _, arg = spec.partition(":")
    makers = {"path": path, "cycle": cycle, "star": star, "complete": complete}
    if kind in makers:
        try:
            return makers[kind](int(arg))
        except ValueError as e:
            raise UsageError(f"bad graph spec {spec!r}: {e}")
    if kind == "file":
        try:
            with open(arg) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        return parse_graph6(line)
            raise UsageError(f"no graph6 line found in {arg}")
        except OSError as e:
            raise UsageError(f"cannot read {arg}: {e}")
        except Graph6ParseError as e:
            raise UsageError(f"bad graph6 in {arg}: {e}")
    try:
        return parse_graph6(spec)
    except Graph6ParseError as e:
        raise UsageError(f"unrecognised graph spec {spec!r}: {e}")


def emit_report(payload: dict, pretty: bool = False, out: Optional[str] = None) -> str:
    """Validate against the report schema and serialise deterministically."""
    _REPORT_VALIDATOR.validate(payload)
    if pretty:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = json.dumps(payload, separators=(",", ":")) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {out}: {e}")
    else:
        sys.stdout.write(text)
    return text


def _add_common(p: argparse.ArgumentParser, needs_graph: bool = True):
    if needs_graph:
        p.add_argument("--graph", required=True, help="path:N, cycle:N, star:N, complete:N, file:PATH or graph6")
        p.add_argument("--t", type=int, required=True, help="connectedness size t")
    p.add_argument("--pretty", action="store_true", help="indent the JSON report")
    p.add_argument("--out", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coverpack",
        description="cover ideals of t-connected ideals: generators, symbolic powers, Konig/packing, covering duality")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", help="generators of J_t(G)")
    _add_common(p)
    p.add_argument("--closed-form", action="store_true",
                   help="use the path/cycle closed form (canonical labellings only)")
    p.add_argument("--brute-force", action="store_true",
                   help="scan all 2^n vertex subsets (n <= 20) instead of the transversal search")

    p = sub.add_parser("simis", help="bounded symbolic vs ordinary power comparison for J_t(G)")
    _add_common(p)
    p.add_argument("--smax", type=int, default=None, help="bound (default t)")

    p = sub.add_parser("konig", help="Konig property of J_t(G)")
    _add_common(p)

    p = sub.add_parser("packing", help="packing property of J_t(G) (3^n minor scan)")
    _add_common(p)

    p = sub.add_parser("lp", help="tau and nu for J_t(G) at one weight vector")
    _add_common(p)
    p.add_argument("--alpha", help="comma-separated weights, default all ones")

    p = sub.add_parser("gap-search", help="first alpha with tau != nu")
    _add_common(p)
    p.add_argument("--entry-bound", type=int, default=2)

    p = sub.add_parser("verify-theorem", help="classification harness")
    p.add_argument("--nmax", type=int, default=5, help="largest vertex count")
    p.add_argument("--tmin", type=int, default=3, help="smallest t (at least 3)")
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--smax", type=int, default=None, help="Simis bound (default t per instance)")
    p.add_argument("--paths-cycles", type=int, default=None, metavar="N",
                   help="check canonical paths and cycles up to N instead of all graphs")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--rows", action="store_true", help="include per-instance rows in the report")
    return ap


def _gens_payload(args, gen_cap: int) -> dict:
    g = parse_graph_spec(args.graph)
    t = args.t
    if args.closed_form and args.brute_force:
        raise UsageError("--closed-form and --brute-force are mutually exclusive")
    if args.closed_form:
        route = "closed-form"
        shape = classify_shape(g)
        if shape == "path" and g == path(g.n):
            ideal = path_cover_gens(g.n, t)
        elif shape == "cycle" and g == cycle(g.n):
            ideal = cycle_cover_gens(g.n, t)
        else:
            raise UsageError("--closed-form needs a canonical path:N or cycle:N graph")
    elif args.brute_force:
        route = "brute-force"
        ideal = brute_cover_ideal(g, t)
    else:
        route = "transversal"
        ideal = cover_ideal(g, t, cap=gen_cap)
    return {
        "command": "gens",
        "config": {"graph": args.graph, "t": t, "route": route},
        "result": {"n": g.n, "t": t, "count": len(ideal.gens),
                   "generators": ideal.to_json()},
    }


def _simis_payload(args, gen_cap: int) -> dict:
    g = parse_graph_spec(args.graph)
    s_max = args.smax if args.smax is not None else args.t
    ideal = cover_ideal(g, args.t, cap=gen_cap)
    rep = simis_check(ideal, s_max, cap=gen_cap)
    return {
        "command": "simis",
        "config": {"graph": args.graph, "t": args.t, "smax": s_max},
        "result": rep.to_json(),
    }


def _konig_payload(args, gen_cap: int) -> dict:
    g = parse_graph_spec(args.graph)
    res = is_konig(cover_ideal(g, args.t, cap=gen_cap))
    return {
        "command": "konig",
        "config": {"graph": args.graph, "t": args.t},
        "result": res.to_json(),
    }


def _packing_payload(args, gen_cap: int, scan_cap: int) -> dict:
    g = parse_graph_spec(args.graph)
    rep = is_packed(cover_ideal(g, args.t, cap=gen_cap), cap=scan_cap)
    return {
        "command": "packing",
        "config": {"graph": args.graph, "t": args.t},
        "result": rep.to_json(),
    }


def _lp_payload(args, gen_cap: int) -> dict:
    g = parse_graph_spec(args.graph)
    j = cover_ideal(g, args.t, cap=gen_cap)
    if args.alpha:
        try:
            alpha = tuple(int(x) for x in args.alpha.split(","))
        except ValueError:
            raise UsageError(f"bad --alpha {args.alpha!r}")
        if len(alpha) != g.n:
            raise UsageError(f"--alpha needs {g.n} entries")
    else:
        alpha = (1,) * g.n
    tv = tau(j, alpha)
    nv = nu(j, alpha)
    return {
        "command": "lp",
        "config": {"graph": args.graph, "t": args.t, "alpha": list(alpha)},
        "result": {"tau": tv, "nu": nv, "alpha": list(alpha), "equal": tv == nv},
    }


def _gap_payload(args, gen_cap: int, scan_cap: int) -> dict:
    g = parse_graph_spec(args.graph)
    res = duality_gap_search(g, args.t, args.entry_bound, scan_cap=scan_cap,
                             gen_cap=gen_cap)
    return {
        "command": "gap-search",
        "config": {"graph": args.graph, "t": args.t, "entry_bound": args.entry_bound},
        "result": res.to_json(),
    }


def _verify_payload(args, gen_cap: int) -> tuple[dict, int]:
    if args.paths_cycles is not None:
        fams = []
        for n in range(3, args.paths_cycles + 1):
            fams.append(path(n))
            fams.append(cycle(n))
        report = verify_theorem(0, t_min=args.tmin, t_max=args.tmax,
                                s_max=args.smax, graphs=fams, cap=gen_cap)
    else:
        report = verify_theorem(args.nmax, t_min=args.tmin, t_max=args.tmax,
                                s_max=args.smax, cap=gen_cap)
    body = report.to_json()
    if not args.rows:
        body["rows"] = []
    payload = {
        "command": "verify-theorem",
        "config": {"nmax": args.nmax, "tmin": args.tmin, "tmax": args.tmax,
                   "smax": args.smax, "paths_cycles": args.paths_cycles},
        "result": body,
    }
    return payload, (1 if report.disagreements else 0)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"{name} must be at least 1, got {value}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    code = 0
    try:
        gen_cap = _env_int("COVERPACK_GEN_CAP", DEFAULT_GEN_CAP)
        scan_cap = _env_int("COVERPACK_SCAN_CAP", DEFAULT_SCAN_CAP)
        if args.command == "gens":
            payload = _gens_payload(args, gen_cap)
        elif args.command == "simis":
            payload = _simis_payload(args, gen_cap)
        elif args.command == "konig":
            payload = _konig_payload(args, gen_cap)
        elif args.command == "packing":
            payload = _packing_payload(args, gen_cap, scan_cap)
        elif args.command == "lp":
            payload = _lp_payload(args, gen_cap)
        elif args.command == "gap-search":
            payload = _gap_payload(args, gen_cap, scan_cap)
        else:
            payload, code = _verify_payload(args, gen_cap)
        emit_report(payload, pretty=args.pretty, out=args.out)
        return code
    except SizeLimitError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (VerificationError, GenerationError) as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except jsonschema.ValidationError as e:
        print(f"schema violation: {e.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
