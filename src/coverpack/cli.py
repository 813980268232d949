"""Command-line front end.

Subcommands: gens, simis, konig, packing, lp, gap-search, verify-theorem.
Graphs are given as path:N, cycle:N, star:N, complete:N, file:PATH (graph6
file) or a literal graph6 string.  Every command emits one JSON report,
checked against the published `REPORT_SCHEMA` before it is written;
identical configurations produce byte-identical reports.  The check
enforces exactly what the schema says, in a few lines of this module, so
no schema library is loaded.  Each command has one route; `gens` reports
its minimal-transversal dualization as "route": "transversal".

Exit codes: 0 success, 1 harness disagreement or failed self-check (weak
duality in the gap search), 2 usage error or a report the schema rejects,
3 resource-guard abort.  The COVERPACK_GEN_CAP and COVERPACK_SCAN_CAP
environment variables override the generator-count cap and the scan cap
(the alpha space of gap-search, the memoised minors of packing); the
step budget of the exact packing search behind lp and gap-search is the
default scan cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional, Sequence

from .classify import verify_theorem
from .duality import simis_check
from .graphs import Graph, Graph6ParseError, complete, cycle, parse_graph6, path, star
from .ideals import DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, MonomialIdeal, SizeLimitError
from .lpdual import duality_gap_search, nu, tau
from .packing import is_konig, is_packed, VerificationError
from .tconn import cover_ideal

# the keys each command's result must carry: the schema's command enum and
# its per-command clauses are both built from this table
RESULT_KEYS = {
    "gens": ["n", "t", "generators"],
    "simis": ["s_max", "verdict"],
    "konig": ["konig", "height"],
    "packing": ["packed", "witness"],
    "lp": ["tau", "nu", "alpha", "equal"],
    "gap-search": ["witness", "scanned"],
    "verify-theorem": ["rows", "summary", "disagreements"],
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["command", "config", "result"],
    "properties": {
        "command": {"type": "string", "enum": list(RESULT_KEYS)},
        "config": {"type": "object"},
        "result": {"type": "object"},
    },
    "additionalProperties": False,
    # each command's result must carry its own keys
    "allOf": [
        {"if": {"properties": {"command": {"const": command}}},
         "then": {"properties": {"result": {"required": keys}}}}
        for command, keys in RESULT_KEYS.items()
    ],
}


class SchemaError(ValueError):
    """A report payload that `REPORT_SCHEMA` rejects."""


def _check_report(payload) -> None:
    """Raise SchemaError unless `payload` satisfies `REPORT_SCHEMA`: a dict
    with exactly the keys command, config and result, a command from
    `RESULT_KEYS`, object config and result, and every result key the
    table lists for that command."""
    if not isinstance(payload, dict):
        raise SchemaError("report is not an object")
    if set(payload) != set(REPORT_SCHEMA["required"]):
        raise SchemaError("report keys must be exactly command, config and result")
    command = payload["command"]
    if not isinstance(command, str) or command not in RESULT_KEYS:
        raise SchemaError(f"{command!r} is not a known command")
    for key in ("config", "result"):
        if not isinstance(payload[key], dict):
            raise SchemaError(f"{key} is not an object")
    missing = [k for k in RESULT_KEYS[command] if k not in payload["result"]]
    if missing:
        raise SchemaError(f"{command} result lacks {missing}")


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
    """Check against the report schema and serialise deterministically."""
    _check_report(payload)
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


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="coverpack",
        description="cover ideals of t-connected ideals: generators, symbolic powers, Konig/packing, covering duality")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", help="generators of J_t(G)")
    _add_common(p)

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
    _add_common(p, needs_graph=False)
    p.add_argument("--rows", action="store_true", help="include per-instance rows in the report")
    return ap


def _cover(args, gen_cap: int) -> tuple[Graph, MonomialIdeal]:
    """The graph of `--graph` and its J_t(G)."""
    g = parse_graph_spec(args.graph)
    return g, cover_ideal(g, args.t, cap=gen_cap)


def _gens(args, gen_cap: int, scan_cap: int):
    g, ideal = _cover(args, gen_cap)
    return {"route": "transversal"}, {"n": g.n, "t": args.t, "count": len(ideal.gens),
                                      "generators": ideal.to_json()}


def _simis(args, gen_cap: int, scan_cap: int):
    s_max = args.smax if args.smax is not None else args.t
    rep = simis_check(_cover(args, gen_cap)[1], s_max, cap=gen_cap)
    return {"smax": s_max}, rep.to_json()


def _konig(args, gen_cap: int, scan_cap: int):
    return {}, is_konig(_cover(args, gen_cap)[1]).to_json()


def _packing(args, gen_cap: int, scan_cap: int):
    return {}, is_packed(_cover(args, gen_cap)[1], cap=scan_cap).to_json()


def _lp(args, gen_cap: int, scan_cap: int):
    g, j = _cover(args, gen_cap)
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
    return {"alpha": list(alpha)}, {"tau": tv, "nu": nv, "alpha": list(alpha), "equal": tv == nv}


def _gap_search(args, gen_cap: int, scan_cap: int):
    res = duality_gap_search(parse_graph_spec(args.graph), args.t, args.entry_bound,
                             scan_cap=scan_cap, gen_cap=gen_cap)
    return {"entry_bound": args.entry_bound}, res.to_json()


def _verify_theorem(args, gen_cap: int, scan_cap: int):
    fams = None if args.paths_cycles is None else [
        g for n in range(3, args.paths_cycles + 1) for g in (path(n), cycle(n))]
    report = verify_theorem(args.nmax, t_min=args.tmin, t_max=args.tmax,
                            s_max=args.smax, graphs=fams, cap=gen_cap)
    body = report.to_json()
    if not args.rows:
        body["rows"] = []
    return ({"nmax": args.nmax, "tmin": args.tmin, "tmax": args.tmax,
             "smax": args.smax, "paths_cycles": args.paths_cycles}, body)


# every builder takes (args, gen_cap, scan_cap) and returns the report's
# (config, result); `main` opens a graph command's config with its graph and
# t and wraps the report.  The builders call the layers through this
# module's globals, so rebinding one of them here reaches every command
_BUILDERS = {
    "gens": _gens,
    "simis": _simis,
    "konig": _konig,
    "packing": _packing,
    "lp": _lp,
    "gap-search": _gap_search,
    "verify-theorem": _verify_theorem,
}


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
    try:
        gen_cap = _env_int("COVERPACK_GEN_CAP", DEFAULT_GEN_CAP)
        scan_cap = _env_int("COVERPACK_SCAN_CAP", DEFAULT_SCAN_CAP)
        config, result = _BUILDERS[args.command](args, gen_cap, scan_cap)
        if args.command != "verify-theorem":
            config = {"graph": args.graph, "t": args.t, **config}
        emit_report({"command": args.command, "config": config, "result": result},
                    pretty=args.pretty, out=args.out)
        # only the harness reports disagreements; any is exit code 1
        return 1 if result.get("disagreements") else 0
    except SizeLimitError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 3
    except SchemaError as e:
        print(f"schema violation: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
