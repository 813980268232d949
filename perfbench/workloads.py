"""The three benchmark workloads.

Each workload has four steps, and only `execute` is timed:

  setup(seed, enumerate_hook)  build the inputs (counted in setup_s)
  prepare(inputs)              fresh objects for one pass (untimed)
  execute(args)                the fixed task list, through coverpack's public
                               API or its CLI entry point (timed)
  check(inputs, outputs)       compare every verdict with an independent
                               reference; returns (attempted, failures)

A task that raises, exits non-zero or disagrees with its reference is one
failure; nothing a task does can stop the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from coverpack import classify, cli, tconn
from coverpack.graphs import Graph

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")

with open(os.path.join(HERE, "pinned.json")) as _fh:
    PINNED = json.load(_fh)


def _path_edges(n: int) -> tuple:
    return tuple((i, i + 1) for i in range(1, n))


def _cycle_edges(n: int) -> tuple:
    return _path_edges(n) + ((1, n),)


def check_row(row: dict, n: int, edges, t: int) -> str | None:
    """Failure message for one harness row, or None when it is right."""
    packed = ref.expected_packed(n, edges, t)
    where = f"{row.get('graph6')} t={t}"
    if row["graph6"] != ref.graph6(n, edges) or row["t"] != t:
        return f"row {where}: expected {ref.graph6(n, edges)} t={t}"
    if row["packed"] != packed:
        return f"row {where}: packed={row['packed']}, expected {packed}"
    if row["predicted"] != packed:
        return f"row {where}: predicted={row['predicted']}, expected {packed}"
    verdict = row["simis_verdict"]
    if verdict == "aborted":
        return f"row {where}: Simis check aborted"
    if verdict == "witness_at":
        s = row["simis_s"]
        exps = ref.parse_monomial(row["simis_witness"], n)
        if packed:
            return f"row {where}: Simis witness on a packed instance"
        if not (2 <= s <= t and ref.in_symbolic_power(
                exps, ref.connected_t_subsets(n, edges, t), s)):
            return f"row {where}: witness {row['simis_witness']} not in J^({s})"
    elif verdict != "equal_up_to":
        return f"row {where}: unknown Simis verdict {verdict!r}"
    return None


def _row_tasks(graphs) -> list[tuple]:
    return [(n, edges, t) for n, edges in graphs for t in range(3, n + 1)]


def _check_rows(rows: list[dict], tasks: list[tuple]) -> list[str]:
    failures = []
    for row, task in zip(rows, tasks):
        try:
            msg = check_row(row, *task)
        except (ValueError, KeyError, TypeError) as e:
            msg = f"unreadable row {row!r} ({e!r})"
        if msg:
            failures.append(msg)
    failures += ["missing row"] * (len(tasks) - len(rows))
    if len(rows) > len(tasks):
        failures.append(f"{len(rows) - len(tasks)} rows beyond the task list")
    return failures


class Harness:
    """verify_theorem over every connected labelled graph on 3..5 vertices and
    a seeded sample of connected 6-vertex graphs."""

    name = "harness"
    SAMPLE = 1000

    def setup(self, seed: int, enumerate_hook=None):
        enum = enumerate_hook or (lambda n: list(classify.connected_graphs(n)))
        small = [(g.n, g.edges) for n in (3, 4, 5) for _code, g in enum(n)]
        six = [g for _code, g in enum(6)]
        # stratified by (edge count, degree sequence): one draw from each of
        # SAMPLE equal slices, so every seed sees the same mix of graph shapes
        order = sorted(range(len(six)), key=lambda i: (
            len(six[i].edges), sorted(bin(a).count("1") for a in six[i].adj), i))
        rng = random.Random(seed)
        k, total = self.SAMPLE, len(six)
        picks = sorted(order[rng.randrange(s * total // k, (s + 1) * total // k)]
                       for s in range(k))
        return small + [(6, six[i].edges) for i in picks]

    def prepare(self, graphs):
        return [Graph(n, edges) for n, edges in graphs]

    def execute(self, graphs):
        try:
            return classify.verify_theorem(0, graphs=graphs)
        except Exception as e:  # a crash fails every task, it must not end the run
            return e

    def check(self, graphs, report):
        tasks = _row_tasks(graphs)
        if isinstance(report, Exception):
            return len(tasks), [f"verify_theorem raised {report!r}"] * len(tasks)
        return len(tasks), _check_rows([r.to_json() for r in report.rows], tasks)


class Families:
    """In-process `coverpack verify-theorem --paths-cycles 10 --tmax 4 --rows`;
    the inputs are fixed, so the seed changes nothing."""

    name = "families"
    NMAX = 10

    def setup(self, seed: int, enumerate_hook=None):
        out = os.path.join(OUT_DIR, "families-report.json")
        graphs = [(n, edges) for n in range(3, self.NMAX + 1)
                  for edges in (_path_edges(n), _cycle_edges(n))]
        argv = ["verify-theorem", "--paths-cycles", str(self.NMAX), "--tmax", "4",
                "--rows", "--out", out]
        return graphs, argv, out

    def prepare(self, inputs):
        _graphs, argv, out = inputs
        os.makedirs(OUT_DIR, exist_ok=True)
        if os.path.exists(out):
            os.remove(out)
        return argv

    def execute(self, argv):
        try:
            return cli.main(argv)
        except Exception as e:
            return e

    def check(self, inputs, code):
        graphs, _argv, out = inputs
        tasks = [(n, edges, t) for n, edges in graphs for t in range(3, min(n, 4) + 1)]
        attempted = len(tasks) + 1          # the rows, and the report itself
        if code != 0 or not os.path.exists(out):
            return attempted, [f"verify-theorem exit {code!r}"] * attempted
        with open(out, "rb") as fh:
            data = fh.read()
        try:
            result = json.loads(data)["result"]
            failures = _check_rows(result["rows"], tasks)
            disagreements = result["disagreements"]
        except (ValueError, KeyError, TypeError) as e:
            return attempted, [f"unreadable report ({e!r})"] * attempted
        digest = hashlib.sha256(data).hexdigest()
        if digest != PINNED["families_report_sha256"]:
            failures.append(f"report digest {digest} differs from the pinned one")
        elif disagreements:
            failures.append(f"report counts {disagreements} disagreements")
        return attempted, failures


class DualLP:
    """In-process `gens`, `gap-search` and `lp` CLI calls on the large-n routes."""

    name = "dual_lp"
    GENS = [("cycle:20", 3), ("path:20", 3), ("cycle:18", 4), ("cycle:20", 5)]
    GAPS = ["cycle:12", "path:9", "cycle:9", "cycle:10"]
    LP = ["cycle:12", "path:12", "cycle:11"]
    LP_PER_GRAPH = 10
    ALPHA_MAX = 3

    def setup(self, seed: int, enumerate_hook=None):
        rng = random.Random(seed)
        tasks = [["gens", "--graph", g, "--t", str(t)] for g, t in self.GENS]
        tasks += [["gap-search", "--graph", g, "--t", "3", "--entry-bound", "2"]
                  for g in self.GAPS]
        for g in self.LP:
            n = int(g.partition(":")[2])
            for _ in range(self.LP_PER_GRAPH):
                alpha = ",".join(str(rng.randint(0, self.ALPHA_MAX)) for _ in range(n))
                tasks.append(["lp", "--graph", g, "--t", "3", "--alpha", alpha])
        return tasks

    def prepare(self, tasks):
        return tasks

    def execute(self, tasks):
        outputs = []
        for argv in tasks:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception as e:
                code = e
            outputs.append((code, buf.getvalue()))
        return outputs

    @staticmethod
    def _graph(spec: str) -> tuple[int, tuple]:
        kind, _, arg = spec.partition(":")
        n = int(arg)
        return n, _path_edges(n) if kind == "path" else _cycle_edges(n)

    def _check_one(self, argv, code, text) -> str | None:
        if code != 0:
            return f"{' '.join(argv)}: exit {code!r}"
        result = json.loads(text)["result"]
        cmd, spec, t = argv[0], argv[2], int(argv[4])
        n, edges = self._graph(spec)
        if cmd == "gens":
            closed = (tconn.path_cover_gens if spec.startswith("path")
                      else tconn.cycle_cover_gens)(n, t)
            if result["generators"] != closed.to_json():
                return f"gens {spec} t={t}: differs from the closed form"
        elif cmd == "gap-search":
            if ref.expected_packed(n, edges, t) != (result["witness"] is None):
                return f"gap-search {spec}: witness {result['witness']} contradicts the classification"
            if result != PINNED["gap_search"][spec]:
                return f"gap-search {spec}: {result} differs from the pinned result"
            if result["witness"] is not None:
                want = ref.tau(ref.connected_t_subsets(n, edges, t), result["witness"])
                if result["tau"] != want or not result["nu"] < result["tau"]:
                    return f"gap-search {spec}: tau/nu {result['tau']}/{result['nu']}, reference tau {want}"
        else:
            alpha = [int(a) for a in argv[6].split(",")]
            want = ref.tau(ref.connected_t_subsets(n, edges, t), alpha)
            if result["alpha"] != alpha or result["tau"] != want or result["nu"] > want \
                    or result["equal"] != (result["nu"] == want):
                return f"lp {spec} alpha={argv[6]}: tau/nu {result['tau']}/{result['nu']}, reference tau {want}"
        return None

    def check(self, tasks, outputs):
        failures = []
        for argv, (code, text) in zip(tasks, outputs):
            try:
                msg = self._check_one(argv, code, text)
            except (ValueError, KeyError, TypeError) as e:
                msg = f"{' '.join(argv)}: unreadable report ({e!r})"
            if msg:
                failures.append(msg)
        return len(tasks), failures


WORKLOADS = {w.name: w for w in (Harness(), Families(), DualLP())}
