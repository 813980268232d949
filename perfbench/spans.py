"""Spans around the calls into each coverpack module, from outside the library.

`Tracer.installed()` rebinds, for the duration of a traced pass, the names a
calling module imported (for example `coverpack.classify.simis_check`) to a
wrapper that records one span per call: name, start, end, parent span and
task id.  Spans stay in memory; self times and counts are computed from them
after the pass, and `write` dumps them when the run ends.  Nothing in the
library changes, and nothing is rebound while the timed passes run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _minimalize_count(counts, args, result):
    counts["ideals.minimalize_in"] += len(args[1])
    counts["ideals.minimalize_out"] += len(result.gens)


def _count(key, measure):
    def hook(counts, _args, result):
        counts[key] += measure(result)
    return hook


# (calling module, imported name, span name, count hook); every caller on the
# workloads' paths is listed, so a span covers each call into a layer
PATCHES = [
    ("coverpack.cli", "main", "cli.main", None),
    ("coverpack.cli", "emit_report", "cli.emit_report",
     _count("cli.report_bytes", len)),
    ("coverpack.cli", "verify_theorem", "classify.verify_theorem", None),
    ("coverpack.cli", "cover_ideal", "tconn.cover_ideal", None),
    ("coverpack.cli", "cover_matrix", "lpdual.cover_matrix", None),
    ("coverpack.cli", "tau", "lpdual.tau", None),
    ("coverpack.cli", "nu", "lpdual.nu", None),
    ("coverpack.cli", "duality_gap_search", "lpdual.gap_search",
     _count("lpdual.alpha_scanned", lambda r: r.scanned)),
    ("coverpack.classify", "verify_theorem", "classify.verify_theorem", None),
    ("coverpack.classify", "check_instance", "classify.check_instance",
     _count("classify.rows", lambda r: 1)),
    ("coverpack.classify", "cover_ideal", "tconn.cover_ideal", None),
    ("coverpack.classify", "is_packed", "packing.is_packed",
     _count("packing.minors_scanned", lambda r: r.scanned)),
    ("coverpack.classify", "simis_check", "duality.simis_check", None),
    ("coverpack.duality", "symbolic_power", "duality.symbolic_power",
     _count("duality.symbolic_gens_out", lambda r: len(r.gens))),
    ("coverpack.duality", "minimal_primes", "duality.minimal_primes", None),
    ("coverpack.duality", "member_power", "ideals.member_power",
     _count("ideals.member_power_hits", bool)),
    ("coverpack.duality", "minimalize", "ideals.minimalize", _minimalize_count),
    ("coverpack.ideals", "minimalize", "ideals.minimalize", _minimalize_count),
    ("coverpack.tconn", "minimalize", "ideals.minimalize", _minimalize_count),
    ("coverpack.packing", "minimalize", "ideals.minimalize", _minimalize_count),
    ("coverpack.tconn", "alexander_dual", "duality.alexander_dual",
     _count("duality.dual_gens_out", lambda r: len(r.gens))),
    ("coverpack.tconn", "t_connected_ideal", "tconn.t_connected_ideal", None),
    ("coverpack.tconn", "connected_induced_subsets", "graphs.connected_subsets", None),
    ("coverpack.packing", "min_cover_masks", "ideals.min_cover", None),
    ("coverpack.lpdual", "cover_matrix", "lpdual.cover_matrix", None),
    ("coverpack.lpdual", "cover_ideal", "tconn.cover_ideal", None),
    ("coverpack.lpdual", "tau", "lpdual.tau", None),
    ("coverpack.lpdual", "nu", "lpdual.nu", None),
]

# spans that start a task: each harness row, and each CLI invocation
TASK_SPANS = {"classify.check_instance", "cli.main"}

ROOT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []       # (name index, start, end, parent, task)
        self.counts = defaultdict(int)
        self._stack = [ROOT]
        self._task = [0]
        self._next_task = 0

    def wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, tasks, counts = self.spans, self._stack, self._task, self.counts
        starts_task = name in TASK_SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            if starts_task:
                self._next_task += 1
                tasks.append(self._next_task)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (idx, start, end, parent, tasks[-1])
                if starts_task:
                    tasks.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every patched name to its wrapper; restore on exit."""
        saved = []
        try:
            for modname, attr, name, hook in PATCHES:
                mod = sys.modules.get(modname) or importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:      # the library renamed or dropped it
                    print(f"trace: {modname}.{attr} not found, not traced",
                          file=sys.stderr)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, hook))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part covered by child spans."""
        child = [0.0] * len(self.spans)
        for _idx, start, end, parent, _task in self.spans:
            if parent != ROOT:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (idx, start, end, _parent, _task) in enumerate(self.spans):
            out[self.names[idx]] += end - start - child[sid]
        return out

    def calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for idx, *_rest in self.spans:
            out[self.names[idx]] += 1
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        """Calls of `name` whose direct parent span is a `parent_name` span."""
        spans, names = self.spans, self.names
        return sum(1 for idx, _s, _e, parent, _t in spans
                   if names[idx] == name and parent != ROOT
                   and names[spans[parent][0]] == parent_name)

    def top_level_time(self) -> float:
        return sum(end - start for _i, start, end, parent, _t in self.spans
                   if parent == ROOT)

    def write(self, path: str):
        """Dump the spans as gzipped tab-separated lines, times relative to
        the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\ttask\n")
            for sid, (idx, start, end, parent, task) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[idx]}\t{start - origin:.7f}\t"
                         f"{end - origin:.7f}\t{parent}\t{task}\n")
