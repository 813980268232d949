"""Classification of packed / Simis cover ideals J_t(G) and the exhaustive
verification harness.

For t >= 3 and connected G on n >= t vertices, J_t(G) is packed (equivalently
Simis) exactly when

  * n = t, or
  * G is a path, or
  * G is a cycle and (t, n) is one of (3, 6), (3, 9), (4, 8): the
    paper's `PACKED_CYCLES`.

For t = 2 the rule is different in kind: J_2(G) is Simis iff G is bipartite;
classification requests with t = 2 are routed there and tagged as such.

The harness enumerates every connected labelled graph on up to n_max
vertices (edge subsets filtered by connectivity), computes the packing
verdict and a bounded Simis check for each admissible t, and compares
against the prediction.  Packing is the decisive check; a Simis witness is
recorded when one appears within the bound.

Class cache.  A relabelling sigma of G permutes the variables of J_t(G), so
the prediction, the packing verdict, the Simis verdict and the first failing
s are the same for every labelling of an isomorphism class; only the graph6
string and the witness change.  `verify_theorem` therefore keys a dict on
(n, canonical edges, t), with the canonical form of `coverpack.canon`, for
the length of one call.  The first labelling of a class is computed by
`check_instance` as usual.  Let F be the generators of J^(s) outside J^s at
the first failing s.  Those of sigma(J)^(s) are sigma(F), so the witness of
labelling sigma, the first of them in (degree, exponent tuple) order, is
min sigma(F).  Relabelling keeps degrees, so only the least-degree members
of F are needed, and the first labelling's fold already found them: they
are the failures of its Simis check, which the row carries.  Every later
row relabels that set, sorts it and takes its first member as the witness,
with no dualization, no fold and no membership test.

Aborts are the one thing that depends on the labelling: the fold's
intermediate sizes follow the order of the minimal primes, and the packing
scan memo the order of the variables.  So every labelling of a class is
computed directly when the first one aborted; when a labelling-independent
bound on the fold's kept + fresh count passes the cap at some folded s (up
to the first failing one, or the bound); or when the scan's ternary tree,
with (3^(n+1) - 1)/2 nodes, could outgrow DEFAULT_SCAN_CAP memo entries.
The fold bound is C(s+t-1, t-1) candidates per generator (the primes have t
variables) times C(s+t-1, t-1) generators when J has two primes, or else
the largest antichain in [0, s]^n, since the generators have exponents at
most s.  The dualization needs no rule: every labelling has the same number
of minimal transversals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .canon import canonical_form
from .duality import simis_check
from .graphs import (Graph, classify_shape, connected_induced_subsets, encode_graph6,
                     is_bipartite, is_connected)
from .ideals import DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, Monomial, SizeLimitError, monomial_str
from .packing import PACKED_CYCLES, is_packed
from .tconn import cover_ideal


@dataclass(frozen=True)
class Classification:
    verdict: bool
    case: str          # "n_equals_t" | "path" | "cycle_special" | "bipartite" | "no"
    reason: str = ""

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "case": self.case, "reason": self.reason}


def theorem_classification(g: Graph, t: int) -> Classification:
    """Predicted packed/Simis verdict for J_t(G); t = 2 uses the bipartite rule."""
    n = g.n
    if not (2 <= t <= n):
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    if not is_connected(g):
        raise ValueError("classification needs a connected graph")
    if t == 2:
        if is_bipartite(g):
            return Classification(True, "bipartite", "t=2 and G bipartite")
        return Classification(False, "no", "t=2 and G not bipartite")
    if n == t:
        return Classification(True, "n_equals_t", "J is the maximal ideal")
    shape = classify_shape(g)
    if shape == "path":
        return Classification(True, "path", "paths are packed for every t")
    if shape == "cycle":
        if (n, t) in PACKED_CYCLES:
            return Classification(True, "cycle_special", f"cycle pair (t={t}, n={n})")
        return Classification(False, "no",
                              f"cycle with n={n} outside the packed list for t={t}")
    return Classification(False, "no", "not a path or cycle and n > t")


@dataclass(frozen=True)
class HarnessRow:
    graph6: str
    n: int
    t: int
    predicted: bool
    case: str
    packed: Optional[bool]        # None when dualization aborted
    simis_verdict: str            # "equal_up_to" | "witness_at" | "aborted"
    simis_s: Optional[int]
    simis_witness: Optional[str]
    # the Simis check's least-degree failures, witness first; not part of
    # the report
    failures: tuple[Monomial, ...] = field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "t": self.t,
            "predicted": self.predicted,
            "case": self.case,
            "packed": self.packed,
            "simis_verdict": self.simis_verdict,
            "simis_s": self.simis_s,
            "simis_witness": self.simis_witness,
        }


@dataclass
class HarnessReport:
    rows: list[HarnessRow] = field(default_factory=list)
    disagreements: list[HarnessRow] = field(default_factory=list)
    # rows computed by check_instance rather than served from the class
    # cache; not part of the report
    computed: int = field(default=0, compare=False)

    def summary(self) -> dict:
        return {
            "instances": len(self.rows),
            "predicted_true": sum(1 for r in self.rows if r.predicted),
            "predicted_false": sum(1 for r in self.rows if not r.predicted),
            "witnesses_found": sum(1 for r in self.rows if r.simis_verdict == "witness_at"),
            "aborted": sum(1 for r in self.rows if r.simis_verdict == "aborted"),
        }

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "summary": self.summary(),
            "disagreements": len(self.disagreements),
        }


def connected_graphs(n: int) -> Iterator[tuple[int, Graph]]:
    """All connected labelled graphs on {1..n} as (edge-subset code, graph)."""
    pairs = list(combinations(range(1, n + 1), 2))
    npairs = len(pairs)
    # adjacency masks updated incrementally would not keep code order simple;
    # n stays tiny here, so rebuild per subset
    for code in range(1 << npairs):
        edges = [pairs[i] for i in range(npairs) if code >> i & 1]
        g = Graph(n, edges)
        if is_connected(g):
            yield code, g


def check_instance(g: Graph, t: int, s_max: Optional[int] = None,
                   cap: int = DEFAULT_GEN_CAP) -> HarnessRow:
    """One harness row: prediction, packing verdict, bounded Simis check.

    `cap` bounds the dualization and the symbolic-power fold; past it the
    row's Simis verdict is "aborted", with `packed` None when the
    dualization itself stopped.
    """
    bound = t if s_max is None else s_max
    cls = theorem_classification(g, t)
    packed, verdict, s, wit, failures = None, "aborted", None, None, ()
    try:
        ideal = cover_ideal(g, t, cap=cap)
    except SizeLimitError:
        ideal = None            # too many minimal covers: packed stays None
    if ideal is not None:
        packed = is_packed(ideal).packed
        try:
            rep = simis_check(ideal, bound, cap=cap)
            verdict, s, wit, failures = rep.verdict, rep.s, rep.witness, rep.failures
        except SizeLimitError:
            pass
    return HarnessRow(
        graph6=encode_graph6(g), n=g.n, t=t,
        predicted=cls.verdict, case=cls.case, packed=packed,
        simis_verdict=verdict, simis_s=s,
        simis_witness=monomial_str(wit) if wit is not None else None,
        failures=failures,
    )


def _row_violations(row: HarnessRow) -> bool:
    if row.packed is None:
        return False            # dualization aborted: nothing to compare
    if row.packed != row.predicted:
        return True
    # Simis implies packed: a witness below the bound must mean not packed
    if row.simis_verdict == "witness_at" and row.packed:
        return True
    # predicted-false instances need the packing failure (decisive) since the
    # Simis witness may lie beyond the bound
    if not row.predicted and row.packed and row.simis_verdict != "witness_at":
        return True
    return False


@dataclass
class _ClassEntry:
    """Cached outcome for one (isomorphism class, t): the first labelling's
    row and, per canonical label c, the 0-based vertex of that labelling
    carrying label c + 1."""
    row: HarnessRow
    first_of: tuple[int, ...]
    # whether every labelling is computed; decided at the second labelling
    direct: Optional[bool] = None


def _antichain_width(n: int, s: int) -> int:
    """Largest antichain of exponent vectors in [0, s]^n: its middle level
    (de Bruijn, Tengbergen and Kruyswijk, 1951), the coefficient of
    x^(ns/2) in (1 + x + ... + x^s)^n."""
    level = [1]
    for _ in range(n):
        level = [sum(level[max(0, i - s):i + 1]) for i in range(len(level) + s)]
    return level[n * s // 2]


def _needs_direct(row: HarnessRow, g: Graph, s_max: Optional[int], cap: int) -> bool:
    """Whether some labelling of the class of (g, row.t) could abort where
    the one of `row` did not, so that every labelling has to be computed.
    `g` is any labelling of the class: only class invariants are read."""
    n, t = row.n, row.t
    if row.simis_verdict == "aborted":
        return True
    # the scan memo holds at most one entry per node of the ternary tree
    if (3 ** (n + 1) - 1) // 2 > DEFAULT_SCAN_CAP:
        return True
    # simis_check folds every s up to the last one it checks, unless J_t(G)
    # has one prime (the connected t-subsets) and is the maximal ideal; the
    # bound on a fold step is the one in the module docstring
    if row.simis_verdict == "witness_at":
        last = row.simis_s
    else:
        last = t if s_max is None else s_max
    primes = len(connected_induced_subsets(g, t))
    if primes < 2 or last < 2:
        return False
    comps = comb(last + t - 1, t - 1)
    return comps * (comps if primes == 2 else _antichain_width(n, last)) > cap


def _cached_row(entry: _ClassEntry, g: Graph, perm: tuple[int, ...]) -> HarnessRow:
    """The row of labelling g, read off its class entry."""
    row = entry.row
    # vertex v of g is the vertex of the first labelling with the same
    # canonical label
    relabel = itemgetter(*[entry.first_of[c - 1] for c in perm])
    # one degree, so exponent-tuple order is canonical order
    failures = tuple(sorted(map(relabel, row.failures)))
    wit = monomial_str(failures[0]) if failures else None
    return HarnessRow(encode_graph6(g), row.n, row.t, row.predicted, row.case, row.packed,
                      row.simis_verdict, row.simis_s, wit, failures)


def verify_theorem(n_max: int, t_min: int = 3, t_max: Optional[int] = None,
                   s_max: Optional[int] = None, graphs: Optional[Iterable[Graph]] = None,
                   cap: int = DEFAULT_GEN_CAP) -> HarnessReport:
    """Compare prediction against computation over a graph family.

    With graphs=None, every connected labelled graph with 3 <= n <= n_max is
    enumerated; rows are ordered by (n, edge-subset code, t).  s_max=None
    bounds each Simis check by the instance's own t.  Rows equal the ones
    check_instance computes for each graph; repeated isomorphism classes are
    served from a cache that lives for this call (see the module docstring).
    The classification starts at t = 3, so t_min below 3 raises ValueError.
    """
    if t_min < 3:
        raise ValueError(f"t_min must be at least 3, got {t_min}")
    report = HarnessReport()
    classes: dict[tuple, _ClassEntry] = {}

    def run(g: Graph):
        hi = min(g.n, t_max) if t_max is not None else g.n
        ts = range(t_min, hi + 1)
        if not ts:
            return
        edges, perm = canonical_form(g)
        for t in ts:
            entry = classes.get((g.n, edges, t))
            if entry is not None and entry.direct is None:
                entry.direct = _needs_direct(entry.row, g, s_max, cap)
            if entry is None or entry.direct:
                row = check_instance(g, t, s_max=s_max, cap=cap)
                report.computed += 1
                if entry is None:
                    first_of = tuple(sorted(range(g.n), key=perm.__getitem__))
                    classes[g.n, edges, t] = _ClassEntry(row, first_of)
            else:
                row = _cached_row(entry, g, perm)
            report.rows.append(row)
            if _row_violations(row):
                report.disagreements.append(row)

    if graphs is not None:
        for g in graphs:
            run(g)
    else:
        for n in range(3, n_max + 1):
            for _code, g in connected_graphs(n):
                run(g)
    return report
