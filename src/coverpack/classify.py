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
(n, canonical edges), with the canonical form of `coverpack.canon`, for the
length of one call, and runs `check_instance` once per (class, t) on one
labelling of the class: its canonical graph renumbered depth first from
vertex 1, lower labels first (`_renumbered`), which is path(n) for a path
and cycle(n) for a cycle.  Let F be the generators of J^(s) outside J^s at
the first failing s.  Those of sigma(J)^(s) are sigma(F), so the witness of
labelling sigma, the first of them in (degree, exponent tuple) order, is
min sigma(F).  Relabelling keeps degrees, so only the least-degree members
of F are needed, and the class's fold already found them: they are the
failures of its Simis check, which the row carries.  Every row, the first
labelling's included, relabels that set, sorts it and takes its first
member as the witness.

Under a cap.  Where a row aborts depends on the labelling: the fold's
intermediate sizes follow the order of the minimal primes, and the packing
scan memo the order of the variables.  A row of `verify_theorem` is its
class's outcome on the renumbered labelling, so every labelling of a class
gets the same outcome; `check_instance` on the labelling itself can abort
where that row does not, or the reverse.

One packing-scan memo.  `verify_theorem` hands one memo to every
`check_instance` call it makes, so a scan reads the subtrees earlier rows
already scanned (see `coverpack.packing`): a path's or cycle's scan meets
the previous path's at x_n = 1.  Verdicts and witnesses do not depend on
it.  The scan guard bounds the entries each row adds, and a memo that
reached the cap is emptied before the next row, so under a small
`DEFAULT_SCAN_CAP` whether a row trips depends on the rows computed before
it, unlike the generator cap, whose outcome is the class's alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .canon import canonical_form
from .duality import simis_check
from .graphs import Graph, classify_shape, encode_graph6, is_bipartite, is_connected
from .ideals import Monomial, SizeLimitError, monomial_str
from .packing import PACKED_CYCLES, is_packed
from .tconn import cover_ideal


@dataclass(frozen=True)
class Classification:
    verdict: bool
    case: str          # "n_equals_t" | "path" | "cycle_special" | "bipartite" | "no"


def theorem_classification(g: Graph, t: int) -> Classification:
    """Predicted packed/Simis verdict for J_t(G); t = 2 uses the bipartite rule."""
    n = g.n
    if not (2 <= t <= n):
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    if not is_connected(g):
        raise ValueError("classification needs a connected graph")
    if t == 2:
        if is_bipartite(g):
            return Classification(True, "bipartite")
        return Classification(False, "no")
    if n == t:
        return Classification(True, "n_equals_t")     # J is the maximal ideal
    shape = classify_shape(g)
    if shape == "path":
        return Classification(True, "path")
    if shape == "cycle" and (n, t) in PACKED_CYCLES:
        return Classification(True, "cycle_special")
    return Classification(False, "no")


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
    # check_instance calls, one per (isomorphism class, t); not part of the
    # report
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
                   memo: Optional[dict] = None) -> HarnessRow:
    """One harness row: prediction, packing verdict, bounded Simis check.

    Past `DEFAULT_GEN_CAP` in the dualization or the symbolic-power fold the
    row's Simis verdict is "aborted", with `packed` None when the
    dualization itself stopped; the packing scan's guard propagates.
    `memo` is handed to `is_packed`, which reads and extends it.
    """
    bound = t if s_max is None else s_max
    cls = theorem_classification(g, t)
    packed, verdict, s, wit, failures = None, "aborted", None, None, ()
    try:
        ideal = cover_ideal(g, t)
    except SizeLimitError:
        ideal = None            # too many minimal covers: packed stays None
    if ideal is not None:
        # the fold first, so its working set is gone before this row's scan
        # adds its entries to a shared memo
        try:
            rep = simis_check(ideal, bound)
            verdict, s, wit, failures = rep.verdict, rep.s, rep.witness, rep.failures
        except SizeLimitError:
            pass
        packed = is_packed(ideal, memo).packed
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
    return row.simis_verdict == "witness_at" and row.packed


def _renumbered(n: int, edges: Iterable[tuple[int, int]]) -> tuple[Graph, tuple[int, ...]]:
    """The graph on `edges` renumbered depth first from vertex 1, lower
    labels first, and per vertex v its new 0-based label at v - 1."""
    g = Graph(n, edges)
    label = [-1] * n
    order = 0
    for root in range(n):       # each component in turn
        stack = [root]
        while stack:
            v = stack.pop()
            if label[v] < 0:
                label[v] = order
                order += 1
                stack += [u for u in range(n - 1, -1, -1) if g.adj[v] >> u & 1]
    return Graph(n, [(label[u - 1] + 1, label[v - 1] + 1) for u, v in g.edges]), tuple(label)


def _relabelled(row: HarnessRow, graph6: str, relabel) -> HarnessRow:
    """`row` for the labelling with this graph6 string, whose exponent
    tuples `relabel` reads off the row's."""
    # one degree, so exponent-tuple order is canonical order
    failures = tuple(sorted(map(relabel, row.failures)))
    wit = monomial_str(failures[0]) if failures else None
    return HarnessRow(graph6, row.n, row.t, row.predicted, row.case, row.packed,
                      row.simis_verdict, row.simis_s, wit, failures)


def verify_theorem(n_max: int, t_min: int = 3, t_max: Optional[int] = None,
                   s_max: Optional[int] = None,
                   graphs: Optional[Iterable[Graph]] = None) -> HarnessReport:
    """Compare prediction against computation over a graph family.

    With graphs=None, every connected labelled graph with 3 <= n <= n_max is
    enumerated; rows are ordered by (n, edge-subset code, t).  s_max=None
    bounds each Simis check by the instance's own t.  check_instance runs
    once per (isomorphism class, t), on one labelling of the class, and
    every row is read off that one (see the module docstring).  So a row
    depends only on its own graph, and every labelling of a class shares its
    outcome: under a cap they all abort or none does.  A row equals
    check_instance's on its own graph unless one of the two aborted.
    The classification starts at t = 3, so t_min below 3 raises ValueError.
    The packing scans of one call share a memo, and `DEFAULT_SCAN_CAP`
    bounds the entries each row's scan adds to it; so whether a run trips
    the scan cap depends on the rows computed before the one that trips.
    """
    if t_min < 3:
        raise ValueError(f"t_min must be at least 3, got {t_min}")
    report = HarnessReport()
    # (n, canonical edges) -> (the renumbered labels, one row per t)
    classes: dict[tuple, tuple[tuple[int, ...], list[HarnessRow]]] = {}
    # the packing scans' memo, one for every row of the call
    memo: dict = {}

    def run(g: Graph):
        hi = min(g.n, t_max) if t_max is not None else g.n
        ts = range(t_min, hi + 1)
        if not ts:
            return
        edges, perm = canonical_form(g)
        entry = classes.get((g.n, edges))
        if entry is None:
            h, label = _renumbered(g.n, edges)
            entry = classes[g.n, edges] = label, [check_instance(h, t, s_max, memo)
                                                  for t in ts]
            report.computed += len(ts)
        label, rows = entry
        # vertex v of g is the vertex of h with the same canonical label
        relabel = itemgetter(*[label[c - 1] for c in perm])
        graph6 = encode_graph6(g)
        for row in rows:
            row = _relabelled(row, graph6, relabel)
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
