"""Classification of packed / Simis cover ideals J_t(G) and the exhaustive
verification harness.

For t >= 3 and connected G on n >= t vertices, J_t(G) is packed (equivalently
Simis) exactly when

  * n = t, or
  * G is a path, or
  * G is a cycle and (t, n) is one of (3, 3), (3, 6), (3, 9), (4, 4), (4, 8),
    or t >= 5 with n = t.

For t = 2 the rule is different in kind: J_2(G) is Simis iff G is bipartite;
classification requests with t = 2 are routed there and tagged as such.

The harness enumerates every connected labelled graph on up to n_max
vertices (edge subsets filtered by connectivity), computes the packing
verdict and a bounded Simis check for each admissible t, and compares
against the prediction.  Packing is the decisive check; a Simis witness is
recorded when one appears within the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .duality import SimisReport, simis_check
from .graphs import Graph, classify_shape, encode_graph6, is_bipartite, is_connected
from .ideals import DEFAULT_GEN_CAP, SizeLimitError, monomial_str
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
    packed: bool
    simis_verdict: str            # "equal_up_to" | "witness_at" | "aborted"
    simis_s: Optional[int]
    simis_witness: Optional[str]

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
    """One harness row: prediction, packing verdict, bounded Simis check."""
    bound = t if s_max is None else s_max
    cls = theorem_classification(g, t)
    ideal = cover_ideal(g, t)
    packed = is_packed(ideal).packed
    try:
        rep = simis_check(ideal, bound, cap=cap)
        verdict, s, wit = rep.verdict, rep.s, rep.witness
    except SizeLimitError:
        verdict, s, wit = "aborted", None, None
    return HarnessRow(
        graph6=encode_graph6(g), n=g.n, t=t,
        predicted=cls.verdict, case=cls.case, packed=packed,
        simis_verdict=verdict, simis_s=s,
        simis_witness=monomial_str(wit) if wit is not None else None,
    )


def _row_violations(row: HarnessRow) -> bool:
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


def verify_theorem(n_max: int, t_min: int = 3, t_max: Optional[int] = None,
                   s_max: Optional[int] = None, graphs: Optional[Iterable[Graph]] = None,
                   cap: int = DEFAULT_GEN_CAP) -> HarnessReport:
    """Compare prediction against computation over a graph family.

    With graphs=None, every connected labelled graph with 3 <= n <= n_max is
    enumerated; rows are ordered by (n, edge-subset code, t).  s_max=None
    bounds each Simis check by the instance's own t.
    """
    report = HarnessReport()

    def run(g: Graph):
        hi = min(g.n, t_max) if t_max is not None else g.n
        for t in range(max(3, t_min), hi + 1):
            row = check_instance(g, t, s_max=s_max, cap=cap)
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
