"""Integer covering/packing duality for t-connected instances.

A is the vertex/t-subset incidence matrix of I_t(G) (columns = generator
supports), B the matrix whose columns are the exponent vectors of the
cover ideal generators.  For a weight vector alpha:

  tau(B, alpha) = min alpha.y  over y in N^n with B^T y >= 1,
  nu(B, alpha)  = max sum(z)   over z in N^r with B z <= alpha.

An optimal y for tau can be taken 0/1 (capping a feasible y at 1 keeps
every covering constraint satisfied, since B has 0/1 entries, and never
raises the cost), and since alpha >= 0 it can be taken inclusion-minimal.
So tau is the least alpha-weight of a minimal cover: a minimal transversal
of the column supports, enumerated once per matrix by the MMCS search of
`coverpack.ideals.minimal_transversals`.  For B = cover_matrix(G, t) those
covers are the I_t(G) generators, since J_t(G) is their Alexander dual.
nu is the library's one packing search, `coverpack.ideals.max_packing`,
run exactly over the columns cached on the matrix.

`duality_gap_search` scans alpha in {0..entry_bound}^n ascending by
(sum, lex), reduced by the rotation action when the instance is a cycle,
and returns the first alpha with tau != nu.  It reads tau off the same
cached covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .graphs import Graph, classify_shape
from .ideals import (DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, SizeLimitError, max_packing,
                     minimal_transversals)
from .packing import VerificationError
from .tconn import cover_ideal, t_connected_ideal


@dataclass(frozen=True)
class ZeroOneMatrix:
    """0/1 matrix stored column-wise; rows are variables 1..n."""
    n: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for c in self.columns:
            if len(c) != self.n or any(e not in (0, 1) for e in c):
                raise ValueError("columns must be 0/1 vectors of length n")

    @property
    def r(self) -> int:
        return len(self.columns)

    @cached_property
    def column_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per column, the 0-based rows holding a 1, shortest columns first
        (a stable sort): the columns `max_packing` takes, built once."""
        return tuple(sorted(
            (tuple(i for i, e in enumerate(c) if e) for c in self.columns), key=len))

    @cached_property
    def min_covers(self) -> tuple[tuple[int, ...], ...]:
        """The inclusion-minimal 0/1 y with B^T y >= 1, as 0-based row tuples;
        one MMCS search per matrix."""
        if self.column_rows and not self.column_rows[0]:
            raise ValueError("a zero column makes the covering program infeasible")
        return tuple(tuple(i for i in range(self.n) if m >> i & 1)
                     for m in minimal_transversals(self.column_masks(), self.n))

    def column_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << i for i, e in enumerate(c) if e) for c in self.columns)

    def row_strings(self) -> list[str]:
        return ["".join(str(c[i]) for c in self.columns) for i in range(self.n)]

    def to_json(self) -> dict:
        return {"rows": self.n, "cols": self.r, "row_strings": self.row_strings()}


def incidence_matrix(g: Graph, t: int) -> ZeroOneMatrix:
    """Columns = supports of the I_t(G) generators, in canonical ideal order."""
    ideal = t_connected_ideal(g, t)
    return ZeroOneMatrix(g.n, tuple(tuple(gen) for gen in ideal.gens))


def cover_matrix(g: Graph, t: int, cap: int = DEFAULT_GEN_CAP) -> ZeroOneMatrix:
    """Columns = exponent vectors of the J_t(G) generators (at most `cap`)."""
    ideal = cover_ideal(g, t, cap=cap)
    return ZeroOneMatrix(g.n, tuple(tuple(gen) for gen in ideal.gens))


# ---------------------------------------------------------------------------
# exact integer programs

def _check_alpha(b: ZeroOneMatrix, alpha: Sequence[int]):
    if len(alpha) != b.n:
        raise ValueError("alpha length must match the row count")
    if any(x < 0 for x in alpha):
        raise ValueError("alpha must be nonnegative")


def tau(b: ZeroOneMatrix, alpha: Sequence[int]) -> int:
    """Exact covering optimum: the lightest minimal cover under alpha."""
    _check_alpha(b, alpha)
    return min(sum(alpha[i] for i in c) for c in b.min_covers)


def nu(b: ZeroOneMatrix, alpha: Sequence[int]) -> int:
    """Exact packing optimum: max sum(z), B z <= alpha, z in N^r."""
    _check_alpha(b, alpha)
    if b.column_rows and not b.column_rows[0]:
        raise ValueError("a zero column makes the packing program unbounded")
    return max_packing(b.column_rows, alpha)


@dataclass(frozen=True)
class GapSearchResult:
    witness: Optional[tuple[int, ...]]
    tau: Optional[int]
    nu: Optional[int]
    scanned: int

    def to_json(self) -> dict:
        return {
            "witness": list(self.witness) if self.witness else None,
            "tau": self.tau,
            "nu": self.nu,
            "scanned": self.scanned,
        }


def _vectors_by_sum(n: int, bound: int):
    # ascending by total, then lexicographic
    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        for v in range(min(bound, remaining) + 1):
            if remaining - v > bound * (slots - 1):
                continue
            prefix.append(v)
            yield from rec(prefix, remaining - v, slots - 1)
            prefix.pop()

    for total in range(bound * n + 1):
        yield from rec([], total, n)


def duality_gap_search(g: Graph, t: int, entry_bound: int,
                       scan_cap: int = DEFAULT_SCAN_CAP,
                       gen_cap: int = DEFAULT_GEN_CAP) -> GapSearchResult:
    """First alpha in {0..entry_bound}^n (by sum, then lex) with tau != nu.

    Cycle instances are reduced by the rotation action: only the lexicographic
    minimum of each rotation orbit is evaluated, which is also the first orbit
    member in scan order, so the reported witness is still the global first.
    """
    if entry_bound < 1:
        raise ValueError("entry_bound must be >= 1")
    n = g.n
    space = (entry_bound + 1) ** n
    if space > scan_cap:
        raise SizeLimitError(
            f"alpha space {space} exceeds scan cap {scan_cap}")
    b = cover_matrix(g, t, cap=gen_cap)
    covers = b.min_covers
    is_cycle = classify_shape(g) == "cycle" and g == _canonical_cycle(g.n)
    scanned = 0
    for alpha in _vectors_by_sum(n, entry_bound):
        if is_cycle and not _rotation_minimal(alpha, n):
            continue
        scanned += 1
        tv = min(sum(alpha[i] for i in c) for c in covers)   # tau(b, alpha)
        nv = nu(b, alpha)
        if nv > tv:
            raise VerificationError(f"weak duality violated at alpha={alpha}")
        if tv != nv:
            return GapSearchResult(tuple(alpha), tv, nv, scanned)
    return GapSearchResult(None, None, None, scanned)


def _canonical_cycle(n: int) -> Graph:
    from .graphs import cycle
    return cycle(n)


def _rotation_minimal(alpha: tuple[int, ...], n: int) -> bool:
    for r in range(1, n):
        rot = alpha[r:] + alpha[:r]
        if rot < alpha:
            return False
    return True
