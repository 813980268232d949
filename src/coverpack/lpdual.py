"""Integer covering/packing duality for t-connected instances.

Let J be a square-free monomial ideal in n variables and B the 0/1 matrix
whose columns are the supports of its minimal generators; for
J = cover_ideal(G, t) that is J_t(G).  For a weight vector alpha:

  tau(J, alpha) = min alpha.y  over y in N^n with B^T y >= 1,
  nu(J, alpha)  = max sum(z)   over z in N^r with B z <= alpha.

Both are read off the ideal itself, with no second copy of its supports.
An optimal y for tau can be taken 0/1 (capping a feasible y at 1 keeps
every covering constraint satisfied, since B has 0/1 entries, and never
raises the cost), and since alpha >= 0 it can be taken inclusion-minimal.
So tau is the least alpha-weight of a minimal transversal of the supports,
that is of a minimal prime of J: `MonomialIdeal.transversal_masks`, which
`cover_ideal` seeds with the I_t(G) supports (J_t(G) is their Alexander
dual), so no transversal search runs for it.  nu is the library's one
packing search, `coverpack.ideals.max_packing`, over `J.support_rows()`.
Neither value changes when B has duplicate or non-minimal columns (a
superset column's covering row is implied by its subset's, and in a
packing it can be swapped for its subset), so J's minimal generators
stand in for any 0/1 matrix.

`duality_gap_search` scans alpha in {0..entry_bound}^n ascending by
(sum, lex), reduced by the rotation action when the instance is a cycle,
and returns the first alpha with tau != nu.  It builds J_t(G) and checks
it once, then evaluates both programs directly for every alpha: going
through `tau` and `nu` would re-check the ideal (the square-free test
walks every generator) once per scanned alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .duality import _require_square_free_proper
from .graphs import Graph, classify_shape, cycle
from .ideals import (DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, MonomialIdeal, SizeLimitError,
                     max_packing)
from .packing import VerificationError
from .tconn import cover_ideal


def _check_program(j: MonomialIdeal, alpha: Sequence[int], what: str):
    _require_square_free_proper(j, what)
    if len(alpha) != j.n:
        raise ValueError("alpha length must match the row count")
    if any(x < 0 for x in alpha):
        raise ValueError("alpha must be nonnegative")


def _prime_rows(j: MonomialIdeal) -> list[tuple[int, ...]]:
    """The 0-based variables of each minimal prime of J."""
    return [tuple(i for i in range(j.n) if m >> i & 1) for m in j.transversal_masks()]


def tau(j: MonomialIdeal, alpha: Sequence[int]) -> int:
    """Exact covering optimum: the lightest minimal prime of J under alpha."""
    _check_program(j, alpha, "tau")
    return min(sum(alpha[i] for i in p) for p in _prime_rows(j))


def nu(j: MonomialIdeal, alpha: Sequence[int]) -> int:
    """Exact packing optimum: max sum(z), B z <= alpha, z in N^r."""
    _check_program(j, alpha, "nu")
    return max_packing(j.support_rows(), alpha)[0]


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
    j = cover_ideal(g, t, cap=gen_cap)
    _require_square_free_proper(j, "duality_gap_search")
    primes, rows = _prime_rows(j), j.support_rows()
    is_cycle = classify_shape(g) == "cycle" and g == cycle(g.n)
    scanned = 0
    for alpha in _vectors_by_sum(n, entry_bound):
        if is_cycle and not _rotation_minimal(alpha, n):
            continue
        scanned += 1
        tv = min(sum(alpha[i] for i in p) for p in primes)   # tau(j, alpha)
        nv = max_packing(rows, alpha)[0]                     # nu(j, alpha)
        if nv > tv:
            raise VerificationError(f"weak duality violated at alpha={alpha}")
        if tv != nv:
            return GapSearchResult(tuple(alpha), tv, nv, scanned)
    return GapSearchResult(None, None, None, scanned)


def _rotation_minimal(alpha: tuple[int, ...], n: int) -> bool:
    for r in range(1, n):
        rot = alpha[r:] + alpha[:r]
        if rot < alpha:
            return False
    return True
