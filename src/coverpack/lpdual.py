"""Integer covering/packing duality for t-connected instances.

A is the vertex/t-subset incidence matrix of I_t(G) (columns = generator
supports), B the matrix whose columns are the exponent vectors of the
cover ideal generators.  For a weight vector alpha:

  tau(B, alpha) = min alpha.y  over y in N^n with B^T y >= 1,
  nu(B, alpha)  = max sum(z)   over z in N^r with B z <= alpha.

An optimal y for tau can be taken 0/1 (capping a feasible y at 1 keeps
every covering constraint satisfied, since B has 0/1 entries, and never
raises the cost), so tau branches over 0/1 vectors.  nu is an exhaustive
bounded DFS over the packing multiplicities.

`duality_gap_search` scans alpha in {0..entry_bound}^n ascending by
(sum, lex), reduced by the rotation action when the instance is a cycle,
and returns the first alpha with tau != nu.  It reads tau off the minimal
covers, which for B = cover_matrix(G, t) are the I_t(G) generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .graphs import Graph, classify_shape
from .ideals import DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, SizeLimitError
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
        """Per column, the 0-based rows holding a 1; built once per matrix."""
        return tuple(tuple(i for i, e in enumerate(c) if e) for c in self.columns)

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


def path_incidence_formula(n: int, t: int) -> ZeroOneMatrix:
    """Closed form for paths: column j has ones in rows j..j+t-1."""
    cols = []
    for j in range(1, n - t + 2):
        cols.append(tuple(1 if j <= i <= j + t - 1 else 0 for i in range(1, n + 1)))
    return ZeroOneMatrix(n, tuple(cols))


def cycle_incidence_formula(n: int, t: int) -> ZeroOneMatrix:
    """Closed form for cycles: column j has ones where (i - j) mod n < t.

    Needs t < n: at t = n all n windows coincide and the ideal is principal.
    """
    if not 2 <= t < n:
        raise ValueError(f"cycle incidence closed form needs 2 <= t < n, got t={t}, n={n}")
    cols = []
    for j in range(1, n + 1):
        cols.append(tuple(1 if (i - j) % n <= t - 1 else 0 for i in range(1, n + 1)))
    return ZeroOneMatrix(n, tuple(cols))


# ---------------------------------------------------------------------------
# exact integer programs

def tau(b: ZeroOneMatrix, alpha: Sequence[int]) -> int:
    """Exact covering optimum; branch and bound over 0/1 y."""
    if len(alpha) != b.n:
        raise ValueError("alpha length must match the row count")
    if any(x < 0 for x in alpha):
        raise ValueError("alpha must be nonnegative")
    col_masks = b.column_masks()
    if any(m == 0 for m in col_masks):
        raise ValueError("a zero column makes the covering program infeasible")
    n = b.n
    free = 0  # zero-cost variables can be taken unconditionally
    for i, w in enumerate(alpha):
        if w == 0:
            free |= 1 << i
    remaining = [m for m in col_masks if not m & free]
    best = sum(w for w in alpha)  # y = all-ones is feasible

    def lower_bound(uncovered: list[int]) -> int:
        used = 0
        lb = 0
        for m in uncovered:
            if not m & used:
                used |= m
                lb += min(alpha[i] for i in range(n) if m >> i & 1)
        return lb

    def bb(uncovered: list[int], cost: int):
        nonlocal best
        if not uncovered:
            if cost < best:
                best = cost
            return
        if cost + lower_bound(uncovered) >= best:
            return
        m = min(uncovered, key=lambda e: bin(e).count("1"))
        vs = sorted((i for i in range(n) if m >> i & 1), key=lambda i: alpha[i])
        for i in vs:
            bit = 1 << i
            bb([e for e in uncovered if not e & bit], cost + alpha[i])

    bb(remaining, 0)
    return best


def nu(b: ZeroOneMatrix, alpha: Sequence[int]) -> int:
    """Exact packing optimum: max sum(z), B z <= alpha, z in N^r."""
    if len(alpha) != b.n:
        raise ValueError("alpha length must match the row count")
    if any(x < 0 for x in alpha):
        raise ValueError("alpha must be nonnegative")
    cols = []
    for rows in b.column_rows:
        if not rows:
            raise ValueError("a zero column makes the packing program unbounded")
        # a column through a zero-capacity row can never be used
        if all(alpha[i] > 0 for i in rows):
            cols.append(rows)
    cols.sort(key=len)
    weights = [len(c) for c in cols]
    suffix_min_w = [0] * (len(cols) + 1)
    acc = 10 ** 9
    for i in range(len(cols) - 1, -1, -1):
        acc = min(acc, weights[i])
        suffix_min_w[i] = acc
    residual = list(alpha)
    total = sum(alpha)
    best = 0

    def dfs(i: int, count: int, left: int):
        nonlocal best
        if count > best:
            best = count
        if i == len(cols):
            return
        if count + left // suffix_min_w[i] <= best:
            return
        rows = cols[i]
        hi = min(residual[r] for r in rows)
        for z in range(hi, -1, -1):
            if z:
                for r in rows:
                    residual[r] -= z
                dfs(i + 1, count + z, left - z * len(rows))
                for r in rows:
                    residual[r] += z
            else:
                dfs(i + 1, count, left)

    dfs(0, 0, total)
    return best


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


def _min_cover_supports(g: Graph, t: int) -> list[tuple[int, ...]]:
    """Minimal 0/1 covers of cover_matrix(g, t), as 0-based row tuples.

    J_t(G) is the Alexander dual of I_t(G), so the minimal transversals of
    its generator supports are exactly the I_t(G) generator supports.
    """
    return [tuple(i for i in range(g.n) if m >> i & 1)
            for m in t_connected_ideal(g, t).support_masks()]


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
    # every feasible 0/1 y contains a minimal cover and alpha >= 0, so tau is
    # exactly the lightest minimal cover
    covers = _min_cover_supports(g, t)
    is_cycle = classify_shape(g) == "cycle" and g == _canonical_cycle(g.n)
    scanned = 0
    for alpha in _vectors_by_sum(n, entry_bound):
        if is_cycle and not _rotation_minimal(alpha, n):
            continue
        scanned += 1
        tv = min(sum(alpha[i] for i in c) for c in covers)
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
