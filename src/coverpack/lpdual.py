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
on J_t(G) are the I_t(G) supports (`alexander_dual` hands them over), so
no transversal search runs for it.  nu is the library's one packing
search, `coverpack.ideals.max_packing`, over `J.support_rows()`.
Neither value changes when B has duplicate or non-minimal columns (a
superset column's covering row is implied by its subset's, and in a
packing it can be swapped for its subset), so J's minimal generators
stand in for any 0/1 matrix.

`duality_gap_search` scans alpha in {0..entry_bound}^n ascending by
(sum, lex) and returns the first alpha with tau != nu.  Its `scanned`
counts the alpha up to that one, every alpha on most graphs but only the
rotation-minimal ones (one per rotation class) on the standard-labelled
cycle(n); the count is taken before the orbit pruning below.  It builds
J_t(G) and checks it once, then evaluates tau directly, and only at an
alpha that is least in its orbit under the rotations and reflections of
cycle(n) or the reversal of path(n): tau and nu are constant on an orbit,
so the rest cannot hold the first gap.  It runs the packing search for nu
only where tau does not already decide it: nu(alpha) = tau(alpha) whenever
the primes of weight tau(alpha) miss a vertex (see `duality_gap_search`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, product
from operator import itemgetter, or_
from typing import Optional, Sequence

from .graphs import Graph, cycle, path
from .ideals import (DEFAULT_GEN_CAP, DEFAULT_SCAN_CAP, MonomialIdeal, SizeLimitError,
                     _require_square_free_proper, mask_vars, max_packing)
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
    return [mask_vars(m) for m in j.transversal_masks()]


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
    """The first gap, or None fields when there is none.

    `scanned` counts the alpha the scan passed, up to and including the
    witness: the rotation classes on the standard-labelled cycle(n), every
    vector otherwise, counted before orbit pruning.
    """

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
    """Every alpha in {0..bound}^n, ascending by sum, then lexicographic.

    alpha is a prefix of floor(n/2) entries followed by a suffix of the
    rest.  For a fixed sum, running the prefixes in lex order and following
    each by the suffixes of the complementary sum in lex order is lex order,
    so two tables of at most (bound+1)^ceil(n/2) tuples replace a depth-n
    recursion.
    """
    half = n // 2
    values = range(bound + 1)
    prefixes = [(p, sum(p)) for p in product(values, repeat=half)]
    top = bound * (n - half)
    suffixes: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    for s in product(values, repeat=n - half):
        suffixes[sum(s)].append(s)
    for total in range(bound * n + 1):
        for p, ps in prefixes:
            if 0 <= total - ps <= top:
                yield from map(p.__add__, suffixes[total - ps])


def duality_gap_search(g: Graph, t: int, entry_bound: int,
                       scan_cap: int = DEFAULT_SCAN_CAP,
                       gen_cap: int = DEFAULT_GEN_CAP) -> GapSearchResult:
    """First alpha in {0..entry_bound}^n (by sum, then lex) with tau != nu.

    `scanned` counts the rotation-minimal alpha up to the witness when g is
    the standard-labelled cycle(n), and every alpha up to it otherwise.

    tau is evaluated only at an alpha that is least in its orbit under the
    symmetries of g that the search knows: the rotations and reflections of
    cycle(n), the reversal of path(n), and the identity on any other graph.
    An automorphism of g permutes the minimal primes of J_t(G) and its
    generators alike, so tau and nu are constant on an orbit.  Every member
    of an orbit has the same sum, so the orbit's least member comes first in
    scan order, and on a cycle it is rotation-minimal, so it is scanned.  The
    search stops at the first gap; an alpha it skips therefore shares its
    orbit with an earlier alpha that was evaluated and had no gap, and has
    none either.  So no alpha before the current one has a gap.

    At an evaluated alpha, nu runs only where tau cannot settle it:

      * nu never falls when capacity rises (a packing under alpha - e_i fits
        under alpha), so nu(alpha) >= nu(alpha - e_i);
      * when alpha_i > 0, alpha - e_i is in the box and has a smaller sum, so
        the scan passed it and nu(alpha - e_i) = tau(alpha - e_i);
      * tau(alpha - e_i) = tau(alpha) exactly when variable i lies in no
        prime of weight tau(alpha): the primes through i lose 1 and the
        others keep their weight;
      * so if some i with alpha_i > 0 lies in no prime of weight tau(alpha),
        then nu(alpha) >= nu(alpha - e_i) = tau(alpha - e_i) = tau(alpha),
        and weak duality gives nu(alpha) = tau(alpha): no gap.

    On a connected graph, the only kind `cover_ideal` accepts, that holds
    exactly when the primes of weight tau(alpha) miss some vertex, which is
    the test the loop makes.  The minimal primes of J_t(G) are the connected
    t-sets.  Suppose the lightest ones cover every i with alpha_i > 0 but
    miss a vertex u, so alpha_u = 0.  Take a lightest prime P nearest to u,
    and v the vertex after P on a shortest path from P to u.  If alpha_v > 0,
    v lies in a lightest prime, which is nearer to u than P.  If alpha_v = 0,
    the connected set P + v has a spanning tree with a leaf w other than v,
    and P + v - w is a connected t-set of weight at most tau(alpha): a
    lightest prime through v, so through u or nearer to it than P.  Either
    way the choice of P is contradicted.

    Otherwise `max_packing` computes nu(alpha) exactly, as `nu` does, and a
    weak-duality violation raises `VerificationError`.  The first gap is
    never settled by tau, so its nu is computed.  The argument holds on every
    graph, so the witness, tau, nu and `scanned` are those of the unpruned
    scan.
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
    # t >= 2, so every getter returns a tuple
    getters = [itemgetter(*p) for p in _prime_rows(j)]
    masks = j.transversal_masks()
    every = (1 << n) - 1
    rows = j.support_rows()
    is_cycle = n >= 3 and g == cycle(n)
    is_path = not is_cycle and g == path(n)
    scanned = 0
    for alpha in _vectors_by_sum(n, entry_bound):
        if is_cycle:
            # the rotation that starts at a smaller entry than alpha[0] is below it
            if alpha[0] > min(alpha) or _rotation_below(alpha, alpha, 1):
                continue
            scanned += 1
            if _rotation_below(alpha, alpha[::-1], 0):
                continue
        else:
            scanned += 1
            if is_path and alpha[::-1] < alpha:
                continue
        tv, tight = _lightest(getters, masks, alpha)
        if tight != every:
            continue                                     # nu(alpha) = tau(alpha)
        nv = max_packing(rows, alpha)[0]                 # nu(j, alpha)
        if nv > tv:
            raise VerificationError(f"weak duality violated at alpha={alpha}")
        if tv != nv:
            return GapSearchResult(alpha, tv, nv, scanned)
    return GapSearchResult(None, None, None, scanned)


def _lightest(getters: list[itemgetter], masks: tuple[int, ...],
              alpha: tuple[int, ...]) -> tuple[int, int]:
    """tau(J, alpha) and the union of the minimal primes of weight tau.

    `getters[k]` reads the entries of alpha on the prime with mask `masks[k]`.
    """
    weights = [sum(get(alpha)) for get in getters]
    tv = min(weights)
    return tv, reduce(or_, compress(masks, map(tv.__eq__, weights)))


def _rotation_below(alpha: tuple[int, ...], seq: tuple[int, ...], first: int) -> bool:
    """Whether a rotation of `seq` by `first`..n-1 places is below alpha.

    alpha[0] must be least in alpha, so only a rotation that starts with
    alpha[0] can be below it.
    """
    a0, n = alpha[0], len(alpha)
    doubled = seq + seq
    for r in range(first, n):
        if doubled[r] == a0 and doubled[r:r + n] < alpha:
            return True
    return False
