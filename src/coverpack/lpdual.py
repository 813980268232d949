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
no transversal search runs for it.  nu is the library's one weighted
packing search, `max_packing`, over the generator supports as columns
(`_columns`).  It returns a count only, and its one stopping rule is a
`need` the count may reach: `tau_nu` passes tau, which by weak duality
nu never passes, and the gap search tau + 1, which keeps nu exact up to
tau and still shows a violation.  Both are private to this
module: neither check of the classification uses them (membership in J^s
is a bit-set test in `coverpack.duality`, and the Konig test's nu(1) a
search on support masks in `coverpack.packing`).
Neither value changes when B has duplicate or non-minimal columns (a
superset column's covering row is implied by its subset's, and in a
packing it can be swapped for its subset), so J's minimal generators
stand in for any 0/1 matrix.

`duality_gap_search` scans alpha in {0..entry_bound}^n ascending by
(sum, lex) and returns the first alpha with tau != nu.  On most graphs it
scans every vector (`_vectors_by_sum`); on the standard-labelled cycle(n)
it generates only the rotation-least one of each rotation class
(`_necklaces_by_sum`), and no other vector is built.  Its `scanned`
counts the alpha scanned up to that one, taken before the reflection and
reversal pruning below.  It builds J_t(G) once, square-free and proper
by construction, then evaluates tau directly, and only at an alpha that
is least in its orbit under the rotations and reflections of cycle(n) or
the reversal of path(n): tau and nu are constant on an orbit, so the rest
cannot hold the first gap.  It runs the packing search for nu only where tau does not
already decide it: nu(alpha) = tau(alpha) whenever the primes of weight
tau(alpha) miss a vertex (see `duality_gap_search`).  Both tests read one
int per alpha that packs every prime's weight in a field of its own
(`_weight_kernel`): tau is its least field, found by bisection with one add
and one mask per step, and the lightest primes are its fields equal to
tau.  That layout is private to this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from operator import mul
from typing import Optional, Sequence

from .graphs import Graph, cycle, path
from . import ideals
from .ideals import (MonomialIdeal, SizeLimitError, VerificationError,
                     _require_square_free_proper, mask_vars)
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


def max_packing(rows: Sequence[tuple[int, ...]], capacity: Sequence[int], need: int) -> int:
    """Largest sum(z) over z in N^r that packs the columns under `capacity`,
    counted up to `need`.

    Column j covers the rows in `rows[j]`, which must be nonempty and
    ordered by ascending size, so the remaining capacity over the size of
    column i bounds what columns i.. can still add.  Columns through a
    zero-capacity row are dropped first.  The search is depth first, larger
    multiplicities first, and its one stopping rule is the count reaching
    `need`: the count is exact below `need` and at least `need` otherwise.

    Skipping a column is a step of the search's loop, not a call, so the
    recursion nests one level per distinct column in the current packing;
    nesting past Python's recursion limit raises SizeLimitError.  So does a
    search past `DEFAULT_SCAN_CAP` steps of its column loop, read at call
    time.
    """
    zero = {i for i, x in enumerate(capacity) if not x}
    cols = [c for c in rows if zero.isdisjoint(c)] if zero else rows
    ncols = len(cols)
    residual = list(capacity)
    get = residual.__getitem__
    best = 0
    limit, steps = ideals.DEFAULT_SCAN_CAP, count(1)

    def dfs(i: int, count: int, left: int) -> bool:
        # True once the count reaches `need`; nothing reads `residual` then
        nonlocal best
        for i in range(i, ncols):
            if next(steps) > limit:
                raise SizeLimitError(f"packing search exceeds {limit} steps")
            c = cols[i]
            size = len(c)
            if count + left // size <= best:
                return False
            for z in range(min(map(get, c)), 0, -1):
                if count + z > best:
                    best = count + z
                    if best >= need:
                        return True
                for r in c:
                    residual[r] -= z
                if dfs(i + 1, count + z, left - z * size):
                    return True
                for r in c:
                    residual[r] += z
        return False

    try:
        dfs(0, 0, sum(capacity))
    except RecursionError:
        raise SizeLimitError("packing search nests past the recursion limit") from None
    return best


def _columns(j: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Per generator of J, the 0-based variables of its support, smallest
    supports first (a stable sort): the columns `max_packing` takes.  Not
    cached: every caller reads them once per ideal."""
    return tuple(sorted(map(mask_vars, j.support_masks()), key=len))


def tau(j: MonomialIdeal, alpha: Sequence[int]) -> int:
    """Exact covering optimum: the lightest minimal prime of J under alpha."""
    _check_program(j, alpha, "tau")
    return min(sum(alpha[i] for i in p) for p in _prime_rows(j))


def tau_nu(j: MonomialIdeal, alpha: Sequence[int]) -> tuple[int, int]:
    """(tau, nu) at alpha, with J and alpha checked once, by `tau`.

    Weak duality gives nu <= tau, so tau is the packing search's `need`: a
    search that reaches it has found nu = tau, and one that does not ran to
    the end.
    """
    cover = tau(j, alpha)
    return cover, max_packing(_columns(j), alpha, cover)


def nu(j: MonomialIdeal, alpha: Sequence[int]) -> int:
    """Exact packing optimum: max sum(z), B z <= alpha, z in N^r."""
    return tau_nu(j, alpha)[1]


@dataclass(frozen=True)
class GapSearchResult:
    """The first gap, or None fields when there is none.

    `scanned` counts the alpha the scan passed, up to and including the
    witness: on the standard-labelled cycle(n) the rotation classes, one
    generated alpha each, and every vector otherwise; counted before the
    reflection and reversal pruning.
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


def _necklaces_by_sum(n: int, bound: int):
    """The rotation-least alpha in {0..bound}^n, ascending by sum, then lex.

    One alpha per rotation class: exactly those with no rotation below
    them.  For each sum this runs the FKM prenecklace recursion
    (Fredricksen, Kessler & Maiorana; Ruskey, Savage & Wang, J. Algorithms
    13, 1992), which meets the necklaces in lex order: while `a[1..t-1]` is
    a prenecklace of period p (with `a[0] = 0` in front), `a[t]` runs up
    from `a[t - p]`, and the period becomes t when it exceeds that.  The sum
    still left bounds each entry from both sides, which keeps the order, and
    forces the last entry; a full prenecklace of period p is a necklace
    exactly when p divides n.
    """
    a = [0] * n
    level: list[tuple[int, ...]] = []

    def extend(t: int, p: int, rem: int):
        lo = a[t - p]
        for v in range(max(lo, rem - bound * (n - t)), min(bound, rem) + 1):
            a[t] = v
            q = p if v == lo else t
            left = rem - v
            if t + 1 < n:
                extend(t + 1, q, left)
            else:                                        # the last entry is `left`
                last = a[n - q]
                if left > last or left == last and n % q == 0:
                    level.append((*a[1:], left))

    for total in range(bound * n + 1):
        level = []
        if n > 1:
            extend(1, 1, total)
        else:
            level.append((total,))
        yield from level


def duality_gap_search(g: Graph, t: int, entry_bound: int) -> GapSearchResult:
    """First alpha in {0..entry_bound}^n (by sum, then lex) with tau != nu.

    When g is the standard-labelled cycle(n) the scan generates only the
    rotation-least alpha of each rotation class, and `scanned` counts those
    up to the witness; otherwise the scan and the count take every alpha.

    tau is evaluated only at an alpha that is least in its orbit under the
    symmetries of g that the search knows: the rotations and reflections of
    cycle(n), the reversal of path(n), and the identity on any other graph.
    An automorphism of g permutes the minimal primes of J_t(G) and its
    generators alike, so tau and nu are constant on an orbit.  Every member
    of an orbit has the same sum, so the orbit's least member comes first in
    scan order, and on a cycle it is rotation-least, so it is generated.  The
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

    Otherwise `max_packing` computes nu(alpha) with need tau(alpha) + 1:
    exactly when nu(alpha) <= tau(alpha), and above tau(alpha) on a
    weak-duality violation, which raises `VerificationError`.  The first
    gap is never settled by tau, so its nu is computed.  The argument holds
    on every graph, so the witness, tau, nu and `scanned` are those of the
    unpruned scan.

    tau and the test on its primes run on packed weights, in exact integer
    arithmetic: `_weight_kernel` gives each minimal prime a field wide
    enough for t * entry_bound plus a guard bit, once per call, and
    `_lightest` sums one table entry per variable of alpha into every
    prime's weight at once, then reads tau and the lightest primes off the
    guard bits.
    """
    if entry_bound < 1:
        raise ValueError("entry_bound must be >= 1")
    n = g.n
    space = (entry_bound + 1) ** n
    scan_cap = ideals.DEFAULT_SCAN_CAP
    if space > scan_cap:
        raise SizeLimitError(
            f"alpha space {space} exceeds scan cap {scan_cap}")
    j = cover_ideal(g, t)
    kernel = _weight_kernel(j.transversal_masks(), n, entry_bound)
    rows = _columns(j)
    is_cycle = n >= 3 and g == cycle(n)
    is_path = not is_cycle and g == path(n)
    scanned = 0
    scan = _necklaces_by_sum if is_cycle else _vectors_by_sum
    for alpha in scan(n, entry_bound):
        scanned += 1
        if is_cycle and _reflection_below(alpha) or is_path and alpha[::-1] < alpha:
            continue
        tv, covers_every = _lightest(kernel, alpha)
        if not covers_every:
            continue                                     # nu(alpha) = tau(alpha)
        nv = max_packing(rows, alpha, tv + 1)            # nu(j, alpha) when <= tv
        if nv > tv:
            raise VerificationError(f"weak duality violated at alpha={alpha}")
        if tv != nv:
            return GapSearchResult(alpha, tv, nv, scanned)
    return GapSearchResult(None, None, None, scanned)


def _weight_kernel(masks: Sequence[int], n: int, entry_bound: int):
    """The packed prime weights for alpha in {0..entry_bound}^n.

    Prime k gets a field of w bits: the low w - 1 hold the heaviest weight,
    `top`, and the top bit is a guard.  With H = 2^(w-1), returns:

      * `through[i]`: 1 in the field of every prime through variable i, so
        sum(map(mul, alpha, through), base) packs H - 1 plus each prime's
        weight;
      * `base`: H - 1 in every field;
      * `ones`: 1 in every field;
      * `top`;
      * `guard`: every guard bit;
      * `incidence[i]`: the guard bits of the primes through variable i.

    Subtracting m * ones, for m in 0..top, leaves a field's guard bit set
    exactly when its weight is above m, with no borrow or carry between
    fields: each field stays in H - 1 - top .. H - 1 + top, within 0..2H - 1.
    Nothing here grows with entry_bound but the field width.
    """
    top = entry_bound * max(map(int.bit_count, masks))
    w = top.bit_length() + 1
    ones = sum(1 << k * w for k in range(len(masks)))
    through = [sum(1 << k * w for k, m in enumerate(masks) if m >> i & 1) for i in range(n)]
    high = 1 << w - 1
    return through, (high - 1) * ones, ones, top, high * ones, [high * p for p in through]


def _lightest(kernel, alpha: tuple[int, ...]) -> tuple[int, bool]:
    """tau(J, alpha), and whether the minimal primes of weight tau cover
    every variable, on `_weight_kernel`'s packed weights.

    tau is the least m with a field at most m, found by bisection; the
    fields equal to tau are then those whose guard bit is clear.
    """
    through, base, ones, top, guard, incidence = kernel
    weights = sum(map(mul, alpha, through), base)
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi) >> 1
        if (weights - mid * ones) & guard != guard:
            hi = mid
        else:
            lo = mid + 1
    tight = guard & ~(weights - lo * ones)
    return lo, all(map(tight.__and__, incidence))


def _reflection_below(alpha: tuple[int, ...]) -> bool:
    """Whether a rotation of reversed alpha is below the rotation-least alpha.

    alpha[0] is least in alpha, so only a rotation that starts with alpha[0]
    can be below it.
    """
    a0, n = alpha[0], len(alpha)
    doubled = alpha[::-1] * 2
    for r in range(n):
        if doubled[r] == a0 and doubled[r:r + n] < alpha:
            return True
    return False
