"""Independent reference implementations used only by the tests.

`symbolic_power_tuples` is the exponent-tuple fold that the packed fold in
`coverpack.duality` replaced: it folds the minimal-prime powers one prime at
a time and reduces every intermediate candidate list with `minimalize`.
`tau_enum` and `minimal_solutions` scan all 2^n 0/1 vectors, independently
of the branch and bound in `coverpack.lpdual.tau` and of the transversal
search behind `cover_ideal`.  `filtered_minimal_transversals` is the
enumerate-then-filter recursion that the MMCS search in
`coverpack.ideals.minimal_transversals` replaced; together with
`coverpack.ideals.brute_minimal_transversals` (a scan of all 2^n subsets)
it is the second oracle for that search.  `flat_is_packed` is the odometer
scan that the memoised depth-first scan in `coverpack.packing.is_packed`
replaced: it restricts the supports to every one of the 3^n minors in
ternary-code order and runs the Konig search on each.
`branching_subset_witness` finds connected (t+1)-subsets with three or more
non-cut vertices; only the tests use it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from coverpack.duality import minimal_primes
from coverpack.graphs import Graph, connected_induced_subsets, is_connected_subset
from coverpack.ideals import DEFAULT_GEN_CAP, Monomial, MonomialIdeal, SizeLimitError, minimalize, power
from coverpack.lpdual import ZeroOneMatrix
from coverpack.packing import (PackingReport, PackingWitness, _konig_masks, minor_from_code,
                               restrict)


def prime_power_weight(m: Monomial, prime_vars: Sequence[int]) -> int:
    """Total exponent of m on the variables of one minimal prime."""
    return sum(m[v - 1] for v in prime_vars)


def in_symbolic_shortcut(m: Monomial, primes: Sequence[Sequence[int]], s: int) -> bool:
    """Membership in I^(s) via per-prime exponent sums (no intersection built)."""
    return all(prime_power_weight(m, p) >= s for p in primes)


def _compositions(total: int, k: int):
    # all k-tuples of nonnegative ints summing to `total`
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def prime_power_gens(n: int, prime_vars: Sequence[int], s: int) -> list[Monomial]:
    gens = []
    for comp in _compositions(s, len(prime_vars)):
        m = [0] * n
        for v, e in zip(prime_vars, comp):
            m[v - 1] = e
        gens.append(tuple(m))
    return gens


def symbolic_power_tuples(a: MonomialIdeal, s: int, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """I^(s) by the exponent-tuple fold over the minimal primes."""
    if s == 1:
        return a
    if all(sum(g) == 1 for g in a.gens) or len(a.gens) == 1:
        return power(a, s, cap=cap)
    primes = sorted(minimal_primes(a), key=lambda p: (len(p), p))
    current = prime_power_gens(a.n, primes[0], s)
    for p in primes[1:]:
        cands: list[Monomial] = []
        idx = [v - 1 for v in p]
        for g in current:
            w = sum(g[i] for i in idx)
            if w >= s:
                cands.append(g)
            else:
                for comp in _compositions(s - w, len(p)):
                    gg = list(g)
                    for i, e in zip(idx, comp):
                        gg[i] += e
                    cands.append(tuple(gg))
        if len(cands) > cap:
            raise SizeLimitError(
                f"symbolic power intermediate size {len(cands)} exceeds cap {cap}")
        current = list(minimalize(a.n, cands).gens)
    return minimalize(a.n, current)


def tau_enum(b: ZeroOneMatrix, alpha: Sequence[int]) -> int:
    """Minimise alpha.y over every 0/1 y with B^T y >= 1, by scanning all 2^n."""
    n = b.n
    masks = b.column_masks()
    return min(sum(alpha[i] for i in range(n) if y >> i & 1)
               for y in range(1 << n) if all(y & m for m in masks))


def minimal_solutions(a: ZeroOneMatrix) -> ZeroOneMatrix:
    """Componentwise-minimal 0/1 solutions of A^T x >= 1, by subset scan.

    Feasible sets are upward closed, so x is minimal iff dropping any single
    1 breaks feasibility.  Independent of the transversal recursion used by
    the cover-ideal route, which is the point: the two must agree.
    """
    n = a.n
    if n > 20:
        raise SizeLimitError("minimal_solutions subset scan capped at n <= 20")
    col_masks = a.column_masks()
    if any(m == 0 for m in col_masks):
        raise ValueError("a zero column makes the covering program infeasible")
    feasible = [x for x in range(1 << n) if all(x & m for m in col_masks)]
    fset = set(feasible)
    sols = []
    for x in feasible:
        m = x
        minimal = True
        while m:
            low = m & -m
            if (x ^ low) in fset:
                minimal = False
                break
            m ^= low
        if minimal:
            sols.append(x)
    sols.sort(key=lambda x: (bin(x).count("1"), tuple(1 if x >> i & 1 else 0 for i in range(n))))
    return ZeroOneMatrix(n, tuple(tuple(1 if x >> i & 1 else 0 for i in range(n)) for x in sols))


def filtered_minimal_transversals(edge_masks: Sequence[int], n: int) -> list[int]:
    """Inclusion-minimal hitting sets of the given nonempty supports, as masks.

    Recursive branching on the first uncovered support; earlier branch
    vertices are excluded downstream, and a final antichain filter removes
    the non-minimal leftovers.
    """
    edges = sorted(set(edge_masks), key=lambda e: (bin(e).count("1"), e))
    if any(e == 0 for e in edges):
        raise ValueError("empty support has no transversal")
    found: set[int] = set()

    def rec(chosen: int, remaining: tuple[int, ...], excluded: int):
        if not remaining:
            found.add(chosen)
            return
        e = remaining[0]
        branchable = e & ~excluded
        seen = 0
        m = branchable
        while m:
            low = m & -m
            m ^= low
            rec(chosen | low,
                tuple(f for f in remaining if not f & low),
                excluded | seen)
            seen |= low
        # branches where e is hit only by an excluded vertex die here: those
        # transversals are produced by the branch that excluded the vertex

    rec(0, tuple(edges), 0)
    # antichain filter
    out = sorted(found, key=lambda t: (bin(t).count("1"), t))
    minimal: list[int] = []
    for t in out:
        if not any(t & s == s for s in minimal):
            minimal.append(t)
    return minimal


def _ternary_minor_masks(n: int) -> Iterator[tuple[int, int, int]]:
    # yields (code, zeros_mask, ones_mask) in ascending code order via odometer
    digits = [0] * n
    zeros = ones = 0
    total = 3 ** n
    yield 0, 0, 0
    for code in range(1, total):
        i = 0
        while True:
            bit = 1 << i
            d = digits[i]
            if d == 0:
                digits[i] = 1
                zeros |= bit
                break
            if d == 1:
                digits[i] = 2
                zeros &= ~bit
                ones |= bit
                break
            digits[i] = 0
            ones &= ~bit
            i += 1
        yield code, zeros, ones


def flat_is_packed(a: MonomialIdeal) -> PackingReport:
    """Scan all 3^n minors in ternary-counter order; stop at the first failure."""
    if a.is_zero or a.is_unit:
        raise ValueError("packing needs a proper nonzero ideal")
    if not a.is_square_free:
        raise ValueError("packing is set up for square-free ideals")
    n = a.n
    masks = a.support_masks()
    # a variable-generated ideal only ever restricts to variable-generated,
    # unit or zero ideals, all vacuously Konig
    if all(bin(m).count("1") == 1 for m in masks):
        return PackingReport(True, 0, None)
    scanned = 0
    for code, zmask, omask in _ternary_minor_masks(n):
        scanned += 1
        rest: list[int] = []
        unit = False
        for g in masks:
            if g & zmask:
                continue
            gg = g & ~omask
            if gg == 0:
                unit = True
                break
            rest.append(gg)
        if unit or not rest:
            continue
        ok, h, count, _sel = _konig_masks(rest, n)
        if not ok:
            minor = minor_from_code(code, n)
            restriction = restrict(a, minor)
            return PackingReport(False, scanned,
                                 PackingWitness(minor, restriction.survivors,
                                                restriction.ideal, h, count))
    return PackingReport(True, scanned, None)


def branching_subset_witness(g: Graph, t: int) -> Optional[tuple[tuple[int, ...], int]]:
    """First connected (t+1)-subset (lexicographic) inducing >= 3 non-cut
    vertices, together with its non-cut count; None when no such subset exists."""
    if t + 1 > g.n:
        return None
    for combo in connected_induced_subsets(g, t + 1):
        mask = 0
        for v in combo:
            mask |= 1 << (v - 1)
        r = 0
        for v in combo:
            if is_connected_subset(g, mask & ~(1 << (v - 1))):
                r += 1
        if r >= 3:
            return combo, r
    return None
