"""Independent reference implementations used only by the tests.

Each one is a second route to something the library computes, or the code
the library's faster route replaced:

- `product` and `power` (with `mul`): the ordinary ideal product and
  power by multiplying every pair of generators and minimalising, the
  expanded J^s that the packing-search membership test in
  `coverpack.duality` avoids.
- `symbolic_power_tuples`: the exponent-tuple fold that the packed fold in
  `coverpack.duality` replaced.  It folds the minimal-prime powers one
  prime at a time and reduces every intermediate candidate list with
  `minimalize`; a complete intersection takes the ordinary power instead,
  where the library folds it like any other ideal.
- `intersect` (with `lcm`): ideal intersection by pairwise lcms, the
  independent route behind the intersection-fold test of `symbolic_power`.
- `member_power`: membership in A^s by a memoised search for s generators
  whose product divides m.  The library tests membership in J^s as
  nu(B_J, g) >= s with `coverpack.ideals.max_packing`; this is the other
  route, valid for any monomial ideal, not only square-free ones.
- `equal`: ideal equality by canonical generator comparison.
- `from_masks` and `parse_monomial`: a square-free ideal from any support
  masks, minimalised, and the inverse of `coverpack.ideals.monomial_str`.
  The library builds square-free ideals only from antichains
  (`from_antichain_masks`) and never reads a monomial back.
- `divides` and `member`: divisibility and ideal membership on exponent
  tuples, the plain route beside the packed `divides_packed`.
- `tau_enum` and `minimal_solutions`: scans of all 2^n 0/1 vectors over
  the support masks of a 0/1 matrix's columns, independent of the minimal
  primes behind `coverpack.lpdual.tau` and of the transversal search
  behind `cover_ideal`.
- `gap_search_unpruned`: the gap search over the sorted product of every
  weight vector, with `tau_enum` and `coverpack.lpdual.nu` evaluated at
  each one, beside the library's orbit-pruned scan over prefix/suffix
  tables.
- `filtered_minimal_transversals`: the enumerate-then-filter recursion that
  the MMCS search in `coverpack.ideals.minimal_transversals` replaced.
  Together with `brute_minimal_transversals` (a scan of all 2^n subsets)
  it is the second oracle for that search.
- `brute_cover_ideal`: J_t(G) from `brute_minimal_transversals` over the
  I_t(G) supports, the reference for `coverpack.tconn.cover_ideal` and the
  closed forms.  The two brute-force routes used to ship in the library
  behind `coverpack gens --brute-force`; they live here now, and the CLI
  has no such flag.
- `flat_is_packed`: the odometer scan that the memoised depth-first scan in
  `coverpack.packing.is_packed` replaced.  It restricts the supports to
  every one of the 3^n minors in ternary-code order and runs the Konig
  oracle `konig_masks` on each.
- `konig_masks`, with `min_cover_masks` (and `_greedy_cover`) and
  `_max_disjoint_masks`: the Konig search the library ran before it read
  the height off the minimal transversals carried by the scan and nu(1)
  off `coverpack.ideals.max_packing`.  An unweighted branch and bound for
  the height and a max-disjoint search, sharing no code with the library;
  a subset scan would be too slow at 3^10 minors.
- `minor_code`: the ternary code of a minor, inverse of
  `coverpack.packing.minor_from_code`.
- `path_incidence_formula` and `cycle_incidence_formula`: closed forms of
  the I_t(G) generator supports of paths and cycles, as masks.
- `cycle_konig_sequence`: the t pairwise-disjoint generators of J_t(C_n)
  when t divides n.
- `non_cut_vertices` and `branching_subset_witness`: connected (t+1)-subsets
  with three or more non-cut vertices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from coverpack.graphs import (Graph, connected_induced_subsets, cycle, is_connected,
                              is_connected_subset)
from coverpack.ideals import (DEFAULT_GEN_CAP, Monomial, MonomialIdeal, SizeLimitError, _high_mask,
                              mask_to_monomial, mask_vars, minimalize, pack)
from coverpack.lpdual import GapSearchResult, nu
from coverpack.packing import Minor, PackingReport, PackingWitness, minor_from_code, restrict
from coverpack.tconn import GenerationError, cover_ideal, t_connected_ideal


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


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _check_same_universe(a: MonomialIdeal, b: MonomialIdeal):
    if a.n != b.n:
        raise ValueError(f"universe mismatch: {a.n} vs {b.n}")


def product(a: MonomialIdeal, b: MonomialIdeal, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """Ideal product AB."""
    _check_same_universe(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal(a.n, [])
    if len(a.gens) * len(b.gens) > cap:
        raise SizeLimitError(f"product candidate count {len(a.gens) * len(b.gens)} exceeds cap {cap}")
    cands = [mul(g, h) for g in a.gens for h in b.gens]
    return minimalize(a.n, cands)


def power(a: MonomialIdeal, s: int, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """Ordinary power A^s by repeated products; A^0 is the unit ideal."""
    if s < 0:
        raise ValueError("power needs s >= 0")
    if s == 0:
        return MonomialIdeal(a.n, [(0,) * a.n])
    acc = a
    for _ in range(s - 1):
        acc = product(acc, a, cap=cap)
    return acc


def symbolic_power_tuples(a: MonomialIdeal, s: int, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """I^(s) by the exponent-tuple fold over the minimal primes."""
    if s == 1:
        return a
    if all(sum(g) == 1 for g in a.gens) or len(a.gens) == 1:
        return power(a, s, cap=cap)
    primes = sorted((tuple(i + 1 for i in mask_vars(m)) for m in a.transversal_masks()),
                    key=lambda p: (len(p), p))
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


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def intersect(a: MonomialIdeal, b: MonomialIdeal, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """Ideal intersection via pairwise lcms."""
    _check_same_universe(a, b)
    if a.is_zero or b.is_zero:
        return MonomialIdeal(a.n, [])
    if len(a.gens) * len(b.gens) > cap:
        raise SizeLimitError(f"intersection candidate count {len(a.gens) * len(b.gens)} exceeds cap {cap}")
    cands = [lcm(g, h) for g in a.gens for h in b.gens]
    return minimalize(a.n, cands)


def divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def member(m: Monomial, a: MonomialIdeal) -> bool:
    """Whether the monomial lies in the ideal (some generator divides it)."""
    if len(m) != a.n:
        raise ValueError(f"monomial length {len(m)} does not match universe {a.n}")
    return any(divides(g, m) for g in a.gens)


def equal(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Ideal equality via canonical generator comparison."""
    if a.n != b.n:
        raise ValueError(f"universe mismatch: {a.n} vs {b.n}")
    return a.gens == b.gens


def from_masks(n: int, masks) -> MonomialIdeal:
    """Square-free ideal from support bitmasks (minimalised)."""
    return minimalize(n, [mask_to_monomial(m, n) for m in masks])


def parse_monomial(text: str, n: int) -> Monomial:
    """Inverse of `coverpack.ideals.monomial_str` for variables x1..xn."""
    text = text.strip()
    exps = [0] * n
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            var, _, p = factor.partition("^")
            e = int(p)
            if e < 0:
                raise ValueError(f"negative exponent in {factor!r}")
        else:
            var, e = factor, 1
        if not var.startswith("x"):
            raise ValueError(f"bad factor {factor!r}")
        idx = int(var[1:])
        if not (1 <= idx <= n):
            raise ValueError(f"variable {var} out of range for n={n}")
        exps[idx - 1] += e
    return tuple(exps)


def member_power(m: Monomial, a: MonomialIdeal, s: int) -> bool:
    """Whether m lies in A^s, without expanding A^s.

    Searches for s generators (with repetition) whose product divides m,
    choosing factors in descending degree with memoisation on the quotient.
    Quotients stay packed; exponents past FIELD_MAX raise ValueError.
    """
    if len(m) != a.n:
        raise ValueError(f"monomial length {len(m)} does not match universe {a.n}")
    if s < 0:
        raise ValueError("member_power needs s >= 0")
    top = pack(m)
    if s == 0:
        return True
    if a.is_zero:
        return False
    if a.is_unit:
        return True
    # (packed, degree) per generator by descending degree, then exponent tuple
    factors = sorted(zip(map(pack, a.gens), map(sum, a.gens)), key=lambda f: (-f[1], f[0]))
    min_deg = factors[-1][1]
    high = _high_mask(a.n)
    memo: dict[tuple[int, int], bool] = {}

    def rec(q: int, k: int, qdeg: int) -> bool:
        if k == 0:
            return True
        if qdeg < k * min_deg:
            return False
        key = (q, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = False
        for g, d in factors:
            if d > qdeg:
                continue
            r = q - g
            if not r & high and rec(r, k - 1, qdeg - d):
                ok = True
                break
        memo[key] = ok
        return ok

    return rec(top, s, sum(m))


@lru_cache(maxsize=256)
def _minimal_covers(masks: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(i for i in range(n) if y >> i & 1) for y in minimal_solutions(masks, n))


def tau_enum(masks: Sequence[int], alpha: Sequence[int]) -> int:
    """Minimise alpha.y over every 0/1 y with B^T y >= 1; B has the given
    support masks as columns and len(alpha) rows.

    alpha >= 0, so dropping a 1 from y never raises the cost and an
    inclusion-minimal y attains the minimum: the minimum runs over
    `minimal_solutions`, the scan of all 2^n y, made once per matrix.
    """
    return min(sum(alpha[i] for i in y) for y in _minimal_covers(tuple(masks), len(alpha)))


def minimal_solutions(col_masks: Sequence[int], n: int) -> list[int]:
    """Componentwise-minimal 0/1 solutions of A^T x >= 1, by subset scan, as
    masks; A has n rows and the given support masks as columns.

    Feasible sets are upward closed, so x is minimal iff dropping any single
    1 breaks feasibility.  Independent of the transversal recursion used by
    the cover-ideal route, which is the point: the two must agree.
    """
    if n > 20:
        raise SizeLimitError("minimal_solutions subset scan capped at n <= 20")
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
    return sols


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


def brute_minimal_transversals(edge_masks: Sequence[int], n: int) -> list[int]:
    """Oracle: scan all 2^n subsets by ascending popcount, keep minimal hitters."""
    hits: list[int] = []
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    for s in subsets:
        if all(s & e for e in edge_masks):
            if not any(s & t == t for t in hits):
                hits.append(s)
    return hits


def brute_cover_ideal(g: Graph, t: int) -> MonomialIdeal:
    """Oracle route: minimal covers by scanning all 2^n subsets (small n only)."""
    ideal = t_connected_ideal(g, t)
    if ideal.is_zero:
        raise ValueError("graph has no connected t-subsets")
    if g.n > 20:
        raise ValueError("brute-force cover enumeration capped at n <= 20")
    return from_masks(g.n, brute_minimal_transversals(ideal.support_masks(), g.n))


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


def _greedy_cover(edge_masks: Sequence[int], n: int) -> int:
    uncovered = list(edge_masks)
    size = 0
    while uncovered:
        counts = [0] * n
        for e in uncovered:
            m = e
            while m:
                low = m & -m
                counts[low.bit_length() - 1] += 1
                m ^= low
        v = max(range(n), key=lambda i: counts[i])
        bit = 1 << v
        uncovered = [e for e in uncovered if not e & bit]
        size += 1
    return size


def min_cover_masks(edge_masks: Sequence[int], n: int) -> int:
    """Minimum number of variables meeting every support mask (exact B&B)."""
    edges = [e for e in edge_masks if e]
    if len(edges) != len(edge_masks):
        raise ValueError("empty support present (unit generator)")
    if not edges:
        return 0
    best = _greedy_cover(edges, n)

    def lower_bound(uncovered: list[int]) -> int:
        # greedy disjoint supports give a matching-style bound
        used = 0
        lb = 0
        for e in uncovered:
            if not e & used:
                used |= e
                lb += 1
        return lb

    def bb(uncovered: list[int], chosen: int):
        nonlocal best
        if not uncovered:
            if chosen < best:
                best = chosen
            return
        if chosen + lower_bound(uncovered) >= best:
            return
        counts: dict[int, int] = {}
        for e in uncovered:
            m = e
            while m:
                low = m & -m
                counts[low] = counts.get(low, 0) + 1
                m ^= low
        hot = max(counts, key=lambda b: counts[b])
        branch_edge = next(e for e in uncovered if e & hot)
        vs = []
        m = branch_edge
        while m:
            low = m & -m
            vs.append(low)
            m ^= low
        vs.sort(key=lambda b: -counts.get(b, 0))
        for bit in vs:
            bb([e for e in uncovered if not e & bit], chosen + 1)

    bb(edges, 0)
    return best


def _max_disjoint_masks(masks: Sequence[int], need: Optional[int] = None) -> tuple[int, tuple[int, ...]]:
    """Maximum pairwise-disjoint selection (count, chosen masks).

    If `need` is given the search stops as soon as that many are found.
    Sorting by popcount makes the capacity bound sharp: the masks still
    unprocessed at index i each occupy at least bit_count(ms[i]) variables,
    so the free variables cap how many more can fit.
    """
    ms = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    k = len(ms)
    union = 0
    for m in ms:
        union |= m
    total_bits = union.bit_count()
    best = 0
    best_sel: tuple[int, ...] = ()
    sel: list[int] = []

    def dfs(i: int, used: int):
        nonlocal best, best_sel
        if need is not None and best >= need:
            return
        if len(sel) > best:
            best = len(sel)
            best_sel = tuple(sel)
        if i >= k or len(sel) + (k - i) <= best:
            return
        if len(sel) + (total_bits - used.bit_count()) // ms[i].bit_count() <= best:
            return
        for j in range(i, k):
            m = ms[j]
            if not m & used:
                sel.append(m)
                dfs(j + 1, used | m)
                sel.pop()
                if need is not None and best >= need:
                    return

    dfs(0, 0)
    return best, best_sel


def konig_masks(masks: Sequence[int], n: int) -> tuple[bool, int, int, tuple[int, ...]]:
    """(konig, height, max_disjoint, certificate masks) by the branch and
    bound cover and the max-disjoint search above."""
    h = min_cover_masks(masks, n)
    count, sel = _max_disjoint_masks(masks, need=h)
    return count >= h, h, count, sel


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
        ok, h, count, _sel = konig_masks(rest, n)
        if not ok:
            minor = minor_from_code(code, n)
            restriction = restrict(a, minor)
            return PackingReport(False, scanned,
                                 PackingWitness(minor, restriction.survivors,
                                                restriction.ideal, h, count))
    return PackingReport(True, scanned, None)


def path_incidence_formula(n: int, t: int) -> list[int]:
    """Closed form for paths: support j holds the variables j..j+t-1."""
    return [sum(1 << (i - 1) for i in range(j, j + t)) for j in range(1, n - t + 2)]


def cycle_incidence_formula(n: int, t: int) -> list[int]:
    """Closed form for cycles: support j holds the variables i with
    (i - j) mod n < t.

    Needs t < n: at t = n all n windows coincide and the ideal is principal.
    """
    if not 2 <= t < n:
        raise ValueError(f"cycle incidence closed form needs 2 <= t < n, got t={t}, n={n}")
    return [sum(1 << (i - 1) for i in range(1, n + 1) if (i - j) % n <= t - 1)
            for j in range(1, n + 1)]


def minor_code(minor: Minor, n: int) -> int:
    """Ternary code of a minor: digit i-1 is 1 if x_i is set to 0, 2 if to 1."""
    code = 0
    for v in minor.zeros:
        code += 3 ** (v - 1)
    for v in minor.ones:
        code += 2 * 3 ** (v - 1)
    return code


def cycle_konig_sequence(n: int, t: int) -> tuple[Monomial, ...]:
    """The t pairwise-disjoint generators x_i x_{i+t} ... of J_t(C_n), t | n."""
    if n % t:
        raise ValueError(f"Konig sequence needs t | n, got n={n}, t={t}")
    if not (2 <= t <= n) or n < 3:
        raise ValueError(f"need n >= 3 and 2 <= t <= n, got t={t}, n={n}")
    ell = n // t
    gens = []
    for i in range(1, t + 1):
        m = [0] * n
        for k in range(ell):
            m[(i + k * t) - 1] = 1
        gens.append(tuple(m))
    used = 0
    for g in gens:
        mask = sum(1 << j for j, e in enumerate(g) if e)
        if mask & used:
            raise GenerationError("Konig sequence members are not disjoint")
        used |= mask
    return tuple(gens)


def non_cut_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices whose removal keeps the graph connected (needs g connected)."""
    if not is_connected(g):
        raise ValueError("non_cut_vertices needs a connected graph")
    if g.n == 1:
        return (1,)
    full = (1 << g.n) - 1
    out = []
    for v in range(1, g.n + 1):
        rest = full & ~(1 << (v - 1))
        if is_connected_subset(g, rest):
            out.append(v)
    return tuple(out)


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


def gap_search_unpruned(g: Graph, t: int, bound: int) -> GapSearchResult:
    """The first alpha in {0..bound}^n, by (sum, lex), with tau != nu.

    Every alpha of the sorted product is evaluated, with no orbit pruning.
    `scanned` counts the alpha up to the witness, on the standard-labelled
    cycle(n) only those that no rotation puts below.
    """
    n = g.n
    j = cover_ideal(g, t)
    masks = j.support_masks()
    is_cycle = n >= 3 and g == cycle(n)
    scanned = 0
    for alpha in sorted(itertools.product(range(bound + 1), repeat=n), key=lambda v: (sum(v), v)):
        if not is_cycle or all(alpha <= alpha[r:] + alpha[:r] for r in range(n)):
            scanned += 1
        tv, nv = tau_enum(masks, alpha), nu(j, alpha)
        if tv != nv:
            return GapSearchResult(alpha, tv, nv, scanned)
    return GapSearchResult(None, None, None, scanned)
