"""Monomial ideals in Z[x_1..x_n] with exact generator arithmetic.

A monomial is an exponent tuple of length n (index i <-> variable x_{i+1});
an ideal is its canonical minimal generating set, kept sorted by
(total degree, exponent tuple).  Square-free monomials double as support
bitmasks, which the combinatorial layers use directly.

Packed form.  The inner loops (minimalisation and the symbolic-power
fold in `coverpack.duality`) work on one integer per monomial: 16 bits per variable, x1 in the most significant field and x_n in
the least, so for equal n integer order is lexicographic order on exponent
tuples and sorting (degree, packed) pairs reproduces the canonical order.
With every field below 2^15, b - a has a field's top bit set exactly when
that field of a exceeds the one of b (the lowest such field sees no borrow
from below), so a | b is `(b - a) & high == 0` for the mask of top bits.

Exponent limit.  Packing checks every exponent against the 15-bit capacity
(`FIELD_MAX` = 32767) and raises ValueError beyond it, so packed arithmetic
never wraps silently.

Packing search.  `max_packing` is the library's one integer packing search,
always over a square-free ideal's `support_rows`: `coverpack.lpdual.nu`
runs it exactly, and `coverpack.duality` stopped at s to test membership
in J^s.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterable, Optional, Sequence

Monomial = tuple  # exponent tuple of length n

DEFAULT_GEN_CAP = 200_000
DEFAULT_SCAN_CAP = 2_000_000

_FIELD = 16
FIELD_MAX = (1 << (_FIELD - 1)) - 1


class SizeLimitError(RuntimeError):
    """An intermediate generating set outgrew the configured cap."""


@lru_cache(maxsize=64)
def _high_mask(n: int) -> int:
    """Top bit of each of the n packed fields."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))


@lru_cache(maxsize=64)
def _ones(n: int) -> int:
    """A 1 in each of the n packed fields."""
    return sum(1 << (_FIELD * i) for i in range(n))


def field_shift(i: int, n: int) -> int:
    """Bit offset of variable index i (x_{i+1}) in an n-variable packed int."""
    return _FIELD * (n - 1 - i)


def pack(m: Monomial) -> int:
    """Pack an exponent tuple into one integer, 16 bits per variable, x1 first."""
    acc = 0
    for e in m:
        if e > FIELD_MAX:
            raise ValueError(
                f"exponent {e} exceeds the packed-field capacity {FIELD_MAX}")
        acc = acc << _FIELD | e
    return acc


def unpack(p: int, n: int) -> Monomial:
    """Inverse of pack for n variables."""
    return struct.unpack(f">{n}H", p.to_bytes(2 * n, "big"))


def divides_packed(a: int, b: int, high: int) -> bool:
    """Componentwise a <= b for packed exponent vectors."""
    return not (b - a) & high


def degree(m: Monomial) -> int:
    return sum(m)


def support_mask(m: Monomial) -> int:
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def is_square_free_monomial(m: Monomial) -> bool:
    return all(e <= 1 for e in m)


def mask_to_monomial(mask: int, n: int) -> Monomial:
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


def mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_str(m: Monomial) -> str:
    """Render like "x1^2*x4"; the empty monomial renders as "1"."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def parse_monomial(text: str, n: int) -> Monomial:
    """Inverse of monomial_str for variables x1..xn."""
    text = text.strip()
    exps = [0] * n
    if text in ("1", ""):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if "^" in factor:
            var, _, p = factor.partition("^")
            e = int(p)
        else:
            var, e = factor, 1
        if not var.startswith("x"):
            raise ValueError(f"bad factor {factor!r}")
        idx = int(var[1:])
        if not (1 <= idx <= n):
            raise ValueError(f"variable {var} out of range for n={n}")
        exps[idx - 1] += e
    return tuple(exps)


class MonomialIdeal:
    """Canonically minimally generated monomial ideal; () means the zero ideal."""

    __slots__ = ("n", "gens", "_masks", "_rows", "_transversals")

    def __init__(self, n: int, gens: Sequence[Monomial], _trusted: bool = False):
        self.n = n
        if _trusted:
            self.gens = tuple(gens)
        else:
            self.gens = _minimalize_list(n, gens)
        self._masks: Optional[tuple[int, ...]] = None
        self._rows: Optional[tuple[tuple[int, ...], ...]] = None
        self._transversals: Optional[tuple[int, ...]] = None

    # -- basic predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and sum(self.gens[0]) == 0

    @property
    def is_square_free(self) -> bool:
        return all(is_square_free_monomial(g) for g in self.gens)

    def support_masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(support_mask(g) for g in self.gens)
        return self._masks

    def support_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per generator, the 0-based variables of its support, smallest
        supports first (a stable sort): the columns `max_packing` takes,
        built once."""
        if self._rows is None:
            self._rows = tuple(sorted(
                (tuple(i for i, e in enumerate(g) if e) for g in self.gens), key=len))
        return self._rows

    def transversal_masks(self, cap: int = DEFAULT_GEN_CAP) -> tuple[int, ...]:
        """Minimal transversals of the generator supports, enumerated once.

        `cap` bounds the enumeration; a cached result is returned as it is.
        """
        if self._transversals is None:
            self._transversals = tuple(
                minimal_transversals(self.support_masks(), self.n, cap))
        return self._transversals

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.n == other.n and self.gens == other.gens)

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"<ideal in {self.n} vars: {', '.join(monomial_str(g) for g in self.gens) or '0'}>"

    def to_json(self) -> list[str]:
        return [monomial_str(g) for g in self.gens]

    @classmethod
    def from_json(cls, n: int, gens: Iterable[str]) -> "MonomialIdeal":
        return minimalize(n, [parse_monomial(s, n) for s in gens])


def _sort_key(m: Monomial):
    return (sum(m), m)


def _minimalize_list(n: int, cands: Iterable[Monomial]) -> tuple[Monomial, ...]:
    uniq = sorted(set(cands), key=_sort_key)
    if not uniq:
        return ()
    high = _high_mask(n)
    accepted: list[Monomial] = []
    accepted_packed: list[int] = []
    for m in uniq:
        pm = pack(m)
        # only earlier (lower-degree-or-equal) accepted gens can divide m
        for ap in accepted_packed:
            if divides_packed(ap, pm, high):
                break
        else:
            accepted.append(m)
            accepted_packed.append(pm)
    return tuple(accepted)


def minimalize(n: int, monomials: Iterable[Monomial]) -> MonomialIdeal:
    """Ideal generated by the given monomials, reduced to minimal generators."""
    gens = _minimalize_list(n, monomials)
    for g in gens:
        if len(g) != n:
            raise ValueError(f"monomial {g} has length {len(g)}, universe is {n}")
    return MonomialIdeal(n, gens, _trusted=True)


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (), _trusted=True)


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ((0,) * n,), _trusted=True)


def from_masks(n: int, masks: Iterable[int]) -> MonomialIdeal:
    """Square-free ideal from support bitmasks (minimalised)."""
    return minimalize(n, [mask_to_monomial(m, n) for m in masks])


def from_antichain_masks(n: int, masks: Iterable[int]) -> MonomialIdeal:
    """Square-free ideal from support bitmasks that already form an antichain.

    No minimalisation, only the canonical (degree, exponent tuple) sort; mask
    order is not tuple order, since bit 0 is x1.
    """
    gens = sorted({mask_to_monomial(m, n) for m in masks}, key=_sort_key)
    return MonomialIdeal(n, gens, _trusted=True)


def _check_same_universe(a: MonomialIdeal, b: MonomialIdeal):
    if a.n != b.n:
        raise ValueError(f"universe mismatch: {a.n} vs {b.n}")


def product(a: MonomialIdeal, b: MonomialIdeal, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """Ideal product AB."""
    _check_same_universe(a, b)
    if a.is_zero or b.is_zero:
        return zero_ideal(a.n)
    if len(a.gens) * len(b.gens) > cap:
        raise SizeLimitError(f"product candidate count {len(a.gens) * len(b.gens)} exceeds cap {cap}")
    cands = [mul(g, h) for g in a.gens for h in b.gens]
    return minimalize(a.n, cands)


def power(a: MonomialIdeal, s: int, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """Ordinary power A^s by repeated products; A^0 is the unit ideal."""
    if s < 0:
        raise ValueError("power needs s >= 0")
    if s == 0:
        return unit_ideal(a.n)
    acc = a
    for _ in range(s - 1):
        acc = product(acc, a, cap=cap)
    return acc


def max_packing(rows: Sequence[tuple[int, ...]], capacity: Sequence[int],
                need: Optional[int] = None) -> int:
    """Largest sum(z) over z in N^r that packs the columns under `capacity`.

    Column j covers the rows in `rows[j]`, which must be nonempty and
    ordered by ascending size, so the remaining capacity over the size of
    column i bounds what columns i.. can still add.  Columns through a
    zero-capacity row are dropped first.  The search is depth first, larger
    multiplicities first.  With `need` it stops as soon as the count reaches
    `need`, so the result is exact below `need` and at least `need` above.
    """
    zero = {i for i, x in enumerate(capacity) if not x}
    cols = [c for c in rows if zero.isdisjoint(c)] if zero else rows
    ncols = len(cols)
    residual = list(capacity)
    get = residual.__getitem__
    total = sum(capacity)
    goal = total + 1 if need is None else need
    best = 0

    def dfs(i: int, count: int, left: int) -> bool:
        nonlocal best
        if i == ncols:
            return False
        c = cols[i]
        size = len(c)
        if count + left // size <= best:
            return False
        for z in range(min(map(get, c)), 0, -1):
            if count + z > best:
                best = count + z
                if best >= goal:
                    return True
            for r in c:
                residual[r] -= z
            done = dfs(i + 1, count + z, left - z * size)
            for r in c:
                residual[r] += z
            if done:
                return True
        return dfs(i + 1, count, left)

    dfs(0, 0, total)
    return best


# ---------------------------------------------------------------------------
# height (= codimension) of a square-free ideal

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


def height(a: MonomialIdeal) -> int:
    """Height of a proper nonzero square-free monomial ideal."""
    if a.is_zero:
        raise ValueError("height of the zero ideal is undefined here")
    if a.is_unit:
        raise ValueError("height needs a proper ideal")
    if not a.is_square_free:
        raise ValueError("height implemented for square-free ideals only")
    return min_cover_masks(a.support_masks(), a.n)


# ---------------------------------------------------------------------------
# minimal transversals of a set system (used by duality and brute-force covers)

def minimal_transversals(edge_masks: Sequence[int], n: int,
                         cap: int = DEFAULT_GEN_CAP) -> list[int]:
    """Inclusion-minimal hitting sets of the given nonempty supports, as masks.

    MMCS (Murakami and Uno, Discrete Appl. Math. 170, 2014).  Edges are bit
    positions and `inc[v]` is the mask of the edges that contain vertex v.
    The search carries the chosen set, `uncov` (the edges it misses), `cand`
    (the vertices it may still add) and one `crit` mask per chosen vertex
    (the edges that only that vertex hits).  It branches on the uncovered
    edge with the fewest candidate vertices, and adds a vertex only if every
    chosen vertex keeps a critical edge; since `crit` masks only shrink, no
    branch cut this way holds a minimal transversal.  So every leaf is a
    minimal transversal, each one is reached once, and there is no
    candidate superset to filter.  The result is sorted by
    (popcount, mask).  Each leaf counts against `cap`; past it the search
    raises SizeLimitError.
    """
    edges = sorted(set(edge_masks))
    if edges and edges[0] == 0:
        raise ValueError("empty support has no transversal")
    inc: dict[int, int] = {}
    for j, e in enumerate(edges):
        while e:
            v = e & -e
            inc[v] = inc.get(v, 0) | 1 << j
            e ^= v
    out: list[int] = []

    def rec(chosen: int, crits: list[int], cand: int, uncov: int):
        if not uncov:
            out.append(chosen)
            if len(out) > cap:
                raise SizeLimitError(
                    f"minimal transversal count exceeds cap {cap}")
            return
        branch, fewest, u = 0, len(inc) + 1, uncov
        while u:
            low = u & -u
            u ^= low
            c = edges[low.bit_length() - 1] & cand
            k = c.bit_count()
            if k < fewest:
                branch, fewest = c, k
                if not k:
                    return          # this edge can no longer be hit
        # the branches split on the last vertex of `branch` that is chosen
        cand &= ~branch
        while branch:
            v = branch & -branch
            branch ^= v
            hit = inc[v]
            miss = ~hit
            kept = [c & miss for c in crits]
            if all(kept):
                kept.append(uncov & hit)
                rec(chosen | v, kept, cand, uncov & miss)
            cand |= v

    rec(0, [], sum(inc), (1 << len(edges)) - 1)
    out.sort(key=lambda t: (t.bit_count(), t))
    return out


def brute_minimal_transversals(edge_masks: Sequence[int], n: int) -> list[int]:
    """Oracle: scan all 2^n subsets by ascending popcount, keep minimal hitters."""
    hits: list[int] = []
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    for s in subsets:
        if all(s & e for e in edge_masks):
            if not any(s & t == t for t in hits):
                hits.append(s)
    return hits
