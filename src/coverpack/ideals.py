"""Monomial ideals in Z[x_1..x_n] with exact generator arithmetic.

A monomial is an exponent tuple of length n (index i <-> variable x_{i+1});
an ideal is its canonical minimal generating set, kept sorted by
(total degree, exponent tuple).  Square-free monomials double as support
bitmasks, which the combinatorial layers use directly.

Packed form.  The symbolic-power fold in `coverpack.duality` and
minimalisation work on one integer per monomial: 16 bits per variable, x1
in the most significant field and x_n in the least, so for equal n integer
order is lexicographic order on exponent tuples and sorting (degree,
packed) pairs reproduces the canonical order.
With every field below 2^15, b - a has a field's top bit set exactly when
that field of a exceeds the one of b (the lowest such field sees no borrow
from below), so a | b is `(b - a) & high == 0` for the mask of top bits.

Exponent limit.  Packing checks every exponent against the 15-bit capacity
(`FIELD_MAX` = 32767) and raises ValueError beyond it or below 0, so packed
arithmetic never wraps silently.

Minimalisation is not an inner loop: the classification harness and the
CLI's commands build their ideals from antichains (`from_antichain_masks`)
or by the fold, so `minimalize` serves the closed forms (and the cycle
minor checks built on them) and callers with arbitrary generators.
Generators therefore stay exponent tuples; packed generators would only
move the fold's final unpack into `simis_check`, which reads each
generator as a packing capacity.

Packing search.  `max_packing` is the library's one integer packing search,
always over the supports of a square-free ideal: `coverpack.lpdual.nu` runs
it exactly, `coverpack.duality` stopped at s to test membership in J^s, and
`coverpack.packing` under unit capacity, stopped at the height, for the
Konig test.  It returns the count and the columns of the packing that
reached `need`, the Konig certificate.

Covering.  The minimal transversals cached on an ideal
(`MonomialIdeal.transversal_masks`) are the library's one covering route:
the minimal primes in `coverpack.duality`, `coverpack.lpdual.tau` and the
Konig test all read them.  They are enumerated once by MMCS, except on an
Alexander dual, which `from_antichain_masks` gives the input's supports:
the blocker of the blocker is the clutter.  Only this module fills an
ideal's caches.
"""

from __future__ import annotations

import itertools
import struct
from functools import lru_cache, partial
from typing import Iterable, Iterator, Optional, Sequence

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
        if e > FIELD_MAX or e < 0:
            raise ValueError(
                f"exponent {e} is negative" if e < 0 else
                f"exponent {e} exceeds the packed-field capacity {FIELD_MAX}")
        acc = acc << _FIELD | e
    return acc


def unpack(p: int, n: int) -> Monomial:
    """Inverse of pack for n variables."""
    return struct.unpack(f">{n}H", p.to_bytes(2 * n, "big"))


def divides_packed(a: int, b: int, high: int) -> bool:
    """Componentwise a <= b for packed exponent vectors."""
    return not (b - a) & high


def support_mask(m: Monomial) -> int:
    mask = 0
    for i, e in enumerate(m):
        if e:
            mask |= 1 << i
    return mask


def is_square_free_monomial(m: Monomial) -> bool:
    return all(e <= 1 for e in m)


@lru_cache(maxsize=1 << 12)
def mask_vars(mask: int) -> tuple[int, ...]:
    """The 0-based variables of a support mask, ascending: a `max_packing`
    column, or a minimal prime's variables."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_to_monomial(mask: int, n: int) -> Monomial:
    return tuple(1 if mask >> i & 1 else 0 for i in range(n))


def monomial_str(m: Monomial) -> str:
    """Render like "x1^2*x4"; the empty monomial renders as "1"."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


class MonomialIdeal:
    """Canonically minimally generated monomial ideal; () means the zero ideal."""

    __slots__ = ("n", "gens", "_masks", "_transversals", "_square_free")

    def __init__(self, n: int, gens: Sequence[Monomial], _trusted: bool = False):
        self.n = n
        if _trusted:
            self.gens = tuple(gens)
        else:
            self.gens = _minimalize_list(n, gens)
        self._masks: Optional[tuple[int, ...]] = None
        self._transversals: Optional[tuple[int, ...]] = None
        self._square_free: Optional[bool] = None

    # -- basic predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and sum(self.gens[0]) == 0

    @property
    def is_square_free(self) -> bool:
        """Whether every generator is square-free, tested once."""
        if self._square_free is None:
            self._square_free = all(is_square_free_monomial(g) for g in self.gens)
        return self._square_free

    def support_masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(support_mask(g) for g in self.gens)
        return self._masks

    def support_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per generator, the 0-based variables of its support, smallest
        supports first (a stable sort): the columns `max_packing` takes.
        Not cached: every caller reads them once per ideal."""
        return tuple(sorted(map(mask_vars, self.support_masks()), key=len))

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


def _require_square_free_proper(a: MonomialIdeal, what: str):
    if a.is_zero:
        raise ValueError(f"{what} needs a nonzero ideal")
    if a.is_unit:
        raise ValueError(f"{what} needs a proper ideal")
    if not a.is_square_free:
        raise ValueError(f"{what} needs a square-free ideal")


def _sort_key(m: Monomial):
    return (sum(m), m)


def _by_size(mask: int) -> tuple[int, int]:
    """The order of minimal transversals: by size, then by mask."""
    return mask.bit_count(), mask


def _minimalize_list(n: int, cands: Iterable[Monomial]) -> tuple[Monomial, ...]:
    uniq = sorted(set(cands), key=_sort_key)
    if not uniq:
        return ()
    high = _high_mask(n)
    accepted: list[Monomial] = []
    accepted_packed: list[int] = []
    for m in uniq:
        if len(m) != n:
            raise ValueError(f"monomial {m} has length {len(m)}, universe is {n}")
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
    return MonomialIdeal(n, _minimalize_list(n, monomials), _trusted=True)


def from_antichain_masks(n: int, masks: Iterable[int],
                         transversals: Optional[Iterable[int]] = None) -> MonomialIdeal:
    """Square-free ideal from support bitmasks that already form an antichain.

    No minimalisation, only the canonical (degree, exponent tuple) sort; mask
    order is not tuple order, since bit 0 is x1.  Each mask becomes a tuple
    once, and the masks are kept, in generator order, as `support_masks()`.
    `transversals`, when given, must be the minimal transversals of the
    masks; they are kept in `minimal_transversals` order as
    `transversal_masks()`, so no search runs for them.
    """
    pairs = sorted(((mask_to_monomial(m, n), m) for m in set(masks)),
                   key=lambda p: (p[1].bit_count(), p[0]))
    ideal = MonomialIdeal(n, [g for g, _ in pairs], _trusted=True)
    ideal._masks = tuple(m for _, m in pairs)
    if transversals is not None:
        ideal._transversals = tuple(sorted(transversals, key=_by_size))
    return ideal


def _counted_range(start: int, stop: int, steps: Iterator[int]) -> Iterator[int]:
    """range(start, stop), each step drawn from `steps` and checked against
    DEFAULT_SCAN_CAP: the column loop of an exact packing search."""
    for i in range(start, stop):
        if next(steps) > DEFAULT_SCAN_CAP:
            raise SizeLimitError(f"packing search exceeds {DEFAULT_SCAN_CAP} steps")
        yield i


def max_packing(rows: Sequence[tuple[int, ...]], capacity: Sequence[int],
                need: Optional[int] = None) -> tuple[int, list[tuple[int, ...]]]:
    """Largest sum(z) over z in N^r that packs the columns under `capacity`.

    Column j covers the rows in `rows[j]`, which must be nonempty and
    ordered by ascending size, so the remaining capacity over the size of
    column i bounds what columns i.. can still add.  Columns through a
    zero-capacity row are dropped first.  The search is depth first, larger
    multiplicities first.  With `need` it stops as soon as the count reaches
    `need`, so the count is exact below `need` and at least `need` above.
    Returns (count, columns): the columns of the packing that reached
    `need`, each repeated by its multiplicity in column order, or [] when
    the count stays below `need` or no `need` is given.

    Skipping a column is a step of the search's loop, not a call, so the
    recursion nests one level per distinct column in the current packing
    (at most n under unit capacity); nesting past Python's recursion limit
    raises SizeLimitError.  So does an exact search (no `need`) past
    `DEFAULT_SCAN_CAP` steps of its column loop.  A search with `need` (the
    Konig test, membership in J^s) is not counted: its step count follows
    the variable order, and the class cache of `coverpack.classify` has no
    rule for an abort that does.
    """
    zero = {i for i, x in enumerate(capacity) if not x}
    cols = [c for c in rows if zero.isdisjoint(c)] if zero else rows
    ncols = len(cols)
    residual = list(capacity)
    get = residual.__getitem__
    total = sum(capacity)
    goal = total + 1 if need is None else need
    best = 0
    chosen: list[tuple[int, ...]] = []
    # a stopped search loops over a plain range, so it pays nothing for the count
    columns = range if need is not None else partial(_counted_range, steps=itertools.count(1))

    def dfs(i: int, count: int, left: int) -> bool:
        nonlocal best
        for i in columns(i, ncols):
            c = cols[i]
            size = len(c)
            if count + left // size <= best:
                return False
            for z in range(min(map(get, c)), 0, -1):
                if count + z > best:
                    best = count + z
                    if best >= goal:
                        chosen.extend([c] * z)
                        return True
                for r in c:
                    residual[r] -= z
                done = dfs(i + 1, count + z, left - z * size)
                for r in c:
                    residual[r] += z
                if done:
                    chosen.extend([c] * z)
                    return True
        return False

    try:
        dfs(0, 0, total)
    except RecursionError:
        raise SizeLimitError("packing search nests past the recursion limit") from None
    chosen.reverse()
    return best, chosen


# ---------------------------------------------------------------------------
# minimal transversals of a set system (used by duality, packing and lpdual)

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
    out.sort(key=_by_size)
    return out

