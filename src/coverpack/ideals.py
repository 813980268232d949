"""Monomial ideals in Z[x_1..x_n] with exact generator arithmetic.

A monomial is an exponent tuple of length n (index i <-> variable x_{i+1});
an ideal is its canonical minimal generating set, kept sorted by
(total degree, exponent tuple).  Square-free monomials double as support
bitmasks, which the combinatorial layers use directly.

Minimalisation is not an inner loop: the classification harness and the
CLI's commands build their ideals from antichains (`from_antichain_masks`)
or by the fold, so `minimalize` serves the closed forms (and the cycle
minor checks built on them) and callers with arbitrary generators.  It
tests a divisor's support mask against the candidate's before it compares
exponent tuples.  The packed exponent layout of the symbolic-power fold is
private to `coverpack.duality`, which unpacks the fold's generators into
tuples, and the packing search behind nu, with its columns, is private to
`coverpack.lpdual`, which reads the supports off `support_masks()`.

Covering.  The minimal transversals cached on an ideal
(`MonomialIdeal.transversal_masks`) are the library's one covering route:
the minimal primes in `coverpack.duality`, `coverpack.lpdual.tau` and the
Konig test all read them.  They are enumerated once by MMCS, except on an
Alexander dual, which `from_antichain_masks` gives the input's supports:
the blocker of the blocker is the clutter.  Only this module fills an
ideal's caches.

Resource limits.  Every guard reads `DEFAULT_GEN_CAP` or `DEFAULT_SCAN_CAP`
from this module when its function is called, so rebinding them here, as
the CLI does for one command, reaches every guard.
"""

from __future__ import annotations

from functools import lru_cache
from operator import le
from typing import Iterable, Optional, Sequence

Monomial = tuple  # exponent tuple of length n

DEFAULT_GEN_CAP = 200_000
DEFAULT_SCAN_CAP = 2_000_000


class SizeLimitError(RuntimeError):
    """An intermediate generating set outgrew the configured cap."""


class VerificationError(RuntimeError):
    """A self-check failed: a closed form, a constructed minor or weak duality."""


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
    """The 0-based variables of a support mask, ascending."""
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

    def transversal_masks(self) -> tuple[int, ...]:
        """Minimal transversals of the generator supports, enumerated once."""
        if self._transversals is None:
            self._transversals = tuple(minimal_transversals(self.support_masks()))
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
    # only earlier (lower-degree-or-equal) accepted gens can divide m, and
    # one whose support is not inside m's cannot
    accepted: list[tuple[int, Monomial]] = []
    for m in sorted(set(cands), key=_sort_key):
        if len(m) != n:
            raise ValueError(f"monomial {m} has length {len(m)}, universe is {n}")
        if min(m, default=0) < 0:
            raise ValueError(f"monomial {m} has a negative exponent")
        sm = support_mask(m)
        for sa, a in accepted:
            if not sa & ~sm and all(map(le, a, m)):
                break
        else:
            accepted.append((sm, m))
    return tuple(m for _, m in accepted)


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


# ---------------------------------------------------------------------------
# minimal transversals of a set system (used by duality, packing and lpdual)

def minimal_transversals(edge_masks: Sequence[int]) -> list[int]:
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
    (popcount, mask).  Each leaf counts against `DEFAULT_GEN_CAP`; past it
    the search raises SizeLimitError.
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
    cap = DEFAULT_GEN_CAP

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

