"""Alexander duality and symbolic powers for square-free monomial ideals.

The dual of a square-free ideal is generated by the minimal transversals of
its generator supports; those same transversals are the supports of the
minimal primes, so both operations share one enumeration, cached on the
ideal.  The enumeration is the MMCS search of
`coverpack.ideals.minimal_transversals`: every leaf of its search is a
minimal transversal, reached once, so no candidate superset is built and
filtered, and the generator cap bounds the leaves.  Its output is an
antichain, which the dual only sorts into canonical order.

Symbolic powers are computed exactly as the intersection of the
minimal-prime powers P^s, folded one prime at a time (primes by ascending
size, then variables) from the unit ideal.  There is one path for every
ideal: a complete intersection (variables, or one monomial) folds like any
other, its first prime by the same step as the rest.

Packed form.  The fold works on one integer per monomial, a layout private
to this module: 16 bits per variable, x1 in the most significant field and
x_n in the least, so for equal n integer order is lexicographic order on
exponent tuples.  The fold state is a sorted list of (degree, packed) pairs,
which is the canonical (degree, exponent tuple) order.  `_fold` returns that
list, the private packed entry point: `symbolic_power` unpacks it into
tuples once, and the Simis check reads it as it is.  A prime's weight on a
generator is one mask of its fields and one multiply by the all-ones
pattern, which sums the fields into the top one.  Folding in P^s keeps every
generator g with weight w(g) >= s and replaces the others by g times each
composition of s - w(g) over P's variables (the composition offsets are
packed once per (P's field positions, s - w) and cached; see `_offsets`).
Kept generators need no test: if a new candidate g*m divided a kept h, then
g | h inside the previous antichain, so g = h, which w(g) < s <= w(h) rules
out.  The new candidates are tested by weight, not by divisibility (the
minimal generators of an intersection of prime powers; Herzog, Hibi and
Trung, Adv. Math. 210, 2007).  After folding P_1..P_k, a monomial c in the
intersection is a minimal generator exactly when every variable v of c lies
in some P_i of weight w_i(c) = s: dividing c by x_v then drops that P_i
below s, and if no such P_i exists, every prime through v has weight above
s on c, so c / x_v is still in the intersection.  A candidate c = g + o
(o a composition over P) has weight exactly s on P, which covers the
variables of P.  The variables of g outside P need an earlier prime P_i,
and since g already lies in P_i^s and o raises w_i only on the variables
P_i shares with P, w_i(c) = s exactly when w_i(g) = s and o misses those
shared variables.  So the primes tight on g are found once per g, and each
candidate is tested by and/and-not on support masks (the top bit of each
field; (x + FIELD_MAX * ones) & high sets it exactly for the nonzero fields,
as no field passes s <= FIELD_MAX).  The accepted candidates go into a set,
which drops the duplicates that different g give.

The generator cap bounds the kept generators plus every candidate of a
fold, duplicates included.  The count is taken from the weights before the
candidates are built, and a fold past the cap raises SizeLimitError.

Exponent limit.  Every exponent in the fold stays at most s and a prime's
weight at most s times its size, so s * (largest prime size) must not pass
the 15-bit field capacity FIELD_MAX = 32767.  `_fold` raises
ValueError past it, checked per call; nothing is allowed to wrap silently.
Exponent tuples, outside the fold, have no such limit.

The bounded Simis check compares I^(s) with I^s for s = 2..s_max.  Since
I^s is always contained in I^(s), equality at s holds iff every minimal
generator of the symbolic power lies in I^s; that avoids ever expanding I^s.
Membership is tested by peeling off one generator (I^k is the ordinary
power, I^(k) the symbolic one).  I^s = I * I^{s-1}, so g lies in I^s iff
some generator m of I divides g with g / m in I^{s-1}.  The check climbs s
in ascending order and stops at the first failure, so it reaches s only
once every generator of I^(s-1) has passed, that is, when I^(s-1) =
I^{s-1} (and I^(1) = I by definition).  There g / m lies in I^{s-1} exactly
when w_P(g) - |m & P| >= s - 1 for every minimal prime P, so g lies in I^s
iff some generator m has supp m inside supp g and |m & P| <= w_P(g) - s + 1
for every P.  Without the ascending order the test would decide membership
in I * I^(s-1), which can be larger than I^s.  The test runs on the packed
generators of `_fold`, and both conditions are bit sets over the
generators of I.  The generators with support inside supp g are looked up
by g's support, the top bits (g + FIELD_MAX * ones) & high, in a table
filled on first use of each support, which the generators of every level
and every s share.  Per prime P and k, built once per ideal, come the
generators m with |m & P| <= k, for k below the largest |m & P|, since a
prime whose slack w_P(g) - s + 1 reaches that rules out no m; w_P(g) is
the fold's own mask and multiply.  g passes when the intersection is not
empty, and only the failures are unpacked into exponent tuples.  The
membership test needs no packing search, though it agrees with one: with
B the matrix of generator supports, g lies in I^s iff nu(B, g) >= s, and in
I^(s) iff tau(B, g) >= s (Simis <=> max-flow min-cut; Gitler, Reyes and
Villarreal, Rocky Mountain J. Math. 39, 2009).  At the first failing s the
check goes on through the generators of the first failure's degree and
reports them all (`SimisReport.failures`); a relabelling of the variables
keeps degrees, so these give the first failure of every relabelled ideal as
well.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import Optional

from . import ideals
from .ideals import (
    MonomialIdeal,
    Monomial,
    SizeLimitError,
    _require_square_free_proper,
    from_antichain_masks,
    mask_vars,
    monomial_str,
)

_FIELD = 16
FIELD_MAX = (1 << (_FIELD - 1)) - 1


def _high_mask(n: int) -> int:
    """Top bit of each of the n packed fields."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))


def _ones(n: int) -> int:
    """A 1 in each of the n packed fields."""
    return sum(1 << (_FIELD * i) for i in range(n))


def field_shift(i: int, n: int) -> int:
    """Bit offset of variable index i (x_{i+1}) in an n-variable packed int."""
    return _FIELD * (n - 1 - i)


def unpack(p: int, n: int) -> Monomial:
    """The exponent tuple of an n-variable packed int."""
    return struct.unpack(f">{n}H", p.to_bytes(2 * n, "big"))


def alexander_dual(a: MonomialIdeal) -> MonomialIdeal:
    """Square-free dual: generators <-> minimal vertex covers of the supports.

    The minimal transversals form an antichain, so they are only sorted into
    canonical order, not minimalised; more than `DEFAULT_GEN_CAP` raise
    SizeLimitError.  The blocker of the blocker is the clutter, so the dual's
    own minimal transversals are the supports of `a`, and the dual is given
    them.
    """
    _require_square_free_proper(a, "alexander_dual")
    return from_antichain_masks(a.n, a.transversal_masks(), a.support_masks())


@lru_cache(maxsize=512)
def _offsets(shifts: tuple[int, ...], total: int) -> tuple[tuple[int, int], ...]:
    """(offset, support) pairs: each packed exponent vector on the fields at
    `shifts` summing to `total`, with the top bits of its nonzero fields.

    The key is a prime's absolute field positions, so an entry is shared
    only by the same prime over the same number of variables: across the
    generators of one fold, and across calls (simis_check folds one ideal
    at every s, and a harness meets the same primes in many ideals).  The
    cache is bounded because it lives for the process: a pass of the
    harness or of the paths-and-cycles report fills under 300 entries
    (recursive suffixes included), holding under 2 000 pairs in all.  One
    entry is at most the fold's candidate count, which the generator cap
    bounds before the offsets are built.
    """
    head, rest = shifts[0], shifts[1:]
    bit = (FIELD_MAX + 1) << head
    if not rest:
        return ((total << head, bit if total else 0),)
    return tuple(((e << head) + o, (bit if e else 0) | m)
                 for e in range(total + 1) for o, m in _offsets(rest, total - e))


def symbolic_power(a: MonomialIdeal, s: int) -> MonomialIdeal:
    """I^(s) = intersection of s-th powers of the minimal primes of I."""
    _require_square_free_proper(a, "symbolic_power")
    if s < 1:
        raise ValueError("symbolic_power needs s >= 1")
    if s == 1:
        return a
    return MonomialIdeal(a.n, [unpack(g, a.n) for _, g in _fold(a, s)], _trusted=True)


def _fold(a: MonomialIdeal, s: int) -> list[tuple[int, int]]:
    """The minimal generators of I^(s), s >= 2, as the sorted (degree,
    packed) list the fold builds: canonical order."""
    primes = sorted(map(mask_vars, a.transversal_masks()), key=lambda p: (len(p), p))
    if s * len(primes[-1]) > FIELD_MAX:
        raise ValueError(
            f"symbolic power s={s} over a prime on {len(primes[-1])} variables "
            f"exceeds the packed-field capacity {FIELD_MAX}")
    n = a.n
    cap = ideals.DEFAULT_GEN_CAP
    high = _high_mask(n)
    ones = _ones(n)
    fill = FIELD_MAX * ones
    top = field_shift(0, n)
    current = [(0, 0)]
    folded: list[tuple[int, int]] = []    # (field mask, support) per folded prime
    for p in primes:
        shifts = tuple(field_shift(v, n) for v in p)
        pmask = sum(FIELD_MAX << x for x in shifts)
        psupp = sum((FIELD_MAX + 1) << x for x in shifts)
        needs = [s - (((g & pmask) * ones >> top) & FIELD_MAX) for _d, g in current]
        size = sum(c if need <= 0 else c * comb(need + len(shifts) - 1, len(shifts) - 1)
                   for need, c in Counter(needs).items())
        if size > cap:
            raise SizeLimitError(f"symbolic power intermediate size {size} exceeds cap {cap}")
        kept: list[tuple[int, int]] = []
        fresh: set[tuple[int, int]] = set()
        for (d, g), need in zip(current, needs):
            if need <= 0:
                kept.append((d, g))
                continue
            d += need
            offs = _offsets(shifts, need)
            # variables of g outside p need a folded prime of weight exactly
            # s through them; such a prime stays tight on g + o unless o
            # raises it, i.e. unless o meets its overlap with p
            rest = (g + fill) & high & ~psupp
            cond = []
            for qmask, qsupp in folded:
                if qsupp & rest and (((g & qmask) * ones >> top) & FIELD_MAX) == s:
                    if qsupp & psupp:
                        cond.append((qsupp & psupp, qsupp & rest))
                    else:
                        rest &= ~qsupp
            if not rest:
                fresh.update([(d, g + o) for o, _m in offs])
                continue
            for o, m in offs:
                left = rest
                for overlap, covers in cond:
                    if not m & overlap:
                        left &= ~covers
                if not left:
                    fresh.add((d, g + o))
        current = kept + list(fresh)
        current.sort()
        folded.append((pmask, psupp))
    return current


@dataclass(frozen=True)
class SimisReport:
    """Outcome of the bounded symbolic-vs-ordinary power comparison."""
    s_max: int
    verdict: str                      # "equal_up_to" or "witness_at"
    s: Optional[int] = None
    witness: Optional[Monomial] = None
    # every failing generator of the witness's degree at s, witness first;
    # not part of the report
    failures: tuple[Monomial, ...] = field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "s_max": self.s_max,
            "verdict": self.verdict,
            "s": self.s,
            "witness": monomial_str(self.witness) if self.witness is not None else None,
        }


def simis_check(a: MonomialIdeal, s_max: int) -> SimisReport:
    """Compare I^(s) with I^s for s = 2..s_max; stop at the first inequality.

    The witness, when present, is the first minimal generator of I^(s) in
    canonical order that fails membership in I^s; `failures` holds it and
    the failing generators of its degree after it, in canonical order.
    """
    _require_square_free_proper(a, "simis_check")
    if s_max < 1:
        raise ValueError("simis_check needs s_max >= 1")
    if all(sum(g) == 1 for g in a.gens) or len(a.gens) == 1:
        # complete intersections are Simis at every s
        return SimisReport(s_max, "equal_up_to")
    n = a.n
    ones, top = _ones(n), field_shift(0, n)
    fill, high = FIELD_MAX * ones, _high_mask(n)
    masks = a.support_masks()
    # the generator supports in the fold's layout, a top bit per variable
    supports = [sum((FIELD_MAX + 1) << field_shift(v, n) for v in mask_vars(m)) for m in masks]
    # bit j stands for generator j: `within[k]` of a prime P holds those m
    # with |m & P| <= k, and `inside[supp]` those with support inside supp,
    # filled for each support the fold meets
    primes = []
    for p in a.transversal_masks():
        meets = [(m & p).bit_count() for m in masks]
        primes.append((sum(FIELD_MAX << field_shift(v, n) for v in mask_vars(p)),
                       [sum(1 << j for j, c in enumerate(meets) if c <= k)
                        for k in range(max(meets))]))
    inside: dict[int, int] = {}

    def in_power(g: int, s: int) -> bool:
        # the peel test of the module docstring on a packed g; needs
        # I^(s-1) = I^{s-1}
        supp = (g + fill) & high
        cand = inside.get(supp)
        if cand is None:
            cand = inside[supp] = sum(1 << j for j, m in enumerate(supports) if not m & ~supp)
        for pmask, within in primes:
            if not cand:
                break
            slack = (((g & pmask) * ones >> top) & FIELD_MAX) - s + 1
            if slack < len(within):
                cand &= within[slack]
        return bool(cand)

    for s in range(2, s_max + 1):
        # generators come by degree, so the first failing level is complete
        for _d, level in groupby(_fold(a, s), key=itemgetter(0)):
            failures = tuple(unpack(g, n) for _d, g in level if not in_power(g, s))
            if failures:
                return SimisReport(s_max, "witness_at", s, failures[0], failures)
    return SimisReport(s_max, "equal_up_to")
