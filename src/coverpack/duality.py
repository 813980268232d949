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

The fold state is a sorted list of (degree, packed) pairs in the layout of
`coverpack.ideals`: 16 bits per variable with x1 in the most significant
field, so sorting the pairs gives the canonical (degree, exponent tuple)
order.  A prime's weight on a generator is one mask of its fields and one
multiply by the all-ones pattern, which sums the fields into the top one.
Folding in P^s keeps every generator g with weight w(g) >= s and replaces
the others by g times each composition of s - w(g) over P's variables (each
composition offset packed once per (prime, s - w)).  Kept generators need
no divisibility test: if a new candidate g*m divided a kept h, then g | h
inside the previous antichain, so g = h, which w(g) < s <= w(h) rules out.
Only the new candidates are tested, each against the accepted generators of
strictly lower degree (equal degree and dividing means equal).

Exponent limit.  Every exponent in the fold stays at most s and a prime's
weight at most s times its size, so s * (largest prime size) must not pass
the 15-bit field capacity FIELD_MAX = 32767.  `symbolic_power` raises
ValueError past it, checked per call; nothing is allowed to wrap silently.

The bounded Simis check compares I^(s) with I^s for s = 2..s_max.  Since
I^s is always contained in I^(s), equality at s holds iff every minimal
generator of the symbolic power lies in I^s; that avoids ever expanding I^s.
Let B have the generator supports of the square-free I as columns.  A
product of s generators (with repetition) divides g exactly when some z in
N^r with sum(z) = s has B z <= g, so g lies in I^s iff nu(B, g) >= s: the
test is `coverpack.ideals.max_packing`, stopped once it reaches s.  The
minimal primes are the minimal covers of B, so g lies in I^(s) iff
tau(B, g) >= s, and the Simis check compares tau with nu as the gap search
does (Simis <=> max-flow min-cut; Gitler, Reyes and Villarreal, Rocky
Mountain J. Math. 39, 2009).  At the first failing s the check goes on
through the generators of the first failure's degree and reports them all
(`SimisReport.failures`); a relabelling of the variables keeps degrees, so
these give the first failure of every relabelled ideal as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Optional, Sequence

from .ideals import (
    DEFAULT_GEN_CAP,
    FIELD_MAX,
    MonomialIdeal,
    Monomial,
    SizeLimitError,
    _high_mask,
    _ones,
    field_shift,
    from_antichain_masks,
    max_packing,
    monomial_str,
    unpack,
)


def _require_square_free_proper(a: MonomialIdeal, what: str):
    if a.is_zero:
        raise ValueError(f"{what} needs a nonzero ideal")
    if a.is_unit:
        raise ValueError(f"{what} needs a proper ideal")
    if not a.is_square_free:
        raise ValueError(f"{what} needs a square-free ideal")


def alexander_dual(a: MonomialIdeal, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """Square-free dual: generators <-> minimal vertex covers of the supports.

    The minimal transversals form an antichain, so they are only sorted into
    canonical order, not minimalised; more than `cap` raise SizeLimitError.
    """
    _require_square_free_proper(a, "alexander_dual")
    return from_antichain_masks(a.n, a.transversal_masks(cap))


def minimal_primes(a: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Supports of the minimal primes, as sorted 1-based variable tuples."""
    _require_square_free_proper(a, "minimal_primes")
    return tuple(tuple(i + 1 for i in range(a.n) if m >> i & 1)
                 for m in a.transversal_masks())


def _offsets(shifts: Sequence[int], total: int) -> list[int]:
    """Packed exponent vectors on the fields at `shifts` summing to `total`."""
    if len(shifts) == 1:
        return [total << shifts[0]]
    head, rest = shifts[0], shifts[1:]
    return [(e << head) + o
            for e in range(total + 1) for o in _offsets(rest, total - e)]


def symbolic_power(a: MonomialIdeal, s: int, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """I^(s) = intersection of s-th powers of the minimal primes of I."""
    _require_square_free_proper(a, "symbolic_power")
    if s < 1:
        raise ValueError("symbolic_power needs s >= 1")
    if s == 1:
        return a
    primes = sorted(minimal_primes(a), key=lambda p: (len(p), p))
    if s * len(primes[-1]) > FIELD_MAX:
        raise ValueError(
            f"symbolic power s={s} over a prime on {len(primes[-1])} variables "
            f"exceeds the packed-field capacity {FIELD_MAX}")
    n = a.n
    high = _high_mask(n)
    ones = _ones(n)
    top = field_shift(0, n)
    shifts = [[field_shift(v - 1, n) for v in p] for p in primes]
    current = [(0, 0)]
    for sh in shifts:
        pmask = sum(FIELD_MAX << x for x in sh)
        by_need: dict[int, list[int]] = {}
        kept: list[tuple[int, int]] = []
        fresh: list[tuple[int, int]] = []
        for d, g in current:
            need = s - (((g & pmask) * ones >> top) & FIELD_MAX)
            if need <= 0:
                kept.append((d, g))
                continue
            offs = by_need.get(need)
            if offs is None:
                offs = by_need[need] = _offsets(sh, need)
            d += need
            fresh.extend([(d, g + o) for o in offs])
        if len(kept) + len(fresh) > cap:
            raise SizeLimitError(
                f"symbolic power intermediate size {len(kept) + len(fresh)} exceeds cap {cap}")
        # accept each new candidate unless an accepted generator of lower
        # degree divides it; kept generators are minimal without a test
        pool: list[int] = []
        level: list[int] = []
        accepted: list[tuple[int, int]] = []
        ki, nk, cur = 0, len(kept), -1
        for d, g in sorted(set(fresh)):
            if d != cur:
                pool += level
                level = []
                while ki < nk and kept[ki][0] < d:
                    pool.append(kept[ki][1])
                    ki += 1
                cur = d
            for h in pool:
                if not (g - h) & high:
                    break
            else:
                level.append(g)
                accepted.append((d, g))
        current = kept + accepted
        current.sort()
    return MonomialIdeal(n, [unpack(g, n) for _, g in current], _trusted=True)


@dataclass(frozen=True)
class SimisReport:
    """Outcome of the bounded symbolic-vs-ordinary power comparison."""
    n: int
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


def simis_check(a: MonomialIdeal, s_max: int, cap: int = DEFAULT_GEN_CAP) -> SimisReport:
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
        return SimisReport(a.n, s_max, "equal_up_to")
    rows = a.support_rows()
    for s in range(2, s_max + 1):
        # generators come by degree, so the first failing level is complete
        for _d, level in groupby(symbolic_power(a, s, cap=cap).gens, key=sum):
            failures = tuple(g for g in level if max_packing(rows, g, s)[0] < s)
            if failures:
                return SimisReport(a.n, s_max, "witness_at", s, failures[0], failures)
    return SimisReport(a.n, s_max, "equal_up_to")
