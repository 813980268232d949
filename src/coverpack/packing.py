"""Konig and packing properties of square-free monomial ideals.

A minor sets some variables to 0 (dropping every generator they divide) and
others to 1 (deleting them from the generators).  An ideal is Konig when it
has height-many generators with pairwise disjoint supports, and packed when
every minor is Konig.  Minors are numbered by ternary codes: variable 1 is
the least significant digit, and digit 0 = keep, 1 = set to zero, 2 = set
to one.  The packing scan reports the first failing code, so its witness
minor is deterministic.

Konig is tau(C, 1) = nu(C, 1) for the clutter C of generator supports
(Cornuejols, "Combinatorial Optimization: Packing and Covering", SIAM
2001).  The height tau(1) is the size of the smallest set in the blocker
b(C), the minimal transversals of C.  nu(1) is `coverpack.ideals.max_packing`
under unit capacity over the supports in (popcount, mask) order, stopped
at the height; its include-first search makes the certificate the first
pairwise-disjoint height-subset of the supports in that order.

The scan is a depth-first search over the variables from n down to 1 that
tries the digits 0, 1, 2 in turn at each level, so it meets the minors in
ascending code order.  A node holds the set of support masks left by the
digits above it, kept an antichain: setting a variable to zero drops the
supports that contain it, and setting it to one deletes it and drops the
supports that now contain a shortened one.  Dropping duplicate and
non-minimal supports changes neither the height nor the largest number of
pairwise disjoint supports, and it commutes with both operations, so the
Konig verdict of every minor below a node depends only on that antichain.
A memo keyed (level, antichain) therefore evaluates each subtree once and
runs the Konig search once per distinct restricted clutter; it lives for
one call, and past `cap` entries the scan raises SizeLimitError.  A failing
leaf hands its height and exact max-disjoint count up with its code offset,
so the witness needs no second search.  An empty antichain (the zero
ideal) or one holding the empty support (the unit ideal) makes its whole
subtree vacuous, and a variable no support contains is skipped, since its
three children are equal.

Each node also carries the blocker of its antichain, so no leaf searches
for a cover.  The root takes the ideal's cached minimal transversals,
which `alexander_dual` hands over, so a cover ideal runs no transversal
search at all.  The children follow the blocker identities b(C \\ v) = b(C) / v and
b(C / v) = b(C) \\ v: setting v to zero deletes v from the clutter and
contracts it in the blocker (`_delete_bit`), and setting v to one
contracts it in the clutter and drops the transversals through v.  The
blocker is a function of the antichain, so the memo key stays as it is.

`restrict` applies a minor with the scan's own two steps, so minors have
one implementation; the witness minor is rebuilt with it.

For cycles with t | n, `cycle_nonpacking_minor` builds the explicit
zero-sets that collapse J_t(C_n) onto the cover ideal of a smaller odd
cycle (t = 3), onto J_{t-1} of a shorter cycle (t >= 4), or onto one of
the two sporadic small targets, and verifies each construction by testing
the restricted ideal, over the survivors in ascending order, for equality
with the target J_{t'}(C_{n'}).  That target is invariant under every
rotation and reflection of C_{n'}, so the restriction matches it under
some dihedral relabelling exactly when it equals it outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .ideals import (
    DEFAULT_SCAN_CAP,
    Monomial,
    MonomialIdeal,
    SizeLimitError,
    _require_square_free_proper,
    from_antichain_masks,
    mask_vars,
    max_packing,
    monomial_str,
)
from .tconn import cycle_cover_gens


class VerificationError(RuntimeError):
    """A constructed minor failed its own verification duty."""


@dataclass(frozen=True)
class Minor:
    """Disjoint sets of variables sent to 0 and to 1 (1-based labels)."""
    zeros: tuple[int, ...] = ()
    ones: tuple[int, ...] = ()

    def __post_init__(self):
        if set(self.zeros) & set(self.ones):
            raise ValueError("zeros and ones overlap")
        object.__setattr__(self, "zeros", tuple(sorted(set(self.zeros))))
        object.__setattr__(self, "ones", tuple(sorted(set(self.ones))))

    def to_json(self) -> dict:
        return {"zeros": list(self.zeros), "ones": list(self.ones)}


@dataclass(frozen=True)
class Restriction:
    """Result of a minor: ideal over the compacted surviving universe."""
    ideal: MonomialIdeal
    survivors: tuple[int, ...]   # original labels, ascending


def restrict(a: MonomialIdeal, minor: Minor) -> Restriction:
    """Apply a minor to the supports, as the scan does: a zero drops every
    support through its variable and a one is `_delete_bit`; the survivors'
    bits are then compacted onto 1..m in ascending order."""
    for v in minor.zeros + minor.ones:
        if not (1 <= v <= a.n):
            raise ValueError(f"minor touches variable {v} outside 1..{a.n}")
    if not a.is_square_free:
        raise ValueError("minors are set up for square-free ideals")
    zmask = sum(1 << (v - 1) for v in minor.zeros)
    clutter = frozenset(m for m in a.support_masks() if not m & zmask)
    for v in minor.ones:
        clutter = _delete_bit(clutter, 1 << (v - 1))
    survivors = tuple(v for v in range(1, a.n + 1)
                      if v not in minor.zeros and v not in minor.ones)
    masks = [sum(1 << i for i, v in enumerate(survivors) if m >> (v - 1) & 1)
             for m in clutter]
    return Restriction(from_antichain_masks(len(survivors), masks), survivors)


def minor_from_code(code: int, n: int) -> Minor:
    """Ternary decoding: digit i-1 of `code` controls variable i."""
    zeros, ones = [], []
    for v in range(1, n + 1):
        code, d = divmod(code, 3)
        if d == 1:
            zeros.append(v)
        elif d == 2:
            ones.append(v)
    return Minor(tuple(zeros), tuple(ones))


def _konig_masks(masks: Iterable[int], blocker: Iterable[int],
                 n: int) -> tuple[bool, int, int, list[tuple[int, ...]]]:
    # returns (konig, height, max_disjoint, certificate columns), the height
    # read off the blocker; when the packing search misses the height it has
    # explored everything, so the count it reports is the exact maximum
    h = min(t.bit_count() for t in blocker)
    rows = [mask_vars(m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))]
    count, cols = max_packing(rows, (1,) * n, need=h)
    return count >= h, h, count, cols


@dataclass(frozen=True)
class KonigResult:
    konig: bool
    height: Optional[int]
    max_disjoint: Optional[int]
    certificate: Optional[tuple[Monomial, ...]]

    def to_json(self) -> dict:
        return {
            "konig": self.konig,
            "height": self.height,
            "max_disjoint": self.max_disjoint,
            "certificate": [monomial_str(m) for m in self.certificate]
            if self.certificate is not None else None,
        }


def is_konig(a: MonomialIdeal) -> KonigResult:
    """Height-many pairwise support-disjoint generators; zero/unit are vacuous.

    The height comes from the ideal's minimal transversals, so an ideal with
    more than `DEFAULT_GEN_CAP` of them raises SizeLimitError.
    """
    if a.is_zero or a.is_unit:
        return KonigResult(True, None, None, None)
    if not a.is_square_free:
        raise ValueError("Konig property is set up for square-free ideals")
    ok, h, count, cols = _konig_masks(a.support_masks(), a.transversal_masks(), a.n)
    cert = tuple(tuple(1 if i in c else 0 for i in range(a.n)) for c in cols) if ok else None
    return KonigResult(ok, h, count, cert)


@dataclass(frozen=True)
class PackingWitness:
    minor: Minor
    survivors: tuple[int, ...]
    restricted: MonomialIdeal        # over the compacted surviving universe
    height: int
    max_disjoint: int

    def gens_original_labels(self) -> list[str]:
        return ["*".join(f"x{self.survivors[i]}" for i in mask_vars(m)) or "1"
                for m in self.restricted.support_masks()]

    def to_json(self) -> dict:
        return {
            "minor": self.minor.to_json(),
            "restricted_gens": self.gens_original_labels(),
            "height": self.height,
            "max_disjoint": self.max_disjoint,
        }


@dataclass(frozen=True)
class PackingReport:
    packed: bool
    scanned: int
    witness: Optional[PackingWitness] = None

    def to_json(self) -> dict:
        return {
            "packed": self.packed,
            "scanned": self.scanned,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _delete_bit(clutter: frozenset, bit: int) -> frozenset:
    """Contract the variable `bit`: delete it from every set, then drop the
    sets that contain a shortened one.  On the supports this sets the
    variable to one; on the blocker it follows setting it to zero.

    In an antichain only a shortened support can lie inside another support,
    and only inside one that did not contain the bit, so the result is an
    antichain again.
    """
    short = [m & ~bit for m in clutter if m & bit]
    kept = [m for m in clutter if not m & bit and not any(s & m == s for s in short)]
    return frozenset(short + kept)


def is_packed(a: MonomialIdeal, cap: int = DEFAULT_SCAN_CAP) -> PackingReport:
    """Scan all 3^n minors in ternary-code order; stop at the first failure.

    More than `cap` memoised (level, clutter) pairs raise SizeLimitError.
    """
    _require_square_free_proper(a, "is_packed")
    n = a.n
    masks = a.support_masks()
    # a variable-generated ideal only ever restricts to variable-generated,
    # unit or zero ideals, all vacuously Konig
    if all(m.bit_count() == 1 for m in masks):
        return PackingReport(True, 0, None)
    memo: dict[tuple[int, frozenset], Optional[tuple[int, int, int]]] = {}

    def scan(k: int, clutter: frozenset, blocker: frozenset) -> Optional[tuple[int, int, int]]:
        # first failure among the 3^k settings of variables 1..k, as
        # (offset, height, max_disjoint); None when every one is Konig.
        # `blocker` holds the minimal transversals of `clutter`
        if not clutter or 0 in clutter:
            return None                     # zero or unit: vacuous throughout
        union = 0
        for m in clutter:
            union |= m
        # variables no support contains leave three equal children, and their
        # digit is 0 at the first failure, so skip straight past them
        k = (union & ((1 << k) - 1)).bit_length()
        key = (k, clutter)
        if key in memo:
            return memo[key]
        if len(memo) >= cap:
            raise SizeLimitError(f"packing scan memo exceeds cap {cap}")
        if k == 0:
            ok, h, count, _cols = _konig_masks(clutter, blocker, n)
            found = None if ok else (0, h, count)
        else:
            bit = 1 << (k - 1)
            sub = scan(k - 1, clutter, blocker)
            digit = 0
            if sub is None:
                sub = scan(k - 1, frozenset(m for m in clutter if not m & bit),
                           _delete_bit(blocker, bit))
                digit = 1
            if sub is None:
                sub = scan(k - 1, _delete_bit(clutter, bit),
                           frozenset(t for t in blocker if not t & bit))
                digit = 2
            found = None if sub is None else (digit * 3 ** (k - 1) + sub[0], sub[1], sub[2])
        memo[key] = found
        return found

    found = scan(n, frozenset(masks), frozenset(a.transversal_masks()))
    if found is None:
        return PackingReport(True, 3 ** n, None)
    code, h, count = found
    minor = minor_from_code(code, n)
    restriction = restrict(a, minor)
    return PackingReport(False, code + 1,
                         PackingWitness(minor, restriction.survivors,
                                        restriction.ideal, h, count))


# ---------------------------------------------------------------------------
# explicit non-packing minors for cycles with t | n

@dataclass(frozen=True)
class CycleMinorResult:
    n: int
    t: int
    kind: str                        # "not_konig" or "minor"
    minor: Optional[Minor]
    target: Optional[tuple[int, int]]  # (n', t') of the collapsed cover instance
    verified: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "kind": self.kind,
            "minor": self.minor.to_json() if self.minor else None,
            "target": list(self.target) if self.target else None,
            "verified": self.verified,
        }


# (n, t) with n > t >= 3 and J_t(C_n) packed; n = t is packed for every graph
PACKED_CYCLES = frozenset({(6, 3), (9, 3), (8, 4)})


def _cycle_zero_set(n: int, t: int) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Zero set and target (n', t') per the case analysis; needs t | n, n > t."""
    ell = n // t
    if t == 3:
        k, rem = divmod(n, 12)
        if rem == 0:
            if k % 2 == 0:
                zeros = [1, 4, 7, 10] + [4 * i + 13 for i in range(3 * k - 3)]
                target = (9 * k - 1, 2)
            else:
                zeros = [4 * i + 1 for i in range(3 * k)]
                target = (9 * k, 2)
        elif rem == 3:
            zeros = [1, 5, 9] + [3 * i + 13 for i in range(4 * k - 3)]
            target = (8 * k + 3, 2)
        elif rem == 6:
            zeros = [3 * i + 1 for i in range(4 * k - 1)] + [12 * k - 1, 12 * k + 3]
            target = (8 * k + 5, 2)
        else:  # rem == 9
            zeros = [3 * i + 1 for i in range(4 * k)] + [12 * k + 2, 12 * k + 6]
            target = (8 * k + 7, 2)
        return tuple(sorted(zeros)), target
    if t == 4 and ell == 3:
        return (1, 4, 6, 8, 11), (7, 2)          # sporadic: lands on C_7 covers
    if t == 5 and ell == 2:
        return (2, 4, 6, 8, 10), (5, 2)          # sporadic: lands on C_5 covers
    # generic descent: kill every t-th vertex, drop to t-1 on a shorter cycle
    return tuple(t * m for m in range(1, ell + 1)), ((t - 1) * ell, t - 1)


def cycle_nonpacking_minor(n: int, t: int) -> CycleMinorResult:
    """Witness against packing for J_t(C_n), n > t >= 3, outside the packed list.

    When t does not divide n the ideal itself is not Konig (empty minor).
    Otherwise returns the explicit zero-set minor whose restriction is the
    cover ideal of a smaller non-Konig cycle instance.  Either claim is
    checked before returning; a failed check raises VerificationError.
    """
    if not (3 <= t < n):
        raise ValueError(f"need 3 <= t < n, got t={t}, n={n}")
    if (n, t) in PACKED_CYCLES:
        raise ValueError(f"J_{t}(C_{n}) is packed; no witness exists")
    if n % t:
        if is_konig(cycle_cover_gens(n, t)).konig:
            raise VerificationError(
                f"J_{t}(C_{n}) unexpectedly Konig despite t not dividing n")
        return CycleMinorResult(n, t, "not_konig", Minor(), None, True)
    zeros, target = _cycle_zero_set(n, t)
    minor = Minor(zeros=zeros)
    if restrict(cycle_cover_gens(n, t), minor).ideal != cycle_cover_gens(*target):
        raise VerificationError(
            f"restriction of J_{t}(C_{n}) by zeros {zeros} is not "
            f"J_{target[1]}(C_{target[0]})")
    return CycleMinorResult(n, t, "minor", minor, target, True)
