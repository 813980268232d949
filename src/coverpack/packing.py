"""Konig and packing properties of square-free monomial ideals.

A minor sets some variables to 0 (dropping every generator they divide) and
others to 1 (deleting them from the generators).  An ideal is Konig when it
has height-many generators with pairwise disjoint supports, and packed when
every minor is Konig.  The packing scan walks all 3^n minors as a ternary
counter (variable 1 is the least significant digit; digit 0 = keep,
1 = set to zero, 2 = set to one) and stops at the first failure, so the
reported witness minor is deterministic.

For cycles with t | n, `cycle_nonpacking_minor` builds the explicit
zero-sets that collapse J_t(C_n) onto the cover ideal of a smaller odd
cycle (t = 3), onto J_{t-1} of a shorter cycle (t >= 4), or onto one of
the two sporadic small targets; the construction is then verified by
comparing the restricted ideal against the target under some rotation or
reflection of the surviving cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graphs import Graph, connected_induced_subsets, is_connected_subset
from .ideals import (
    Monomial,
    MonomialIdeal,
    mask_to_monomial,
    min_cover_masks,
    minimalize,
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
    """Apply a minor; generators meeting a zero die, ones are deleted."""
    for v in minor.zeros + minor.ones:
        if not (1 <= v <= a.n):
            raise ValueError(f"minor touches variable {v} outside 1..{a.n}")
    zset = set(minor.zeros)
    oset = set(minor.ones)
    survivors = tuple(v for v in range(1, a.n + 1) if v not in zset and v not in oset)
    pos = {v: i for i, v in enumerate(survivors)}
    m = len(survivors)
    new_gens = []
    for g in a.gens:
        if any(g[v - 1] for v in zset):
            continue
        gg = [0] * m
        for v in survivors:
            gg[pos[v]] = g[v - 1]
        new_gens.append(tuple(gg))
    return Restriction(minimalize(m, new_gens), survivors)


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


def minor_code(minor: Minor, n: int) -> int:
    code = 0
    for v in minor.zeros:
        code += 3 ** (v - 1)
    for v in minor.ones:
        code += 2 * 3 ** (v - 1)
    return code


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


def _konig_masks(masks: Sequence[int], n: int) -> tuple[bool, int, int, tuple[int, ...]]:
    # returns (konig, height, max_disjoint, certificate_masks); when the capped
    # search misses the height it has in fact explored everything, so the
    # count it reports is the exact maximum
    h = min_cover_masks(masks, n)
    count, sel = _max_disjoint_masks(masks, need=h)
    return count >= h, h, count, sel


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
    """Height-many pairwise support-disjoint generators; zero/unit are vacuous."""
    if a.is_zero or a.is_unit:
        return KonigResult(True, None, None, None)
    if not a.is_square_free:
        raise ValueError("Konig property is set up for square-free ideals")
    ok, h, count, sel = _konig_masks(a.support_masks(), a.n)
    cert = tuple(mask_to_monomial(m, a.n) for m in sel) if ok else None
    return KonigResult(ok, h, count, cert)


@dataclass(frozen=True)
class PackingWitness:
    minor: Minor
    survivors: tuple[int, ...]
    restricted: MonomialIdeal        # over the compacted surviving universe
    height: int
    max_disjoint: int

    def gens_original_labels(self) -> list[str]:
        names = self.survivors
        out = []
        for g in self.restricted.gens:
            parts = [f"x{names[i]}" + (f"^{e}" if e > 1 else "")
                     for i, e in enumerate(g) if e]
            out.append("*".join(parts) if parts else "1")
        return out

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


def is_packed(a: MonomialIdeal) -> PackingReport:
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


# (n, t) with J_t(C_n) packed, t >= 3
PACKED_CYCLES = frozenset({(3, 3), (6, 3), (9, 3), (4, 4), (8, 4)})


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


def _dihedral_match(rest: Restriction, target: MonomialIdeal) -> bool:
    """Restricted ideal equals the target cycle cover ideal under some
    rotation/reflection of the surviving cyclic order."""
    n2 = target.n
    if len(rest.survivors) != n2:
        return False
    gens_pos = {frozenset(i + 1 for i, e in enumerate(g) if e) for g in rest.ideal.gens}
    tgens = [frozenset(i + 1 for i, e in enumerate(g) if e) for g in target.gens]
    if len(gens_pos) != len(tgens):
        return False
    for r in range(n2):
        for flip in (False, True):
            if flip:
                mapped = {frozenset((r - (p - 1)) % n2 + 1 for p in g) for g in tgens}
            else:
                mapped = {frozenset((p - 1 + r) % n2 + 1 for p in g) for g in tgens}
            if mapped == gens_pos:
                return True
    return False


def cycle_nonpacking_minor(n: int, t: int, verify: bool = True) -> CycleMinorResult:
    """Witness against packing for J_t(C_n), n > t >= 3, outside the packed list.

    When t does not divide n the ideal itself is not Konig (empty minor).
    Otherwise returns the explicit zero-set minor whose restriction is the
    cover ideal of a smaller non-Konig cycle instance, verified by matching
    the restriction against the target under the dihedral action.
    """
    if not (3 <= t < n):
        raise ValueError(f"need 3 <= t < n, got t={t}, n={n}")
    if (n, t) in PACKED_CYCLES:
        raise ValueError(f"J_{t}(C_{n}) is packed; no witness exists")
    if n % t:
        verified = False
        if verify:
            res = is_konig(cycle_cover_gens(n, t))
            if res.konig:
                raise VerificationError(
                    f"J_{t}(C_{n}) unexpectedly Konig despite t not dividing n")
            verified = True
        return CycleMinorResult(n, t, "not_konig", Minor(), None, verified)
    zeros, target = _cycle_zero_set(n, t)
    minor = Minor(zeros=zeros)
    verified = False
    if verify:
        rest = restrict(cycle_cover_gens(n, t), minor)
        tgt = cycle_cover_gens(*target)
        if not _dihedral_match(rest, tgt):
            raise VerificationError(
                f"restriction of J_{t}(C_{n}) by zeros {zeros} does not match "
                f"J_{target[1]}(C_{target[0]}) under the dihedral action")
        verified = True
    return CycleMinorResult(n, t, "minor", minor, target, verified)
