import itertools
import random

import pytest

from conftest import random_square_free_ideal
from oracles import (_ternary_minor_masks, branching_subset_witness, flat_is_packed, from_masks,
                     konig_by_max_packing, konig_masks, minor_code)
from coverpack.classify import connected_graphs
from coverpack.graphs import complete, cycle, path, star
from coverpack.ideals import MonomialIdeal, SizeLimitError, minimal_transversals, minimalize
import coverpack.ideals
import coverpack.packing
from coverpack.packing import (
    Minor,
    VerificationError,
    _konig_masks,
    cycle_nonpacking_minor,
    is_konig,
    is_packed,
    minor_from_code,
    restrict,
)
from coverpack.tconn import cover_ideal, cycle_cover_gens


# -- minors -----------------------------------------------------------------

def test_minor_validation():
    with pytest.raises(ValueError):
        Minor(zeros=(1, 2), ones=(2, 3))
    m = Minor(zeros=(3, 1, 1), ones=(2,))
    assert m.zeros == (1, 3) and m.ones == (2,)


def test_minor_code_round_trip_exhaustive():
    for n in range(1, 6):
        for code in range(3 ** n):
            assert minor_code(minor_from_code(code, n), n) == code


def test_minor_code_convention():
    # variable 1 is the least significant ternary digit; 1 = zero, 2 = one
    m = minor_from_code(7, 3)          # 7 = 1*1 + 2*3 -> digits (1, 2, 0)
    assert m.zeros == (1,) and m.ones == (2,)
    m = minor_from_code(5, 3)          # 5 = 2*1 + 1*3 -> digits (2, 1, 0)
    assert m.zeros == (2,) and m.ones == (1,)


def _tuple_restriction(a, minor):
    # the minor on exponent tuples: drop the generators through a zero, delete
    # the zeros and ones from the rest, and minimalise
    surv = [v for v in range(1, a.n + 1) if v not in minor.zeros and v not in minor.ones]
    gens = [tuple(g[v - 1] for v in surv) for g in a.gens
            if not any(g[v - 1] for v in minor.zeros)]
    return tuple(surv), minimalize(len(surv), gens)


def test_restrict_hand_case():
    a = minimalize(3, [(1, 1, 0), (0, 1, 1)])
    r = restrict(a, Minor(zeros=(1,), ones=()))
    assert r.survivors == (2, 3)
    assert r.ideal.gens == ((1, 1),)
    r = restrict(a, Minor(zeros=(), ones=(2,)))
    assert r.survivors == (1, 3)
    assert r.ideal.gens == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        restrict(a, Minor(zeros=(9,)))


def test_restrict_zero_and_unit_outcomes():
    a = minimalize(2, [(1, 1)])
    assert restrict(a, Minor(zeros=(1,))).ideal.is_zero
    assert restrict(a, Minor(ones=(1, 2))).ideal.is_unit


def test_restrict_random_consistency():
    rng = random.Random(5)
    for _ in range(150):
        a = random_square_free_ideal(rng)
        n = a.n
        labels = list(range(1, n + 1))
        zs = tuple(v for v in labels if rng.random() < 0.3)
        os_ = tuple(v for v in labels if v not in zs and rng.random() < 0.3)
        minor = Minor(zeros=zs, ones=os_)
        rest = restrict(a, minor)
        assert (rest.survivors, rest.ideal) == _tuple_restriction(a, minor)


def test_restrict_every_minor_of_small_cover_ideals():
    # every minor of J_t(G), G connected on at most 4 vertices
    for n in range(2, 5):
        for _code, g in connected_graphs(n):
            for t in range(2, n + 1):
                a = cover_ideal(g, t)
                for code in range(3 ** n):
                    minor = minor_from_code(code, n)
                    rest = restrict(a, minor)
                    assert (rest.survivors, rest.ideal) == _tuple_restriction(a, minor), \
                        (g, t, code)


def test_restrict_rejects_non_square_free():
    with pytest.raises(ValueError, match="square-free"):
        restrict(minimalize(2, [(2, 0), (0, 1)]), Minor(zeros=(2,)))


# -- Konig ------------------------------------------------------------------

def test_konig_vacuous():
    assert is_konig(MonomialIdeal(3, [])).konig
    assert is_konig(MonomialIdeal(3, [(0, 0, 0)])).konig


def test_konig_hand_cases():
    # height 1, any single generator is a certificate
    a = minimalize(3, [(1, 1, 0), (0, 1, 1)])
    res = is_konig(a)
    assert res.konig and res.height == 1 and res.max_disjoint >= 1
    # the two-disjoint-edges ideal: height 2, certificate both gens
    b = minimalize(4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    res = is_konig(b)
    assert res.konig and res.height == 2 and res.max_disjoint == 2
    # J_3 of the 3-star: height 3 but no 3 disjoint generators
    J = cover_ideal(star(4), 3)
    res = is_konig(J)
    assert not res.konig and res.height == 3 and res.max_disjoint == 2
    assert res.certificate is None


def test_konig_certificate_is_valid():
    res = is_konig(cover_ideal(cycle(9), 3))
    assert res.konig and res.height == 3
    used = 0
    for m in res.certificate:
        mask = sum(1 << i for i, e in enumerate(m) if e)
        assert not (mask & used)
        used |= mask


def test_konig_rejects_non_square_free():
    with pytest.raises(ValueError):
        is_konig(minimalize(2, [(2, 0)]))


# -- packing ----------------------------------------------------------------

def test_packed_known_verdicts():
    assert is_packed(cover_ideal(cycle(4), 2)).packed
    assert is_packed(cover_ideal(path(7), 3)).packed
    assert not is_packed(cover_ideal(cycle(5), 2)).packed
    assert not is_packed(cover_ideal(star(4), 3)).packed


def test_packed_variable_generated_fast_path():
    a = minimalize(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    rep = is_packed(a)
    assert rep.packed and rep.scanned == 0


def test_packing_witness_is_first_failure():
    # re-scan the ternary codes below the witness with the object-level
    # restriction route; all must be Konig and the witness itself must not be
    J = cover_ideal(cycle(5), 2)
    rep = is_packed(J)
    assert not rep.packed
    wcode = minor_code(rep.witness.minor, J.n)
    assert rep.scanned == wcode + 1
    for code in range(wcode):
        r = restrict(J, minor_from_code(code, J.n))
        assert is_konig(r.ideal).konig, code
    bad = restrict(J, rep.witness.minor)
    res = is_konig(bad.ideal)
    assert not res.konig
    assert res.height == rep.witness.height
    assert res.max_disjoint == rep.witness.max_disjoint


def test_packing_witness_fields():
    rep = is_packed(cover_ideal(star(4), 3))
    w = rep.witness
    assert w.minor == Minor()           # fails already at the empty minor
    assert w.survivors == (1, 2, 3, 4)
    assert w.height == 3 and w.max_disjoint == 2
    assert rep.scanned == 1
    labels = w.gens_original_labels()
    assert labels[0] == "x1"


def test_packed_rejects_bad_input():
    with pytest.raises(ValueError):
        is_packed(MonomialIdeal(3, []))
    with pytest.raises(ValueError):
        is_packed(MonomialIdeal(3, [(0, 0, 0)]))


def test_scan_matches_flat_scan_on_small_graphs():
    # same verdict, count and witness, field for field, as the odometer scan
    for n in range(2, 6):
        for _, g in connected_graphs(n):
            for t in range(2, n + 1):
                J = cover_ideal(g, t)
                assert is_packed(J) == flat_is_packed(J), (g.edges, t)


def test_scan_matches_flat_scan_on_six_vertex_sample():
    rng = random.Random(2026)
    for _, g in rng.sample(list(connected_graphs(6)), 300):
        for t in range(2, 7):
            J = cover_ideal(g, t)
            assert is_packed(J) == flat_is_packed(J), (g.edges, t)


@pytest.mark.parametrize("make", [path, cycle, star])
def test_scan_matches_flat_scan_on_families(make):
    for n in range(3, 11):
        for t in range(2, min(n, 4) + 1):
            J = cover_ideal(make(n), t)
            assert is_packed(J) == flat_is_packed(J), (n, t)


def _random_clutters(seed: int, count: int):
    # supports with duplicates and nested pairs, minimalised by from_masks
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 8)
        masks = [rng.getrandbits(n) or 1 for _ in range(rng.randint(1, 12))]
        for _ in range(rng.randint(0, 3)):
            m = rng.choice(masks)
            masks += [m, m | rng.getrandbits(n)]
        yield n, masks, from_masks(n, masks)


def test_scan_matches_flat_scan_on_random_clutters():
    # each scan on its own, and one memo through all of them: the clutters
    # have different numbers of variables, and a key one ideal left gives
    # another the same subtree result
    memo = {}
    verdicts = set()
    for n, masks, a in _random_clutters(11, 500):
        rep = is_packed(a)
        assert rep == flat_is_packed(a), (n, masks)
        assert is_packed(a, memo) == rep, (n, masks)
        verdicts.add(rep.packed)
    assert verdicts == {True, False}


def _compacted(clutter):
    # the clutter with its unused variables deleted: its used ones renumbered
    # onto 1..m in ascending order
    used = 0
    for m in clutter:
        used |= m
    bits = [i for i in range(used.bit_length()) if used >> i & 1]
    return frozenset(sum(1 << j for j, i in enumerate(bits) if m >> i & 1) for m in clutter)


@pytest.mark.parametrize("g", [path(8), cycle(9)], ids=["P8", "C9"])
def test_konig_runs_once_per_distinct_clutter(monkeypatch, g):
    # a full scan of a packed ideal never evaluates the same clutter twice;
    # it evaluates fewer than the distinct minimalised restricted clutters,
    # since the scan packs the kept variables down, but no fewer than those
    # clutters with their unused variables deleted
    J = cover_ideal(g, 3)
    masks = J.support_masks()
    distinct = set()
    for _code, zmask, omask in _ternary_minor_masks(J.n):
        rest = {m & ~omask for m in masks if not m & zmask}
        if rest and 0 not in rest:
            distinct.add(frozenset(m for m in rest
                                   if not any(s != m and s & m == s for s in rest)))
    compacted = {_compacted(c) for c in distinct}
    calls = []
    real = coverpack.packing._max_disjoint
    monkeypatch.setattr(coverpack.packing, "_max_disjoint",
                        lambda masks, *args: calls.append(frozenset(masks))
                        or real(masks, *args))
    assert is_packed(J).packed
    assert len(set(calls)) == len(calls)
    assert len(compacted) <= len(calls) < len(distinct)


def test_scan_carries_each_leaf_blocker(monkeypatch):
    # the blocker handed down by b(C\v) = b(C)/v and b(C/v) = b(C)\v is the
    # set of minimal transversals of the leaf's clutter, as MMCS finds it
    leaves = []
    real = coverpack.packing._konig_masks

    def checked(masks, blocker, n):
        assert set(blocker) == set(minimal_transversals(list(masks))), masks
        leaves.append(1)
        return real(masks, blocker, n)

    monkeypatch.setattr(coverpack.packing, "_konig_masks", checked)
    ideals = [cover_ideal(path(8), 3), cover_ideal(cycle(9), 3)]
    ideals += [a for _n, _m, a in _random_clutters(11, 200)]
    for a in ideals:
        is_packed(a)
    assert len(leaves) > 1000


def test_bitmask_konig_matches_max_packing():
    # verdict, height and count agree with max_packing under unit capacity
    # on the restricted clutter of every minor of J_3(P_8) and J_3(C_9)
    # (zero and unit minors have no Konig test) and on random clutters; the
    # certificate, given on Konig clutters only, agrees with the oracle's
    # max-disjoint search
    cases = set()
    for g in (path(8), cycle(9)):
        masks = cover_ideal(g, 3).support_masks()
        for _code, zmask, omask in _ternary_minor_masks(g.n):
            rest = frozenset(m & ~omask for m in masks if not m & zmask)
            if rest and 0 not in rest:
                cases.add((g.n, rest))
    cases |= {(n, frozenset(a.support_masks())) for n, _m, a in _random_clutters(37, 200)}
    failing = 0
    for n, clutter in cases:
        blocker = minimal_transversals(list(clutter))
        ok, h, count, cert = _konig_masks(clutter, blocker, n)
        assert (ok, h, count) == konig_by_max_packing(clutter, blocker, n), (n, sorted(clutter))
        assert cert == (list(konig_masks(clutter, n)[3]) if ok else []), (n, sorted(clutter))
        failing += not ok
    assert failing >= 10 and len(cases) - failing > 7000


def _first_disjoint_combination(masks, h):
    # the first pairwise-disjoint h-subset of the supports, in
    # itertools.combinations order over the (popcount, mask) order
    ordered = sorted(masks, key=lambda m: (m.bit_count(), m))
    for combo in itertools.combinations(ordered, h):
        if not any(x & y for x, y in itertools.combinations(combo, 2)):
            return combo
    return None


def test_konig_certificate_is_first_disjoint_combination():
    ideals = [cover_ideal(g, t) for n in range(2, 6)
              for _, g in connected_graphs(n) for t in range(2, n + 1)]
    ideals += [a for _n, _m, a in _random_clutters(23, 300)]
    certified = 0
    for a in ideals:
        res = is_konig(a)
        masks = a.support_masks()
        want = _first_disjoint_combination(masks, res.height)
        assert res.konig == (want is not None), a
        if res.konig:
            certified += 1
            got = tuple(sum(1 << i for i, e in enumerate(m) if e) for m in res.certificate)
            assert got == want, a
    assert certified > 1000


def test_scan_cap(monkeypatch):
    J = cover_ideal(path(10), 3)
    assert is_packed(J).packed
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_SCAN_CAP", 50)
    with pytest.raises(SizeLimitError):
        is_packed(J)


class ReadLog(dict):
    """A memo that records the keys read from it."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("t", [3, 4])
def test_last_variable_set_to_one_is_the_shorter_path(t):
    # x_n = 1 takes J_t(P_n) and J_t(C_n) onto J_t(P_{n-1}) on the same
    # masks, so the scan of a packed path or cycle reads the root entry the
    # shorter path's scan left in a shared memo
    met = []
    for n in range(max(4, t + 1), 11):
        target = cover_ideal(path(n - 1), t)
        for g in (path(n), cycle(n)):
            res = restrict(cover_ideal(g, t), Minor(ones=(n,)))
            assert res.survivors == tuple(range(1, n)) and res.ideal == target, (g, t)
        if n - 1 == t:
            continue                    # the maximal ideal runs no scan
        memo = ReadLog()
        is_packed(target, memo)
        root = (n - 1, tuple(sorted(target.support_masks())))
        for g in (path(n), cycle(n)):
            memo.read.clear()
            if is_packed(cover_ideal(g, t), memo).packed:
                assert root in memo.read, (g, t)
                met.append(g == cycle(n))
    assert True in met and False in met


def test_given_memo_is_read_and_extended(monkeypatch):
    # a fresh memo gives the call's own entries; a second scan of the same
    # ideal is one memo hit at its root, with the same report
    J = cover_ideal(cycle(9), 3)
    calls = []
    real = coverpack.packing._konig_masks
    monkeypatch.setattr(coverpack.packing, "_konig_masks",
                        lambda *args: calls.append(1) or real(*args))
    want = is_packed(J)
    alone = len(calls)
    memo = {}
    assert is_packed(J, memo) == want and len(calls) == 2 * alone
    entries = dict(memo)
    assert is_packed(J, memo) == want and len(calls) == 2 * alone
    assert memo == entries
    # a memo holding another ideal's entries gives the same report, witness
    # included
    K = cover_ideal(cycle(7), 3)
    assert is_packed(K, memo) == is_packed(K)


@pytest.mark.parametrize("n, t", [(9, 3), (10, 3), (10, 4)])
def test_scan_cap_is_exact(monkeypatch, n, t):
    # a scan that trips the cap holds exactly the cap's entries: the guard
    # sits on the insertion, after the node's children have returned
    J = cover_ideal(path(n), t)
    for cap in range(1, 400, 3):
        monkeypatch.setattr(coverpack.ideals, "DEFAULT_SCAN_CAP", cap)
        memo = {}
        with pytest.raises(SizeLimitError):
            is_packed(J, memo)
        assert len(memo) == cap, cap


def test_full_shared_memo_is_emptied_first(monkeypatch):
    # a memo holding DEFAULT_SCAN_CAP entries is emptied before the next
    # call, which may then add that many of its own: J_3(P_10) needs more
    # on its own and trips with the memo at the cap, not twice it
    memo = {}
    is_packed(cover_ideal(path(9), 3), memo)
    cap = len(memo)
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_SCAN_CAP", cap)
    with pytest.raises(SizeLimitError):
        is_packed(cover_ideal(path(10), 3), memo)
    assert len(memo) == cap


# -- explicit cycle minors --------------------------------------------------

def test_cycle_minor_rejects_packed_pairs():
    for n, t in [(6, 3), (9, 3), (8, 4)]:
        with pytest.raises(ValueError):
            cycle_nonpacking_minor(n, t)
    with pytest.raises(ValueError):
        cycle_nonpacking_minor(5, 5)


def test_cycle_minor_indivisible_kind():
    r = cycle_nonpacking_minor(8, 3)
    assert r.kind == "not_konig" and r.verified
    assert r.minor == Minor() and r.target is None


def test_cycle_minor_divisible_grid():
    # every divisible pair in a modest grid verifies against its target
    from coverpack.classify import theorem_classification
    for t in range(3, 7):
        for n in range(2 * t, 25, t):
            if (n, t) in {(6, 3), (9, 3), (8, 4)}:
                continue
            r = cycle_nonpacking_minor(n, t)
            assert r.kind == "minor" and r.verified, (n, t)
            n2, t2 = r.target
            # the target instance is itself outside the packed family
            assert not theorem_classification(cycle(n2), t2).verdict, (n, t)
            if t2 == 2:
                # odd-cycle cover targets fail Konig outright
                rest = restrict(cycle_cover_gens(n, t), r.minor)
                assert n2 % 2 == 1
                assert not is_konig(rest.ideal).konig, (n, t)


def test_cycle_minor_wrong_zero_set_fails_verification(monkeypatch):
    # killing 1, 2, 3 kills every cover of J_3(C_12), so the zero ideal is
    # not the claimed J_2(C_9)
    monkeypatch.setattr(coverpack.packing, "_cycle_zero_set", lambda n, t: ((1, 2, 3), (9, 2)))
    with pytest.raises(VerificationError, match="J_2\\(C_9\\)"):
        cycle_nonpacking_minor(12, 3)


def test_cycle_minor_target():
    r = cycle_nonpacking_minor(10, 5)
    assert r.kind == "minor" and r.target == (5, 2) and r.verified


# -- connected subsets with many non-cut vertices ----------------------------

def test_branching_witness_star():
    got = branching_subset_witness(star(4), 3)
    assert got == ((1, 2, 3, 4), 3)


def test_branching_witness_absent_on_paths_and_cycles():
    assert branching_subset_witness(path(6), 3) is None
    assert branching_subset_witness(cycle(7), 3) is None
    assert branching_subset_witness(path(5), 5) is None


def test_branching_witness_complete():
    got = branching_subset_witness(complete(5), 3)
    assert got == ((1, 2, 3, 4), 4)
