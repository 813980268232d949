import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_square_free_ideal
from oracles import _ternary_minor_masks, branching_subset_witness, flat_is_packed, minor_code
from coverpack.classify import connected_graphs
from coverpack.graphs import complete, cycle, path, star
from coverpack.ideals import SizeLimitError, from_masks, minimalize, unit_ideal, zero_ideal
import coverpack.packing
from coverpack.packing import (
    CycleMinorResult,
    Minor,
    VerificationError,
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
        rest = restrict(a, Minor(zeros=zs, ones=os_))
        surv = [v for v in labels if v not in zs and v not in os_]
        pos = {v: i for i, v in enumerate(surv)}
        exp = []
        for g in a.gens:
            if any(g[v - 1] for v in zs):
                continue
            t2 = [0] * len(surv)
            for v in surv:
                t2[pos[v]] = g[v - 1]
            exp.append(tuple(t2))
        assert rest.survivors == tuple(surv)
        assert rest.ideal == minimalize(len(surv), exp)


# -- Konig ------------------------------------------------------------------

def test_konig_vacuous():
    assert is_konig(zero_ideal(3)).konig
    assert is_konig(unit_ideal(3)).konig


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
        is_packed(zero_ideal(3))
    with pytest.raises(ValueError):
        is_packed(unit_ideal(3))


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


def test_scan_matches_flat_scan_on_random_clutters():
    # supports with duplicates and nested pairs, minimalised by from_masks
    rng = random.Random(11)
    verdicts = set()
    for _ in range(500):
        n = rng.randint(2, 8)
        masks = [rng.getrandbits(n) or 1 for _ in range(rng.randint(1, 12))]
        for _ in range(rng.randint(0, 3)):
            m = rng.choice(masks)
            masks += [m, m | rng.getrandbits(n)]
        a = from_masks(n, masks)
        rep = is_packed(a)
        assert rep == flat_is_packed(a), (n, masks)
        verdicts.add(rep.packed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("g", [path(8), cycle(9)], ids=["P8", "C9"])
def test_konig_runs_once_per_distinct_clutter(monkeypatch, g):
    # a full scan of a packed ideal evaluates each distinct minimalised
    # restricted clutter exactly once
    J = cover_ideal(g, 3)
    masks = J.support_masks()
    distinct = set()
    for _code, zmask, omask in _ternary_minor_masks(J.n):
        rest = {m & ~omask for m in masks if not m & zmask}
        if rest and 0 not in rest:
            distinct.add(frozenset(m for m in rest
                                   if not any(s != m and s & m == s for s in rest)))
    calls = []
    real = coverpack.packing.min_cover_masks
    monkeypatch.setattr(coverpack.packing, "min_cover_masks",
                        lambda *args: calls.append(1) or real(*args))
    assert is_packed(J).packed
    assert len(calls) == len(distinct)


def test_scan_cap():
    J = cover_ideal(path(10), 3)
    with pytest.raises(SizeLimitError):
        is_packed(J, cap=50)
    assert is_packed(J).packed


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


def test_cycle_minor_verify_flag():
    r = cycle_nonpacking_minor(12, 3, verify=False)
    assert not r.verified and r.kind == "minor"


def test_cycle_minor_json():
    r = cycle_nonpacking_minor(10, 5)
    j = r.to_json()
    assert j["kind"] == "minor" and j["target"] == [5, 2] and j["verified"]


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
