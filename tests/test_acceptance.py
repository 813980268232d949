"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete; they are also written unbuffered so they survive capture.
"""

import contextlib
import random
import sys
import time

from coverpack.classify import verify_theorem
from coverpack.duality import simis_check, symbolic_power
from coverpack.graphs import cycle, path, star
from coverpack.ideals import MonomialIdeal
from coverpack.lpdual import _columns, duality_gap_search, max_packing, nu, tau
from coverpack.packing import cycle_nonpacking_minor, is_konig, is_packed
from coverpack.tconn import cover_ideal, cycle_cover_gens, path_cover_gens
from oracles import member, member_power, minor_code, power


@contextlib.contextmanager
def criterion(num: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL", file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        print(f"[criterion {num:02d}] {name}: FAIL (took {elapsed:.1f}s, budget {budget:.0f}s)",
              file=sys.__stdout__, flush=True)
        raise AssertionError(f"criterion {num} exceeded budget: {elapsed:.1f}s > {budget}s")
    print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.1f}s)",
          file=sys.__stdout__, flush=True)


def _gens(strs, n):
    from oracles import parse_monomial
    return MonomialIdeal(n, [parse_monomial(s, n) for s in strs])


def test_criterion_01_golden_path_generators():
    with criterion(1, "golden-path-generators", 1.0):
        got = path_cover_gens(7, 4)
        expect = _gens(["x4", "x1*x5", "x2*x5", "x2*x6", "x3*x5", "x3*x6", "x3*x7"], 7)
        assert got == expect
        assert len(got.gens) == 7

        got = path_cover_gens(8, 3)
        expect = _gens(
            ["x1*x4*x6", "x1*x4*x7", "x1*x4*x5*x8", "x2*x4*x6", "x2*x4*x7",
             "x2*x5*x6", "x2*x5*x7", "x2*x5*x8", "x3*x4*x7", "x3*x5*x7",
             "x3*x5*x8", "x3*x6"], 8)
        assert got == expect
        assert len(got.gens) == 12


def test_criterion_02_closed_form_equals_brute_force():
    with criterion(2, "closed-form-vs-transversal", 60.0):
        for n in range(2, 13):
            for t in range(2, n + 1):
                assert path_cover_gens(n, t) == cover_ideal(path(n), t), ("path", n, t)
                if n >= 3:
                    assert cycle_cover_gens(n, t) == cover_ideal(cycle(n), t), ("cycle", n, t)


def test_criterion_03_konig_divisibility():
    with criterion(3, "cycle-konig-iff-divisible", 30.0):
        for n in range(3, 13):
            for t in range(3, n + 1):
                res = is_konig(cover_ideal(cycle(n), t))
                assert res.konig == (n % t == 0), (n, t)


def test_criterion_04_simis_positives():
    with criterion(4, "bounded-simis-positives", 300.0):
        for n, t in [(6, 3), (9, 3), (8, 4)]:
            rep = simis_check(cover_ideal(cycle(n), t), 4)
            assert rep.verdict == "equal_up_to", (n, t)
        for t in (3, 4, 5):
            for n in range(t, 10):
                rep = simis_check(cover_ideal(path(n), t), 3)
                assert rep.verdict == "equal_up_to", (n, t)


def test_criterion_05_simis_negative_witnesses():
    with criterion(5, "simis-negative-witnesses", 10.0):
        # K_{1,3} = star(4): first failure at s=2, witness = product of leaves
        rep = simis_check(cover_ideal(star(4), 3), 2)
        assert rep.verdict == "witness_at" and rep.s == 2
        assert rep.witness == (0, 1, 1, 1)

        # K_{1,4} = star(5): the expansion oracle puts the first failure at
        # s=2 (not 3); pinned after cross-checking both routes
        J = cover_ideal(star(5), 4)
        rep = simis_check(J, 3)
        assert rep.verdict == "witness_at" and rep.s == 2
        assert rep.witness == (0, 0, 1, 1, 1)
        assert member(rep.witness, symbolic_power(J, 2))
        assert not member(rep.witness, power(J, 2))
        # the four-leaf star still separates the powers at s=3 as well
        assert symbolic_power(J, 3) != power(J, 3)


def test_criterion_06_packing_verdicts():
    with criterion(6, "packing-verdicts", 90.0):
        packed = [(cycle(6), 3), (cycle(9), 3), (cycle(8), 4), (path(9), 3), (path(8), 5)]
        for g, t in packed:
            rep = is_packed(cover_ideal(g, t))
            assert rep.packed, (g, t)
        unpacked = [(star(4), 3), (cycle(7), 2), (cycle(7), 3), (cycle(12), 3), (cycle(12), 4)]
        for g, t in unpacked:
            rep = is_packed(cover_ideal(g, t))
            assert not rep.packed and rep.witness is not None, (g, t)
        # the 3^12 scan stops early at the first failing minor
        t0 = time.perf_counter()
        rep = is_packed(cover_ideal(cycle(12), 3))
        assert time.perf_counter() - t0 < 60.0
        assert not rep.packed
        assert rep.witness.minor.zeros == (1, 5, 9)
        assert rep.scanned == minor_code(rep.witness.minor, 12) + 1 == 6644


def test_criterion_07_cycle_minor_constructions():
    with criterion(7, "explicit-cycle-minors", 60.0):
        for n, t in [(12, 3), (15, 3), (18, 3), (21, 3), (16, 4), (12, 4), (10, 5), (12, 6)]:
            r = cycle_nonpacking_minor(n, t)
            assert r.kind == "minor", (n, t)


def test_criterion_08_classification_harness():
    with criterion(8, "classification-harness", 900.0):
        rep = verify_theorem(6)
        assert not rep.disagreements
        assert rep.summary()["instances"] == 109080
        assert rep.summary()["aborted"] == 0

        fams = []
        for n in range(3, 11):
            fams.append(path(n))
            fams.append(cycle(n))
        rep = verify_theorem(0, t_min=3, t_max=5, graphs=fams)
        assert not rep.disagreements
        assert rep.summary()["aborted"] == 0


def test_criterion_09_lp_duality():
    with criterion(9, "covering-packing-duality", 300.0):
        rng = random.Random(20260823)
        for g, t in [(path(6), 3), (path(7), 4), (cycle(6), 3), (cycle(8), 4), (cycle(9), 3)]:
            j = cover_ideal(g, t)
            alphas = [(1,) * g.n] + [tuple(rng.randint(0, 3) for _ in range(g.n))
                                     for _ in range(100)]
            for alpha in alphas:
                tv = tau(j, alpha)
                assert tv == nu(j, alpha), (g, t, alpha)

        j = cover_ideal(cycle(7), 3)
        assert tau(j, (1,) * 7) == 3
        assert nu(j, (1,) * 7) == 2

        res = duality_gap_search(cycle(12), 3, 2)
        if res.witness is None:
            print(f"gap search inconclusive after {res.scanned} vectors",
                  file=sys.__stdout__, flush=True)
        else:
            assert res.tau != res.nu
            assert res.witness == (0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1)


def test_criterion_10_invariant_suite():
    from coverpack.duality import alexander_dual
    from coverpack.ideals import mask_to_monomial, minimalize
    from oracles import from_masks, tau_enum

    with criterion(10, "structural-invariants", 600.0):
        rng = random.Random(1010)

        def rand_ideal(n_max=7, k_max=6):
            n = rng.randint(2, n_max)
            k = rng.randint(1, min(k_max, (1 << n) - 1))
            masks = set()
            while len(masks) < k:
                m = rng.getrandbits(n)
                if m:
                    masks.add(m)
            return minimalize(n, [mask_to_monomial(m, n) for m in masks])

        for _ in range(500):
            a = rand_ideal()
            assert alexander_dual(alexander_dual(a)) == a

        for _ in range(500):
            a = rand_ideal(n_max=6, k_max=5)
            s = rng.randint(2, 3)
            sym = symbolic_power(a, s)
            for g in power(a, s).gens:
                assert member(g, sym)

        for _ in range(500):
            a = rand_ideal(n_max=5, k_max=4)
            s = rng.randint(1, 3)
            expanded = power(a, s)
            m = tuple(rng.randint(0, 2) for _ in range(a.n))
            assert member_power(m, a, s) == member(m, expanded)
            assert (max_packing(_columns(a), m, s) >= s) == member(m, expanded)

        for _ in range(500):
            n = rng.randint(2, 7)
            cols = []
            for _ in range(rng.randint(1, 6)):
                c = [rng.randint(0, 1) for _ in range(n)]
                if not any(c):
                    c[rng.randrange(n)] = 1
                cols.append(sum(1 << i for i, e in enumerate(c) if e))
            # duplicate and nested columns change neither program
            j = from_masks(n, cols)
            alpha = tuple(rng.randint(0, 3) for _ in range(n))
            tv = tau(j, alpha)
            assert nu(j, alpha) <= tv
            assert tv == tau_enum(cols, alpha)
