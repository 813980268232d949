import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monomials, random_square_free_ideal, square_free_ideals
from coverpack.classify import connected_graphs
from coverpack.duality import (
    SimisReport,
    alexander_dual,
    lowest_failures,
    minimal_primes,
    simis_check,
    symbolic_power,
)
from coverpack.graphs import cycle, path, star
from coverpack.ideals import (
    FIELD_MAX,
    SizeLimitError,
    max_packing,
    minimalize,
    power,
    unit_ideal,
    zero_ideal,
)
from coverpack.tconn import cover_ideal, t_connected_ideal
from oracles import (in_symbolic_shortcut, intersect, member, member_power, prime_power_gens,
                     prime_power_weight, symbolic_power_tuples)


def test_dual_hand_cases():
    # edge ideal of the 3-path: dual is the cover ideal <x2, x1*x3>
    a = minimalize(3, [(1, 1, 0), (0, 1, 1)])
    assert alexander_dual(a).gens == ((0, 1, 0), (1, 0, 1))
    # square (4-cycle) edge ideal: covers are the two diagonals' complements
    c4 = minimalize(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)])
    assert alexander_dual(c4).gens == ((0, 1, 0, 1), (1, 0, 1, 0))


def test_dual_rejects_bad_input():
    for bad in (zero_ideal(2), unit_ideal(2), minimalize(2, [(2, 0)])):
        with pytest.raises(ValueError):
            alexander_dual(bad)


@given(square_free_ideals())
@settings(max_examples=200, deadline=None)
def test_dual_involution(a):
    assert alexander_dual(alexander_dual(a)) == a


def test_minimal_primes_are_dual_supports():
    rng = random.Random(3)
    for _ in range(100):
        a = random_square_free_ideal(rng)
        d = alexander_dual(a)
        expect = sorted(tuple(i + 1 for i in range(a.n) if m >> i & 1)
                        for m in d.support_masks())
        assert sorted(minimal_primes(a)) == expect


def test_cover_ideal_primes_are_generator_supports():
    # minimal primes of J_t(G) are exactly the supports of the I_t(G) generators
    for g, t in [(path(6), 3), (cycle(7), 3), (star(5), 2)]:
        J = cover_ideal(g, t)
        I = t_connected_ideal(g, t)
        expect = sorted(tuple(i + 1 for i in range(g.n) if m >> i & 1)
                        for m in I.support_masks())
        assert sorted(minimal_primes(J)) == expect


def test_prime_power_weight_and_shortcut():
    assert prime_power_weight((2, 0, 1), (1, 3)) == 3
    primes = [(1, 2), (2, 3)]
    assert in_symbolic_shortcut((1, 1, 1), primes, 2)
    assert not in_symbolic_shortcut((2, 0, 1), primes, 2)


# -- symbolic powers --------------------------------------------------------

def _symbolic_via_intersections(a, s):
    """Independent route: build each prime power fully, fold with intersect."""
    parts = [minimalize(a.n, prime_power_gens(a.n, p, s)) for p in minimal_primes(a)]
    return functools.reduce(intersect, parts)


def test_symbolic_power_small_identities():
    a = minimalize(3, [(1, 1, 0), (0, 1, 1)])
    assert symbolic_power(a, 1) == a
    p = minimalize(3, [(1, 0, 0)])
    assert symbolic_power(p, 4) == power(p, 4)
    v = minimalize(3, [(1, 0, 0), (0, 1, 0)])
    assert symbolic_power(v, 3) == power(v, 3)


def test_symbolic_power_against_intersection_fold():
    rng = random.Random(19)
    for _ in range(60):
        a = random_square_free_ideal(rng, n_max=6, k_max=5)
        for s in (2, 3):
            assert symbolic_power(a, s) == _symbolic_via_intersections(a, s)


@given(square_free_ideals(n_max=6, k_max=5), st.integers(2, 3))
@settings(max_examples=80, deadline=None)
def test_ordinary_contained_in_symbolic(a, s):
    sym = symbolic_power(a, s)
    for g in power(a, s).gens:
        assert member(g, sym)


@given(square_free_ideals(n_max=6, k_max=5), st.integers(2, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_symbolic_membership_shortcut_agrees(a, s, data):
    sym = symbolic_power(a, s)
    primes = minimal_primes(a)
    m = data.draw(monomials(a.n, max_exp=s))
    assert member(m, sym) == in_symbolic_shortcut(m, primes, s)


def _check_fold_against_oracle(g, t):
    # same generators in the same order as the tuple fold; the packing
    # route nu(B_J, m) >= s and the oracle member_power both agree with
    # membership in the expanded power (s <= 3, beyond which expanding J^s
    # dominates the suite's run time)
    J = cover_ideal(g, t)
    for s in range(2, t + 1):
        sym = symbolic_power(J, s)
        assert sym.gens == symbolic_power_tuples(J, s).gens, (g, t, s)
        if s <= 3:
            ordinary = power(J, s)
            for m in sym.gens:
                want = member(m, ordinary)
                assert member_power(m, J, s) == want, (g, t, s, m)
                assert (max_packing(J.support_rows(), m, s) >= s) == want, (g, t, s, m)


def test_packed_fold_matches_tuple_oracle_small_graphs():
    for n in range(3, 6):
        for _code, g in connected_graphs(n):
            for t in range(3, n + 1):
                _check_fold_against_oracle(g, t)


def test_packed_fold_matches_tuple_oracle_paths_cycles():
    for n in range(3, 10):
        for g in (path(n), cycle(n)):
            for t in range(2, min(n, 4) + 1):
                _check_fold_against_oracle(g, t)


def test_symbolic_power_field_capacity():
    # J_2(P_3) = <x2, x1*x3>: minimal primes <x1, x2> and <x2, x3>, so the
    # weight of a prime reaches 2s and s = FIELD_MAX // 2 is the last safe s
    J = cover_ideal(path(3), 2)
    with pytest.raises(ValueError, match="capacity"):
        symbolic_power(J, FIELD_MAX // 2 + 1)
    # the guard runs after the complete-intersection fast path, which has
    # no weight sums: a principal ideal keeps its powers past that limit
    principal = minimalize(3, [(1, 1, 1)])
    assert symbolic_power(principal, 12000).gens == ((12000, 12000, 12000),)
    # the check is lazy in s: a witness below the limit is still reported
    rep = simis_check(cover_ideal(cycle(5), 2), FIELD_MAX)
    assert rep.verdict == "witness_at" and rep.s == 2


def test_member_power_field_capacity():
    J = cover_ideal(path(3), 2)
    assert member_power((FIELD_MAX, 0, 0), minimalize(3, [(1, 0, 0)]), 3)
    with pytest.raises(ValueError, match="capacity"):
        member_power((FIELD_MAX + 1, 1, 1), J, 2)


def test_symbolic_power_cap():
    J = cover_ideal(cycle(9), 3)
    with pytest.raises(SizeLimitError):
        symbolic_power(J, 3, cap=10)


def test_symbolic_power_validation():
    a = minimalize(2, [(1, 1)])
    with pytest.raises(ValueError):
        symbolic_power(a, 0)
    with pytest.raises(ValueError):
        symbolic_power(minimalize(2, [(2, 0)]), 2)


# -- bounded Simis check ----------------------------------------------------

def test_simis_variable_generated_fast_path():
    v = minimalize(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    rep = simis_check(v, 5)
    assert rep.verdict == "equal_up_to" and rep.s is None and rep.witness is None


def test_simis_witness_odd_cycle_cover():
    # cover ideal of the 5-cycle: first failure at s=2 with the full product
    J = cover_ideal(cycle(5), 2)
    rep = simis_check(J, 3)
    assert rep.verdict == "witness_at"
    assert rep.s == 2
    assert rep.witness == (1, 1, 1, 1, 1)
    # confirm by expansion that the witness separates the powers
    assert member(rep.witness, symbolic_power(J, 2))
    assert not member(rep.witness, power(J, 2))


def test_simis_equal_bipartite_cover():
    J = cover_ideal(cycle(6), 2)
    assert simis_check(J, 3).verdict == "equal_up_to"
    J = cover_ideal(path(6), 2)
    assert simis_check(J, 3).verdict == "equal_up_to"


def test_simis_witness_is_canonical_first():
    # the reported witness must be the first symbolic generator (canonical
    # order) outside the ordinary power
    J = cover_ideal(star(5), 4)
    rep = simis_check(J, 3)
    assert rep.verdict == "witness_at"
    sym = symbolic_power(J, rep.s)
    ordinary = power(J, rep.s)
    failing = [g for g in sym.gens if not member(g, ordinary)]
    assert failing and failing[0] == rep.witness


def test_lowest_failures_match_expanded_power():
    # every failing generator of the witness's degree, in canonical order
    cases = [(star(5), 4), (star(4), 3), (cycle(7), 3), (cycle(5), 3)]
    cases += [(g, 3) for _code, g in connected_graphs(5)][::40]
    seen = 0
    for g, t in cases:
        J = cover_ideal(g, t)
        rep = simis_check(J, t)
        if rep.verdict != "witness_at":
            continue
        ordinary = power(J, rep.s)
        d = sum(rep.witness)
        want = [m for m in symbolic_power(J, rep.s).gens
                if sum(m) == d and not member(m, ordinary)]
        assert lowest_failures(J, rep.s, rep.witness) == want, (g, t)
        seen += len(want) > 1
    assert seen


def test_simis_report_json():
    rep = SimisReport(3, 4, "witness_at", 2, (1, 1, 1))
    assert rep.to_json() == {"s_max": 4, "verdict": "witness_at", "s": 2,
                             "witness": "x1*x2*x3"}
