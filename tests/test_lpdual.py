import random

import pytest

from conftest import random_square_free_ideal
from oracles import cycle_incidence_formula, minimal_solutions, path_incidence_formula, tau_enum
from coverpack.classify import connected_graphs, verify_theorem
from coverpack.duality import alexander_dual, simis_check
from coverpack.graphs import cycle, parse_graph6, path, star
from coverpack.ideals import SizeLimitError, parse_monomial
from coverpack.lpdual import (
    ZeroOneMatrix,
    cover_matrix,
    duality_gap_search,
    incidence_matrix,
    nu,
    tau,
)
from coverpack.tconn import cover_ideal, t_connected_ideal


def _random_matrix(rng, n_max=7, r_max=6):
    n = rng.randint(2, n_max)
    cols = []
    for _ in range(rng.randint(1, r_max)):
        c = [rng.randint(0, 1) for _ in range(n)]
        if not any(c):
            c[rng.randrange(n)] = 1
        cols.append(tuple(c))
    return ZeroOneMatrix(n, tuple(cols))


def test_matrix_validation():
    with pytest.raises(ValueError):
        ZeroOneMatrix(2, ((1, 2),))
    with pytest.raises(ValueError):
        ZeroOneMatrix(2, ((1,),))
    b = ZeroOneMatrix(3, ((1, 0, 1), (0, 1, 0)))
    assert b.r == 2
    assert b.column_masks() == (0b101, 0b010)
    assert b.row_strings() == ["10", "01", "10"]


def test_incidence_matrix_columns_are_generator_supports():
    b = incidence_matrix(path(5), 3)
    assert b.r == 3
    assert sorted(b.columns) == [(0, 0, 1, 1, 1), (0, 1, 1, 1, 0), (1, 1, 1, 0, 0)]


def test_path_incidence_formula_matches():
    # the closed form gives the same column set; order may differ from the
    # canonical ideal order, so compare as sets
    for n in range(2, 13):
        for t in range(2, n + 1):
            a = incidence_matrix(path(n), t)
            b = path_incidence_formula(n, t)
            assert sorted(a.columns) == sorted(b.columns), (n, t)


def test_cycle_incidence_formula_matches():
    for n in range(3, 13):
        for t in range(2, n):
            a = incidence_matrix(cycle(n), t)
            b = cycle_incidence_formula(n, t)
            assert sorted(a.columns) == sorted(b.columns), (n, t)


def test_cycle_incidence_formula_is_circulant():
    b = cycle_incidence_formula(9, 3)
    first = b.columns[0]
    for j, col in enumerate(b.columns):
        assert col == tuple(first[(i - j) % 9] for i in range(9))


def test_cycle_incidence_formula_domain():
    with pytest.raises(ValueError):
        cycle_incidence_formula(3, 3)


def test_minimal_solutions_match_dual_generators():
    rng = random.Random(23)
    for _ in range(120):
        a = random_square_free_ideal(rng)
        b = ZeroOneMatrix(a.n, tuple(tuple(g) for g in a.gens))
        sols = minimal_solutions(b)
        dual = alexander_dual(a)
        assert sorted(sols.column_masks()) == sorted(dual.support_masks())


def test_minimal_solutions_guards():
    with pytest.raises(ValueError):
        minimal_solutions(ZeroOneMatrix(2, ((0, 0),)))


# -- integer programs -------------------------------------------------------

def test_tau_nu_hand_values():
    b = cover_matrix(cycle(7), 3)
    assert tau(b, (1,) * 7) == 3
    assert nu(b, (1,) * 7) == 2
    b = cover_matrix(cycle(9), 3)
    assert tau(b, (1,) * 9) == 3
    assert nu(b, (1,) * 9) == 3


def test_tau_matches_enumeration_on_random_matrices():
    rng = random.Random(99)
    for _ in range(300):
        b = _random_matrix(rng)
        alpha = tuple(rng.randint(0, 3) for _ in range(b.n))
        assert tau(b, alpha) == tau_enum(b, alpha)


def test_tau_matches_enumeration_on_cover_matrices():
    rng = random.Random(101)
    for n in range(3, 13):
        for g in (path(n), cycle(n)):
            for t in (3, 4):
                if t > n:
                    continue
                b = cover_matrix(g, t)
                for _ in range(10):
                    alpha = tuple(rng.randint(0, 3) for _ in range(n))
                    assert tau(b, alpha) == tau_enum(b, alpha), (g, t, alpha)


def test_gap_search_covers_are_minimal_transversals():
    # tau and the gap search read tau off the matrix's cached minimal covers,
    # so they must be exactly the I_t(G) supports (J_t(G) is their Alexander
    # dual) and the minimal 0/1 covers a subset scan finds
    graphs = [path(n) for n in range(3, 13)] + [cycle(n) for n in range(3, 13)]
    graphs += [star(n) for n in range(4, 8)]
    for g in graphs:
        for t in range(3, g.n + 1):
            b = cover_matrix(g, t)
            covers = [sum(1 << i for i in c) for c in b.min_covers]
            assert b.min_covers is b.min_covers
            assert sorted(covers) == sorted(t_connected_ideal(g, t).support_masks()), (g, t)
            assert sorted(covers) == sorted(minimal_solutions(b).column_masks()), (g, t)


def test_weak_duality_random():
    rng = random.Random(100)
    for _ in range(300):
        b = _random_matrix(rng)
        alpha = tuple(rng.randint(0, 3) for _ in range(b.n))
        assert nu(b, alpha) <= tau(b, alpha)


def test_tau_zero_cost_variables_are_free():
    b = ZeroOneMatrix(3, ((1, 0, 0), (0, 1, 1)))
    assert tau(b, (0, 5, 7)) == 5
    assert tau(b, (0, 0, 7)) == 0


def test_nu_zero_capacity_blocks_columns():
    b = ZeroOneMatrix(2, ((1, 0), (1, 1)))
    assert nu(b, (0, 3)) == 0          # both columns touch row 1
    assert nu(b, (2, 3)) == 2


def test_program_validation():
    b = ZeroOneMatrix(2, ((1, 0),))
    with pytest.raises(ValueError):
        tau(b, (1,))
    with pytest.raises(ValueError):
        tau(b, (-1, 1))
    with pytest.raises(ValueError):
        tau(ZeroOneMatrix(2, ((0, 0),)), (1, 1))
    with pytest.raises(ValueError):
        nu(ZeroOneMatrix(2, ((0, 0),)), (1, 1))


def test_nu_alpha_one_equals_max_disjoint_columns():
    # with unit capacities, nu counts the largest set of pairwise
    # row-disjoint columns
    rng = random.Random(55)
    for _ in range(100):
        b = _random_matrix(rng, n_max=6, r_max=5)
        alpha = (1,) * b.n
        masks = b.column_masks()
        best = 0
        for sub in range(1 << len(masks)):
            chosen = [masks[i] for i in range(len(masks)) if sub >> i & 1]
            used = 0
            ok = True
            for m in chosen:
                if m & used:
                    ok = False
                    break
                used |= m
            if ok:
                best = max(best, len(chosen))
        assert nu(b, alpha) == best


# -- gap search -------------------------------------------------------------

def test_gap_search_finds_odd_cycle_gap():
    res = duality_gap_search(cycle(7), 3, 1)
    assert res.witness == (0, 1, 1, 0, 1, 1, 1)
    assert res.tau == 2 and res.nu == 1
    assert res.scanned == 18


def test_gap_search_witness_is_global_first():
    # replay the unreduced scan; the first gap must be the reported witness
    b = cover_matrix(cycle(7), 3)
    found = None
    count = 0
    from coverpack.lpdual import _vectors_by_sum
    for alpha in _vectors_by_sum(7, 1):
        count += 1
        tv = tau(b, alpha)
        nv = nu(b, alpha)
        if tv != nv:
            found = tuple(alpha)
            break
    assert found == duality_gap_search(cycle(7), 3, 1).witness


def test_gap_search_none_on_packed_instance():
    res = duality_gap_search(cycle(6), 3, 1)
    assert res.witness is None and res.tau is None
    assert res.scanned > 0


def test_gap_search_non_cycle_instances():
    res = duality_gap_search(star(4), 3, 1)
    assert res.witness is not None     # K_{1,3} cover instance has a gap


def test_gap_search_guards():
    with pytest.raises(ValueError):
        duality_gap_search(cycle(6), 3, 0)
    with pytest.raises(SizeLimitError):
        duality_gap_search(cycle(12), 3, 2, scan_cap=100)


def test_column_rows_built_once_in_size_order():
    b = ZeroOneMatrix(4, ((1, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 0), (0, 1, 0, 1)))
    assert b.column_rows is b.column_rows
    # shortest first, ties in column order
    assert b.column_rows == ((0,), (2, 3), (1, 3), (0, 1, 2))


def test_nu_row_cache_matches_fresh_matrix():
    # nu reads the per-column rows cached on the matrix; a matrix reused for
    # many alpha must give what a freshly built one gives
    rng = random.Random(47)
    for g in (cycle(9), path(10), cycle(11), star(6)):
        b = cover_matrix(g, 3)
        assert b.column_rows == tuple(
            tuple(i for i in range(b.n) if c[i]) for c in b.columns)
        for _ in range(15):
            alpha = tuple(rng.randint(0, 3) for _ in range(b.n))
            assert nu(b, alpha) == nu(ZeroOneMatrix(b.n, b.columns), alpha), (g, alpha)


# -- cross-module identities ------------------------------------------------

def _assert_witness_rows_have_gap(rows):
    # a minimal generator w of J^(s) outside J^s has weight >= s on every
    # minimal prime, with equality on one, so tau(B, w) = s; and w not in
    # J^s means no s generators pack under w, so nu(B, w) < s
    count = 0
    for r in rows:
        if r.simis_verdict != "witness_at":
            continue
        g = parse_graph6(r.graph6)
        w = parse_monomial(r.simis_witness, g.n)
        b = cover_matrix(g, r.t)
        assert tau(b, w) == r.simis_s > nu(b, w), r
        count += 1
    return count


def test_harness_witnesses_are_tau_nu_gaps_small_graphs():
    assert _assert_witness_rows_have_gap(verify_theorem(5).rows) == 1362


def test_harness_witnesses_are_tau_nu_gaps_six_vertex_sample():
    rng = random.Random(20261018)
    sample = rng.sample([g for _code, g in connected_graphs(6)], 200)
    assert _assert_witness_rows_have_gap(verify_theorem(0, graphs=sample).rows) > 0


def test_gap_search_witnesses_are_simis_witnesses():
    # x^alpha has weight >= tau(alpha) on every minimal prime, so it lies in
    # J^(tau); nu(alpha) < tau puts it outside J^tau, so the Simis check
    # fails at some s <= tau
    for n in (7, 10, 12):
        res = duality_gap_search(cycle(n), 3, 2)
        assert res.witness is not None and res.tau > res.nu, n
        rep = simis_check(cover_ideal(cycle(n), 3), res.tau)
        assert rep.verdict == "witness_at" and rep.s <= res.tau, (n, rep)
