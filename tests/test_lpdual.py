import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import coverpack.ideals
import coverpack.lpdual
from conftest import random_square_free_ideal, square_free_ideals
from oracles import (cycle_incidence_formula, from_masks, gap_search_unpruned, minimal_solutions,
                     parse_monomial, path_incidence_formula, tau_enum)
from coverpack.canon import canonical_form
from coverpack.classify import connected_graphs, verify_theorem
from coverpack.duality import alexander_dual, simis_check
from coverpack.graphs import Graph, cycle, parse_graph6, path, star
from coverpack.ideals import MonomialIdeal, SizeLimitError
from coverpack.lpdual import _vectors_by_sum, duality_gap_search, nu, tau
from coverpack.tconn import cover_ideal, t_connected_ideal


def _random_matrix(rng, n_max=7, r_max=6):
    """(n, column masks) of a random 0/1 matrix without zero columns;
    duplicate and nested columns are kept."""
    n = rng.randint(2, n_max)
    cols = []
    for _ in range(rng.randint(1, r_max)):
        c = [rng.randint(0, 1) for _ in range(n)]
        if not any(c):
            c[rng.randrange(n)] = 1
        cols.append(sum(1 << i for i, e in enumerate(c) if e))
    return n, cols


def test_incidence_matrix_columns_are_generator_supports():
    a = t_connected_ideal(path(5), 3)
    assert a.gens == ((0, 0, 1, 1, 1), (0, 1, 1, 1, 0), (1, 1, 1, 0, 0))
    assert a.support_masks() == (0b11100, 0b01110, 0b00111)


def test_path_incidence_formula_matches():
    # the closed form gives the same supports; order may differ from the
    # canonical ideal order, so compare as sets
    for n in range(2, 13):
        for t in range(2, n + 1):
            a = t_connected_ideal(path(n), t).support_masks()
            assert sorted(a) == sorted(path_incidence_formula(n, t)), (n, t)


def test_cycle_incidence_formula_matches():
    for n in range(3, 13):
        for t in range(2, n):
            a = t_connected_ideal(cycle(n), t).support_masks()
            assert sorted(a) == sorted(cycle_incidence_formula(n, t)), (n, t)


def test_cycle_incidence_formula_is_circulant():
    masks = cycle_incidence_formula(9, 3)
    full = (1 << 9) - 1
    for j, m in enumerate(masks):
        # support j is support 0 rotated by j variables
        assert m == (masks[0] << j | masks[0] >> (9 - j)) & full


def test_cycle_incidence_formula_domain():
    with pytest.raises(ValueError):
        cycle_incidence_formula(3, 3)


def test_minimal_solutions_match_dual_generators():
    rng = random.Random(23)
    for _ in range(120):
        a = random_square_free_ideal(rng)
        sols = minimal_solutions(a.support_masks(), a.n)
        dual = alexander_dual(a)
        assert sorted(sols) == sorted(dual.support_masks())


def test_minimal_solutions_guards():
    with pytest.raises(ValueError):
        minimal_solutions([0], 2)


# -- integer programs -------------------------------------------------------

def test_tau_nu_hand_values():
    j = cover_ideal(cycle(7), 3)
    assert tau(j, (1,) * 7) == 3
    assert nu(j, (1,) * 7) == 2
    j = cover_ideal(cycle(9), 3)
    assert tau(j, (1,) * 9) == 3
    assert nu(j, (1,) * 9) == 3


def test_tau_matches_enumeration_on_random_matrices():
    # duplicate and nested columns change neither program, so the ideal
    # from_masks minimalises them into stands in for the raw matrix
    rng = random.Random(99)
    for _ in range(300):
        n, cols = _random_matrix(rng)
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        assert tau(from_masks(n, cols), alpha) == tau_enum(cols, alpha)


def test_tau_matches_enumeration_on_cover_matrices():
    rng = random.Random(101)
    for n in range(3, 13):
        for g in (path(n), cycle(n)):
            for t in (3, 4):
                if t > n:
                    continue
                j = cover_ideal(g, t)
                masks = j.support_masks()
                for _ in range(10):
                    alpha = tuple(rng.randint(0, 3) for _ in range(n))
                    assert tau(j, alpha) == tau_enum(masks, alpha), (g, t, alpha)


def test_gap_search_covers_are_minimal_transversals():
    # tau and the gap search read tau off the cover ideal's cached minimal
    # transversals, so they must be exactly the I_t(G) supports (J_t(G) is
    # their Alexander dual) and the minimal 0/1 covers a subset scan finds
    graphs = [path(n) for n in range(3, 13)] + [cycle(n) for n in range(3, 13)]
    graphs += [star(n) for n in range(4, 8)]
    for g in graphs:
        for t in range(3, g.n + 1):
            j = cover_ideal(g, t)
            covers = j.transversal_masks()
            assert j.transversal_masks() is covers
            assert sorted(covers) == sorted(t_connected_ideal(g, t).support_masks()), (g, t)
            assert sorted(covers) == sorted(minimal_solutions(j.support_masks(), j.n)), (g, t)


def test_tau_nu_run_no_transversal_search_on_a_cover_ideal(monkeypatch):
    # alexander_dual hands J the I_t(G) supports as its minimal transversals, so
    # tau and nu run no search; the gap search runs exactly one, to dualize
    calls = []
    search = coverpack.ideals.minimal_transversals

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(coverpack.ideals, "minimal_transversals", counted)
    j = cover_ideal(cycle(9), 3)
    assert len(calls) == 1
    calls.clear()
    for alpha in [(1,) * 9, (0, 1, 2, 3, 0, 1, 2, 3, 0)]:
        assert nu(j, alpha) <= tau(j, alpha)
    assert calls == []
    assert duality_gap_search(cycle(9), 3, 2).witness is None
    assert len(calls) == 1


def test_weak_duality_random():
    rng = random.Random(100)
    for _ in range(300):
        n, cols = _random_matrix(rng)
        alpha = tuple(rng.randint(0, 3) for _ in range(n))
        j = from_masks(n, cols)
        assert nu(j, alpha) <= tau(j, alpha)


def test_tau_zero_cost_variables_are_free():
    j = from_masks(3, [0b001, 0b110])
    assert tau(j, (0, 5, 7)) == 5
    assert tau(j, (0, 0, 7)) == 0


def test_nu_zero_capacity_blocks_columns():
    # x1 and x1*x2 minimalise to x1, which leaves the same programs
    j = from_masks(2, [0b01, 0b11])
    assert nu(j, (0, 3)) == 0          # the column touches row 1
    assert nu(j, (2, 3)) == 2


def test_program_validation():
    j = from_masks(2, [0b01])
    with pytest.raises(ValueError, match="alpha length must match the row count"):
        tau(j, (1,))
    with pytest.raises(ValueError, match="alpha length must match the row count"):
        nu(j, (1, 1, 1))
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        tau(j, (-1, 1))
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        nu(j, (1, -1))
    bad = [(MonomialIdeal(2, []), "nonzero"), (MonomialIdeal(2, [(0, 0)]), "proper"),
           (MonomialIdeal(2, [(2, 0)]), "square-free")]
    for ideal, what in bad:
        for program in (tau, nu):
            with pytest.raises(ValueError, match=what):
                program(ideal, (1, 1))


def test_nu_alpha_one_equals_max_disjoint_columns():
    # with unit capacities, nu counts the largest set of pairwise
    # row-disjoint columns of the raw matrix, duplicates and nested
    # columns included
    rng = random.Random(55)
    for _ in range(100):
        n, masks = _random_matrix(rng, n_max=6, r_max=5)
        alpha = (1,) * n
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
        assert nu(from_masks(n, masks), alpha) == best


# -- gap search -------------------------------------------------------------

def test_gap_search_finds_odd_cycle_gap():
    res = duality_gap_search(cycle(7), 3, 1)
    assert res.witness == (0, 1, 1, 0, 1, 1, 1)
    assert res.tau == 2 and res.nu == 1
    assert res.scanned == 18


def test_gap_search_witness_is_global_first():
    # the oracle evaluates every alpha of the sorted product; its first gap
    # must be the reported witness
    assert gap_search_unpruned(cycle(7), 3, 1) == duality_gap_search(cycle(7), 3, 1)


def test_gap_search_matches_unpruned_oracle_paths_cycles():
    # orbit pruning skips alpha but must not change the witness, tau, nu or
    # the count of scanned alpha
    for n in range(2, 10):
        for g in [path(n)] + ([cycle(n)] if n >= 3 else []):
            for t in range(2, n + 1):
                for bound in (1, 2):
                    if (bound + 1) ** n <= 20_000:
                        assert duality_gap_search(g, t, bound) == gap_search_unpruned(g, t, bound), \
                            (g, t, bound)


def test_gap_search_matches_unpruned_oracle_on_connected_classes():
    # one labelled graph per isomorphism class: the tau argument that skips
    # the packing search holds on every graph, not only on paths and cycles
    reps = {}
    for n in range(2, 6):
        for _code, g in connected_graphs(n):
            reps.setdefault(canonical_form(g)[0], g)
    assert len(reps) == 1 + 2 + 6 + 21      # OEIS A001349, n = 2..5
    for g in reps.values():
        for t in range(2, g.n + 1):
            for bound in (1, 2):
                assert duality_gap_search(g, t, bound) == gap_search_unpruned(g, t, bound), \
                    (g, t, bound)


@given(square_free_ideals(), st.data())
@settings(max_examples=150, deadline=None)
def test_tau_nu_rise_by_at_most_one_per_unit_of_capacity(j, data):
    # the gap search's argument: raising alpha_i by 1 raises tau and nu by 0
    # or 1, and where tau(alpha) = tau(alpha + e_i) = nu(alpha), nu(alpha +
    # e_i) is squeezed between nu(alpha) and tau(alpha + e_i)
    alpha = tuple(data.draw(st.lists(st.integers(0, 3), min_size=j.n, max_size=j.n)))
    i = data.draw(st.integers(0, j.n - 1))
    up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
    t0, t1, n0, n1 = tau(j, alpha), tau(j, up), nu(j, alpha), nu(j, up)
    assert t0 <= t1 <= t0 + 1
    assert n0 <= n1 <= n0 + 1
    if t0 == t1 == n0:
        assert n1 == t1


def _relabel(g, perm):
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def _count_evaluations(monkeypatch):
    """(orbit evaluations, packing searches): the alpha at which the gap
    search computes tau, and the subset of those at which it runs nu."""
    taus, packings = [], []
    lightest, search = coverpack.lpdual._lightest, coverpack.lpdual.max_packing

    def counted_tau(getters, masks, alpha):
        taus.append(alpha)
        return lightest(getters, masks, alpha)

    def counted_nu(rows, alpha, *args):
        packings.append(alpha)
        return search(rows, alpha, *args)

    monkeypatch.setattr(coverpack.lpdual, "_lightest", counted_tau)
    monkeypatch.setattr(coverpack.lpdual, "max_packing", counted_nu)
    return taus, packings


def test_gap_search_matches_unpruned_oracle_without_pruning(monkeypatch):
    # star(5) and relabelled copies of C_7 and P_7 are none of the graphs the
    # search knows symmetries of, so it counts and evaluates every alpha
    perm = (3, 6, 1, 7, 2, 5, 4)
    graphs = [star(5), _relabel(cycle(7), perm), _relabel(path(7), perm)]
    assert graphs[1] != cycle(7) and graphs[2] != path(7)
    taus, packings = _count_evaluations(monkeypatch)
    for g in graphs:
        for t in range(2, g.n + 1):
            for bound in (1, 2):
                if (bound + 1) ** g.n <= 20_000:
                    taus.clear()
                    packings.clear()
                    res = duality_gap_search(g, t, bound)
                    assert len(taus) == res.scanned, (g, t, bound)
                    assert set(packings) <= set(taus), (g, t, bound)
                    assert res == gap_search_unpruned(g, t, bound), (g, t, bound)
    # the relabelled C_7 counts all 102 alpha up to its first gap, the
    # standard one only the 18 rotation classes up to its own
    assert duality_gap_search(graphs[1], 3, 1).scanned == 102
    assert duality_gap_search(cycle(7), 3, 1).scanned == 18


def test_vectors_by_sum_is_sorted_product_order():
    for n in range(1, 9):
        for b in range(1, 4):
            want = sorted(product(range(b + 1), repeat=n), key=lambda v: (sum(v), v))
            assert list(_vectors_by_sum(n, b)) == want, (n, b)


@pytest.mark.parametrize("g, witness, tau_value, nu_value, scanned, evaluated, packed", [
    (cycle(12), (0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1), 2, 1, 8436, 4401, 17),
    (path(9), None, None, None, 19683, 9963, 174),
    (cycle(9), None, None, None, 2195, 1219, 37),
    (cycle(10), (0, 1, 1, 0, 1, 1, 0, 1, 1, 1), 2, 1, 1000, 556, 6),
], ids=["cycle:12", "path:9", "cycle:9", "cycle:10"])
def test_dual_lp_gap_searches_pinned(monkeypatch, g, witness, tau_value, nu_value, scanned,
                                     evaluated, packed):
    # the four gap searches of the dual_lp benchmark workload, t = 3, bound 2;
    # tau runs once per orbit: (3^9 + 3^5)/2 = 9963 reversal classes on P_9,
    # and the 1219 ternary bracelets of length 9 on C_9; the packing search
    # runs only where every variable of alpha's support lies in a lightest
    # prime, and always at the witness
    taus, packings = _count_evaluations(monkeypatch)
    res = duality_gap_search(g, 3, 2)
    assert (res.witness, res.tau, res.nu, res.scanned) == (witness, tau_value, nu_value, scanned)
    assert len(taus) == evaluated
    assert len(packings) == packed
    assert witness is None or packings[-1] == witness


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


def test_nu_row_cache_matches_fresh_matrix():
    # nu reads the support rows off the ideal; an ideal reused for many
    # alpha must give what a freshly built one gives
    rng = random.Random(47)
    for g in (cycle(9), path(10), cycle(11), star(6)):
        j = cover_ideal(g, 3)
        # square-free generators in canonical order are already sorted by size
        assert j.support_rows() == tuple(
            tuple(i for i in range(j.n) if c[i]) for c in j.gens)
        for _ in range(15):
            alpha = tuple(rng.randint(0, 3) for _ in range(j.n))
            assert nu(j, alpha) == nu(MonomialIdeal(j.n, j.gens), alpha), (g, alpha)


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
        j = cover_ideal(g, r.t)
        assert tau(j, w) == r.simis_s > nu(j, w), r
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
