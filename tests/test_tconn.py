import itertools
import math
import random

import pytest

from oracles import (brute_cover_ideal, brute_minimal_transversals, cycle_konig_sequence,
                     filtered_minimal_transversals, from_masks)
from coverpack.graphs import Graph, complete, cycle, path, star
from coverpack.classify import connected_graphs
from coverpack.ideals import (
    SizeLimitError,
    VerificationError,
    minimal_transversals,
    minimalize,
    support_mask,
)
import coverpack.ideals
import coverpack.tconn
from coverpack.duality import alexander_dual
from coverpack.packing import Minor, restrict
from coverpack.tconn import (
    cover_ideal,
    cycle_cover_gens,
    path_cover_gens,
    t_connected_ideal,
)


def test_t2_is_edge_ideal():
    for g in [path(5), cycle(6), star(5), complete(4)]:
        I = t_connected_ideal(g, 2)
        expect = minimalize(g.n, [tuple(1 if v in e else 0 for v in range(1, g.n + 1))
                                  for e in g.edges])
        assert I == expect


def test_tn_is_principal():
    for g in [path(4), cycle(5), star(4)]:
        I = t_connected_ideal(g, g.n)
        assert I.gens == ((1,) * g.n,)


def test_t3_star():
    # connected triples of K_{1,3} all contain the centre
    I = t_connected_ideal(star(4), 3)
    assert I.gens == ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0))


def test_validation():
    with pytest.raises(ValueError):
        t_connected_ideal(path(4), 1)
    with pytest.raises(ValueError):
        t_connected_ideal(path(4), 5)
    with pytest.raises(ValueError):
        cover_ideal(Graph(4, [(1, 2), (3, 4)]), 2)


def test_cover_ideal_matches_brute_force():
    rng = random.Random(42)
    graphs = [path(n) for n in range(2, 9)] + [cycle(n) for n in range(3, 9)]
    graphs += [star(n) for n in range(3, 8)] + [complete(n) for n in range(3, 7)]
    pairs = None
    for _ in range(30):
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        g = Graph(n, [p for p in pairs if rng.random() < 0.5])
        from coverpack.graphs import is_connected
        if is_connected(g):
            graphs.append(g)
    for g in graphs:
        for t in range(2, g.n + 1):
            assert cover_ideal(g, t) == brute_cover_ideal(g, t), (g, t)


def test_cover_ideal_transversal_cache_matches_enumeration():
    # alexander_dual hands J the I_t(G) supports as its transversal masks;
    # they must equal a fresh enumeration, in the same (popcount, mask) order
    graphs = [g for n in range(2, 6) for _, g in connected_graphs(n)]
    graphs += [path(n) for n in range(6, 11)] + [cycle(n) for n in range(3, 11)]
    for g in graphs:
        for t in range(2, g.n + 1):
            J = cover_ideal(g, t)
            assert J.transversal_masks() == tuple(
                minimal_transversals(J.support_masks())), (g, t)


def _assert_transversals_match_oracles(masks, n):
    got = minimal_transversals(masks)
    assert got == filtered_minimal_transversals(masks, n), (masks, n)
    assert got == brute_minimal_transversals(masks, n), (masks, n)


def test_transversals_match_oracles_on_small_graphs():
    # every connected graph with n <= 6 at every t, in list order; labellings
    # that give the same I_t(G) supports are checked once
    seen = set()
    for n in range(2, 7):
        for _, g in connected_graphs(n):
            for t in range(2, n + 1):
                masks = t_connected_ideal(g, t).support_masks()
                key = (n, frozenset(masks))
                if key not in seen:
                    seen.add(key)
                    _assert_transversals_match_oracles(masks, n)


def test_transversals_match_oracles_on_paths_and_cycles():
    for n in range(2, 13):
        graphs = [path(n)] + ([cycle(n)] if n >= 3 else [])
        for g in graphs:
            for t in range(2, n + 1):
                _assert_transversals_match_oracles(
                    t_connected_ideal(g, t).support_masks(), n)


def test_kept_support_masks_follow_generator_order():
    # the masks an ideal built from an antichain keeps are its generators'
    # supports in generator order, the order `gens_original_labels` prints
    def check(ideal, where):
        masks = ideal.support_masks()
        assert masks == tuple(support_mask(g) for g in ideal.gens), where

    for g in [path(7), cycle(8), star(6), complete(5)]:
        for t in range(2, g.n + 1):
            J = cover_ideal(g, t)
            check(t_connected_ideal(g, t), (g, t))
            check(J, (g, t))
            check(alexander_dual(J), (g, t))
            check(restrict(J, Minor(zeros=(2,), ones=(g.n,))).ideal, (g, t))
            if g == path(g.n):
                check(path_cover_gens(g.n, t), (g, t))
            elif g == cycle(g.n):
                check(cycle_cover_gens(g.n, t), (g, t))


def test_trusted_ideals_match_minimalised():
    # t_connected_ideal and cover_ideal skip minimalisation; the generators
    # must equal those of the minimalising from_masks, order included
    for n in range(2, 6):
        for _, g in connected_graphs(n):
            for t in range(2, n + 1):
                I = t_connected_ideal(g, t)
                assert I.gens == from_masks(n, I.support_masks()).gens
                J = cover_ideal(g, t)
                assert J.gens == from_masks(
                    n, filtered_minimal_transversals(I.support_masks(), n)).gens


def test_transversal_route_matches_closed_forms_on_large_cycles_and_paths():
    cases = [(cycle_cover_gens, cycle, 20, 3), (path_cover_gens, path, 20, 3),
             (cycle_cover_gens, cycle, 18, 4), (cycle_cover_gens, cycle, 20, 5)]
    for closed, make, n, t in cases:
        assert cover_ideal(make(n), t).gens == closed(n, t).gens, (n, t)


def test_cover_ideal_gen_cap(monkeypatch):
    # J_3(C_20) has 851 generators
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_GEN_CAP", 851)
    assert len(cover_ideal(cycle(20), 3).gens) == 851
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_GEN_CAP", 850)
    with pytest.raises(SizeLimitError):
        cover_ideal(cycle(20), 3)


# -- closed forms -----------------------------------------------------------

def _path_cover_conditions(n, t, tup):
    """Declarative form of the path cover description, for cross-checking."""
    r = len(tup)
    if r < math.floor(n / t):
        return False
    if tup[0] > t or tup[-1] < n - t + 1:
        return False
    if r >= 2 and (tup[1] < t + 1 or tup[-2] > n - t):
        return False
    for i in range(r - 1):
        if tup[i + 1] - tup[i] > t:
            return False
    for i in range(r - 2):
        if tup[i + 2] - tup[i] < t + 1:
            return False
    return True


def _cycle_cover_conditions(n, t, tup):
    r = len(tup)
    if r < math.ceil(n / t):
        return False
    for i in range(r - 1):
        if tup[i + 1] - tup[i] > t:
            return False
    if n + tup[0] - tup[-1] > t:
        return False
    for i in range(r - 2):
        if tup[i + 2] - tup[i] < t + 1:
            return False
    if r >= 2:
        if n + tup[0] - tup[-2] < t + 1 or n + tup[1] - tup[-1] < t + 1:
            return False
    return True


def test_path_cover_gens_match_declarative_conditions():
    for n in range(2, 10):
        for t in range(2, n + 1):
            expect = set()
            for r in range(1, n + 1):
                for tup in itertools.combinations(range(1, n + 1), r):
                    if _path_cover_conditions(n, t, tup):
                        expect.add(tup)
            got = {tuple(i + 1 for i in range(n) if m >> i & 1)
                   for m in path_cover_gens(n, t).support_masks()}
            assert got == expect, (n, t)


def test_cycle_cover_gens_match_declarative_conditions():
    for n in range(3, 10):
        for t in range(2, n + 1):
            expect = set()
            for r in range(1, n + 1):
                for tup in itertools.combinations(range(1, n + 1), r):
                    if _cycle_cover_conditions(n, t, tup):
                        expect.add(tup)
            got = {tuple(i + 1 for i in range(n) if m >> i & 1)
                   for m in cycle_cover_gens(n, t).support_masks()}
            assert got == expect, (n, t)


def test_closed_forms_square_free_antichains():
    for n in range(2, 13):
        for t in range(2, n + 1):
            a = path_cover_gens(n, t)
            assert a.is_square_free and not a.is_zero
            if n >= 3:
                a = cycle_cover_gens(n, t)
                assert a.is_square_free and not a.is_zero


def test_closed_form_losing_a_generator_is_rejected(monkeypatch):
    # a closed form that loses a generator in canonicalisation is not an antichain
    real = coverpack.tconn.minimalize
    monkeypatch.setattr(coverpack.tconn, "minimalize",
                        lambda n, gens: real(n, list(gens)[1:]))
    with pytest.raises(VerificationError, match="antichain"):
        cycle_cover_gens(9, 3)


def test_minimum_cover_sizes():
    # smallest generator degree meets the floor/ceil bound exactly
    for n in range(2, 14):
        for t in range(2, n + 1):
            assert min(sum(g) for g in path_cover_gens(n, t).gens) == n // t
            if n >= 3:
                assert min(sum(g) for g in cycle_cover_gens(n, t).gens) == math.ceil(n / t)


def test_cycle_konig_sequence():
    for n, t in [(6, 3), (9, 3), (8, 4), (12, 4), (10, 5)]:
        seq = cycle_konig_sequence(n, t)
        assert len(seq) == t
        J = cycle_cover_gens(n, t)
        used = 0
        for f in seq:
            assert f in J.gens          # each member is a minimal generator
            m = support_mask(f)
            assert not (m & used)       # pairwise disjoint
            used |= m
    with pytest.raises(ValueError):
        cycle_konig_sequence(7, 3)


def test_brute_cover_ideal_guards():
    with pytest.raises(ValueError):
        brute_cover_ideal(path(21), 2)
