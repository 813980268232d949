import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import monomials, random_square_free_ideal, square_free_ideals
from oracles import (brute_minimal_transversals, divides, equal, filtered_minimal_transversals,
                     from_masks, intersect, lcm, member, member_power, mul, parse_monomial,
                     power, product)
from coverpack.ideals import (
    MonomialIdeal,
    SizeLimitError,
    divides_packed,
    from_antichain_masks,
    mask_to_monomial,
    mask_vars,
    max_packing,
    minimal_transversals,
    minimalize,
    monomial_str,
    pack,
    support_mask,
    unpack,
    _high_mask,
)


# -- monomial helpers -------------------------------------------------------

def test_monomial_str():
    assert monomial_str((2, 0, 1)) == "x1^2*x3"
    assert monomial_str((0, 0, 0)) == "1"
    assert monomial_str((0, 1, 0)) == "x2"


def test_parse_monomial_round_trip():
    for m in [(2, 0, 1), (0, 0, 0), (1, 1, 1), (0, 3, 0)]:
        assert parse_monomial(monomial_str(m), 3) == m
    with pytest.raises(ValueError):
        parse_monomial("x9", 3)
    with pytest.raises(ValueError):
        parse_monomial("y1", 3)
    # a negative exponent is rejected, not kept as a generator that prints
    # without its first factor
    with pytest.raises(ValueError, match="negative"):
        parse_monomial("x1^-2*x2", 3)


def test_divides_lcm_mul():
    assert divides((1, 0), (1, 2))
    assert not divides((2, 0), (1, 2))
    assert lcm((1, 2), (3, 0)) == (3, 2)
    assert mul((1, 2), (3, 0)) == (4, 2)


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_packed_divisibility_matches_plain(n, data):
    a = tuple(data.draw(st.lists(st.integers(0, 900), min_size=n, max_size=n)))
    b = tuple(data.draw(st.lists(st.integers(0, 900), min_size=n, max_size=n)))
    high = _high_mask(n)
    assert divides_packed(pack(a), pack(b), high) == divides(a, b)


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_pack_order_is_tuple_order(n, data):
    # x1 sits in the most significant field, so packed integers compare like
    # exponent tuples and unpack inverts pack
    a = tuple(data.draw(st.lists(st.integers(0, 900), min_size=n, max_size=n)))
    b = tuple(data.draw(st.lists(st.integers(0, 900), min_size=n, max_size=n)))
    assert unpack(pack(a), n) == a
    assert (pack(a) < pack(b)) == (a < b)


def test_support_mask():
    assert support_mask((1, 0, 2)) == 0b101
    assert mask_to_monomial(0b101, 3) == (1, 0, 1)


# -- minimalization ---------------------------------------------------------

def test_minimalize_drops_multiples():
    a = minimalize(2, [(1, 0), (1, 1), (2, 0)])
    assert a.gens == ((1, 0),)


def test_minimalize_canonical_order():
    a = minimalize(3, [(0, 0, 2), (1, 1, 0), (0, 1, 0)])
    # degree ascending, then exponent-tuple ascending; (1,1,0) is redundant
    assert a.gens == ((0, 1, 0), (0, 0, 2))


def test_zero_and_unit():
    z = MonomialIdeal(3, [])
    u = MonomialIdeal(3, [(0, 0, 0)])
    assert z.is_zero and not z.is_unit
    assert u.is_unit and not u.is_zero
    assert minimalize(3, [(0, 0, 0), (1, 0, 0)]) == u


def test_generator_length_checked_on_every_path():
    # the constructor and minimalize share one length check, and it sees
    # every candidate, also one that the unit generator would absorb
    bad = [[(1, 0)], [(1, 0, 0), (0, 1)], [(0, 0, 0), (1, 0)], [(1, 0, 0, 0)]]
    for gens in bad:
        with pytest.raises(ValueError, match="universe is 3"):
            MonomialIdeal(3, gens)
        with pytest.raises(ValueError, match="universe is 3"):
            minimalize(3, gens)
    assert MonomialIdeal(3, []).is_zero


@given(square_free_ideals())
@settings(max_examples=150, deadline=None)
def test_minimalize_idempotent_and_antichain(a):
    assert minimalize(a.n, a.gens) == a
    for g, h in itertools.permutations(a.gens, 2):
        assert not divides(g, h)


@given(square_free_ideals(), st.randoms())
@settings(max_examples=100, deadline=None)
def test_minimalize_order_independent(a, rnd):
    gens = list(a.gens)
    rnd.shuffle(gens)
    assert minimalize(a.n, gens) == a


def test_ideal_json_round_trip():
    a = minimalize(3, [(1, 0, 2), (0, 1, 0)])
    assert minimalize(3, [parse_monomial(s, 3) for s in a.to_json()]) == a


# -- arithmetic -------------------------------------------------------------

def test_product_small():
    a = minimalize(2, [(1, 0), (0, 1)])
    b = minimalize(2, [(1, 0)])
    assert product(a, b).gens == ((1, 1), (2, 0))


def test_power_zero_and_one():
    a = minimalize(2, [(1, 0), (0, 2)])
    assert power(a, 0) == MonomialIdeal(2, [(0, 0)])
    assert power(a, 1) == a


def test_power_principal():
    a = minimalize(3, [(1, 1, 0)])
    assert power(a, 3).gens == ((3, 3, 0),)


@given(square_free_ideals(n_max=5, k_max=4), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_power_additive(a, s1, s2):
    assert product(power(a, s1), power(a, s2)) == power(a, s1 + s2)


def test_cap_raises():
    a = minimalize(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(SizeLimitError):
        power(a, 6, cap=3)


# -- membership -------------------------------------------------------------

def test_member():
    a = minimalize(2, [(1, 1)])
    assert member((1, 1), a)
    assert member((2, 3), a)
    assert not member((1, 0), a)
    assert not member((0, 0), a)


def _fits(cols, rows, capacity):
    # every column is a given row and no row is loaded past its capacity
    load = Counter(r for c in cols for r in c)
    return all(c in rows for c in cols) and all(load[r] <= x for r, x in enumerate(capacity))


@given(square_free_ideals(n_max=5, k_max=4), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_member_power_matches_expansion(a, s, data):
    # both membership routes, the library's packing search nu(B_J, m) >= s
    # and the oracle's factor search, against the expanded power
    ps = power(a, s)
    m = data.draw(monomials(a.n, max_exp=3))
    rows = a.support_rows()
    count, cols = max_packing(rows, m, s)
    assert member_power(m, a, s) == member(m, ps)
    assert (count >= s) == member(m, ps)
    assert (max_packing(rows, m)[0] >= s) == member(m, ps)
    # a packing that reached s comes back with its columns, else none do
    if count >= s:
        assert len(cols) == count and _fits(cols, rows, m)
    else:
        assert cols == []


def test_support_rows_in_size_order():
    a = minimalize(4, [(1, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 1)])
    rows = a.support_rows()
    # one row tuple per generator support, smallest first, ties in
    # canonical generator order
    assert rows == ((2, 3), (1, 3), (0, 3), (0, 1, 2))
    assert [len(r) for r in rows] == sorted(len(r) for r in rows)
    # a non-square-free ideal: support size is not degree, so the sort moves
    # x1^3 (support size 1) ahead of x2*x3 (size 2)
    b = minimalize(3, [(0, 1, 1), (3, 0, 0)])
    assert b.gens == ((0, 1, 1), (3, 0, 0))
    assert b.support_rows() == ((0,), (1, 2))


def test_mask_vars():
    # ascending 0-based variables; the minimal primes print them 1-based
    assert mask_vars(0) == ()
    assert mask_vars(0b1) == (0,)
    assert mask_vars(0b101101) == (0, 2, 3, 5)
    assert mask_vars(1 << 19 | 1 << 4) == (4, 19)
    a = minimalize(4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)])
    assert [mask_vars(m) for m in a.transversal_masks()] == [(0, 2), (1, 2), (1, 3)]


def test_max_packing_need_stops_early():
    # supports {1,2} and {2,3} under capacity (2, 3, 2): nu = 3
    rows = ((0, 1), (1, 2))
    assert max_packing(rows, (2, 3, 2)) == (3, [])
    for need in (1, 2, 3):
        count, cols = max_packing(rows, (2, 3, 2), need=need)
        assert count >= need and len(cols) == count
        assert _fits(cols, rows, (2, 3, 2))
    assert max_packing(rows, (2, 3, 2), need=4) == (3, [])
    assert max_packing(rows, (0, 3, 2)) == (2, [])     # {1,2} is blocked
    assert max_packing(rows, (0, 3, 2), need=2) == (2, [(1, 2), (1, 2)])
    assert max_packing((), (1, 1)) == (0, [])


def test_max_packing_step_budget(monkeypatch):
    # an exact search counts its column-loop steps against the scan cap,
    # read at call time; a search stopped at `need` is not counted
    import coverpack.ideals
    rows = ((0, 1), (1, 2))
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_SCAN_CAP", 4)
    assert max_packing(rows, (2, 3, 2)) == (3, [])          # four steps
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_SCAN_CAP", 3)
    with pytest.raises(SizeLimitError, match="packing search exceeds 3 steps"):
        max_packing(rows, (2, 3, 2))
    monkeypatch.setattr(coverpack.ideals, "DEFAULT_SCAN_CAP", 1)
    assert max_packing(rows, (2, 3, 2), need=3) == (3, [(0, 1), (0, 1), (1, 2)])


def test_member_power_edge_cases():
    a = minimalize(2, [(1, 0)])
    assert member_power((0, 0), a, 0)
    assert not member_power((0, 0), a, 1)
    assert member_power((3, 1), a, 3)
    assert not member_power((2, 5), a, 3)
    rows = a.support_rows()
    assert max_packing(rows, (0, 0), 1)[0] < 1
    assert max_packing(rows, (3, 1), 3)[0] >= 3
    assert max_packing(rows, (2, 5), 3)[0] < 3


# -- intersection -----------------------------------------------------------

def test_intersect_membership_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = random_square_free_ideal(rng, n_min=n, n_max=n, k_max=4)
        b = random_square_free_ideal(rng, n_min=n, n_max=n, k_max=4)
        c = intersect(a, b)
        # compare against pointwise membership on the exponent box {0,1,2}^n
        for m in itertools.product(range(3), repeat=n):
            assert member(m, c) == (member(m, a) and member(m, b))


@given(square_free_ideals(n_max=5, k_max=4), st.data())
@settings(max_examples=60, deadline=None)
def test_intersect_commutative_idempotent(a, data):
    b = data.draw(square_free_ideals(n_min=a.n, n_max=a.n, k_max=4))
    assert intersect(a, b) == intersect(b, a)
    assert intersect(a, a) == a


# -- height and transversals ------------------------------------------------

def _brute_height(a):
    # smallest vertex set meeting every generator support
    masks = a.support_masks()
    for size in range(a.n + 1):
        for sub in itertools.combinations(range(a.n), size):
            sm = sum(1 << i for i in sub)
            if all(sm & m for m in masks):
                return size
    raise AssertionError("no cover found")


def test_height_against_subset_scan():
    rng = random.Random(77)
    for _ in range(150):
        a = random_square_free_ideal(rng)
        assert a.transversal_masks()[0].bit_count() == _brute_height(a)


def test_transversal_routes_agree():
    rng = random.Random(13)
    for _ in range(200):
        a = random_square_free_ideal(rng)
        fast = sorted(minimal_transversals(a.support_masks(), a.n))
        slow = sorted(brute_minimal_transversals(a.support_masks(), a.n))
        assert fast == slow


def test_transversals_hand_case():
    # supports {1,2} and {2,3}: minimal transversals {2} and {1,3}
    got = sorted(minimal_transversals((0b011, 0b110), 3))
    assert got == [0b010, 0b101]


def test_transversals_match_oracles_on_random_set_systems():
    # duplicates, nested supports and isolated vertices included; the order
    # of the returned list must match both oracles too
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(1, 10)
        masks = [rng.getrandbits(n) | 1 << rng.randrange(n)
                 for _ in range(rng.randint(0, 12))]
        got = minimal_transversals(masks, n)
        assert got == filtered_minimal_transversals(masks, n), (masks, n)
        assert got == brute_minimal_transversals(masks, n), (masks, n)


def test_transversals_cap():
    # supports {1,2}, {3,4}, {5,6}: 8 minimal transversals
    masks = (0b000011, 0b001100, 0b110000)
    assert len(minimal_transversals(masks, 6, cap=8)) == 8
    with pytest.raises(SizeLimitError):
        minimal_transversals(masks, 6, cap=7)
    with pytest.raises(ValueError):
        minimal_transversals((0b01, 0), 2)


def test_from_antichain_masks_matches_from_masks():
    rng = random.Random(31)
    for _ in range(300):
        a = random_square_free_ideal(rng)
        masks = list(a.support_masks())
        rng.shuffle(masks)
        assert from_antichain_masks(a.n, masks).gens == from_masks(a.n, masks).gens


def test_equal_and_from_masks():
    a = from_masks(3, [0b011, 0b110])
    b = minimalize(3, [(1, 1, 0), (0, 1, 1)])
    assert equal(a, b)
    assert a == b
