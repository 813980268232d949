"""Shared strategies and helpers for the test suite."""

import random

from hypothesis import strategies as st

from coverpack.graphs import Graph
from coverpack.ideals import MonomialIdeal, mask_to_monomial, minimalize


def relabel(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v - 1]."""
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def random_square_free_ideal(rng: random.Random, n_min: int = 2, n_max: int = 7,
                             k_max: int = 6) -> MonomialIdeal:
    """Nonzero proper square-free ideal with a seeded RNG (for counted loops)."""
    n = rng.randint(n_min, n_max)
    k = rng.randint(1, min(k_max, (1 << n) - 1))
    masks = set()
    while len(masks) < k:
        m = rng.getrandbits(n)
        if m:
            masks.add(m)
    return minimalize(n, [mask_to_monomial(m, n) for m in masks])


@st.composite
def square_free_ideals(draw, n_min=2, n_max=7, k_max=6):
    n = draw(st.integers(n_min, n_max))
    k = draw(st.integers(1, min(k_max, (1 << n) - 1)))
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
    return minimalize(n, [mask_to_monomial(m, n) for m in masks])


@st.composite
def monomials(draw, n, max_exp=3):
    return tuple(draw(st.lists(st.integers(0, max_exp), min_size=n, max_size=n)))
