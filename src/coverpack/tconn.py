"""t-connected ideals of graphs and their cover ideals.

I_t(G) is generated by the products of t vertices inducing a connected
subgraph; its Alexander dual J_t(G) is generated by the minimal vertex
covers of those subsets.  For paths and cycles J_t has a closed-form
generator description: a subset {i_1 < ... < i_r} is a minimal cover iff

  paths:   i_1 <= t, i_2 >= t+1, i_r >= n-t+1, i_{r-1} <= n-t,
           consecutive gaps <= t and double gaps >= t+1;
  cycles:  the same gap conditions read cyclically, including the wrap
           gap n+i_1-i_r <= t and the wrap double gaps
           n+i_1-i_{r-1} >= t+1, n+i_2-i_r >= t+1.

Every emitted cover must have at least floor(n/t) (paths) resp. ceil(n/t)
(cycles) elements; that bound is re-checked after generation rather than
used as a filter.
"""

from __future__ import annotations

from .duality import alexander_dual
from .graphs import Graph, connected_induced_subsets, is_connected
from .ideals import (DEFAULT_GEN_CAP, MonomialIdeal, brute_minimal_transversals,
                     from_antichain_masks, from_masks, minimalize)


class GenerationError(RuntimeError):
    """A closed-form generator list violated one of its stated properties."""


def _validate(g: Graph, t: int):
    if not (2 <= t <= g.n):
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={g.n}")
    if not is_connected(g):
        raise ValueError("t-connected ideals are set up for connected graphs")


def t_connected_ideal(g: Graph, t: int) -> MonomialIdeal:
    """I_t(G): one square-free generator per connected induced t-subset."""
    _validate(g, t)
    masks = []
    for combo in connected_induced_subsets(g, t):
        m = 0
        for v in combo:
            m |= 1 << (v - 1)
        masks.append(m)
    # distinct t-subsets all have size t, so they form an antichain
    return from_antichain_masks(g.n, masks)


def cover_ideal(g: Graph, t: int, cap: int = DEFAULT_GEN_CAP) -> MonomialIdeal:
    """J_t(G) = I_t(G)^v, generated by the minimal covers of the t-subsets.

    More than `cap` minimal covers raise SizeLimitError.
    """
    ideal = t_connected_ideal(g, t)
    if ideal.is_zero:
        raise ValueError("graph has no connected t-subsets")
    dual = alexander_dual(ideal, cap=cap)
    # dualizing twice returns I_t(G), so the minimal transversals of J_t(G)
    # are the I_t(G) supports; seed the cache in minimal_transversals' order
    dual._transversals = tuple(
        sorted(ideal.support_masks(), key=lambda m: (m.bit_count(), m)))
    return dual


def _tuples_to_ideal(n: int, tuples: list[tuple[int, ...]]) -> MonomialIdeal:
    gens = []
    for tup in tuples:
        m = [0] * n
        for v in tup:
            m[v - 1] = 1
        gens.append(tuple(m))
    # closed forms emit an antichain already; minimalize only canonicalises
    ideal = minimalize(n, gens)
    if len(ideal.gens) != len(tuples):
        raise GenerationError("closed-form cover list was not an antichain")
    return ideal


def path_cover_gens(n: int, t: int) -> MonomialIdeal:
    """Closed-form minimal generators of J_t(P_n)."""
    if not (2 <= t <= n):
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    out: list[tuple[int, ...]] = []

    def accept(tup: tuple[int, ...]) -> bool:
        if tup[-1] < n - t + 1:
            return False
        if len(tup) >= 2 and tup[-2] > n - t:
            return False
        return True

    def extend(tup: tuple[int, ...]):
        if accept(tup):
            out.append(tup)
        last = tup[-1]
        lo = last + 1
        if len(tup) == 1:
            lo = max(lo, t + 1)          # i_2 >= t+1
        else:
            lo = max(lo, tup[-2] + t + 1)  # double gap
        for j in range(lo, min(last + t, n) + 1):
            extend(tup + (j,))

    for i1 in range(1, t + 1):
        extend((i1,))

    floor_bound = n // t
    for tup in out:
        if len(tup) < floor_bound:
            raise GenerationError(
                f"path cover {tup} shorter than floor(n/t)={floor_bound}")
    return _tuples_to_ideal(n, out)


def cycle_cover_gens(n: int, t: int) -> MonomialIdeal:
    """Closed-form minimal generators of J_t(C_n)."""
    if not (2 <= t <= n) or n < 3:
        raise ValueError(f"need n >= 3 and 2 <= t <= n, got t={t}, n={n}")
    out: list[tuple[int, ...]] = []

    def accept(tup: tuple[int, ...]) -> bool:
        r = len(tup)
        if n + tup[0] - tup[-1] > t:      # wrap gap
            return False
        if r >= 2:
            if n + tup[0] - tup[-2] < t + 1:
                return False
            if n + tup[1] - tup[-1] < t + 1:
                return False
        return True

    def extend(tup: tuple[int, ...]):
        if accept(tup):
            out.append(tup)
        last = tup[-1]
        lo = last + 1
        if len(tup) >= 2:
            lo = max(lo, tup[-2] + t + 1)  # double gap
        for j in range(lo, min(last + t, n) + 1):
            extend(tup + (j,))

    for i1 in range(1, t + 1):
        extend((i1,))

    ceil_bound = -(-n // t)
    for tup in out:
        if len(tup) < ceil_bound:
            raise GenerationError(
                f"cycle cover {tup} shorter than ceil(n/t)={ceil_bound}")
    return _tuples_to_ideal(n, out)


def brute_cover_ideal(g: Graph, t: int) -> MonomialIdeal:
    """Oracle route: minimal covers by scanning all 2^n subsets (small n only)."""
    ideal = t_connected_ideal(g, t)
    if ideal.is_zero:
        raise ValueError("graph has no connected t-subsets")
    if g.n > 20:
        raise ValueError("brute-force cover enumeration capped at n <= 20")
    return from_masks(g.n, brute_minimal_transversals(ideal.support_masks(), g.n))
