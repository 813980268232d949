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
from .ideals import DEFAULT_GEN_CAP, MonomialIdeal, from_antichain_masks, minimalize


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

    More than `cap` minimal covers raise SizeLimitError.  The minimal
    transversals of J_t(G) are the I_t(G) supports, which `alexander_dual`
    hands over, so no search runs for them.
    """
    return alexander_dual(t_connected_ideal(g, t), cap)


def _tuples_to_ideal(n: int, tuples: list[tuple[int, ...]], least: int,
                     bound: str) -> MonomialIdeal:
    """The ideal of the closed-form covers, each checked to have at least
    `least` elements (`bound` names that bound)."""
    for tup in tuples:
        if len(tup) < least:
            raise GenerationError(f"cover {tup} shorter than {bound}={least}")
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


def _gap_tuples(n: int, t: int, i0: int, accept) -> list[tuple[int, ...]]:
    """Every i_1 < ... < i_r in 1..n with i_1 <= t, consecutive gaps <= t and
    double gaps >= t+1 (the first one from a virtual i_0 = `i0`) that
    `accept` keeps, depth first in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def extend(tup: tuple[int, ...], prev: int):
        if accept(tup):
            out.append(tup)
        last = tup[-1]
        for j in range(max(last + 1, prev + t + 1), min(last + t, n) + 1):
            extend(tup + (j,), last)

    for i1 in range(1, t + 1):
        extend((i1,), i0)
    return out


def path_cover_gens(n: int, t: int) -> MonomialIdeal:
    """Closed-form minimal generators of J_t(P_n)."""
    if not (2 <= t <= n):
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")

    def accept(tup: tuple[int, ...]) -> bool:
        if tup[-1] < n - t + 1:
            return False
        if len(tup) >= 2 and tup[-2] > n - t:
            return False
        return True

    out = _gap_tuples(n, t, 0, accept)      # i_2 >= t+1 is the double gap from 0
    return _tuples_to_ideal(n, out, n // t, "floor(n/t)")


def cycle_cover_gens(n: int, t: int) -> MonomialIdeal:
    """Closed-form minimal generators of J_t(C_n)."""
    if not (2 <= t <= n) or n < 3:
        raise ValueError(f"need n >= 3 and 2 <= t <= n, got t={t}, n={n}")

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

    out = _gap_tuples(n, t, -t, accept)     # no double gap before i_2
    return _tuples_to_ideal(n, out, -(-n // t), "ceil(n/t)")
