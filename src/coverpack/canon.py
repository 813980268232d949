"""Canonical labelling of small graphs by colour refinement and individualisation.

The search is the individualisation-refinement tree of McKay and Piperno
("Practical graph isomorphism, II", J. Symb. Comput. 60, 2014), with the
simplest of their automorphism prunings:

  * refine a vertex colouring until it is equitable: each round gives a
    vertex the new colour (old colour, multiset of its neighbours' colours),
    numbered by sorting those signatures, so the cell order depends on the
    graph alone and never on the labels;
  * if some cell still holds several vertices, individualise each vertex of
    the first such cell in turn (it moves ahead of the rest of its cell) and
    refine again;
  * a discrete colouring is a leaf; it relabels vertex v as its colour.

Relabelling G by a permutation relabels its whole tree the same way, so the
set of graphs read off the leaves is an isomorphism invariant and its
lexicographically least edge tuple is a canonical form.  A cycle C_n is one
cell after refinement, but individualising one vertex splits it by distance
into pairs, so its tree has 2n leaves rather than the n! of a brute force
inside cells.

Pruning.  Two leaves that give the same graph differ by an automorphism of
G.  An automorphism that fixes the vertices individualised so far maps one
child of the node onto another, subtree and leaf graphs included, so a child
in the orbit of an explored sibling under such automorphisms is skipped.
The least leaf graph is unchanged; without this, K_n would have n! leaves.
The automorphisms start as the swaps of twins (two vertices whose
neighbourhoods agree apart from each other), which need no leaf to find.
A skipped subtree's leaves repeat an earlier subtree's graphs, so the first
leaf that reaches the least graph is never skipped, and the relabelling
read off it is the same with or without pruning.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph

Edges = tuple[tuple[int, int], ...]


def _refine(nbrs: list[tuple[int, ...]], colours: list[int]) -> list[int]:
    """Coarsest equitable colouring refining `colours`, cells numbered in order."""
    # a multiset of neighbour colours is one int: the count of colour c in
    # the field at bit shift * c, which no count (at most n - 1) overflows
    shift = len(nbrs).bit_length()
    ncells = len(set(colours))
    while True:
        weight = [1 << shift * c for c in colours]
        sigs = [(c, sum([weight[u] for u in nb])) for c, nb in zip(colours, nbrs)]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colours = [rank[sig] for sig in sigs]
        if len(rank) == ncells:
            return colours
        ncells = len(rank)


def canonical_form(g: Graph) -> tuple[Edges, tuple[int, ...]]:
    """The canonical edge tuple of g and the relabelling that produces it.

    Returns (edges, perm): perm[v - 1] is the canonical label (1..n) of
    vertex v, and relabelling every edge of g by perm and sorting gives
    `edges`.  Two graphs on n vertices are isomorphic exactly when their
    canonical edge tuples are equal.
    """
    n = g.n
    nbrs = [tuple(u for u in range(n) if g.adj[v] >> u & 1) for v in range(n)]
    pairs = [(u - 1, v - 1) for u, v in g.edges]
    best: list = []
    # automorphisms found, as vertex maps, seeded with the swap of each
    # pair of twins: vertices whose neighbourhoods agree apart from each other
    auts: list[tuple[int, ...]] = []
    for u, v in combinations(range(n), 2):
        if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            auts.append(tuple(swap))

    def search(colours: list[int], fixed: tuple[int, ...]):
        colours = _refine(nbrs, colours)
        if max(colours) == n - 1:       # discrete: a leaf
            edges = sorted([(colours[u], colours[v]) if colours[u] < colours[v]
                            else (colours[v], colours[u]) for u, v in pairs])
            if not best or edges < best[0]:
                best[:] = [edges, colours]
            elif edges == best[0]:
                vertex_of = [0] * n
                for v, c in enumerate(best[1]):
                    vertex_of[c] = v
                auts.append(tuple(vertex_of[c] for c in colours))
            return
        ordered = sorted(colours)
        target = next(c for c, d in zip(ordered, ordered[1:]) if c == d)
        explored: list[int] = []
        for v in range(n):
            if colours[v] != target or (
                    explored and auts and _in_orbit(v, explored, auts, fixed)):
                continue
            explored.append(v)
            # v moves ahead of the rest of its cell
            search([2 * c + (c == target and u != v) for u, c in enumerate(colours)],
                   fixed + (v,))

    # one refinement round from a single cell gives the degree colouring
    degrees = [a.bit_count() for a in g.adj]
    search([sorted(set(degrees)).index(d) for d in degrees], ())
    edges, colours = best
    return (tuple((u + 1, v + 1) for u, v in edges), tuple(c + 1 for c in colours))


def _in_orbit(v: int, explored: list[int], auts: list[tuple[int, ...]],
              fixed: tuple[int, ...]) -> bool:
    """Whether the automorphisms that fix `fixed` pointwise map v to a vertex
    of `explored` (a finite group's orbit is its generators' closure)."""
    gens = [a for a in auts if all(a[u] == u for u in fixed)]
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        if u in explored:
            return True
        for a in gens:
            if a[u] not in seen:
                seen.add(a[u])
                stack.append(a[u])
    return False
