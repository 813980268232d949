import hashlib
import random
from itertools import combinations

from conftest import relabel
from coverpack.canon import canonical_form
from coverpack.classify import connected_graphs
from coverpack.graphs import Graph, complete, cycle, path, star


def all_graphs(n: int):
    pairs = list(combinations(range(1, n + 1), 2))
    for code in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if code >> i & 1])


def petersen() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph(10, outer + spokes + inner)


def test_connected_class_counts_match_oeis_a001349():
    # the SHA-256 of (code, edges, perm) over every graph is pinned too, as
    # computed before the twin swaps seeded the automorphisms: pruning
    # changes neither a form nor its relabelling
    digest = hashlib.sha256()
    for n, expect in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        forms = set()
        for code, g in connected_graphs(n):
            edges, perm = canonical_form(g)
            forms.add(edges)
            digest.update(repr((code, edges, perm)).encode())
        assert len(forms) == expect, n
    assert digest.hexdigest() == \
        "04d9cc9b8179b8af0b6fb14383a42dcae0c450862238fc61dc2639a66c97317f"


def test_all_class_counts_match_oeis_a000088():
    # disconnected graphs included: 1, 2, 4, 11, 34 classes on 1..5 vertices
    for n, expect in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
        assert len({canonical_form(g)[0] for g in all_graphs(n)}) == expect, n


def test_perm_maps_graph_onto_canonical_edges():
    graphs = [g for n in range(1, 6) for _code, g in connected_graphs(n)]
    graphs += [cycle(10), path(10), star(7), complete(6), petersen()]
    for g in graphs:
        edges, perm = canonical_form(g)
        assert sorted(perm) == list(range(1, g.n + 1))
        assert relabel(g, perm).edges == edges


def test_symmetric_graphs_are_pruned():
    # K_12 and the star on 12 vertices would have 12! and 11! leaves without
    # automorphism pruning; K_{6,6} minus a perfect matching is 5-regular
    rng = random.Random(5)
    crown = Graph(12, [(i, j) for i in range(1, 7) for j in range(7, 13) if j != i + 6])
    for g in [complete(12), star(12), crown, petersen()]:
        edges, perm = canonical_form(g)
        assert relabel(g, perm).edges == edges
        shuffled = list(range(1, g.n + 1))
        rng.shuffle(shuffled)
        assert canonical_form(relabel(g, shuffled))[0] == edges


def test_canonical_form_invariant_under_relabelling():
    rng = random.Random(20261018)
    six = [g for _code, g in connected_graphs(6)]
    graphs = [g for n in range(3, 6) for _code, g in connected_graphs(n)]
    graphs += rng.sample(six, 200)
    graphs += [cycle(10), path(10), star(7), complete(6), petersen(), complete(9),
               Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])]
    for g in graphs:
        edges, _perm = canonical_form(g)
        for _ in range(3):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm))[0] == edges, (g, perm)


def test_cycle_is_one_cell_but_canonical():
    # C_6 and two disjoint triangles are both 2-regular on six vertices
    two_triangles = Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    assert canonical_form(cycle(6))[0] != canonical_form(two_triangles)[0]
    # every labelling of C_10 gets the same form
    assert canonical_form(cycle(10))[0] == canonical_form(
        relabel(cycle(10), [3, 9, 1, 10, 5, 7, 2, 8, 4, 6]))[0]
