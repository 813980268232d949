import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import non_cut_vertices
from coverpack.graphs import (
    Graph,
    Graph6ParseError,
    classify_shape,
    complete,
    connected_induced_subsets,
    cycle,
    encode_graph6,
    is_bipartite,
    is_connected,
    is_connected_subset,
    parse_graph6,
    path,
    star,
)
from coverpack.ideals import mask_vars


def test_path_constructor():
    g = path(4)
    assert g.n == 4
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert g.adj[0].bit_count() == 1 and g.adj[1].bit_count() == 2


def test_cycle_constructor():
    g = cycle(5)
    assert g.n == 5
    assert len(g.edges) == 5
    assert (1, 5) in g.edges
    assert all(m.bit_count() == 2 for m in g.adj)
    with pytest.raises(ValueError):
        cycle(2)


def test_star_constructor():
    # star(n) is K_{1,n-1} with centre 1
    g = star(4)
    assert g.edges == ((1, 2), (1, 3), (1, 4))
    assert g.adj[0].bit_count() == 3


def test_complete_constructor():
    g = complete(5)
    assert len(g.edges) == 10
    assert all(m.bit_count() == 4 for m in g.adj)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    # duplicate and reversed edges collapse
    g = Graph(3, [(2, 1), (1, 2)])
    assert g.edges == ((1, 2),)


def test_graph_equality_and_neighbors():
    assert path(3) == Graph(3, [(1, 2), (2, 3)])
    assert path(3) != cycle(3)
    assert path(3).adj[1] == 0b101


def test_graph6_standard_example():
    # the format documentation example: n=5, edges 0-2, 0-4, 1-3, 3-4
    g = Graph(5, [(1, 3), (1, 5), (2, 4), (4, 5)])
    assert encode_graph6(g) == "DQc"
    assert parse_graph6("DQc") == g
    assert parse_graph6(">>graph6<<DQc") == g


def test_graph6_known_small():
    assert encode_graph6(complete(4)) == "C~"
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6(encode_graph6(Graph(1, []))) == Graph(1, [])


def test_graph6_round_trip_exhaustive():
    # every labelled graph on up to 6 vertices
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])
            assert parse_graph6(encode_graph6(g)) == g


def test_graph6_round_trip_sampled_n7():
    rng = random.Random(2024)
    pairs = list(itertools.combinations(range(1, 8), 2))
    for _ in range(2000):
        g = Graph(7, [p for p in pairs if rng.random() < 0.5])
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_extended_size_header():
    # n >= 63 switches to the three-byte size header
    rng = random.Random(9)
    pairs = list(itertools.combinations(range(1, 71), 2))
    g = Graph(70, [p for p in pairs if rng.random() < 0.05])
    enc = encode_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g


def test_graph6_parse_errors():
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError):
        parse_graph6("D\x1f\x1f")          # bytes below the printable range
    with pytest.raises(Graph6ParseError):
        parse_graph6("DQ")                 # truncated edge bits
    with pytest.raises(Graph6ParseError):
        parse_graph6("DQcX")               # trailing bytes
    err = None
    try:
        parse_graph6("DQ")
    except Graph6ParseError as e:
        err = e
    assert err is not None and err.offset is not None


@pytest.mark.parametrize("text, offset, message", [
    ("Bé", 1, "non-ASCII character 'é'"),
    ("Dé{", 1, "non-ASCII character 'é'"),     # K_5 (D~{) with one byte corrupted
    ("DQc\u00a0", 3, r"non-ASCII character '\xa0'"),  # not stripped as whitespace
    ("~??", 3, "truncated extended size header"),
    ("~~??", 1, "beyond 2^18 vertices"),
    ("~?>?", 2, "invalid graph6 byte 62"),     # an extended-header byte
    ("!A", 0, "invalid graph6 byte 33"),       # the size byte
    ("D!c", 1, "invalid graph6 byte 33"),      # an edge byte
], ids=["non-ascii", "non-ascii-k5", "non-ascii-space", "truncated-extended-header",
        "double-tilde-header", "extended-header-byte", "size-byte", "edge-byte"])
def test_graph6_error_offsets(text, offset, message):
    with pytest.raises(Graph6ParseError, match=re.escape(message)) as info:
        parse_graph6(text)
    assert info.value.offset == offset
    assert str(info.value).endswith(f"(byte offset {offset})")


@given(st.integers(1, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_graph6_round_trip_property(n, data):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    picks = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, picks)
    assert parse_graph6(encode_graph6(g)) == g


def _oracle_connected(g, vertices):
    # plain set-based BFS, independent of the bitmask flood fill
    vs = set(vertices)
    if not vs:
        return False
    seen = {min(vs)}
    frontier = [min(vs)]
    while frontier:
        v = frontier.pop()
        for u in vs:
            if u not in seen and ((min(u, v), max(u, v)) in g.edges):
                seen.add(u)
                frontier.append(u)
    return seen == vs


def test_connected_subsets_against_oracle():
    for g in [path(6), cycle(6), star(6), complete(5), Graph(6, [(1, 2), (2, 3), (4, 5)])]:
        for t in range(1, g.n + 1):
            expected = [c for c in itertools.combinations(range(1, g.n + 1), t)
                        if _oracle_connected(g, c)]
            got = [tuple(v + 1 for v in mask_vars(m)) for m in connected_induced_subsets(g, t)]
            assert got == expected


def test_is_connected_subset_matches_oracle():
    g = Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5)])
    for t in range(1, 7):
        for c in itertools.combinations(range(1, 7), t):
            mask = sum(1 << (v - 1) for v in c)
            assert is_connected_subset(g, mask) == _oracle_connected(g, c)


def test_is_connected():
    assert is_connected(path(5))
    assert not is_connected(Graph(4, [(1, 2), (3, 4)]))
    assert is_connected(Graph(1, []))


def test_non_cut_vertices():
    assert non_cut_vertices(path(5)) == (1, 5)
    assert non_cut_vertices(cycle(6)) == (1, 2, 3, 4, 5, 6)
    assert non_cut_vertices(star(5)) == (2, 3, 4, 5)
    assert non_cut_vertices(complete(4)) == (1, 2, 3, 4)
    assert non_cut_vertices(Graph(1, [])) == (1,)
    with pytest.raises(ValueError):
        non_cut_vertices(Graph(4, [(1, 2), (3, 4)]))


def test_is_bipartite():
    assert is_bipartite(path(7))
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(7))
    assert is_bipartite(star(5))
    assert not is_bipartite(complete(3))
    assert is_bipartite(complete(2))


def test_classify_shape():
    assert classify_shape(path(1)) == "path"
    assert classify_shape(path(2)) == "path"
    assert classify_shape(path(9)) == "path"
    assert classify_shape(cycle(3)) == "cycle"
    assert classify_shape(complete(3)) == "cycle"   # the triangle
    assert classify_shape(cycle(12)) == "cycle"
    assert classify_shape(star(4)) == "other"
    assert classify_shape(complete(4)) == "other"
    assert classify_shape(Graph(4, [(1, 2), (3, 4)])) == "other"
