"""Finite simple graphs on vertex set {1..n}, with the handful of operations
the ideal-theoretic layers need: standard families, graph6 parsing/encoding,
enumeration of connected induced vertex subsets, cut vertices, bipartiteness,
and path/cycle shape detection.

Vertices are labelled 1..n throughout.  Internally adjacency is kept as a
tuple of bitmasks (bit i-1 <-> vertex i), which is what the subset-heavy
callers want.
"""

from __future__ import annotations

import string
from itertools import combinations
from typing import Iterable


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Immutable simple graph on {1..n}."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        canon = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            canon.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = tuple(sorted(canon))
        adj = [0] * n
        for u, v in self.edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.adj = tuple(adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# standard families

def path(n: int) -> Graph:
    """P_n: vertices 1..n, edges {i, i+1}."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    """C_n: vertices 1..n, edges {i, i+1} and {n, 1}.  Needs n >= 3."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def star(n: int) -> Graph:
    """Star on n vertices: centre 1 joined to leaves 2..n (K_{1,n-1})."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph(n, [(1, i) for i in range(2, n + 1)])


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, list(combinations(range(1, n + 1), 2)))


# ---------------------------------------------------------------------------
# graph6

def _g6_read_n(data: bytes) -> tuple[int, int]:
    # returns (n, bytes consumed by the size header)
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    b = data[0]
    if b == 126:  # '~' extended sizes
        if len(data) < 4:
            raise Graph6ParseError("truncated extended size header", len(data))
        if data[1] == 126:
            raise Graph6ParseError("graphs beyond 2^18 vertices not supported", 1)
        vals = []
        for i in (1, 2, 3):
            if not (63 <= data[i] <= 126):
                raise Graph6ParseError(f"invalid graph6 byte {data[i]}", i)
            vals.append(data[i] - 63)
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if not (63 <= b <= 126):
        raise Graph6ParseError(f"invalid graph6 byte {b}", 0)
    return b - 63, 1


def parse_graph6(text: str) -> Graph:
    """Decode an ASCII graph6 string (optionally prefixed with '>>graph6<<')."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    text = text.strip(string.whitespace)
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as e:
        raise Graph6ParseError(f"non-ASCII character {text[e.start]!r}", e.start) from None
    n, start = _g6_read_n(data)
    if n < 1:
        raise Graph6ParseError("graph6 with zero vertices not supported here", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - start < nbytes:
        raise Graph6ParseError(
            f"truncated edge section: need {nbytes} bytes, have {len(data) - start}",
            len(data))
    if len(data) - start > nbytes:
        raise Graph6ParseError("trailing bytes after edge section", start + nbytes)
    bits = 0
    for i in range(nbytes):
        b = data[start + i]
        if not (63 <= b <= 126):
            raise Graph6ParseError(f"invalid graph6 byte {b}", start + i)
        bits = (bits << 6) | (b - 63)
    bits >>= nbytes * 6 - nbits  # drop padding
    edges = []
    pos = nbits - 1
    # column order: (1,2), (1,3), (2,3), (1,4), ...
    for k in range(2, n + 1):
        for j in range(1, k):
            if bits >> pos & 1:
                edges.append((j, k))
            pos -= 1
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    """Inverse of parse_graph6 (no '>>graph6<<' prefix)."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for graph6 encoding supported here")
    eset = set(g.edges)
    bits = 0
    nbits = n * (n - 1) // 2
    for k in range(2, n + 1):
        for j in range(1, k):
            bits = bits << 1 | (1 if (j, k) in eset else 0)
    nbytes = (nbits + 5) // 6
    bits <<= nbytes * 6 - nbits
    body = bytes(((bits >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes))
    return (head + body).decode("ascii")


# ---------------------------------------------------------------------------
# connectivity machinery

def _component_mask(adj: tuple[int, ...], subset: int, seed: int) -> int:
    # flood fill inside `subset` starting from the lowest bit of `seed`
    comp = seed
    frontier = seed
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & subset & ~comp
        comp |= frontier
    return comp


def is_connected_subset(g: Graph, subset_mask: int) -> bool:
    """Whether the induced subgraph on the given vertex bitmask is connected."""
    if subset_mask == 0:
        return False
    seed = subset_mask & -subset_mask
    return _component_mask(g.adj, subset_mask, seed) == subset_mask


def is_connected(g: Graph) -> bool:
    return is_connected_subset(g, (1 << g.n) - 1)


def connected_induced_subsets(g: Graph, t: int) -> list[int]:
    """All t-element vertex subsets inducing a connected subgraph, as masks
    (bit v - 1 for vertex v), in lexicographic order of the subsets."""
    if not (1 <= t <= g.n):
        raise ValueError(f"subset size t={t} out of range 1..{g.n}")
    masks = map(sum, combinations([1 << i for i in range(g.n)], t))
    return [m for m in masks if is_connected_subset(g, m)]


def is_bipartite(g: Graph) -> bool:
    """Two-colourability, by BFS colouring each component."""
    color = [0] * (g.n + 1)  # 0 unseen, 1/2 colours
    for s in range(1, g.n + 1):
        if color[s]:
            continue
        color[s] = 1
        queue = [s]
        while queue:
            u = queue.pop()
            m = g.adj[u - 1]
            while m:
                low = m & -m
                v = low.bit_length()
                m ^= low
                if color[v] == 0:
                    color[v] = 3 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def classify_shape(g: Graph) -> str:
    """One of "path", "cycle", "other"; single vertices and edges count as paths."""
    if not is_connected(g):
        return "other"
    degs = sorted(bin(m).count("1") for m in g.adj)
    n = g.n
    if n == 1:
        return "path"
    if len(g.edges) == n - 1 and degs[0] == 1 and degs[1] == 1 and (n == 2 or degs[2:] == [2] * (n - 2)):
        return "path"
    if n >= 3 and len(g.edges) == n and degs == [2] * n:
        return "cycle"
    return "other"
