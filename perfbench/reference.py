"""Independent references for the benchmark's output checks.

Nothing here imports coverpack: the verdicts the benchmark times are checked
against plain-Python re-derivations from the definitions, so a bug on the
timed path cannot also be in its own reference.
"""

from __future__ import annotations

from itertools import combinations

# (t, n) cycle pairs with J_t(C_n) packed, besides n = t (the classification
# theorem in the paper).
PACKED_CYCLE_PAIRS = {(3, 3), (3, 6), (3, 9), (4, 4), (4, 8)}


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def _connected(adj: list[int], subset: int) -> bool:
    seen = subset & -subset
    frontier = seen
    while frontier:
        nxt = 0
        for i in range(len(adj)):
            if frontier >> i & 1:
                nxt |= adj[i]
        frontier = nxt & subset & ~seen
        seen |= frontier
    return seen == subset


def connected_t_subsets(n: int, edges, t: int) -> list[int]:
    """Vertex masks of the connected induced t-subsets: the supports of I_t(G)."""
    adj = adjacency(n, edges)
    out = []
    for combo in combinations(range(n), t):
        mask = sum(1 << v for v in combo)
        if _connected(adj, mask):
            out.append(mask)
    return out


def expected_packed(n: int, edges, t: int) -> bool:
    """The paper's classification of packed J_t(G), for connected G and t >= 3."""
    if n == t:
        return True
    degs = sorted(bin(a).count("1") for a in adjacency(n, edges))
    if len(edges) == n - 1 and degs[-1] <= 2:
        return True                                   # a path
    if len(edges) == n and degs == [2] * n:
        return (t, n) in PACKED_CYCLE_PAIRS           # a cycle
    return False


def graph6(n: int, edges) -> str:
    """graph6 string of a graph on {1..n} with n <= 62."""
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (j, k) in eset else 0
            for k in range(2, n + 1) for j in range(1, k)]
    bits += [0] * (-len(bits) % 6)
    body = [sum(b << (5 - i) for i, b in enumerate(bits[p:p + 6])) + 63
            for p in range(0, len(bits), 6)]
    return bytes([n + 63] + body).decode("ascii")


def parse_monomial(text: str, n: int) -> list[int]:
    """Exponent list of a monomial written like "x1^2*x4"."""
    exps = [0] * n
    if text == "1":
        return exps
    for factor in text.split("*"):
        var, _, power = factor.partition("^")
        exps[int(var[1:]) - 1] += int(power) if power else 1
    return exps


def in_symbolic_power(exps: list[int], supports: list[int], s: int) -> bool:
    """Per-prime weight test: the monomial lies in J^(s) iff it has weight at
    least s on every minimal prime, and the minimal primes of J_t(G) are the
    supports of I_t(G)."""
    n = len(exps)
    return all(sum(exps[i] for i in range(n) if p >> i & 1) >= s for p in supports)


def tau(supports: list[int], alpha) -> int:
    """Covering optimum of the cover matrix of J_t(G) at weight alpha.

    A 0/1 vector meets every minimal cover of the clutter I_t(G) exactly when
    it contains a member of the clutter (the blocker of the blocker is the
    clutter), so the optimum is the lightest connected t-subset.
    """
    n = len(alpha)
    return min(sum(alpha[i] for i in range(n) if p >> i & 1) for p in supports)
