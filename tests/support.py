"""Shared test helpers: deterministic graph sweep and tiny oracles."""

from collections import Counter
from itertools import combinations

from unitals.confluence import ConfluenceGraph
from unitals.errors import GeometryError


class GraphTooLarge(GeometryError):
    """The graph exceeds the size bound of the naive algorithm."""


def lcg(seed: int):
    """Minimal 31-bit linear congruential generator; platform independent."""
    x = seed & 0x7FFFFFFF
    while True:
        x = (1103515245 * x + 12345) % (1 << 31)
        yield x


def sweep_graph(i: int) -> ConfluenceGraph:
    """Graph i of the fixed deterministic sweep (5..20 vertices)."""
    n = 5 + (i * 7) % 16
    density = 20 + (i * 13) % 61  # percent
    stream = lcg(1000 + i)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if next(stream) % 100 < density]
    return ConfluenceGraph.from_edges(n, edges)


def subset_filter_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Third opinion for tiny graphs: test all 2^n subsets directly."""
    n = G.n
    assert n <= 14
    out = []
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if any(not G.adjacent(a, b) for i, a in enumerate(members)
               for b in members[i + 1:]):
            continue
        inside = set(members)
        if any(all(G.adjacent(v, m) for m in members)
               for v in range(n) if v not in inside):
            continue
        out.append(tuple(members))
    out.sort()
    return out


def naive_maximal_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Independent oracle: unpivoted exhaustive recursion, n <= 64 only."""
    if G.n > 64:
        raise GraphTooLarge(f"naive enumeration limited to 64 vertices, got {G.n}")
    rows = G.rows
    out: list[tuple[int, ...]] = []

    def expand(stack: list[int], P: int, X: int) -> None:
        if P == 0 and X == 0:
            out.append(tuple(stack))
            return
        m = P
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nv = rows[v]
            expand(stack + [v], P & nv, X & nv)
            P ^= low
            X |= low

    expand([], (1 << G.n) - 1, 0)
    out.sort()
    return out


def block_sets(S) -> tuple[frozenset[int], ...]:
    """Each block of S as a frozenset, built from the block tuples alone, so
    set-based oracles stay independent of the library's bitset tables."""
    return tuple(frozenset(b) for b in S.blocks)


def pg_data_oracle(field) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """Points and line rows of PG(2, field.order) by testing every point
    against every line: the O(N^2) reference for incidence._pg_data."""
    q = field.order
    points = [(0, 0, 1)]
    points += [(0, 1, z) for z in range(q)]
    points += [(1, y, z) for y in range(q) for z in range(q)]
    add = [[field.add_idx(a, b) for b in range(q)] for a in range(q)]
    mul = [[field.mul_idx(a, b) for b in range(q)] for a in range(q)]
    rows = []
    for a, b, c in points:
        ma, mb, mc = mul[a], mul[b], mul[c]
        rows.append([i for i, (x, y, z) in enumerate(points)
                     if add[add[ma[x]][mb[y]]][mc[z]] == 0])
    return points, rows


def pair_coverage(S) -> Counter:
    """Number of blocks through each covered point pair (a, b), a < b, by
    scanning every pair of every block: the reference for validate."""
    counts: Counter = Counter()
    for block in S.blocks:
        counts.update(combinations(block, 2))
    return counts


def linearity_oracle(S) -> tuple[bool, bool]:
    """(is_partial_linear, is_linear_space) from the pair scan."""
    counts = pair_coverage(S)
    partial = all(c == 1 for c in counts.values())
    n = S.num_points
    return partial, partial and len(counts) == n * (n - 1) // 2
