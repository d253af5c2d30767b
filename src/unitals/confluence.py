"""Block-intersection ("confluence") graphs and their regularity checks.

The confluence graph of an incidence structure has one vertex per block;
two vertices are adjacent iff their blocks share a point. Adjacency is
stored as one bitset row (a Python int) per vertex; build_confluence takes
the rows from the structure's cached ``block_rows``, the library's one
block-adjacency table (see unitals.incidence). The constructor checks
symmetry by transposing the rows once, through their n-bit strings, and
comparing each row with its column.

For a unital of order q the graph is strongly regular with parameters
    v = q^2 (q^2 - q + 1),  k = (q+1)^2 (q-1),
    lambda = 2 q^2 - 2,     mu = (q+1)^2,
and non-principal eigenvalues r = q^2 - q - 2, s = -(q+1). The ratio
bound 1 + k/(-s) then equals q^2 exactly. Eigenvalues are computed as
exact integer roots of x^2 - (lambda - mu) x - (k - mu); no floating
point is involved anywhere.

Serialization: DIMACS graph format (``p edge n m`` header, ``e i j``
lines with 1-based i < j in strictly increasing order, optional leading
``c`` comments). read_dimacs checks each edge line once and ORs the
checked edges into the rows itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import GeometryError
from .incidence import IncidenceStructure, _bits

# read_dimacs refuses more vertices: ConfluenceGraph checks symmetry through
# n strings of n characters. 4096 covers the 2,107 vertices of the graph of
# a unital of order 7.
MAX_VERTICES = 4096


class ConfluenceGraph:
    """Simple undirected graph with bitset adjacency rows.

    Vertex i corresponds to block i of the source structure when built
    by build_confluence. Equality compares (n, rows).
    """

    def __init__(self, n: int, rows: list[int]):
        if len(rows) != n:
            raise ValueError("adjacency row count differs from n")
        mask = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~mask:
                raise ValueError(f"row {i} has bits outside 0..{n - 1}")
            if row >> i & 1:
                raise ValueError(f"vertex {i} is self-adjacent")
        # transpose once: bit i of column j is bit j of row i. The n-bit
        # strings of rows n-1..0, zipped, give the columns from n-1 down.
        width = f"0{n}b"
        strings = [format(row, width) for row in reversed(rows)]
        cols = [int("".join(col), 2) for col in zip(*strings)][::-1]
        if cols != list(rows):
            # the first row with a bit its column lacks, at the lowest such bit
            for i, (row, col) in enumerate(zip(rows, cols)):
                lone = row & ~col
                if lone:
                    j = (lone & -lone).bit_length() - 1
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")
        self.n = n
        self.rows = tuple(rows)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.rows)
                for j in _bits(row >> (i + 1) << (i + 1))]

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConfluenceGraph)
                and self.n == other.n and self.rows == other.rows)


class SrgParams(NamedTuple):
    """Strongly regular graph parameters with exact integer eigenvalues
    r >= s; the two builders guarantee their identities, none is checked."""
    v: int
    k: int
    lam: int
    mu: int
    r: int
    s: int


def build_confluence(S: IncidenceStructure) -> ConfluenceGraph:
    """Graph on the blocks of S; edges join blocks sharing a point."""
    return ConfluenceGraph(len(S.blocks), list(S.block_rows))


def srg_check(G: ConfluenceGraph) -> SrgParams | None:
    """Parameters if G is strongly regular with integer eigenvalues.

    Verifies regularity and the common-neighbor counts of every pair by
    an O(n^2) popcount sweep. Complete and edgeless graphs (and graphs
    with fewer than 2 vertices) are not SRGs in the standard sense and
    yield None, as do the conference-type graphs whose eigenvalues are
    irrational.
    """
    n = G.n
    if n < 2:
        return None
    k = G.degree(0)
    if any(G.degree(i) != k for i in range(1, n)):
        return None
    if k == 0 or k == n - 1:
        return None
    lam = mu = None
    for i in range(n):
        row_i = G.rows[i]
        for j in range(i + 1, n):
            common = (row_i & G.rows[j]).bit_count()
            if row_i >> j & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    return None
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    return None
    assert lam is not None and mu is not None
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    d = isqrt(disc)
    if d * d != disc:
        return None  # irrational eigenvalue pair; outside supported scope
    # d^2 = (lam - mu)^2 + 4(k - mu) forces d = lam - mu (mod 2): r >= s are
    # the integer roots of x^2 - (lam - mu) x - (k - mu). Counting edges from
    # a vertex's neighbours to the rest gives k(k - lam - 1) = (n - k - 1) mu.
    r = (lam - mu + d) // 2
    s = (lam - mu - d) // 2
    return SrgParams(v=n, k=k, lam=lam, mu=mu, r=r, s=s)


def expected_unital_params(q: int) -> SrgParams:
    """The parameter set of the confluence graph of any unital of order q."""
    if q < 2:
        raise ValueError("unital order must be >= 2")
    v = (q * q - q + 1) * q * q
    k = (q + 1) ** 2 * (q - 1)
    mu = (q + 1) ** 2
    r = q * q - q - 2
    s = -(q + 1)
    # rs = mu - k, and k(k - lam - 1) = (v - k - 1) mu = q(q-1)(q^2-q-1)(q+1)^2
    lam = mu + r + s  # forced by the eigenvalue quadratic; equals 2q^2 - 2
    return SrgParams(v=v, k=k, lam=lam, mu=mu, r=r, s=s)


def hoffman_bound(params: SrgParams) -> Fraction:
    """The ratio bound 1 + k/(-s) on clique size, as an exact rational."""
    if params.s >= 0:
        raise GeometryError(f"s = {params.s} is not negative")
    return 1 + Fraction(params.k, -params.s)


def infer_order(G: ConfluenceGraph) -> int | None:
    """The unique q >= 2 whose expected_unital_params have G's vertex
    count v and G's constant degree k, if there is one."""
    n = G.n
    q = 2
    while (params := expected_unital_params(q)).v < n:
        q += 1
    if params.v != n or any(G.degree(i) != params.k for i in range(n)):
        return None
    return q


# --- DIMACS ---

def format_dimacs(G: ConfluenceGraph, comments: tuple[str, ...] = ()) -> str:
    """DIMACS text of G: comment lines, the problem line, sorted edges."""
    edges = G.edges()
    names = [str(v) for v in range(1, G.n + 1)]  # the 1-based vertex numbers
    head = "".join(f"c {c}\n" for c in comments) + f"p edge {G.n} {len(edges)}\n"
    return head + "".join([f"e {names[i]} {names[j]}\n" for i, j in edges])


def read_dimacs(path) -> ConfluenceGraph:
    """Strict reader: comment lines (first token exactly "c") only before
    the problem line; edges must be 1-based i < j, each line strictly after
    the previous one in lexicographic order (so no duplicates); at most
    MAX_VERTICES vertices."""
    n = None
    m = None
    edges = []
    last = (0, 0)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "c":
                if n is not None:
                    raise GeometryError(f"line {lineno}: comment after the problem line")
                continue
            if parts[0] == "p":
                if n is not None:
                    raise GeometryError(f"line {lineno}: repeated problem line")
                if len(parts) != 4 or parts[1] != "edge":
                    raise GeometryError(f"line {lineno}: malformed problem line")
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise GeometryError(f"line {lineno}: non-integer sizes") from None
                if n < 0 or m < 0:
                    raise GeometryError(f"line {lineno}: negative sizes")
            elif parts[0] == "e":
                if n is None:
                    raise GeometryError(f"line {lineno}: edge before problem line")
                if len(parts) != 3:
                    raise GeometryError(f"line {lineno}: malformed edge line")
                try:
                    i, j = int(parts[1]), int(parts[2])
                except ValueError:
                    raise GeometryError(f"line {lineno}: non-integer endpoints") from None
                if not 1 <= i < j <= n:
                    raise GeometryError(f"line {lineno}: edge ({i}, {j}) is not 1 <= i < j <= {n}")
                if (i, j) <= last:
                    raise GeometryError(f"line {lineno}: edge ({i}, {j}) is not after "
                                        f"the previous edge {last}")
                last = (i, j)
                edges.append((i - 1, j - 1))
            else:
                raise GeometryError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GeometryError("missing problem line")
    if m != len(edges):
        raise GeometryError(f"header announces {m} edges, file has {len(edges)}")
    if n > MAX_VERTICES:
        raise GeometryError(f"vertex count {n} exceeds {MAX_VERTICES}")
    # allocated only once every line has passed its checks, so a file that
    # announces a huge n is rejected at its first bad line without them
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return ConfluenceGraph(n, rows)
