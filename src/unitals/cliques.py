"""Maximal-clique enumeration and structural classification.

enumerate_maximal_cliques first tries a certified route, which lists the
maximal cliques of the confluence graph of an O'Nan-free unital of order
q > 2 with no search beyond one clique per point, and hands over to the
pivoted branch-and-bound enumerator, _bron_kerbosch, on any failed step.

Lemma. In a partial linear space, let K be a maximal set of pairwise
meeting lines holding no O'Nan configuration (4 lines meeting pairwise in
6 distinct points). Then K is a pencil or a near pencil N(u, A): the line
A plus the join of u with each point of A, for a point u off A.
Proof. If all lines of K share a point, K is that point's pencil.
Otherwise K holds a triangle A, B, C with vertices u = B.C, v = A.C and
w = A.B. Every other D in K passes through exactly one vertex: missing all
three would make A, B, C, D an O'Nan configuration, and two vertices span
one of A, B, C. If D passed through u and E through v, then A, B, D, E
would meet pairwise in w, A.D, v, u, B.E and D.E; each coincidence among
these forces D or E to be A, B or C, so the six are distinct, an O'Nan
configuration. So, up to naming, every line of K but A passes through u,
K lies in the clique N(u, A), and K = N(u, A) by maximality.
In a unital of order q >= 2 with no O'Nan configuration, every pencil
and every N(u, A) is maximal. A line off p meets only q + 1 of the q^2
lines through p, so no line extends a pencil. A line E extending N(u, A)
misses u (a line through u and a point of A is a join), so it meets A in
one point y; two joins through points x1, x2 of A other than y, with A
and E, meet pairwise in x1, x2, u, y and two points of E, six distinct
points, an O'Nan configuration. A near pencil of q + 2 >= 3 lines fixes
u, the one point on q + 1 of them (two such points would lie on q >= 2
common lines), and A, the line off u; so the near pencils N(u, A) are
distinct, and for q > 2 no pencil has their size.

The certified route. With q from confluence.infer_order (q > 2), cover
the lowest uncovered edge {i, j} by i, j and a clique of q^2 - 2 vertices
inside rows[i] & rows[j], found by a first-hit include/exclude search,
until every edge is covered; no edge may be covered twice. Then the
cliques partition the edges, and the rest follows from the degree
k = (q + 1)(q^2 - 1) that infer_order checked, with no further test:
- a vertex lies in exactly q + 1 cliques, as each covers q^2 - 1 of its
  k edges, so there are n (q + 1) / q^2 = q^3 + 1 cliques, and the
  cliques through a vertex cover its row;
- two vertices share at most one clique, or their edge would be covered
  twice, and two cliques share at most one vertex, for the same reason;
- so the dual structure, whose points are the cliques and whose block v
  holds the cliques through vertex v, has distinct blocks of q + 1 points,
  and n (q + 1) q / 2 = (q^3 + 1) q^3 / 2 pairs of its q^3 + 1 points lie
  in a block each, so it is a unital of order q whose confluence graph is
  G (vertices are adjacent exactly when a clique holds both). The q^3 + 1
  cliques are its pencils.
One O'Nan scan of the dual, count_onan(dual, limit=1) == 0, is the last
step. By the lemma the maximal cliques of G are then exactly the q^3 + 1
pencils and the n (q^3 - q) near pencils N(u, A): vertex A plus the one
vertex of u's clique in each clique through A, for each clique u not
through A. The route returns them as sorted tuples, sorted, as the
enumerator would. It hands over at q = 2, where a near pencil has q^2
blocks too, so the cliques of size q^2 through an edge are not only
pencils.

The enumerator is a pivoted branch-and-bound over bitset candidate/excluded
sets, drained from a flat worklist (no recursion, so no depth limit). The
pivot is the candidate with the most neighbors among the candidates,
lowest index on ties. Cliques are emitted sorted ascending and the final
stream is sorted lexicographically.

A node holds the clique R built so far, its candidates P and its
excluded vertices X; P + X is the common neighbourhood of R. The pivot
scan also ANDs the closed neighbourhoods of the candidates, which settles
two kinds of node without branching, both exactly:
- an excluded vertex in the AND is adjacent to all of P, so it extends
  every clique R + S with S in P, and nothing below the node is maximal;
- otherwise, when the AND contains P, P is a clique: every proper subset
  of P extends inside P, so R + P is the one maximal clique below.
A child of R + v with one or two candidates is settled when it is made,
by the same rules: a lone candidate u gives R + v + u unless an excluded
vertex of the child sees u; adjacent a < b give R + v + a + b unless an
excluded vertex sees both; non-adjacent a, b give R + v + a and R + v + b,
each unless an excluded vertex sees it. The closed rows (row | 1 << u)
that the pivot scan ANDs are built once per call.

In the confluence graph of a linear space, a clique is a set of mutually
intersecting blocks. Each maximal clique is classified as a pencil (all
blocks through one point, and all of them), a near pencil (a block L
plus every join from a point p off L to the points of L), or neither.
A near pencil of 3 or more blocks has no common point (it would lie on
L, and every join would be the one block through it and p), and its
apex p lies on every member but L, so on two of any three members. So
the candidate apexes are the pairwise meets of the first three members,
and p is kept when L is the one member off p, each point of L has one
block through p, and those joins plus L are the clique. classify_clique
reads the clique once, into a bitset (its members ascending), and returns
the tag with the pencil's point, or the near pencil's apex p and L.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .confluence import ConfluenceGraph, infer_order
from .errors import GeometryError
from .incidence import IncidenceStructure, _bits, count_onan


class CliqueClassification(NamedTuple):
    tag: str                  # "pencil" | "near_pencil" | "other"
    point: int | None = None  # pencil: the common point; near pencil: the apex
    line: int | None = None   # near pencil: the base block L


def enumerate_maximal_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Every inclusion-maximal clique exactly once, lexicographically sorted:
    by the certified route when G passes it, else by branch-and-bound."""
    found = _certified_cliques(G)
    return _bron_kerbosch(G) if found is None else found


def _certified_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]] | None:
    """The pencils and near pencils of the unital whose confluence graph G
    is, certified as its maximal cliques, or None when a step fails."""
    q = infer_order(G)
    if q is None or q == 2:
        return None
    rows = G.rows
    uncovered = list(rows)  # each vertex's edges that no clique covers yet
    cliques: list[int] = []
    through: list[list[int]] = [[] for _ in rows]  # the cliques holding each vertex
    for i, row in enumerate(uncovered):
        # uncovered stays symmetric, so each j here is above i
        while row:
            j = (row & -row).bit_length() - 1
            rest = _clique_of_size(rows, rows[i] & rows[j], q * q - 2)
            if not rest:
                return None
            members = rest | 1 << i | 1 << j
            for v in _bits(members):
                others = members ^ 1 << v
                if others & ~uncovered[v]:
                    return None  # an edge is covered twice
                uncovered[v] ^= others
                through[v].append(len(cliques))
            cliques.append(members)
            row = uncovered[i]
    if count_onan(IncidenceStructure(len(cliques), through), limit=1):
        return None
    meet = [[0] * len(cliques) for _ in cliques]  # the vertex two cliques share
    for v, held in enumerate(through):
        for a, b in combinations(held, 2):
            meet[a][b] = meet[b][a] = v
    out = [tuple(_bits(members)) for members in cliques]
    for a, held in enumerate(through):
        # joins[k]: the vertex that clique k shares with each clique through a
        for k, joins in enumerate(zip(*map(meet.__getitem__, held))):
            if not cliques[k] >> a & 1:
                out.append(tuple(sorted((a, *joins))))
    out.sort()
    return out


def _clique_of_size(rows, P: int, need: int) -> int:
    """A clique of need >= 1 vertices inside P, as a bitset, or 0 if there
    is none: depth first, each lowest candidate included before it is
    excluded, cutting a branch whose candidates cannot fill it."""
    clique = size = 0
    suspended: list[tuple[int, int]] = []  # (candidates without v, v's bit)
    while size < need:
        if size + P.bit_count() < need:
            if not suspended:
                return 0
            P, low = suspended.pop()
            clique ^= low
            size -= 1
            continue
        low = P & -P
        P ^= low
        suspended.append((P, low))
        clique |= low
        size += 1
        P &= rows[low.bit_length() - 1]
    return clique


def _bron_kerbosch(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Every inclusion-maximal clique exactly once, lexicographically
    sorted, by the pivoted branch-and-bound."""
    n = G.n
    if n == 0:
        return []
    rows = G.rows
    closed_rows = [row | 1 << u for u, row in enumerate(rows)]
    out: list[tuple[int, ...]] = []
    # (clique so far, candidates P != 0, excluded X); the output is sorted at
    # the end, so the order in which the worklist is drained does not matter
    work: list[tuple[tuple[int, ...], int, int]] = [((), (1 << n) - 1, 0)]
    while work:
        clique, P, X = work.pop()
        # pivot: candidate with most neighbors among candidates; closed is
        # the set of vertices adjacent or equal to every candidate. Bits are
        # taken from the top, so ">=" keeps the lowest index on ties.
        best_u, best, closed = -1, -1, -1
        m = P
        while m:
            u = m.bit_length() - 1
            m ^= 1 << u
            row = closed_rows[u]
            closed &= row
            c = (row & P).bit_count()
            if c >= best:
                best, best_u = c, u
        if closed & X:  # an excluded vertex extends every clique below
            continue
        if closed & P == P:  # P is a clique: R + P is the only candidate
            out.append(tuple(sorted(clique + tuple(_bits(P)))))
            continue
        branch = P & ~rows[best_u]
        while branch:
            v = branch.bit_length() - 1
            low = 1 << v
            branch ^= low
            nv = rows[v]
            child, child_X = P & nv, X & nv
            P ^= low
            X |= low
            rest = child & (child - 1)  # child without its lowest candidate
            if rest & (rest - 1):
                work.append((clique + (v,), child, child_X))
            elif rest:  # two candidates a < b
                a, b = (child ^ rest).bit_length() - 1, rest.bit_length() - 1
                row_a, row_b = rows[a], rows[b]
                if row_a >> b & 1:
                    if not child_X & row_a & row_b:
                        out.append(tuple(sorted(clique + (v, a, b))))
                else:
                    if not child_X & row_a:
                        out.append(tuple(sorted(clique + (v, a))))
                    if not child_X & row_b:
                        out.append(tuple(sorted(clique + (v, b))))
            elif child:  # one candidate u: maximal unless the child's X sees u
                u = child.bit_length() - 1
                if not child_X & rows[u]:
                    out.append(tuple(sorted(clique + (v, u))))
            elif not child_X:
                out.append(tuple(sorted(clique + (v,))))
    out.sort()
    return out


def max_clique_size(G: ConfluenceGraph) -> int:
    """Size of a maximum clique, by depth-first branch-and-bound with size pruning."""
    rows = G.rows
    best = size = 0
    P = (1 << G.n) - 1
    suspended: list[int] = []  # the candidates left at each shallower level
    while True:
        if size + P.bit_count() <= best:  # also true once P is empty
            if not suspended:
                return best
            P = suspended.pop()
            size -= 1
            continue
        low = P & -P
        P ^= low
        suspended.append(P)
        P &= rows[low.bit_length() - 1]
        size += 1
        if size > best:
            best = size


def classify_clique(S: IncidenceStructure, clique) -> CliqueClassification:
    """Tag a set of mutually intersecting blocks of S.

    Pencil requires equality with the full pencil of the common point, so
    a proper subset of a pencil is tagged "other". Near pencil requires
    exact equality with the near-pencil block set of some non-incident
    (point, block) pair; when several pairs give it, the lowest (L, p).
    """
    rows, masks, pencils, blocks = S.block_rows, S.block_masks, S.pencil_masks, S.blocks
    # mask: the members; closed: the blocks meeting or equal to every
    # member; points: the points on every member
    mask, closed, points = 0, -1, -1
    for i in clique:
        bit = 1 << i
        mask |= bit
        closed &= rows[i] | bit
        points &= masks[i]
    if closed & mask != mask:
        for i in _bits(mask):
            disjoint = mask >> (i + 1) << (i + 1) & ~rows[i]
            if disjoint:
                j = (disjoint & -disjoint).bit_length() - 1
                raise GeometryError(f"blocks {i} and {j} are disjoint")
    if points > 0:  # points is -1 when there are no members
        while points:
            low = points & -points
            p = low.bit_length() - 1
            if pencils[p] == mask:
                return CliqueClassification("pencil", p)
            points ^= low
    elif mask.bit_count() >= 3:
        # the apex lies on every member but L, so on two of the first three;
        # taken from the top, so "<=" keeps the lowest (L, p)
        first = _bits(mask)
        a, b, c = masks[next(first)], masks[next(first)], masks[next(first)]
        apexes = a & b | a & c | b & c
        best = None
        while apexes:
            p = apexes.bit_length() - 1
            apexes ^= 1 << p
            through = pencils[p]
            near = mask & ~through  # the member off p: it must be L alone
            if near & (near - 1):
                continue
            L = near.bit_length() - 1
            for x in blocks[L]:
                join = through & pencils[x]
                if not join or join & (join - 1):
                    break  # not one block joins p and x
                near |= join
            else:
                if near == mask and (best is None or L <= best[0]):
                    best = L, p
        if best is not None:
            return CliqueClassification("near_pencil", best[1], best[0])
    return CliqueClassification("other")
