"""Maximal-clique enumeration and structural classification.

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

from typing import NamedTuple

from .confluence import ConfluenceGraph
from .errors import GeometryError
from .incidence import IncidenceStructure, _bits


class CliqueClassification(NamedTuple):
    tag: str                  # "pencil" | "near_pencil" | "other"
    point: int | None = None  # pencil: the common point; near pencil: the apex
    line: int | None = None   # near pencil: the base block L


def enumerate_maximal_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Every inclusion-maximal clique exactly once, lexicographically sorted."""
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
