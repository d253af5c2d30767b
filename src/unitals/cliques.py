"""Maximal-clique enumeration and structural classification.

The enumerator is a pivoted recursive branch-and-bound over bitset
candidate/excluded sets. The pivot is the candidate vertex with the most
neighbors among the remaining candidates, lowest index on ties, so the
enumeration order is reproducible. Cliques are emitted sorted ascending
and the final stream is sorted lexicographically.

In the confluence graph of a linear space, a clique is a set of mutually
intersecting blocks. Each maximal clique is classified as a pencil (all
blocks through one point, and all of them), a near pencil (a block L
plus every join from a point p off L to the points of L), or neither.
The star check verifies the tightness condition of the ratio bound: if a
clique attains size q^2, every block outside it meets exactly q+1 of its
members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .confluence import ConfluenceGraph, _bits
from .errors import MalformedStructure, NotAClique, WrongCliqueSize
from .incidence import IncidenceStructure, near_pencil


@dataclass(frozen=True)
class CliqueClassification:
    clique: tuple[int, ...]
    size: int
    tag: str                  # "pencil" | "near_pencil" | "other"
    point: int | None = None  # pencil: the common point; near pencil: the apex
    line: int | None = None   # near pencil: the base block L
    note: str | None = None   # e.g. "sub-pencil" for proper pencil subsets


def enumerate_maximal_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Every inclusion-maximal clique exactly once, lexicographically sorted."""
    n = G.n
    if n == 0:
        return []
    rows = G.rows
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def expand(P: int, X: int) -> None:
        if P == 0:
            if X == 0:
                out.append(tuple(sorted(stack)))
            return
        # pivot: candidate with most neighbors among candidates
        best_u, best = -1, -1
        m = P
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            c = (rows[u] & P).bit_count()
            if c > best:
                best, best_u = c, u
        branch = P & ~rows[best_u]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            branch ^= low
            nv = rows[v]
            stack.append(v)
            expand(P & nv, X & nv)
            stack.pop()
            P ^= low
            X |= low

    expand((1 << n) - 1, 0)
    out.sort()
    return out


def max_clique_size(G: ConfluenceGraph) -> int:
    """Size of a maximum clique, by branch-and-bound with size pruning."""
    rows = G.rows
    best = 0

    def grow(size: int, P: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while P:
            if size + P.bit_count() <= best:
                return
            low = P & -P
            v = low.bit_length() - 1
            P ^= low
            grow(size + 1, P & rows[v])

    grow(0, (1 << G.n) - 1)
    return best


def classify_clique(S: IncidenceStructure, clique) -> CliqueClassification:
    """Tag a set of mutually intersecting blocks of S.

    Pencil requires equality with the full pencil of the common point; a
    proper subset with a common point is tagged "other" with a
    "sub-pencil" note. Near pencil requires exact equality with the
    near-pencil block set of some non-incident (point, block) pair.
    """
    members = tuple(sorted(set(clique)))
    rows, masks = S.block_rows, S.block_masks
    mask = sum(1 << i for i in members)
    for i in members:
        disjoint = mask >> (i + 1) << (i + 1) & ~rows[i]
        if disjoint:
            j = (disjoint & -disjoint).bit_length() - 1
            raise NotAClique(f"blocks {i} and {j} are disjoint")
    size = len(members)

    common = 0
    if members:
        common = masks[members[0]]
        for i in members[1:]:
            common &= masks[i]
    pencils = S.pencil_masks
    for p in _bits(common):
        if pencils[p] == mask:
            return CliqueClassification(members, size, "pencil", point=p)

    if size >= 3:
        for L in members:
            # candidate apexes: points on every member but L, and not on L
            apex = ~masks[L]
            for i in members:
                if i != L:
                    apex &= masks[i]
            for p in _bits(apex):
                try:
                    if near_pencil(S, p, L) == members:
                        return CliqueClassification(
                            members, size, "near_pencil", point=p, line=L)
                except MalformedStructure:
                    continue  # join missing: not a linear space around (p, L)
    note = "sub-pencil" if common else None
    return CliqueClassification(members, size, "other", note=note)


@dataclass
class StarPropertyReport:
    passed: bool
    expected: int                       # the required meet count, q+1
    outside_blocks: int
    failures: list[tuple[int, int]]     # (block index, meet count) violations


def verify_star_property(S: IncidenceStructure, clique, q: int) -> StarPropertyReport:
    """Check that every block outside the clique meets exactly q+1 members.

    The clique must have the extremal size q^2.
    """
    members = tuple(sorted(set(clique)))
    if len(members) != q * q:
        raise WrongCliqueSize(f"clique has {len(members)} blocks, expected {q * q}")
    rows = S.block_rows
    inside = sum(1 << i for i in members)
    failures = []
    outside = 0
    for b in range(len(S.blocks)):
        if inside >> b & 1:
            continue
        outside += 1
        met = (rows[b] & inside).bit_count()
        if met != q + 1:
            failures.append((b, met))
    return StarPropertyReport(
        passed=not failures, expected=q + 1,
        outside_blocks=outside, failures=failures)
