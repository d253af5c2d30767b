"""Rebuilding a unital from its confluence graph, and isomorphism tools.

For q > 2 the maximal cliques of size q^2 in the confluence graph of a
unital of order q are exactly the pencils, one per point, so the unital
can be rebuilt from the bare graph: take the size-q^2 cliques as points
and let each graph vertex give the block of cliques containing it. For
q = 2 pencil recognition fails (the 12-vertex graph has 81 maximal
cliques of size 4, far more than the 9 pencils); since all unitals of
order 2 are isomorphic and SRG(12, 9, 6, 9) is their graph alone, a
graph with those parameters gets the canonical affine plane of order 3,
the shortcut. reconstruct_unital returns the rebuilt structure alone.

Graph isomorphisms between confluence graphs of unitals of order q > 2
extend to incidence isomorphisms: the image of each pencil is a size-q^2
clique, hence itself a pencil, and mapping point to point recovers the
point bijection.

`isomorphic` is an independent incidence-structure isomorphism tester
used to verify these claims; it never consults clique or graph
machinery. It colors the points of the disjoint union of the two
structures by refinement, which splits cells only against the cells that
just split (a one-cell start is done at once), and needs each color to
hold as many points of one as of the other; then it backtracks within
the color classes: a point on two claimed blocks goes first, the search
stays next to the points already mapped, and a block claims a host only
if no image of another point lies on it.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Sequence

from .cliques import enumerate_maximal_cliques
from .confluence import ConfluenceGraph, expected_unital_params, infer_order, srg_check
from .errors import GeometryError, VerificationFailed
from .incidence import (
    IncidenceStructure,
    _bits,
    _common,
    affine_plane,
    validate_unital,
)


def reconstruct_unital(G: ConfluenceGraph) -> IncidenceStructure:
    """Rebuild a unital, up to isomorphism, from its confluence graph.

    Point j is the j-th size-q^2 clique in the enumerator's sorted list;
    vertex v gives the block of the cliques holding it, and blocks are
    sorted, a relabeling of the vertices. q is the block size minus 1."""
    q = infer_order(G)
    if q is None:
        raise VerificationFailed(
            f"no q >= 2 matches {G.n} vertices with the required regularity")
    if q == 2:
        # K_{3,3,3,3}, the confluence graph of AG(2,3), is the one graph
        # with these parameters; other 9-regular graphs on 12 vertices
        # must not take the shortcut
        if srg_check(G) != expected_unital_params(2):
            raise VerificationFailed("12-vertex graph is not the order-2 "
                                     "unital graph SRG(12, 9, 6, 9)")
        return affine_plane(3)
    point_cliques = [c for c in enumerate_maximal_cliques(G) if len(c) == q * q]
    if len(point_cliques) != q**3 + 1:
        raise VerificationFailed(
            f"{len(point_cliques)} maximal cliques of size {q * q}, "
            f"expected {q**3 + 1}")
    membership: list[list[int]] = [[] for _ in range(G.n)]
    for j, clique in enumerate(point_cliques):
        for vertex in clique:
            membership[vertex].append(j)
    # a vertex in fewer than 2 cliques fails the constructor; in any other
    # wrong count, a block size other than q + 1 fails validate_unital
    try:
        structure = IncidenceStructure(len(point_cliques), membership)
    except GeometryError as exc:
        raise VerificationFailed(f"rebuilt blocks are degenerate: {exc}") from exc
    if validate_unital(structure) != q:
        raise VerificationFailed("rebuilt structure fails the design validation")
    return structure


def extend_graph_isomorphism(beta, S: IncidenceStructure,
                             S2: IncidenceStructure) -> list[int]:
    """Extend a confluence-graph isomorphism to a point bijection.

    beta maps block indices of S to block indices of S2 and must preserve
    adjacency (checked). Both structures must be unitals of equal order
    q > 2. Returns the point map u -> u' such that (point map, beta) is
    an incidence isomorphism, verified by the pencil checks: once each
    pencil maps onto a full pencil, the q+1 points of block i land on
    block beta[i], on distinct points (distinct pencils), so they fill it.
    """
    q = validate_unital(S)
    q2 = validate_unital(S2)
    if q is None or q2 is None:
        raise ValueError("both structures must be unitals")
    if q == 2 or q2 == 2:
        raise ValueError("order-2 unitals are out of scope: pencil "
                         "recognition fails in their confluence graph")
    beta = list(beta)
    n = len(S.blocks)
    if sorted(beta) != list(range(n)) or len(S2.blocks) != n:
        raise GeometryError("beta is not a bijection on block indices")
    inverse = [0] * n
    for i, image in enumerate(beta):
        inverse[image] = i
    for i, row in enumerate(S.block_rows):
        # beta's image of row i against the row of beta[i]; rows are
        # symmetric, so the lowest differing j is above i
        diff = sum(1 << beta[j] for j in _bits(row)) ^ S2.block_rows[beta[i]]
        if diff:
            j = min(inverse[k] for k in _bits(diff))
            raise GeometryError(f"adjacency differs at block pair ({i}, {j})")

    point_map: list[int] = []
    for u in range(S.num_points):
        image = [beta[i] for i in S.point_blocks[u]]
        common = _common(S2.block_masks, image)
        if not common or common & (common - 1):
            raise GeometryError(
                f"image of the pencil of point {u} has no unique common point")
        u2 = common.bit_length() - 1
        if S2.pencil_masks[u2] != sum(1 << i for i in image):
            raise GeometryError(
                f"image of the pencil of point {u} is not the full pencil of {u2}")
        point_map.append(u2)
    return point_map


def _map_points(S1: IncidenceStructure, S2: IncidenceStructure,
                colors1: Sequence[int], colors2: Sequence[int]) -> list[int] | None:
    """Point bijection of S1 onto S2 that keeps colors and sends every
    block onto an S2 block, or None if there is none. The structures have
    equal point and block counts: _refined_colors balanced every color.

    Each block's hosts start as the S2 blocks of its size and are ANDed
    with the pencils of its assigned images; a block is claimed when one
    host is left. A block b claims host H only if the images on H are
    exactly those of b's assigned points: a bijection that carries b onto
    H carries no other point into H. A point's candidates are its unused
    S2 points of its color on the host of each claimed block through it; a
    candidate on no host of another touched block is rejected on
    assignment, as that block's hosts AND to 0. Backtracking is
    deterministic, candidates ascending; the next point is the lowest free
    one in the first non-empty tier of: points on two claimed blocks (the
    image is a meet of hosts), points on claimed blocks none of which
    holds three assigned points, points on no claimed block sharing a
    block with an assigned point, any free point (the first point, and
    the first of each component). So a path or a tree grows out from its
    first point, rather than fixing its mirror image at far-apart points
    whose clash shows only once the points between them are filled. The
    tiers are bitsets kept on assign and restored on undo; the points
    sharing a block with an assigned point are gathered only while a free
    point lies outside them, which in a linear space is only once.
    """
    n = S1.num_points
    pb1, bm1 = S1.point_blocks, S1.block_masks
    pm2, bm2 = S2.pencil_masks, S2.block_masks
    of_color: dict[int, int] = {}  # S2 points of each color
    for x, c in enumerate(colors2):
        of_color[c] = of_color.get(c, 0) | 1 << x
    of_size: dict[int, int] = {}  # S2 blocks of each size
    for i, block in enumerate(S2.blocks):
        of_size[len(block)] = of_size.get(len(block), 0) | 1 << i
    hosts = [of_size[len(b)] for b in S1.blocks]
    sigma: list[int | None] = [None] * n
    assigned_in = [0] * len(hosts)  # assigned points per S1 block
    used = 0                        # S2 points taken
    # S1 points: free ones, those on one and on two claimed blocks, those
    # on a claimed block holding three or more assigned points, and those
    # sharing a block with an assigned point
    free, on1, on2, heavy, touched = (1 << n) - 1, 0, 0, 0, 0

    def try_assign(p: int, h: int):
        """Apply sigma[p] = h; return its undo record, or None when a block
        through p is left without a host or claims one holding another
        image."""
        nonlocal used, free, on1, on2, heavy, touched
        record = [(b, hosts[b]) for b in pb1[p]], on1, on2, heavy, touched
        sigma[p] = h
        used |= 1 << h
        free ^= 1 << p
        if free & ~touched:
            for b in pb1[p]:
                touched |= bm1[b]
        for b in pb1[p]:
            assigned_in[b] += 1
        for b, old in record[0]:
            new = hosts[b] = old & pm2[h]
            if new & (new - 1):
                continue
            k = assigned_in[b]
            if new != old or k == 1:  # claimed just now, or left with no host
                if not new or (bm2[new.bit_length() - 1] & used).bit_count() != k:
                    undo(p, h, record)
                    return None
                on2 |= on1 & bm1[b]
                on1 |= bm1[b]
            if k >= 3:
                heavy |= bm1[b]
        return record

    def undo(p: int, h: int, record) -> None:
        nonlocal used, free, on1, on2, heavy, touched
        saved, on1, on2, heavy, touched = record
        for b, old in saved:
            hosts[b] = old
            assigned_in[b] -= 1
        sigma[p] = None
        used ^= 1 << h
        free |= 1 << p

    def pick() -> int | None:
        for tier in (on2 & free, on1 & ~heavy & free, touched & free & ~on1, free):
            if tier:
                return (tier & -tier).bit_length() - 1
        return None

    def candidates(p: int):
        mask = of_color[colors1[p]] & ~used
        for b in pb1[p]:
            h = hosts[b]
            if assigned_in[b] and not h & (h - 1):  # claimed
                mask &= bm2[h.bit_length() - 1]
        return _bits(mask)

    # depth-first on an explicit stack (its depth reaches the point count);
    # a frame is [point, remaining candidates, applied (candidate, undo
    # record) or None]
    p = pick()
    if p is None:
        return []
    stack = [[p, candidates(p), None]]
    while stack:
        frame = stack[-1]
        p, remaining, applied = frame
        if applied is not None:  # the deeper search failed
            undo(p, *applied)
            frame[2] = None
        for h in remaining:
            record = try_assign(p, h)
            if record is not None:
                frame[2] = (h, record)
                break
        else:
            stack.pop()
            continue
        p = pick()
        if p is None:
            return sigma  # type: ignore[return-value]
        stack.append([p, candidates(p), None])
    return None


def _refined_colors(S1: IncidenceStructure,
                    S2: IncidenceStructure) -> tuple[list[int], list[int]] | None:
    """Refine point colors of the disjoint union of S1 and S2 (S2's points
    and blocks numbered after S1's), from the blocks alone.

    Colors start as the sorted sizes of the blocks through each point,
    numbered through one palette; a color is a cell of the union's points.
    The refinement splits cells by splitters (McKay 1981) until no
    splitter is left. Popping a splitter C, every point x counts its
    incidences with C, by walking each y in C, each block through y and
    each point on that block (a point sharing k blocks with y counts k
    times, itself once per block through it); every cell holding points
    of different counts splits into one piece per count, uncounted points
    having count 0. A cell still waiting to split others queues all its
    pieces; any other cell queues all but its largest, as a point's count
    against that piece is its count against the old cell, which all the
    cell's points share, less its counts against the other pieces.

    The first colors are already stable against the whole point set: a
    point's incidences with it number the sum of its block sizes, which
    its first color fixes. So every first cell but the largest is queued,
    and a one-cell start is finished before the union is built. The
    result is the coarsest stable coloring finer than the first, the
    fixed point of re-keying every point by its color and the multiset of
    its block mates' colors, round after round.

    Returns None when a stable cell holds unequally many points of S1 and
    S2, else the colors of S1's points and of S2's, numbered alike, which
    _map_points reads as classes. The one check is exact: a split divides
    a cell's S1 and S2 points among its pieces, so an unbalanced cell
    leaves one in every finer coloring. Unequal point counts unbalance the
    first colors, and so do unequal block counts, since the first colors'
    multiset fixes the number of blocks of each size.
    """
    n1 = S1.num_points
    keys = []
    for S in (S1, S2):
        sizes = list(map(len, S.blocks))
        keys += [tuple(sorted(map(sizes.__getitem__, pb))) for pb in S.point_blocks]
    palette = {k: c for c, k in enumerate(sorted(set(keys)))}
    colors = [palette[k] for k in keys]
    cells: list[set[int]] = [set() for _ in palette]
    for x, c in enumerate(colors):
        cells[c].add(x)
    largest = max(range(len(cells)), key=lambda c: len(cells[c]), default=None)
    queued = [c != largest for c in range(len(cells))]
    queue = [c for c in range(len(cells)) if queued[c]]
    if queue:  # the union's tables; a one-cell start needs none
        shift = len(S1.blocks)
        blocks = S1.blocks + tuple([x + n1 for x in b] for b in S2.blocks)
        point_blocks = S1.point_blocks + tuple([b + shift for b in pb] for pb in S2.point_blocks)
    while queue:
        splitter = queue.pop()
        queued[splitter] = False
        incidences = Counter(chain.from_iterable(map(
            blocks.__getitem__,
            chain.from_iterable(map(point_blocks.__getitem__, cells[splitter])))))
        touched: dict[int, dict[int, list[int]]] = {}  # cell -> count -> points
        for x, k in incidences.items():
            touched.setdefault(colors[x], {}).setdefault(k, []).append(x)
        for c, by_count in touched.items():
            rest = len(cells[c]) - sum(map(len, by_count.values()))  # points of count 0
            if not rest and len(by_count) == 1:
                continue
            # the count-0 points keep the cell's color, or else the lowest count
            moved = sorted(by_count)[0 if rest else 1:]
            pieces = [c]
            for k in moved:
                piece = by_count[k]
                pieces.append(len(cells))
                cells[c].difference_update(piece)
                cells.append(set(piece))
                for x in piece:
                    colors[x] = pieces[-1]
                queued.append(False)
            skip = None if queued[c] else max(pieces, key=lambda p: len(cells[p]))
            for piece in pieces:
                if piece != skip and not queued[piece]:
                    queued[piece] = True
                    queue.append(piece)
    if sorted(colors[:n1]) != sorted(colors[n1:]):
        return None
    return colors[:n1], colors[n1:]


def isomorphic(S1: IncidenceStructure,
               S2: IncidenceStructure) -> list[int] | None:
    """Point bijection carrying blocks onto blocks, or None.

    Color refinement of the disjoint union, read from the blocks (see
    _refined_colors; its balanced colors imply equal point counts and
    block sizes) colors both point sets; then the backtracking search
    _map_points maps each point into its color class and each block onto
    an S2 block of its size. Its order is deterministic, so testing a
    structure against itself gives the identity. Every block image is
    re-checked before returning.
    """
    colors = _refined_colors(S1, S2)
    if colors is None:
        return None
    result = _map_points(S1, S2, *colors)
    if result is None:
        return None
    # safety net; full-image compatibility already forces this. The
    # refinement made the block counts equal, so equal sets also mean the
    # images are distinct
    if {tuple(sorted(result[x] for x in b)) for b in S1.blocks} != set(S2.blocks):
        return None
    return result
