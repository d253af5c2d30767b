"""Shared test helpers: deterministic graph sweep and tiny oracles."""

import json
import random
from collections import Counter
from itertools import combinations, permutations

from unitals.algebra import field_create
from unitals.cliques import CliqueClassification
from unitals.confluence import ConfluenceGraph
from unitals.errors import GeometryError
from unitals.incidence import IncidenceStructure, _bits, _pg_data, to_json_dict, validate
from unitals.linspace import complete_to_plane


class GraphTooLarge(GeometryError):
    """The graph exceeds the size bound of the naive algorithm."""


def lcg(seed: int):
    """Minimal 31-bit linear congruential generator; platform independent."""
    x = seed & 0x7FFFFFFF
    while True:
        x = (1103515245 * x + 12345) % (1 << 31)
        yield x


def graph_rejection_oracle(n: int, rows) -> str | None:
    """The message ConfluenceGraph(n, rows) rejects rows with, or None,
    with symmetry checked by the per-edge walk: every edge is looked up
    from both ends. The reference for the transposed symmetry check."""
    if len(rows) != n:
        return "adjacency row count differs from n"
    mask = (1 << n) - 1
    for i, row in enumerate(rows):
        if row & ~mask:
            return f"row {i} has bits outside 0..{n - 1}"
        if row >> i & 1:
            return f"vertex {i} is self-adjacent"
    for i in range(n):
        for j in _bits(rows[i]):
            if not rows[j] >> i & 1:
                return f"adjacency not symmetric at ({i}, {j})"
    return None


def edges_oracle(G: ConfluenceGraph) -> list[tuple[int, int]]:
    """Every edge (i, j), i < j, ascending, by walking all the bits of
    each row and keeping those above the diagonal."""
    return [(i, j) for i in range(G.n) for j in _bits(G.rows[i]) if i < j]


def format_dimacs_oracle(G: ConfluenceGraph, comments: tuple[str, ...] = ()) -> str:
    """DIMACS text of G, one line at a time: the reference for format_dimacs."""
    edges = edges_oracle(G)
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {G.n} {len(edges)}")
    lines.extend(f"e {i + 1} {j + 1}" for i, j in edges)
    return "\n".join(lines) + "\n"


def format_json_oracle(S: IncidenceStructure) -> str:
    """incidence-v1 text of S by the standard library's encoder: the
    reference for format_json."""
    return json.dumps(to_json_dict(S), indent=1) + "\n"


def block_rejection_oracle(num_points: int, blocks) -> str | None:
    """The message IncidenceStructure(num_points, blocks) rejects its
    blocks with, or None, by checking one block at a time: the reference
    for the constructor's block checks."""
    norm = []
    for raw in blocks:
        block = tuple(sorted(raw))
        if len(block) < 2:
            return f"block {block} has fewer than 2 points"
        if any(block[i] == block[i + 1] for i in range(len(block) - 1)):
            return f"block {block} repeats a point"
        if block[0] < 0 or block[-1] >= num_points:
            return f"block {block} out of range 0..{num_points - 1}"
        norm.append(block)
    norm.sort()
    for i in range(len(norm) - 1):
        if norm[i] == norm[i + 1]:
            return f"duplicate block {norm[i]}"
    return None


def json_rejection_oracle(n: int, blocks) -> str | None:
    """The message from_json_dict rejects the incidence-v1 dict of n points
    and these blocks with, or None, by checking one block at a time: the
    reference for the reader's block checks. What the reader passes goes
    on to the constructor, whose reference is block_rejection_oracle."""
    for block in blocks:
        if not isinstance(block, list) or not all(type(x) is int for x in block):
            return f"block {block!r} is not an array of integers"
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            return f"block {block} is not strictly increasing"
        if block and (block[0] < 0 or block[-1] >= n):
            return f"block {block} out of range"
    if any(blocks[i] >= blocks[i + 1] for i in range(len(blocks) - 1)):
        return "blocks are not sorted lexicographically without duplicates"
    return block_rejection_oracle(n, blocks)


def graph_from_edges(n: int, edges) -> ConfluenceGraph:
    """The graph on vertices 0..n-1 with the given (i, j) edges, in
    either orientation; the constructor rejects loops and bad indices."""
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return ConfluenceGraph(n, rows)


def sweep_graph(i: int) -> ConfluenceGraph:
    """Graph i of the fixed deterministic sweep (5..20 vertices)."""
    n = 5 + (i * 7) % 16
    density = 20 + (i * 13) % 61  # percent
    stream = lcg(1000 + i)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if next(stream) % 100 < density]
    return graph_from_edges(n, edges)


def double_edge_swap(G: ConfluenceGraph, seed: int) -> ConfluenceGraph:
    """G with one seeded double edge swap: edges ab and cd on four distinct
    vertices, with ad and cb absent, become ad and cb. Every degree stays.
    Raises ValueError when 1,000 sampled edge pairs give no swap."""
    rng = random.Random(seed)
    edges = G.edges()
    for _ in range(1000):
        (a, b), (c, d) = rng.sample(edges, 2)
        if (len({a, b, c, d}) == 4
                and not G.rows[a] >> d & 1 and not G.rows[c] >> b & 1):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return graph_from_edges(G.n, kept + [(a, d), (c, b)])
    raise ValueError("no double edge swap found")


def subset_filter_cliques(G: ConfluenceGraph) -> list[tuple[int, ...]]:
    """Third opinion for tiny graphs: test all 2^n subsets directly."""
    n = G.n
    assert n <= 14
    out = []
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if any(not G.rows[a] >> b & 1 for i, a in enumerate(members)
               for b in members[i + 1:]):
            continue
        inside = set(members)
        if any(all(G.rows[v] >> m & 1 for m in members)
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


def onan_oracle(S) -> list[tuple[int, int, int, int]]:
    """Every O'Nan configuration of S, as its ascending block quadruple, by
    an unpruned loop over all 4-subsets of blocks: four blocks whose six
    pairs each meet in one point, the six points distinct."""
    hits = []
    sets = block_sets(S)
    for quad in combinations(range(len(S.blocks)), 4):
        meets = []
        for i, j in combinations(quad, 2):
            common = sets[i] & sets[j]
            if len(common) != 1:
                break
            meets.append(next(iter(common)))
        else:
            if len(set(meets)) == 6:
                hits.append(quad)
    return hits


def pg_data_oracle(field) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """Points and line rows of PG(2,q) over the field GF(q) by testing every
    point against every line: the O(N^2) reference for incidence._pg_data."""
    add, mul = field.add, field.mul
    q = len(add)
    points = [(0, 0, 1)]
    points += [(0, 1, z) for z in range(q)]
    points += [(1, y, z) for y in range(q) for z in range(q)]
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


def validate_unital_oracle(S) -> int | None:
    """validate_unital with the derived counts tested as well: q^2(q^2-q+1)
    blocks and constant point degree q^2. The reference that shows those
    two tests are implied by the design's other conditions."""
    if not S.blocks:
        return None
    sizes = {len(b) for b in S.blocks}
    if len(sizes) != 1:
        return None
    q = sizes.pop() - 1
    if q <= 1:
        return None
    if S.num_points != q**3 + 1:
        return None
    if len(S.blocks) != q * q * (q * q - q + 1):
        return None
    if {len(t) for t in S.point_blocks} != {q * q}:
        return None
    return q if validate(S).is_linear_space else None


def pair_count_refinement(S1, S2):
    """Joint color refinement keyed by (color, number of common blocks)
    over the points sharing a block with each point, from a per-point
    pair-count table: the reference for reconstruct._refined_colors.
    Returns None when the color multisets diverge, else the stable colors."""
    n = S1.num_points

    def common_blocks(S):
        counts = [Counter() for _ in range(n)]
        for a, b in pair_coverage(S).elements():
            counts[a][b] += 1
            counts[b][a] += 1
        return counts

    def initial(S):
        return [(len(S.point_blocks[p]),
                 tuple(sorted(len(S.blocks[i]) for i in S.point_blocks[p])))
                for p in range(n)]

    cc1, cc2 = common_blocks(S1), common_blocks(S2)
    key1, key2 = initial(S1), initial(S2)
    col1 = col2 = None
    while True:
        palette = {k: i for i, k in enumerate(sorted(set(key1) | set(key2)))}
        new1 = [palette[k] for k in key1]
        new2 = [palette[k] for k in key2]
        if sorted(new1) != sorted(new2):
            return None
        if new1 == col1 and new2 == col2:
            return col1, col2
        col1, col2 = new1, new2
        key1 = [(col1[p], tuple(sorted((col1[x], c) for x, c in cc1[p].items())))
                for p in range(n)]
        key2 = [(col2[p], tuple(sorted((col2[x], c) for x, c in cc2[p].items())))
                for p in range(n)]


def round_refinement(S1, S2):
    """Joint color refinement in rounds: every round re-keys every point by
    its color and the sorted colors of its block mates, read off the blocks
    through it (a point sharing k blocks with it counts k times), renaming
    colors through a palette shared by both structures. The reference for
    the splitter refinement of reconstruct._refined_colors, on any
    structure. Returns None as soon as the color multisets diverge, else
    the stable colors."""
    n = S1.num_points
    pb1, pb2 = S1.point_blocks, S2.point_blocks
    bl1, bl2 = S1.blocks, S2.blocks
    key1 = [tuple(sorted(len(bl1[i]) for i in pb1[p])) for p in range(n)]
    key2 = [tuple(sorted(len(bl2[i]) for i in pb2[p])) for p in range(n)]
    col1 = col2 = None
    while True:
        palette = {k: i for i, k in enumerate(sorted(set(key1) | set(key2)))}
        new1 = [palette[k] for k in key1]
        new2 = [palette[k] for k in key2]
        if sorted(new1) != sorted(new2):
            return None
        if new1 == col1 and new2 == col2:
            return col1, col2
        col1, col2 = new1, new2
        key1 = [(col1[p], tuple(sorted(col1[x] for i in pb1[p] for x in bl1[i])))
                for p in range(n)]
        key2 = [(col2[p], tuple(sorted(col2[x] for i in pb2[p] for x in bl2[i])))
                for p in range(n)]


def joint_partition(colors):
    """The partition of the points of both structures that a pair of color
    lists induces, with cells numbered by first appearance (None stays)."""
    if colors is None:
        return None
    first: dict = {}
    return [first.setdefault(c, len(first)) for c in colors[0] + colors[1]]


def brute_force_isomorphic(S1, S2) -> bool:
    """Whether some point permutation carries the blocks of S1 onto those
    of S2, by trying every permutation; at most 6 points."""
    n = S1.num_points
    assert n <= 6
    if n != S2.num_points or len(S1.blocks) != len(S2.blocks):
        return False
    target = set(S2.blocks)
    return any(all(tuple(sorted(perm[x] for x in b)) in target for b in S1.blocks)
               for perm in permutations(range(n)))


def classify_clique_oracle(S, clique) -> CliqueClassification:
    """Reference for cliques.classify_clique, built from the block tuples
    alone, so a fault in the bitset tables the classifier reads cannot
    pass both: disjointness and common points come from set
    intersections, a pencil from a scan of every block, and each
    near-pencil candidate is compared as a block tuple."""
    members = tuple(sorted(set(clique)))
    sets = block_sets(S)
    for i, j in combinations(members, 2):
        if not sets[i] & sets[j]:
            raise GeometryError(f"blocks {i} and {j} are disjoint")
    common = frozenset.intersection(*(sets[i] for i in members)) if members else ()
    for p in sorted(common):
        if tuple(i for i, b in enumerate(sets) if p in b) == members:
            return CliqueClassification("pencil", point=p)

    if len(members) >= 3:
        for L in members:
            apex = frozenset.intersection(*(sets[i] for i in members if i != L)) - sets[L]
            for p in sorted(apex):
                try:
                    if near_pencil(S, p, L) == members:
                        return CliqueClassification("near_pencil", point=p, line=L)
                except GeometryError:
                    continue
    return CliqueClassification("other")


def near_pencil(S, p: int, L: int) -> tuple[int, ...]:
    """Block L plus the block joining p to each point of L, for p off L,
    found from the block tuples alone: the reference classify_clique's
    near-pencil test is checked against. Raises ValueError when p lies on
    L, and GeometryError when some join is missing or not unique."""
    blocks = S.blocks
    if p in blocks[L]:
        raise ValueError(f"point {p} lies on block {L}")
    through_p = [i for i, b in enumerate(blocks) if p in b]
    out = {L}
    for x in blocks[L]:
        joins = [i for i in through_p if x in blocks[i]]
        if len(joins) != 1:
            raise GeometryError(
                f"no unique block joins {p} and {x}; not a linear space")
        out.add(joins[0])
    return tuple(sorted(out))


def star_failures(S, clique, q: int) -> list[tuple[int, int]]:
    """The star property of a clique of q^2 blocks, which holds when the
    returned list is empty: each block outside it that does not meet
    exactly q+1 members, with its meet count. Meets are counted by set
    intersection. Raises ValueError for a clique of another size."""
    members = sorted(set(clique))
    if len(members) != q * q:
        raise ValueError(f"clique has {len(members)} blocks, expected {q * q}")
    sets = block_sets(S)
    inside = set(members)
    failures = []
    for b, block in enumerate(sets):
        if b not in inside:
            met = sum(1 for m in members if block & sets[m])
            if met != q + 1:
                failures.append((b, met))
    return failures


def q2_special_classify(D) -> str | None:
    """Two-way classification of the 4-point linear spaces with lines of
    at most 3 points: "affine_plane_of_order_2" (six 2-point lines) or
    "near_pencil_structure" (one 3-point line and three 2-point lines, so
    no quadrangle). None for any other input."""
    if D.num_points != 4 or not linearity_oracle(D)[1]:
        return None
    sizes = tuple(sorted(len(b) for b in D.blocks))
    return {(2,) * 6: "affine_plane_of_order_2",
            (2, 2, 2, 3): "near_pencil_structure"}.get(sizes)


def hall_plane() -> IncidenceStructure:
    """The Hall plane of order 9 (M. Hall 1943), a non-Desarguesian plane.

    AG(2,9) on the points (x, y) = 9x + y is derived over the Baer
    subline of slopes GF(3) + {inf}: its lines are the 54 lines y = mx + b
    with m outside GF(3), and the 36 cosets of the four subspaces
    c * GF(3)^2 (Baer subplanes through the subline). complete_to_plane
    then adds the ten points at infinity, 81..90.
    """
    F = field_create(9)
    mul, add = F.mul, F.add
    gf3 = [t for t in range(9) if mul[mul[t][t]][t] == t]
    lines = {frozenset(9 * x + add[mul[m][x]][b] for x in range(9))
             for m in range(9) if m not in gf3 for b in range(9)}
    lines |= {frozenset(9 * add[mul[c][a]][u] + add[mul[c][b]][v] for a in gf3 for b in gf3)
              for c in range(1, 9) for u in range(9) for v in range(9)}
    assert len(lines) == 90
    return complete_to_plane(IncidenceStructure(81, lines), 9).host


def buekenhout_metz_unital(alpha: int) -> IncidenceStructure:
    """The point set {(x : alpha*x^2 + r : 1) : x in GF(9), r in GF(3)} plus
    (0:1:0) of PG(2,9), with its 4-point line sections as blocks: the
    orthogonal Buekenhout-Metz unital of order 3 (Buekenhout 1976; Metz
    1979) when alpha is 4, 5, 7 or 8 in the encoding of field_create(9).
    Other alpha give 28 points and 9 blocks, not a unital. Each triple is
    normalised so that its first nonzero coordinate is 1, and looked up
    in the point list of PG(2,9)."""
    field = field_create(9)
    add, mul = field
    points, rows = _pg_data(field)
    index = {p: i for i, p in enumerate(points)}
    inv = [0] + [mul[a].index(1) for a in range(1, 9)]

    def normalised(triple):
        scale = mul[inv[next(c for c in triple if c)]]
        return index[tuple(scale[c] for c in triple)]

    # GF(3) is {0, 1, 2} in the encoding
    chosen = {normalised((x, add[mul[alpha][mul[x][x]]][r], 1))
              for x in range(9) for r in range(3)}
    chosen.add(normalised((0, 1, 0)))
    new_index = {p: i for i, p in enumerate(sorted(chosen))}
    sections = ([new_index[p] for p in row if p in new_index] for row in rows)
    return IncidenceStructure(len(new_index), [b for b in sections if len(b) == 4])


def fano_quadrangle(P):
    """The first quadrangle (0, b, c, d), b < c < d, of the projective
    plane P whose three diagonal points are collinear, or None.

    Such a quadrangle spans a Fano subplane; PG(2,q) for odd q has none
    (its diagonal points are never collinear). The diagonal points are
    the same for every order of the four points, and in a plane whose
    collineations are transitive on points every quadrangle is the image
    of one through point 0. Joins and meets are tabulated from the block
    tuples alone.
    """
    n = P.num_points
    join = [[-1] * n for _ in range(n)]
    meet = [[-1] * len(P.blocks) for _ in range(len(P.blocks))]
    for i, block in enumerate(P.blocks):
        for x, y in combinations(block, 2):
            join[x][y] = join[y][x] = i
    for p in range(n):
        for i, j in combinations(P.point_blocks[p], 2):
            meet[i][j] = meet[j][i] = p
    ja = join[0]
    for b in range(1, n):
        ab, jb = ja[b], join[b]
        for c in range(b + 1, n):
            ac, bc = ja[c], jb[c]
            if ac == ab:
                continue
            jc = join[c]
            for d in range(c + 1, n):
                ad, bd = ja[d], jb[d]
                if ad == ab or ad == ac or bd == bc:
                    continue
                p, r = meet[ab][jc[d]], meet[ad][bc]
                if join[p][meet[ac][bd]] == join[p][r]:
                    return 0, b, c, d
    return None


def full_pencils_set(P, q: int, rng) -> list[int]:
    """A seeded (q+1)-point set of the plane P that no line meets in q or
    more points, so its puncture is in the full-pencils case."""
    lines = block_sets(P)
    while True:
        points = set(rng.sample(range(P.num_points), q + 1))
        if all(len(points & line) < q for line in lines):
            return sorted(points)


def thin_point_set(P, rng) -> tuple[list[int], int]:
    """A seeded (q+1)-point set of the plane P, and its point u: a line W
    without u, plus a point off W. Its puncture is in the thin-point case
    with thin point u. The extra point is drawn off W, not merely off
    W - u, which could draw u back and delete the full line W."""
    W = rng.choice(P.blocks)
    u = rng.choice(W)
    v = rng.choice([p for p in range(P.num_points) if p not in W])
    return sorted(set(W) - {u} | {v}), u


def deleted_pencils(blocks, deleted, index) -> set:
    """The pencil of each deleted point, as its lines cut down to the
    other points and renumbered by index. In the full-pencils and
    thin-point cases no line lies inside the deleted set, and no two
    lines have the same trace on the other points, so two planes that
    puncture to the same space, with the survivors numbered alike, are
    equal up to the names of the deleted points exactly when these sets
    are equal."""
    gone = set(deleted)
    return {frozenset(frozenset(index[p] for p in b if p not in gone)
                      for b in blocks if x in b) for x in gone}


def one_point_swaps(S):
    """Every structure made from S by swapping a point x of block a that
    is not on block b with a point y of b that is not on a (a < b, x and
    y ascending), from the block sets; swaps that repeat a block are
    skipped. Every point keeps its pencil size and every block its size."""
    lines = block_sets(S)
    for a, b in combinations(range(len(lines)), 2):
        A, B = lines[a], lines[b]
        rest = [line for i, line in enumerate(lines) if i not in (a, b)]
        for x in sorted(A - B):
            for y in sorted(B - A):
                blocks = {A - {x} | {y}, B - {y} | {x}, *rest}
                if len(blocks) == len(lines):
                    yield IncidenceStructure(S.num_points, blocks)


def witness_oracle(D, w, q: int) -> bool:
    """Whether w embeds D in its host, from the block sets alone: the
    point map is an injection into the host points, each line of D lies
    in exactly one host line, no two in the same one, and the deleted
    points are the other q+1 host points, ascending. The reference for
    linspace.embedding_errors."""
    pm, points = w.point_map, range(w.host.num_points)
    if len(pm) != D.num_points or not set(pm) <= set(points) or len(set(pm)) != len(pm):
        return False
    host_lines = block_sets(w.host)
    images = []
    for line in D.blocks:
        image = {pm[x] for x in line}
        holders = [i for i, h in enumerate(host_lines) if image <= h]
        if len(holders) != 1:
            return False
        images.append(holders[0])
    return (len(set(images)) == len(images) and len(w.deleted) == q + 1
            and tuple(w.deleted) == tuple(sorted(set(points) - set(pm))))


def witness_mutants(w):
    """Every witness made from w by swapping two entries of its point map,
    then every one made by dropping one of its deleted points."""
    pm = w.point_map
    for i, j in combinations(range(len(pm)), 2):
        swapped = list(pm)
        swapped[i], swapped[j] = pm[j], pm[i]
        yield w._replace(point_map=tuple(swapped))
    for k in range(len(w.deleted)):
        yield w._replace(deleted=w.deleted[:k] + w.deleted[k + 1:])
