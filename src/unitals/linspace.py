"""Classification of q^2-point linear spaces and their plane embeddings.

Scope: linear spaces D with |D| = q^2 points, every pencil of size at
most q+1 and every line of size at most q+1. For q >= 3 every such space
arises from a projective plane of order q by deleting q+1 points, in one
of three ways:

  * "affine_plane":  no line has q+1 points; D is an affine plane of
    order q with q^2+q lines (the deleted points form a full line).
  * "thin_point":    some point u lies on only q lines; then exactly one
    line through u has q points and the rest have q+1. D comes from
    deleting a line W except one of its points u, plus one point off W.
  * "full_pencils":  every pencil has q+1 lines and there are q^2+q+1
    lines; the deleted set has no q collinear points, and every deleted
    point has a tangent (a size-q line of D through it in the plane).

Supporting facts checked as hard invariants (violations indicate a
corrupted input, not a classification):
  * a line with q+1 points meets every other line;
  * at most one point has a pencil of size <= q, and such a point has
    exactly q lines, exactly one of size q.

Every case builds its host plane of order q from D, which need not be
PG(2,q), with complete_to_plane, and returns an EmbeddingWitness (host
plane, point injection, deleted point set) that an independent verifier
re-checks. The host adds one new point per partition into disjoint
lines (_partitions) of D, and of D - u for a thin point u, to the lines
in it; D's points keep their indices. Every case has q+1 partitions,
the one count that is checked: the parallel classes of an affine plane,
the pencils of the deleted points in the full-pencils case, and in the
thin-point case one partition of D and q of D - u (below). The host
line that D lacks, if any, holds exactly the points that then lie on
only q lines, and the host adds it: the q+1 new points of an affine
plane, u and the q new points of D - u's partitions in the thin-point
case, and none in the full-pencils case.

In the full-pencils case D has as many lines as the host, so
every host line meets D, and the pencil of each deleted point is a
partition. There are no others: the host lines of a partition F of k
lines meet pairwise at deleted points, and hold k(q+1) - q^2 of them
counted with multiplicity. Read as sets of lines of F, the deleted
points on 2 or more of them form a linear space on F. If none held all
of F, de Bruijn-Erdos (1948) would give at least k of the q+1 deleted
points, so k <= q+1 and k(q+1) - q^2 >= 2k: no k solves both. So F is
the pencil of a deleted point, as each host line through it meets D.

In the thin-point case let S be the size-q line through u, W the host
line through u that D lacks, and v the deleted point on S's host line;
the deleted set is (W - u) + v.
  (a) A partition of D covers u with S, as the other lines through u
      have q+1 points and meet every other line. A line of D that
      misses S has a host line meeting S's host line at a deleted
      point, and v is the only one there. So the lines missing S are
      the q lines through v other than S, of q-1 points each, and D has
      exactly one partition: the pencil of v.
  (b) A line of D not through u has a host line meeting W at one point
      x != u. Let F be pairwise disjoint lines, none through u, that
      cover D - u. If a line of F passes through x but not v, a line of
      F through another point x' of W would meet it at a point that is
      neither deleted nor u; so F is the pencil of x without W.
      Otherwise every line of F passes through v, and at most q lines
      of q-1 points cannot cover the q^2-1 points. So D - u has exactly
      q such partitions, the pencils of the points of W - u.
The host adds v to the partition of (a), one point to each partition
of (b), and the line W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import GeometryError, VerificationFailed
from .incidence import IncidenceStructure, _common, validate


class EmbeddingWitness(NamedTuple):
    """Explicit embedding of a linear space into a projective plane.

    point_map[i] is the host point carrying point i; deleted lists the
    q+1 host points outside the image. complete_to_plane keeps D's
    points at their indices, so its point map is the identity, and names
    the deleted points q^2..q^2+q; the verifier checks any map.
    """
    host: IncidenceStructure
    point_map: tuple[int, ...]
    deleted: tuple[int, ...]


@dataclass
class LinSpaceClass:
    q: int
    case: str                       # "affine_plane" | "thin_point" | "full_pencils"
    line_count: int
    projective_lines: tuple[int, ...]
    thin_point: int | None = None
    thin_line: int | None = None    # the unique size-q line through the thin point
    embedding: EmbeddingWitness | None = None


def check_assumptions(D: IncidenceStructure, q: int) -> tuple[str, ...]:
    """The violations of: q^2 points, pencils <= q+1, line sizes <= q+1.
    Linearity is left to validate."""
    violations = []
    if D.num_points != q * q:
        violations.append(f"point count {D.num_points} != q^2 = {q * q}")
    for p, through in enumerate(D.point_blocks):
        if len(through) > q + 1:
            violations.append(f"pencil of point {p} has {len(through)} > q+1 lines")
    for i, block in enumerate(D.blocks):
        if len(block) > q + 1:
            violations.append(f"line {i} has {len(block)} > q+1 points")
    return tuple(violations)


def projective_lines(D: IncidenceStructure, q: int) -> tuple[int, ...]:
    """All lines with q+1 points; asserts each meets every other line."""
    full = tuple(i for i, b in enumerate(D.blocks) if len(b) == q + 1)
    every = (1 << len(D.blocks)) - 1
    for i in full:
        missed = every & ~D.block_rows[i] & ~(1 << i)
        if missed:
            j = (missed & -missed).bit_length() - 1
            raise VerificationFailed(
                f"size-(q+1) line {i} misses line {j}; input corrupted")
    return full


def thin_points(D: IncidenceStructure, q: int) -> list[int]:
    """Points with pencils of size <= q (at most one may exist).

    If one exists, its pencil has exactly q lines, exactly one of size q,
    all others of size q+1. Any other shape raises VerificationFailed.
    """
    thin = [p for p, through in enumerate(D.point_blocks) if len(through) <= q]
    if len(thin) > 1:
        raise VerificationFailed(f"multiple thin points {thin}; input corrupted")
    if thin:
        u = thin[0]
        through = D.point_blocks[u]
        if len(through) != q:
            raise VerificationFailed(
                f"thin point {u} has {len(through)} lines, expected exactly {q}")
        sizes = sorted(len(D.blocks[i]) for i in through)
        if sizes != [q] + [q + 1] * (q - 1):
            raise VerificationFailed(
                f"thin point {u} has line sizes {sizes}, expected one of {q} "
                f"and {q - 1} of {q + 1}")
    return thin


def classify(D: IncidenceStructure, q: int, embed: bool = True) -> LinSpaceClass:
    """Three-way classification, optionally with an embedding witness.

    Requires q >= 3 and the standing assumptions. The case is read off
    the projective lines and the thin point, and each case has its line
    count checked. Then complete_to_plane builds the host plane of order
    q from D in every case, for every q, and the independent witness
    verifier re-checks it; pass embed=False to skip the embedding.
    """
    if q < 3:
        raise GeometryError("classification requires q >= 3")
    violations = check_assumptions(D, q)
    if violations or not validate(D).is_linear_space:
        raise VerificationFailed("; ".join(violations) or "not a linear space")
    full = projective_lines(D, q)
    thin = thin_points(D, q)
    line_count = len(D.blocks)

    if not full:
        case = "affine_plane"
        if line_count != q * q + q:
            raise VerificationFailed(
                f"affine case must have q^2+q lines, found {line_count}")
    elif thin:
        case = "thin_point"
        if line_count != q * q + q:
            raise VerificationFailed(
                f"thin-point case must have q^2+q lines, found {line_count}")
    else:
        case = "full_pencils"
        if line_count != q * q + q + 1:
            raise VerificationFailed(
                f"full-pencils case must have q^2+q+1 lines, found {line_count}")
    result = LinSpaceClass(q=q, case=case, line_count=line_count, projective_lines=full)
    if thin:
        u = result.thin_point = thin[0]
        result.thin_line = next(i for i in D.point_blocks[u] if len(D.blocks[i]) == q)
    if embed:
        result.embedding = complete_to_plane(D, q)
        problems = embedding_errors(D, result.embedding, q)
        if problems:
            raise VerificationFailed("; ".join(problems))
    return result


def _partitions(D: IncidenceStructure, covered: int = 0,
                lines: int = -1) -> list[tuple[int, ...]]:
    """Every set of pairwise disjoint lines, taken from the mask lines,
    that covers the points of D outside the mask covered, as ascending
    line indices: depth-first, the lowest uncovered point takes each
    line through it, ascending, among the lines that miss every line
    taken so far. Lines that meet covered must be left out of lines."""
    every = (1 << D.num_points) - 1
    rows, masks, pencils = D.block_rows, D.block_masks, D.pencil_masks
    found: list[tuple[int, ...]] = []
    # (lines taken, points covered, candidate lines); children are pushed
    # in reverse so that they are popped ascending
    stack = [((), covered, lines)]
    while stack:
        taken, covered, cand = stack.pop()
        if covered == every:
            found.append(tuple(sorted(taken)))
            continue
        low = ~covered & (covered + 1)
        through = cand & pencils[low.bit_length() - 1]
        while through:
            top = through.bit_length() - 1
            through ^= 1 << top
            stack.append((taken + (top,), covered | masks[top], cand & ~rows[top]))
    return found


def complete_to_plane(D: IncidenceStructure, q: int) -> EmbeddingWitness:
    """Construct a projective plane of order q in which D embeds.

    The host adds point q^2+k to the lines of the k-th partition into
    lines of D, then of D minus its thin point if it has one, and the
    line through the points that then lie on only q lines, if any (see
    the module docstring). D's points keep their indices. A partition
    count other than q+1, a host that is not a projective plane of order
    q, or a partition of D without a size-q line (a deleted point with no
    tangent) raises VerificationFailed.
    """
    whole = _partitions(D)
    parts = list(whole)
    for u in thin_points(D, q):
        parts += _partitions(D, 1 << u, ~D.pencil_masks[u])
    if len(parts) != q + 1:
        raise VerificationFailed(f"{len(parts)} partitions into lines, expected {q + 1}")
    n = D.num_points
    blocks = [list(block) for block in D.blocks]
    for k, part in enumerate(parts):
        for j in part:
            blocks[j].append(n + k)
    degree = [len(through) for through in D.point_blocks] + [len(part) for part in parts]
    extra = [p for p, d in enumerate(degree) if d == q]
    if extra:
        blocks.append(extra)
    # sizes first: a one-point extra line is not a block
    if (n != q * q or any(len(b) != q + 1 for b in blocks)
            or not validate(host := IncidenceStructure(n + q + 1, blocks)).is_linear_space):
        raise VerificationFailed("the rebuilt host is not a projective plane of order q")
    # tangent: every deleted point lies on the host line of a size-q line of D
    for k, part in enumerate(whole):
        if all(len(D.blocks[j]) != q for j in part):
            raise VerificationFailed(f"deleted host point {n + k} has no tangent line")
    return EmbeddingWitness(host=host, point_map=tuple(range(n)),
                            deleted=tuple(range(n, n + q + 1)))


def embedding_errors(D: IncidenceStructure, w: EmbeddingWitness, q: int) -> list[str]:
    """Independent witness verifier: collinearity preservation, line
    injectivity, and deleted-set size. Knows nothing about how the
    witness was produced."""
    problems = []
    pm = w.point_map
    if len(pm) != D.num_points:
        problems.append("point_map length differs from point count")
        return problems
    if any(not 0 <= h < w.host.num_points for h in pm):
        problems.append("point_map leaves the host point range")
        return problems
    if len(set(pm)) != len(pm):
        problems.append("point_map is not injective")
    images = []
    for i, block in enumerate(D.blocks):
        containing = _common(w.host.pencil_masks, (pm[x] for x in block))
        if containing.bit_count() != 1:
            problems.append(
                f"line {i} maps into {containing.bit_count()} host lines, want exactly 1")
        else:
            images.append(containing.bit_length() - 1)
    if len(set(images)) != len(images):
        problems.append("two lines map into the same host line")
    expected_deleted = tuple(sorted(set(range(w.host.num_points)) - set(pm)))
    if tuple(w.deleted) != expected_deleted:
        problems.append("deleted set is not the complement of the image")
    if len(w.deleted) != q + 1:
        problems.append(f"deleted set has {len(w.deleted)} points, want q+1 = {q + 1}")
    return problems
