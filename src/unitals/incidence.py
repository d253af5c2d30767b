"""Incidence structures: linear spaces, designs, unitals, and searches.

An IncidenceStructure is a finite point set {0..n-1} together with a list
of blocks (point-index sets). Blocks are stored canonically: each block
strictly increasing, the block list sorted lexicographically, no
duplicates, every block of size >= 2. Structures are immutable after
construction.

Provided constructions: the classical projective plane PG(2,q) over
GF(q), the affine plane AG(2,q), point-set deletions ("punctures"),
and the Hermitian unital of order q (absolute points of a unitary
polarity of PG(2,q^2) with its secant-line sections). They compute on
the addition and multiplication tables of algebra.field_create. The
plane and unital constructions check their size caps before they factor
q, which takes O(sqrt(q)) steps, so a huge q is refused at once.

Three bitset tables, cached on each structure, are the one source of
block adjacency, meets, joins and pair coverage for the whole library:
``pencil_masks`` (blocks through each point), ``block_masks`` (points of
each block) and ``block_rows`` (blocks meeting each block). Two blocks of
a partial linear space meet in the single point of their masks' AND, and
two points are joined by the single block of their pencil masks' AND.
These masks are the library's one set type for blocks and pencils: every
membership, containment, meet and join question is answered with them.

Configuration search: the 4-line/6-point configuration in which every
configuration line carries exactly 3 of the points and every point lies
on exactly 2 of the lines.

Serialization: the ``incidence-v1`` JSON format (see read_json, and
format_json, the one writer, whose text the CLI emits). format_json
writes the text itself, byte for byte what json.dumps(..., indent=1)
writes, without that pure-Python encoder; the same private writer
writes the ``classify-linspace --json`` report. The reader and the
constructor check the blocks in one walk, naming the first bad one; the
reader refuses more than MAX_POINTS points.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii
from operator import lt
from typing import Iterable, NamedTuple, Sequence

from .algebra import Field, field_create, prime_power
from .errors import GeometryError, VerificationFailed

# from_json_dict refuses more points, as commands allocate per point; the
# cap matches confluence.MAX_VERTICES
MAX_POINTS = 4096


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _increasing(seq: Sequence) -> bool:
    """Whether each item of seq is less than the next."""
    return all(map(lt, seq, seq[1:]))


def _common(masks: Sequence[int], indices: Iterable[int]) -> int:
    """AND of masks[i] over non-empty indices: the blocks through all the
    points (pencil masks), or the points on all the blocks (block masks)."""
    it = iter(indices)
    out = masks[next(it)]
    for i in it:
        out &= masks[i]
    return out


class IncidenceStructure:
    """Finite point set plus canonical sorted block list.

    Blocks passed to the constructor may be in any order; they are
    normalized. A block with a repeated point, an out-of-range index, a
    size below 2, or a duplicate of another block raises GeometryError.
    """

    def __init__(self, num_points: int,
                 blocks: Iterable[Iterable[int]],
                 labels: Sequence[str] | None = None):
        if num_points < 0:
            raise GeometryError("negative point count")
        norm = [tuple(sorted(raw)) for raw in blocks]
        for block in norm:
            if len(block) < 2:
                raise GeometryError(f"block {block} has fewer than 2 points")
            if not _increasing(block):
                raise GeometryError(f"block {block} repeats a point")
            if block[0] < 0 or block[-1] >= num_points:
                raise GeometryError(f"block {block} out of range 0..{num_points - 1}")
        norm.sort()
        if not _increasing(norm):
            twin = next(a for a, b in pairwise(norm) if a == b)
            raise GeometryError(f"duplicate block {twin}")
        self.num_points = num_points
        self.blocks: tuple[tuple[int, ...], ...] = tuple(norm)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != num_points:
                raise GeometryError("labels length differs from num_points")
        self.labels = labels

    @cached_property
    def point_blocks(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the sorted indices of blocks through it."""
        through: list[list[int]] = [[] for _ in range(self.num_points)]
        for i, block in enumerate(self.blocks):
            for p in block:
                through[p].append(i)
        return tuple(tuple(t) for t in through)

    @cached_property
    def pencil_masks(self) -> tuple[int, ...]:
        """For each point, the bitset of the blocks through it."""
        return tuple(sum(1 << i for i in through) for through in self.point_blocks)

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        """For each block, the bitset of its points."""
        return tuple(sum(1 << p for p in block) for block in self.blocks)

    @cached_property
    def block_rows(self) -> tuple[int, ...]:
        """For each block, the bitset of the other blocks it meets."""
        pm = self.pencil_masks
        rows = []
        for i, block in enumerate(self.blocks):
            row = 0
            for p in block:
                row |= pm[p]
            rows.append(row & ~(1 << i))
        return tuple(rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IncidenceStructure)
                and self.num_points == other.num_points
                and self.blocks == other.blocks)


class DesignReport(NamedTuple):
    """Pair-coverage summary of a structure."""
    is_partial_linear: bool          # every point pair on at most one block
    is_linear_space: bool            # every point pair on exactly one block


class OnanConfiguration(NamedTuple):
    """Four mutually intersecting blocks whose six pairwise intersection
    points are distinct; each point then lies on exactly 2 of the blocks
    and each block carries exactly 3 of the points."""
    blocks: tuple[int, int, int, int]
    points: tuple[int, ...]


def validate(S: IncidenceStructure) -> DesignReport:
    """Linearity flags from one pass over the pencils.

    The blocks through p cover p and 1 + sum(|B| - 1) points between them
    exactly when no other point shares two of them with p; S is linear
    when, in addition, they cover every point.
    """
    every = (1 << S.num_points) - 1
    masks = S.block_masks
    others = [len(b) - 1 for b in S.blocks]
    linear = True
    for p, through in enumerate(S.point_blocks):
        covered, count = 1 << p, 1
        for b in through:
            covered |= masks[b]
            count += others[b]
        if covered.bit_count() != count:
            return DesignReport(is_partial_linear=False, is_linear_space=False)
        if covered != every:
            linear = False
    return DesignReport(is_partial_linear=True, is_linear_space=linear)


def validate_unital(S: IncidenceStructure) -> int | None:
    """Return q if S is a 2-(q^3+1, q+1, 1) design with q > 1, else None.

    The derived counts follow from linearity: the blocks through a point
    split the other q^3 points into sets of q, so each point is on q^2
    blocks, and there are (q^3+1) q^2 / (q+1) = q^2(q^2-q+1) blocks.
    """
    if not S.blocks:
        return None
    sizes = {len(b) for b in S.blocks}
    if len(sizes) != 1:
        return None
    q = sizes.pop() - 1
    if q <= 1 or S.num_points != q**3 + 1:
        return None
    return q if validate(S).is_linear_space else None


# --- classical constructions ---

def _pg_data(field: Field) -> tuple[list[tuple[int, int, int]], list[list[int]]]:
    """Points and line rows of PG(2,q) over the field GF(q).

    Points are homogeneous coordinate triples of element encodings,
    normalized so the first nonzero coordinate is 1, listed in ascending
    lexicographic order. Line i has the same coordinate triple as point i
    (the standard duality); its row lists the indices of incident points.
    Each line a*x + b*y + c*z = 0 is solved for its q+1 points directly,
    and its row comes out ascending.
    """
    add, mul = field
    q = len(add)
    points = [(0, 0, 1)]
    points += [(0, 1, z) for z in range(q)]
    points += [(1, y, z) for y in range(q) for z in range(q)]
    neg = [row.index(0) for row in add]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    # (0:0:1) is point 0, (0:1:z) point 1 + z, (1:y:z) point q+1 + y*q + z
    rows = []
    for a, b, c in points:
        if c:  # z = -(a*x + b*y)/c on (0:1:z) and on every (1:y:z)
            by, over_c = mul[b], mul[neg[inv[c]]]
            rows.append([1 + over_c[b]] + [q + 1 + y * q + over_c[add[a][by[y]]]
                                           for y in range(q)])
        elif b:  # (0:0:1) and (1:-a/b:z) for every z
            start = q + 1 + mul[neg[a]][inv[b]] * q
            rows.append([0] + list(range(start, start + q)))
        else:  # (0:0:1) and (0:1:z) for every z
            rows.append(list(range(q + 1)))
    return points, rows


def _label(triple: tuple[int, int, int]) -> str:
    return "({}:{}:{})".format(*triple)


def projective_plane(q: int) -> IncidenceStructure:
    """PG(2,q): q^2+q+1 points and lines, q+1 points per line.

    Point labels are "(x:y:z)" with coordinates shown as the integer
    encodings of GF(q) elements.
    """
    if q > 25:
        raise ValueError("projective_plane supports q <= 25")
    points, rows = _pg_data(field_create(q))
    return IncidenceStructure(len(points), rows, labels=[_label(t) for t in points])


def affine_plane(q: int) -> IncidenceStructure:
    """AG(2,q): q^2 points, q^2+q blocks of size q.

    Built by deleting the points of the line x=0 from PG(2,q).
    """
    plane = projective_plane(q)
    line_at_infinity = plane.blocks[0]  # points (0:*:*) come first
    assert line_at_infinity == tuple(range(q + 1))
    return puncture(plane, line_at_infinity)


def puncture(P: IncidenceStructure, deleted: Iterable[int]) -> IncidenceStructure:
    """Delete a point set; restrict blocks to survivors.

    Restrictions with fewer than 2 points are discarded and duplicate
    restrictions collapse to a single block. Survivors are reindexed;
    the original identity of each point is recorded in the labels (the
    original label if present, else the original index as a string).
    """
    dset = set(deleted)
    if not all(isinstance(p, int) and 0 <= p < P.num_points for p in dset):
        raise GeometryError(f"deleted set not within 0..{P.num_points - 1}")
    survivors = [p for p in range(P.num_points) if p not in dset]
    new_index = {p: i for i, p in enumerate(survivors)}
    restricted = set()
    for block in P.blocks:
        r = tuple(new_index[p] for p in block if p not in dset)
        if len(r) >= 2:
            restricted.add(r)
    labels = [P.labels[p] if P.labels else str(p) for p in survivors]
    return IncidenceStructure(len(survivors), restricted, labels=labels)


def hermitian_unital(q: int) -> IncidenceStructure:
    """The Hermitian unital of order q: q^3+1 points, q^2(q^2-q+1) blocks.

    Points are the points (x:y:z) of PG(2,q^2) with
    x^(q+1) + y^(q+1) + z^(q+1) = 0; blocks are the line sections of
    size q+1 (the secants). The construction self-checks its design
    parameters and raises VerificationFailed on any mismatch.
    """
    cap = "hermitian_unital supports q <= 5"
    if q > 25:  # refused unfactored; up to the plane cap, a non-prime-power is named
        raise ValueError(cap)
    if prime_power(q) is None:
        raise GeometryError(f"{q} is not a prime power")
    if q > 5:
        raise ValueError(cap)
    field = field_create(q * q)
    points, rows = _pg_data(field)
    add, mul = field
    norm = []
    for t in range(q * q):
        power = 1
        for _ in range(q + 1):
            power = mul[power][t]
        norm.append(power)
    absolute = [i for i, (x, y, z) in enumerate(points)
                if add[add[norm[x]][norm[y]]][norm[z]] == 0]
    new_index = {p: i for i, p in enumerate(absolute)}
    blocks = []
    for row in rows:
        r = [new_index[p] for p in row if p in new_index]
        if len(r) == q + 1:
            blocks.append(r)
    labels = [_label(points[p]) for p in absolute]
    unital = IncidenceStructure(len(absolute), blocks, labels=labels)
    if validate_unital(unital) != q:
        raise VerificationFailed(f"Hermitian construction for q={q} failed self-check")
    return unital


# --- configuration search ---

def find_onan(S: IncidenceStructure, limit: int = 0) -> list[OnanConfiguration]:
    """All 4-block subsets, pairwise intersecting, with 6 distinct meets.

    Enumeration is exhaustive in lexicographic order over sorted block
    quadruples; a positive `limit` stops after that many hits, and a
    negative one raises ValueError, as does an input that is not a
    partial linear space. See _onan_scan for the search.
    """
    return _onan_scan(S, limit, limit or math.inf)[1]


def count_onan(S: IncidenceStructure, limit: int = 0) -> int:
    """len(find_onan(S, limit)), with the same checks and ValueErrors, but
    counted by popcount: no configuration is built."""
    return _onan_scan(S, limit, 0)[0]


def _onan_scan(S: IncidenceStructure, limit: int,
               keep: float) -> tuple[int, list[OnanConfiguration]]:
    """(count, configurations) of the 4-line/6-point configurations of S.

    The count is exact, capped at a positive `limit`; only the first
    `keep` configurations, in lexicographic order of their sorted block
    quadruples, are built. The input must be a partial linear space, so
    two meeting blocks share exactly one point: the single bit of their
    block masks' AND.

    Candidates are pruned by pencils (xy is the meet of blocks x and y):
    k avoids the pencil of ij, and l those of ij, ik and jk. So no three
    of the four blocks share a point, and the six meets are distinct by
    construction: xy = xz would put one point on x, y and z, and xy = zw
    one point on all four. Every l left in the last bitset completes a
    configuration, so each (i, j, k) adds that bitset's popcount to the
    count.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if not validate(S).is_partial_linear:
        raise ValueError("input is not a partial linear space")
    rows, masks, pencils = S.block_rows, S.block_masks, S.pencil_masks
    nb = len(S.blocks)
    count = 0
    found: list[OnanConfiguration] = []
    for i in range(nb):
        bi = masks[i]
        above_i = rows[i] >> (i + 1) << (i + 1)
        mj = above_i
        while mj:
            jbit = mj & -mj
            j = jbit.bit_length() - 1
            mj ^= jbit
            bj = masks[j]
            ij = (bi & bj).bit_length() - 1
            cand_k = above_i & rows[j] >> (j + 1) << (j + 1) & ~pencils[ij]
            mk = cand_k
            while mk:
                kbit = mk & -mk
                k = kbit.bit_length() - 1
                mk ^= kbit
                bk = masks[k]
                ik = (bi & bk).bit_length() - 1
                jk = (bj & bk).bit_length() - 1
                ml = cand_k & rows[k] >> (k + 1) << (k + 1) & ~(pencils[ik] | pencils[jk])
                if not ml:
                    continue
                count += ml.bit_count()
                while ml and len(found) < keep:
                    lbit = ml & -ml
                    l = lbit.bit_length() - 1
                    ml ^= lbit
                    bl = masks[l]
                    pts = (ij, ik, (bi & bl).bit_length() - 1, jk,
                           (bj & bl).bit_length() - 1, (bk & bl).bit_length() - 1)
                    found.append(OnanConfiguration((i, j, k, l), tuple(sorted(pts))))
                if limit and count >= limit:
                    return limit, found
    return count, found


# --- incidence-v1 JSON ---

def to_json_dict(S: IncidenceStructure) -> dict:
    out: dict = {
        "format": "incidence-v1",
        "num_points": S.num_points,
        "blocks": [list(b) for b in S.blocks],
    }
    if S.labels is not None:
        out["labels"] = list(S.labels)
    return out


def from_json_dict(data: dict) -> IncidenceStructure:
    """Strict reader for incidence-v1; rejects any invariant violation."""
    if not isinstance(data, dict) or data.get("format") != "incidence-v1":
        raise GeometryError('missing or wrong "format" key (want "incidence-v1")')
    n = data.get("num_points")
    if type(n) is not int or n < 0:  # bool is an int subclass; JSON true is not a count
        raise GeometryError('"num_points" must be a non-negative integer')
    if n > MAX_POINTS:
        raise GeometryError(f"point count {n} exceeds {MAX_POINTS}")
    blocks = data.get("blocks")
    if not isinstance(blocks, list):
        raise GeometryError('"blocks" must be an array')
    for block in blocks:
        if not isinstance(block, list) or not set(map(type, block)) <= {int}:
            raise GeometryError(f"block {block!r} is not an array of integers")
        if not _increasing(block):
            raise GeometryError(f"block {block} is not strictly increasing")
        if block and (block[0] < 0 or block[-1] >= n):
            raise GeometryError(f"block {block} out of range")
    if not _increasing(blocks):
        raise GeometryError("blocks are not sorted lexicographically without duplicates")
    labels = data.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != n
                or not all(isinstance(s, str) for s in labels)):
            raise GeometryError('"labels" must be an array of strings of length num_points')
    return IncidenceStructure(n, blocks, labels=labels)


def format_json(S: IncidenceStructure) -> str:
    """incidence-v1 text of S, one-space indented, with a final newline."""
    return _json_text(to_json_dict(S)) + "\n"


def _json_text(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=1) writes it, at the depth whose
    lines start with pad. Takes dict (with str keys), list, int, str and
    None, and raises TypeError on any other type, bool included. A list
    of ints, of strs or of non-empty int lists is written without a call
    per item."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    inner = pad + " "
    if kind is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        elif kinds == {list} and all(value) and set(map(type, chain(*value))) == {int}:
            deeper = inner + " "  # non-empty rows of ints, such as blocks
            head, sep, tail = "[\n" + deeper, ",\n" + deeper, "\n" + inner + "]"
            items = [head + sep.join(map(int.__repr__, item)) + tail for item in value]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise TypeError("keys must be str")
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def read_json(path) -> IncidenceStructure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise GeometryError(f"invalid JSON: {exc}") from exc
    return from_json_dict(data)


def conic_points(q: int) -> tuple[int, ...]:
    """The deterministic conic {(1:t:t^2)} + {(0:0:1)} in projective_plane(q).

    Returns point indices in the canonical plane. The set has q+1 points
    and no 3 of them are collinear (a line meets it in at most 2 points).
    In the point order of _pg_data, (0:0:1) is point 0 and (1:y:z) is
    point q+1 + y*q + z, so the indices come out ascending. Like
    projective_plane, it supports q <= 25.
    """
    if q > 25:
        raise ValueError("conic_points supports q <= 25")
    mul = field_create(q).mul
    return (0,) + tuple(q + 1 + t * q + mul[t][t] for t in range(q))
