"""Incidence structures: constructions, searches, serialization."""

import json
import random
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    block_rejection_oracle,
    block_sets,
    buekenhout_metz_unital,
    format_json_oracle,
    json_rejection_oracle,
    linearity_oracle,
    near_pencil,
    pair_coverage,
    pg_data_oracle,
    validate_unital_oracle,
)

from unitals.algebra import field_create, prime_power
from unitals.errors import GeometryError
from unitals.incidence import (
    MAX_POINTS,
    IncidenceStructure,
    OnanConfiguration,
    _json_text,
    _pg_data,
    affine_plane,
    conic_points,
    count_onan,
    find_onan,
    format_json,
    from_json_dict,
    hermitian_unital,
    projective_plane,
    puncture,
    to_json_dict,
    validate,
    validate_unital,
)
from unitals.reconstruct import isomorphic


# --- constructor and validate ---

def test_constructor_normalizes_and_sorts():
    S = IncidenceStructure(4, [[3, 1], [2, 0, 1]])
    assert S.blocks == ((0, 1, 2), (1, 3))


@pytest.mark.parametrize("blocks, msg", [
    ([[0]], "fewer than 2"),
    ([[0, 0]], "repeats"),
    ([[0, 9]], "out of range"),
    ([[0, 1], [1, 0]], "duplicate"),
])
def test_constructor_rejects_malformed(blocks, msg):
    with pytest.raises(GeometryError, match=msg):
        IncidenceStructure(4, blocks)


@pytest.mark.parametrize("num_points, blocks, labels, msg", [
    (-1, [], None, "negative point count"),
    (3, [[0, 1]], ["a"], "labels length differs from num_points"),
])
def test_constructor_rejects_bad_point_count_and_labels(num_points, blocks, labels, msg):
    with pytest.raises(GeometryError, match=f"^{msg}$"):
        IncidenceStructure(num_points, blocks, labels)


def _seeded_blocks(seed: int) -> tuple[int, list[list[int]]]:
    """A point count and a block list for IncidenceStructure: random
    blocks of 0..4 points drawn from a range a little wider than the
    points, so that short blocks, repeated points, points out of range
    and repeated blocks all occur, alone and together."""
    rng = random.Random(seed)
    n = rng.randrange(8)
    blocks = [[rng.randrange(-1, n + 1) for _ in range(rng.choice((2, 2, 3, 3, 4, 0, 1)))]
              for _ in range(rng.randrange(6))]
    if blocks and rng.random() < 0.3:
        blocks.append(list(reversed(rng.choice(blocks))))
    return n, blocks


def _constructor_verdict(n: int, blocks) -> str | None:
    try:
        S = IncidenceStructure(n, blocks)
    except GeometryError as exc:
        return str(exc)
    assert S.blocks == tuple(sorted(tuple(sorted(b)) for b in blocks))
    return None


def test_constructor_rejections_match_the_per_block_loop():
    verdicts = [block_rejection_oracle(*_seeded_blocks(seed)) for seed in range(600)]
    assert [_constructor_verdict(*_seeded_blocks(seed)) for seed in range(600)] == verdicts
    # every branch is taken: acceptance and each of the four messages
    assert {re.sub(r"\(.*\)|-?\d+", "#", v or "accepted") for v in verdicts} == {
        "accepted", "block # has fewer than # points", "block # repeats a point",
        "block # out of range #..#", "duplicate block #"}


def test_validate_projective_plane(pg3):
    assert validate(pg3).is_linear_space
    assert Counter(map(len, pg3.blocks)) == {4: 13}
    assert Counter(map(len, pg3.point_blocks)) == {4: 13}


def test_validate_double_covered_pair():
    S = IncidenceStructure(4, [[0, 1, 2], [1, 2, 3]])
    report = validate(S)
    assert not report.is_partial_linear
    assert not report.is_linear_space
    assert {pair: c for pair, c in pair_coverage(S).items() if c > 1} == {(1, 2): 2}


def _flag_corpus(rng):
    """Structures for the validate-versus-oracle check: planes and their
    seeded punctures, and random small structures (isolated points and
    doubly covered pairs included)."""
    yield IncidenceStructure(0, [])
    yield IncidenceStructure(1, [])
    yield IncidenceStructure(2, [])
    yield IncidenceStructure(3, [[0, 1]])
    yield IncidenceStructure(3, [[0, 1], [0, 2], [1, 2]])
    yield IncidenceStructure(3, [[0, 1], [0, 1, 2]])
    for plane in [projective_plane(q) for q in (2, 3, 4, 5)] + [affine_plane(q) for q in (3, 4)]:
        yield plane
        for _ in range(8):
            yield puncture(plane, rng.sample(range(plane.num_points), rng.randint(1, 7)))
    for _ in range(150):
        n = rng.randrange(10)
        blocks = {tuple(sorted(rng.sample(range(n), rng.randint(2, min(n, 4)))))
                  for _ in range(rng.randrange(8) if n >= 2 else 0)}
        yield IncidenceStructure(n, blocks)


def test_validate_flags_match_pair_scan(h2, h3, h4):
    seen = set()
    for S in [h2, h3, h4, *_flag_corpus(random.Random(9))]:
        report = validate(S)
        flags = report.is_partial_linear, report.is_linear_space
        assert flags == linearity_oracle(S), S
        seen.add(flags)
    assert seen == {(True, True), (True, False), (False, False)}


def test_validate_hermitian_q3(h3):
    assert validate(h3).is_linear_space
    assert Counter(map(len, h3.point_blocks)) == {9: 28}
    assert Counter(map(len, h3.blocks)) == {4: 63}


def test_validate_unital_hermitian_q3(h3):
    assert validate_unital(h3) == 3


def test_validate_unital_ag3_is_order_2():
    assert validate_unital(affine_plane(3)) == 2


def test_validate_unital_rejects_pg3(pg3):
    assert validate_unital(pg3) is None


def test_validate_unital_rejects_ag2():
    assert validate_unital(affine_plane(2)) is None  # block size 2 forces q=1


def _unital_mutant(S, rng: random.Random) -> IncidenceStructure:
    """S after 0..3 seeded edits: remove a block, add a random block of
    2..q+2 points, shift one point of a block to another point, or
    relabel every point x as x + k (mod v), which keeps a unital."""
    v, size = S.num_points, len(S.blocks[0])
    blocks = {tuple(b) for b in S.blocks}
    for _ in range(rng.randrange(4)):
        op = rng.choice(("remove", "add", "shift", "relabel"))
        if op == "remove" and blocks:
            blocks.remove(rng.choice(sorted(blocks)))
        elif op == "add":
            blocks.add(tuple(sorted(rng.sample(range(v), rng.randint(2, size + 1)))))
        elif op == "shift" and blocks:
            block = rng.choice(sorted(blocks))
            x = rng.choice([p for p in range(v) if p not in block])
            moved = tuple(sorted(set(block) - {rng.choice(block)} | {x}))
            if moved not in blocks:
                blocks.remove(block)
                blocks.add(moved)
        elif op == "relabel":
            k = rng.randrange(1, v)
            blocks = {tuple(sorted((p + k) % v for p in b)) for b in blocks}
    return IncidenceStructure(v, blocks)


def test_validate_unital_matches_the_count_checking_oracle(h2, h3, h4):
    # the block count and point degree follow from linearity, so dropping
    # their tests changes no verdict
    for S, q in [(h2, 2), (h3, 3), (h4, 4), (hermitian_unital(5), 5),
                 (buekenhout_metz_unital(4), 3)]:
        assert validate_unital(S) == validate_unital_oracle(S) == q
    rng = random.Random(2024)
    verdicts = Counter()
    for S in [h2, h3] * 1200:
        mutant = _unital_mutant(S, rng)
        verdict = validate_unital(mutant)
        assert verdict == validate_unital_oracle(mutant), mutant.blocks
        verdicts[verdict] += 1
    assert verdicts.keys() == {None, 2, 3}


# --- planes ---

@pytest.mark.parametrize("q, n", [(2, 7), (3, 13), (4, 21), (5, 31)])
def test_projective_plane_counts(q, n):
    P = projective_plane(q)
    assert P.num_points == n and len(P.blocks) == n
    assert all(len(b) == q + 1 for b in P.blocks)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_projective_plane_axioms_exhaustive(q):
    P = projective_plane(q)
    sets = block_sets(P)
    for a, b in combinations(range(P.num_points), 2):
        assert sum(1 for s in sets if a in s and b in s) == 1
    for i, j in combinations(range(len(P.blocks)), 2):
        assert len(sets[i] & sets[j]) == 1


def _field_id(q):
    p, e = prime_power(q)
    return f"GF({q})" if e == 1 else f"GF({q})=GF({p}^{e})"


# the plane fields GF(q), then the unital fields GF(q^2) for q = 2, 3, 4
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9] + [q * q for q in (2, 3, 4)], ids=_field_id)
def test_pg_lines_match_incidence_test(q):
    field = field_create(q)
    assert _pg_data(field) == pg_data_oracle(field)


def test_projective_plane_rejects_non_prime_power():
    with pytest.raises(GeometryError, match="^6 is not a prime power$"):
        projective_plane(6)


@pytest.mark.parametrize("q, points, lines, size", [(2, 4, 6, 2), (3, 9, 12, 3)])
def test_affine_plane_counts(q, points, lines, size):
    A = affine_plane(q)
    assert A.num_points == points and len(A.blocks) == lines
    assert Counter(map(len, A.blocks)) == {size: lines}
    assert validate(A).is_linear_space


# --- puncture ---

def test_puncture_full_line(pg3):
    A = puncture(pg3, pg3.blocks[0])
    assert A.num_points == 9 and len(A.blocks) == 12


def test_puncture_line_swap(pg3):
    w = pg3.blocks[0]
    u = w[0]
    v = next(p for p in range(13) if p not in w)
    D = puncture(pg3, (set(w) - {u}) | {v})
    assert D.num_points == 9 and len(D.blocks) == 12


def test_puncture_conic(pg3):
    D = puncture(pg3, conic_points(3))
    assert D.num_points == 9 and len(D.blocks) == 13
    assert Counter(map(len, D.blocks)) == {2: 6, 3: 4, 4: 3}


def test_conic_points_refuses_a_huge_q_before_factoring_it(monkeypatch):
    def factor(n):
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr("unitals.incidence.prime_power", factor)
    monkeypatch.setattr("unitals.algebra.prime_power", factor)
    with pytest.raises(ValueError, match="^conic_points supports q <= 25$"):
        conic_points(2**61 - 1)


def test_conic_has_no_three_collinear(pg3):
    conic = set(conic_points(3))
    assert len(conic) == 4
    assert all(len(conic & s) <= 2 for s in block_sets(pg3))


def test_puncture_records_original_labels(pg3):
    D = puncture(pg3, {0, 1})
    assert D.labels == pg3.labels[2:]


def test_puncture_keeps_pairs_single_covered(pg4):
    for cut in [set(pg4.blocks[0]), set(conic_points(4)), {0, 5, 7, 11, 20}]:
        D = puncture(pg4, cut)
        assert validate(D).is_partial_linear
        assert all(len(b) >= 2 for b in D.blocks)


@given(st.sets(st.integers(0, 12), max_size=10))
@settings(max_examples=80, deadline=None)
def test_puncture_of_linear_space_stays_single_covered(cut):
    D = puncture(projective_plane(3), cut)
    assert all(len(b) >= 2 for b in D.blocks)
    assert validate(D).is_partial_linear


def test_puncture_rejects_bad_point_set(pg3):
    with pytest.raises(GeometryError, match=r"^deleted set not within 0\.\.12$"):
        puncture(pg3, {0, 99})


# --- hermitian unitals ---

@pytest.mark.parametrize("q, points, blocks", [(2, 9, 12), (3, 28, 63), (4, 65, 208)])
def test_hermitian_parameters(q, points, blocks, h2, h3, h4):
    H = {2: h2, 3: h3, 4: h4}[q]
    assert H.num_points == points and len(H.blocks) == blocks
    assert validate_unital(H) == q


def test_hermitian_q5_stretch():
    H = hermitian_unital(5)
    assert validate_unital(H) == 5
    assert (H.num_points, len(H.blocks)) == (126, 525)


def test_hermitian_q2_is_affine_plane_of_order_3(h2):
    assert isomorphic(h2, affine_plane(3)) is not None


def test_hermitian_rejects_non_prime_power():
    with pytest.raises(GeometryError, match="^6 is not a prime power$"):
        hermitian_unital(6)


def test_hermitian_refuses_a_prime_power_above_its_cap():
    with pytest.raises(ValueError, match="^hermitian_unital supports q <= 5$"):
        hermitian_unital(7)


# --- pencils and near pencils ---

def test_pencil_sizes(h3):
    assert all(len(h3.point_blocks[p]) == 9 for p in range(h3.num_points))
    A = affine_plane(3)
    assert all(len(A.point_blocks[p]) == 4 for p in range(9))


def test_pencil_of_unused_point():
    S = IncidenceStructure(5, [[0, 1], [1, 2]])
    assert S.point_blocks[4] == () and S.pencil_masks[4] == 0


def _non_incident_pair(S):
    for L, block in enumerate(S.blocks):
        for p in range(S.num_points):
            if p not in block:
                return p, L
    raise AssertionError


@pytest.mark.parametrize("qq", [3, 4])
def test_near_pencil_size_in_unital(qq, h3, h4):
    H = h3 if qq == 3 else h4
    p, L = _non_incident_pair(H)
    blocks = near_pencil(H, p, L)
    assert len(blocks) == qq + 2
    sets = block_sets(H)
    for i, j in combinations(blocks, 2):
        assert sets[i] & sets[j]


def test_near_pencil_in_affine_plane():
    A = affine_plane(3)
    p, L = _non_incident_pair(A)
    assert len(near_pencil(A, p, L)) == 4  # |L| + 1


def test_near_pencil_rejects_incident_pair(h3):
    L = 0
    p = h3.blocks[0][0]
    with pytest.raises(ValueError):
        near_pencil(h3, p, L)


# --- configuration search ---

def _onan_oracle(S):
    """Unpruned quadruple loop over all 4-subsets of blocks."""
    hits = []
    sets = block_sets(S)
    for quad in combinations(range(len(S.blocks)), 4):
        meets = []
        ok = True
        for i, j in combinations(quad, 2):
            common = sets[i] & sets[j]
            if len(common) != 1:
                ok = False
                break
            meets.append(next(iter(common)))
        if ok and len(set(meets)) == 6:
            hits.append(quad)
    return hits


def test_onan_hermitian_empty(h3, h2):
    assert find_onan(h3) == []
    assert find_onan(h2) == []


def _seeded_puncture(q, size, seed):
    plane = projective_plane(q)
    return puncture(plane, random.Random(seed).sample(range(plane.num_points), size))


# partial linear spaces: all but pg2 have non-meeting blocks, all but ag3 hits
_ONAN_INPUTS = {
    "pg2": (lambda: projective_plane(2), 7),
    "ag3": (lambda: affine_plane(3), 0),
    "ag4": (lambda: affine_plane(4), 240),
    "pg3-conic": (lambda: puncture(projective_plane(3), conic_points(3)), 11),
    "pg4-conic": (lambda: puncture(projective_plane(4), conic_points(4)), 375),
    "pg3-seed1": (lambda: _seeded_puncture(3, 3, 1), None),
    "pg4-seed2": (lambda: _seeded_puncture(4, 4, 2), None),
    "pg5-seed3": (lambda: _seeded_puncture(5, 5, 3), None),
}


@pytest.mark.parametrize("name", _ONAN_INPUTS)
def test_onan_matches_oracle(name):
    build, count = _ONAN_INPUTS[name]
    S = build()
    found = find_onan(S)
    assert [c.blocks for c in found] == _onan_oracle(S)
    if count is not None:
        assert len(found) == count
    for k in (1, 5, 37):
        assert find_onan(S, limit=k) == found[:k]


@pytest.mark.parametrize("name", _ONAN_INPUTS)
def test_count_onan_is_the_length_of_find_onan(name):
    S = _ONAN_INPUTS[name][0]()
    for k in (0, 1, 5, 37, 10**6):
        assert count_onan(S, k) == len(find_onan(S, k))


def test_count_onan_builds_no_configuration(monkeypatch):
    S = puncture(projective_plane(4), conic_points(4))

    def refuse(*args):
        raise AssertionError("count_onan built a configuration")

    monkeypatch.setattr("unitals.incidence.OnanConfiguration", refuse)
    assert count_onan(S) == 375
    assert count_onan(S, limit=37) == 37


def test_count_onan_rejects_what_find_onan_rejects():
    with pytest.raises(ValueError):
        count_onan(projective_plane(2), limit=-1)
    with pytest.raises(ValueError):
        count_onan(IncidenceStructure(4, [[0, 1, 2], [1, 2, 3]]))


def test_onan_oracle_agreement_on_h2(h2):
    assert [c.blocks for c in find_onan(h2)] == _onan_oracle(h2)


def test_onan_respects_limit():
    P = projective_plane(2)
    assert len(find_onan(P, limit=3)) == 3
    with pytest.raises(ValueError):
        find_onan(P, limit=-1)


def test_onan_finds_the_configuration_itself():
    # the six meets of four lines in general position, named by the two
    # lines through each: 01 02 03 12 13 23; line i holds the meets on it
    S = IncidenceStructure(6, [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]])
    assert find_onan(S) == [OnanConfiguration((0, 1, 2, 3), (0, 1, 2, 3, 4, 5))]


def test_onan_configuration_shape():
    P = projective_plane(2)
    cfg = find_onan(P, limit=1)[0]
    sets = block_sets(P)
    for point in cfg.points:
        assert sum(1 for b in cfg.blocks if point in sets[b]) == 2
    for b in cfg.blocks:
        assert len(sets[b] & set(cfg.points)) == 3


def test_onan_rejects_non_partial_linear():
    S = IncidenceStructure(4, [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(ValueError):
        find_onan(S)


# --- incidence-v1 JSON ---

def test_json_round_trip(h3, tmp_path):
    from unitals.incidence import format_json, read_json
    path = tmp_path / "h3.json"
    path.write_text(format_json(h3), encoding="utf-8")
    back = read_json(path)
    assert back.blocks == h3.blocks
    assert back.num_points == h3.num_points
    assert back.labels == h3.labels
    # byte-identical when rewritten
    path2 = tmp_path / "again.json"
    path2.write_text(format_json(back), encoding="utf-8")
    assert path.read_bytes() == path2.read_bytes()


# each change to the AG(2,2) dict with the reader's message
_JSON_REJECTIONS = {
    (lambda d: d.update(format="incidence-v2")):
        'missing or wrong "format" key (want "incidence-v1")',
    (lambda d: d.pop("format")):
        'missing or wrong "format" key (want "incidence-v1")',
    (lambda d: d.update(num_points="nine")):
        '"num_points" must be a non-negative integer',
    # not increasing
    (lambda d: d["blocks"].__setitem__(0, [2, 1])): "block [2, 1] is not strictly increasing",
    # out of range
    (lambda d: d["blocks"].__setitem__(0, [0, 99])): "block [0, 99] out of range",
    # outer order broken
    (lambda d: d["blocks"].sort(reverse=True)):
        "blocks are not sorted lexicographically without duplicates",
    # duplicate
    (lambda d: d["blocks"].append(d["blocks"][-1])):
        "blocks are not sorted lexicographically without duplicates",
    # wrong label count
    (lambda d: d.update(labels=["x"])):
        '"labels" must be an array of strings of length num_points',
    # bool count
    (lambda d: (d.update(num_points=True, blocks=[]), d.pop("labels"))):
        '"num_points" must be a non-negative integer',
    # bool points
    (lambda d: d["blocks"].__setitem__(0, [False, True])):
        "block [False, True] is not an array of integers",
    # a bool inside an otherwise valid block
    (lambda d: d["blocks"].__setitem__(1, [0, True])):
        "block [0, True] is not an array of integers",
    # a negative point
    (lambda d: d["blocks"].__setitem__(1, [-1, 2])):
        "block [-1, 2] out of range",
    # a float point
    (lambda d: d["blocks"].__setitem__(1, [0, 1.0])):
        "block [0, 1.0] is not an array of integers",
    # a nested list
    (lambda d: d["blocks"].__setitem__(1, [0, [2]])):
        "block [0, [2]] is not an array of integers",
    # a block that is not a list
    (lambda d: d["blocks"].__setitem__(1, "02")):
        "block '02' is not an array of integers",
    # an empty block passes the reader and fails the constructor
    (lambda d: d["blocks"].insert(0, [])):
        "block () has fewer than 2 points",
    # a repeated point
    (lambda d: d["blocks"].__setitem__(1, [0, 0])):
        "block [0, 0] is not strictly increasing",
    # a repeated block inside the list
    (lambda d: d["blocks"].insert(2, [0, 2])):
        "blocks are not sorted lexicographically without duplicates",
    # two blocks swapped
    (lambda d: d["blocks"].insert(0, d["blocks"].pop(1))):
        "blocks are not sorted lexicographically without duplicates",
    # the first faulty block is named, whatever follows it
    (lambda d: d["blocks"].__setitem__(slice(1, 3), [[0, 9], "x"])):
        "block [0, 9] out of range",
    # blocks given as an object
    (lambda d: d.update(blocks={})): '"blocks" must be an array',
    # more points than the cap, refused before anything is built per point
    (lambda d: d.update(num_points=10**18)): f"point count {10**18} exceeds {MAX_POINTS}",
    (lambda d: d.update(num_points=MAX_POINTS + 1)):
        f"point count {MAX_POINTS + 1} exceeds {MAX_POINTS}",
}


@pytest.mark.parametrize("mangle", _JSON_REJECTIONS)
def test_json_reader_rejects_violations(mangle):
    good = to_json_dict(affine_plane(2))
    mangle(good)
    with pytest.raises(GeometryError, match=f"^{re.escape(_JSON_REJECTIONS[mangle])}$"):
        from_json_dict(good)


def _mutated_blocks(seed: int) -> tuple[int, list]:
    """A point count and the blocks of a random valid structure after 0..2
    seeded mutations: bools, floats and nested lists as points, non-list
    and empty blocks, unsorted and out-of-range blocks, repeated and
    swapped blocks; two mutations can put a bad block before a worse one."""
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    blocks = sorted({tuple(sorted(rng.sample(range(n), rng.randrange(2, n + 1))))
                     for _ in range(rng.randrange(1, 7))})
    blocks = [list(b) for b in blocks]
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(blocks))
        block = blocks[i]
        kind = rng.randrange(9)
        if kind in (0, 1, 2, 5, 6, 7) and not (isinstance(block, list) and block):
            continue  # these mutations need a block of points
        if kind == 0:
            block[rng.randrange(len(block))] = rng.choice((True, False))
        elif kind == 1:
            block[rng.randrange(len(block))] = float(rng.randrange(n))
        elif kind == 2:
            block[rng.randrange(len(block))] = [rng.randrange(n)]
        elif kind == 3:
            blocks[i] = rng.choice(("01", 3, None, {"0": 1}, (0, 1)))
        elif kind == 4:
            blocks[i] = rng.choice(([], [rng.randrange(n)]))
        elif kind == 5:
            block.reverse()
        elif kind == 6:
            block[rng.choice((0, -1))] = rng.choice((-1, n, n + 5))
        elif kind == 7:
            blocks.insert(i, list(block))
        elif kind == 8 and i + 1 < len(blocks):
            blocks[i], blocks[i + 1] = blocks[i + 1], block
    return n, blocks


def _reader_verdict(n: int, blocks) -> str | None:
    try:
        from_json_dict({"format": "incidence-v1", "num_points": n, "blocks": blocks})
    except GeometryError as exc:
        return str(exc)
    return None


def test_json_reader_rejections_match_the_per_block_walk():
    verdicts = [json_rejection_oracle(*_mutated_blocks(seed)) for seed in range(1500)]
    assert [_reader_verdict(*_mutated_blocks(seed)) for seed in range(1500)] == verdicts
    # every branch is taken: acceptance and each of the reader's and the
    # constructor's block messages
    assert {re.sub(r"\[.*\]|\(.*\)|'.*'|-?\d+|None|\{.*\}", "#", v or "accepted")
            for v in verdicts} == {
        "accepted", "block # is not an array of integers", "block # is not strictly increasing",
        "block # out of range", "blocks are not sorted lexicographically without duplicates",
        "block # has fewer than # points"}


_AWKWARD_LABELS = ['"', "\\", "\n", "\t\x00\x7f", "é", "☃", "😀", "\ud800", "", "a b"]


def _seeded_structure(seed: int) -> IncidenceStructure:
    """A random structure of 0..9 points with distinct random blocks, and
    labels drawn from quotes, backslashes, control and non-ASCII text, or
    none; with zero points or zero blocks now and then."""
    rng = random.Random(seed)
    n = rng.randrange(10)
    blocks = {tuple(sorted(rng.sample(range(n), rng.randrange(2, n + 1))))
              for _ in range(rng.randrange(8) if n >= 2 else 0)}
    labels = None
    if rng.random() < 0.7:
        labels = ["".join(rng.choices(_AWKWARD_LABELS, k=rng.randrange(4))) for _ in range(n)]
    return IncidenceStructure(n, blocks, labels=labels)


def test_format_json_matches_stdlib_encoder():
    structures = [_seeded_structure(seed) for seed in range(300)]
    structures += [IncidenceStructure(0, []), IncidenceStructure(0, [], labels=[]),
                   IncidenceStructure(3, []), IncidenceStructure(2, [[0, 1]], ["", ""]),
                   affine_plane(3), hermitian_unital(3)]
    assert any(not S.blocks and S.num_points for S in structures)
    for S in structures:
        assert format_json(S) == format_json_oracle(S)


@pytest.mark.parametrize("value", [
    {},
    [],
    None,
    -7,
    "é\n",
    [[]],
    [[1, 2], []],
    {"é": ["☃", 1, None, [], {}, ["x", 2], [[3]]], "k": "\"\\\t😀"},
    {"embedding": {"host": {"blocks": [[0, 1]]}, "deleted": [4, 5]}, "thin_point": None},
])
def test_json_writer_matches_stdlib_on_mixed_values(value):
    assert _json_text(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("value", [True, 1.0, (1, 2), [0, False], {1: 2}, {"a": {3}}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_json_reader_accepts_the_point_cap():
    data = {"format": "incidence-v1", "num_points": MAX_POINTS, "blocks": [[0, MAX_POINTS - 1]]}
    assert from_json_dict(data).num_points == MAX_POINTS


def test_json_reader_rejects_short_block():
    data = {"format": "incidence-v1", "num_points": 3, "blocks": [[1]]}
    with pytest.raises(GeometryError, match=r"^block \(1,\) has fewer than 2 points$"):
        from_json_dict(data)
