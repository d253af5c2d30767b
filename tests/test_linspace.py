"""Linear-space classification, completions, embeddings, 4-point special case."""

import random
from collections import Counter

import pytest
from support import (
    block_sets,
    deleted_pencils,
    fano_quadrangle,
    full_pencils_set,
    hall_plane,
    linearity_oracle,
    one_point_swaps,
    q2_special_classify,
    thin_point_set,
    witness_mutants,
    witness_oracle,
)

from unitals.errors import GeometryError, VerificationFailed
from unitals.incidence import (
    IncidenceStructure,
    affine_plane,
    conic_points,
    projective_plane,
    puncture,
    validate,
)
from unitals.linspace import (
    _partitions,
    check_assumptions,
    classify,
    complete_to_plane,
    embedding_errors,
    projective_lines,
    thin_points,
)
from unitals.reconstruct import isomorphic


def line_deleted(pg):
    return puncture(pg, pg.blocks[0])


def line_swapped(pg):
    w = pg.blocks[0]
    u = w[0]
    v = next(p for p in range(pg.num_points) if p not in w)
    return puncture(pg, (set(w) - {u}) | {v})


def conic_deleted(pg, q):
    return puncture(pg, conic_points(q))


# --- assumptions ---

def test_assumptions_pass_on_affine_plane():
    assert check_assumptions(affine_plane(3), 3) == ()


def test_assumptions_pass_on_conic_puncture(pg3):
    assert check_assumptions(conic_deleted(pg3, 3), 3) == ()


def test_assumptions_fail_on_projective_plane(pg3):
    violations = check_assumptions(pg3, 3)
    assert any("point count" in v for v in violations)


@pytest.mark.parametrize("q, n, blocks, violation", [
    (3, 9, [[0, x] for x in range(1, 6)], "pencil of point 0 has 5 > q+1 lines"),
    (2, 4, [[0, 1, 2, 3]], "line 0 has 4 > q+1 points"),
], ids=["pencil", "line"])
def test_assumptions_name_an_oversized_pencil_or_line(q, n, blocks, violation):
    assert check_assumptions(IncidenceStructure(n, blocks), q) == (violation,)


# --- projective lines and thin points ---

def test_no_projective_lines_in_affine_plane():
    assert projective_lines(affine_plane(3), 3) == ()


def test_projective_lines_of_conic_puncture(pg3):
    D = conic_deleted(pg3, 3)
    full = projective_lines(D, 3)
    assert len(full) == 3  # external lines of the conic survive whole
    assert all(len(D.blocks[i]) == 4 for i in full)


def test_projective_lines_of_line_swap(pg3):
    D = line_swapped(pg3)
    u = thin_points(D, 3)[0]
    full = projective_lines(D, 3)
    assert len(full) == 2  # the lines through u other than the short one
    assert all(u in block_sets(D)[i] for i in full)


def test_thin_points_empty_for_affine_and_conic(pg3):
    assert thin_points(affine_plane(3), 3) == []
    assert thin_points(conic_deleted(pg3, 3), 3) == []


def test_thin_point_of_line_swap(pg3):
    D = line_swapped(pg3)
    thin = thin_points(D, 3)
    assert len(thin) == 1
    u = thin[0]
    through = D.point_blocks[u]
    assert len(through) == 3
    assert sorted(len(D.blocks[i]) for i in through) == [3, 4, 4]


# --- classification ---

def test_classify_line_deleted_is_affine(pg3):
    result = classify(line_deleted(pg3), 3)
    assert result.case == "affine_plane" and result.line_count == 12
    assert result.projective_lines == ()


def test_classify_line_swap_is_thin_point(pg3):
    result = classify(line_swapped(pg3), 3)
    assert result.case == "thin_point" and result.line_count == 12
    assert result.thin_point is not None
    assert len(result.embedding.deleted) == 4


def test_classify_conic_puncture_is_full_pencils(pg3):
    result = classify(conic_deleted(pg3, 3), 3)
    assert result.case == "full_pencils" and result.line_count == 13
    assert len(result.projective_lines) == 3


def test_classify_rejects_small_q():
    with pytest.raises(GeometryError, match=r"^classification requires q >= 3$"):
        classify(affine_plane(2), 2)


def test_classify_rejects_assumption_violations(pg3):
    with pytest.raises(VerificationFailed, match=r"^point count 13 != q\^2 = 9$"):
        classify(pg3, 3)


def test_classify_without_embedding(pg4):
    result = classify(conic_deleted(pg4, 4), 4, embed=False)
    assert result.case == "full_pencils" and result.embedding is None


# --- completions ---

def test_complete_affine_ag3_hosts_pg3(pg3):
    w = complete_to_plane(affine_plane(3), 3)
    assert len(w.deleted) == 4
    assert embedding_errors(affine_plane(3), w, 3) == []
    assert isomorphic(w.host, pg3) is not None


def test_complete_affine_ag2_hosts_fano():
    w = complete_to_plane(affine_plane(2), 2)
    assert isomorphic(w.host, projective_plane(2)) is not None


def test_complete_affine_rejects_non_affine(pg3):
    # no two lines of a projective plane are disjoint
    with pytest.raises(VerificationFailed, match="^0 partitions into lines, expected 4$"):
        complete_to_plane(pg3, 3)


def test_complete_thin_point_roundtrip(pg3):
    D = line_swapped(pg3)
    u = thin_points(D, 3)[0]
    w = complete_to_plane(D, 3)
    assert len(w.deleted) == 4
    assert embedding_errors(D, w, 3) == []
    assert isomorphic(w.host, pg3) is not None
    assert w.point_map[u] in block_sets(w.host)[_host_line_of(D, w, D.point_blocks[u][0])]


def _host_line_of(D, w, line_index):
    img = {w.point_map[x] for x in D.blocks[line_index]}
    hosts = [j for j, hb in enumerate(block_sets(w.host)) if img <= hb]
    assert len(hosts) == 1
    return hosts[0]


def test_thin_point_line_size_profile(pg3):
    """Sizes forced by the host: the short line has q points, other
    lines through u have q+1, other lines through the deleted point v on
    the short line's host line have q-1, and everything else has q."""
    D = line_swapped(pg3)
    q = 3
    u = thin_points(D, q)[0]
    w = complete_to_plane(D, q)
    host_u = w.point_map[u]
    short = next(i for i in D.point_blocks[u] if len(D.blocks[i]) == q)
    (v,) = block_sets(w.host)[_host_line_of(D, w, short)] & set(w.deleted)
    through_u, through_v, elsewhere = [], [], []
    for i, block in enumerate(D.blocks):
        hline = block_sets(w.host)[_host_line_of(D, w, i)]
        if host_u in hline and v in hline:
            assert len(block) == q  # the line joining u and the rebuilt point
        elif host_u in hline:
            through_u.append(len(block))
        elif v in hline:
            through_v.append(len(block))
        else:
            elsewhere.append(len(block))
    assert through_u == [q + 1] * (q - 1)
    assert through_v == [q - 1] * q
    assert elsewhere == [q] * (len(D.blocks) - 2 * q)


def test_complete_thin_point_rejects_one_point_swaps(pg3):
    # every one-point swap of the line-swapped PG(2,3) puncture that keeps
    # u as the thin point: none embeds, and each fails the partition count
    # or the host check
    E = line_swapped(pg3)
    u = thin_points(E, 3)[0]
    reasons = Counter()
    for D in one_point_swaps(E):
        try:
            if thin_points(D, 3) != [u]:
                continue
        except VerificationFailed:
            continue
        with pytest.raises(VerificationFailed, match=r"^(\d+ partitions into lines, expected 4|"
                                                    r"the rebuilt host is not a projective "
                                                    r"plane of order q)$") as info:
            complete_to_plane(D, 3)
        reasons[str(info.value).split(", expected")[0].split(" ", 1)[1]] += 1
    assert sum(reasons.values()) == 264
    assert reasons == {"partitions into lines": 228,
                       "rebuilt host is not a projective plane of order q": 36}


def test_complete_thin_point_rejects_two_partitions_off_the_short_line():
    # two point swaps away from the line-swapped PG(2,3) puncture: u = 0
    # keeps its pencil shape, but the lines missing S = {0, 3, 6} cover
    # the other points in two ways, so no deleted point v can exist. With
    # two partitions of D - u the count still comes to q+1 = 4, and the
    # host check rejects the plane they build
    D = IncidenceStructure(9, [[0, 3, 4, 5], [0, 3, 6], [0, 6, 7, 8], [1, 2], [1, 3, 8],
                               [1, 4, 7], [1, 5, 6], [2, 3, 7], [2, 4, 6], [2, 5, 8],
                               [4, 8], [5, 7]])
    assert thin_points(D, 3) == [0]
    assert (len(_partitions(D)), len(_partitions(D, 1, ~D.pencil_masks[0]))) == (2, 2)
    with pytest.raises(VerificationFailed,
                       match="^the rebuilt host is not a projective plane of order q$"):
        complete_to_plane(D, 3)


@pytest.mark.parametrize("make, outcomes", [
    (line_deleted, {"partitions into lines": 216,
                    "rebuilt host is not a projective plane of order q": 108}),
    (line_swapped, {"partitions into lines": 228,
                    "rebuilt host is not a projective plane of order q": 36,
                    "thin point line sizes": 36}),
    (lambda pg: conic_deleted(pg, 3), {"partitions into lines": 270,
                                       "rebuilt host is not a projective plane of order q": 39,
                                       "witness": 3}),
], ids=["line", "line-swap", "conic"])
def test_complete_to_plane_on_one_point_swaps(make, outcomes, pg3):
    # every one-point swap of a PG(2,3) puncture keeps the line and pencil
    # sizes; a witness comes back exactly for the swaps that the pair scan
    # calls linear, and the verifier accepts it; a rejection is told by
    # its message: the thin-point lemma, the partition count or the host
    seen = Counter()
    for D in one_point_swaps(make(pg3)):
        try:
            w = complete_to_plane(D, 3)
        except VerificationFailed as e:
            if str(e).startswith("thin point "):
                seen["thin point line sizes"] += 1
            else:
                seen[str(e).split(", expected")[0].split(" ", 1)[-1]] += 1
            assert not linearity_oracle(D)[1]
            continue
        seen["witness"] += 1
        assert linearity_oracle(D)[1]
        assert embedding_errors(D, w, 3) == []
    assert seen == outcomes


@pytest.mark.parametrize("q", [3, 4])
def test_all_three_deletions_roundtrip(q, pg3, pg4):
    pg = pg3 if q == 3 else pg4
    for D in (line_deleted(pg), line_swapped(pg), conic_deleted(pg, q)):
        result = classify(D, q)
        w = result.embedding
        assert embedding_errors(D, w, q) == []
        assert len(w.deleted) == q + 1
        assert isomorphic(w.host, pg) is not None


def test_embed_full_pencils_conic_roundtrip(pg3):
    D = conic_deleted(pg3, 3)
    w = complete_to_plane(D, 3)
    assert embedding_errors(D, w, 3) == []
    deleted = set(w.deleted)
    assert len(deleted) == 4
    # no 3 deleted points collinear, every deleted point has a size-q tangent
    for hb in block_sets(w.host):
        assert len(hb & deleted) <= 2
    short = [i for i, b in enumerate(D.blocks) if len(b) == 3]
    for y in deleted:
        assert any(y in block_sets(w.host)[_host_line_of(D, w, i)] for i in short)


def test_embed_full_pencils_arc_roundtrip_q4(pg4):
    D = conic_deleted(pg4, 4)
    w = complete_to_plane(D, 4)
    assert embedding_errors(D, w, 4) == []
    assert len(w.deleted) == 5
    for hb in block_sets(w.host):
        assert len(hb & set(w.deleted)) <= 3


def test_embed_full_pencils_exhausts_on_a_non_linear_space(pg3):
    # swap one point between the first two blocks of PG(2,3) minus its
    # conic: 9 points, 13 blocks and every pencil of size 4 survive, but
    # the result is no longer a linear space, so no embedding exists
    E = conic_deleted(pg3, 3)
    A, B = map(set, E.blocks[:2])
    x, y = min(A - B), min(B - A)
    D = IncidenceStructure(9, [A - {x} | {y}, B - {y} | {x}, *E.blocks[2:]])
    assert (len(D.blocks), {len(t) for t in D.point_blocks}) == (13, {4})
    assert not validate(D).is_linear_space
    with pytest.raises(VerificationFailed, match="^1 partitions into lines, expected 4$"):
        complete_to_plane(D, 3)


def test_embed_full_pencils_rejects_a_host_that_is_not_a_plane(pg3):
    # swap points 1 and 7 between blocks 0 and 3 of PG(2,3) minus its
    # conic: the result keeps q+1 = 4 partitions into lines, but the host
    # they build is not a linear space
    E = conic_deleted(pg3, 3)
    A, B = set(E.blocks[0]), set(E.blocks[3])
    assert 1 in A - B and 7 in B - A
    rest = [b for i, b in enumerate(E.blocks) if i not in (0, 3)]
    D = IncidenceStructure(9, [A - {1} | {7}, B - {7} | {1}, *rest])
    assert (len(D.blocks), {len(t) for t in D.point_blocks}) == (13, {4})
    assert len(_partitions(D)) == 4
    with pytest.raises(VerificationFailed,
                       match="^the rebuilt host is not a projective plane of order q$"):
        complete_to_plane(D, 3)


def _assert_rebuilds(plane, cut, q, case="full_pencils"):
    """classify embeds the puncture of plane at cut with a clean witness
    whose host is plane itself, up to the names of the deleted points."""
    D = puncture(plane, cut)
    result = classify(D, q, embed=True)
    assert result.case == case
    w = result.embedding
    assert embedding_errors(D, w, q) == []
    assert w.point_map == tuple(range(q * q))
    assert w.deleted == tuple(range(q * q, q * q + q + 1))
    gone = set(cut)
    survivors = [p for p in range(plane.num_points) if p not in gone]
    assert (deleted_pencils(plane.blocks, cut, {p: i for i, p in enumerate(survivors)})
            == deleted_pencils(w.host.blocks, w.deleted, range(q * q)))
    return result


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_classify_embeds_conic_punctures_beyond_q4(q):
    _assert_rebuilds(projective_plane(q), conic_points(q), q)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_classify_embeds_seeded_full_pencils_sets(q):
    plane = projective_plane(q)
    rng = random.Random(f"full-pencils:{q}")
    for _ in range(40 if q <= 5 else 15):
        _assert_rebuilds(plane, full_pencils_set(plane, q, rng), q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_partitions_of_an_affine_plane_are_its_parallel_classes(q):
    # reference: each line with the lines disjoint from it, from the block
    # sets, in the order of their lowest line
    A = affine_plane(q)
    lines = block_sets(A)
    classes = []
    for i, line in enumerate(lines):
        if not any(i in cls for cls in classes):
            classes.append(tuple(j for j, other in enumerate(lines)
                                 if j == i or not line & other))
    assert len(classes) == q + 1
    assert _partitions(A) == classes


def test_hall_plane_is_a_non_desarguesian_plane_of_order_9():
    hall = hall_plane()
    assert (hall.num_points, len(hall.blocks)) == (91, 91)
    assert {len(b) for b in hall.blocks} == {10} and validate(hall).is_linear_space
    # a quadrangle with collinear diagonal points spans a Fano subplane
    # (H. Neumann 1955); PG(2,9) is point-transitive and has none through 0
    assert fano_quadrangle(hall) is not None
    assert fano_quadrangle(projective_plane(9)) is None


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_classify_embeds_seeded_thin_point_sets(q):
    plane = projective_plane(q)
    rng = random.Random(f"thin-point:{q}")
    for _ in range(40 if q <= 5 else 15):
        cut, u = thin_point_set(plane, rng)
        result = _assert_rebuilds(plane, cut, q, "thin_point")
        assert result.thin_point == u - sum(p < u for p in cut)


def test_hall_plane_punctures_embed_in_the_hall_plane():
    hall = hall_plane()
    rng = random.Random("hall")
    for _ in range(20):
        _assert_rebuilds(hall, full_pencils_set(hall, 9, rng), 9)
    for _ in range(20):
        _assert_rebuilds(hall, thin_point_set(hall, rng)[0], 9, "thin_point")


# --- the independent witness verifier ---

def test_verifier_flags_tampered_witnesses(pg3):
    D = conic_deleted(pg3, 3)
    w = complete_to_plane(D, 3)
    broken = type(w)(host=w.host,
                     point_map=(w.point_map[1], w.point_map[0]) + w.point_map[2:],
                     deleted=w.deleted)
    assert embedding_errors(D, broken, 3)
    broken2 = type(w)(host=w.host, point_map=w.point_map, deleted=w.deleted[:-1])
    assert embedding_errors(D, broken2, 3)


# AG(2,2) in the Fano plane: complete_to_plane maps it by the identity,
# deletes (4, 5, 6), and host line 0 is (0, 1, 4)
@pytest.mark.parametrize("point_map, deleted, problems", [
    ((0, 1, 2), (4, 5, 6), ["point_map length differs from point count"]),
    ((0, 1, 2, 7), (4, 5, 6), ["point_map leaves the host point range"]),
    ((1, 1, 2, 3), (4, 5, 6), ["point_map is not injective",
                               "line 0 maps into 3 host lines, want exactly 1",
                               "two lines map into the same host line",
                               "deleted set is not the complement of the image"]),
    ((0, 1, 4, 2), (3, 5, 6), ["two lines map into the same host line"]),
    ((0, 1, 2, 3), (0, 4, 5), ["deleted set is not the complement of the image"]),
    ((0, 1, 2, 3), (4, 5), ["deleted set is not the complement of the image",
                            "deleted set has 2 points, want q+1 = 3"]),
], ids=["short-map", "outside-host", "not-injective", "collinear-lines",
        "not-complement", "short-deleted"])
def test_verifier_names_each_rejection(point_map, deleted, problems):
    D = affine_plane(2)
    w = complete_to_plane(D, 2)
    assert (w.point_map, w.deleted, w.host.blocks[0]) == ((0, 1, 2, 3), (4, 5, 6), (0, 1, 4))
    assert embedding_errors(D, w._replace(point_map=point_map, deleted=deleted), 2) == problems


@pytest.mark.parametrize("q, rejected", [(3, 3 * (36 + 4)), (4, 3 * (120 + 5))])
def test_verifier_rejects_exactly_the_witness_mutants_the_oracle_rejects(q, rejected, pg3, pg4):
    # every point-map transposition and every dropped deleted point of the
    # three witnesses, judged by the set-based oracle and by the verifier:
    # the punctures have no automorphism that swaps two points and fixes
    # the rest, so the oracle rejects every mutant
    pg = pg3 if q == 3 else pg4
    seen = 0
    for D in (line_deleted(pg), line_swapped(pg), conic_deleted(pg, q)):
        w = classify(D, q).embedding
        assert witness_oracle(D, w, q)
        for mutant in witness_mutants(w):
            bad = not witness_oracle(D, mutant, q)
            assert bool(embedding_errors(D, mutant, q)) == bad
            seen += bad
    assert seen == rejected


def test_lemma_checks_catch_corrupted_inputs():
    # 3x3 grid lines only: pencils of size 2 at every point -> several
    # "thin" points, impossible under the standing assumptions
    rows = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    cols = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    grid = IncidenceStructure(9, rows + cols)
    with pytest.raises(VerificationFailed, match=r"^multiple thin points \[0, 1, 2, 3, 4, 5, 6, "
                                                r"7, 8\]; input corrupted$"):
        thin_points(grid, 3)


# --- 4-point special case ---

def test_q2_affine():
    assert q2_special_classify(affine_plane(2)) == "affine_plane_of_order_2"


def test_q2_near_pencil():
    D = IncidenceStructure(4, [[0, 1, 2], [0, 3], [1, 3], [2, 3]])
    assert q2_special_classify(D) == "near_pencil_structure"


def test_q2_rejects_non_linear():
    D = IncidenceStructure(4, [[0, 1], [2, 3]])
    assert q2_special_classify(D) is None


def test_q2_rejects_wrong_point_count():
    assert q2_special_classify(affine_plane(3)) is None
