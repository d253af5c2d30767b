"""Acceptance suite: one test per criterion, exact values, stated runtimes.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. All numeric comparisons are exact integer arithmetic; runtime
ceilings are those stated for the criterion.
"""

import time
from collections import Counter
from itertools import combinations

from support import block_sets, naive_maximal_cliques, star_failures, sweep_graph

from unitals.cliques import (
    classify_clique,
    enumerate_maximal_cliques,
    max_clique_size,
)
from unitals.confluence import (
    ConfluenceGraph,
    SrgParams,
    build_confluence,
    expected_unital_params,
    hoffman_bound,
    srg_check,
)
from unitals.incidence import (
    IncidenceStructure,
    conic_points,
    find_onan,
    hermitian_unital,
    projective_plane,
    puncture,
    validate,
    validate_unital,
)
from unitals.linspace import classify, embedding_errors, projective_lines, thin_points
from unitals.reconstruct import extend_graph_isomorphism, isomorphic, reconstruct_unital


def _report(criterion: str, text: str) -> None:
    print(f"PASS {criterion}: {text}")


def test_c01_srg_parameters_exact():
    """Criterion 1: srg_check equals the closed-form parameters, q in {2,3,4}."""
    timings = {}
    for q in (2, 3, 4):
        start = time.perf_counter()
        params = srg_check(build_confluence(hermitian_unital(q)))
        timings[q] = time.perf_counter() - start
        assert params == SrgParams(
            v=q * q * (q * q - q + 1),
            k=(q + 1) ** 2 * (q - 1),
            lam=2 * q * q - 2,
            mu=(q + 1) ** 2,
            r=q * q - q - 2,
            s=-(q + 1),
        ), f"q={q}"
    assert timings[4] < 10.0, f"q=4 took {timings[4]:.1f}s, limit 10s"
    _report("criterion 1", "SRG parameters exact for q=2,3,4 "
            f"(q=4 in {timings[4]:.2f}s < 10s)")


def test_c02_hoffman_bound_and_max_clique():
    """Criterion 2: ratio bound equals q^2 for q=2..10; max clique equals q^2."""
    for q in range(2, 11):
        assert hoffman_bound(expected_unital_params(q)) == q * q, f"q={q}"
    start = time.perf_counter()
    assert max_clique_size(build_confluence(hermitian_unital(3))) == 9
    t3 = time.perf_counter() - start
    assert t3 < 5.0, f"q=3 took {t3:.1f}s, limit 5s"
    start = time.perf_counter()
    assert max_clique_size(build_confluence(hermitian_unital(4))) == 16
    t4 = time.perf_counter() - start
    assert t4 < 300.0, f"q=4 took {t4:.1f}s, limit 5min"
    _report("criterion 2", "hoffman bound = q^2 for q=2..10; max clique "
            f"9 ({t3:.2f}s < 5s) and 16 ({t4:.2f}s < 5min)")


def test_c03_extremal_cliques_are_pencils(h3, h4, cliques3, cliques4):
    """Criterion 3: exactly q^3+1 size-q^2 maximal cliques, every one a pencil."""
    for q, H, cliques in ((3, h3, cliques3), (4, h4, cliques4)):
        extremal = [c for c in cliques if len(c) == q * q]
        assert len(extremal) == q**3 + 1, f"q={q}: {len(extremal)}"
        points = set()
        for c in extremal:
            tag = classify_clique(H, c)
            assert tag.tag == "pencil", f"q={q}: {c} tagged {tag.tag}"
            points.add(tag.point)
        assert points == set(range(H.num_points))  # one pencil per point
    _report("criterion 3", "28 and 65 extremal cliques, all pencils, one per point")


def test_c04_star_property_on_all_pencils(h3, h4):
    """Criterion 4: every outside block meets exactly q+1 members of a pencil."""
    for q, H in ((3, h3), (4, h4)):
        for p in range(H.num_points):
            failures = star_failures(H, H.point_blocks[p], q)
            assert not failures, f"q={q}, point {p}: {failures[:3]}"
    _report("criterion 4", "star check passed on all 28 + 65 pencils")


def test_c05_complete_clique_census(h3, h4, cliques3, cliques4):
    """Criterion 5: every maximal clique is a pencil or a near pencil, with
    the exact near-pencil counts."""
    expected_near = {3: 1512, 4: 12480}
    for q, H, cliques in ((3, h3, cliques3), (4, h4, cliques4)):
        counts = Counter()
        for c in cliques:
            tag = classify_clique(H, c)
            if tag.tag == "pencil":
                assert len(set(c)) == q * q
            elif tag.tag == "near_pencil":
                assert len(set(c)) == q + 2
            counts[tag.tag] += 1
        assert counts["other"] == 0, f"q={q}: {counts}"
        assert counts["pencil"] == q**3 + 1
        assert counts["near_pencil"] == expected_near[q], f"q={q}: {counts}"
        # cross-check: one near pencil per non-incident (point, block) pair
        assert expected_near[q] == len(H.blocks) * (H.num_points - (q + 1))
    _report("criterion 5", "census: 28+1512 (q=3) and 65+12480 (q=4), zero other")


def test_c06_order2_exception(cg2):
    """Criterion 6: the order-2 graph is K_{3,3,3,3}; size-4 cliques
    overshoot the 9 pencils."""
    assert cg2.n == 12
    full = (1 << 12) - 1
    complement = ConfluenceGraph(
        12, [~row & full & ~(1 << i) for i, row in enumerate(cg2.rows)])
    # complement must be 4 disjoint triangles
    assert all(complement.degree(i) == 2 for i in range(12))
    parts = []
    seen = set()
    for v in range(12):
        if v in seen:
            continue
        part = {v} | {w for w in range(12) if complement.rows[v] >> w & 1}
        assert len(part) == 3
        for a, b in combinations(sorted(part), 2):
            assert complement.rows[a] >> b & 1
        seen |= part
        parts.append(part)
    assert len(parts) == 4
    size4 = [c for c in enumerate_maximal_cliques(cg2) if len(c) == 4]
    assert len(size4) == 81 > 9
    _report("criterion 6", "complement is 4 disjoint triangles; "
            f"{len(size4)} size-4 maximal cliques > 9 pencils")


def test_c07_onan_scan(h2, h3, h4):
    """Criterion 7: no configurations in the Hermitian unitals, some in the
    7-point plane; pruned scan agrees with the unpruned oracle."""
    assert find_onan(h2) == []
    assert find_onan(h3) == []
    start = time.perf_counter()
    assert find_onan(h4) == []
    t4 = time.perf_counter() - start
    assert t4 < 300.0, f"exhaustive q=4 scan took {t4:.1f}s, limit 5min"
    h5 = hermitian_unital(5)
    start = time.perf_counter()
    assert find_onan(h5) == []
    t5 = time.perf_counter() - start
    pg2 = projective_plane(2)
    found = find_onan(pg2)
    assert len(found) >= 1

    def oracle(S):
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

    assert [c.blocks for c in found] == oracle(pg2)
    assert [c.blocks for c in find_onan(h2)] == oracle(h2) == []
    _report("criterion 7", "0 configurations in H(2),H(3),H(4),H(5) "
            f"(q=4 exhaustive in {t4:.2f}s, q=5 in {t5:.2f}s); "
            f"{len(found)} in the 7-point plane; "
            "oracle agreement")


def test_c08_reconstruction(h3, h4, cg3, cg4):
    """Criterion 8: graph -> unital reconstruction up to isomorphism; a
    planted block permutation's point map is recovered exactly."""
    for q, H, G in ((3, h3, cg3), (4, h4, cg4)):
        rebuilt = reconstruct_unital(G)
        assert validate_unital(rebuilt) == q
        assert isomorphic(rebuilt, H) is not None, f"q={q}"
    sigma = [(3 * i + 5) % 28 for i in range(28)]
    assert sorted(sigma) == list(range(28))
    relabeled = IncidenceStructure(28, [[sigma[x] for x in b] for b in h3.blocks])
    position = {b: i for i, b in enumerate(relabeled.blocks)}
    beta = [position[tuple(sorted(sigma[x] for x in b))] for b in h3.blocks]
    assert extend_graph_isomorphism(beta, h3, relabeled) == sigma
    _report("criterion 8", "reconstruction isomorphic for q=3,4; planted "
            "permutation recovered exactly")


def test_c09_three_case_classification():
    """Criterion 9: the three deletions classify as the three cases with
    the stated line counts and embedding properties."""
    for q, cases in ((3, ("line", "line-swap", "conic")), (4, ("line", "conic"))):
        pg = projective_plane(q)
        host_points = q * q + q + 1
        for spec in cases:
            if spec == "line":
                cut = set(pg.blocks[0])
                want_case, want_lines = "affine_plane", q * q + q
            elif spec == "line-swap":
                w = pg.blocks[0]
                cut = (set(w) - {w[0]}) | {next(p for p in range(pg.num_points)
                                           if p not in w)}
                want_case, want_lines = "thin_point", q * q + q
            else:
                cut = set(conic_points(q))
                want_case, want_lines = "full_pencils", q * q + q + 1
            D = puncture(pg, cut)
            result = classify(D, q)
            assert result.case == want_case, f"q={q} {spec}"
            assert result.line_count == want_lines, f"q={q} {spec}"
            w = result.embedding
            assert embedding_errors(D, w, q) == [], f"q={q} {spec}"
            assert len(w.deleted) == q + 1
            assert w.host.num_points == host_points
            assert isomorphic(w.host, pg) is not None, f"q={q} {spec}"
            if want_case == "full_pencils":
                deleted = set(w.deleted)
                host_sets = block_sets(w.host)
                line_of = {}
                for i, block in enumerate(D.blocks):
                    img = {w.point_map[x] for x in block}
                    line_of[i] = next(j for j, hb in enumerate(host_sets) if img <= hb)
                for hb in host_sets:
                    assert len(hb & deleted) < q, "q deleted points collinear"
                shorts = [i for i, b in enumerate(D.blocks) if len(b) == q]
                for y in deleted:
                    assert any(y in host_sets[line_of[i]] for i in shorts), \
                        f"deleted point {y} has no tangent"
    _report("criterion 9", "cases i/ii/iii with line counts 12/12/13 (q=3) "
            "and i/iii with 20/21 (q=4); hosts isomorphic, deletions of size q+1, "
            "tangents and no-q-collinear verified")


def test_c10_lemma_suite_on_1000_instances():
    """Criterion 10: the projective-line and thin-point facts hold on 1000
    deterministic punctured-plane instances, and each embeds with a
    checked witness."""
    instances = 0
    case_counts = Counter()
    for q, budget in ((3, 715), (4, 285)):  # 715 = all 4-subsets of PG(2,3)
        pg = projective_plane(q)
        taken = 0
        for cut in combinations(range(pg.num_points), q + 1):
            if taken >= budget:
                break
            D = puncture(pg, cut)
            report = validate(D)
            assert report.is_linear_space, f"q={q} cut={cut}"
            assert D.num_points == q * q
            # these raise VerificationFailed on any breach
            projective_lines(D, q)
            thin = thin_points(D, q)
            result = classify(D, q, embed=True)  # re-checks its witness
            assert embedding_errors(D, result.embedding, q) == [], f"q={q} cut={cut}"
            case_counts[result.case] += 1
            if thin:
                assert result.case == "thin_point"
            taken += 1
        assert taken == budget, f"q={q}: only {taken} instances available"
        instances += taken
    assert instances == 1000
    assert set(case_counts) == {"affine_plane", "thin_point", "full_pencils"}
    _report("criterion 10", f"1000 instances, zero violations, every witness "
            f"checked; cases seen: "
            f"{dict(sorted(case_counts.items()))}")


def test_c11_oracle_equivalence(cg2):
    """Criterion 11: pivoted enumerator equals the naive one on the order-2
    graph and on the 50-graph deterministic sweep."""
    assert enumerate_maximal_cliques(cg2) == naive_maximal_cliques(cg2)
    checked = 0
    for i in range(50):
        G = sweep_graph(i)
        assert G.n <= 20
        assert enumerate_maximal_cliques(G) == naive_maximal_cliques(G), f"graph {i}"
        checked += 1
    assert checked == 50
    _report("criterion 11", "pivoted == naive on CG of the order-2 unital "
            "and all 50 sweep graphs")
