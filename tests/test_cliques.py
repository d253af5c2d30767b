"""Clique enumeration, the naive oracle, classification, star property."""

import random
import time
from collections import Counter
from itertools import combinations

import pytest
from support import (
    GraphTooLarge,
    block_sets,
    buekenhout_metz_unital,
    classify_clique_oracle,
    graph_from_edges,
    naive_maximal_cliques,
    near_pencil,
    star_failures,
    subset_filter_cliques,
    sweep_graph,
)

from unitals.cliques import (
    classify_clique,
    enumerate_maximal_cliques,
    max_clique_size,
)
from unitals.confluence import (
    ConfluenceGraph,
    build_confluence,
    expected_unital_params,
    srg_check,
)
from unitals.errors import GeometryError
from unitals.incidence import (
    IncidenceStructure,
    affine_plane,
    conic_points,
    count_onan,
    hermitian_unital,
    projective_plane,
    puncture,
    validate_unital,
)


def _k3():
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle_graph(n):
    return graph_from_edges(n, _path_edges(n) + [(0, n - 1)])


def test_triangle():
    assert enumerate_maximal_cliques(_k3()) == [(0, 1, 2)]
    assert naive_maximal_cliques(_k3()) == [(0, 1, 2)]
    assert max_clique_size(_k3()) == 3


def test_four_cycle():
    expected = [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert enumerate_maximal_cliques(_cycle_graph(4)) == expected
    assert naive_maximal_cliques(_cycle_graph(4)) == expected
    assert max_clique_size(_cycle_graph(4)) == 2


def test_edgeless_graph_yields_singletons():
    G = ConfluenceGraph(3, [0, 0, 0])
    assert enumerate_maximal_cliques(G) == [(0,), (1,), (2,)]
    assert naive_maximal_cliques(G) == [(0,), (1,), (2,)]


def test_empty_graph():
    G = ConfluenceGraph(0, [])
    assert enumerate_maximal_cliques(G) == []
    assert max_clique_size(G) == 0


def test_hermitian_q3_clique_sizes(cliques3):
    assert {len(c) for c in cliques3} == {5, 9}


def test_naive_oracle_agrees_on_unital2(cg2):
    assert enumerate_maximal_cliques(cg2) == naive_maximal_cliques(cg2)


def test_naive_oracle_rejects_large_graphs():
    G = ConfluenceGraph(65, [0] * 65)
    with pytest.raises(GraphTooLarge):
        naive_maximal_cliques(G)


def test_oracles_agree_on_deterministic_sweep():
    for i in range(50):
        G = sweep_graph(i)
        fast = enumerate_maximal_cliques(G)
        assert fast == naive_maximal_cliques(G), f"sweep graph {i}"
        if G.n <= 14:
            assert fast == subset_filter_cliques(G), f"sweep graph {i}"


def _cliques_graph(*sizes, extra=(), missing=()):
    """Disjoint complete graphs of the given sizes on consecutive vertices,
    plus the extra edges and minus the missing ones."""
    edges, start = set(extra), 0
    for size in sizes:
        edges.update(combinations(range(start, start + size), 2))
        start += size
    return graph_from_edges(start, sorted(edges - set(missing)))


def _hub_graph(adjacent: bool, seen: int):
    """Hub 0 (neighbours 1, 2, 5, 6, 7) is the root pivot, so the root
    branches on its non-neighbours 4, then 3. The child of 3 has the two
    candidates 1, 2 (adjacent or not) and the excluded vertex 4, which
    sees `seen` of them."""
    edges = [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 3), (2, 3), (3, 4)]
    edges += [(1, 2)] * adjacent + [(i, 4) for i in (1, 2)[:seen]]
    return graph_from_edges(8, edges)


SETTLED_NODE_GRAPHS = {
    # the candidates form a clique at the root
    **{f"K{n}": _cliques_graph(n) for n in range(1, 8)},
    **{f"K{n}-minus-edge": _cliques_graph(n, missing=[(0, n - 1)]) for n in range(2, 8)},
    "K2+K3": _cliques_graph(2, 3),
    "K3+K3+K1": _cliques_graph(3, 3, 1),
    "K4+K2+K2": _cliques_graph(4, 2, 2),
    "3K1": _cliques_graph(1, 1, 1),
    # two K_m joined by an edge: a node meets a clique of candidates plus an
    # excluded vertex that sees all of it, and must emit nothing
    **{f"K{m}-K{m}-bridged": _cliques_graph(m, m, extra=[(m - 1, m)]) for m in range(3, 6)},
    # children with two candidates, adjacent or not, and an excluded vertex
    # that sees both, one or neither of them (or no excluded vertex); C4 is
    # also K4 minus a perfect matching, and K4-minus-edge two triangles
    # sharing an edge
    **{f"hub-{'adjacent' if adjacent else 'apart'}-seen-{seen}": _hub_graph(adjacent, seen)
       for adjacent in (False, True) for seen in (0, 1, 2)},
    "C4": _cycle_graph(4),
    "C5": _cycle_graph(5),
    "P4": graph_from_edges(4, _path_edges(4)),
    "prism": _cliques_graph(3, 3, extra=[(0, 3), (1, 4), (2, 5)]),
    # outer 5-cycle 0-4, spokes, inner pentagram 5-9
    "petersen": graph_from_edges(10, _path_edges(5) + [(0, 4)] + [(i, i + 5) for i in range(5)]
                                 + [(5, 7), (5, 8), (6, 8), (6, 9), (7, 9)]),
}


@pytest.mark.parametrize("name", sorted(SETTLED_NODE_GRAPHS))
def test_settled_nodes_agree_with_oracles(name):
    G = SETTLED_NODE_GRAPHS[name]
    fast = enumerate_maximal_cliques(G)
    assert fast == naive_maximal_cliques(G)
    assert fast == subset_filter_cliques(G)


def test_networkx_agrees_on_unital3(cg3, cliques3):
    nx = pytest.importorskip("networkx")
    H = nx.Graph()
    H.add_nodes_from(range(cg3.n))
    H.add_edges_from(cg3.edges())
    assert sorted(tuple(sorted(c)) for c in nx.find_cliques(H)) == cliques3


def test_every_emitted_clique_is_maximal(cliques3, cg3):
    sample = cliques3[::13] + cliques3[-5:]
    assert len(sample) >= 100
    for clique in sample:
        members = set(clique)
        mask = 0
        for v in clique:
            mask |= 1 << v
        for v in range(cg3.n):
            if v not in members:
                assert cg3.rows[v] & mask != mask, f"{clique} extendable by {v}"


def test_max_clique_sizes_on_unitals(cg2, cg3):
    assert max_clique_size(cg2) == 4
    assert max_clique_size(cg3) == 9


# --- classification ---

def test_classify_pencil(h3):
    result = classify_clique(h3, h3.point_blocks[5])
    assert result == ("pencil", 5, None)


def test_classify_near_pencil(h3):
    L = next(i for i, b in enumerate(h3.blocks) if 7 not in b)
    blocks = near_pencil(h3, 7, L)
    result = classify_clique(h3, blocks)
    assert result.tag == "near_pencil"
    assert result.point == 7 and result.line == L


def test_classify_triangle_as_other(h3):
    # three blocks pairwise meeting in three distinct points
    found = None
    sets = block_sets(h3)
    for i in range(len(h3.blocks)):
        for j in range(i + 1, len(h3.blocks)):
            common_ij = sets[i] & sets[j]
            if not common_ij:
                continue
            for k in range(j + 1, len(h3.blocks)):
                ik = sets[i] & sets[k]
                jk = sets[j] & sets[k]
                if ik and jk and len(common_ij | ik | jk) == 3:
                    found = (i, j, k)
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    result = classify_clique(h3, found)
    assert result.tag == "other" and result.point is None


def test_classify_sub_pencil(h3):
    result = classify_clique(h3, h3.point_blocks[0][:4])
    assert result.tag == "other" and result.point is None


def test_classify_rejects_non_clique(h3):
    disjoint = None
    sets = block_sets(h3)
    for i in range(len(h3.blocks)):
        for j in range(i + 1, len(h3.blocks)):
            if not sets[i] & sets[j]:
                disjoint = (i, j)
                break
        if disjoint:
            break
    with pytest.raises(GeometryError,
                       match=rf"^blocks {disjoint[0]} and {disjoint[1]} are disjoint$"):
        classify_clique(h3, disjoint)


def test_classify_all_maximal_cliques_of_unital2(h2, cg2):
    tags = [classify_clique(h2, c) for c in enumerate_maximal_cliques(cg2)]
    counts = {"pencil": 0, "near_pencil": 0, "other": 0}
    for t in tags:
        counts[t.tag] += 1
    # 9 pencils and one near pencil per non-incident point/block pair
    assert counts == {"pencil": 9, "near_pencil": 72, "other": 0}


def _ag3_minus_class():
    """AG(2,3) without the parallel class of block 0: some joins are missing."""
    ag3 = affine_plane(3)
    first = set(ag3.blocks[0])
    return IncidenceStructure(9, [b for b in ag3.blocks[1:] if first & set(b)])


ORACLE_STRUCTURES = {
    # a triangle of 2-point lines is a near pencil in three ways
    "ag2": lambda: affine_plane(2),
    "h2": lambda: hermitian_unital(2),
    "h3": lambda: hermitian_unital(3),
    "h4": lambda: hermitian_unital(4),
    "ag3": lambda: affine_plane(3),
    "ag4": lambda: affine_plane(4),
    "pg3-conic": lambda: puncture(projective_plane(3), conic_points(3)),
    "pg4-conic": lambda: puncture(projective_plane(4), conic_points(4)),
    "ag3-minus-class": _ag3_minus_class,
}


@pytest.mark.parametrize("name", sorted(ORACLE_STRUCTURES))
def test_classify_agrees_with_oracle(name):
    S = ORACLE_STRUCTURES[name]()
    found = enumerate_maximal_cliques(build_confluence(S))
    assert found
    for clique in found:
        assert classify_clique(S, clique) == classify_clique_oracle(S, clique), clique


@pytest.mark.parametrize("num_points, blocks, clique, skipped, found", [
    # L = block 0 = {0, 1, 2}: blocks 1 and 2 meet at its candidate apex 3,
    # but no block joins 3 to 2; the next member, block 1, has apex 1
    (4, [[0, 1, 2], [0, 3], [1, 3]], (0, 1, 2), (3, 0), (1, 1)),
    # L = block 0 = {0, 1}: apexes 2 and 3; two blocks join 2 to 0, so the
    # next apex of the same L, 3, is tried
    (5, [[0, 1], [0, 2, 3], [0, 2, 4], [1, 2, 3]], (0, 1, 3), (2, 0), (3, 0)),
])
def test_classify_skips_an_apex_with_a_missing_join(num_points, blocks, clique,
                                                    skipped, found):
    S = IncidenceStructure(num_points, blocks)
    with pytest.raises(GeometryError, match=rf"^no unique block joins {skipped[0]} and \d+; "
                                            r"not a linear space$"):
        near_pencil(S, *skipped)
    result = classify_clique(S, clique)
    assert (result.tag, result.point, result.line) == ("near_pencil", *found)
    assert result == classify_clique_oracle(S, clique)
    for maximal in enumerate_maximal_cliques(build_confluence(S)):
        assert classify_clique(S, maximal) == classify_clique_oracle(S, maximal)


def _random_structure(rng):
    """A planted near pencil (block L of 2 or 3 points, and 2-point joins
    from an apex p) plus 2 to 10 random blocks of 2 to 4 points, on 4 to 8
    points; seldom a linear space."""
    n = rng.randint(4, 8)
    p, *L = rng.sample(range(n), rng.randint(3, 4))
    blocks = {tuple(L), *((p, x) for x in L)}
    for _ in range(rng.randint(2, 10)):
        blocks.add(tuple(rng.sample(range(n), rng.choice((2, 2, 3, 4)))))
    return IncidenceStructure(n, {tuple(sorted(b)) for b in blocks})


def _outcome(classify, S, clique):
    try:
        return classify(S, clique)
    except GeometryError as exc:
        return f"not a clique: {exc}"


def test_classify_agrees_with_oracle_on_random_structures():
    # budget: 2 s for 300 structures (about 0.1 s when measured)
    rng = random.Random("classify-sweep")
    start = time.perf_counter()
    seen = set()
    for k in range(300):
        S = _random_structure(rng)
        n = len(S.blocks)
        subsets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(10)]
        for clique in enumerate_maximal_cliques(build_confluence(S)) + subsets:
            fast = _outcome(classify_clique, S, clique)
            assert fast == _outcome(classify_clique_oracle, S, clique), (k, clique)
            seen.add("not a clique" if isinstance(fast, str) else (fast.tag, len(set(clique)) > 3))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s, budget 2s"
    # the sweep reaches every branch of the tagger
    assert seen == {"not a clique", *((tag, big) for tag in ("pencil", "near_pencil", "other")
                                      for big in (False, True))}, seen


def test_classify_rejects_non_clique_like_the_oracle(h3):
    sets = block_sets(h3)
    through_0 = h3.point_blocks[0]
    disjoint = next(i for i, b in enumerate(sets) if not b & sets[through_0[0]])
    clique = (*through_0[:3], disjoint)
    with pytest.raises(GeometryError, match=r"^blocks \d+ and \d+ are disjoint$") as fast:
        classify_clique(h3, clique)
    with pytest.raises(GeometryError) as slow:
        classify_clique_oracle(h3, clique)
    assert str(fast.value) == str(slow.value)


# --- a non-Hermitian unital ---

@pytest.mark.parametrize("alpha", range(9))
def test_buekenhout_metz_sets(alpha):
    # alpha = 4, 5, 7, 8 give unitals of order 3, each with 324 O'Nan
    # configurations (a Hermitian unital has none, O'Nan 1972)
    S = buekenhout_metz_unital(alpha)
    if alpha in (4, 5, 7, 8):
        assert (S.num_points, len(S.blocks)) == (28, 63)
        assert validate_unital(S) == 3
        assert count_onan(S) == 324
    else:
        assert (S.num_points, len(S.blocks)) == (28, 9)
        assert validate_unital(S) is None


def test_buekenhout_metz_unital_cliques():
    # the general claim holds, the Hermitian census does not: 972 maximal
    # cliques of size 5 are neither pencils nor near pencils
    bm3 = buekenhout_metz_unital(4)
    G = build_confluence(bm3)
    assert srg_check(G) == expected_unital_params(3)
    assert max_clique_size(G) == 9
    found = enumerate_maximal_cliques(G)
    assert len(found) == 2512
    assert Counter(len(c) for c in found) == {5: 2484, 9: 28}
    tagged = [classify_clique(bm3, c) for c in found]
    assert Counter((t.tag, len(set(c))) for t, c in zip(tagged, found)) == {
        ("pencil", 9): 28, ("near_pencil", 5): 1512, ("other", 5): 972}
    assert sorted(t.point for t in tagged if t.tag == "pencil") == list(range(28))


def test_networkx_agrees_on_buekenhout_metz_unital():
    nx = pytest.importorskip("networkx")
    G = build_confluence(buekenhout_metz_unital(4))
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    found = enumerate_maximal_cliques(G)
    assert len(found) == 2512
    assert sorted(tuple(sorted(c)) for c in nx.find_cliques(H)) == found


# --- star property ---

def test_star_property_on_pencils(h3):
    assert star_failures(h3, h3.point_blocks[0], 3) == []


def test_star_property_on_non_pencil_extremal_clique(h2, cg2):
    clique = next(c for c in enumerate_maximal_cliques(cg2)
                  if classify_clique(h2, c).tag != "pencil")
    assert star_failures(h2, clique, 2) == []  # bound is tight at q=2 too


def test_star_property_rejects_wrong_size(h3):
    with pytest.raises(ValueError):
        star_failures(h3, h3.point_blocks[0][:8], 3)


def test_star_property_failure_is_reported(pg3):
    # any 9 lines of a projective plane are mutually intersecting, but the
    # 4 outside lines meet all 9 of them rather than q+1
    assert star_failures(pg3, range(9), 3) == [(b, 9) for b in range(9, 13)]
