"""Clique enumeration, the naive oracle, classification, star check."""

import pytest
from support import (
    GraphTooLarge,
    block_sets,
    naive_maximal_cliques,
    subset_filter_cliques,
    sweep_graph,
)

from unitals.cliques import (
    classify_clique,
    enumerate_maximal_cliques,
    max_clique_size,
    verify_star_property,
)
from unitals.confluence import ConfluenceGraph
from unitals.errors import NotAClique, WrongCliqueSize
from unitals.incidence import near_pencil, pencil


def _k3():
    return ConfluenceGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def _c4():
    return ConfluenceGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_triangle():
    assert enumerate_maximal_cliques(_k3()) == [(0, 1, 2)]
    assert naive_maximal_cliques(_k3()) == [(0, 1, 2)]
    assert max_clique_size(_k3()) == 3


def test_four_cycle():
    expected = [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert enumerate_maximal_cliques(_c4()) == expected
    assert naive_maximal_cliques(_c4()) == expected
    assert max_clique_size(_c4()) == 2


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
    result = classify_clique(h3, pencil(h3, 5))
    assert result.tag == "pencil" and result.point == 5 and result.size == 9


def test_classify_near_pencil(h3):
    L = next(i for i, b in enumerate(h3.blocks) if 7 not in b)
    blocks = near_pencil(h3, 7, L)
    result = classify_clique(h3, blocks)
    assert result.tag == "near_pencil"
    assert result.point == 7 and result.line == L and result.size == 5


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
    assert result.tag == "other" and result.note is None


def test_classify_sub_pencil(h3):
    result = classify_clique(h3, pencil(h3, 0)[:4])
    assert result.tag == "other" and result.note == "sub-pencil"


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
    with pytest.raises(NotAClique):
        classify_clique(h3, disjoint)


def test_classify_all_maximal_cliques_of_unital2(h2, cg2):
    tags = [classify_clique(h2, c) for c in enumerate_maximal_cliques(cg2)]
    counts = {"pencil": 0, "near_pencil": 0, "other": 0}
    for t in tags:
        counts[t.tag] += 1
    # 9 pencils and one near pencil per non-incident point/block pair
    assert counts == {"pencil": 9, "near_pencil": 72, "other": 0}


# --- star property ---

def test_star_property_on_pencils(h3):
    report = verify_star_property(h3, pencil(h3, 0), 3)
    assert report.passed and report.expected == 4
    assert report.outside_blocks == 63 - 9 and not report.failures


def test_star_property_on_non_pencil_extremal_clique(h2, cg2):
    clique = next(c for c in enumerate_maximal_cliques(cg2)
                  if classify_clique(h2, c).tag != "pencil")
    assert verify_star_property(h2, clique, 2).passed  # bound is tight at q=2 too


def test_star_property_rejects_wrong_size(h3):
    with pytest.raises(WrongCliqueSize):
        verify_star_property(h3, pencil(h3, 0)[:8], 3)


def test_star_property_failure_is_reported(pg3):
    # any 9 lines of a projective plane are mutually intersecting, but the
    # 4 outside lines meet all 9 of them rather than q+1
    report = verify_star_property(pg3, range(9), 3)
    assert not report.passed
    assert report.failures == [(b, 9) for b in range(9, 13)]
