"""Confluence graphs, strong regularity, the ratio bound, DIMACS."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    block_sets,
    buekenhout_metz_unital,
    edges_oracle,
    format_dimacs_oracle,
    graph_from_edges,
    graph_rejection_oracle,
)

from unitals.confluence import (
    MAX_VERTICES,
    ConfluenceGraph,
    SrgParams,
    build_confluence,
    expected_unital_params,
    format_dimacs,
    hoffman_bound,
    infer_order,
    read_dimacs,
    srg_check,
)
from unitals.errors import GeometryError
from unitals.incidence import (
    IncidenceStructure,
    affine_plane,
    hermitian_unital,
    projective_plane,
    puncture,
)


def _naive_confluence(S):
    """Oracle: double loop over block pairs testing set intersection."""
    n = len(S.blocks)
    rows = [0] * n
    sets = block_sets(S)
    for i, j in combinations(range(n), 2):
        if sets[i] & sets[j]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return ConfluenceGraph(n, rows)


@pytest.mark.parametrize("make", [
    lambda: projective_plane(3),
    lambda: affine_plane(3),
    lambda: hermitian_unital(2),
    lambda: hermitian_unital(3),
    lambda: puncture(projective_plane(4), projective_plane(4).blocks[0]),
])
def test_build_matches_naive_double_loop(make):
    S = make()
    assert build_confluence(S) == _naive_confluence(S)


def test_single_block_structure():
    G = build_confluence(IncidenceStructure(2, [[0, 1]]))
    assert G.n == 1 and len(G.edges()) == 0


def test_unital2_graph_is_complete_multipartite(cg2):
    assert cg2.n == 12
    assert all(cg2.degree(i) == 9 for i in range(12))
    # complement = 4 disjoint triangles
    comp = ConfluenceGraph(12, [~r & ((1 << 12) - 1) & ~(1 << i)
                                for i, r in enumerate(cg2.rows)])
    seen = set()
    components = []
    for v in range(12):
        if v in seen:
            continue
        stack, comp_set = [v], set()
        while stack:
            u = stack.pop()
            if u in comp_set:
                continue
            comp_set.add(u)
            stack.extend(w for w in range(12) if comp.rows[u] >> w & 1)
        seen |= comp_set
        components.append(comp_set)
    assert len(components) == 4
    for c in components:
        assert len(c) == 3
        assert all(comp.rows[a] >> b & 1 for a, b in combinations(sorted(c), 2))


def test_unital3_graph_regularity(cg3):
    assert cg3.n == 63
    assert all(cg3.degree(i) == 32 for i in range(63))


# --- strong regularity ---

def _brute_lambda_mu(G):
    lams, mus = set(), set()
    for i, j in combinations(range(G.n), 2):
        common = 0
        for v in range(G.n):
            if v not in (i, j) and G.rows[i] >> v & 1 and G.rows[j] >> v & 1:
                common += 1
        (lams if G.rows[i] >> j & 1 else mus).add(common)
    return lams, mus


def test_srg_hermitian_q3_with_brute_force_counts(cg3):
    params = srg_check(cg3)
    assert params == SrgParams(v=63, k=32, lam=16, mu=16, r=4, s=-4)
    lams, mus = _brute_lambda_mu(cg3)
    assert lams == {16} and mus == {16}


def test_srg_hermitian_q4(cg4):
    assert srg_check(cg4) == SrgParams(v=208, k=75, lam=30, mu=25, r=10, s=-5)


def test_srg_hermitian_q5_stretch():
    g5 = build_confluence(hermitian_unital(5))
    assert srg_check(g5) == expected_unital_params(5) == SrgParams(
        v=525, k=144, lam=48, mu=36, r=18, s=-6)


def test_srg_rejects_path():
    P3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert srg_check(P3) is None  # not regular


def test_srg_rejects_complete_and_edgeless():
    K3 = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert srg_check(K3) is None
    assert srg_check(ConfluenceGraph(3, [0, 0, 0])) is None


def test_srg_rejects_uneven_mu_and_a_single_vertex():
    C6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert srg_check(C6) is None  # 2-regular; opposite vertices share no neighbour
    assert srg_check(ConfluenceGraph(1, [0])) is None


def test_srg_rejects_irrational_eigenvalues():
    C5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert srg_check(C5) is None  # golden-ratio eigenvalues


@pytest.mark.parametrize("q, expected", [
    (2, SrgParams(v=12, k=9, lam=6, mu=9, r=0, s=-3)),
    (3, SrgParams(v=63, k=32, lam=16, mu=16, r=4, s=-4)),
    (4, SrgParams(v=208, k=75, lam=30, mu=25, r=10, s=-5)),
])
def test_expected_params(q, expected):
    assert expected_unital_params(q) == expected


def test_expected_params_lambda_formula():
    for q in range(2, 11):
        assert expected_unital_params(q).lam == 2 * q * q - 2


@pytest.mark.parametrize("n, rows, message", [
    (2, [0], "adjacency row count differs from n"),
    (2, [0b100, 0], "row 0 has bits outside 0..1"),
    (2, [0b01, 0], "vertex 0 is self-adjacent"),
    (2, [0b10, 0], "adjacency not symmetric at (0, 1)"),
], ids=["row-count", "outside", "loop", "asymmetric"])
def test_graph_constructor_names_each_rejection(n, rows, message):
    with pytest.raises(ValueError) as excinfo:
        ConfluenceGraph(n, rows)
    assert str(excinfo.value) == message


def _seeded_rows(seed: int) -> tuple[int, list[int]]:
    """n and rows for ConfluenceGraph: a random symmetric graph on 0..40
    vertices, then, by the seed, nothing or up to three faults among a
    flipped bit, a bit at n, a self-loop and a dropped row."""
    rng = random.Random(seed)
    n = rng.randrange(41)
    density = rng.random()
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    for _ in range(rng.randrange(4) if n else 0):
        fault = rng.randrange(8)
        i, j = rng.randrange(n), rng.randrange(n)
        if fault < 5 and i != j:
            rows[i] ^= 1 << j
        elif fault == 5:
            rows[i] |= 1 << (n + rng.randrange(3))
        elif fault == 6:
            rows[i] |= 1 << i
        else:
            rows.pop()
            break
    return n, rows


def _verdict(n: int, rows: list[int]) -> str | None:
    """The message ConfluenceGraph(n, rows) raises, or None when it accepts
    the rows, whose edges and DIMACS text must then match the oracles."""
    try:
        G = ConfluenceGraph(n, rows)
    except ValueError as exc:
        return str(exc)
    assert G.rows == tuple(rows)
    assert G.edges() == edges_oracle(G)
    assert format_dimacs(G, ("c", "")) == format_dimacs_oracle(G, ("c", ""))
    return None


def test_graph_constructor_agrees_with_per_edge_walk():
    verdicts = [graph_rejection_oracle(*_seeded_rows(seed)) for seed in range(400)]
    assert [_verdict(*_seeded_rows(seed)) for seed in range(400)] == verdicts
    # every branch is taken: acceptance and each of the four messages
    assert {re.sub(r"\d+", "#", v or "accepted") for v in verdicts} == {
        "accepted", "adjacency row count differs from n", "row # has bits outside #..#",
        "vertex # is self-adjacent", "adjacency not symmetric at (#, #)"}


def test_graph_constructor_names_the_first_asymmetry_of_a_unital_graph(cg4):
    rows = list(cg4.rows)
    rows[150] ^= 1 << 7  # an edge kept, or added, on one side only
    rows[40] ^= 1 << 90
    expected = graph_rejection_oracle(cg4.n, rows)
    assert expected.startswith("adjacency not symmetric at ")
    with pytest.raises(ValueError) as excinfo:
        ConfluenceGraph(cg4.n, rows)
    assert str(excinfo.value) == expected


@pytest.mark.parametrize("q", [2, 3, 4])
def test_dimacs_writer_matches_line_by_line_oracle(q, request):
    G = request.getfixturevalue(f"cg{q}")
    assert G.edges() == edges_oracle(G)
    comments = ("confluence graph", "second comment")
    assert format_dimacs(G, comments) == format_dimacs_oracle(G, comments)
    assert format_dimacs(G) == format_dimacs_oracle(G)


def test_both_builders_give_roots_and_the_counting_identity(cg2, cg3, cg4):
    # SrgParams checks nothing itself: srg_check takes r >= s as the roots
    # of x^2 - (lam - mu) x - (k - mu), and double counting gives
    # k(k - lam - 1) = (v - k - 1) mu; in expected_unital_params all three
    # are identities in q
    T5 = build_confluence(IncidenceStructure(5, combinations(range(5), 2)))
    petersen = graph_from_edges(10, [(i, j) for i, j in combinations(range(10), 2)
                                     if not T5.rows[i] >> j & 1])
    graphs = [cg2, cg3, cg4, petersen,
              build_confluence(buekenhout_metz_unital(4)),
              *(build_confluence(affine_plane(q)) for q in (2, 3, 4, 5)),
              # triangular graphs T(n) and lattice graphs L2(n)
              *(build_confluence(IncidenceStructure(n, combinations(range(n), 2)))
                for n in range(4, 9)),
              *(build_confluence(IncidenceStructure(
                  2 * n, [(i, n + j) for i in range(n) for j in range(n)]))
                for n in range(2, 6))]
    found = [srg_check(G) for G in graphs]
    assert None not in found
    for p in found + [expected_unital_params(q) for q in range(2, 26)]:
        assert p.r + p.s == p.lam - p.mu and p.r * p.s == -(p.k - p.mu), p
        assert p.r >= p.s, p
        assert p.k * (p.k - p.lam - 1) == (p.v - p.k - 1) * p.mu, p


def test_hoffman_bound_examples():
    assert hoffman_bound(expected_unital_params(3)) == 9
    assert hoffman_bound(expected_unital_params(4)) == 16
    assert hoffman_bound(expected_unital_params(2)) == 4
    assert isinstance(hoffman_bound(expected_unital_params(3)), Fraction)


def test_hoffman_bound_rejects_nonnegative_s():
    silly = SrgParams(v=1, k=2, lam=3, mu=2, r=1, s=0)
    with pytest.raises(GeometryError, match="^s = 0 is not negative$"):
        hoffman_bound(silly)


def test_infer_order(cg3, cg2):
    assert infer_order(cg3) == 3
    assert infer_order(cg2) == 2
    assert infer_order(ConfluenceGraph(50, [0] * 50)) is None
    # right vertex count, wrong degree
    wrong = graph_from_edges(63, [(i, (i + 1) % 63) for i in range(63)])
    assert infer_order(wrong) is None


# --- DIMACS ---

def test_dimacs_round_trip(cg3, tmp_path):
    path = tmp_path / "g.dimacs"
    path.write_text(format_dimacs(cg3, ("confluence graph of the order-3 unital",)),
                    encoding="utf-8")
    back = read_dimacs(path)
    assert back == cg3
    path2 = tmp_path / "g2.dimacs"
    path2.write_text(format_dimacs(back, ("confluence graph of the order-3 unital",)),
                     encoding="utf-8")
    assert path.read_bytes() == path2.read_bytes()


def test_dimacs_reader_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "g.dimacs"
    path.write_text("c hello\n\np edge 3 2\ne 1 2\ne 2 3\n")
    G = read_dimacs(path)
    assert G.n == 3 and len(G.edges()) == 2


# each malformed file with its message
_DIMACS_REJECTIONS = {
    # edge before header
    "e 1 2\n": "line 1: edge before problem line",
    # malformed header
    "p edge 3\n": "line 1: malformed problem line",
    # endpoint out of range
    "p edge 3 1\ne 1 4\n": "line 2: edge (1, 4) is not 1 <= i < j <= 3",
    # self loop
    "p edge 3 1\ne 2 2\n": "line 2: edge (2, 2) is not 1 <= i < j <= 3",
    # edge count mismatch
    "p edge 3 2\ne 1 2\n": "header announces 2 edges, file has 1",
    # unknown line type
    "p edge 3 1\nq 1 2\n": "line 2: unknown line type 'q'",
    # repeated header
    "p edge 3 0\np edge 3 0\n": "line 2: repeated problem line",
    # duplicate edge
    "p edge 3 2\ne 1 2\ne 1 2\n": "line 3: edge (1, 2) is not after the previous edge (1, 2)",
    # reversed endpoints
    "p edge 3 1\ne 2 1\n": "line 2: edge (2, 1) is not 1 <= i < j <= 3",
    # edges out of order
    "p edge 3 2\ne 2 3\ne 1 2\n": "line 3: edge (1, 2) is not after the previous edge (2, 3)",
    # first token is not exactly "c"
    "carrot 1 2\np edge 3 0\n": "line 1: unknown line type 'carrot'",
    # comment after the header
    "p edge 3 1\nc late\ne 1 2\n": "line 2: comment after the problem line",
    # a size that is not an integer
    "p edge x 0\n": "line 1: non-integer sizes",
    # an edge line with one endpoint
    "p edge 3 1\ne 1\n": "line 2: malformed edge line",
    # an endpoint that is not an integer
    "p edge 3 1\ne 1 y\n": "line 2: non-integer endpoints",
    # comments alone
    "c only\n": "missing problem line",
    # a huge announced vertex count: the bad edge line is named, and no
    # adjacency row is allocated first
    "p edge 1000000000000000000 1\ne 1 x\n": "line 2: non-integer endpoints",
    # a well-formed file that announces more vertices than the cap, refused
    # before any adjacency row is allocated
    "p edge 1000000000000000000 0\n": f"vertex count 1000000000000000000 exceeds {MAX_VERTICES}",
    f"p edge {MAX_VERTICES + 1} 0\n": f"vertex count {MAX_VERTICES + 1} exceeds {MAX_VERTICES}",
    # the edge count is checked first
    f"p edge {MAX_VERTICES + 1} 1\n": "header announces 1 edges, file has 0",
}


def test_dimacs_vertex_cap_covers_the_h7_graph():
    # the confluence graph of a unital of order 7 has 2,107 vertices
    assert expected_unital_params(7).v == 2107 <= MAX_VERTICES


@pytest.mark.parametrize("text", _DIMACS_REJECTIONS)
def test_dimacs_reader_rejects(text, tmp_path):
    path = tmp_path / "bad.dimacs"
    path.write_text(text)
    with pytest.raises(GeometryError, match=f"^{re.escape(_DIMACS_REJECTIONS[text])}$"):
        read_dimacs(path)


@pytest.mark.parametrize("header", ["p edge -5 0", "p edge 3 -1"])
def test_dimacs_reader_rejects_negative_sizes(header, tmp_path):
    path = tmp_path / "bad.dimacs"
    path.write_text(f"c sizes\n{header}\n")
    with pytest.raises(GeometryError, match="^line 2: negative sizes$"):
        read_dimacs(path)


@given(st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_dimacs_round_trip_random_graphs(tmp_path_factory, n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if data.draw(st.booleans())]
    G = graph_from_edges(n, edges)
    path = tmp_path_factory.mktemp("dimacs") / "g.dimacs"
    path.write_text(format_dimacs(G), encoding="utf-8")
    assert read_dimacs(path) == G
