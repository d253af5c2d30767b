"""CLI surface: subcommands, exit codes, determinism, file formats."""

import io
import json

import pytest
from support import buekenhout_metz_unital, double_edge_swap

from unitals import cli
from unitals.cli import main
from unitals.confluence import format_dimacs, read_dimacs
from unitals.incidence import (
    MAX_POINTS,
    IncidenceStructure,
    conic_points,
    find_onan,
    format_json,
    projective_plane,
    puncture,
    read_json,
    validate_unital,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def h3_json(tmp_path):
    path = tmp_path / "h3.json"
    assert run("build", "hermitian", "--q", "3", "-o", str(path)) == 0
    return path


def test_build_hermitian_is_loadable(h3_json):
    assert validate_unital(read_json(h3_json)) == 3


def test_build_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("build", "pg", "--q", "3", "-o", str(a))
    run("build", "pg", "--q", "3", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_build_to_stdout(capsys):
    assert run("build", "ag", "--q", "2") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "incidence-v1" and data["num_points"] == 4


@pytest.mark.parametrize("spec, points, blocks", [
    ("line", 9, 12),
    ("line-swap", 9, 12),
    ("conic", 9, 13),
    ("0,1,2,3", 9, 12),
])
def test_build_puncture_specs(tmp_path, spec, points, blocks):
    out = tmp_path / "p.json"
    assert run("build", "puncture", "--q", "3", "--delete", spec, "-o", str(out)) == 0
    S = read_json(out)
    assert (S.num_points, len(S.blocks)) == (points, blocks)


def test_build_puncture_from_file(tmp_path):
    plane = tmp_path / "pg.json"
    run("build", "pg", "--q", "3", "-o", str(plane))
    out = tmp_path / "p.json"
    assert run("build", "puncture", "--q", "3", "--in", str(plane),
               "--delete", "line", "-o", str(out)) == 0
    assert read_json(out).num_points == 9


def test_graph_and_reconstruct_roundtrip(tmp_path, h3_json):
    dimacs = tmp_path / "h3.dimacs"
    assert run("graph", str(h3_json), "-o", str(dimacs)) == 0
    assert dimacs.read_text().splitlines()[1] == "p edge 63 1008"
    rebuilt = tmp_path / "rebuilt.json"
    assert run("reconstruct", str(dimacs), "-o", str(rebuilt),
               "--verify", str(h3_json)) == 0
    assert validate_unital(read_json(rebuilt)) == 3


def test_graph_and_reconstruct_roundtrip_on_a_non_hermitian_unital(tmp_path, bm3_json, capsys):
    dimacs = tmp_path / "bm3.dimacs"
    assert run("graph", str(bm3_json), "-o", str(dimacs)) == 0
    rebuilt = tmp_path / "rebuilt.json"
    capsys.readouterr()
    assert run("reconstruct", str(dimacs), "-o", str(rebuilt), "--verify", str(bm3_json)) == 0
    assert capsys.readouterr().out == (
        "reconstructed unital of order 3: 28 points, 63 blocks\n"
        "verified: isomorphic to the target structure\n")


def test_graph_output_deterministic(tmp_path, h3_json):
    a, b = tmp_path / "a.dimacs", tmp_path / "b.dimacs"
    run("graph", str(h3_json), "-o", str(a))
    run("graph", str(h3_json), "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_srg_reports_and_verifies(capsys, h3_json):
    assert run("srg", str(h3_json), "--expect-unital", "3") == 0
    out = capsys.readouterr().out
    assert "v=63 k=32 lambda=16 mu=16 r=4 s=-4 hoffman_bound=9" in out


def test_srg_mismatch_fails(h3_json, capsys):
    assert run("srg", str(h3_json), "--expect-unital", "4") == 1
    capsys.readouterr()
    # no unital has order below 2: a usage error, before the input is read
    assert run("srg", str(h3_json), "--expect-unital", "0") == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_srg_non_srg_input(tmp_path, capsys):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({
        "format": "incidence-v1", "num_points": 4,
        "blocks": [[0, 1, 2], [0, 3], [1, 3], [2, 3]]}))
    assert run("srg", str(path)) == 0
    assert "not strongly regular" in capsys.readouterr().out
    assert run("srg", str(path), "--expect-unital", "2") == 1
    capsys.readouterr()
    pg3 = tmp_path / "pg3.json"
    assert run("build", "pg", "--q", "3", "-o", str(pg3)) == 0
    assert run("srg", str(pg3), "--expect-unital", "1") == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_cliques_classify_verifies_unital(capsys, h3_json, tmp_path):
    report = tmp_path / "cliques.json"
    assert run("cliques", str(h3_json), "--classify", "--json", str(report)) == 0
    out = capsys.readouterr().out
    assert "maximal_cliques=1540" in out
    assert "tags=near_pencil:1512 pencil:28" in out
    records = json.loads(report.read_text())
    assert len(records) == 1540
    assert records[0]["size"] == 9 and records[0]["tag"] == "pencil"
    assert records[0]["blocks"] == sorted(records[0]["blocks"])
    sizes = [r["size"] for r in records]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("blocks, flags", [
    ([], ()),
    ([], ("--classify",)),
    ([[0, 1], [0, 2], [1, 2], [2, 3]], ()),
    ([[0, 1], [0, 2], [1, 2], [2, 3]], ("--classify",)),
])
def test_cliques_report_is_the_stdlib_encoding(tmp_path, blocks, flags):
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"format": "incidence-v1", "num_points": 4,
                                     "blocks": blocks}))
    report = tmp_path / "report.json"
    assert run("cliques", str(structure), *flags, "--json", str(report)) == 0
    raw = report.read_text()
    assert raw == json.dumps(json.loads(raw), indent=1) + "\n"
    assert (raw == "[]\n") == (not blocks)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_clique_records_are_written_whole_across_batches(tmp_path, count):
    # counts on and around multiples of 1024 records; the file's buffer,
    # not the writer, batches the writes
    records = [{"blocks": [i, i + 1], "size": 2, "tag": "near_pencil", "point": i, "line": 0}
               for i in range(count)]
    found = [(i, i + 1) for i in range(count)]
    path = tmp_path / "report.json"
    cli._write_clique_report(path, found, [("near_pencil", i, 0) for i in range(count)],
                             count + 1)
    assert path.read_text() == json.dumps(records, indent=1) + "\n"
    cli._write_clique_report(path, found, [()] * count, count + 1)
    assert path.read_text() == json.dumps([{"blocks": list(c), "size": 2} for c in found],
                                          indent=1) + "\n"


def test_cliques_max_only(capsys, h3_json):
    assert run("cliques", str(h3_json), "--max-only") == 0
    assert "max_clique_size=9" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [
    ("--classify",),
    ("--json", "report.json"),
    ("--classify", "--json", "report.json"),
])
def test_cliques_max_only_rejects_classify_and_json(tmp_path, monkeypatch, capsys,
                                                    h3_json, extra):
    monkeypatch.chdir(tmp_path)
    assert run("cliques", str(h3_json), "--max-only", *extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert not (tmp_path / "report.json").exists()


def test_onan_expectations(tmp_path, h3_json):
    assert run("onan", str(h3_json), "--expect-none") == 0
    pg2 = tmp_path / "pg2.json"
    run("build", "pg", "--q", "2", "-o", str(pg2))
    assert run("onan", str(pg2)) == 0
    assert run("onan", str(pg2), "--expect-none") == 1
    assert run("onan", str(pg2), "--limit", "2", "--expect-none") == 1
    assert run("onan", str(pg2), "--limit", "-1") == 2


@pytest.fixture()
def bm3_json(tmp_path):
    path = tmp_path / "bm3.json"
    path.write_text(format_json(buekenhout_metz_unital(4)))
    return path


def _retag_first(monkeypatch, tag):
    """Make `cliques` tag the first clique it classifies as `tag` as
    "other" instead, so that a verdict branch no real input reaches runs."""
    classify = cli.cliques_mod.classify_clique
    retagged = []

    def retag(S, clique):
        result = classify(S, clique)
        if not retagged and result.tag == tag:
            retagged.append(result)
            return result._replace(tag="other", point=None, line=None)
        return result
    monkeypatch.setattr(cli.cliques_mod, "classify_clique", retag)


def test_cliques_classify_on_a_hermitian_unital_scans_for_no_onan(h3_json, capsys, onan_scans):
    assert run("cliques", str(h3_json), "--classify") == 0
    assert capsys.readouterr().out == (
        "maximal_cliques=1540\n"
        "sizes=5:1512 9:28\n"
        "tags=near_pencil:1512 pencil:28\n"
        "verified: every maximal clique is a pencil (size 9) or a near pencil (size 5)\n")
    assert onan_scans == []


def test_cliques_classify_scopes_the_census_by_onan_configurations(bm3_json, capsys, onan_scans):
    # the Buekenhout-Metz unital has O'Nan configurations, so its 972
    # "other" cliques refute no claim: only the pencil claim is verified
    assert run("cliques", str(bm3_json), "--classify") == 0
    assert capsys.readouterr().out == (
        "maximal_cliques=2512\n"
        "sizes=5:2484 9:28\n"
        "tags=near_pencil:1512 other:972 pencil:28\n"
        "verified: the maximal cliques of size 9 are the 28 pencils, and none is larger\n")
    assert onan_scans == ["count_onan"]


def test_cliques_classify_census_violation_without_onan(h3_json, capsys, onan_scans, monkeypatch):
    # h3 has no O'Nan configuration, so an "other" clique contradicts the
    # census lemma
    _retag_first(monkeypatch, "near_pencil")
    assert run("cliques", str(h3_json), "--classify") == 1
    assert capsys.readouterr().out == (
        "maximal_cliques=1540\n"
        "sizes=5:1512 9:28\n"
        "tags=near_pencil:1511 other:1 pencil:28\n"
        "VIOLATION: 1 cliques are neither pencils of size 9 nor near pencils of size 5\n")
    assert onan_scans == ["count_onan"]


def test_cliques_classify_pencil_claim_violation(bm3_json, capsys, onan_scans, monkeypatch):
    _retag_first(monkeypatch, "pencil")
    assert run("cliques", str(bm3_json), "--classify") == 1
    assert capsys.readouterr().out == (
        "maximal_cliques=2512\n"
        "sizes=5:2484 9:28\n"
        "tags=near_pencil:1512 other:973 pencil:27\n"
        "VIOLATION: maximal cliques of size 9 or more: 27 pencils, 1 others; "
        "expected the 28 pencils alone\n")
    assert onan_scans == []


def _onan_stdout(S, limit=0):
    """What `onan` prints, formatted from find_onan's full list: the count
    of hits up to the limit, the first 20 of them, and how many more."""
    configs = find_onan(S, limit)
    lines = [f"onan_configurations={len(configs)}"]
    lines += [f"blocks={','.join(map(str, c.blocks))} points={','.join(map(str, c.points))}"
              for c in configs[:20]]
    if len(configs) > 20:
        lines.append(f"... {len(configs) - 20} more")
    return "".join(line + "\n" for line in lines)


@pytest.fixture()
def onan_scans(monkeypatch):
    """Names of the O'Nan scans `onan` runs, in call order."""
    calls = []
    for name in ("find_onan", "count_onan"):
        def spy(S, limit=0, _name=name, _fn=getattr(cli.inc, name)):
            calls.append(_name)
            return _fn(S, limit)
        monkeypatch.setattr(cli.inc, name, spy)
    return calls


def test_onan_prints_exactly_twenty_hits_without_a_more_line(tmp_path, capsys, onan_scans):
    # 20 pairwise disjoint copies of the configuration: exactly 20 hits
    copy = [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]]
    S = IncidenceStructure(120, [[6 * c + p for p in b] for c in range(20) for b in copy])
    path = tmp_path / "twenty.json"
    path.write_text(format_json(S))
    assert run("onan", str(path)) == 0
    out = capsys.readouterr().out
    assert out == _onan_stdout(S)
    assert out.startswith("onan_configurations=20\n") and "more" not in out
    assert onan_scans == ["find_onan", "count_onan"]


@pytest.mark.parametrize("limit, scans", [
    ("20", ["find_onan"]),
    ("3", ["find_onan"]),
    ("25", ["find_onan", "count_onan"]),
    ("0", ["find_onan", "count_onan"]),
])
def test_onan_limit_boundaries_on_375_hits(tmp_path, capsys, onan_scans, limit, scans):
    S = puncture(projective_plane(4), conic_points(4))
    path = tmp_path / "pg4-conic.json"
    path.write_text(format_json(S))
    assert run("onan", str(path), "--limit", limit) == 0
    assert capsys.readouterr().out == _onan_stdout(S, int(limit))
    assert onan_scans == scans


def test_onan_expect_none_on_a_hit_rich_input(tmp_path, capsys):
    path = tmp_path / "pg4-conic.json"
    path.write_text(format_json(puncture(projective_plane(4), conic_points(4))))
    assert run("onan", str(path), "--expect-none") == 1
    out = capsys.readouterr().out
    assert out.startswith("onan_configurations=375\n") and out.endswith("... 355 more\n")


def test_onan_without_hits_scans_once(h3_json, capsys, onan_scans):
    assert run("onan", str(h3_json), "--expect-none") == 0
    assert capsys.readouterr().out == "onan_configurations=0\n"
    assert onan_scans == ["find_onan"]


def test_classify_linspace_cases(tmp_path, capsys):
    for spec, case in [("line", "affine_plane"), ("line-swap", "thin_point"),
                       ("conic", "full_pencils")]:
        path = tmp_path / f"{spec}.json"
        run("build", "puncture", "--q", "3", "--delete", spec, "-o", str(path))
        assert run("classify-linspace", str(path), "--q", "3") == 0
        assert f"case={case}" in capsys.readouterr().out


def test_classify_linspace_embed_json(tmp_path):
    path = tmp_path / "conic.json"
    run("build", "puncture", "--q", "3", "--delete", "conic", "-o", str(path))
    report = tmp_path / "report.json"
    assert run("classify-linspace", str(path), "--q", "3", "--embed",
               "--json", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["case"] == "full_pencils"
    assert payload["embedding"]["host"]["num_points"] == 13
    assert len(payload["embedding"]["deleted"]) == 4
    assert len(payload["embedding"]["point_map"]) == 9


@pytest.mark.parametrize("spec, flags", [
    ("line", ()),
    ("line-swap", ()),
    ("conic", ()),
    ("conic", ("--embed",)),
])
def test_classify_linspace_report_is_the_stdlib_encoding(tmp_path, spec, flags):
    path = tmp_path / "d.json"
    run("build", "puncture", "--q", "3", "--delete", spec, "-o", str(path))
    report = tmp_path / "report.json"
    assert run("classify-linspace", str(path), "--q", "3", *flags, "--json", str(report)) == 0
    raw = report.read_text(encoding="utf-8")
    assert raw == json.dumps(json.loads(raw), indent=1) + "\n"


def test_classify_linspace_rejects_plane(tmp_path):
    path = tmp_path / "pg3.json"
    run("build", "pg", "--q", "3", "-o", str(path))
    assert run("classify-linspace", str(path), "--q", "3") == 1  # assumptions fail


def test_classify_linspace_rejects_a_non_linear_space(tmp_path, capsys):
    # 9 points and one 2-point block: every count is within bounds, but
    # most point pairs are on no block
    path = tmp_path / "sparse.json"
    path.write_text('{"format": "incidence-v1", "num_points": 9, "blocks": [[0, 1]]}')
    assert run("classify-linspace", str(path), "--q", "3") == 1
    assert capsys.readouterr().err == "verification failed: not a linear space\n"


def test_isomorphic_command(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("h2.json", "ag3.json", "h3.json"))
    run("build", "hermitian", "--q", "2", "-o", str(a))
    run("build", "ag", "--q", "3", "-o", str(b))
    run("build", "hermitian", "--q", "3", "-o", str(c))
    assert run("isomorphic", str(a), str(b)) == 0
    witness = json.loads(capsys.readouterr().out)
    assert sorted(witness) == list(range(9))
    assert run("isomorphic", str(a), str(c)) == 1
    assert capsys.readouterr().out.strip() == "none"


def test_isomorphic_search_depth_is_not_bounded_by_recursion(tmp_path, capsys):
    # a path's search goes one level deeper per point, far past the
    # interpreter's default recursion limit of 1,000
    n = 1200
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"format": "incidence-v1", "num_points": n,
                                "blocks": [[i, i + 1] for i in range(n - 1)]}))
    assert run("isomorphic", str(path), str(path)) == 0
    assert json.loads(capsys.readouterr().out) == list(range(n))


@pytest.fixture()
def star_json(tmp_path):
    # 1,200 two-point blocks through point 0: the confluence graph is one
    # clique of 1,200 vertices, and both clique searches go one level
    # deeper per vertex, past the interpreter's default recursion limit
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"format": "incidence-v1", "num_points": 1201,
                                "blocks": [[0, i] for i in range(1, 1201)]}))
    return path


def test_cliques_search_depth_is_not_bounded_by_recursion(star_json, capsys):
    assert run("cliques", str(star_json)) == 0
    assert capsys.readouterr().out.splitlines() == ["maximal_cliques=1", "sizes=1200:1"]


def test_max_clique_search_depth_is_not_bounded_by_recursion(star_json, capsys):
    assert run("cliques", str(star_json), "--max-only") == 0
    assert capsys.readouterr().out.splitlines() == ["max_clique_size=1200"]


def test_reconstruct_rejects_non_unital_graph(tmp_path):
    bad = tmp_path / "bad.dimacs"
    bad.write_text("p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")
    assert run("reconstruct", str(bad)) == 1


def test_reconstruct_exits_1_on_a_swapped_unital_graph(tmp_path, capsys, h3_json):
    dimacs = tmp_path / "h3.dimacs"
    assert run("graph", str(h3_json), "-o", str(dimacs)) == 0
    swapped = tmp_path / "swapped.dimacs"
    swapped.write_text(format_dimacs(double_edge_swap(read_dimacs(dimacs), 0)))
    capsys.readouterr()
    assert run("reconstruct", str(swapped)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "26 maximal cliques of size 9, expected 28" in err


def test_reconstruct_refuses_a_huge_vertex_count(tmp_path, capsys):
    bad = tmp_path / "huge0.dimacs"
    bad.write_text("p edge 1000000000000000000 0\n")
    assert run("reconstruct", str(bad)) == 2
    assert capsys.readouterr().err == "error: vertex count 1000000000000000000 exceeds 4096\n"


@pytest.mark.parametrize("header", ["p edge -5 0", "p edge 3 -1"])
def test_reconstruct_rejects_negative_dimacs_sizes(header, tmp_path, capsys):
    bad = tmp_path / "bad.dimacs"
    bad.write_text(header + "\n")
    assert run("reconstruct", str(bad)) == 2
    assert capsys.readouterr().err == "error: line 1: negative sizes\n"


def test_reconstruct_to_stdout_is_json(tmp_path, capsys, h3_json):
    dimacs = tmp_path / "h3.dimacs"
    run("graph", str(h3_json), "-o", str(dimacs))
    capsys.readouterr()
    assert run("reconstruct", str(dimacs)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "incidence-v1" and data["num_points"] == 28
    # with --verify, stdout stays pure JSON and the verdict goes to stderr
    assert run("reconstruct", str(dimacs), "--verify", str(h3_json)) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == data
    assert err == "verified: isomorphic to the target structure\n"
    pg3 = tmp_path / "pg3.json"
    run("build", "pg", "--q", "3", "-o", str(pg3))
    capsys.readouterr()
    assert run("reconstruct", str(dimacs), "--verify", str(pg3)) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == data
    assert err.startswith("verification FAILED: ")


def test_reconstruct_rejects_regular_12_vertex_non_unital_graph(tmp_path, capsys):
    # the complement of the 12-cycle is 9-regular on 12 vertices, like the
    # order-2 unital graph, but not strongly regular
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)
             if (j - i) % 12 not in (1, 11)]
    c12bar = tmp_path / "c12bar.dimacs"
    c12bar.write_text(f"p edge 12 {len(edges)}\n"
                      + "".join(f"e {i + 1} {j + 1}\n" for i, j in edges))
    h2 = tmp_path / "h2.json"
    run("build", "hermitian", "--q", "2", "-o", str(h2))
    rebuilt = tmp_path / "r.json"
    capsys.readouterr()
    assert run("reconstruct", str(c12bar), "-o", str(rebuilt), "--verify", str(h2)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failed: ")
    assert not rebuilt.exists()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_full_pipeline(tmp_path, q):
    struct = tmp_path / "u.json"
    graph = tmp_path / "u.dimacs"
    rebuilt = tmp_path / "r.json"
    assert run("build", "hermitian", "--q", str(q), "-o", str(struct)) == 0
    assert run("graph", str(struct), "-o", str(graph)) == 0
    assert run("srg", str(struct), "--expect-unital", str(q)) == 0
    assert run("reconstruct", str(graph), "-o", str(rebuilt),
               "--verify", str(struct)) == 0


# --- usage errors: exit code 2 ---

@pytest.mark.parametrize("argv", [
    ("build", "pg", "--q", "6"),                      # not a prime power
    ("build", "puncture", "--q", "3"),                # missing --delete
    ("build", "puncture", "--q", "3", "--delete", "x,y"),
    ("srg", "/nonexistent/file.json"),
    ("frobnicate",),                                  # unknown subcommand
    ("build", "pg"),                                  # missing --q
])
def test_usage_errors(argv, capsys):
    assert run(*argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("target, message", [
    ("pg", "projective_plane supports q <= 25"),
    ("hermitian", "hermitian_unital supports q <= 5"),
], ids=["pg", "hermitian"])
def test_build_refuses_a_huge_q_before_factoring_it(monkeypatch, capsys, target, message):
    def factor(n):  # trial division of 2^61 - 1 would run for hours
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr("unitals.incidence.prime_power", factor)
    monkeypatch.setattr("unitals.algebra.prime_power", factor)
    assert run("build", target, "--q", "2305843009213693951") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_build_refuses_a_prime_power_above_the_hermitian_cap(capsys):
    assert run("build", "hermitian", "--q", "7") == 2
    assert capsys.readouterr() == ("", "error: hermitian_unital supports q <= 5\n")


def test_graph_refuses_more_points_than_the_cap(tmp_path, capsys):
    path = tmp_path / "blockless.json"
    n = MAX_POINTS + 1
    path.write_text(json.dumps({"format": "incidence-v1", "num_points": n, "blocks": []}))
    assert run("graph", str(path)) == 2
    assert capsys.readouterr() == ("", f"error: point count {n} exceeds {MAX_POINTS}\n")


@pytest.mark.parametrize("spec, blocks", [
    ("line-swap", [[0, 1, 2]]),
    ("line", []),
    ("line-swap", []),
], ids=["line-swap-one-block", "line-blockless", "line-swap-blockless"])
def test_line_swap_without_a_point_off_block_0_is_usage_error(tmp_path, capsys, spec, blocks):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"format": "incidence-v1", "num_points": 3,
                                "blocks": blocks}))
    assert run("build", "puncture", "--q", "2", "--in", str(path),
               "--delete", spec) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --delete {spec} needs") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError()])
def test_unexpected_exception_is_internal_error(monkeypatch, capsys, exc):
    def fail(args):
        raise exc
    monkeypatch.setitem(cli._DISPATCH, "srg", fail)
    assert run("srg", "unused.json") == 3
    err = capsys.readouterr().err
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under `unitals ... | head -c 1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["build", "onan"])
def test_closed_stdout_is_an_io_error(tmp_path, monkeypatch, capsys, command):
    fano = tmp_path / "pg2.json"
    assert run("build", "pg", "--q", "2", "-o", str(fano)) == 0
    argv = {"build": ("build", "ag", "--q", "2"), "onan": ("onan", str(fano))}[command]
    monkeypatch.setattr("sys.stdout", _ClosedStdout())
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_conic_deletion_needs_the_canonical_plane(tmp_path, capsys):
    conic = tmp_path / "pg3-conic.json"
    assert run("build", "puncture", "--q", "3", "--delete", "conic", "-o", str(conic)) == 0
    assert run("build", "puncture", "--q", "3", "--in", str(conic), "--delete", "conic") == 2
    assert capsys.readouterr() == (
        "", "error: --delete conic requires the canonical pg plane of order q\n")


@pytest.mark.parametrize("command, content, position", [
    ("srg", b'{"format": "incidence-v1", \xff}', 27),
    ("reconstruct", b"c x\n\xffp edge 3 0\n", 4),
], ids=["json", "dimacs"])
def test_undecodable_file_is_usage_error(tmp_path, capsys, command, content, position):
    # UnicodeDecodeError is a ValueError: exit 2, one stderr line
    path = tmp_path / "bad"
    path.write_bytes(content)
    assert run(command, str(path)) == 2
    assert capsys.readouterr() == (
        "", f"error: 'utf-8' codec can't decode byte 0xff in position {position}: "
            "invalid start byte\n")


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    # the decoder recurses once per bracket; running out of stack is a
    # refusal of the file (exit 2), not an internal error; the message
    # after the prefix is the interpreter's own
    path = tmp_path / "deep.json"
    path.write_text('{"format": "incidence-v1", "num_points": 3, "blocks": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    assert run("graph", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: invalid JSON: ")


def test_bad_json_is_usage_error(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{not json")
    assert run("srg", str(path)) == 2


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    capsys.readouterr()


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    fano = tmp_path / "pg2.json"
    assert run("build", "pg", "--q", "2", "-o", str(fano)) == 0
    assert run("onan", str(fano), "--limit", "3") == 0
    assert capsys.readouterr().out.startswith("onan_configurations=3\n")
    assert run("onan", str(fano)) == 0
    assert capsys.readouterr().out.startswith("onan_configurations=7\n")
    assert run("onan", str(fano), "--limit", "x") == 2
    out, err = capsys.readouterr()
    assert out == "" and "--limit" in err
    assert run("onan", str(fano), "--expect-none") == 1
    assert capsys.readouterr().out.startswith("onan_configurations=7\n")
    assert run("--help") == 0
    assert "usage: unitals" in capsys.readouterr().out
    assert run("onan", str(fano), "--limit", "2") == 0
    assert capsys.readouterr().out.startswith("onan_configurations=2\n")
