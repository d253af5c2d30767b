"""The benchmark's own tests: tiny workloads, planted wrong outputs, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer, summarize, traced  # noqa: E402
from workloads import IsoRelabel, LinspaceSweep, UnitalPipeline  # noqa: E402


@pytest.fixture
def lib():
    return run.import_library()


def tiny(lib, workload, tmp_path):
    if workload is UnitalPipeline:
        return UnitalPipeline(lib, 1, str(tmp_path), orders=(3,))
    if workload is LinspaceSweep:
        return LinspaceSweep(lib, 1, str(tmp_path), items={3: 3, 4: 3, 7: 3})
    return IsoRelabel(lib, 1, str(tmp_path),
                      mix=(("h", 3, 2), ("pg", 3, 2), ("punct", 4, 2)))


def failed(items) -> list:
    return run.run_pass(items, {})[1]


@pytest.mark.parametrize("workload", [UnitalPipeline, LinspaceSweep, IsoRelabel])
def test_tiny_workload_is_correct_and_seeded(lib, workload, tmp_path):
    items = tiny(lib, workload, tmp_path).items
    result = run.measure(items, 0, trace=False)
    assert result["failures"] == []
    assert result["attempted"] == run.MIN_PASSES * len(items)
    assert [len(times) for times in result["passes"][False]] == [len(items)] * run.MIN_PASSES
    again = tiny(lib, workload, tmp_path).items
    assert [i.label for i in again] == [i.label for i in items]


def test_repeated_set_up_leaves_the_running_library_in_place(lib, tmp_path):
    running = sys.modules["unitals.cli"]
    seconds = run.set_up_again("iso-relabel", 1, str(tmp_path))
    assert seconds > 0
    assert sys.modules["unitals.cli"] is running and sys.modules["unitals"] is lib


def test_linspace_sweep_covers_every_case(lib, tmp_path):
    sweep = tiny(lib, LinspaceSweep, tmp_path)
    for item in sweep.items:
        item.run()
    cases = {json.load(open(p))["case"] for p in tmp_path.glob("class-*.json")}
    assert cases == {"affine_plane", "thin_point", "full_pencils"}


def test_census_off_by_one_is_a_failure(lib, monkeypatch, tmp_path):
    real = lib.cliques.enumerate_maximal_cliques
    monkeypatch.setattr(lib.cliques, "enumerate_maximal_cliques", lambda G: real(G)[1:])
    labels = {label for label, _ in failed(tiny(lib, UnitalPipeline, tmp_path).items)}
    assert labels == {"q3/census"}


def test_wrong_linspace_case_is_a_failure(lib, monkeypatch, tmp_path):
    real = lib.linspace.classify

    def wrong(D, q, embed=True):
        result = real(D, q, embed=embed)
        if result.case == "thin_point":
            result.case = "full_pencils"
        return result

    monkeypatch.setattr(lib.linspace, "classify", wrong)
    failures = failed(tiny(lib, LinspaceSweep, tmp_path).items)
    assert failures and all("case=" in problem for _, problem in failures)


def test_dropped_onan_configuration_is_a_failure(lib, monkeypatch, tmp_path):
    real = lib.incidence.find_onan
    monkeypatch.setattr(lib.incidence, "find_onan", lambda S, limit=0: real(S, limit)[1:])
    failures = failed(tiny(lib, LinspaceSweep, tmp_path).items)
    assert failures and all("onan printed" in problem for _, problem in failures)


def test_wrong_isomorphism_is_a_failure(lib, monkeypatch, tmp_path):
    monkeypatch.setattr(lib.reconstruct, "isomorphic", lambda a, b: list(range(a.num_points)))
    items = tiny(lib, IsoRelabel, tmp_path).items
    assert len(failed(items)) == len(items)


def test_raising_item_is_a_failure(lib, monkeypatch, tmp_path):
    def boom(S, limit=0):
        raise RuntimeError("planted")

    monkeypatch.setattr(lib.incidence, "find_onan", boom)
    failures = failed(tiny(lib, UnitalPipeline, tmp_path).items)
    assert [label for label, _ in failures] == ["q3/onan"]
    assert "planted" in failures[0][1]


def test_output_must_repeat_the_first_pass(lib, monkeypatch, tmp_path):
    items = tiny(lib, UnitalPipeline, tmp_path).items
    verified = {}
    assert run.run_pass(items, verified)[1] == []
    monkeypatch.setattr(lib.confluence, "hoffman_bound", lambda params: params.k)
    assert [label for label, _ in run.run_pass(items, verified)[1]] == ["q3/srg"]


def test_traced_pass_counts_layers_and_restores_library(lib, tmp_path):
    originals = (lib.cli.main, lib.reconstruct.enumerate_maximal_cliques,
                 lib.cliques.enumerate_maximal_cliques)
    tracer = Tracer()
    with traced(tracer):
        assert lib.reconstruct.enumerate_maximal_cliques is not originals[1]
        _, failures, _ = run.run_pass(tiny(lib, UnitalPipeline, tmp_path).items, {}, tracer)
    assert failures == []
    assert (lib.cli.main, lib.reconstruct.enumerate_maximal_cliques,
            lib.cliques.enumerate_maximal_cliques) == originals
    stats = summarize(tracer.spans)
    # once in `cliques --classify`, once inside `reconstruct`
    assert stats["cliques.enumerate_maximal_cliques.calls"] == 2
    assert stats["cliques.enumerate_maximal_cliques.cliques"] == 2 * 1540
    assert stats["incidence.find_onan.hits"] == 0
    assert stats["cli.main.calls"] == 7
    assert stats["cli.main.self_s"] < stats["cli.main.s"]


def test_summarize_subtracts_children():
    spans = [[0, "a.f", 0.0, 10.0, -1, 0, None],
             [1, "b.g", 1.0, 4.0, 0, 0, None],
             [2, "a.f", 5.0, 6.0, 0, 0, None],
             [3, "incidence.find_onan", 7.0, 9.0, 0, 0, 5]]
    stats = summarize(spans)
    assert stats["a.f.s"] == 10.0          # the nested a.f is inside the outer one
    assert stats["a.f.calls"] == 2
    assert stats["a.f.self_s"] == (10.0 - 3.0 - 1.0 - 2.0) + 1.0
    assert stats["incidence.find_onan.hits"] == 5


def test_command_prints_the_contract_line():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "iso-relabel",
                          "--seed", "3", "--seconds", "0", "--trace", "0"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 100
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_traced_command_reports_every_layer_metric():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "linspace-sweep",
                          "--seed", "3", "--seconds", "0", "--trace", "1"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert last["metrics"]["incidence.find_onan.hits"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "iso-relabel",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
