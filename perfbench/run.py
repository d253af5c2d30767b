"""Benchmark of the unitals library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload unital-pipeline --seed 1 --seconds 40 --trace 0

One run builds the workload from the seed (timed as set-up), then runs
passes over the workload's fixed item list in one process and one thread,
each item after the previous one completes (a closed loop with one
client), until the next pass would overrun ``--seconds``. The set-up is
timed once more after every pass, so its samples span the run as the
passes do. An item's latency is its fastest time over the passes.
Every item's output is checked; see workloads.py.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Details
and the spans of a traced run go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
MIN_PASSES = 2

sys.path.insert(0, str(BENCH))
from spans import (END, ITEM, LIBRARY_MODULES, NAME, PARENT, START, Tracer,  # noqa: E402
                   summarize, traced)
from workloads import WORKLOADS, bytes_written, digest  # noqa: E402

# (metric, unit) reported by a traced run: <module>.<function>.<stat>
LAYER_METRICS = (
    ("cliques.enumerate_maximal_cliques.s", "s"),
    ("cliques.enumerate_maximal_cliques.calls", "count"),
    ("cliques.enumerate_maximal_cliques.cliques", "count"),
    ("cliques.classify_clique.s", "s"),
    ("cliques.classify_clique.calls", "count"),
    ("cliques.max_clique_size.s", "s"),
    ("incidence.find_onan.s", "s"),
    ("incidence.find_onan.calls", "count"),
    ("incidence.find_onan.hits", "count"),
    ("reconstruct.reconstruct_unital.self_s", "s"),
    ("reconstruct.isomorphic.s", "s"),
    ("reconstruct.isomorphic.calls", "count"),
    ("linspace.classify.s", "s"),
    ("linspace.embed_full_pencils.s", "s"),
    ("linspace.embed_full_pencils.calls", "count"),
    ("linspace.embedding_errors.s", "s"),
    ("algebra.field_create.s", "s"),
    ("algebra.field_create.calls", "count"),
    ("incidence.projective_plane.s", "s"),
    ("incidence.projective_plane.calls", "count"),
    ("incidence.puncture.s", "s"),
    ("incidence.validate.s", "s"),
    ("incidence.validate.calls", "count"),
    ("incidence.hermitian_unital.s", "s"),
    ("confluence.build_confluence.s", "s"),
    ("confluence.srg_check.s", "s"),
    ("confluence.read_dimacs.s", "s"),
    ("incidence.read_json.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
)


def is_library(module_name: str) -> bool:
    return module_name == "unitals" or module_name.startswith("unitals.")


def import_library():
    """Import unitals afresh from this checkout's src/ (not an installed copy)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if is_library(k)]:
        del sys.modules[key]
    importlib.invalidate_caches()
    package = importlib.import_module("unitals")
    if Path(package.__file__).resolve().parent != SRC / "unitals":
        raise ImportError(f"unitals was imported from {package.__file__}, not from {SRC}")
    for module in LIBRARY_MODULES + ("cli",):
        importlib.import_module(f"unitals.{module}")
    return package


def set_up(name: str, seed: int, workdir: str):
    """Import unitals afresh and build the workload's inputs: (seconds, workload)."""
    start = perf_counter()
    lib = import_library()
    workload = WORKLOADS[name](lib, seed, workdir)
    return perf_counter() - start, workload


def set_up_again(name: str, seed: int, workdir: str) -> float:
    """Time one more set-up, then put back the modules the run's items use,
    so that later passes, traced ones too, work on the same objects."""
    running = {k: m for k, m in sys.modules.items() if is_library(k)}
    try:
        return set_up(name, seed, workdir)[0]
    finally:
        for key in [k for k in sys.modules if is_library(k)]:
            del sys.modules[key]
        sys.modules.update(running)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "cpu": cpu}


def git_commit() -> str:
    """HEAD's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_pass(items, verified: dict, tracer: Tracer | None = None):
    """Run every item once. Returns (latencies, failed items, bytes written).

    The first time an item's output passes its check, its digest is kept;
    later passes must reproduce that digest byte for byte.
    """
    latencies, failures, written = [], [], 0
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        args = item.prepare()
        gc.collect()  # every item starts from the same collector state
        start = perf_counter()
        try:
            evidence = item.run(*args)
        except Exception:  # an item that raises is a failed item, not a failed run
            latencies.append(perf_counter() - start)
            failures.append((item.label, traceback.format_exc(limit=1).strip().splitlines()[-1]))
            continue
        latencies.append(perf_counter() - start)
        try:
            key = digest(evidence)
            if index not in verified:
                problems = item.check(evidence)
                if not problems:
                    verified[index] = key
            elif key != verified[index]:
                problems = ["output differs from the first verified pass"]
            else:
                problems = []
            written += bytes_written(evidence)
        except Exception:  # malformed evidence that trips the check is a failure
            problems = [traceback.format_exc(limit=1).strip().splitlines()[-1]]
        if problems:
            failures.append((item.label, "; ".join(problems)))
    return latencies, failures, written


def measure(items, seconds: float, trace: bool, time_set_up=None) -> dict:
    """Passes over `items` until the next one would overrun `seconds`.

    At least MIN_PASSES passes are made, so every item has more than one
    sample even when one pass takes most of `seconds`. A traced run
    alternates untraced and traced passes, starting untraced. After every
    pass, `time_set_up`, if given, times one more set-up; a set-up timed
    only at the start would catch the machine in one moment of its swings.
    """
    kinds = (False, True) if trace else (False,)
    verified: dict = {}
    passes = {False: [], True: []}   # per kind, one list of item latencies per pass
    failures, layers, spans, setups = [], [], [], []
    attempted = 0
    begin = perf_counter()
    n = 0
    while True:
        is_traced = kinds[n % len(kinds)]
        pass_start = perf_counter()
        if is_traced:
            tracer = Tracer()
            with traced(tracer):
                times, fails, written = run_pass(items, verified, tracer)
            stats = summarize(tracer.spans)
            stats["cli.bytes_written"] = written
            layers.append(stats)
            spans = tracer.spans
        else:
            times, fails, written = run_pass(items, verified)
        passes[is_traced].append(times)
        attempted += len(items)
        failures += fails
        n += 1
        if n == 1:
            # ru_maxrss never falls; later passes can only add allocator
            # fragmentation, which would tie the figure to the pass count
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time_set_up is not None:
            setups.append(time_set_up())
        last = perf_counter() - pass_start
        if n >= MIN_PASSES and perf_counter() - begin + last > seconds:
            break
    return {"passes": passes, "failures": failures, "attempted": attempted,
            "layers": layers, "spans": spans, "peak_rss_mib": peak_rss, "setups": setups}


def item_latencies(passes: list) -> list:
    """Each item's latency: its fastest time over the passes.

    The speed of a shared machine swings by up to half for seconds at a
    time; the per-item median over a 40 s run still moved by a quarter
    between runs, the per-item minimum by 2% (see README.md)."""
    return [min(times) for times in zip(*passes)]


def layer_shares(items, spans: list, wall: float) -> list:
    """Lines giving each module's self time as a share of `wall`, the time
    of the pass that recorded `spans`, and per item group the time inside
    cliques, find_onan and reconstruct."""
    by_module: dict = {}
    for key, value in summarize(spans).items():
        if key.endswith(".self_s"):
            module = key.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + value
    lines = ["self time by module: " + " ".join(
        f"{m}={t:.3f}s({t / wall:.0%})" for m, t in sorted(by_module.items(), key=lambda kv: -kv[1]))]
    heavy = ("cliques.", "incidence.find_onan", "reconstruct.")
    inside: dict = {}
    total: dict = {}
    for span in spans:
        group = items[span[ITEM]].label.split("/")[0]
        if span[PARENT] == -1:
            total[group] = total.get(group, 0.0) + span[END] - span[START]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        if span[NAME].startswith(heavy) and not parent.startswith(heavy):
            inside[group] = inside.get(group, 0.0) + span[END] - span[START]
    for group in sorted(inside):
        lines.append(f"{group}: cliques + find_onan + reconstruct spans {inside[group]:.3f}s "
                     f"of {total[group]:.3f}s ({inside[group] / total[group]:.0%})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unitals" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'unitals'}; run from a full checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    try:
        first, workload = set_up(args.workload, args.seed, workdir)
        gc.collect()
        gc.freeze()  # the inputs live all run; keep them out of every collection
        result = measure(workload.items, args.seconds, bool(args.trace),
                         lambda: set_up_again(args.workload, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, workload.items, [first] + result["setups"], result)


def report(args, items, setups: list, result: dict) -> int:
    env = environment()
    passes = result["passes"]
    pass_walls = {kind: [sum(times) for times in runs] for kind, runs in passes.items()}
    wall = sum(item_latencies(passes[False]))
    failed = len(result["failures"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes untraced={len(passes[False])} traced={len(passes[True])} "
          f"items_per_pass={len(items)} attempted={result['attempted']} failed={failed} "
          f"failed_share={failed / result['attempted']:.6f}")
    for label, problem in result["failures"][:10]:
        print(f"FAILED {label}: {problem}")

    if args.trace:
        traced_wall = sum(item_latencies(passes[True]))
        metrics = {name: {"value": statistics.median(s.get(name, 0.0) for s in result["layers"]),
                          "unit": unit} for name, unit in LAYER_METRICS}
        metrics["trace_overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        print(f"wall_s traced={traced_wall:.4f} untraced={wall:.4f}")
        for line in layer_shares(items, result["spans"], pass_walls[True][-1]):
            print(line)
    else:
        item_ms = [t * 1000 for t in item_latencies(passes[False])]
        p90 = statistics.quantiles(item_ms, n=10, method="inclusive")[-1]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "item_p50_ms": {"value": statistics.median(item_ms), "unit": "ms"},
            "item_p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
        print(f"pass walls: {' '.join(f'{w:.4f}' for w in pass_walls[False])}")
        print(f"item latency (fastest of {len(passes[False])} passes): n={len(item_ms)} items, "
              f"{sum(1 for t in item_ms if t > p90)} beyond p90")
        print(f"setup_s: median of {len(setups)} set-ups ({' '.join(f'{s:.4f}' for s in setups)})")
    for name, m in metrics.items():
        print(f"{name}={m['value']} {m['unit']}")

    out = {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
           "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(out, env=env, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  item_latencies=passes[False], traced_item_latencies=passes[True],
                  setups=setups, failures=result["failures"][:100])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
