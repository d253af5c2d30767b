"""The benchmark's workloads: seeded inputs, timed items, independent checks.

Each workload is built from the seed (this is the set-up the benchmark
times as ``setup_s``) and exposes a fixed list of items. An item's
``prepare`` runs untimed and returns the arguments of ``run``, which is
timed; ``check`` runs untimed and returns the problems it finds in the
evidence ``run`` returned. Checks work out every expected answer from the
inputs on their own; they never ask the library for one.

The library only ever sees the generated argv (and the files they name)
or, for ``iso-relabel``, the generated structures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable


@dataclass
class Item:
    label: str
    run: Callable
    check: Callable
    prepare: Callable = tuple


@dataclass
class CliRun:
    """Outcome of one in-process ``unitals.cli.main(argv)`` call."""
    argv: list
    outputs: list       # files the call writes
    code: int
    stdout: str
    stderr: str


def call_cli(cli, argv: list, outputs: list = ()) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(argv, list(outputs), code, out.getvalue(), err.getvalue())


def digest(evidence) -> str:
    """sha256 over an item's evidence, including every file its calls wrote."""
    h = hashlib.sha256()
    if isinstance(evidence, list) and evidence and isinstance(evidence[0], CliRun):
        for run in evidence:
            h.update(f"{run.code}\0{run.stdout}\0{run.stderr}\0".encode())
            for path in run.outputs:
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    else:
        h.update(json.dumps(evidence).encode())
    return h.hexdigest()


def bytes_written(evidence) -> int:
    """Bytes a CLI item wrote: standard output plus every output file."""
    if not (isinstance(evidence, list) and evidence and isinstance(evidence[0], CliRun)):
        return 0
    return sum(len(run.stdout.encode()) + sum(os.path.getsize(p) for p in run.outputs)
               for run in evidence)


def _exit_problems(runs: list) -> list:
    return [f"`{' '.join(r.argv)}` exited {r.code}: {r.stderr.strip()[:200]}"
            for r in runs if r.code != 0]


def _lines(text: str) -> list:
    return text.splitlines()


# --- unital-pipeline ---

def unital_answers(q: int) -> dict:
    """Expected values for the Hermitian unital of order q, from formulas."""
    v = q ** 3 + 1
    b = q * q * (q * q - q + 1)
    near = b * (q ** 3 - q)        # non-incident (point, block) pairs
    return {
        "v": v, "b": b, "k": (q + 1) ** 2 * (q - 1),
        "srg": f"v={b} k={(q + 1) ** 2 * (q - 1)} lambda={2 * q * q - 2} mu={(q + 1) ** 2} "
               f"r={q * q - q - 2} s={-(q + 1)} hoffman_bound={q * q}",
        "pencils": v, "near_pencils": near, "maximal_cliques": v + near,
    }


def design_problems(path: str, v: int, k: int) -> list:
    """Problems with `path` as a 2-(v, k, 1) design in incidence-v1 JSON."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("num_points") != v:
        return [f"{path}: {data.get('num_points')} points, want {v}"]
    covered = set()
    for block in data["blocks"]:
        if len(block) != k:
            return [f"{path}: block {block} has {len(block)} points, want {k}"]
        for pair in combinations(block, 2):
            if pair in covered:
                return [f"{path}: pair {pair} lies on two blocks"]
            covered.add(pair)
    if len(covered) != v * (v - 1) // 2:
        return [f"{path}: {len(covered)} of {v * (v - 1) // 2} point pairs covered"]
    return []


class UnitalPipeline:
    """The paper's headline verification, through the CLI, for q in ORDERS.

    The Hermitian unital of each order is unique, so this workload's inputs
    do not depend on the seed. q = 5 is left out of the timed list: one
    q = 5 pipeline takes 11 to 20 s here, so a run holds only one or two
    samples of its stages, and over ten runs the spread of every timing
    reached 0.22 to 0.40 of the median (see README.md).
    """
    name = "unital-pipeline"
    ORDERS = (3, 4)

    def __init__(self, lib, seed: int, workdir: str, orders=ORDERS):
        self.items = [item for q in orders for item in self._stages(lib.cli, q, workdir)]

    @staticmethod
    def _stages(cli, q: int, workdir: str) -> list:
        ans = unital_answers(q)
        h, g, c, r = (os.path.join(workdir, f"{stem}{q}.{ext}") for stem, ext in
                      (("h", "json"), ("h", "dimacs"), ("census", "json"), ("rebuilt", "json")))

        def check_build(run):
            return design_problems(h, ans["v"], q + 1)

        def check_graph(run):
            with open(g, encoding="utf-8") as fh:
                lines = [ln for ln in fh if not ln.startswith("c")]
            m = ans["b"] * ans["k"] // 2
            if lines[0].split() != ["p", "edge", str(ans["b"]), str(m)]:
                return [f"graph header {lines[0].strip()!r}, want p edge {ans['b']} {m}"]
            if len(lines) - 1 != m:
                return [f"graph has {len(lines) - 1} edge lines, want {m}"]
            return []

        def check_srg(run):
            out = _lines(run.stdout)
            if out[:1] != [ans["srg"]] or "matches the confluence graph" not in run.stdout:
                return [f"srg printed {run.stdout.strip()!r}, want {ans['srg']!r}"]
            return []

        def check_max(run):
            want = f"max_clique_size={q * q}"
            return [] if _lines(run.stdout) == [want] else [f"{run.stdout.strip()!r}, want {want}"]

        def check_census(run):
            want = [f"maximal_cliques={ans['maximal_cliques']}",
                    f"sizes={q + 2}:{ans['near_pencils']} {q * q}:{ans['pencils']}",
                    f"tags=near_pencil:{ans['near_pencils']} pencil:{ans['pencils']}"]
            out = _lines(run.stdout)
            problems = []
            if out[:3] != want:
                problems.append(f"census printed {out[:3]}, want {want}")
            if len(out) != 4 or not out[3].startswith("verified:"):
                problems.append(f"census verdict {out[3:]!r}, want a 'verified:' line")
            with open(c, "rb") as fh:
                report = fh.read()
            for tag, n in (("pencil", ans["pencils"]), ("near_pencil", ans["near_pencils"])):
                found = report.count(f'"tag": "{tag}"'.encode())
                if found != n:
                    problems.append(f"census JSON has {found} {tag} records, want {n}")
            return problems

        def check_onan(run):
            want = "onan_configurations=0"
            return [] if _lines(run.stdout) == [want] else [f"{run.stdout.strip()!r}, want {want}"]

        def check_reconstruct(run):
            want = [f"reconstructed unital of order {q}: {ans['v']} points, {ans['b']} blocks",
                    "verified: isomorphic to the target structure"]
            if _lines(run.stdout) != want:
                return [f"reconstruct printed {_lines(run.stdout)}, want {want}"]
            return design_problems(r, ans["v"], q + 1)

        stages = [
            ("build", ["build", "hermitian", "--q", str(q), "-o", h], [h], check_build),
            ("graph", ["graph", h, "-o", g], [g], check_graph),
            ("srg", ["srg", h, "--expect-unital", str(q)], [], check_srg),
            ("max-clique", ["cliques", h, "--max-only"], [], check_max),
            ("census", ["cliques", h, "--classify", "--json", c], [c], check_census),
            ("onan", ["onan", h, "--expect-none"], [], check_onan),
            ("reconstruct", ["reconstruct", g, "-o", r, "--verify", h], [r], check_reconstruct),
        ]
        return [_cli_item(f"q{q}/{label}", cli, argv, outputs, check)
                for label, argv, outputs, check in stages]


def _cli_item(label: str, cli, argv: list, outputs: list, check: Callable) -> Item:
    def run():
        return [call_cli(cli, argv, outputs)]

    def check_item(evidence):
        return _exit_problems(evidence) or check(evidence[0])

    return Item(label, run, check_item)


# --- linspace-sweep ---

CASES = ("affine_plane", "thin_point", "full_pencils")


def deletion_set(case: str, lines: list, num_points: int, q: int, rng: random.Random) -> list:
    """A seeded (q+1)-point set of PG(2,q) whose puncture falls in `case`."""
    if case == "affine_plane":
        return sorted(rng.choice(lines))
    if case == "thin_point":
        line = sorted(rng.choice(lines))
        line.remove(rng.choice(line))
        off = rng.choice([p for p in range(num_points) if p not in line])
        return sorted(line + [off])
    while True:
        points = set(rng.sample(range(num_points), q + 1))
        if all(len(points & line) < q for line in lines):
            return sorted(points)


def onan_count(blocks: list) -> int:
    """Four pairwise-meeting blocks with six distinct meets, by brute force."""
    sets = [frozenset(b) for b in blocks]
    nb = len(sets)
    meet = [[None] * nb for _ in range(nb)]
    for i, j in combinations(range(nb), 2):
        common = sets[i] & sets[j]
        if common:
            meet[i][j] = meet[j][i] = min(common)
    count = 0
    for i, j, k, l in combinations(range(nb), 4):
        pts = (meet[i][j], meet[i][k], meet[i][l], meet[j][k], meet[j][l], meet[k][l])
        if None not in pts and len(set(pts)) == 6:
            count += 1
    return count


def onan_config_problems(blocks: list, line: str) -> list:
    """Problems with one printed `blocks=a,b,c,d points=...` configuration."""
    try:
        head, tail = line.split()
        quad = [int(x) for x in head.removeprefix("blocks=").split(",")]
        points = [int(x) for x in tail.removeprefix("points=").split(",")]
        sets = [frozenset(blocks[i]) for i in quad]
    except (ValueError, IndexError):
        return [f"unparseable configuration line {line!r}"]
    meets = [a & b for a, b in combinations(sets, 2)]
    if len(set(quad)) != 4 or any(len(m) != 1 for m in meets):
        return [f"{line!r}: blocks are not 4 pairwise-meeting blocks"]
    meet_points = sorted(min(m) for m in meets)
    if len(set(meet_points)) != 6 or meet_points != points:
        return [f"{line!r}: meets {meet_points} are not the 6 printed distinct points"]
    return []


def witness_problems(blocks: list, n: int, q: int, embedding: dict) -> list:
    """Re-check a JSON embedding witness of a punctured plane."""
    host = embedding["host"]
    hn = host["num_points"]
    host_lines = [frozenset(b) for b in host["blocks"]]
    pm = embedding["point_map"]
    problems = []
    if hn != q * q + q + 1 or len(host_lines) != hn or any(len(b) != q + 1 for b in host_lines):
        problems.append("host is not shaped like a projective plane of order q")
    if len(pm) != n or any(not 0 <= h < hn for h in pm):
        return problems + ["point_map has the wrong length or leaves the host"]
    if len(set(pm)) != n:
        problems.append("point_map is not injective")
    for block in blocks:
        image = {pm[x] for x in block}
        hosts = sum(1 for line in host_lines if image <= line)
        if hosts != 1:
            problems.append(f"image of line {block} lies in {hosts} host lines")
            break
    deleted = sorted(set(range(hn)) - set(pm))
    if embedding["deleted"] != deleted or len(deleted) != q + 1:
        problems.append("deleted set is not the q+1 host points outside the image")
    return problems


class LinspaceSweep:
    """Seeded (q+1)-point deletions of PG(2,q), classified through the CLI.

    ITEMS gives the items per pass for each q; the three cases take turns.
    The embedding witness is requested for q <= EMBED_MAX_Q (the
    full-pencils search is limited to q <= 4) and the O'Nan scan runs for
    q <= ONAN_MAX_Q.
    """
    name = "linspace-sweep"
    ITEMS = {3: 48, 4: 48, 5: 48, 7: 32, 8: 32, 9: 32}
    EMBED_MAX_Q = 4
    ONAN_MAX_Q = 5

    def __init__(self, lib, seed: int, workdir: str, items=ITEMS):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for q, count in items.items():
            plane = lib.incidence.projective_plane(q)
            lines = [frozenset(b) for b in plane.blocks]
            for k in range(count):
                deleted = deletion_set(CASES[k % 3], lines, plane.num_points, q, rng)
                self.items.append(self._item(lib.cli, q, lines, plane.num_points, deleted,
                                             workdir, k))
        rng.shuffle(self.items)

    def _item(self, cli, q, lines, num_points, deleted, workdir, k) -> Item:
        d = os.path.join(workdir, f"punct-q{q}-{k}.json")
        r = os.path.join(workdir, f"class-q{q}-{k}.json")
        embed = q <= self.EMBED_MAX_Q
        calls = [(["build", "puncture", "--q", str(q), "--delete", ",".join(map(str, deleted)),
                   "-o", d], [d]),
                 (["classify-linspace", d, "--q", str(q)] + (["--embed", "--json", r] if embed else []),
                  [r] if embed else [])]
        if q <= self.ONAN_MAX_Q:
            calls.append((["onan", d], []))

        def run():
            return [call_cli(cli, argv, outputs) for argv, outputs in calls]

        def check(evidence):
            return _exit_problems(evidence) or self._check(q, lines, num_points, deleted,
                                                           d, r if embed else None, evidence)

        return Item(f"q{q}/{k}", run, check)

    @staticmethod
    def _check(q, lines, num_points, deleted, d, r, evidence) -> list:
        dset = set(deleted)
        survivors = [p for p in range(num_points) if p not in dset]
        index = {p: i for i, p in enumerate(survivors)}
        want_blocks = sorted(tuple(sorted(index[p] for p in line if p in index))
                             for line in lines if len(line - dset) >= 2)
        with open(d, encoding="utf-8") as fh:
            data = json.load(fh)
        if data["num_points"] != q * q or data["blocks"] != [list(b) for b in want_blocks]:
            return [f"{d}: punctured structure differs from PG({q}) minus {deleted}"]
        blocks = data["blocks"]

        hit = max(len(line & dset) for line in lines)
        case = {q + 1: "affine_plane", q: "thin_point"}.get(hit, "full_pencils")
        full = sum(1 for line in lines if not line & dset)
        out = _lines(evidence[1].stdout)
        want = f"case={case} q={q} line_count={len(blocks)} projective_lines={full}"
        if out[:1] != [want]:
            return [f"classify printed {out[:1]}, want {want!r}"]
        problems = []
        if case == "thin_point":
            line = next(line for line in lines if len(line & dset) == q)
            u = index[min(line - dset)]
            parts = out[1].split() if len(out) > 1 else []
            s_line = int(parts[1].removeprefix("thin_line=")) if len(parts) == 2 else -1
            if (parts[:1] != [f"thin_point={u}"] or not 0 <= s_line < len(blocks)
                    or len(blocks[s_line]) != q or u not in blocks[s_line]):
                problems.append(f"thin point line {out[1:2]}, want thin_point={u} "
                                f"on a line of size {q}")
        if r is not None:
            with open(r, encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("case") != case or "embedding" not in payload:
                problems.append(f"JSON report case {payload.get('case')!r}, want {case!r} "
                                f"with an embedding")
            else:
                problems += witness_problems(blocks, q * q, q, payload["embedding"])
        if len(evidence) > 2:
            onan = _lines(evidence[2].stdout)
            count = onan_count(blocks)
            if onan[:1] != [f"onan_configurations={count}"]:
                problems.append(f"onan printed {onan[:1]}, want onan_configurations={count}")
            for line in onan[1:21]:
                problems += onan_config_problems(blocks, line)
            tail = [f"... {count - 20} more"] if count > 20 else []
            if len(onan) != 1 + min(count, 20) + len(tail) or onan[21:] != tail:
                problems.append(f"onan printed {len(onan) - 1} configuration lines for {count}")
        return problems


# --- iso-relabel ---

class IsoRelabel:
    """isomorphic(relabelled, original) on seeded point relabellings.

    MIX gives the relabellings per pass of each original. Punctures are
    full-pencils deletions of PG(2,q): the conic first, then seeded sets.
    Each pass hands the search freshly built structures, so no cached
    property of an earlier pass is reused.

    The search time of one relabelling depends on the relabelling: on the
    machine described in README.md, h4 took 8 to 44 ms and PG(2,5) 1.4 to
    50 ms. The counts are chosen so that neither quantile lies where such
    spread lives: about as many items are cheaper than the PG(2,4)
    relabellings (0.7 to 1.2 ms) as are dearer, so the median falls inside
    that tight group, and the h4 relabellings are about a quarter of the
    items, so the 90th percentile falls inside their bulk.
    """
    name = "iso-relabel"
    MIX = (("pg", 2, 12), ("pg", 3, 64), ("punct", 4, 64), ("pg", 4, 112),
           ("punct", 5, 12), ("h", 3, 16), ("punct", 7, 16), ("pg", 5, 12), ("h", 4, 96))

    def __init__(self, lib, seed: int, workdir: str, mix=MIX):
        rng = random.Random(f"{self.name}:{seed}")
        inc = lib.incidence
        self.items = []
        for kind, q, count in mix:
            if kind == "punct":
                plane = inc.projective_plane(q)
                lines = [frozenset(b) for b in plane.blocks]
                originals = [inc.puncture(plane, inc.conic_points(q) if k == 0 else
                                          deletion_set("full_pencils", lines,
                                                       plane.num_points, q, rng))
                             for k in range(count)]
            else:
                build = inc.hermitian_unital if kind == "h" else inc.projective_plane
                originals = [build(q)] * count
            self.items += [self._item(lib, f"{kind}{q}/{k}", original, rng)
                           for k, original in enumerate(originals)]
        rng.shuffle(self.items)

    @staticmethod
    def _item(lib, label: str, original, rng: random.Random) -> Item:
        n = original.num_points
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [sorted(perm[p] for p in b) for b in original.blocks]
        rng.shuffle(relabelled)
        blocks = [list(b) for b in original.blocks]
        targets = {tuple(b) for b in blocks}

        def prepare():
            structure = lib.incidence.IncidenceStructure
            return structure(n, relabelled), structure(n, blocks)

        def run(a, b):
            return lib.reconstruct.isomorphic(a, b)

        def check(sigma):
            if sigma is None:
                return ["isomorphic returned None for a relabelled copy"]
            if sorted(sigma) != list(range(n)):
                return ["map is not a bijection of the points"]
            images = {tuple(sorted(sigma[p] for p in b)) for b in relabelled}
            if images != targets:
                return ["map does not carry the blocks onto the blocks"]
            return []

        return Item(label, run, check, prepare)


WORKLOADS = {w.name: w for w in (UnitalPipeline, LinspaceSweep, IsoRelabel)}
