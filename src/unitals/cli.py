"""Command-line interface.

Subcommands: build, graph, srg, cliques, onan, classify-linspace,
reconstruct, isomorphic. All outputs are deterministic: identical inputs
produce byte-identical files.

Exit codes: 0 on success, 1 when a checked verification property fails
(wrong parameters, a census VIOLATION, configurations found against
--expect-none, failed reconstruction or isomorphism, VerificationFailed),
2 on usage or I/O errors and any other GeometryError, 3 on any other
exception (an internal error, such as running out of memory). A write
to a stdout that its reader has closed is an I/O error: exit 2, with the
one stderr line "error: [Errno 32] Broken pipe".

The argument parser is built once per process, on the first main() call,
and reused by later calls; each call parses its own argv.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter

from . import cliques as cliques_mod
from . import confluence as confl
from . import incidence as inc
from . import linspace as lsp
from . import reconstruct as rec
from .errors import GeometryError, VerificationFailed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitals",
        description="Construct unitals and related geometries, build their "
                    "confluence graphs, and verify their clique structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a structure, write incidence-v1 JSON")
    p.add_argument("target", choices=["hermitian", "pg", "ag", "puncture"])
    p.add_argument("--q", type=int, required=True, help="order parameter q")
    p.add_argument("--delete", metavar="SPEC",
                   help="puncture only: line | line-swap | conic | comma-separated point indices")
    p.add_argument("--in", dest="input", metavar="FILE",
                   help="puncture only: structure to puncture (default: pg of order q)")
    p.add_argument("-o", "--output", metavar="FILE", help="output path (default: stdout)")

    p = sub.add_parser("graph", help="confluence graph of a structure, as DIMACS")
    p.add_argument("input", metavar="FILE")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("srg", help="strong-regularity parameters of the confluence graph")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--expect-unital", type=int, metavar="Q",
                   help="fail unless parameters match a unital of order Q")

    p = sub.add_parser("cliques", help="maximal cliques of the confluence graph")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--classify", action="store_true",
                   help="tag cliques; on a unital, verify the pencil/near-pencil census")
    p.add_argument("--max-only", action="store_true", help="print only the maximum size")
    p.add_argument("--json", metavar="PATH", help="write the full clique report as JSON")

    p = sub.add_parser("onan", help="search 4-line/6-point configurations")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--limit", type=int, default=0,
                   help="cap the printed count at N (0 = exhaustive)")
    p.add_argument("--expect-none", action="store_true",
                   help="exit 1 if any configuration is found")

    p = sub.add_parser("classify-linspace", help="three-way linear-space classification")
    p.add_argument("input", metavar="FILE")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--embed", action="store_true", help="also compute the embedding witness")
    p.add_argument("--json", metavar="PATH")

    p = sub.add_parser("reconstruct", help="rebuild a unital from a DIMACS confluence graph")
    p.add_argument("input", metavar="GRAPH.dimacs")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--verify", metavar="STRUCT.json",
                   help="check the rebuilt unital is isomorphic to this structure")

    p = sub.add_parser("isomorphic", help="search a point bijection between two structures")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _deletion_set(plane: inc.IncidenceStructure, spec: str, q: int) -> set[int]:
    if spec in ("line", "line-swap") and not plane.blocks:
        raise ValueError(f"--delete {spec} needs a block 0")
    if spec == "line":
        return set(plane.blocks[0])
    if spec == "line-swap":
        w = plane.blocks[0]
        u = w[0]
        v = next((p for p in range(plane.num_points) if p not in w), None)
        if v is None:
            raise ValueError("--delete line-swap needs a point off block 0")
        return (set(w) - {u}) | {v}
    if spec == "conic":
        canonical = inc.projective_plane(q)
        if plane != canonical:
            raise ValueError("--delete conic requires the canonical pg plane of order q")
        return set(inc.conic_points(q))
    try:
        points = {int(tok) for tok in spec.split(",")}
    except ValueError:
        raise ValueError(f"bad --delete spec {spec!r}") from None
    return points


def cmd_build(args) -> int:
    if args.target == "hermitian":
        out = inc.hermitian_unital(args.q)
    elif args.target == "pg":
        out = inc.projective_plane(args.q)
    elif args.target == "ag":
        out = inc.affine_plane(args.q)
    else:
        if args.delete is None:
            raise ValueError("puncture requires --delete")
        plane = inc.read_json(args.input) if args.input else inc.projective_plane(args.q)
        out = inc.puncture(plane, _deletion_set(plane, args.delete, args.q))
    _emit(inc.format_json(out), args.output)
    return 0


def cmd_graph(args) -> int:
    S = inc.read_json(args.input)
    G = confl.build_confluence(S)
    comment = "confluence graph: vertices are blocks, edges join blocks sharing a point"
    _emit(confl.format_dimacs(G, (comment,)), args.output)
    return 0


def cmd_srg(args) -> int:
    # an order below 2 is a usage error, reported before any input is read
    expected = (None if args.expect_unital is None
                else confl.expected_unital_params(args.expect_unital))
    S = inc.read_json(args.input)
    G = confl.build_confluence(S)
    params = confl.srg_check(G)
    if params is None:
        print(f"vertices={G.n} not strongly regular")
        return 1 if expected is not None else 0
    bound = confl.hoffman_bound(params)
    print(f"v={params.v} k={params.k} lambda={params.lam} mu={params.mu} "
          f"r={params.r} s={params.s} hoffman_bound={bound}")
    if expected is not None:
        if params != expected:
            print(f"MISMATCH: expected {expected} for a unital of order {args.expect_unital}")
            return 1
        print(f"matches the confluence graph of a unital of order {args.expect_unital}")
    return 0


def cmd_cliques(args) -> int:
    if args.max_only and (args.classify or args.json):
        raise ValueError("--max-only cannot be combined with --classify or --json")
    S = inc.read_json(args.input)
    G = confl.build_confluence(S)
    if args.max_only:
        print(f"max_clique_size={cliques_mod.max_clique_size(G)}")
        return 0
    found = cliques_mod.enumerate_maximal_cliques(G)
    # report order (-size, blocks): found is sorted and the sort is stable
    found.sort(key=len, reverse=True)
    sizes = Counter(len(c) for c in found)
    print(f"maximal_cliques={len(found)}")
    print("sizes=" + " ".join(f"{s}:{c}" for s, c in sorted(sizes.items())))
    status = 0
    tagged: list = [()] * len(found)  # records carry no tag without --classify
    if args.classify:
        tagged = [cliques_mod.classify_clique(S, c) for c in found]
        tags = Counter(t.tag for t in tagged)
        print("tags=" + " ".join(f"{t}:{c}" for t, c in sorted(tags.items())))
        q = inc.validate_unital(S)
        if q is not None:
            status = _unital_census(S, q, Counter(zip((t.tag for t in tagged), map(len, found))))
    if args.json:
        _write_clique_report(args.json, found, tagged, G.n)
    return status


def _unital_census(S: inc.IncidenceStructure, q: int, kinds: Counter) -> int:
    """Print the verdict on the maximal cliques of S, a unital of order q,
    from the count of each (tag, size); return the exit code.

    In every unital the q^3+1 pencils are maximal cliques of size q^2,
    and no clique is larger or, save near pencils at q = 2, as large.
    Every maximal clique is a pencil or a near pencil exactly when S has
    no O'Nan configuration (a clique holding one is neither; a maximal
    one holding none is one of the two), as in the Hermitian unitals
    (O'Nan 1972). So the scan runs only when some clique is neither, and
    finding no configuration then is a VIOLATION.
    """
    pencils = kinds[("pencil", q * q)]
    others = sum(count for (tag, size), count in kinds.items()
                 if size > q * q or size == q * q and tag == "other")
    if pencils != q**3 + 1 or others:
        print(f"VIOLATION: maximal cliques of size {q * q} or more: {pencils} pencils, "
              f"{others} others; expected the {q**3 + 1} pencils alone")
        return 1
    bad = sum(count for (tag, size), count in kinds.items()
              if not (tag == "pencil" and size == q * q
                      or tag == "near_pencil" and size == q + 2))
    if not bad:
        print(f"verified: every maximal clique is a pencil (size {q * q}) "
              f"or a near pencil (size {q + 2})")
    elif inc.count_onan(S, limit=1) == 0:
        print(f"VIOLATION: {bad} cliques are neither pencils of size "
              f"{q * q} nor near pencils of size {q + 2}")
        return 1
    else:
        print(f"verified: the maximal cliques of size {q * q} are the {q**3 + 1} pencils, "
              f"and none is larger")
    return 0


def _write_clique_report(path: str, found, tagged, n: int) -> None:
    """Write the clique report: byte for byte what json.dump(..., indent=1)
    writes, plus a newline, for the records {"blocks", "size", "tag",
    "point", "line"} of the cliques in found, None values left out.
    tagged[i] classifies found[i], or is () for no tag; n is the vertex
    count. Each record is written as soon as it is made; tags are fixed
    ASCII words, so they need no escaping."""
    names = [str(i) for i in range(n)]  # each block index formatted once
    with open(path, "w", encoding="utf-8") as fh:
        head = "[\n"  # what goes before the next record
        for blocks, t in zip(found, tagged):
            tag, point, line = t or (None, None, None)
            fh.write(head + ' {\n  "blocks": [\n   ' + ",\n   ".join(map(names.__getitem__, blocks))
                     + f'\n  ],\n  "size": {len(blocks)}'
                     + (f',\n  "tag": "{tag}"' if tag is not None else "")
                     + (f',\n  "point": {point}' if point is not None else "")
                     + (f',\n  "line": {line}' if line is not None else "") + "\n }")
            head = ",\n"
        fh.write("[]\n" if head == "[\n" else "\n]\n")


def cmd_onan(args) -> int:
    S = inc.read_json(args.input)
    shown = min(args.limit or 20, 20)
    configs = inc.find_onan(S, limit=shown)
    count = len(configs)
    if count == shown and args.limit != shown:  # more may follow: count them
        count = inc.count_onan(S, limit=args.limit)
    print(f"onan_configurations={count}")
    for cfg in configs:
        print(f"blocks={','.join(map(str, cfg.blocks))} "
              f"points={','.join(map(str, cfg.points))}")
    if count > 20:
        print(f"... {count - 20} more")
    if args.expect_none and count:
        return 1
    return 0


def cmd_classify_linspace(args) -> int:
    S = inc.read_json(args.input)
    result = lsp.classify(S, args.q, embed=args.embed)
    print(f"case={result.case} q={result.q} line_count={result.line_count} "
          f"projective_lines={len(result.projective_lines)}")
    if result.case == "thin_point":
        print(f"thin_point={result.thin_point} thin_line={result.thin_line}")
    payload: dict = {
        "case": result.case,
        "q": result.q,
        "line_count": result.line_count,
        "projective_lines": list(result.projective_lines),
        "thin_point": result.thin_point,
        "thin_line": result.thin_line,
    }
    if result.embedding is not None:
        w = result.embedding
        print(f"embedding: host_points={w.host.num_points} deleted={list(w.deleted)}")
        payload["embedding"] = {
            "host": inc.to_json_dict(w.host),
            "point_map": list(w.point_map),
            "deleted": list(w.deleted),
        }
    if args.json:
        _emit(inc._json_text(payload) + "\n", args.json)
    return 0


def cmd_reconstruct(args) -> int:
    G = confl.read_dimacs(args.input)
    structure = rec.reconstruct_unital(G)
    _emit(inc.format_json(structure), args.output)
    if args.output is not None:
        q = len(structure.blocks[0]) - 1
        note = " (order-2 shortcut)" if q == 2 else ""
        print(f"reconstructed unital of order {q}: {structure.num_points} points, "
              f"{len(structure.blocks)} blocks{note}")
    if args.verify:
        # stdout carries the JSON when there is no -o, so the verdict goes aside
        verdict_to = sys.stdout if args.output is not None else sys.stderr
        target = inc.read_json(args.verify)
        witness = rec.isomorphic(structure, target)
        if witness is None:
            print("verification FAILED: rebuilt structure is not isomorphic to the target",
                  file=verdict_to)
            return 1
        print("verified: isomorphic to the target structure", file=verdict_to)
    return 0


def cmd_isomorphic(args) -> int:
    A = inc.read_json(args.a)
    B = inc.read_json(args.b)
    witness = rec.isomorphic(A, B)
    if witness is None:
        print("none")
        return 1
    print(json.dumps(witness))
    return 0


_DISPATCH = {
    "build": cmd_build,
    "graph": cmd_graph,
    "srg": cmd_srg,
    "cliques": cmd_cliques,
    "onan": cmd_onan,
    "classify-linspace": cmd_classify_linspace,
    "reconstruct": cmd_reconstruct,
    "isomorphic": cmd_isomorphic,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
