"""Command-line front end tying the pipeline together.

Exit codes: 0 success, 2 parse error, 3 bad input for the requested
operation, 20 kernelize answered NO, 21 solve found the instance
infeasible, 22 verify found the solution invalid, 23 instance too large
for exact search, 24 graph not planar.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from pathlib import Path

from . import formats, generators, transforms
from .graph import Instance, RBGraph
from .kernelizer import RULE_TAGS, kernelize, lift_solution
from .planar import DisconnectedError, is_planar, rbgraph_planarity
from .solver import InstanceTooLargeError, min_rbds, verify_solution

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_INPUT = 3
EXIT_NO = 20
EXIT_INFEASIBLE = 21
EXIT_INVALID = 22
EXIT_TOO_LARGE = 23
EXIT_NONPLANAR = 24


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_instance(path: str) -> Instance:
    return formats.parse_instance(_read(path))


# -- subcommands -------------------------------------------------------------


def cmd_kernelize(args) -> int:
    inst = _load_instance(args.input)
    result = kernelize(inst)
    if result.is_no:
        print("NO reason=%s" % result.reason)
        if args.emit_no_instance:
            neg = Instance(RBGraph.from_parts([1], [2]), 0)
            _write(args.out, formats.format_instance(
                neg, comments=["canonical negative instance"]))
        return EXIT_NO
    kernel = result.instance
    nb, nr = len(kernel.graph.blue), len(kernel.graph.red)
    print("REDUCED nB=%d nR=%d k'=%d bound=46k'=%d" % (nb, nr, kernel.k, 46 * kernel.k))
    if args.out:
        _write(args.out, formats.format_instance(kernel))
    if args.trace:
        _write(args.trace, formats.format_trace(result.trace))
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    outcome = min_rbds(inst.graph)
    if not outcome.feasible:
        print("INFEASIBLE")
        return EXIT_INFEASIBLE
    witness = set(outcome.witness)
    if args.lift:
        trace = formats.parse_trace(_read(args.lift))
        origid = inst.meta.get("origid", {})
        witness = {origid.get(v, v) for v in witness}
        witness = lift_solution(trace, witness)
    print("OPT %d" % len(witness))
    sys.stdout.write(formats.format_solution(witness))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.input)
    chosen = formats.parse_solution(_read(args.solution))
    if verify_solution(inst.graph, chosen):
        print("VALID")
        return EXIT_OK
    print("INVALID")
    return EXIT_INVALID


_GEN_PARAMS = {"grid": "<rows> <cols>", "matching": "<m>", "planar": "<n> <density-percent>"}


def cmd_gen(args) -> int:
    usage = _GEN_PARAMS.get(args.kind, "")
    if len(args.params) < len(usage.split()):
        print("gen %s: needs %s" % (args.kind, usage), file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.kind == "grid":
            inst = generators.gen_grid(args.params[0], args.params[1])
        elif args.kind == "matching":
            inst = generators.gen_matching(args.params[0])
        elif args.kind == "planar":
            inst = generators.gen_random_planar(
                args.params[0], args.params[1] / 100.0, args.seed)
        else:
            print("unknown generator %r" % args.kind, file=sys.stderr)
            return EXIT_BAD_INPUT
    except ValueError as exc:
        print("gen %s: %s" % (args.kind, exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args.out, formats.format_instance(inst))
    return EXIT_OK


def cmd_transform(args) -> int:
    if args.kind == "face-cover":
        if args.k is not None and args.k < 0:
            print("transform face-cover: -k must be non-negative", file=sys.stderr)
            return EXIT_BAD_INPUT
        pg = formats.parse_plane(_read(args.input))
        try:
            g, vmap, fmap = transforms.face_cover_to_rbds(pg)
        except DisconnectedError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_BAD_INPUT
        comments = ["face cover instance via the radial graph, k unchanged"]
        comments += ["facemap %d %d" % (f, b) for f, b in sorted(fmap.items())]
        comments += ["vertexmap %d %d" % (v, r) for v, r in sorted(vmap.items())]
        _write(args.out, formats.format_instance(
            Instance(g, args.k if args.k is not None else len(fmap)), comments=comments))
        return EXIT_OK
    if args.kind == "to-ds":
        inst = _load_instance(args.input)
        try:
            adj, k, ids = transforms.rbds_to_ds(inst)
        except transforms.InfeasibleInputError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_BAD_INPUT
        lines = ["c dominating set instance, budget %d" % k,
                 "c hub %d pendant %d" % (ids["hub"], ids["pendant"]),
                 "p ds %d %d %d" % (len(adj), sum(len(s) for s in adj.values()) // 2, k)]
        lines += ["e %d %d" % (u, v) for u in sorted(adj) for v in sorted(adj[u]) if u < v]
        _write(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    print("unknown transform %r" % args.kind, file=sys.stderr)
    return EXIT_BAD_INPUT


def cmd_check_planar(args) -> int:
    text = _read(args.input)
    heads = (line.split()[:2] for _, line in formats._tokens(text))
    if next((h for h in heads if h[0] != "c"), None) == ["p", "plane"]:
        pg = formats.parse_plane(text)
        res = is_planar(pg.vertices(), pg.edges())
    else:
        res = rbgraph_planarity(formats.parse_instance(text).graph)
    if res.planar:
        print("PLANAR")
        return EXIT_OK
    print("NONPLANAR witness=%s edges=%d" % (res.witness.kind, len(res.witness.edges)))
    return EXIT_NONPLANAR


def cmd_bench(args) -> int:
    if not Path(args.corpus).is_dir():
        print("bench: %s is not a directory" % args.corpus, file=sys.stderr)
        return EXIT_BAD_INPUT
    paths = sorted(Path(args.corpus).glob("*.rbds"))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["instance", "nV_in", "nV_out", "k", "k'",
                     "rules_fired_by_type", "wall_ms", "ratio"])
    for path in paths:
        try:
            inst = formats.parse_instance(path.read_text())
        except (formats.ParseError, UnicodeDecodeError) as exc:
            print("parse error: %s: %s" % (path.name, exc), file=sys.stderr)
            return EXIT_PARSE
        n_in = inst.graph.n_vertices
        start = time.perf_counter()
        result = kernelize(inst)
        ms = (time.perf_counter() - start) * 1000.0
        counts = {tag: 0 for tag in RULE_TAGS}
        for rec in result.trace.records:
            counts[rec.tag] += 1
        fired = ";".join("%s:%d" % (tag, counts[tag]) for tag in RULE_TAGS if counts[tag])
        if result.is_no:
            writer.writerow([path.name, n_in, "", inst.k, "", fired or "-",
                             "%.2f" % ms, ""])
        else:
            n_out = result.instance.graph.n_vertices
            ratio = (n_out / n_in) if n_in else 0.0
            writer.writerow([path.name, n_in, n_out, inst.k, result.instance.k,
                             fired or "-", "%.2f" % ms, "%.4f" % ratio])
    _write(args.out, buf.getvalue())
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbkernel",
        description="Kernelization toolkit for red/blue domination on planar graphs.",
        epilog="Exit codes: 0 ok, 2 parse error, 3 bad input, 20 NO-instance, "
               "21 infeasible, 22 invalid solution, 23 too large, 24 non-planar.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance, log the rule trace")
    p.add_argument("input")
    p.add_argument("--out", help="write the reduced instance here")
    p.add_argument("--trace", help="write the rule trace here")
    p.add_argument("--emit-no-instance", action="store_true",
                   help="on NO, write the canonical two-vertex negative instance")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("solve", help="exact optimum, optionally lifted through a trace")
    p.add_argument("input")
    p.add_argument("--lift", help="trace file; lift the witness to the original instance")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("input")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instances (grid R C | matching M | "
                                   "planar N DENSITY, density in percent)")
    p.add_argument("kind", choices=list(_GEN_PARAMS))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("transform", help="face-cover (plane file) or to-ds (.rbds)")
    p.add_argument("kind", choices=["face-cover", "to-ds"])
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("-k", type=int, default=None, help="budget for face-cover output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check-planar", help="planarity of an instance or plane file")
    p.add_argument("input")
    p.set_defaults(func=cmd_check_planar)

    p = sub.add_parser("bench", help="kernelize every .rbds in a directory, emit CSV")
    p.add_argument("corpus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except formats.ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print("parse error: not UTF-8 text: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except InstanceTooLargeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TOO_LARGE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
