"""Command-line front end tying the pipeline together.

Exit codes: 0 success, 2 parse error, 3 bad input for the requested
operation, 20 kernelize answered NO, 21 solve found the instance
infeasible, 22 verify found the solution invalid, 23 instance too large
for exact search, 24 graph not planar.

``kernelize`` writes ``--out`` and ``--trace`` on every verdict; on NO,
``--out`` gets the canonical two-vertex negative instance.  ``solve`` takes
``--lift`` and ``--original`` together or not at all (else exit 3), and
``solve --lift`` prints a lifted solution only after four checks, in this
order: the trace's fingerprint is that of ``--original`` (else exit 3), the
trace replays on it, rule by rule, to the kernel under its original ids
(else exit 3), that graph is solved and the solution lifted, and the lift
dominates ``--original`` (else exit 22).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats, generators, transforms
from .graph import GraphError, Instance, RBGraph
from .kernelizer import (SIZE_FACTOR, fingerprint_instance, kernelize, lift_solution,
                         replay_trace)
from .planar import bipartite_euler_bound, planar_verdict
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
        kernel = Instance(RBGraph.from_parts([1], [2]), 0)
        comments = ["canonical negative instance"]
    else:
        kernel = result.instance
        nb, nr = len(kernel.graph.blue), len(kernel.graph.red)
        print("REDUCED nB=%d nR=%d k'=%d bound=%dk'=%d"
              % (nb, nr, kernel.k, SIZE_FACTOR, SIZE_FACTOR * kernel.k))
        comments = ()
    if args.out:
        _write(args.out, formats.format_instance(kernel, comments=comments))
    if args.trace:
        _write(args.trace, formats.format_trace(result.trace))
    return EXIT_NO if result.is_no else EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args.input)
    g = inst.graph
    if bool(args.lift) != bool(args.original):
        print("solve --lift and --original go together: the trace and the instance it was "
              "written for", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.lift:
        original = _load_instance(args.original)
        trace = formats.parse_trace(_read(args.lift))
        fp = fingerprint_instance(original)
        if trace.fingerprint != fp:
            theirs = ("missing" if trace.fingerprint is None
                      else formats.format_fingerprint(trace.fingerprint))
            print("the trace is not of %s: its fingerprint is %s, the instance's %s"
                  % (args.original, theirs, formats.format_fingerprint(fp)), file=sys.stderr)
            return EXIT_BAD_INPUT
        try:
            g = formats.in_original_ids(inst)
            replay_trace(original.graph, trace, g)
        except GraphError as exc:  # a bad record, or origid comments naming an id twice
            print("the trace does not replay to %s: %s" % (args.input, exc), file=sys.stderr)
            return EXIT_BAD_INPUT
    outcome = min_rbds(g)
    if not outcome.feasible:
        print("INFEASIBLE")
        return EXIT_INFEASIBLE
    witness = set(outcome.witness)
    if args.lift:
        witness = lift_solution(trace, witness)
        if not verify_solution(original.graph, witness):
            print("the lifted solution does not dominate %s" % args.original, file=sys.stderr)
            return EXIT_INVALID
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
    usage = _GEN_PARAMS[args.kind]
    if len(args.params) != len(usage.split()):
        print("gen %s: needs %s, got %d parameters" % (args.kind, usage, len(args.params)),
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.seed is not None and args.kind != "planar":
        print("gen %s: takes no --seed" % args.kind, file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.kind == "grid":
            inst = generators.gen_grid(args.params[0], args.params[1])
        elif args.kind == "matching":
            inst = generators.gen_matching(args.params[0])
        else:  # planar
            inst = generators.gen_random_planar(
                args.params[0], args.params[1] / 100.0, args.seed or 0)
    except ValueError as exc:
        print("gen %s: %s" % (args.kind, exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args.out, formats.format_instance(inst))
    return EXIT_OK


def cmd_transform(args) -> int:
    pg = formats.parse_plane(_read(args.input))
    try:
        g, vmap, fmap = transforms.face_cover_to_rbds(pg)
    except GraphError as exc:  # disconnected, or not a plane embedding
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    comments = ["face cover instance via the radial graph, k unchanged"]
    comments += ["facemap %d %d" % (f, b) for f, b in sorted(fmap.items())]
    comments += ["vertexmap %d %d" % (v, r) for v, r in sorted(vmap.items())]
    try:
        text = formats.format_instance(
            Instance(g, args.k if args.k is not None else len(fmap)), comments=comments)
    except ValueError as exc:
        print("transform face-cover: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args.out, text)
    return EXIT_OK


def cmd_check_planar(args) -> int:
    text = _read(args.input)
    heads = (line.split()[:2] for _, line in formats._tokens(text))
    if next((h for h in heads if h[0] != "c"), None) == ["p", "plane"]:
        adj = formats.parse_plane(text).rotation  # the edge set; its rotation is not checked
    else:
        g = formats.parse_instance(text).graph
        if not bipartite_euler_bound(g):  # an instance's edges all join a blue to a red
            print("NONPLANAR euler n=%d m=%d" % (g.n_vertices, g.n_edges))
            return EXIT_NONPLANAR
        adj = g.adj
    planar = planar_verdict(adj)
    print("PLANAR" if planar else "NONPLANAR")
    return EXIT_OK if planar else EXIT_NONPLANAR


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbkernel",
        description="Kernelization toolkit for red/blue domination on planar graphs.",
        epilog="Exit codes: 0 ok, 2 parse error, 3 bad input (solve: --lift without "
               "--original or the reverse, a trace of another instance or one that does not "
               "replay to the kernel), "
               "20 NO-instance, 21 infeasible, 22 invalid solution (solve --lift: the lift "
               "does not dominate the original), 23 too large, 24 non-planar.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance, log the rule trace")
    p.add_argument("input")
    p.add_argument("--out", help="write the reduced instance here; on NO, the canonical "
                                 "two-vertex negative instance")
    p.add_argument("--trace", help="write the rule trace here, on every verdict")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("solve", help="exact optimum, optionally lifted through a trace")
    p.add_argument("input")
    p.add_argument("--lift", help="trace file; lift the witness to the original instance "
                                  "(needs --original)")
    p.add_argument("--original", help="with --lift: the instance the trace was written for; "
                                      "the trace must match its fingerprint and replay to "
                                      "the input, and the lift must dominate it")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("input")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate instances (grid R C | matching M | "
                                   "planar N DENSITY, density in percent)")
    p.add_argument("kind", choices=list(_GEN_PARAMS))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--seed", type=int, help="planar only; 0 when omitted")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("transform", help="face-cover: the radial-graph instance of a plane file")
    p.add_argument("kind", choices=["face-cover"])
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("-k", type=int, default=None, help="budget for face-cover output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check-planar", help="planarity of the edge set of an instance or "
                                            "plane file (transform face-cover checks that a "
                                            "plane file's rotation is an embedding)")
    p.add_argument("input")
    p.set_defaults(func=cmd_check_planar)

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
