"""Command-line front end tying the pipeline together.

Exit codes: 0 success; 2 the command line or an input file does not parse
(for the command line, argparse prints a usage line and one error line);
3 a well-formed request the tool refuses: a value past a limit, a path
that cannot be read, a foreign trace or one that does not replay;
20 kernelize answered NO, 21 solve found the instance infeasible, 22
verify found the solution invalid, 23 instance too large for exact search,
24 graph not planar.

``kernelize`` answers ``NO reason=counting`` when the sanitized input has
more than k times its largest blue degree of reds, which no k blues can
dominate on any graph; this counting lemma, not one of the paper's rules,
is checked before the first rule fires, so the trace holds the fingerprint
and the sanitize records alone.  ``kernelize`` writes ``--out`` and
``--trace`` on every verdict; on NO, ``--out`` gets the canonical
two-vertex negative instance.  ``solve --lift TRACE ORIGINAL`` prints a
lifted solution only after four checks, in this order: the trace's
fingerprint is that of ORIGINAL (else exit 3), the trace replays on it,
rule by rule, to the kernel under its original ids (else exit 3), that
graph is solved and the solution lifted, and the lift dominates ORIGINAL
(else exit 22).
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


# -- subcommands -------------------------------------------------------------


def cmd_kernelize(args) -> int:
    inst = formats.parse_instance(_read(args.input))
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
    inst = formats.parse_instance(_read(args.input))
    g = inst.graph
    if args.lift:
        trace_path, original_path = args.lift
        original = formats.parse_instance(_read(original_path))
        trace = formats.parse_trace(_read(trace_path))
        fp = fingerprint_instance(original)
        if trace.fingerprint != fp:
            theirs = ("missing" if trace.fingerprint is None
                      else formats.format_fingerprint(trace.fingerprint))
            print("the trace is not of %s: its fingerprint is %s, the instance's %s"
                  % (original_path, theirs, formats.format_fingerprint(fp)), file=sys.stderr)
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
            print("the lifted solution does not dominate %s" % original_path, file=sys.stderr)
            return EXIT_INVALID
    print("OPT %d" % len(witness))
    sys.stdout.write(formats.format_solution(witness))
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = formats.parse_instance(_read(args.input))
    chosen = formats.parse_solution(_read(args.solution))
    if verify_solution(inst.graph, chosen):
        print("VALID")
        return EXIT_OK
    print("INVALID")
    return EXIT_INVALID


def cmd_gen(args) -> int:
    try:
        inst = args.generate(args)
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
        epilog="Exit codes: 0 ok, 2 the command line or an input file does not parse, "
               "3 a well-formed request refused (a value past a limit, an unreadable path; "
               "solve --lift: a trace of another instance or one that does not replay to "
               "the kernel), 20 NO-instance, 21 infeasible, 22 invalid solution (solve "
               "--lift: the lift does not dominate the original), 23 too large, "
               "24 non-planar.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance, log the rule trace")
    p.add_argument("input")
    p.add_argument("--out", help="write the reduced instance here; on NO, the canonical "
                                 "two-vertex negative instance")
    p.add_argument("--trace", help="write the rule trace here, on every verdict")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("solve", help="exact optimum, optionally lifted through a trace")
    p.add_argument("input")
    p.add_argument("--lift", nargs=2, metavar=("TRACE", "ORIGINAL"),
                   help="lift the witness through TRACE to ORIGINAL, the instance the trace "
                        "was written for; the trace must match its fingerprint and replay to "
                        "the input, and the lift must dominate it")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a solution file against an instance")
    p.add_argument("input")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate an instance")
    kinds = p.add_subparsers(dest="kind", required=True)
    kind = kinds.add_parser("grid", help="a rows x cols grid")
    kind.add_argument("rows", type=int)
    kind.add_argument("cols", type=int)
    kind.set_defaults(generate=lambda a: generators.gen_grid(a.rows, a.cols))
    kind = kinds.add_parser("matching", help="m disjoint blue-red edges")
    kind.add_argument("m", type=int)
    kind.set_defaults(generate=lambda a: generators.gen_matching(a.m))
    kind = kinds.add_parser("planar", help="a random planar instance on n vertices")
    kind.add_argument("n", type=int)
    kind.add_argument("density", type=int, help="in percent")
    kind.add_argument("--seed", type=int, default=0, help="0 when omitted")
    kind.set_defaults(
        generate=lambda a: generators.gen_random_planar(a.n, a.density / 100.0, a.seed))
    for kind in kinds.choices.values():
        kind.add_argument("--out")
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
