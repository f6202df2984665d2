"""Command-line front end tying the pipeline together.

The exit codes have one holder, the epilog of ``build_parser`` (``rbkernel
--help``).  A command that writes files lands them with ``_land``: whole or
not at all, and before anything reaches stdout, so a refusal prints no
verdict.

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
import contextlib
import os
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


def _land(stdout: str, outputs) -> None:
    """Write the ``(path, text)`` pairs of ``outputs`` whose path names a
    file, then ``stdout`` followed, in order, by the texts whose path is
    ``-`` or None.  Each file is written to a temporary sibling of its path
    with symbolic links resolved, and the siblings replace their paths only
    once all are written; if one cannot be written, or a path names an
    existing file that is not a regular file, the siblings are removed, no
    path changes, nothing reaches stdout and the ``OSError`` propagates.  Of
    two texts for one path, the later lands."""
    files = {os.path.realpath(path): text for path, text in outputs if path not in (None, "-")}
    temps = []
    try:
        for path, text in files.items():
            # os.replace would fail on a directory only after the others landed,
            # and would put a regular file in place of a device or a pipe.
            if os.path.exists(path) and not os.path.isfile(path):
                raise OSError("%s is not a regular file" % path)
            temp = "%s.%d.tmp" % (path, os.getpid())
            with open(temp, "x") as f:
                temps.append(temp)
                f.write(text)
        for path, temp in zip(files, temps):
            os.replace(temp, path)
    except OSError:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    sys.stdout.write(stdout + "".join(text for path, text in outputs if path in (None, "-")))


# -- subcommands -------------------------------------------------------------


def cmd_kernelize(args) -> int:
    inst = formats.parse_instance(_read(args.input))
    result = kernelize(inst)
    if result.is_no:
        verdict = "NO reason=%s\n" % result.reason
        kernel = Instance(RBGraph.from_parts([1], [2]), 0)
        comments = ["canonical negative instance"]
    else:
        kernel = result.instance
        nb, nr = len(kernel.graph.blue), len(kernel.graph.red)
        verdict = ("REDUCED nB=%d nR=%d k'=%d bound=%dk'=%d\n"
                   % (nb, nr, kernel.k, SIZE_FACTOR, SIZE_FACTOR * kernel.k))
        comments = ()
    outputs = [(args.out, formats.format_instance(kernel, comments=comments))] if args.out else []
    if args.trace:
        outputs.append((args.trace, formats.format_trace(result.trace)))
    _land(verdict, outputs)
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
            raise ValueError("the trace is not of %s: its fingerprint is %s, the instance's %s"
                             % (original_path, theirs, formats.format_fingerprint(fp)))
        try:
            g = formats.in_original_ids(inst)
            replay_trace(original.graph, trace, g)
        except GraphError as exc:  # a bad record, or origid comments naming an id twice
            raise GraphError("the trace does not replay to %s: %s" % (args.input, exc)) from exc
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
    _land("", [(args.out, formats.format_instance(inst))])
    return EXIT_OK


def cmd_face_cover(args) -> int:
    # Disconnected, or not a plane embedding: a GraphError, exit 3.
    g, vmap, fmap = transforms.face_cover_to_rbds(formats.parse_plane(_read(args.input)))
    comments = ["face cover instance via the radial graph, k unchanged"]
    comments += ["facemap %d %d" % (f, b) for f, b in sorted(fmap.items())]
    comments += ["vertexmap %d %d" % (v, r) for v, r in sorted(vmap.items())]
    k = args.k if args.k is not None else len(fmap)
    _land("", [(args.out, formats.format_instance(Instance(g, k), comments=comments))])
    return EXIT_OK


def cmd_check_planar(args) -> int:
    g = formats.parse_instance(_read(args.input)).graph
    if not bipartite_euler_bound(g):  # an instance's edges all join a blue to a red
        print("NONPLANAR euler n=%d m=%d" % (g.n_vertices, g.n_edges))
        return EXIT_NONPLANAR
    planar = planar_verdict(g.adj)
    print("PLANAR" if planar else "NONPLANAR")
    return EXIT_OK if planar else EXIT_NONPLANAR


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbkernel",
        description="Kernelization toolkit for red/blue domination on planar graphs.",
        epilog="Exit codes: 0 ok, 2 the command line or an input file does not parse, "
               "3 a well-formed request refused, with one stderr line, nothing on stdout "
               "and no output file changed (a value past a limit, a path that cannot be "
               "read or written; face-cover: a plane file that is disconnected or not a "
               "plane embedding; solve --lift: a trace of another instance or one that "
               "does not replay to the kernel), 20 NO-instance, 21 infeasible, 22 invalid "
               "solution (solve --lift: the lift does not dominate the original), "
               "23 too large, 24 non-planar.")
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

    p = sub.add_parser("face-cover", help="the radial-graph instance of a plane file, whose "
                                          "rotation it checks is a plane embedding")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("-k", type=int, default=None, help="budget; the face count when omitted")
    p.set_defaults(func=cmd_face_cover)

    p = sub.add_parser("check-planar", help="planarity of an instance's edge set")
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
    except (OSError, ValueError, GraphError) as exc:  # after the ValueErrors above
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
