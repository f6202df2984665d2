"""One operation: an instance at one budget taken through the user pipeline.

For ``.rbds`` input the pipeline is parse -> kernelize -> format kernel and
trace -> parse trace -> replay -> solve the kernel -> lift -> verify, as the
CLI's ``kernelize`` and ``solve --lift`` commands run it.  Plane input first
goes through the planarity test and the radial face-cover transform.
Workloads without ``solve`` stop at the kernelizer's verdict.

Every rbkernel call goes through its module attribute, so the wrappers that
:mod:`tracing` installs see it.  The checks against the reference run after
the operation's clock has stopped.
"""

from __future__ import annotations

import gc
import signal
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from rbkernel import formats, kernelizer, planar, solver, transforms
from rbkernel.graph import Instance

import reference
import speed


class OpTimeout(Exception):
    """Raised by SIGALRM when an operation exceeds its workload's limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Trip:
    """What one operation produced, filled in as the pipeline advances so a
    timed-out operation keeps what it finished."""

    planar: bool = True
    original: object = None  # the red/blue graph kernelize received
    red_to_vertex: dict | None = None  # plane input: radial red -> plane vertex
    result: object = None  # KernelResult
    kernel_text: str = ""
    trace_text: str = ""
    replayed: object = None
    solved_vertices: int = 0
    lifted: set | None = None
    verified: bool | None = None


@dataclass
class Outcome:
    """A checked operation.  ``raw_latency`` is wall seconds; ``latency`` is
    the same interval in the normalized seconds of :mod:`speed`."""

    op: reference.Op
    raw_latency: float
    failure: str | None
    verdict: str | None
    kernel_vertices: int | None = None
    records: int = 0
    fires: Counter = field(default_factory=Counter)
    solved_vertices: int = 0
    instance_bytes: int = 0
    trace_bytes: int = 0
    latency: float = 0.0


def _pipeline(op: reference.Op, solve: bool, t: Trip) -> None:
    if op.item.kind == "plane":
        pr = planar.is_planar(range(op.item.n_plane), op.item.edges)
        if not pr.planar:
            t.planar = False
            return
        g, vertex_to_red, _ = transforms.face_cover_to_rbds(pr.embedding)
        t.red_to_vertex = {r: v for v, r in vertex_to_red.items()}
        inst = Instance(g, op.k)
    else:
        inst = formats.parse_instance(op.text)
    t.original = inst.graph
    res = t.result = kernelizer.kernelize(inst)
    if res.is_no:
        return
    t.kernel_text = formats.format_instance(res.instance)
    t.trace_text = formats.format_trace(res.trace)
    trace = formats.parse_trace(t.trace_text)
    t.replayed = kernelizer.replay_trace(inst.graph, trace)
    if not solve:
        return
    kinst = formats.parse_instance(t.kernel_text)
    t.solved_vertices = kinst.graph.n_vertices
    solved = solver.min_rbds(kinst.graph)
    if not solved.feasible or solved.size > kinst.k:
        return
    origid = kinst.meta.get("origid", {})
    witness = {origid.get(v, v) for v in solved.witness}
    t.lifted = kernelizer.lift_solution(trace, witness)
    t.verified = solver.verify_solution(inst.graph, t.lifted)


def _verdict(t: Trip, solve: bool) -> str:
    if t.result.is_no:
        return "NO"
    if not solve:
        return "REDUCED"
    return "NO" if t.lifted is None else "YES"


def _judge(op: reference.Op, t: Trip, verdict: str) -> str | None:
    """Failure reason for a finished operation, or None when every check passes.

    A lifted solution must stay within ``k``; at ``k = opt`` that makes it
    optimal, and one smaller than the reference optimum means the reference
    or the checks are wrong.
    """
    if (verdict == "NO" and op.ref_yes) or (verdict == "YES" and not op.ref_yes):
        return "wrong-verdict"
    if verdict == "NO":
        return None
    kernel = t.result.instance
    if t.replayed != kernel.graph:
        return "replay-mismatch"
    if op.item.planar and kernel.graph.n_vertices > 46 * kernel.k:
        return "kernel-too-large"
    if t.lifted is None:
        return None
    if not t.verified:
        return "verify-rejected"
    if t.red_to_vertex is None:
        chosen = t.lifted
    else:
        if not t.lifted <= t.original.blue:
            return "lift-not-blue"
        chosen = [frozenset(t.red_to_vertex[r] for r in t.original.adj[b]) for b in t.lifted]
    failure = reference.check_solution(op, chosen)
    if failure is None and op.k == op.opt and len(t.lifted) != op.opt:
        failure = "lift-not-optimal"
    return failure


def run_op(op: reference.Op, spec: dict, tracer=None) -> Outcome:
    """Run one operation under the workload's time limit, then check it.

    Garbage left by earlier operations is collected first, outside the
    clock, so every operation starts from the same collector state.
    """
    gc.collect()
    t = Trip()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    failure = verdict = None
    start = perf_counter()
    try:
        try:
            signal.alarm(spec["time_limit_s"])
            if tracer is None:
                _pipeline(op, spec["solve"], t)
            else:
                tracer.op_id = op.op_id
                with tracer.span("bench.op"):
                    _pipeline(op, spec["solve"], t)
        finally:
            signal.alarm(0)
            latency = perf_counter() - start
    except OpTimeout:
        failure = "timeout"
    except Exception as exc:  # any error inside rbkernel fails this operation only
        failure = "raised-%s" % type(exc).__name__
    finally:
        signal.signal(signal.SIGALRM, previous)
    if failure is None:
        if not t.planar:
            failure = "not-planar"
        else:
            verdict = _verdict(t, spec["solve"])
            failure = _judge(op, t, verdict)
    out = Outcome(op, latency, failure, verdict, solved_vertices=t.solved_vertices,
                  instance_bytes=len(op.text) + len(t.kernel_text),
                  trace_bytes=len(t.trace_text))
    if t.result is not None:
        out.records = len(t.result.trace.records)
        out.fires = Counter(rec.tag for rec in t.result.trace.records)
        if not t.result.is_no:
            out.kernel_vertices = t.result.instance.graph.n_vertices
    return out


def run_passes(ops, spec: dict, passes: int, clock: speed.SpeedClock, tracer=None):
    """Every operation once per pass, in corpus order; returns the outcomes
    with their latencies normalized for machine speed.  A timed-out
    operation counts at its limit: its true cost is unknown, and scaling a
    fixed wall-clock limit would only add the machine's noise."""
    outcomes = []
    for _ in range(passes):
        for op in ops:
            out = run_op(op, spec, tracer)
            out.latency = clock.normalize(out.raw_latency)
            if out.failure == "timeout":
                out.latency = float(spec["time_limit_s"])
            outcomes.append(out)
    return outcomes
