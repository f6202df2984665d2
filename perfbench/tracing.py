"""Spans around rbkernel's public functions, installed from the benchmark.

A :class:`Tracer` keeps one span per call of a wrapped function: layer
name, start, end, parent span and operation id, all in memory.
:func:`installed` swaps wrappers in for the original functions wherever an
rbkernel module binds them (so module globals that the kernelizer's loop
calls, such as ``kernelizer.apply_rule``, are covered) and puts every
original back on exit.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from rbkernel import formats, kernelizer, planar, solver, transforms
from rbkernel.graph import RBGraph
from rbkernel.planar import PlaneGraph

# Every rbkernel module whose globals may bind a wrapped function.
MODULES = tuple(importlib.import_module("rbkernel" + m) for m in (
    "", ".cli", ".formats", ".generators", ".graph", ".kernelizer", ".planar",
    ".solver", ".transforms"))

# (module, function) pairs: every binding of the function in MODULES is wrapped.
FUNCTIONS = (
    (kernelizer, "kernelize", "kernelizer.kernelize"),
    (kernelizer, "lift_solution", "kernelizer.lift"),
    (kernelizer, "replay_trace", "kernelizer.replay"),
    (kernelizer, "apply_rule", "kernelizer.apply_rule"),
    (kernelizer, "fingerprint_instance", "kernelizer.fingerprint"),
    (kernelizer, "sanitize", "graph.sanitize"),
    (solver, "min_rbds", "solver.min_rbds"),
    (solver, "verify_solution", "solver.verify"),
    (planar, "is_planar", "planar.is_planar"),
    (transforms, "face_cover_to_rbds", "transforms.face_cover"),
    (formats, "parse_instance", "formats.parse_instance"),
    (formats, "format_instance", "formats.format_instance"),
    (formats, "parse_trace", "formats.parse_trace"),
    (formats, "format_trace", "formats.format_trace"),
)

# (class, method) pairs, wrapped on the class.
METHODS = (
    (RBGraph, "copy", "graph.copy"),
    (RBGraph, "remove_vertex", "graph.mutate"),
    (RBGraph, "add_red_vertex", "graph.mutate"),
    (RBGraph, "remove_edge", "graph.mutate"),
    (PlaneGraph, "faces", "planar.faces"),
)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def write(self, path) -> None:
        """Write every span as a gzip-compressed tab-separated table."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write("%d\t%d\t%d\t%s\t%.7f\t%.7f\n" % (
                    i, self.parent[i], self.op[i], self.names[self.name[i]],
                    self.start[i], self.end[i]))


def _wrap(tracer: Tracer, layer: str, fn):
    name_id = tracer.name_id(layer)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close(i)
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced rbkernel function for the duration of the block."""
    saved = []
    try:
        for home, attr, layer in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = _wrap(tracer, layer, original)
            for mod in MODULES:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, name, value))
                        setattr(mod, name, wrapper)
        for cls, attr, layer in METHODS:
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, layer, original))
        yield tracer
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged where they
    overlap, so a second covering child never subtracts time twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if run_hi is not None and s <= run_hi:
                run_hi = max(run_hi, e)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = s, e
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


def layer_totals(tracer: Tracer):
    """Per layer name: (self seconds, inclusive seconds, span count)."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    totals = defaultdict(lambda: [0.0, 0.0, 0])
    for i, s in enumerate(selfs):
        t = totals[tracer.names[tracer.name[i]]]
        t[0] += s
        t[1] += tracer.end[i] - tracer.start[i]
        t[2] += 1
    return {name: tuple(t) for name, t in totals.items()}
