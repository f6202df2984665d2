"""Tests of the benchmark itself: corpus determinism, the independent
checks, tracing hygiene and the self-time arithmetic.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import time
from pathlib import Path

import pytest

import corpus
import pipeline
import reference
import run
import speed
import tracing
from rbkernel import kernelizer, solver
from rbkernel.kernelizer import KernelResult, KernelTrace

SMALL = [
    {"gen": "random-planar", "n": 150, "density": 0.8, "budgets": ["opt", "opt-1"]},
    {"gen": "face-cover-stacked", "n": 40, "budgets": ["opt", "opt-1"]},
    {"gen": "dense", "blues": 8, "reds": 30, "degree": 5, "budgets": ["opt", "opt-1"]},
    {"gen": "grid", "rows": 6, "cols": 7, "budgets": ["opt", "blues"]},
    {"gen": "grid", "rows": 12, "cols": 12, "budgets": ["size-no"]},
    {"gen": "face-cover-grid", "rows": 4, "cols": 5, "budgets": ["opt"]},
]
SPEC = {"solve": True, "time_limit_s": 20, "known_failures": []}


def build(seed=7):
    items, _, _ = corpus.build(SMALL, seed, speed.SpeedClock())
    return items


def ops_by_label(seed=7):
    ops, _ = reference.prepare(build(seed), seed)
    return {op.label: op for op in ops}


def test_same_seed_same_corpus_digest():
    assert corpus.digest(build(7)) == corpus.digest(build(7))
    assert corpus.digest(build(7)) != corpus.digest(build(8))


def test_every_operation_of_the_small_corpus_passes():
    ops = list(ops_by_label().values())
    outcomes = pipeline.run_passes(ops, SPEC, 1, speed.SpeedClock())
    assert [(o.op.label, o.failure) for o in outcomes if o.failure] == []
    assert {o.verdict for o in outcomes} == {"YES", "NO"}


def test_reference_budgets():
    ops = ops_by_label()
    grid = ops["grid-6x7@opt"]
    assert grid.k == grid.opt and grid.ref_yes
    assert ops["grid-6x7@blues"].k == 21 and ops["grid-6x7@blues"].ref_yes
    no = ops["grid-12x12@size-no"]
    assert not no.ref_yes and no.k < 144 // 46 and no.k < 72 // 4
    assert ops["dense-8x30-deg5@opt-1"].k == ops["dense-8x30-deg5@opt"].k - 1


def test_checker_flags_a_wrong_verdict(monkeypatch):
    op = ops_by_label()["grid-6x7@opt"]
    monkeypatch.setattr(kernelizer, "kernelize",
                        lambda inst: KernelResult("no", reason="size", trace=KernelTrace()))
    assert pipeline.run_op(op, SPEC).failure == "wrong-verdict"


def test_checker_flags_a_yes_on_a_no_instance(monkeypatch):
    op = ops_by_label()["random-planar-150-d0.8@opt-1"]
    monkeypatch.setattr(kernelizer, "kernelize",
                        lambda inst: KernelResult("reduced", inst, KernelTrace()))
    monkeypatch.setattr(solver, "min_rbds", lambda g: solver.SolveOutcome(0, frozenset()))
    assert pipeline.run_op(op, SPEC).failure == "wrong-verdict"


def test_checker_flags_a_non_dominating_lift(monkeypatch):
    ops = ops_by_label()
    rbds = ops["grid-6x7@opt"]
    blues = sorted(rbds.covers[next(iter(rbds.covers))])
    assert reference.check_solution(rbds, blues) == "lift-not-dominating"
    assert reference.check_solution(rbds, [rbds.item.n_blue + 1]) == "lift-not-blue"
    plane = ops["face-cover-grid-4x5@opt"]
    assert reference.check_solution(plane, [plane.item.faces[0]]) == "lift-not-dominating"
    assert reference.check_solution(plane, [frozenset({0, 1, 2})]) == "lift-not-face"

    # Through the pipeline: rbkernel's own verify is bypassed, the
    # benchmark's check still catches the lift that drops a vertex.
    real_lift = kernelizer.lift_solution
    monkeypatch.setattr(kernelizer, "lift_solution",
                        lambda trace, sol: set(sorted(real_lift(trace, sol))[1:]))
    monkeypatch.setattr(solver, "verify_solution", lambda g, chosen: True)
    assert pipeline.run_op(rbds, SPEC).failure == "lift-not-dominating"


def test_timeout_counts_as_failure(monkeypatch):
    op = ops_by_label()["grid-6x7@opt"]
    monkeypatch.setattr(solver, "min_rbds", lambda g: time.sleep(3))
    out = pipeline.run_passes([op], dict(SPEC, time_limit_s=1), 1, speed.SpeedClock())[0]
    assert out.failure == "timeout" and out.latency == 1.0
    assert out.raw_latency < 2.5


def _bindings():
    snap = {}
    for mod in tracing.MODULES:
        for name, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, name)] = value
    for cls, attr, _ in tracing.METHODS:
        snap[(cls.__name__, attr)] = vars(cls)[attr]
    return snap


def test_traced_run_restores_every_wrapped_function():
    before = _bindings()
    tracer = tracing.Tracer()
    ops = list(ops_by_label().values())
    with tracing.installed(tracer):
        assert kernelizer.apply_rule is not before[("rbkernel.kernelizer", "apply_rule")]
        outcomes = pipeline.run_passes(ops, SPEC, 1, speed.SpeedClock(), tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {tracer.names[i] for i in tracer.name}
    assert {"kernelizer.kernelize", "kernelizer.apply_rule", "graph.sanitize", "graph.copy",
            "graph.mutate", "solver.min_rbds", "planar.is_planar", "planar.faces",
            "transforms.face_cover", "formats.parse_trace"} <= names
    assert not [o for o in outcomes if o.failure]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # d [9, 12], which runs past the root's end; a has a child c [2, 3].
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_metric_names_match_benchmark_json():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    ops = list(ops_by_label().values())
    outcomes = pipeline.run_passes(ops, SPEC, 1, speed.SpeedClock())
    e2e = run.end_to_end(outcomes, [1.0], 100.0)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in declared["end_to_end"])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = pipeline.run_passes(ops, SPEC, 1, speed.SpeedClock(), tracer)
    layers = run.per_layer(tracer, traced, 1, 0.1, 0.1, 1.1)
    assert sorted(layers) == sorted(m["name"] for m in declared["per_layer"])
    assert all(layers[m["name"]][1] == m["unit"] for m in declared["per_layer"])


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
