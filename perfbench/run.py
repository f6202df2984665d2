"""Benchmark of the rbkernel pipeline: one command, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tight-planar --seed 1 --seconds 20 --trace 0

The run generates the workload's corpus from the seed (set-up, timed several
times), computes independent reference answers, then takes every operation
through the pipeline for a fixed number of passes and checks each one.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the same passes untraced and then traced and reports the per-layer metrics.
The last line of standard output is one JSON object.  Workloads and their
known failures are in ``perfbench/workloads.json``; see
``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"


def _import_rbkernel():
    """Put the checkout's ``src`` first on the path; the benchmark measures
    that source tree and no installed copy."""
    src = ROOT / "src"
    if not (src / "rbkernel" / "__init__.py").is_file():
        raise SystemExit("perfbench: no rbkernel sources under %s" % src)
    sys.path.insert(0, str(src))
    import rbkernel
    if Path(rbkernel.__file__).resolve().parent != src / "rbkernel":
        raise SystemExit("perfbench: rbkernel was imported from %s" % rbkernel.__file__)


PASS_S = 6.5  # nominal seconds of one pass: three passes in a 20 s run


def passes_for(seconds: int) -> int:
    """Passes over the corpus in one run: fixed by the run length alone, so
    every run of a workload sees the same operations."""
    return max(1, round(seconds / PASS_S))


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    lat = sorted(latencies)
    idx = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    return lat[idx], 100.0 * (idx + 1) / len(lat)


def failed_outcomes(outcomes):
    return [o for o in outcomes if o.failure is not None]


def unexpected(outcomes, spec: dict):
    """Failures not recorded as known for this workload."""
    known = {(k["op"], k["failure"]) for k in spec["known_failures"]}
    return [o for o in failed_outcomes(outcomes) if (o.op.label, o.failure) not in known]


def completed(outcomes):
    """Outcomes that did not time out, whose latencies were measured."""
    return [o for o in outcomes if o.failure != "timeout"]


def per_op(outcomes):
    """For each operation: (median latency over its passes, input vertices
    times the fraction of its passes that passed every check).  The median
    keeps a burst of machine noise in one pass from moving the result."""
    runs = {}
    for o in outcomes:
        runs.setdefault(o.op.op_id, []).append(o)
    return [(statistics.median(o.latency for o in rs),
             rs[0].op.n_in * sum(o.failure is None for o in rs) / len(rs))
            for rs in runs.values()]


def end_to_end(outcomes, setup_times, peak_rss_mb):
    ops = per_op(outcomes)
    lat = [m for m, _ in ops]
    ok = [o for o in outcomes if o.failure is None]
    reduced = [o for o in outcomes if o.kernel_vertices is not None]
    tail_s, _ = tail(lat)
    n_reduced = sum(o.op.n_in for o in reduced)
    return {
        "vertices_per_s": (sum(v for _, v in ops) / sum(lat), "vertices/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "removed_share": (1 - sum(o.kernel_vertices for o in reduced) / n_reduced
                          if n_reduced else 1.0, "ratio"),
        "ok_share": (len(ok) / len(outcomes), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer, outcomes, passes, gen_s, reference_s, overhead):
    """Layer metrics of the traced passes, per pass over the corpus.

    Times are self times, except ``kernelizer.kernelize_s``, which includes
    the spans kernelize opens; ``kernelizer.search_s`` is kernelize's self
    time.  Span times are scaled by the traced operations' machine-speed
    factor, so they add up to the operations' normalized latencies.
    """
    from rbkernel.kernelizer import RULE_TAGS
    import tracing
    totals = tracing.layer_totals(tracer)
    finished = completed(outcomes)
    scale = (sum(o.latency for o in finished) / sum(o.raw_latency for o in finished)
             if finished else 1.0) / passes

    def layer(name):
        return totals.get(name, (0.0, 0.0, 0))

    def self_s(name):
        return layer(name)[0] * scale

    def total(attr):
        return sum(getattr(o, attr) or 0 for o in outcomes) / passes

    m = {
        "kernelizer.search_s": (self_s("kernelizer.kernelize"), "s"),
        "kernelizer.kernelize_s": (layer("kernelizer.kernelize")[1] * scale, "s"),
    }
    for name in ("kernelizer.apply_rule", "kernelizer.fingerprint", "kernelizer.replay",
                  "kernelizer.lift", "graph.copy", "graph.sanitize", "graph.mutate",
                  "solver.min_rbds", "solver.verify", "formats.parse_instance",
                  "formats.format_instance", "formats.format_trace", "formats.parse_trace",
                  "planar.is_planar", "planar.faces", "transforms.face_cover"):
        m[name + "_s"] = (self_s(name), "s")
    m["kernelizer.records"] = (total("records"), "count")
    m["kernelizer.kernel_vertices"] = (total("kernel_vertices"), "count")
    for tag in RULE_TAGS:
        m["kernelizer.fires." + tag] = (sum(o.fires[tag] for o in outcomes) / passes, "count")
    m["graph.mutations"] = (layer("graph.mutate")[2] / passes, "count")
    m["solver.solved_vertices"] = (total("solved_vertices"), "count")
    m["solver.timeouts"] = (sum(o.failure == "timeout" for o in outcomes) / passes, "count")
    m["formats.instance_bytes"] = (total("instance_bytes"), "bytes")
    m["formats.trace_bytes"] = (total("trace_bytes"), "bytes")
    m["generators.gen_s"] = (gen_s, "s")
    m["bench.reference_s"] = (reference_s, "s")
    m["bench.tracing_overhead"] = (overhead, "ratio")
    return m


def report(name, seed, spec, outcomes, n_ops, metrics, probe_s, rss_before_mb,
           out=sys.stdout):
    """Human-readable summary; the JSON line that follows is the result."""
    failed = failed_outcomes(outcomes)
    bad = unexpected(outcomes, spec)
    n = len(outcomes)
    print("workload %s seed %d: %d operations (%d per pass), %d failed"
          % (name, seed, n, n_ops, len(failed)), file=out)
    for key, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (key, value, unit), file=out)
    if "op_tail_s" in metrics:
        _, pct = tail([m for m, _ in per_op(outcomes)])
        print("  op_p50_s and op_tail_s are over %d samples, one per operation (its median"
              " over %d passes); op_tail_s is p%.1f" % (n_ops, n // n_ops, pct), file=out)
    raw = [o.raw_latency for o in outcomes]
    print("  times are normalized for machine speed (median probe %.2f ms); raw wall:"
          " p50 %.4g s, total %.4g s" % (1000 * probe_s, statistics.median(raw), sum(raw)),
          file=out)
    print("  peak RSS before the timed passes (interpreter, libraries, corpus, reference):"
          " %.1f MB" % rss_before_mb, file=out)
    print("  failed_share %d/%d = %.4f" % (len(failed), n, len(failed) / n), file=out)
    seen = {}
    for o in failed:
        seen[(o.op.label, o.failure)] = seen.get((o.op.label, o.failure), 0) + 1
    for (label, failure), count in sorted(seen.items()):
        kind = "UNEXPECTED" if any(o.op.label == label and o.failure == failure for o in bad) \
            else "known"
        print("  failed %-32s %-16s x%d (%s)" % (label, failure, count, kind), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: keep numerical libraries from starting thread pools.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_rbkernel()
    import resource

    import corpus
    import pipeline
    import reference
    import speed
    import tracing

    specs = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in specs:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(specs)))
    spec = specs[args.workload]

    setup_times, gen_times, digests = [], [], set()
    clock = speed.SpeedClock()
    for _ in range(spec["setup_repeats"]):
        items, setup_s, gen_s = corpus.build(spec["classes"], args.seed, clock)
        setup_times.append(setup_s)
        gen_times.append(gen_s)
        digests.add(corpus.digest(items))
    ops, reference_s = reference.prepare(items, args.seed)
    reference_s = clock.normalize(reference_s)
    passes = passes_for(args.seconds)
    # The corpus lives for the whole run; keep the collector from tracing it
    # again during every operation, as it would not in a user's process.
    gc.collect()
    gc.freeze()
    rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not args.trace:
        outcomes = pipeline.run_passes(ops, spec, passes, clock)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(outcomes, setup_times, rss_mb)
    else:
        passes = max(1, passes // 2)
        untraced = pipeline.run_passes(ops, spec, passes, clock)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = pipeline.run_passes(ops, spec, passes, clock, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("%s.spans.tsv.gz" % args.workload))
        overhead = (sum(o.latency for o in completed(traced))
                    / sum(o.latency for o in completed(untraced)))
        metrics = per_layer(tracer, traced, passes, statistics.median(gen_times), reference_s,
                            overhead)
        outcomes = untraced + traced

    report(args.workload, args.seed, spec, outcomes, len(ops), metrics,
           statistics.median(clock.probes), rss_before_mb)
    result = {
        "correct": len(digests) == 1 and not unexpected(outcomes, spec),
        "attempted": len(outcomes),
        "failed": len(failed_outcomes(outcomes)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
