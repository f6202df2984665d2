"""Print the byte-identity hashes of one perfbench workload's outputs.

    python3 scripts/output_hashes.py --workload tight-planar --seed 7

Builds the workload's corpus and budgets with ``perfbench/corpus.py`` and
``perfbench/reference.py`` (read only, never changed), kernelizes every
operation and prints

* ``fingerprint``: sha256 over the per-operation sha256 hex digests of the
  trace's ``c fingerprint`` line, which names the input instance;
* ``records``: sha256 over the per-operation sha256 hex digests of the
  records, one ``repr`` of ``(tag, witness, k_delta, added)`` a line, with
  ``added`` the id of the red an R4 case 2 added or None, followed by the
  kernel text or ``NO <reason>``.  It does not depend on the trace's text
  format;
* ``trace``: sha256 over the per-operation sha256 hex digests of the rest of
  ``format_trace`` followed by the kernel text, or by ``NO <reason>`` for a
  no-instance;
* ``solve`` (workloads that solve the kernel only): sha256 over the
  per-kernel sha256 hex digests of ``min_rbds``'s size and sorted witness,
  ``<size> <id,id,...>`` or ``infeasible``, with the kernel parsed back from
  its text as the benchmark pipeline does.

Each hash is cut to 16 hex digits.  Two trees that print the same hashes
produce the same traces, kernels, verdicts and kernel solutions; two trees
that differ only in how ``fingerprint_instance`` digests an instance print
the same ``records``, ``trace`` and ``solve`` lines; two trees that differ
only in how a trace is written print the same ``records`` line.  Before it
hashes, the script checks that ``replay_trace`` replays every trace on its
input, to the kernel for a reduced instance, that ``parse_trace`` reads
every written trace back to the same records and fingerprint, and that
``parse_instance`` reads every written kernel back to the kernel's budget
and graph under its ``c origid`` ids, and exits with an error naming the
operation if not.  The replay passes every record's tag and witness to
``apply_rule``, so it also checks that the driver's records are exactly
the ones ``apply_rule`` gives.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
from rbkernel import formats, kernelizer, planar, solver, transforms  # noqa: E402
from rbkernel.graph import GraphError, Instance, RBGraph  # noqa: E402


def _instance(op: reference.Op) -> Instance:
    if op.item.kind == "plane":
        pr = planar.is_planar(range(op.item.n_plane), op.item.edges)
        g, _, _ = transforms.face_cover_to_rbds(pr.embedding)
        return Instance(g, op.k)
    return formats.parse_instance(op.text)


def _hash(parts) -> str:
    inner = "".join(hashlib.sha256(p.encode()).hexdigest() for p in parts)
    return hashlib.sha256(inner.encode()).hexdigest()[:16]


def _reads_back(kernel: Instance, text: str) -> bool:
    """True iff ``text`` parses to ``kernel``'s budget and, under its
    ``c origid`` ids, to ``kernel``'s graph."""
    back = formats.parse_instance(text)
    try:
        return back.k == kernel.k and formats.in_original_ids(back) == kernel.graph
    except GraphError:  # two labels name one id
        return False


def _replays(original: RBGraph, trace: kernelizer.KernelTrace, kernel: RBGraph | None) -> bool:
    """True iff ``replay_trace`` replays ``trace`` on ``original``, ending at
    ``kernel`` unless it is None."""
    try:
        kernelizer.replay_trace(original, trace, kernel)
    except GraphError:
        return False
    return True


def _records(records) -> str:
    return "".join("%r\n" % ((rec.tag, rec.witness, rec.delta_k, rec.added),)
                   for rec in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    if args.workload not in specs:
        ap.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(specs)))
    spec = specs[args.workload]
    items, _, _ = corpus.build(spec["classes"], args.seed, speed.SpeedClock())
    ops, _ = reference.prepare(items, args.seed)
    fingerprints, records, traces, kernels = [], [], [], []
    for i, op in enumerate(ops):
        inst = _instance(op)
        res = kernelizer.kernelize(inst)
        if not _replays(inst.graph, res.trace, None if res.is_no else res.instance.graph):
            sys.exit("operation %d: replay_trace does not replay its trace" % i)
        text = formats.format_trace(res.trace)
        again = formats.parse_trace(text)
        if (again.records, again.fingerprint) != (res.trace.records, res.trace.fingerprint):
            sys.exit("operation %d: parse_trace does not read its trace back" % i)
        head, _, body = text.partition("\n")
        if not head.startswith("c fingerprint "):
            sys.exit("operation %d: the trace does not start with its fingerprint" % i)
        tail = "NO %s" % res.reason if res.is_no else formats.format_instance(res.instance)
        if not res.is_no and not _reads_back(res.instance, tail):
            sys.exit("operation %d: parse_instance does not read its kernel back" % i)
        fingerprints.append(head)
        records.append(_records(res.trace.records) + tail)
        traces.append(body + tail)
        if not res.is_no:
            kernels.append(tail)
    print("fingerprint %s" % _hash(fingerprints))
    print("records %s" % _hash(records))
    print("trace %s" % _hash(traces))
    if spec["solve"]:
        solved = []
        for text in kernels:
            out = solver.min_rbds(formats.parse_instance(text).graph)
            solved.append("%d %s" % (out.size, ",".join(map(str, sorted(out.witness))))
                          if out.feasible else "infeasible")
        print("solve %s" % _hash(solved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
