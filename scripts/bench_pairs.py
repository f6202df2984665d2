"""Run alternating parent/change pairs of one perfbench workload and write BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --workload size-verdict --parent <rev> --change <rev> \
        --seeds 4001-4010 [--out BENCH_size-verdict.json]

Each revision is exported with ``git archive`` into a temporary directory and
runs ``perfbench/run.py --trace 0`` from there for the ``run_seconds`` of
``BENCHMARK.json``, one process at a time; the pair for the i-th seed runs
the parent first when i is even.  The file keeps, for every run, the final
JSON line of ``perfbench/run.py`` with its seed, revision and order, plus the
Python version and CPU model, and per end-to-end metric each side's median
and quartiles, the change's wins, and three verdicts read against
``BENCHMARK.json``, which is only read:

* ``gain``: there are at least ten pairs, the change won at least nine
  tenths of them and its median beats the parent's by more than the
  parent's interquartile range;
* ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``bound``, a fraction of the parent's median;
* ``unresolved``: the parent's interquartile range is wider than ``bound``
  times the parent's median, so the runs spread too widely to tell whether
  the bound holds, unless every change run reads better than every parent
  run.

One more verdict covers the whole file: ``more_failures``, the change's
median share of failed operations (``failed / attempted``) is above the
parent's.

``--seeds`` must name at least two seeds, low to high, or the script stops
with a usage error before it exports anything: quartiles need two runs a
side.  It prints each run's ``vertices_per_s`` and ``failed`` count as it
comes back.  A run that ``perfbench/run.py`` marks ``correct: false``, or
that exits with a nonzero status, ends the script at once with exit status
1, naming its side and seed, and no file is written: a gain read from a
wrong run means nothing.  After the runs it prints one line per end-to-end
metric with those numbers, then the ``more_failures`` verdict.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_GAIN_PAIRS = 10  # fewer pairs than this never report a gain


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(cwd: Path, workload: str, seed: int, seconds: str) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run in ``cwd``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", "0"]
    p = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("%r names fewer than two seeds, low to high" % spec)
    return seeds


def _summary(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        side = {s: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == s]
                for s in ("parent", "change")}
        # Signed so that a positive number is better.
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        out[name] = {s: {"median": statistics.median(v),
                         "quartiles": statistics.quantiles(v, n=4)[::2]}
                     for s, v in side.items()}
        parent, change = out[name]["parent"], out[name]["change"]["median"]
        lo, hi = parent["quartiles"]
        gain = sign * (change - parent["median"])
        out[name]["change_wins"] = wins
        pairs = len(side["parent"])
        out[name]["gain"] = pairs >= MIN_GAIN_PAIRS and wins >= 0.9 * pairs and gain > hi - lo
        out[name]["within_bound"] = gain >= -bound * abs(parent["median"])
        every_run_better = all(sign * (c - p) > 0
                               for c in side["change"] for p in side["parent"])
        out[name]["unresolved"] = hi - lo > bound * abs(parent["median"]) and not every_run_better
    return out


def _more_failures(runs: list[dict]) -> bool:
    """Whether the change's median share of failed operations is above the parent's."""
    share = {s: statistics.median(r["result"]["failed"] / r["result"]["attempted"]
                                  for r in runs if r["side"] == s)
             for s in ("parent", "change")}
    return share["change"] > share["parent"]


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _report(doc: dict) -> None:
    pairs = len(doc["runs"]) // 2
    for name, m in doc["summary"].items():
        parent = m["parent"]
        print("%s: parent %.6g [%.6g, %.6g], change %.6g, change won %d/%d, gain %s, "
              "within bound %s, unresolved %s"
              % (name, parent["median"], *parent["quartiles"], m["change"]["median"],
                 m["change_wins"], pairs, _yes(m["gain"]), _yes(m["within_bound"]),
                 _yes(m["unresolved"])))
    print("more failures: %s" % _yes(doc["more_failures"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds,
                    help="first-last, at least two seeds, e.g. 4001-4010")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for side, rev in revs.items():
            _export(rev, Path(tmp) / side)
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                try:
                    result = _run(Path(tmp) / side, args.workload, seed, seconds)
                except subprocess.CalledProcessError as exc:
                    print("the %s run at seed %d exited with status %d; no pair file written"
                          % (side, seed, exc.returncode), file=sys.stderr)
                    return 1
                runs.append({"side": side, "rev": revs[side], "seed": seed,
                             "first": side == order[0], "result": result})
                print(side, seed, result["metrics"]["vertices_per_s"]["value"],
                      "failed", result["failed"], flush=True)
                if not result["correct"]:
                    print("the %s run at seed %d is marked incorrect; no pair file written"
                          % (side, seed), file=sys.stderr)
                    return 1
    doc = {"workload": args.workload, "python": platform.python_version(), "cpu": _cpu_model(),
           "command": "python3 perfbench/run.py --workload %s --seed <seed> --seconds %s "
                      "--trace 0" % (args.workload, seconds),
           "summary": _summary(runs, spec), "more_failures": _more_failures(runs),
           "runs": runs}
    out = Path(args.out or ROOT / ("BENCH_%s.json" % args.workload))
    out.write_text(json.dumps(doc, indent=1) + "\n")
    _report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
