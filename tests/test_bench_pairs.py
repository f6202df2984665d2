import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORKLOAD = WORKLOADS[0]


@pytest.fixture
def script(monkeypatch):
    """scripts/bench_pairs.py with git and perfbench replaced by made-up
    results: ``script.speed(side, seed)`` gives a run's vertices per second
    (by default the change does 100 more) and ``script.failed(side, seed)``
    its failed operations out of 12 (by default 2 for the parent, 0 for the
    change); a run is marked incorrect when its (side, seed) is in
    ``script.wrong`` and exits with status 1 when it is in ``script.crash``;
    ``script.exported`` lists the exported revisions."""
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.wrong = set()
    mod.crash = set()
    mod.exported = []
    mod.speed = lambda side, seed: 1000 + seed % 7 + (100 if side == "change" else 0)
    mod.failed = lambda side, seed: 2 if side == "parent" else 0

    def run(cwd, workload, seed, seconds):
        side = Path(cwd).name
        if (side, seed) in mod.crash:
            raise subprocess.CalledProcessError(1, ["perfbench/run.py"])
        metrics = {name: {"value": 1.0} for name in METRICS}
        metrics["vertices_per_s"] = {"value": mod.speed(side, seed)}
        return {"correct": (side, seed) not in mod.wrong, "attempted": 12,
                "failed": mod.failed(side, seed), "metrics": metrics}

    monkeypatch.setattr(mod, "_git", lambda *args: "rev-" + args[-1])
    monkeypatch.setattr(mod, "_export", lambda rev, dest: (mod.exported.append(rev),
                                                           dest.mkdir()))
    monkeypatch.setattr(mod, "_run", run)
    return mod


def test_pairs_report_failed_counts_and_gain(script, tmp_path, capsys):
    out = tmp_path / "pairs.json"
    argv = ["--workload", WORKLOAD, "--parent", "a", "--change", "b", "--seeds", "1-10",
            "--out", str(out)]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "parent 1 1001 failed 2" in lines
    assert "change 1 1101 failed 0" in lines
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 20
    assert doc["summary"]["vertices_per_s"]["change_wins"] == 10
    assert doc["summary"]["vertices_per_s"]["gain"]


def test_incorrect_run_exits_and_names_side_and_seed(script, tmp_path, capsys):
    script.wrong = {("change", 3)}
    out = tmp_path / "pairs.json"
    argv = ["--workload", WORKLOAD, "--parent", "a", "--change", "b", "--seeds", "1-10",
            "--out", str(out)]
    assert script.main(argv) == 1
    captured = capsys.readouterr()
    assert "the change run at seed 3 is marked incorrect" in captured.err
    assert not out.exists()


def argv_for(seeds, out):
    return ["--workload", WORKLOAD, "--parent", "a", "--change", "b", "--seeds", seeds,
            "--out", str(out)]


@pytest.mark.parametrize("seeds", ["4001", "4010-4001", "4001-4001"])
def test_fewer_than_two_seeds_is_a_usage_error_before_any_export(script, tmp_path, capsys,
                                                                 seeds):
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        script.main(argv_for(seeds, out))
    assert exc.value.code == 2
    assert "fewer than two seeds" in capsys.readouterr().err
    assert script.exported == [] and not out.exists()


def test_unknown_workload_is_a_usage_error_before_any_export(script, tmp_path, capsys):
    out = tmp_path / "pairs.json"
    argv = argv_for("1-10", out)
    argv[argv.index("--workload") + 1] = "tight-plannar"
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload 'tight-plannar'" in err
    assert all(name in err for name in WORKLOADS)
    assert script.exported == [] and not out.exists()


def test_failed_run_exits_and_names_side_and_seed(script, tmp_path, capsys):
    script.crash = {("parent", 4)}
    out = tmp_path / "pairs.json"
    assert script.main(argv_for("1-10", out)) == 1
    err = capsys.readouterr().err
    assert "the parent run at seed 4 exited with status 1" in err
    assert "Traceback" not in err and not out.exists()


def test_no_gain_below_ten_pairs(script, tmp_path):
    out = tmp_path / "pairs.json"
    assert script.main(argv_for("1-9", out)) == 0
    summary = json.loads(out.read_text())["summary"]["vertices_per_s"]
    assert summary["change_wins"] == 9
    assert not summary["gain"] and summary["within_bound"]


def test_narrow_runs_resolve_and_fewer_failures_are_not_more(script, tmp_path, capsys):
    out = tmp_path / "pairs.json"
    assert script.main(argv_for("1-10", out)) == 0
    doc = json.loads(out.read_text())
    assert not any(m["unresolved"] for m in doc["summary"].values())
    assert doc["more_failures"] is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "more failures: no"
    assert any(line.startswith("vertices_per_s: ") and line.endswith("unresolved no")
               for line in lines)


@pytest.mark.parametrize("change_offset, unresolved", [(0, True), (10_000, False)])
def test_unresolved_when_the_parents_quartiles_spread_past_the_bound(
        script, tmp_path, capsys, change_offset, unresolved):
    # The parent's runs read 200..2000: quartiles 550 and 1650 around a
    # median of 1100, an interquartile range wider than 0.25 x 1100.  Only a
    # change whose every run beats every parent run resolves it.
    script.speed = lambda side, seed: 200 * seed + (change_offset if side == "change" else 0)
    out = tmp_path / "pairs.json"
    assert script.main(argv_for("1-10", out)) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["vertices_per_s"]["unresolved"] is unresolved
    assert not summary["op_p50_s"]["unresolved"]
    assert ("unresolved %s" % ("yes" if unresolved else "no")) in capsys.readouterr().out


def test_more_failures_compares_the_median_failed_share(script, tmp_path, capsys):
    # The change fails 3 of 12 on six seeds and none on four: its median
    # share, 3/12, is above the parent's 2/12, though its mean, 1.8/12, is not.
    script.failed = lambda side, seed: 2 if side == "parent" else (3 if seed <= 6 else 0)
    out = tmp_path / "pairs.json"
    assert script.main(argv_for("1-10", out)) == 0
    assert json.loads(out.read_text())["more_failures"] is True
    assert capsys.readouterr().out.splitlines()[-1] == "more failures: yes"
