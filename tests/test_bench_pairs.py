import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.fixture
def script(monkeypatch):
    """scripts/bench_pairs.py with git and perfbench replaced by made-up
    results: the change's runs do 100 more vertices per second, and a run is marked
    incorrect when its (side, seed) is in ``script.wrong``."""
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.wrong = set()

    def run(cwd, workload, seed, seconds):
        side = Path(cwd).name
        speed = 1000 + seed % 7 + (100 if side == "change" else 0)
        metrics = {name: {"value": 1.0} for name in METRICS}
        metrics["vertices_per_s"] = {"value": speed}
        return {"correct": (side, seed) not in mod.wrong, "attempted": 12,
                "failed": 2 if side == "parent" else 0, "metrics": metrics}

    monkeypatch.setattr(mod, "_git", lambda *args: "rev-" + args[-1])
    monkeypatch.setattr(mod, "_export", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(mod, "_run", run)
    return mod


def test_pairs_report_failed_counts_and_gain(script, tmp_path, capsys):
    out = tmp_path / "pairs.json"
    argv = ["--workload", "w", "--parent", "a", "--change", "b", "--seeds", "1-10",
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
    argv = ["--workload", "w", "--parent", "a", "--change", "b", "--seeds", "1-10",
            "--out", str(out)]
    assert script.main(argv) == 1
    captured = capsys.readouterr()
    assert "the change run at seed 3 is marked incorrect" in captured.err
    assert not out.exists()
