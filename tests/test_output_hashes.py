import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_solve_small_hashes_match_recorded():
    # The recorded byte-identity hashes of the solve-small workload (seed 7):
    # every trace and kernel, and every kernel's min_rbds size and witness.
    # A change to what the kernelizer emits or the solver answers shows here.
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"),
         "--workload", "solve-small", "--seed", "7"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    assert out.split("\n") == ["trace b02edbf676aecde2", "solve bf813472d1aca701", ""]
