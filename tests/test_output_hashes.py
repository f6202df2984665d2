import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _hashes(workload: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"),
         "--workload", workload, "--seed", "7"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    return out.split("\n")


def test_solve_small_hashes_match_recorded():
    # The recorded byte-identity hashes of the solve-small workload (seed 7):
    # every input's fingerprint, every trace without it and every kernel, and
    # every kernel's min_rbds size and witness.  A change to what the
    # kernelizer emits or the solver answers shows here.
    assert _hashes("solve-small") == ["fingerprint 3e396dedd725efcc", "trace 2cd359d6639fc6a9",
                                      "solve bf813472d1aca701", ""]


def test_size_verdict_hashes_match_recorded():
    # The recorded fingerprint and trace hashes of the size-verdict workload
    # (seed 7), whose time goes to the R4 pair search.
    assert _hashes("size-verdict") == ["fingerprint 93eea83ab6b6c0f5", "trace a0822b998be1176c", ""]


def test_tight_planar_hashes_match_recorded():
    # The recorded hashes of the tight-planar workload (seed 7).  It is the only
    # workload with stacked-triangulation face covers, whose blue ids follow
    # from the rotation system the planarity test returns.
    assert _hashes("tight-planar") == ["fingerprint b6df4a3fd6d4b572", "trace 096babe680f06d72",
                                       "solve 88b628af30d945ed", ""]
