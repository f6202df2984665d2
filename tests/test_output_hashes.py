import importlib.util
import subprocess
import sys
from pathlib import Path

from rbkernel import formats
from rbkernel.graph import Instance, RBGraph
from rbkernel.kernelizer import KernelTrace, kernelize

from helpers import star_beside_matching

ROOT = Path(__file__).resolve().parent.parent


def _hashes(workload: str, seed: int = 7) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_hashes.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=300).stdout
    return out.split("\n")


def _script():
    """``scripts/output_hashes.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location("output_hashes",
                                                  ROOT / "scripts" / "output_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_solve_small_hashes_match_recorded():
    # The recorded byte-identity hashes of the solve-small workload (seed 7):
    # every input's fingerprint, every record sequence and every trace
    # without its fingerprint, each with its kernel, and every kernel's
    # min_rbds size and witness.  A change to what the kernelizer emits or the
    # solver answers shows here; a change to how traces are written moves the
    # trace line alone.
    assert _hashes("solve-small") == ["fingerprint 3e396dedd725efcc", "records cf11a7be122a7927",
                                      "trace 68fffa8a9acb7ace", "solve 5431294fbfa00240", ""]


def test_size_verdict_hashes_match_recorded():
    # The recorded fingerprint, records and trace hashes of the size-verdict workload
    # (seed 7).  Its 14 grid size-no operations end at NO counting with no rule
    # record, so its rule search runs on the other 18 only.
    assert _hashes("size-verdict") == ["fingerprint 93eea83ab6b6c0f5", "records 42c077a890fc3c5a",
                                       "trace 7c837ee2d2ccf815", ""]


def test_tight_planar_hashes_match_recorded():
    # The recorded hashes of the tight-planar workload (seed 7).  It is the only
    # workload with stacked-triangulation face covers, whose blue ids follow
    # from the rotation system the planarity test returns.
    assert _hashes("tight-planar") == ["fingerprint b6df4a3fd6d4b572", "records 9a2425c1c392cdaf",
                                       "trace e93475e3089e437a", "solve 88b628af30d945ed", ""]


def test_seed_501_hashes_match_recorded():
    # The recorded hashes at a second seed, for the two workloads whose corpus
    # or budgets follow the seed.  solve-small prints the same hashes at
    # seeds 7 and 501, as do size-verdict's records and trace.
    assert _hashes("tight-planar", 501) == [
        "fingerprint 88ed874bd0b6123b", "records 513afe1114df6bcf",
        "trace bca7fa790b6be0c0", "solve 88b628af30d945ed", ""]
    assert _hashes("size-verdict", 501) == [
        "fingerprint 734ad3536cb25d6f", "records 42c077a890fc3c5a",
        "trace 7c837ee2d2ccf815", ""]


def test_kernel_read_back_check():
    # The script refuses a kernel whose text does not parse back to the
    # kernel's budget and graph under its c origid ids.
    script = _script()
    g = RBGraph.from_parts([4, 9], [12, 15], [(4, 12), (9, 12), (9, 15)])
    text = formats.format_instance(Instance(g, 1))
    assert script._reads_back(Instance(g, 1), text)
    assert not script._reads_back(Instance(g, 2), text)
    assert not script._reads_back(Instance(g, 1), text.replace("e 2 4\n", ""))
    assert not script._reads_back(Instance(g, 1), text.replace("c origid 4 15", "c origid 4 16"))
    assert not script._reads_back(Instance(g, 1), text.replace("c origid 2 9", "c origid 2 4"))


def test_trace_replay_check():
    # The script refuses a trace that replay_trace does not replay on its
    # input, or that ends at another graph than the kernel.
    script = _script()
    g = RBGraph.from_parts([1, 2, 5], [3, 4, 6], [(1, 3), (2, 3), (2, 4), (5, 6)])
    res = kernelize(Instance(g.copy(), 2))
    assert [(rec.tag, rec.witness) for rec in res.trace.records] == [
        ("R1", (1, 2)), ("R2", (3, 4)), ("R3", (2,)), ("R3", (5,))]
    kernel = res.instance.graph
    assert script._replays(g, res.trace, kernel)
    assert script._replays(g, res.trace, None)
    assert not script._replays(g, res.trace, g)
    bad = list(res.trace.records)
    bad[0] = bad[0]._replace(witness=(1, 5))  # N(1) = {3} is not within N(5) = {6}
    assert not script._replays(g, KernelTrace(bad), kernel)
    no = kernelize(Instance(star_beside_matching(), 4))
    assert no.reason == "budget" and script._replays(star_beside_matching(), no.trace, None)


def test_trace_rewrite_check():
    # The script refuses a trace text that format_trace would not write for
    # the records parse_trace reads from it, though the records are the same.
    g = RBGraph.from_parts([1, 2, 5], [3, 4, 6], [(1, 3), (2, 3), (2, 4), (5, 6)])
    text = formats.format_trace(kernelize(Instance(g, 2)).trace)
    assert "\tk_delta=-1\t" in text
    script = _script()
    assert script._rewrites(text)
    assert script._rewrites(formats.format_trace(KernelTrace()))
    want = formats.parse_trace(text)
    for other in (text.replace("\t", " "), text.replace("k_delta=-1", "k_delta=-01"),
                  text.replace("\n", "\r\n"), "c note\n" + text, text + "\n", text[:-1]):
        again = formats.parse_trace(other)
        assert (again.records, again.fingerprint) == (want.records, want.fingerprint)
        assert not script._rewrites(other)
