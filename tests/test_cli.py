import re

import pytest

from rbkernel import formats
from rbkernel.cli import (
    EXIT_BAD_INPUT,
    EXIT_INVALID,
    EXIT_NO,
    EXIT_NONPLANAR,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    main,
)
from rbkernel.generators import gen_grid, gen_matching
from rbkernel.graph import Instance, RBGraph
from rbkernel.planar import PlaneGraph, is_planar

from helpers import alternating_cycle, format_plane


@pytest.fixture
def matching3(tmp_path):
    path = tmp_path / "m3.rbds"
    path.write_text(formats.format_instance(gen_matching(3)))
    return path


class TestKernelizeCommand:
    def test_reduced_summary(self, matching3, capsys):
        assert main(["kernelize", str(matching3)]) == EXIT_OK
        out = capsys.readouterr().out
        assert re.match(r"REDUCED nB=0 nR=0 k'=0 bound=46k'=0", out)

    def test_no_budget(self, tmp_path, capsys):
        path = tmp_path / "m.rbds"
        inst = gen_matching(3)
        path.write_text(formats.format_instance(Instance(inst.graph, 2)))
        assert main(["kernelize", str(path)]) == EXIT_NO
        assert "NO reason=budget" in capsys.readouterr().out

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.rbds"
        path.write_text("p rbds one two three\n")
        assert main(["kernelize", str(path)]) == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

    def test_not_utf8_exits_parse(self, tmp_path, capsys):
        path = tmp_path / "latin1.rbds"
        path.write_bytes(b"c caf\xe9\np rbds 0 0 0\n")
        assert main(["kernelize", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "UTF-8" in err[0]

    def test_emit_no_instance(self, tmp_path, capsys):
        path = tmp_path / "m.rbds"
        inst = gen_matching(2)
        path.write_text(formats.format_instance(Instance(inst.graph, 1)))
        out = tmp_path / "neg.rbds"
        assert main(["kernelize", str(path), "--emit-no-instance",
                     "--out", str(out)]) == EXIT_NO
        neg = formats.parse_instance(out.read_text())
        assert len(neg.graph.blue) == 1 and len(neg.graph.red) == 1
        assert neg.graph.n_edges == 0 and neg.k == 0

    def test_writes_outputs(self, tmp_path):
        src = tmp_path / "g.rbds"
        src.write_text(formats.format_instance(gen_grid(3, 3)))
        out = tmp_path / "kernel.rbds"
        trace = tmp_path / "run.trace"
        assert main(["kernelize", str(src), "--out", str(out),
                     "--trace", str(trace)]) == EXIT_OK
        formats.parse_instance(out.read_text())
        formats.parse_trace(trace.read_text())


class TestPipeline:
    def test_kernelize_solve_lift_verify(self, tmp_path, capsys):
        # Use an instance whose kernel keeps content: two pendant pairs
        # hanging off a reduced cycle would vanish, so craft a mixed one.
        inst = gen_grid(4, 5)
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(inst))
        kernel = tmp_path / "kernel.rbds"
        trace = tmp_path / "run.trace"
        assert main(["kernelize", str(src), "--out", str(kernel),
                     "--trace", str(trace)]) == EXIT_OK
        capsys.readouterr()

        assert main(["solve", str(kernel), "--lift", str(trace)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("OPT ")
        sol = tmp_path / "sol.txt"
        sol.write_text(out[1] + "\n")

        assert main(["verify", str(src), str(sol)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "VALID"

    def test_pipeline_valid_on_corpus(self, tmp_path, capsys):
        from rbkernel.generators import gen_random_planar
        corpus = [gen_grid(3, 3), gen_grid(4, 5), gen_matching(4),
                  gen_random_planar(16, 0.7, 1), gen_random_planar(22, 0.9, 2)]
        for i, inst in enumerate(corpus):
            src = tmp_path / ("c%d.rbds" % i)
            src.write_text(formats.format_instance(inst))
            kernel = tmp_path / ("c%d.kernel" % i)
            trace = tmp_path / ("c%d.trace" % i)
            assert main(["kernelize", str(src), "--out", str(kernel),
                         "--trace", str(trace)]) == EXIT_OK
            capsys.readouterr()
            assert main(["solve", str(kernel), "--lift", str(trace)]) == EXIT_OK
            witness_line = capsys.readouterr().out.splitlines()[1]
            sol = tmp_path / ("c%d.sol" % i)
            sol.write_text(witness_line + "\n")
            assert main(["verify", str(src), str(sol)]) == EXIT_OK
            assert capsys.readouterr().out.strip() == "VALID"

    @pytest.mark.parametrize("bad_line", [
        "r\tR9\tk_delta=0\tremoved=[]\tadded=[]\twitness=(1)",
        "c fingerprint v=x e=0 sha=0123456789abcdef",
        "r\tR3\tk_delta=-1\tremoved=[]\tadded=[]\twitness=()",
    ])
    def test_lift_malformed_trace_exits_parse(self, tmp_path, capsys, bad_line):
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(gen_grid(3, 3)))
        trace = tmp_path / "bad.trace"
        trace.write_text(bad_line + "\n")
        assert main(["solve", str(src), "--lift", str(trace)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_solve_too_deep_exits_too_large(self, tmp_path, capsys):
        # The exact search recurses twice per chosen blue; an alternating
        # cycle through 1,200 reds (optimum 600) exceeds the recursion limit.
        src = tmp_path / "cycle.rbds"
        src.write_text(formats.format_instance(Instance(alternating_cycle(1200), 600)))
        assert main(["solve", str(src)]) == EXIT_TOO_LARGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too large" in err[0]

    def test_solve_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.rbds"
        path.write_text("p rbds 0 0 0\n")
        assert main(["solve", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "OPT 0"

    def test_verify_invalid(self, tmp_path, capsys):
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(gen_matching(2)))
        sol = tmp_path / "sol.txt"
        sol.write_text("s 1\n")
        assert main(["verify", str(src), str(sol)]) == EXIT_INVALID
        assert capsys.readouterr().out.strip() == "INVALID"

    def test_verify_directory_exits_bad_input(self, tmp_path, capsys):
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(gen_matching(2)))
        assert main(["verify", str(src), str(tmp_path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "directory" in err[0]


class TestGenCommand:
    def test_grid(self, tmp_path):
        out = tmp_path / "g.rbds"
        assert main(["gen", "grid", "3", "4", "--out", str(out)]) == EXIT_OK
        inst = formats.parse_instance(out.read_text())
        assert inst.graph.n_vertices == 12

    def test_planar_deterministic(self, tmp_path):
        a, b = tmp_path / "a.rbds", tmp_path / "b.rbds"
        assert main(["gen", "planar", "20", "70", "--seed", "5", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "planar", "20", "70", "--seed", "5", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_bad_params_exit_bad_input(self, tmp_path, capsys):
        out = tmp_path / "g.rbds"
        for argv in (["grid", "0", "3"], ["matching", "0"], ["planar", "2", "50"],
                     ["planar", "10", "0"]):
            assert main(["gen", *argv, "--out", str(out)]) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("gen %s: " % argv[0]) and err.count("\n") == 1
        assert not out.exists()

    def test_missing_params_exit_bad_input(self, tmp_path, capsys):
        out = tmp_path / "g.rbds"
        for argv in (["grid", "3"], ["planar", "20"]):
            assert main(["gen", *argv, "--out", str(out)]) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("gen %s: needs " % argv[0]) and err.count("\n") == 1
        assert not out.exists()


class TestCheckPlanar:
    def test_planar_instance(self, tmp_path, capsys):
        path = tmp_path / "g.rbds"
        path.write_text(formats.format_instance(gen_grid(3, 3)))
        assert main(["check-planar", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "PLANAR"

    def test_nonplanar_instance(self, tmp_path, capsys):
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6],
                               [(b, r) for b in (1, 2, 3) for r in (4, 5, 6)])
        path = tmp_path / "k33.rbds"
        path.write_text(formats.format_instance(Instance(g, 3)))
        assert main(["check-planar", str(path)]) == EXIT_NONPLANAR
        assert "K3,3" in capsys.readouterr().out

    def test_plane_file(self, tmp_path, capsys):
        pg = is_planar(range(3), [(0, 1), (1, 2), (0, 2)]).embedding
        path = tmp_path / "tri.plane"
        path.write_text(format_plane(pg))
        assert main(["check-planar", str(path)]) == EXIT_OK

    def test_plane_file_with_indented_comment(self, tmp_path, capsys):
        pg = is_planar(range(3), [(0, 1), (1, 2), (0, 2)]).embedding
        path = tmp_path / "tri.plane"
        path.write_text("  c a triangle\n" + format_plane(pg))
        assert main(["check-planar", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "PLANAR"


class TestTransformCommand:
    def test_to_ds(self, tmp_path):
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(gen_matching(2)))
        out = tmp_path / "out.ds"
        assert main(["transform", "to-ds", str(src), "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "p ds 6" in text and "budget 3" in text

    def test_face_cover(self, tmp_path):
        pg = is_planar(range(3), [(0, 1), (1, 2), (0, 2)]).embedding
        src = tmp_path / "tri.plane"
        src.write_text(format_plane(pg))
        out = tmp_path / "fc.rbds"
        assert main(["transform", "face-cover", str(src), "-k", "1",
                     "--out", str(out)]) == EXIT_OK
        inst = formats.parse_instance(out.read_text())
        assert len(inst.graph.blue) == 2 and len(inst.graph.red) == 3

    def test_face_cover_negative_budget_exits_bad_input(self, tmp_path, capsys):
        src = tmp_path / "tri.plane"
        src.write_text(format_plane(is_planar(range(3), [(0, 1), (1, 2), (0, 2)]).embedding))
        out = tmp_path / "fc.rbds"
        assert main(["transform", "face-cover", str(src), "-k", "-1",
                     "--out", str(out)]) == EXIT_BAD_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-negative" in err

    def test_face_cover_disconnected_exits_bad_input(self, tmp_path, capsys):
        src = tmp_path / "two.plane"
        src.write_text(format_plane(PlaneGraph({1: [2], 2: [1], 3: [4], 4: [3]})))
        assert main(["transform", "face-cover", str(src)]) == EXIT_BAD_INPUT
        assert "connected" in capsys.readouterr().err


class TestBench:
    def test_csv_rows(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(10):
            (corpus / ("m%02d.rbds" % i)).write_text(
                formats.format_instance(gen_matching(i + 1)))
        assert main(["bench", str(corpus)]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 11  # header plus one row per instance
        assert lines[0].startswith("instance,")
        assert "R3:1" in lines[1]

    @pytest.mark.parametrize("data, why", [
        (b"junk\n", "line 1: unrecognized line 'junk'"),
        (b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_unparsable_file_named(self, tmp_path, capsys, data, why):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.rbds").write_text(formats.format_instance(gen_matching(1)))
        (corpus / "b.rbds").write_bytes(data)
        assert main(["bench", str(corpus)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: b.rbds: " + why) and len(err.splitlines()) == 1

    def test_missing_corpus_exits_bad_input(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "no_such_dir")]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "no_such_dir" in captured.err
