import contextlib
import io
import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rbkernel import cli, formats, planar, solver
from rbkernel.cli import (
    EXIT_BAD_INPUT,
    EXIT_INFEASIBLE,
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
from rbkernel.kernelizer import (SAN_BLUE, SAN_NO, RuleApplication, fingerprint_instance,
                                 kernelize, lift_solution, replay_trace)
from rbkernel.planar import PlaneGraph, is_planar
from rbkernel.solver import min_rbds

from helpers import alternating_cycle, count_left_right, format_plane, star_beside_matching


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

    @staticmethod
    def kernelize_no(tmp_path, inst):
        """Kernelize ``inst`` from a file with --out and --trace, expect NO,
        check that the written trace is of the input and replays on it, and
        return the instance as read and the trace."""
        path = tmp_path / "in.rbds"
        path.write_text(formats.format_instance(inst))
        out, trace = tmp_path / "out.rbds", tmp_path / "run.trace"
        assert main(["kernelize", str(path), "--out", str(out), "--trace", str(trace)]) == EXIT_NO
        read = formats.parse_instance(path.read_text())
        written = formats.parse_trace(trace.read_text())
        assert written.fingerprint == fingerprint_instance(read)
        replay_trace(read.graph, written)
        return read, written

    def test_no_budget(self, tmp_path, capsys):
        inst, trace = self.kernelize_no(tmp_path, Instance(star_beside_matching(), 4))
        assert "NO reason=budget" in capsys.readouterr().out
        # The trace ends at the first record that drives the budget below zero.
        budgets = list(itertools.accumulate((rec.delta_k for rec in trace.records), initial=inst.k))
        assert next(i for i, k in enumerate(budgets) if k < 0) == len(trace.records)

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
        out, trace = tmp_path / "neg.rbds", tmp_path / "run.trace"
        out.write_text("stale\n")
        trace.write_text("stale\n")
        assert main(["kernelize", str(path), "--out", str(out), "--trace", str(trace)]) == EXIT_NO
        assert "NO reason=counting" in capsys.readouterr().out
        neg = formats.parse_instance(out.read_text())
        assert len(neg.graph.blue) == 1 and len(neg.graph.red) == 1
        assert neg.graph.n_edges == 0 and neg.k == 0
        written = formats.parse_trace(trace.read_text())
        assert written.fingerprint == fingerprint_instance(Instance(inst.graph, 1))
        assert written.records == []

    def test_no_counting_keeps_sanitize_records(self, tmp_path, capsys):
        # Four single edges and blue 5 alone at budget 3: sanitize removes
        # blue 5, then four reds against three blues of degree one answer NO
        # before any rule fires.
        g = RBGraph.from_parts(range(1, 6), range(6, 10), zip(range(1, 5), range(6, 10)))
        read, trace = self.kernelize_no(tmp_path, Instance(g, 3))
        assert capsys.readouterr().out == "NO reason=counting\n"
        (lone,) = [b for b in read.graph.blue if not read.graph.adj[b]]
        assert trace.records == [RuleApplication(SAN_BLUE, (lone,), 0, None)]

    def test_isolated_red_no_writes_its_trace(self, tmp_path, capsys):
        # Blue 3 and red 5 have no neighbor.
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6], [(1, 4), (2, 4), (2, 6)])
        _, trace = self.kernelize_no(tmp_path, Instance(g, 2))
        assert "NO reason=isolated-red" in capsys.readouterr().out
        assert trace.records[-1] == RuleApplication(SAN_NO, (5,), 0, None)

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

        assert main(["solve", str(kernel), "--lift", str(trace), "--original", str(src)]) == EXIT_OK
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
            assert main(["solve", str(kernel), "--lift", str(trace),
                         "--original", str(src)]) == EXIT_OK
            witness_line = capsys.readouterr().out.splitlines()[1]
            sol = tmp_path / ("c%d.sol" % i)
            sol.write_text(witness_line + "\n")
            assert main(["verify", str(src), str(sol)]) == EXIT_OK
            assert capsys.readouterr().out.strip() == "VALID"

    @pytest.mark.parametrize("bad_line", [
        "r\tR9\tk_delta=0\tremoved=[]\tadded=[]\twitness=(1)",
        "c fingerprint v=x e=0 sha=0123456789abcdef",
        "r\tR3\tk_delta=-1\tremoved=[]\tadded=[]\twitness=()",
        "r\tR9\tk_delta=0\twitness=(1)",
        "r\tR4-case2\tk_delta=0\twitness=(1,2)",
    ])
    def test_lift_malformed_trace_exits_parse(self, tmp_path, capsys, bad_line):
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(gen_grid(3, 3)))
        trace = tmp_path / "bad.trace"
        trace.write_text(bad_line + "\n")
        assert main(["solve", str(src), "--lift", str(trace), "--original", str(src)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    @pytest.fixture
    def lift_files(self, tmp_path, capsys):
        """A 4 x 5 grid instance, its kernel and its trace, as files."""
        src = tmp_path / "in.rbds"
        src.write_text(formats.format_instance(gen_grid(4, 5)))
        kernel, trace = tmp_path / "kernel.rbds", tmp_path / "run.trace"
        assert main(["kernelize", str(src), "--out", str(kernel),
                     "--trace", str(trace)]) == EXIT_OK
        capsys.readouterr()
        return src, kernel, trace

    def test_lift_without_original_exits_bad_input(self, lift_files, capsys):
        src, kernel, trace = lift_files
        assert main(["solve", str(kernel), "--lift", str(trace)]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "--original" in err

    def test_original_without_lift_exits_bad_input(self, lift_files, capsys):
        src, kernel, trace = lift_files
        assert main(["solve", str(kernel), "--original", str(src)]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "--lift" in err

    def test_foreign_trace_exits_bad_input(self, lift_files, tmp_path, capsys):
        src, kernel, trace = lift_files
        other = tmp_path / "other.rbds"
        other.write_text(formats.format_instance(gen_grid(5, 4)))
        assert main(["solve", str(kernel), "--lift", str(trace),
                     "--original", str(other)]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "fingerprint" in err

    def test_trace_that_does_not_replay_exits_bad_input(self, lift_files, capsys):
        # The first R1 record names a witness blue whose neighborhood does
        # not contain the removed blue's: the replay refuses that record.
        src, kernel, trace = lift_files
        lines = trace.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("r\tR1\t"))
        b = int(lines[i].split("(")[1].split(",")[0])
        lines[i] = "r\tR1\tk_delta=0\twitness=(%d,%d)" % (b, b)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(kernel), "--lift", str(trace),
                     "--original", str(src)]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "record %d, R1" % i in err

    def test_trace_of_another_kernel_exits_bad_input(self, lift_files, capsys):
        # Dropping the last record leaves a trace that replays, but not to
        # the kernel it is given with.
        src, kernel, trace = lift_files
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["solve", str(kernel), "--lift", str(trace),
                     "--original", str(src)]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "not at the kernel" in err

    def test_kernel_naming_one_id_twice_exits_bad_input(self, lift_files, capsys):
        # Two c origid lines of the kernel give one original id: the kernel
        # has no graph under its original ids to replay to.
        src, kernel, trace = lift_files
        text = kernel.read_text()
        first = re.search(r"^c origid \d+ (\d+)$", text, re.M)[1]
        kernel.write_text(re.sub(r"^(c origid \d+ )\d+$", r"\g<1>" + first,
                                 text, count=2, flags=re.M))
        assert main(["solve", str(kernel), "--lift", str(trace),
                     "--original", str(src)]) == EXIT_BAD_INPUT
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "already live" in err and "Traceback" not in err

    def test_lift_that_does_not_dominate_exits_invalid(self, lift_files, capsys, monkeypatch):
        # The checks before the lift leave no way to a bad lift but a fault
        # in lifting itself, so one is put in: a lift that loses every blue.
        src, kernel, trace = lift_files
        monkeypatch.setattr(cli, "lift_solution", lambda trace, solution: set())
        assert main(["solve", str(kernel), "--lift", str(trace),
                     "--original", str(src)]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "does not dominate" in err

    def test_solve_too_deep_exits_too_large(self, tmp_path, capsys):
        # The exact search recurses once per chosen blue; an alternating
        # cycle through 2,400 reds (optimum 1,200) exceeds the recursion
        # limit.
        src = tmp_path / "cycle.rbds"
        src.write_text(formats.format_instance(Instance(alternating_cycle(2400), 1200)))
        assert main(["solve", str(src)]) == EXIT_TOO_LARGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "too large" in err[0]

    def test_solve_deep_cycle(self, tmp_path, capsys):
        # Through 1,200 reds the search needs 600 frames, within the limit.
        src = tmp_path / "cycle.rbds"
        src.write_text(formats.format_instance(Instance(alternating_cycle(1200), 600)))
        assert main(["solve", str(src)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "OPT 600"

    def test_solve_past_state_budget_exits_too_large(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "kernel.rbds"
        src.write_text(formats.format_instance(kernelize(gen_grid(6, 30)).instance))
        monkeypatch.setattr(solver, "MAX_STATES", 100)
        assert main(["solve", str(src)]) == EXIT_TOO_LARGE
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "MAX_STATES = 100 " in err

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

    @pytest.mark.parametrize("instance, solution", [
        ("p rbds 2 2 +1\ne 1 3\ne 2 4\n", "s 1 2\n"),
        ("p rbds 2 2 2\ne 1 3\ne 2 4\n", "s 1 2\njunk line\ns 9\n"),
    ])
    def test_verify_lenient_input_exits_parse(self, tmp_path, capsys, instance, solution):
        src, sol = tmp_path / "in.rbds", tmp_path / "sol.txt"
        src.write_text(instance)
        sol.write_text(solution)
        assert main(["verify", str(src), str(sol)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

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
        # An argument the subcommand does not use is refused, not ignored.
        for argv in (["gen", "grid", "0", "3"], ["gen", "matching", "0"],
                     ["gen", "planar", "2", "50"], ["gen", "planar", "10", "0"],
                     ["gen", "planar", "20", "70", "--seed", "1" + "0" * 18],
                     ["gen", "grid", "3", "4", "--seed", "5"],
                     ["gen", "grid", "3", "4", "--seed", "0"],
                     ["gen", "matching", "3", "--seed", "5"]):
            assert main([*argv, "--out", str(out)]) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("%s %s: " % tuple(argv[:2])) and err.count("\n") == 1
        assert not out.exists()

    def test_single_cell_grid_refused(self, tmp_path, capsys):
        # One cell is an isolated blue, which sanitize would remove, so no
        # 'p rbds 1 0 1' file is written.
        out = tmp_path / "g.rbds"
        assert main(["gen", "grid", "1", "1", "--out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("gen grid: ") and "two cells" in err and err.count("\n") == 1
        assert not out.exists()

    def test_oversized_refused_in_constant_memory(self, tmp_path, capsys):
        # The reader refuses more than MAX_VERTICES vertices, so gen refuses
        # to build such an instance before allocating it.
        out = tmp_path / "g.rbds"
        for argv in (["grid", "1000000", "1000000"], ["grid", "1", str(formats.MAX_VERTICES + 1)],
                     ["matching", str(formats.MAX_VERTICES // 2 + 1)],
                     ["planar", "1000000000", "50"]):
            tracemalloc.start()
            try:
                assert main(["gen", *argv, "--out", str(out)]) == EXIT_BAD_INPUT
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            err = capsys.readouterr().err
            assert err.startswith("gen %s: " % argv[0]) and err.count("\n") == 1
        assert not out.exists()

    def test_missing_params_exit_bad_input(self, tmp_path, capsys):
        out = tmp_path / "g.rbds"
        for argv in (["grid", "3"], ["planar", "20"], ["grid", "2", "2", "9", "9"],
                     ["matching", "3", "4"], ["planar", "20", "70", "5"]):
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
        assert capsys.readouterr().out == "NONPLANAR euler n=6 m=9\n"

    def test_instance_runs_the_test_once_and_embeds_nothing(self, tmp_path, capsys,
                                                           monkeypatch):
        path = tmp_path / "grid.rbds"
        path.write_text(formats.format_instance(gen_grid(30, 30)))

        def no_embedding(self, rotation):
            raise AssertionError("check-planar needs the verdict alone")

        def no_table(cls, *table):
            raise AssertionError("check-planar needs the verdict alone")

        monkeypatch.setattr(PlaneGraph, "__init__", no_embedding)
        monkeypatch.setattr(PlaneGraph, "_trusted", classmethod(no_table))
        calls = count_left_right(monkeypatch)
        assert main(["check-planar", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "PLANAR\n"
        assert calls == [False]

    def test_plane_file_answers_for_its_edge_set(self, tmp_path, capsys, monkeypatch):
        # The rotation is K4 on the torus, V - E + F = 0, which transform
        # face-cover refuses; the edge set, K4, is planar.
        path = tmp_path / "k4.plane"
        path.write_text("p plane 4 6\nv 0: 1 2 3\nv 1: 0 2 3\nv 2: 0 3 1\nv 3: 0 1 2\n")
        calls = count_left_right(monkeypatch)
        assert main(["check-planar", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "PLANAR\n"
        assert calls == [False]

    def test_nonplanar_plane_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k33.plane"
        path.write_text("p plane 6 9\n" + "".join(
            "v %d: %s\n" % (v, " ".join(str(u) for u in range(6) if (u < 3) != (v < 3)))
            for v in range(6)))
        calls = count_left_right(monkeypatch)
        assert main(["check-planar", str(path)]) == EXIT_NONPLANAR
        assert capsys.readouterr().out == "NONPLANAR\n"
        assert calls == [False]

    def test_nonplanar_within_euler_bound(self, tmp_path, capsys):
        # K3,3 with the edge 1-4 subdivided by red 8 and blue 7: 8 vertices
        # and 11 edges pass m <= 2n - 4, so the left-right test decides.
        edges = [(b, r) for b in (1, 2, 3) for r in (4, 5, 6) if (b, r) != (1, 4)]
        g = RBGraph.from_parts([1, 2, 3, 7], [4, 5, 6, 8], edges + [(1, 8), (7, 8), (7, 4)])
        path = tmp_path / "k33-subdivided.rbds"
        path.write_text(formats.format_instance(Instance(g, 3)))
        assert main(["check-planar", str(path)]) == EXIT_NONPLANAR
        assert capsys.readouterr().out == "NONPLANAR\n"

    def test_dense_instance_fails_euler_without_the_test(self, tmp_path, capsys, monkeypatch):
        # Each of 12 reds sees its own 3 of 6 blues: 36 edges > 2 * 18 - 4.
        rng = random.Random(7)
        subsets = rng.sample(list(itertools.combinations(range(1, 7), 3)), 12)
        g = RBGraph.from_parts(range(1, 7), range(7, 19),
                               [(b, 7 + i) for i, sub in enumerate(subsets) for b in sub])
        path = tmp_path / "dense.rbds"
        path.write_text(formats.format_instance(Instance(g, 2)))

        def no_test(adj, embed):
            raise AssertionError("the Euler bound already decides")

        monkeypatch.setattr(planar, "_left_right", no_test)
        assert main(["check-planar", str(path)]) == EXIT_NONPLANAR
        assert capsys.readouterr().out == "NONPLANAR euler n=18 m=36\n"

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


    def test_lenient_plane_file_exits_parse(self, tmp_path, capsys):
        path = tmp_path / "edge.plane"
        path.write_text("p plane 2 1\nv +1: 2\nv 2: 0_1\n")
        assert main(["check-planar", str(path)]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err


class TestTransformCommand:
    def test_face_cover_is_the_only_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "to-ds", "x.rbds"])
        assert exc.value.code == EXIT_PARSE
        assert "invalid choice: 'to-ds'" in capsys.readouterr().err

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

    def test_face_cover_budget_the_reader_refuses_exits_bad_input(self, tmp_path, capsys):
        src = tmp_path / "tri.plane"
        src.write_text(format_plane(is_planar(range(3), [(0, 1), (1, 2), (0, 2)]).embedding))
        out = tmp_path / "fc.rbds"
        assert main(["transform", "face-cover", str(src), "-k", "1" + "0" * 18,
                     "--out", str(out)]) == EXIT_BAD_INPUT
        assert not out.exists()
        assert "18 digits" in capsys.readouterr().err

    def test_bad_budget_with_malformed_plane_file_exits_parse(self, tmp_path, capsys):
        # The plane file is read before the budget is written, so its error
        # comes first.
        src = tmp_path / "bad.plane"
        src.write_text("p plane 2 1\nv 1: 2\n")
        assert main(["transform", "face-cover", str(src), "-k", "-1"]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_face_cover_disconnected_exits_bad_input(self, tmp_path, capsys):
        src = tmp_path / "two.plane"
        src.write_text(format_plane(PlaneGraph({1: [2], 2: [1], 3: [4], 4: [3]})))
        assert main(["transform", "face-cover", str(src)]) == EXIT_BAD_INPUT
        assert "connected" in capsys.readouterr().err

    def test_face_cover_torus_embedding_exits_bad_input(self, tmp_path, capsys):
        src = tmp_path / "k4.plane"
        src.write_text("p plane 4 6\nv 0: 1 2 3\nv 1: 0 2 3\nv 2: 0 3 1\nv 3: 0 1 2\n")
        out = tmp_path / "fc.rbds"
        assert main(["transform", "face-cover", str(src), "--out", str(out)]) == EXIT_BAD_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "not a plane embedding" in err


# Each run names its files by role; the fuzz test edits the target's bytes.
_FUZZ_RUNS = [
    (["kernelize", "in.rbds"], "in.rbds"),
    (["solve", "kernel.rbds", "--lift", "run.trace", "--original", "in.rbds"], "kernel.rbds"),
    (["solve", "kernel.rbds", "--lift", "run.trace", "--original", "in.rbds"], "run.trace"),
    (["solve", "kernel.rbds", "--lift", "run.trace", "--original", "in.rbds"], "in.rbds"),
    (["verify", "in.rbds", "sol.txt"], "in.rbds"),
    (["verify", "in.rbds", "sol.txt"], "sol.txt"),
    (["transform", "face-cover", "g.plane"], "g.plane"),
    (["check-planar", "in.rbds"], "in.rbds"),
    (["check-planar", "g.plane"], "g.plane"),
]
_DOCUMENTED_EXITS = {EXIT_OK, EXIT_PARSE, EXIT_BAD_INPUT, EXIT_NO, EXIT_INFEASIBLE,
                     EXIT_INVALID, EXIT_TOO_LARGE, EXIT_NONPLANAR}
_EDIT = st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 1 << 16),
                  st.sampled_from(b"0123456789 -\t\ncpesr") | st.integers(0, 255))


def _edited(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in edits:
        i = pos % (len(buf) + 1)
        if op == "insert":
            buf.insert(i, byte)
        elif i < len(buf):
            if op == "delete":
                del buf[i]
            else:
                buf[i] = byte
    return bytes(buf)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid file for every role of _FUZZ_RUNS: a grid instance, its
    kernel and trace, the lifted solution and a plane file."""
    inst = gen_grid(4, 5)
    result = kernelize(inst)
    kernel = result.instance
    witness = lift_solution(result.trace, set(min_rbds(kernel.graph).witness))
    wheel = [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)]
    texts = {
        "in.rbds": formats.format_instance(inst),
        "kernel.rbds": formats.format_instance(kernel),
        "run.trace": formats.format_trace(result.trace),
        "sol.txt": formats.format_solution(witness),
        "g.plane": format_plane(is_planar(range(6), wheel).embedding),
    }
    root = tmp_path_factory.mktemp("valid")
    for name, text in texts.items():
        (root / name).write_text(text)
    return root


class TestFuzz:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(run=st.sampled_from(_FUZZ_RUNS), edits=st.lists(_EDIT, min_size=1, max_size=4))
    def test_edited_input_exits_with_a_documented_code(self, valid_files, run, edits):
        argv, target = run
        edited = valid_files / ("edited-" + target)
        edited.write_bytes(_edited((valid_files / target).read_bytes(), edits))
        argv = [str(edited) if a == target else str(valid_files / a) if "." in a else a
                for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in _DOCUMENTED_EXITS
