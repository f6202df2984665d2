import pytest

from rbkernel.generators import gen_grid, gen_matching, gen_random_planar
from rbkernel.kernelizer import sanitize
from rbkernel.kernelizer import kernelize
from rbkernel.planar import bipartite_euler_bound, planar_verdict
from rbkernel.solver import min_rbds, verify_solution

from helpers import BLUE, RED, _layout, quadratic_gen_random_planar


class TestGrid:
    def test_1x2(self):
        inst = gen_grid(1, 2)
        g = inst.graph
        assert len(g.blue) == 1 and len(g.red) == 1 and g.n_edges == 1

    def test_2x2_alternating_cycle(self):
        g = gen_grid(2, 2).graph
        assert len(g.blue) == 2 and len(g.red) == 2
        assert g.n_edges == 4
        assert all(len(g.adj[v]) == 2 for v in g.adj)

    def test_4x4_counts_and_planarity(self):
        g = gen_grid(4, 4).graph
        assert g.n_vertices == 16 and g.n_edges == 24
        assert planar_verdict(g.adj)

    def test_budget_is_blue_count(self):
        inst = gen_grid(3, 5)
        assert inst.k == len(inst.graph.blue)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_grid(0, 3)

    def test_single_cell_refused(self):
        # One cell is an isolated blue: sanitize would answer
        # Sanitize-isolated-blue, and every generator emits a sanitized instance.
        with pytest.raises(ValueError, match="two cells"):
            gen_grid(1, 1)

    @pytest.mark.parametrize("rows, cols", [(r, c) for r in range(1, 7) for c in range(1, 7)
                                            if r * c > 1])
    def test_numbering_matches_layout(self, rows, cols):
        # gen_grid numbers the cells itself; _layout, fed the colored grid,
        # is the reference for that numbering and for the edge order.
        def cell(i, j):
            return i * cols + j
        colors = {cell(i, j): BLUE if (i + j) % 2 == 0 else RED
                  for i in range(rows) for j in range(cols)}
        edges = []
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    edges.append((cell(i, j), cell(i, j + 1)))
                if i + 1 < rows:
                    edges.append((cell(i, j), cell(i + 1, j)))
        ref = _layout(colors, edges)
        g = gen_grid(rows, cols).graph
        assert g == ref
        assert {v: list(ns) for v, ns in g.adj.items()} == {v: list(ns) for v, ns in ref.adj.items()}


class TestMatching:
    def test_single(self):
        g = gen_matching(1).graph
        assert g.edges() == [(1, 2)]

    def test_optimum_one_per_component(self):
        assert min_rbds(gen_matching(3).graph).size == 3

    def test_pigeonhole_no(self):
        inst = gen_matching(5)
        from rbkernel.graph import Instance
        assert kernelize(Instance(inst.graph, 4)).is_no


class TestRandomPlanar:
    def test_deterministic(self):
        a = gen_random_planar(20, 0.8, 7)
        b = gen_random_planar(20, 0.8, 7)
        assert a.graph == b.graph and a.k == b.k

    def test_different_seed_differs(self):
        a = gen_random_planar(20, 0.8, 7)
        b = gen_random_planar(20, 0.8, 8)
        assert a.graph != b.graph

    def test_planar_and_euler(self):
        for seed in range(8):
            inst = gen_random_planar(25, 0.7, seed)
            assert planar_verdict(inst.graph.adj)
            assert bipartite_euler_bound(inst.graph)

    def test_sanitize_fixpoint_and_feasible(self):
        for seed in range(8):
            inst = gen_random_planar(18, 0.6, seed)
            assert sanitize(inst.graph) == []

    def test_optimum_is_recomputed_not_assumed(self):
        inst = gen_random_planar(20, 0.8, 7)
        out = min_rbds(inst.graph)
        assert out.feasible
        assert verify_solution(inst.graph, out.witness)
        assert out.size <= inst.k

    def test_seed_metadata(self):
        inst = gen_random_planar(12, 0.5, 3)
        assert inst.meta["seed"] == 3
        assert "algo" in inst.meta

    def test_recoloring_matches_quadratic_loop(self):
        for n, density in ((40, 0.3), (120, 0.5), (200, 0.5), (200, 0.8), (150, 1.0)):
            for seed in range(4):
                got = gen_random_planar(n, density, seed)
                want = quadratic_gen_random_planar(n, density, seed)
                assert (got.graph, got.k) == (want.graph, want.k)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_random_planar(2, 0.5, 0)
        with pytest.raises(ValueError):
            gen_random_planar(10, 0.0, 0)
        with pytest.raises(ValueError):
            gen_random_planar(10, 1.5, 0)
