import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from rbkernel.formats import format_instance
from rbkernel.generators import _stacked_triangulation
from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.planar import (
    DisconnectedError,
    PlaneGraph,
    bipartite_euler_bound,
    is_planar,
    rbgraph_planarity,
)


def complete_graph(n):
    vs = list(range(n))
    return vs, list(itertools.combinations(vs, 2))


def complete_bipartite(a, b):
    vs = list(range(a + b))
    return vs, [(i, a + j) for i in range(a) for j in range(b)]


def cube_graph():
    vs = list(range(8))
    edges = []
    for v in vs:
        for bit in (1, 2, 4):
            if v < v ^ bit:
                edges.append((v, v ^ bit))
    return vs, edges


def embed(vertices, edges) -> PlaneGraph:
    res = is_planar(vertices, edges)
    assert res.planar
    return res.embedding


class TestIsPlanar:
    def test_k4(self):
        res = is_planar(*complete_graph(4))
        assert res.planar and res.witness is None

    def test_k5(self):
        res = is_planar(*complete_graph(5))
        assert not res.planar
        assert res.witness.kind == "K5"

    def test_k33(self):
        res = is_planar(*complete_bipartite(3, 3))
        assert not res.planar
        assert res.witness.kind == "K3,3"

    def test_witness_edges_are_subgraph(self):
        vs, edges = complete_graph(5)
        res = is_planar(vs, edges)
        assert res.witness.edges <= set(edges)

    def test_relabeling_invariance(self):
        vs, edges = complete_graph(5)
        shift = [(u + 100, v + 100) for u, v in edges]
        assert not is_planar([v + 100 for v in vs], shift).planar
        vs2, edges2 = cube_graph()
        assert is_planar([v * 7 for v in vs2], [(u * 7, v * 7) for u, v in edges2]).planar

    def test_embedding_is_valid_rotation(self):
        pg = embed(*complete_graph(4))
        assert pg.n_vertices == 4 and pg.n_edges == 6
        for v in pg.rotation:
            for u in pg.rotation[v]:
                assert v in pg.rotation[u]


class TestEulerBound:
    def test_k33_fails(self):
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6],
                               [(b, r) for b in (1, 2, 3) for r in (4, 5, 6)])
        assert not bipartite_euler_bound(g)

    def test_single_edge(self):
        assert bipartite_euler_bound(RBGraph.from_parts([1], [2], [(1, 2)]))

    def test_c8(self):
        from helpers import alternating_cycle
        assert bipartite_euler_bound(alternating_cycle(4))


class TestFaces:
    def test_triangle_two_faces(self):
        pg = embed(*complete_graph(3))
        assert len(pg.faces()) == 2

    def test_tree_single_face(self):
        edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
        pg = embed(range(5), edges)
        faces = pg.faces()
        assert len(faces) == 1
        assert faces[0].vertices == frozenset(range(5))

    def test_cube_six_faces(self):
        pg = embed(*cube_graph())
        faces = pg.faces()
        assert len(faces) == 6
        assert all(len(f.darts) == 4 for f in faces)

    def test_euler_count(self):
        for builder in (lambda: complete_graph(4), cube_graph,
                        lambda: (range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])):
            pg = embed(*builder())
            assert len(pg.faces()) == pg.n_edges - pg.n_vertices + 2

    def test_darts_partitioned(self):
        pg = embed(*cube_graph())
        darts = [d for f in pg.faces() for d in f.darts]
        assert len(darts) == 2 * pg.n_edges
        assert len(set(darts)) == len(darts)

    def test_single_vertex(self):
        pg = PlaneGraph({7: []})
        assert len(pg.faces()) == 1

    def test_disconnected_rejected(self):
        pg = PlaneGraph({1: [2], 2: [1], 3: [4], 4: [3]})
        with pytest.raises(DisconnectedError):
            pg.faces()


class TestPlaneGraphValidation:
    def test_missing_reverse(self):
        with pytest.raises(GraphError):
            PlaneGraph({1: [2], 2: []})

    def test_duplicate_neighbor(self):
        with pytest.raises(GraphError):
            PlaneGraph({1: [2, 2], 2: [1, 1]})

    def test_self_loop(self):
        with pytest.raises(GraphError):
            PlaneGraph({1: [1]})


class TestRBGraphPlanarity:
    def test_grid_is_planar(self):
        from rbkernel.generators import gen_grid
        assert rbgraph_planarity(gen_grid(4, 5).graph).planar

    def test_k33_instance(self):
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6],
                               [(b, r) for b in (1, 2, 3) for r in (4, 5, 6)])
        res = rbgraph_planarity(g)
        assert not res.planar and res.witness.kind == "K3,3"


# -- networkx as the oracle ------------------------------------------------------
#
# is_planar must return exactly networkx's rotation system, since face ids and
# every trace built on them follow from it, and exactly its Kuratowski subgraph.


def networkx_answer(vertices, edges):
    G = nx.Graph()
    G.add_nodes_from(vertices)
    G.add_edges_from(edges)
    ok, cert = nx.check_planarity(G, counterexample=True)
    if ok:
        return [(v, list(cert.neighbors_cw_order(v))) for v in G.nodes]
    kind = "K5" if max(d for _, d in cert.degree) >= 4 else "K3,3"
    return kind, frozenset((u, v) if u < v else (v, u) for u, v in cert.edges)


def our_answer(vertices, edges):
    res = is_planar(vertices, edges)
    if res.planar:
        return list(res.embedding.rotation.items())
    return res.witness.kind, res.witness.edges


@st.composite
def messy_graphs(draw):
    """Vertex lists in any order that may leave out vertices the edges name
    and may hold isolated ones; edge lists with self-loops, duplicates and
    reversed copies."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    vertices = order[:draw(st.integers(0, n))]
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n + 6))
    again = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges += [e[::-1] if draw(st.booleans()) else e for e in again]
    return vertices, edges


def shuffled(n, edges, rng):
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    rng.shuffle(edges)
    return vertices, edges


class TestNetworkxOracle:
    @settings(max_examples=400, deadline=None)
    @given(messy_graphs())
    def test_messy_graphs(self, graph):
        assert our_answer(*graph) == networkx_answer(*graph)

    @pytest.mark.parametrize("seed", range(3))
    def test_named_only_by_edges(self, seed):
        rng = random.Random(seed)
        edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(45)]
        assert our_answer([], edges) == networkx_answer([], edges)
        assert our_answer([29, 3], edges) == networkx_answer([29, 3], edges)

    @pytest.mark.parametrize("n, seed", [(200, 0), (300, 1), (400, 2)])
    def test_subsampled_stacked_triangulations(self, n, seed):
        rng = random.Random(seed)
        kept = [e for e in _stacked_triangulation(n, rng) if rng.random() < 0.9]
        graph = shuffled(n, kept, rng)
        ours = our_answer(*graph)
        assert ours == networkx_answer(*graph)
        assert len(ours) == n

    @pytest.mark.parametrize("seed", range(3))
    def test_chord_on_stacked_triangulation(self, seed):
        # A maximal planar graph plus one edge is non-planar.
        rng = random.Random(seed)
        edges = _stacked_triangulation(40, rng)
        present = set(edges)
        chord = next(e for e in itertools.combinations(range(40), 2) if e not in present)
        graph = shuffled(40, edges + [chord], rng)
        ours = our_answer(*graph)
        assert ours[0] in ("K5", "K3,3")
        assert ours == networkx_answer(*graph)


class TestStandsAlone:
    def test_long_cycle_needs_no_recursion(self):
        # Every depth-first pass goes n deep on a cycle.
        n = 50_000
        res = is_planar(range(n), [(i, (i + 1) % n) for i in range(n)])
        assert res.planar
        assert res.embedding.rotation[0] == [1, n - 1]
        assert all(len(ns) == 2 for ns in res.embedding.rotation.values())

    def test_library_runs_without_networkx(self, tmp_path):
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6],
                               [(b, r) for b in (1, 2, 3) for r in (4, 5, 6)])
        path = tmp_path / "k33.rbds"
        path.write_text(format_instance(Instance(g, 3)))
        script = "\n".join([
            "import sys",
            "sys.modules['networkx'] = None",
            "import rbkernel, rbkernel.cli",
            "assert rbkernel.is_planar(range(4), %r).planar" % complete_graph(4)[1],
            "assert rbkernel.is_planar(*%r).witness.kind == 'K3,3'" % (complete_bipartite(3, 3),),
            "sys.exit(rbkernel.cli.main(['check-planar', %r]))" % str(path),
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 24, proc.stderr
        assert proc.stdout.startswith("NONPLANAR witness=K3,3")
