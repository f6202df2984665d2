import dataclasses
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
    PlanarityResult,
    PlaneGraph,
    bipartite_euler_bound,
    is_planar,
    planar_verdict,
)

from helpers import adjacency, count_left_right, face_sets


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


def petersen_graph():
    vs = list(range(10))
    return vs, ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def subdivided(graph):
    """Each edge of ``graph`` split by a new vertex; the new vertices follow
    the old ones, in edge order."""
    vs, edges = graph
    n = len(vs)
    return (list(vs) + list(range(n, n + len(edges))),
            [e for i, (u, v) in enumerate(edges) for e in ((u, n + i), (n + i, v))])


def shuffled(n, edges, rng):
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    rng.shuffle(edges)
    return vertices, edges


def chord_on_stacked_triangulation(rng):
    """A maximal planar graph on 40 vertices plus one edge, so non-planar,
    its vertices and edges shuffled."""
    edges = _stacked_triangulation(40, rng)
    present = set(edges)
    chord = next(e for e in itertools.combinations(range(40), 2) if e not in present)
    return shuffled(40, edges + [chord], rng)


def embed(vertices, edges) -> PlaneGraph:
    res = is_planar(vertices, edges)
    assert res.planar
    return res.embedding


class TestIsPlanar:
    def test_k4(self):
        res = is_planar(*complete_graph(4))
        assert res.planar and res.embedding is not None

    def test_k5(self):
        res = is_planar(*complete_graph(5))
        assert not res.planar and res.embedding is None

    def test_k33(self):
        res = is_planar(*complete_bipartite(3, 3))
        assert not res.planar and res.embedding is None

    # K5 and the chord exceed 3n - 6 edges, which the test rejects on entry;
    # the others are sparse enough that it runs to its conflict.
    @pytest.mark.parametrize("graph", [
        complete_graph(5), complete_bipartite(3, 3),
        chord_on_stacked_triangulation(random.Random(0)),
        subdivided(complete_graph(5)), subdivided(complete_bipartite(3, 3)),
        petersen_graph()], ids=["K5", "K3,3", "chord", "K5-subdivided",
                                "K3,3-subdivided", "petersen"])
    def test_nonplanar_verdict_runs_the_test_once(self, graph, monkeypatch):
        calls = count_left_right(monkeypatch)
        assert not is_planar(*graph).planar
        assert calls == [True]
        calls.clear()
        assert not planar_verdict(adjacency(*graph))
        assert calls == [False]

    @pytest.mark.parametrize("graph", [complete_graph(4), cube_graph()], ids=["K4", "cube"])
    def test_planar_embedding_runs_the_test_once(self, graph, monkeypatch):
        calls = count_left_right(monkeypatch)
        assert is_planar(*graph).embedding is not None
        assert calls == [True]
        calls.clear()
        assert planar_verdict(adjacency(*graph))
        assert calls == [False]

    def test_result_holds_the_embedding_alone(self):
        assert [f.name for f in dataclasses.fields(PlanarityResult)] == ["embedding"]
        assert not PlanarityResult().planar
        assert PlanarityResult(embed(*complete_graph(3))).planar

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
        assert face_sets(pg) == [frozenset(range(5))]

    def test_cube_six_faces(self):
        pg = embed(*cube_graph())
        faces = face_sets(pg)
        # Each face of the cube fixes one of the three bits of its corners.
        want = {frozenset(v for v in range(8) if v & bit == side)
                for bit in (1, 2, 4) for side in (0, bit)}
        assert len(faces) == 6 and set(faces) == want

    def test_euler_count(self):
        for builder in (lambda: complete_graph(4), cube_graph,
                        lambda: (range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])):
            pg = embed(*builder())
            assert len(pg.faces()) == pg.n_edges - pg.n_vertices + 2

    def test_vertex_face_incidences(self):
        # In a 3-connected plane graph the faces around a vertex are
        # distinct, so each vertex lies on exactly deg(v) of them.
        for pg in (embed(*cube_graph()),
                   embed(range(60), _stacked_triangulation(60, random.Random(3)))):
            faces = face_sets(pg)
            for v, ns in pg.rotation.items():
                assert sum(v in f for f in faces) == len(ns), v

    def test_single_vertex(self):
        pg = PlaneGraph({7: []})
        assert len(pg.faces()) == 1

    def test_disconnected_rejected(self):
        pg = PlaneGraph({1: [2], 2: [1], 3: [4], 4: [3]})
        with pytest.raises(GraphError, match="^face traversal needs a connected graph$"):
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
        assert planar_verdict(gen_grid(4, 5).graph.adj)

    def test_k33_instance(self):
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6],
                               [(b, r) for b in (1, 2, 3) for r in (4, 5, 6)])
        assert not planar_verdict(g.adj)

    def test_subdivided_k33_within_euler_bound(self):
        # Six blue branch vertices, nine red subdivision vertices: 15 vertices
        # and 18 edges meet m <= 2n - 4, so only the left-right test decides.
        vs, edges = subdivided(complete_bipartite(3, 3))
        g = RBGraph.from_parts([v + 1 for v in vs[:6]], [v + 1 for v in vs[6:]],
                               [(u + 1, v + 1) if u < 6 else (v + 1, u + 1) for u, v in edges])
        assert bipartite_euler_bound(g)
        assert not planar_verdict(g.adj)


# -- networkx as the oracle ------------------------------------------------------
#
# is_planar must return networkx's verdict and, on a planar graph, exactly its
# rotation system, since face ids and every trace built on them follow from it.
# A non-planar graph answers False on both sides.  planar_verdict must return
# networkx's verdict on the same graph.


def networkx_answer(vertices, edges):
    G = nx.Graph()
    G.add_nodes_from(vertices)
    G.add_edges_from(edges)
    ok, cert = nx.check_planarity(G)
    if ok:
        return [(v, list(cert.neighbors_cw_order(v))) for v in G.nodes]
    return False


def our_answer(vertices, edges):
    res = is_planar(vertices, edges)
    if res.planar:
        return list(res.embedding.rotation.items())
    return False


def checked_answer(vertices, edges):
    """``our_answer``, after checking it, and ``planar_verdict`` on the same
    graph, against networkx."""
    theirs = networkx_answer(vertices, edges)
    ours = our_answer(vertices, edges)
    assert ours == theirs
    assert planar_verdict(adjacency(vertices, edges)) is (theirs is not False)
    return ours


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


class TestNetworkxOracle:
    @settings(max_examples=400, deadline=None)
    @given(messy_graphs())
    def test_messy_graphs(self, graph):
        checked_answer(*graph)

    @pytest.mark.parametrize("seed", range(3))
    def test_named_only_by_edges(self, seed):
        rng = random.Random(seed)
        edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(45)]
        checked_answer([], edges)
        checked_answer([29, 3], edges)

    @pytest.mark.parametrize("n, seed", [(200, 0), (300, 1), (400, 2)])
    def test_subsampled_stacked_triangulations(self, n, seed):
        rng = random.Random(seed)
        kept = [e for e in _stacked_triangulation(n, rng) if rng.random() < 0.9]
        graph = shuffled(n, kept, rng)
        assert len(checked_answer(*graph)) == n

    @pytest.mark.parametrize("seed", range(3))
    def test_chord_on_stacked_triangulation(self, seed):
        graph = chord_on_stacked_triangulation(random.Random(seed))
        assert checked_answer(*graph) is False


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
            "assert not rbkernel.is_planar(*%r).planar" % (complete_bipartite(3, 3),),
            "sys.exit(rbkernel.cli.main(['check-planar', %r]))" % str(path),
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 24, proc.stderr
        assert proc.stdout == "NONPLANAR euler n=6 m=9\n"
