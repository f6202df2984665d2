import itertools
import random

import pytest

from rbkernel.graph import Instance, RBGraph
from rbkernel.planar import is_planar, rbgraph_planarity
from rbkernel.solver import min_rbds
from rbkernel.transforms import InfeasibleInputError, face_cover_to_rbds, rbds_to_ds

from helpers import brute_force_face_cover, min_ds, random_sanitized_instance


def embed(vertices, edges):
    res = is_planar(vertices, edges)
    assert res.planar
    return res.embedding


def triangle():
    return embed(range(3), [(0, 1), (1, 2), (0, 2)])


def cube():
    edges = [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b]
    return embed(range(8), edges)


class TestFaceCover:
    def test_triangle(self):
        pg = triangle()
        g, vmap, fmap = face_cover_to_rbds(pg)
        assert len(g.red) == 3 and len(g.blue) == 2
        for b in g.blue:
            assert g.adj[b] == set(vmap.values())
        assert min_rbds(g).size == 1
        assert brute_force_face_cover(pg) == 1

    def test_tree_single_face_covers_all(self):
        pg = embed(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
        g, vmap, fmap = face_cover_to_rbds(pg)
        assert len(g.blue) == 1
        assert min_rbds(g).size == 1

    def test_cube_opposite_faces(self):
        pg = cube()
        g, vmap, fmap = face_cover_to_rbds(pg)
        assert len(g.red) == 8 and len(g.blue) == 6
        assert all(len(g.adj[b]) == 4 for b in g.blue)
        assert brute_force_face_cover(pg) == 2
        assert min_rbds(g).size == 2

    def test_output_is_planar(self):
        for pg in (triangle(), cube(), embed(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])):
            g, _, _ = face_cover_to_rbds(pg)
            assert rbgraph_planarity(g).planar

    def test_matches_brute_force_on_corpus(self):
        corpus = [
            triangle(),
            cube(),
            embed(range(4), itertools.combinations(range(4), 2)),  # K4
            embed(range(6), [(i, (i + 1) % 6) for i in range(6)]),  # C6
            embed(range(7), [(0, i) for i in range(1, 7)]),  # star
            embed(range(6), [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]),  # 2x3 grid
        ]
        for pg in corpus:
            g, _, _ = face_cover_to_rbds(pg)
            assert min_rbds(g).size == brute_force_face_cover(pg)

    def test_id_maps_cover_everything(self):
        pg = cube()
        g, vmap, fmap = face_cover_to_rbds(pg)
        assert set(vmap.values()) == g.red
        assert set(fmap.values()) == g.blue


class TestRbdsToDs:
    def test_single_edge(self):
        inst = Instance(RBGraph.from_parts([1], [2], [(1, 2)]), 1)
        adj, k, ids = rbds_to_ds(inst)
        assert len(adj) == 4 and k == 2
        assert adj[ids["pendant"]] == {ids["hub"]}
        assert min_ds(adj).size == 2

    def test_star(self):
        g = RBGraph.from_parts([1], [2, 3, 4], [(1, 2), (1, 3), (1, 4)])
        adj, k, ids = rbds_to_ds(Instance(g, 1))
        assert min_ds(adj).size == 2

    def test_infeasible_rejected(self):
        g = RBGraph.from_parts([], [1])
        with pytest.raises(InfeasibleInputError):
            rbds_to_ds(Instance(g, 1))

    def test_hub_touches_all_blues(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        adj, _, ids = rbds_to_ds(Instance(g, 2))
        assert adj[ids["hub"]] == {1, 2, ids["pendant"]}

    def test_optimum_shifts_by_one(self):
        rng = random.Random(42)
        done = 0
        while done < 40:
            g = random_sanitized_instance(rng, 12)
            if any(not g.adj[r] for r in g.red):
                continue
            done += 1
            adj, _, _ = rbds_to_ds(Instance(g, len(g.blue)))
            assert min_ds(adj).size == min_rbds(g).size + 1
