import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.kernelizer import SAN_BLUE, SAN_EDGE, SAN_NO, _pair_private, sanitize

from helpers import Match, apply_sanitize, oracle_pair_private, oracle_private


def star(n_reds=3):
    g = RBGraph.from_parts([1], range(2, 2 + n_reds))
    for r in range(2, 2 + n_reds):
        g.add_edge(1, r)
    return g


@st.composite
def small_graphs(draw):
    nb = draw(st.integers(0, 4))
    nr = draw(st.integers(0, 4))
    g = RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + nr + 1))
    for b in range(1, nb + 1):
        for r in range(nb + 1, nb + nr + 1):
            if draw(st.booleans()):
                g.add_edge(b, r)
    return g


class TestNeighborhood:
    def test_single_edge(self):
        g = RBGraph.from_parts([1], [2], [(1, 2)])
        assert g.adj[1] == {2}
        assert g.adj[2] == {1}

    def test_isolated(self):
        g = RBGraph.from_parts([1], [])
        assert g.adj[1] == set()

    def test_star(self):
        g = star()
        assert g.adj[1] == {2, 3, 4}

    @given(small_graphs())
    @settings(max_examples=60)
    def test_symmetry(self, g):
        for u in g.adj:
            for v in g.adj[u]:
                assert u in g.adj[v]


class TestPairPrivateNeighborhood:
    def test_shared_degree_two_red(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])
        assert _pair_private(g.adj, 1, 2) == {3}

    def test_third_blue_with_outside_neighbor(self):
        # v-r1, w-r2, both reds also held by b3 which reaches an outside red.
        g = RBGraph.from_parts(
            [1, 2, 3], [4, 5, 6],
            [(1, 4), (2, 5), (3, 4), (3, 5), (3, 6)])
        assert oracle_pair_private(g, 1, 2) == set()
        assert _pair_private(g.adj, 1, 2) == set()

    def test_no_reds(self):
        g = RBGraph.from_parts([1, 2], [])
        assert _pair_private(g.adj, 1, 2) == set()

    @given(small_graphs())
    @settings(max_examples=60)
    def test_matches_definitional_oracle(self, g):
        for v, w in itertools.combinations(sorted(g.blue), 2):
            assert _pair_private(g.adj, v, w) == oracle_pair_private(g, v, w)
            assert _pair_private(g.adj, v, w) == _pair_private(g.adj, w, v)

    @given(small_graphs())
    @settings(max_examples=60)
    def test_contained_in_pair_neighborhood(self, g):
        for v, w in itertools.combinations(sorted(g.blue), 2):
            assert _pair_private(g.adj, v, w) <= g.adj[v] | g.adj[w]

    def test_single_private_union_is_monotone_small(self, classes6):
        # P(v) | P(w) <= P(v, w) on every sanitized class with <= 6 vertices.
        for g in classes6:
            for v, w in itertools.combinations(sorted(g.blue), 2):
                assert oracle_private(g, v) | oracle_private(g, w) \
                    <= _pair_private(g.adj, v, w)


def same_color_edges(g, edges):
    """``g`` with ``edges`` added, same-color ones included."""
    for u, v in edges:
        g.adj[u].add(v)
        g.adj[v].add(u)
    return g


class TestSanitize:
    """``kernelizer.sanitize`` lists its findings without changing the graph;
    ``apply_sanitize`` fires them through ``apply_rule``."""

    def test_same_color_edge_removed(self):
        g = same_color_edges(RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)]), [(1, 2)])
        assert sanitize(g) == [Match(SAN_EDGE, (1, 2))]
        apply_sanitize(g)
        assert 2 not in g.adj[1]

    def test_removed_edges_in_ascending_order(self):
        g = same_color_edges(RBGraph.from_parts([1, 2, 3], [4, 5, 6], [(1, 4), (2, 5), (3, 6)]),
                             [(5, 6), (4, 6), (4, 5), (2, 3), (1, 3), (1, 2)])
        assert [w for _, w in sanitize(g)] == [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
        apply_sanitize(g)
        assert g == RBGraph.from_parts([1, 2, 3], [4, 5, 6], [(1, 4), (2, 5), (3, 6)])

    def test_red_with_only_red_neighbors_is_infeasible(self):
        g = same_color_edges(RBGraph.from_parts([], [1, 2]), [(1, 2)])
        assert sanitize(g) == [Match(SAN_EDGE, (1, 2)), Match(SAN_NO, (1,))]

    def test_clean_graph_unchanged(self):
        assert sanitize(star()) == []

    def test_isolated_blue_removed(self):
        # Blue 1 has no neighbor; blue 4's only neighbor is the blue 2.
        g = same_color_edges(RBGraph.from_parts([1, 2, 4], [3], [(2, 3)]), [(2, 4)])
        assert sanitize(g) == [Match(SAN_EDGE, (2, 4)), Match(SAN_BLUE, (1,)),
                               Match(SAN_BLUE, (4,))]
        apply_sanitize(g)
        assert g == RBGraph.from_parts([2], [3], [(2, 3)])

    def test_finding_leaves_graph_unchanged(self):
        g = same_color_edges(RBGraph.from_parts([1, 2, 4], [3, 5], [(2, 3)]), [(2, 4), (3, 5)])
        before = g.copy()
        assert [t for t, _ in sanitize(g)] == [SAN_EDGE, SAN_EDGE, SAN_BLUE, SAN_BLUE, SAN_NO]
        assert g == before

    @given(small_graphs())
    @settings(max_examples=60)
    def test_idempotent(self, g):
        # Sanitize-NO changes nothing, so only it is found again.
        found = sanitize(g)
        apply_sanitize(g)
        assert sanitize(g) == [m for m in found if m[0] == SAN_NO]


class TestMutation:
    def test_remove_last_vertex(self):
        g = RBGraph.from_parts([1], [])
        g.remove_vertex(1)
        assert g.n_vertices == 0

    def test_add_red_vertex_contract(self):
        g = RBGraph.from_parts([1, 2], [])
        new = g.add_red_vertex({1, 2})
        assert g.adj[new] == {1, 2}
        assert new in g.red

    def test_add_red_vertex_rejects_red_neighbor(self):
        g = RBGraph.from_parts([1], [2], [(1, 2)])
        with pytest.raises(GraphError, match="^neighbor 2 of a new red vertex must be blue$"):
            g.add_red_vertex({2})

    def test_remove_leaves_isolated_red(self):
        g = RBGraph.from_parts([1], [2], [(1, 2)])
        g.remove_vertex(1)
        assert g.red == {2}
        assert g.adj[2] == set()

    def test_ids_never_reused(self):
        g = RBGraph.from_parts([1, 2], [3])
        g.remove_vertex(3)
        new = g.add_red_vertex({1})
        assert new == 4
        another = g.add_red_vertex({2})
        assert another == 5

    def test_no_self_loops(self):
        g = star()
        with pytest.raises(GraphError, match="^self-loop at 1$"):
            g.add_edge(1, 1)

    def test_remove_unknown(self):
        g = star()
        with pytest.raises(GraphError, match="^unknown vertex 42$"):
            g.remove_vertex(42)


class TestValueSemantics:
    def test_copy_is_deep(self):
        g = star()
        h = g.copy()
        h.remove_vertex(2)
        assert g.adj[1] == {2, 3, 4}
        assert g != h

    def test_instance_equality(self):
        a = Instance(star(), 2)
        b = Instance(star(), 2)
        assert a == b
        assert a != Instance(star(), 1)

    def test_counts(self):
        g = star()
        assert g.n_vertices == 4
        assert g.n_edges == 3
        assert g.edges() == [(1, 2), (1, 3), (1, 4)]
