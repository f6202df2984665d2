import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel.generators import gen_grid
from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.kernelizer import (
    Match,
    R1,
    R2,
    R3,
    R4_CASE,
    SAN_BLUE,
    RuleApplication,
    _by_container,
    _least_container,
    _pair_private,
    _r3_at,
    _r4_case,
    _r4_pairs,
    apply_rule,
    kernelize,
)
from rbkernel.planar import bipartite_euler_bound

from helpers import (
    alternating_cycle,
    decide,
    is_reduced,
    oracle_pair_private,
    oracle_rule1,
    oracle_rule1_at,
    oracle_rule2,
    oracle_rule2_at,
    oracle_rule3,
    oracle_rule3_set,
    oracle_rule4_all,
    reduce_rules123,
    rule4_case2_witness,
    rule4_case3_witness,
)


def far_private_red_witness():
    # P(2, 4) = {6, 7}; red 6 neighbors 4 only and lies three steps from 2.
    return RBGraph.from_parts(
        range(1, 6), range(6, 11),
        [(1, 8), (1, 9), (2, 7), (2, 10), (3, 8), (3, 10),
         (4, 6), (4, 9), (4, 10), (5, 6), (5, 7)])


def tight_cap_witness():
    # Every blue has degree 2 and every red has |U(r)| = 4 = 2 * max blue
    # degree; R4 case 1 fires on (1, 4) with all four reds private.
    return RBGraph.from_parts(
        range(1, 7), range(7, 11),
        [(1, 7), (1, 8), (2, 7), (2, 10), (3, 7), (3, 9),
         (4, 9), (4, 10), (5, 8), (5, 10), (6, 8), (6, 9)])


def cap_passed_at_last_blue_witness():
    # The largest blue degree is 3.  Red 14 has N = {3, 4, 7}, whose reds
    # are {11, 13, 14}, {8, 12, 14} and {9, 10, 14}: any two of them make
    # five, within 2 * 3, and all three make seven, so U(14) passes the cap
    # only at its last blue.  R4 case 1 fires on (4, 6) with reds 9 and 12.
    return RBGraph.from_parts(
        range(1, 8), range(8, 15),
        [(1, 8), (1, 10), (1, 13), (2, 8), (2, 10), (2, 11), (3, 11), (3, 13), (3, 14),
         (4, 8), (4, 12), (4, 14), (5, 9), (5, 12), (6, 9), (6, 10), (6, 11), (7, 9),
         (7, 10), (7, 14)])


def cap_reached_at_last_blue_witness():
    # Every blue has degree 2.  Red 7 has N = {1, 2, 5}: any two of them see
    # three reds and all three see four, so U(7) ends at exactly 2 * 2, and
    # red 7 is private to (1, 4) and (3, 5), which count all four reds.
    return RBGraph.from_parts(
        range(1, 6), range(6, 10),
        [(1, 7), (1, 9), (2, 7), (2, 8), (3, 8), (3, 9), (4, 6), (4, 8), (5, 6), (5, 7)])


def reds_on(nb: int, nbhds) -> RBGraph:
    """Blues 1..nb and one red on each blue set of ``nbhds``, numbered
    nb + 1 on in that order."""
    return RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + len(nbhds) + 1),
                              [(b, nb + 1 + i) for i, nbhd in enumerate(nbhds) for b in nbhd])


def w_sets_meet_until_last_witness():
    # Past the Euler bound, 32 edges on 17 vertices.  Red 15 has
    # N = {2, 3, 4, 7}; for a = 2 the W sets of blues 3, 4 and 7 are
    # {1, 3, 8, 9}, {4, 5, 6, 8} and {1, 6, 7, 9}, which meet two by two but
    # not all three, so the per-blue count empties its intersection only at
    # the last of them, in whatever order it meets them.
    return reds_on(9, [(1, 2, 3, 7), (1, 2, 4, 5), (1, 3, 8, 9), (1, 6, 7, 9), (1, 6, 8, 9),
                       (2, 3, 4, 7), (4, 5, 6, 8), (5, 6, 8, 9)])


def w_sets_disjoint_witness():
    # Past the Euler bound, 24 edges on 13 vertices.  Red 8 has
    # N = {1, 2, 5, 6}; for a = 1 the W sets of blues 2, 5 and 6 are {2, 3},
    # {4, 5} and {6, 7}, so the first two the per-blue count meets are
    # already disjoint and it stops before the third.
    return reds_on(7, [(1, 2, 5, 6), (1, 3, 4, 5), (1, 3, 4, 7), (2, 3, 4, 5), (2, 3, 6, 7),
                       (4, 5, 6, 7)])


def relabeled(g, label):
    """``g`` with every vertex v renamed ``label(v)``."""
    return RBGraph.from_parts(map(label, g.blue), map(label, g.red),
                              [(label(u), label(v)) for u, v in g.edges()])


def blues_above_reds_witness():
    # rule4_case2_witness with blues 1..6 renamed 11..6 and reds 7..11
    # renamed 1..5: the largest id, blue 11, ends counted pairs such as
    # (10, 11), whose private reds are 1 and 2.
    return relabeled(rule4_case2_witness(), lambda v: 12 - v if v <= 6 else v - 6)


# Twelve interior reds have |U(r)| = 9 > 2 * max blue degree; blue 23 sits
# next to them and P(2, 11) holds two reds.
REDUCED_GRID = reduce_rules123(gen_grid(10, 10).graph)


@st.composite
def r123_reduced_graphs(draw):
    """Small random graphs reduced under R1-R3.  Reds get two or three blue
    neighbors, so about one draw in five survives the reduction."""
    nb = draw(st.integers(2, 8))
    red_nbhds = draw(st.lists(st.sets(st.integers(1, nb), min_size=2, max_size=3),
                              min_size=1, max_size=12))
    nr = len(red_nbhds)
    g = RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + nr + 1),
                           [(b, nb + 1 + i)
                            for i, nbhd in enumerate(red_nbhds) for b in nbhd])
    return reduce_rules123(g)


@st.composite
def dense_reduced_graphs(draw):
    """R1-R3-reduced graphs that fail the bipartite Euler bound: each red sees
    its own d-subset of 5 to 9 blues, d >= 4, and the subsets include every
    cyclic window of d blues.  Equal-size distinct subsets contain one
    another nowhere (no R2), reds of degree d >= 2 leave R3 nothing, and the
    windows through a blue meet in that blue alone (no R1).  With at least
    as many reds as blues, m = d * nR > 2 * (nB + nR) - 4."""
    nb = draw(st.integers(5, 9))
    d = draw(st.integers(4, nb - 1))
    subsets = {frozenset((i + j) % nb + 1 for j in range(d)) for i in range(nb)}
    subsets |= draw(st.sets(st.frozensets(st.integers(1, nb), min_size=d, max_size=d),
                            max_size=10))
    g = RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + len(subsets) + 1),
                           [(b, nb + 1 + i) for i, sub in enumerate(sorted(subsets, key=sorted))
                            for b in sub])
    assert reduce_rules123(g.copy()) == g and not bipartite_euler_bound(g)
    return g


def contained_pairs(g, side):
    """Every (contained, container) pair of vertices of ``side``, by brute
    force over all pairs of it."""
    adj = g.adj
    return [(v, x) for v in sorted(side) for x in sorted(side)
            if v != x and adj[v] and adj[v] <= adj[x]]


def least_witness(pairs) -> dict:
    """The least witness of each key of (key, witness) pairs."""
    least = {}
    for key, w in sorted(pairs):
        least.setdefault(key, w)
    return least


def r1_matches(g):
    """R1 from the scan of every blue, each contained blue with its least
    container, checked against brute force over all pairs of blues and
    against the oracle at every blue; the matches in ascending order."""
    least = {b: x for b in g.blue if (x := _least_container(g.adj, b)) is not None}
    assert least == least_witness(contained_pairs(g, g.blue))
    found = [(Match(R1, (b, least[b])) if b in least else None, oracle_rule1_at(g, b))
             for b in sorted(g.blue)]
    assert all(got == want for got, want in found), found
    return [m for m, _ in found if m is not None]


def r2_matches(g):
    """R2 from the scan over every red, each containing red with its least
    contained red, the scan checked against brute force over all pairs of
    reds and the matches against the oracle at every red."""
    scanned = _by_container(g, g.red)
    want = {}
    for r2, x in contained_pairs(g, g.red):
        want.setdefault(x, []).append(r2)
    assert {x: sorted(r2s) for x, r2s in scanned.items()} == want, (scanned, want)
    least = {x: min(r2s) for x, r2s in scanned.items()}
    found = [(Match(R2, (r, least[r])) if r in least else None, oracle_rule2_at(g, r))
             for r in sorted(g.red)]
    assert all(got == want for got, want in found), found
    return [m for m, _ in found if m is not None]


def r3_matches(g):
    """R3's probe at every blue of a graph that R1 and R2 leave alone,
    checked against the private-neighborhood definition."""
    assert oracle_rule1(g) is None and oracle_rule2(g) is None
    want = oracle_rule3_set(g)
    found = [Match(R3, (b,)) for b in sorted(g.blue) if _r3_at(g, b) is not None]
    assert {m.witness[0] for m in found if m is not None} == want, (found, want)
    return found


def r4_matches(g):
    """R4's probe at every pair of blues of a graph that R1-R3 leave alone,
    checked against the definition, and every firing pair among those the
    pair search counts."""
    hits = {(v, w): Match(R4_CASE[case], (v, w)) for v, w, case, _ in oracle_rule4_all(g)}
    found = [(p, _r4_case(g, *p)) for p in itertools.combinations(sorted(g.blue), 2)]
    assert [Match(R4_CASE[c[0]], p) for p, c in found if c is not None] == list(hits.values())
    assert hits.keys() <= _r4_pairs(g)
    return list(hits.values())


def agreement_for_all_budgets(g):
    """Exact-solver equivalence of kernelize across every budget."""
    for k in range(len(g.blue) + 1):
        res = kernelize(Instance(g.copy(), k))
        got = (not res.is_no) and decide(res.instance.graph, res.instance.k)
        assert got == decide(g, k), "diverged at k=%d" % k


class TestRule1:
    def test_strict_subset(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        assert r1_matches(g) == [Match(R1, (1, 2))]

    def test_incomparable(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        assert r1_matches(g) == []

    def test_equal_neighborhoods_lower_id_removed(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])
        assert r1_matches(g) == [Match(R1, (1, 2)), Match(R1, (2, 1))]
        assert kernelize(Instance(g, 1)).trace.records[0][:2] == (R1, (1, 2))

    def test_matches_oracle_on_classes(self, classes6):
        for g in classes6:
            r1_matches(g)


class TestContainmentScan:
    def test_skips_isolated_and_dead_vertices(self):
        # N(4) and N(6) are empty, so within every neighborhood, but an
        # isolated vertex is neither R1's removed blue nor R2's witness.
        g = RBGraph.from_parts([1, 5, 6], [2, 3, 4], [(1, 2), (1, 3), (5, 3)])
        assert _by_container(g, [2, 4]) == {3: [2]}
        assert _by_container(g, [4, 2]) == {3: [2]}
        assert _by_container(g, [4, 6, 99]) == {}
        assert {v: _least_container(g.adj, v) for v in [1, 5, 6, 4, 99]} == {
            1: None, 5: 1, 6: None, 4: None, 99: None}


class TestRule2:
    def test_strict_superset(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (1, 4)])
        assert r2_matches(g) == [Match(R2, (3, 4))]

    def test_incomparable(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        assert r2_matches(g) == []

    def test_equal_neighborhoods_lower_id_removed(self):
        g = RBGraph.from_parts([1], [2, 3], [(1, 2), (1, 3)])
        assert r2_matches(g) == [Match(R2, (2, 3)), Match(R2, (3, 2))]
        assert kernelize(Instance(g, 1)).trace.records[0][:2] == (R2, (2, 3))

    def test_matches_oracle_on_classes(self, classes6):
        # Undominatable reds included: such a red is never R2's witness.
        for g in classes6:
            r2_matches(g)


class TestRule3:
    def test_pendant_component_next_to_cycle(self):
        g = alternating_cycle(4)
        v = g._add_with_id(20, "b")
        r = g._add_with_id(21, "r")
        g.add_edge(v, r)
        assert r3_matches(g) == [Match(R3, (20,))]
        assert g.adj[20] == {21}

    def test_cycle_alone_has_none(self):
        g = alternating_cycle(4)
        assert oracle_rule3_set(g) == set()
        assert r3_matches(g) == []

    def test_empty_graph(self):
        assert r3_matches(RBGraph()) == []

    def test_agrees_with_definitional_scan(self, classes7):
        for g in classes7:
            if oracle_rule1(g) is None and oracle_rule2(g) is None:
                r3_matches(g)


class TestRule4:
    def test_small_private_sets_absent(self):
        g = alternating_cycle(6)  # every pair has |P| <= 1 or a dominator
        assert r4_matches(g) == []
        assert oracle_rule4_all(g) == []

    def test_third_dominator_blocks(self):
        # P(1,2) = {r1, r2} but blue 3 covers both.
        g = RBGraph.from_parts(
            [1, 2, 3], [4, 5, 6, 7],
            [(1, 4), (1, 6), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7)])
        hits = [h for h in oracle_rule4_all(g) if h[0] == 1 and h[1] == 2]
        assert hits == []

    def test_case1_on_alternating_c8(self):
        g = alternating_cycle(4)
        assert r4_matches(g) == [Match(R4_CASE[1], (1, 3)), Match(R4_CASE[1], (2, 4))]
        assert oracle_rule4_all(g)[0] == (1, 3, 1, frozenset({5, 6, 7, 8}))
        agreement_for_all_budgets(g)

    def test_case2_witness(self):
        g = rule4_case2_witness()
        assert r3_matches(g) == []
        assert r4_matches(g)[0] == Match(R4_CASE[2], (1, 2))
        assert oracle_rule4_all(g)[0] == (1, 2, 2, frozenset({7, 8}))
        agreement_for_all_budgets(g)

    def test_case3_witness(self):
        g = rule4_case3_witness()
        assert r3_matches(g) == []
        assert r4_matches(g)[0] == Match(R4_CASE[3], (1, 2))
        assert oracle_rule4_all(g)[0] == (1, 2, 3, frozenset({7, 8}))
        agreement_for_all_budgets(g)

    def test_case4_witness(self):
        g = rule4_case3_witness(swap_vw=True)
        assert r4_matches(g)[0] == Match(R4_CASE[4], (1, 2))
        assert oracle_rule4_all(g)[0] == (1, 2, 4, frozenset({7, 8}))
        agreement_for_all_budgets(g)

    @given(st.one_of(r123_reduced_graphs(), dense_reduced_graphs()))
    @example(alternating_cycle(4))
    @example(rule4_case2_witness())
    @example(rule4_case3_witness())
    @example(far_private_red_witness())
    @example(tight_cap_witness())
    @example(cap_passed_at_last_blue_witness())
    @example(cap_reached_at_last_blue_witness())
    @example(REDUCED_GRID)
    @example(w_sets_meet_until_last_witness())
    @example(w_sets_disjoint_witness())
    @settings(max_examples=300, deadline=None)
    def test_pair_counting_matches_brute_force(self, g):
        want = {(v, w) for v, w in itertools.combinations(sorted(g.blue), 2)
                if len(oracle_pair_private(g, v, w)) >= 2}
        assert _r4_pairs(g) == want

    @given(r123_reduced_graphs())
    @example(blues_above_reds_witness())
    @settings(max_examples=200, deadline=None)
    def test_pair_keys_hold_large_ids(self, g):
        # The search keys each pair by one int made from both ids; with every
        # id shifted by 10**17 it finds the same pairs, shifted.
        shift = 10**17
        want = {(v + shift, w + shift) for v, w in _r4_pairs(g)}
        assert _r4_pairs(relabeled(g, lambda v: v + shift)) == want

    def test_largest_id_ends_a_counted_pair(self):
        g = blues_above_reds_witness()
        assert max(g.adj) == 11 and 11 in g.blue
        assert (10, 11) in _r4_pairs(g)
        assert _r4_pairs(g) == {(12 - w, 12 - v) for v, w in _r4_pairs(rule4_case2_witness())}

    def test_pair_counting_refuses_r3_match(self):
        # Red 2 is private to blue 1 alone, so no probe lies outside N(1).
        with pytest.raises(GraphError, match="^R3 applies to blue 1 and red 2$"):
            _r4_pairs(RBGraph.from_parts([1], [2], [(1, 2)]))
        # The same next to the cyclic 4-windows of five blues, past the Euler
        # bound, where the search counts blue by blue.
        windows = [((i + j) % 5 + 1, 7 + i) for i in range(5) for j in range(4)]
        g = RBGraph.from_parts(range(1, 7), range(7, 13), windows + [(6, 12)])
        assert not bipartite_euler_bound(g)
        with pytest.raises(GraphError, match="^R3 applies to blue 6 and red 12$"):
            _r4_pairs(g)

    def test_matches_unrestricted_oracle_on_classes(self, classes7):
        for g in classes7:
            if oracle_rule1(g) is None and oracle_rule2(g) is None and oracle_rule3(g) is None:
                r4_matches(g)
                for v, w, _, private in oracle_rule4_all(g):
                    assert _pair_private(g.adj, v, w) == private


class TestApplyRule:
    def test_r1_removes_single_blue(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        before = g.copy()
        rec, removed = apply_rule(g, Match(R1, (1, 2)))
        assert rec == RuleApplication(R1, (1, 2), 0, None)
        assert 1 not in g.adj and 2 in g.adj
        # The step took exactly blue 1, whose only neighbor was 3.
        assert before.adj.keys() - g.adj.keys() == {1} and g.adj.keys() <= before.adj.keys()
        assert 1 in before.blue and before.adj[1] == {3}
        assert removed == [(1, "b", {3})]

    def test_r3_removes_component_and_pays(self):
        g = RBGraph.from_parts([1], [2], [(1, 2)])
        rec, _ = apply_rule(g, Match(R3, (1,)))
        assert rec.delta_k == -1
        assert g.n_vertices == 0
        assert rec.witness == (1,)

    def test_r4_case2_swaps_private_set_for_gadget(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        before = g.copy()
        rec, _ = apply_rule(g, Match(R4_CASE[2], (1, 2)))
        assert rec.delta_k == 0
        assert g.red == {5}
        assert g.adj[5] == {1, 2}
        # The step added exactly red 5, on the pair, and the record names it.
        assert g.adj.keys() - before.adj.keys() == {5}
        assert rec.added == 5

    def test_r4_case1_removes_pair_and_neighborhood(self):
        g = alternating_cycle(4)
        rec, _ = apply_rule(g, Match(R4_CASE[1], (1, 3)))
        assert rec.delta_k == -2
        assert g.blue == {2, 4} and g.red == set()

    def test_isolated_blue_removed_with_its_record(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3)])
        before = g.copy()
        rec, removed = apply_rule(g, Match(SAN_BLUE, (2,)))
        assert rec == RuleApplication(SAN_BLUE, (2,), 0, None)
        assert removed == [(2, "b", set())]
        # The step took exactly blue 2, which had no neighbors.
        assert before.adj.keys() - g.adj.keys() == {2}
        assert 2 in before.blue and before.adj[2] == set()
        assert g.adj == {1: {3}, 3: {1}}
        with pytest.raises(GraphError, match=r"^Sanitize-isolated-blue does not apply at \(2,\)$"):
            apply_rule(g, Match(SAN_BLUE, (2,)))

    def test_stale_finding(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])
        g.remove_vertex(1)
        with pytest.raises(GraphError, match=r"^R1 does not apply at \(1, 2\)$"):
            apply_rule(g, Match(R1, (1, 2)))

    @pytest.mark.parametrize("blues, reds, edges, tag, witness", [
        ([1, 2], [3], [(2, 3)], R1, (1, 2)),
        ([1], [2, 3], [(1, 2)], R2, (2, 3)),
    ])
    def test_isolated_vertex_match_refused(self, blues, reds, edges, tag, witness):
        # The isolated blue 1 and the isolated red 3 have neighborhoods
        # within every other's, but R1 removes only a blue with a neighbor
        # and R2 takes only a witness red with one, as the probes do.
        g = RBGraph.from_parts(blues, reds, edges)
        before = g.copy()
        with pytest.raises(GraphError, match=r"^%s does not apply at \(%d, %d\)$" % (tag, *witness)):
            apply_rule(g, Match(tag, witness))
        assert g == before

    def test_delta_k_table(self):
        # -1 exactly for R3/case3/case4, -2 for case1, 0 otherwise.
        g = alternating_cycle(4)
        rec, _ = apply_rule(g, Match(R4_CASE[1], (1, 3)))
        assert rec.delta_k == -2
        g3 = rule4_case3_witness()
        rec3, _ = apply_rule(g3, Match(R4_CASE[3], (1, 2)))
        assert rec3.delta_k == -1
        g4 = rule4_case3_witness(swap_vw=True)
        rec4, _ = apply_rule(g4, Match(R4_CASE[4], (1, 2)))
        assert rec4.delta_k == -1
        g2 = rule4_case2_witness()
        rec2, _ = apply_rule(g2, Match(R4_CASE[2], (1, 2)))
        assert rec2.delta_k == 0


class TestIsReduced:
    def test_empty(self):
        assert is_reduced(RBGraph())

    def test_single_edge_not_reduced(self):
        assert not is_reduced(RBGraph.from_parts([1], [2], [(1, 2)]))

    def test_alternating_c8_not_reduced(self):
        # R4 case 1 fires on the opposite pair: its joint private set is
        # all four reds and no third blue covers them.
        g = alternating_cycle(4)
        assert oracle_rule3(g) is None
        assert not is_reduced(g)

    def test_alternating_c12_reduced(self):
        g = alternating_cycle(6)
        assert oracle_rule4_all(g) == []
        assert is_reduced(g)
