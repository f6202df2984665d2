import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel.generators import gen_grid
from rbkernel.graph import Instance, RBGraph
from rbkernel.kernelizer import (
    ContractViolation,
    Match,
    R1,
    R2,
    R3,
    R4_CASE,
    SAN_BLUE,
    RuleApplication,
    RuleNotApplicableError,
    _pair_private,
    _r4_pairs,
    apply_rule,
    find_rule1,
    find_rule2,
    find_rule3,
    find_rule4,
    kernelize,
)
from rbkernel.planar import bipartite_euler_bound

from helpers import (
    alternating_cycle,
    decide,
    is_reduced,
    oracle_pair_private,
    oracle_rule1,
    oracle_rule2,
    oracle_rule3_set,
    oracle_rule4_all,
    reduce_rules123,
)


def rule4_case2_witness():
    # blues: v=1 w=2 y1=3 y2=4 za=5 zc=6; reds: p1=7 p2=8 a=9 c=10 e=11.
    # p1, p2 are private to the pair; a and c leak through za/zc to e.
    return RBGraph.from_parts(
        range(1, 7), range(7, 12),
        [(1, 7), (1, 8), (1, 9), (2, 7), (2, 8), (2, 10),
         (3, 7), (3, 9), (3, 10), (4, 8), (4, 9), (4, 10),
         (5, 9), (5, 11), (6, 10), (6, 11)])


def rule4_case3_witness(swap_vw=False):
    # blues: v=1 w=2 y=3 z=4 z2=5 z3=6; reds: q1=7 q2=8 c=9 e=10 f=11 g=12.
    # P(v,w) = {q1,q2} sits inside N(v) only; the z-cycle keeps c public.
    a, b = (2, 1) if swap_vw else (1, 2)
    return RBGraph.from_parts(
        range(1, 7), range(7, 13),
        [(a, 7), (a, 8), (b, 7), (b, 9), (3, 8), (3, 9),
         (4, 9), (4, 10), (4, 12), (5, 10), (5, 11), (6, 11), (6, 12)])


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


def agreement_for_all_budgets(g):
    """Exact-solver equivalence of kernelize across every budget."""
    for k in range(len(g.blue) + 1):
        res = kernelize(Instance(g.copy(), k))
        got = (not res.is_no) and decide(res.instance.graph, res.instance.k)
        assert got == decide(g, k), "diverged at k=%d" % k


class TestRule1:
    def test_strict_subset(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        assert find_rule1(g) == Match(R1, (1, 2))

    def test_incomparable(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        assert find_rule1(g) is None

    def test_equal_neighborhoods_lower_id_removed(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])
        assert find_rule1(g) == Match(R1, (1, 2))

    def test_matches_oracle_on_classes(self, classes6):
        for g in classes6:
            expect = oracle_rule1(g)
            got = find_rule1(g)
            assert (got is None) == (expect is None)
            if got is not None:
                assert got.witness == expect


class TestRule2:
    def test_strict_superset(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (1, 4)])
        assert find_rule2(g) == Match(R2, (3, 4))

    def test_incomparable(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        assert find_rule2(g) is None

    def test_equal_neighborhoods_lower_id_removed(self):
        g = RBGraph.from_parts([1], [2, 3], [(1, 2), (1, 3)])
        assert find_rule2(g) == Match(R2, (2, 3))

    def test_matches_oracle_on_classes(self, classes6):
        for g in classes6:
            if any(not g.adj[r] for r in g.red):
                continue  # undominatable reds are out of contract for R2
            expect = oracle_rule2(g)
            got = find_rule2(g)
            assert (got is None) == (expect is None)
            if got is not None:
                assert got.witness == expect


class TestRule3:
    def test_pendant_component_next_to_cycle(self):
        g = alternating_cycle(4)
        v = g._add_with_id(20, "b")
        r = g._add_with_id(21, "r")
        g.add_edge(v, r)
        assert find_rule3(g) == Match(R3, (20,))
        assert g.adj[20] == {21}

    def test_cycle_alone_has_none(self):
        g = alternating_cycle(4)
        assert oracle_rule3_set(g) == set()
        assert find_rule3(g) is None

    def test_empty_graph(self):
        assert find_rule3(RBGraph()) is None

    def test_contract_checked(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])  # R1 applies
        with pytest.raises(AssertionError):
            find_rule3(g)

    def test_agrees_with_definitional_scan(self, classes7):
        for g in classes7:
            if any(not g.adj[r] for r in g.red):
                continue
            if find_rule1(g) is not None or find_rule2(g) is not None:
                continue
            fact6 = {v for v in sorted(g.blue)
                     if len(g.adj[v]) == 1
                     and len(g.adj[next(iter(g.adj[v]))]) == 1}
            assert fact6 == oracle_rule3_set(g)


class TestRule4:
    def test_small_private_sets_absent(self):
        g = alternating_cycle(6)  # every pair has |P| <= 1 or a dominator
        assert find_rule4(g) is None
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
        m = find_rule4(g)
        assert m == Match(R4_CASE[1], (1, 3))
        assert oracle_rule4_all(g)[0] == (1, 3, 1, frozenset({5, 6, 7, 8}))
        agreement_for_all_budgets(g)

    def test_case2_witness(self):
        g = rule4_case2_witness()
        assert find_rule1(g) is None and find_rule2(g) is None
        assert find_rule3(g) is None
        m = find_rule4(g)
        assert m == Match(R4_CASE[2], (1, 2))
        assert oracle_rule4_all(g)[0] == (1, 2, 2, frozenset({7, 8}))
        agreement_for_all_budgets(g)

    def test_case3_witness(self):
        g = rule4_case3_witness()
        assert find_rule1(g) is None and find_rule2(g) is None
        assert find_rule3(g) is None
        m = find_rule4(g)
        assert m == Match(R4_CASE[3], (1, 2))
        assert oracle_rule4_all(g)[0] == (1, 2, 3, frozenset({7, 8}))
        agreement_for_all_budgets(g)

    def test_case4_witness(self):
        g = rule4_case3_witness(swap_vw=True)
        m = find_rule4(g)
        assert m == Match(R4_CASE[4], (1, 2))
        assert oracle_rule4_all(g)[0] == (1, 2, 4, frozenset({7, 8}))
        agreement_for_all_budgets(g)

    @given(st.one_of(r123_reduced_graphs(), dense_reduced_graphs()))
    @example(alternating_cycle(4))
    @example(rule4_case2_witness())
    @example(rule4_case3_witness())
    @example(far_private_red_witness())
    @example(tight_cap_witness())
    @example(REDUCED_GRID)
    @settings(max_examples=300, deadline=None)
    def test_pair_counting_matches_brute_force(self, g):
        want = {(v, w) for v, w in itertools.combinations(sorted(g.blue), 2)
                if len(oracle_pair_private(g, v, w)) >= 2}
        assert _r4_pairs(g) == want

    def test_pair_counting_refuses_r3_match(self):
        # Red 2 is private to blue 1 alone, so no probe lies outside N(1).
        with pytest.raises(ContractViolation):
            _r4_pairs(RBGraph.from_parts([1], [2], [(1, 2)]))
        # The same next to the cyclic 4-windows of five blues, past the Euler
        # bound, where the search counts blue by blue.
        windows = [((i + j) % 5 + 1, 7 + i) for i in range(5) for j in range(4)]
        g = RBGraph.from_parts(range(1, 7), range(7, 13), windows + [(6, 12)])
        assert not bipartite_euler_bound(g)
        with pytest.raises(ContractViolation):
            _r4_pairs(g)

    def test_contract_checked(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])  # R1 applies
        with pytest.raises(AssertionError):
            find_rule4(g)

    def test_matches_unrestricted_oracle_on_classes(self, classes7):
        for g in classes7:
            if any(not g.adj[r] for r in g.red):
                continue
            if find_rule1(g) is not None or find_rule2(g) is not None:
                continue
            if find_rule3(g) is not None:
                continue
            hits = oracle_rule4_all(g)
            got = find_rule4(g)
            if not hits:
                assert got is None
            else:
                v, w, case, private = hits[0]
                assert got == Match(R4_CASE[case], (v, w))
                assert _pair_private(g.adj, v, w) == private


class TestApplyRule:
    def test_r1_removes_single_blue(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        before = g.copy()
        k, rec, removed = apply_rule(g, 5, Match(R1, (1, 2)))
        assert k == 5 and rec == RuleApplication(R1, (1, 2), 0, None)
        assert 1 not in g.adj and 2 in g.adj
        # The step took exactly blue 1, whose only neighbor was 3.
        assert before.adj.keys() - g.adj.keys() == {1} and g.adj.keys() <= before.adj.keys()
        assert 1 in before.blue and before.adj[1] == {3}
        assert removed == [(1, "b", {3})]

    def test_r3_removes_component_and_pays(self):
        g = RBGraph.from_parts([1], [2], [(1, 2)])
        k, rec, _ = apply_rule(g, 1, Match(R3, (1,)))
        assert k == 0 and rec.delta_k == -1
        assert g.n_vertices == 0
        assert rec.witness == (1,)

    def test_r4_case2_swaps_private_set_for_gadget(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        before = g.copy()
        k, rec, _ = apply_rule(g, 3, Match(R4_CASE[2], (1, 2)))
        assert k == 3 and rec.delta_k == 0
        assert g.red == {5}
        assert g.adj[5] == {1, 2}
        # The step added exactly red 5, on the pair, and the record names it.
        assert g.adj.keys() - before.adj.keys() == {5}
        assert rec.added == 5

    def test_r4_case1_removes_pair_and_neighborhood(self):
        g = alternating_cycle(4)
        k, rec, _ = apply_rule(g, 4, find_rule4(g))
        assert k == 2 and rec.delta_k == -2
        assert g.blue == {2, 4} and g.red == set()

    def test_isolated_blue_removed_with_its_record(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3)])
        before = g.copy()
        k, rec, removed = apply_rule(g, 4, Match(SAN_BLUE, (2,)))
        assert (k, rec) == (4, RuleApplication(SAN_BLUE, (2,), 0, None))
        assert removed == [(2, "b", set())]
        # The step took exactly blue 2, which had no neighbors.
        assert before.adj.keys() - g.adj.keys() == {2}
        assert 2 in before.blue and before.adj[2] == set()
        assert g.adj == {1: {3}, 3: {1}}
        with pytest.raises(RuleNotApplicableError):
            apply_rule(g, 4, Match(SAN_BLUE, (2,)))

    def test_stale_finding(self):
        g = RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)])
        g.remove_vertex(1)
        with pytest.raises(RuleNotApplicableError):
            apply_rule(g, 1, Match(R1, (1, 2)))

    def test_delta_k_table(self):
        # -1 exactly for R3/case3/case4, -2 for case1, 0 otherwise.
        g = alternating_cycle(4)
        _, rec, _ = apply_rule(g, 9, find_rule4(g))
        assert rec.delta_k == -2
        g3 = rule4_case3_witness()
        _, rec3, _ = apply_rule(g3, 9, find_rule4(g3))
        assert rec3.delta_k == -1
        g2 = rule4_case2_witness()
        _, rec2, _ = apply_rule(g2, 9, find_rule4(g2))
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
        assert find_rule3(g) is None
        assert not is_reduced(g)

    def test_alternating_c12_reduced(self):
        g = alternating_cycle(6)
        assert oracle_rule4_all(g) == []
        assert is_reduced(g)
