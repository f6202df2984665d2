import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel import solver
from rbkernel.generators import gen_grid, gen_random_planar
from rbkernel.graph import Instance, RBGraph
from rbkernel.kernelizer import kernelize, lift_solution
from rbkernel.planar import is_planar
from rbkernel.solver import InstanceTooLargeError, min_rbds, verify_solution
from rbkernel.transforms import face_cover_to_rbds

from helpers import (
    alternating_cycle,
    decide,
    exhaustive_min_rbds,
    highs_min_rbds,
)


@st.composite
def unions(draw):
    """One or two random red/blue graphs, disjoint, their blue and red ids
    interleaved by a random permutation.  Reds may have no blue, so
    infeasible instances occur too."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        nb = draw(st.integers(1, 6))
        parts.append((nb, draw(st.lists(st.sets(st.integers(0, nb - 1), max_size=3),
                                        min_size=1, max_size=8))))
    n_blue = sum(nb for nb, _ in parts)
    n_red = sum(len(reds) for _, reds in parts)
    blue_ids = draw(st.permutations(range(1, n_blue + 1)))
    red_ids = draw(st.permutations(range(n_blue + 1, n_blue + n_red + 1)))
    g = RBGraph.from_parts(blue_ids, red_ids)
    b0 = r0 = 0
    for nb, reds in parts:
        for i, nbhd in enumerate(reds):
            for b in nbhd:
                g.add_edge(blue_ids[b0 + b], red_ids[r0 + i])
        b0 += nb
        r0 += len(reds)
    return g


@st.composite
def cycle_unions(draw):
    """Disjoint alternating blue/red cycles with interleaved ids, and their
    optimum: a cycle through n reds needs ceil(n / 2) blues.  The packing
    bound sees only about n / 3 of them, so the search must prove the rest."""
    lengths = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3))
    n = sum(lengths)
    blue_ids = draw(st.permutations(range(1, n + 1)))
    red_ids = draw(st.permutations(range(n + 1, 2 * n + 1)))
    g = RBGraph.from_parts(blue_ids, red_ids)
    start = 0
    for length in lengths:
        for i in range(length):
            r = red_ids[start + i]
            g.add_edge(blue_ids[start + i], r)
            g.add_edge(blue_ids[start + (i + 1) % length], r)
        start += length
    return g, sum(-(-length // 2) for length in lengths)


def plain_components(masks, u):
    """The connected components of the elements of ``u``, two elements
    joined when one set holds both, by a search over element indices."""
    left = {i for i in range(u.bit_length()) if u >> i & 1}
    comps = []
    while left:
        start = min(left)
        comp, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for m in masks:
                if m >> i & 1:
                    new = {j for j in left - comp if m >> j & 1}
                    comp |= new
                    stack.extend(new)
        left -= comp
        comps.append(sum(1 << j for j in comp))
    return comps


def assert_minimum_cover(g, got, size):
    """``got`` has the optimum ``size`` and a witness of that many blues
    that ``verify_solution`` accepts."""
    assert got.size == size
    assert verify_solution(g, got.witness) and len(got.witness) == size


def assert_matches_exhaustive(g):
    expected = exhaustive_min_rbds(g)
    got = min_rbds(g)
    if expected is None:
        assert not got.feasible
    else:
        assert_minimum_cover(g, got, expected[0])
    return expected


def star(n_reds=3):
    g = RBGraph.from_parts([1], range(2, 2 + n_reds))
    for r in range(2, 2 + n_reds):
        g.add_edge(1, r)
    return g


class TestVerify:
    def test_star_center(self):
        assert verify_solution(star(2), {1})

    def test_empty_set_with_reds(self):
        assert not verify_solution(star(2), set())

    def test_red_id_rejected(self):
        assert not verify_solution(star(2), {2})

    def test_unknown_id_rejected(self):
        assert not verify_solution(star(2), {77})

    def test_no_reds_any_blue_subset(self):
        g = RBGraph.from_parts([1, 2], [])
        assert verify_solution(g, set())
        assert verify_solution(g, {1})


class TestMinRbds:
    def test_empty_graph(self):
        out = min_rbds(RBGraph())
        assert out.size == 0 and out.witness == frozenset()

    def test_disjoint_matching(self):
        g = RBGraph.from_parts(range(1, 6), range(6, 11),
                               [(i, i + 5) for i in range(1, 6)])
        out = min_rbds(g)
        assert out.size == 5
        assert out.witness == frozenset(range(1, 6))

    def test_infeasible(self):
        g = RBGraph.from_parts([1], [2, 3], [(1, 2)])
        out = min_rbds(g)
        assert not out.feasible

    def test_equal_red_sets_give_the_lowest_id(self):
        # Equal neighborhoods: the smaller id wins.
        g2 = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert min_rbds(g2).witness == frozenset({1})
        # In every part: blues 2 and 4 see reds {5, 6}, blues 1 and 3 red 7.
        g = RBGraph.from_parts([4, 3, 2, 1], [5, 6, 7],
                               [(4, 5), (4, 6), (2, 5), (2, 6), (3, 7), (1, 7)])
        assert min_rbds(g).witness == frozenset({1, 2})

    def test_matches_exhaustive_on_classes(self, classes6):
        for g in classes6:
            assert_matches_exhaustive(g)

    def test_matches_exhaustive_on_random(self, random_graphs_300):
        for g in random_graphs_300:
            assert_matches_exhaustive(g)

    def test_matches_exhaustive_sixteen_blues(self):
        rng = random.Random(1234)
        for _ in range(4):
            g = RBGraph.from_parts(range(1, 17), range(17, 29))
            for b in range(1, 17):
                for r in range(17, 29):
                    if rng.random() < 0.2:
                        g.add_edge(b, r)
            assert_matches_exhaustive(g)

    @given(unions())
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_on_unions(self, g):
        # Components are solved separately; their covers must still join
        # into a minimum cover of the whole graph.
        assert_matches_exhaustive(g)

    @given(cycle_unions())
    # One frame per chosen blue: 600 frames fit the recursion limit.
    @example((alternating_cycle(1200), 600))
    @settings(max_examples=100, deadline=None)
    def test_cycle_unions(self, case):
        g, opt = case
        out = min_rbds(g)
        assert out.size == opt and verify_solution(g, out.witness)

    def test_red_with_only_red_neighbors_is_infeasible(self):
        # Red 3's one neighbor is red 2, so no blue dominates it.
        g = RBGraph.from_parts([1], [2, 3], [(1, 2), (2, 3)])
        assert not min_rbds(g).feasible

    def test_blue_blue_edge_covers_nothing(self):
        # Blue 1 dominates red 3; its edge to blue 2 asks for nothing more.
        g = RBGraph.from_parts([1, 2], [3], [(1, 2), (1, 3)])
        out = min_rbds(g)
        assert (out.size, out.witness) == (1, frozenset({1}))

    def test_matches_exhaustive_with_same_color_edges(self):
        rng = random.Random(4242)
        for _ in range(300):
            nb, nr = rng.randint(1, 7), rng.randint(0, 7)
            ids = range(1, nb + nr + 1)
            edges = [(u, v) for u in ids for v in ids if u < v and rng.random() < 0.3]
            g = RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + nr + 1), edges)
            expected = assert_matches_exhaustive(g)
            if expected is None:
                assert not decide(g, nb)
            else:
                assert decide(g, expected[0]) and not decide(g, expected[0] - 1)

    def test_lower_bound_not_taken_as_optimum(self):
        # On this graph a witness built from queries under small limits,
        # with a lower bound left in the memo read back as exact, kept
        # blues that leave reds undominated.  The memo rule itself is
        # checked by test_bounded_queries_leave_only_exact_entries_recording_a_set.
        edges = [(1, 15), (3, 16), (3, 20), (4, 19), (5, 15), (5, 22), (6, 19), (7, 17),
                 (8, 17), (8, 21), (9, 18), (9, 22), (10, 16), (10, 17), (10, 18), (10, 19),
                 (11, 21), (12, 16), (12, 21), (13, 20), (13, 22), (14, 18)]
        g = RBGraph.from_parts(range(1, 15), range(15, 23), edges)
        assert exhaustive_min_rbds(g)[0] == 4
        assert_minimum_cover(g, min_rbds(g), 4)

    def test_too_deep_is_too_large(self):
        # The search recurses once per chosen blue; an alternating cycle
        # through 2,400 reds (optimum 1,200) exceeds the recursion limit.
        with pytest.raises(InstanceTooLargeError, match="too large"):
            min_rbds(alternating_cycle(2400))

    def test_many_components_solved_one_by_one(self):
        # 120 disjoint alternating cycles through 21 reds each, optimum
        # 120 * 11.  Solved as one mask the search would recurse once per
        # chosen blue, 1,320 frames, past the recursion limit; each part
        # alone needs 11.
        n = 120 * 21
        edges = [(c + b, n + c + i) for c in range(1, n + 1, 21)
                 for i in range(21) for b in (i, (i + 1) % 21)]
        g = RBGraph.from_parts(range(1, n + 1), range(n + 1, 2 * n + 1), edges)
        out = min_rbds(g)
        assert out.size == 1320 and verify_solution(g, out.witness)

    def test_too_large_error_exported_from_package(self):
        from rbkernel import InstanceTooLargeError as exported

        with pytest.raises(exported):
            min_rbds(alternating_cycle(2400))

    def test_state_budget_is_too_large(self, monkeypatch):
        # The 6 x 30 grid kernel leaves 421 memo states.
        g = kernelize(gen_grid(6, 30)).instance.graph
        monkeypatch.setattr(solver, "MAX_STATES", 100)
        with pytest.raises(InstanceTooLargeError, match="MAX_STATES = 100 "):
            min_rbds(g)

    @pytest.mark.parametrize("rows, cols, opt", [(6, 60, 52), (8, 40, 46), (20, 20, 55)])
    def test_large_grid_kernels(self, rows, cols, opt):
        g = kernelize(gen_grid(rows, cols)).instance.graph
        out = min_rbds(g)
        assert out.size == opt and verify_solution(g, out.witness)

    def test_grid_6x30_kernel(self):
        inst = gen_grid(6, 30)
        res = kernelize(inst)
        out = min_rbds(res.instance.graph)
        assert out.size == 27
        lifted = lift_solution(res.trace, out.witness)
        assert verify_solution(inst.graph, lifted)
        assert len(lifted) == out.size + inst.k - res.instance.k


def bfs_depths(reach, comp):
    """Breadth-first distance of every element bit of the component ``comp``
    from its lowest bit, two bits adjacent when one set holds both."""
    first = (comp & -comp).bit_length() - 1
    depth = {first: 0}
    layer = [first]
    while layer:
        grown = []
        for i in layer:
            for j in range(reach[i].bit_length()):
                if reach[i] >> j & 1 and j not in depth:
                    depth[j] = depth[i] + 1
                    grown.append(j)
        layer = grown
    return depth


def blue_family(g):
    return [g.adj[b] for b in sorted(g.blue)]


# Sparse families on up to 30 elements: their element graphs are long enough
# for a layout that is connected but not breadth-first to show.
sparse_families = st.lists(st.sets(st.integers(0, 29), min_size=1, max_size=3),
                           min_size=1, max_size=30)


class TestLayout:
    @given(st.one_of(unions().map(blue_family), sparse_families))
    @settings(max_examples=300, deadline=None)
    def test_bits_follow_bfs_layers(self, family):
        engine = solver._Cover(family)
        reach = [~a for a in engine.apart]
        comps = plain_components(engine.masks, (1 << len(reach)) - 1)
        # Each component is one run of bits, and the parts are those runs.
        assert engine.parts == comps
        for part in engine.parts:
            assert part >> (part & -part).bit_length() - 1 == (1 << part.bit_count()) - 1
        for comp in comps:
            depth = bfs_depths(reach, comp)
            bits = sorted(depth)
            # Each bit after the component's first shares a set with a lower one.
            for i in bits[1:]:
                assert reach[i] & ((1 << i) - 1)
            layers = [depth[i] for i in bits]
            assert layers == sorted(layers)

    @pytest.mark.parametrize("rows, cols, opt", [(6, 60, 52), (8, 40, 46)])
    def test_grid_kernel_memo_stays_small(self, rows, cols, opt):
        # The search covers the kernel one layer at a time, so the memo
        # holds few frontiers.  Under a (cover count, id) layout these solves
        # leave 1,297,586 and 805,593 entries.
        engine = solver._Cover(blue_family(kernelize(gen_grid(rows, cols)).instance.graph))
        assert sum(engine.solve(p, p.bit_count()) for p in engine.parts) == opt
        assert len(engine.memo) < 20_000


def plane_grid_face_cover(rows, cols):
    """Face cover of the rows x cols grid as a red/blue instance, k = |B|."""
    def v(i, j):
        return i * cols + j
    edges = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    g, _, _ = face_cover_to_rbds(is_planar(range(rows * cols), edges).embedding)
    return Instance(g, len(g.blue))


class TestGoldenKernels:
    # (size, sorted witness) of min_rbds on each kernel.  The sizes are what
    # a change to how the search walks, prunes or orders its nodes must not
    # move; the witnesses are the covers the present search records, and
    # such a change may move them.
    GOLDEN = {
        ("grid", 10, 14): (21, [2, 5, 10, 13, 14, 15, 23, 25, 26, 35, 36, 38, 47, 48, 51, 56,
                                57, 60, 63, 65, 68]),
        ("grid", 13, 13): (24, [2, 5, 10, 13, 14, 18, 22, 30, 32, 33, 34, 42, 44, 47, 52, 56,
                                61, 64, 66, 72, 75, 76, 80, 84]),
        ("grid", 6, 30): (27, [2, 5, 7, 10, 12, 14, 18, 23, 30, 31, 36, 41, 43, 44, 47, 49,
                               52, 54, 67, 72, 75, 76, 78, 80, 83, 85, 88]),
        ("face-cover-grid", 6, 9): (9, [1, 11, 13, 14, 16, 27, 29, 30, 32]),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_kernel_optimum_and_witness(self, case):
        kind, rows, cols = case
        inst = gen_grid(rows, cols) if kind == "grid" else plane_grid_face_cover(rows, cols)
        kernel = kernelize(inst).instance.graph
        out = min_rbds(kernel)
        assert (out.size, sorted(out.witness)) == self.GOLDEN[case]
        assert verify_solution(kernel, out.witness)


def assert_optimum_matches_highs(g):
    assert_minimum_cover(g, min_rbds(g), len(highs_min_rbds(g)))


class TestRecordedWitness:
    # min_rbds returns the cover the search recorded.  On kernels far beyond
    # the reach of exhaustive_min_rbds its size must be HiGHS's optimum, and
    # the witness a verified cover of that many blues.

    def test_witness_is_the_recorded_walk(self):
        # Blues 1 = {y, z}, 2 = {x}, 3 = {x, y}, 4 = {z}, with x = 5 the
        # first bit.  The search branches on x over {x, y} alone, since {x}
        # is subsumed, so the recorded cover is that of 1 and 3, and so is
        # the witness; {1, 2} is a minimum cover too.
        g = RBGraph.from_parts([1, 2, 3, 4], [5, 6, 7],
                               [(1, 6), (1, 7), (2, 5), (3, 5), (3, 6), (4, 7)])
        engine = solver._Cover(blue_family(g))
        (part,) = engine.parts
        assert engine.solve(part, part.bit_count()) == 2
        assert sorted(engine.walk(part)) == sorted(engine.masks[i] for i in (0, 2))
        assert min_rbds(g).witness == frozenset({1, 3})

    @given(st.one_of(unions().map(blue_family), sparse_families))
    @settings(max_examples=200, deadline=None)
    def test_walk_covers_each_part_at_its_optimum(self, family):
        engine = solver._Cover(family)
        for part in engine.parts:
            best = engine.solve(part, part.bit_count())
            cover = engine.walk(part)
            assert len(cover) == best
            assert all(m in engine.masks for m in cover)
            union = 0
            for m in cover:
                union |= m
            assert union == part

    @given(st.one_of(unions().map(blue_family), sparse_families))
    @example([{4, 5}, {4, 6}, {5, 6}])
    @settings(max_examples=200, deadline=None)
    def test_bounded_queries_leave_only_exact_entries_recording_a_set(self, family):
        # Queries under every limit short of a part's size leave lower
        # bounds in the memo.  An entry that records a set must still be
        # exact: the sets recorded from it on cover its mask, as many as
        # its value.  A bound that kept its branch's set would be walked as
        # if it were exact.  The walk stops at an entry without a set, where
        # engine.walk would loop.
        engine = solver._Cover(family)
        for part in engine.parts:
            for limit in range(part.bit_count()):
                engine.solve(part, limit)
        for u, (value, choice) in engine.memo.items():
            if choice:
                steps = 0
                while u and engine.memo[u][1]:
                    u &= ~engine.memo[u][1]
                    steps += 1
                assert (u, steps) == (0, value)

    @pytest.mark.parametrize("rows, cols", [(r, r) for r in range(4, 15)]
                             + [(r, 2 * r + 3) for r in range(3, 10)] + [(6, 60)])
    def test_grid_kernels(self, rows, cols):
        assert_optimum_matches_highs(kernelize(gen_grid(rows, cols)).instance.graph)

    @pytest.mark.parametrize("rows, cols", [(5, 7), (6, 9), (7, 7), (8, 10), (6, 20), (10, 10)])
    def test_face_cover_grids(self, rows, cols):
        inst = plane_grid_face_cover(rows, cols)
        assert_optimum_matches_highs(inst.graph)
        assert_optimum_matches_highs(kernelize(inst).instance.graph)

    def test_random_planar(self):
        # Their kernels at k = |B| come out empty, so the graphs themselves
        # are solved too.
        for n in (40, 80, 160, 300):
            for seed in range(1, 6):
                inst = gen_random_planar(n, 0.3 + 0.15 * (seed % 5), seed)
                assert_optimum_matches_highs(inst.graph)
                assert_optimum_matches_highs(kernelize(inst).instance.graph)

    @given(unions())
    @settings(max_examples=200, deadline=None)
    def test_witness_depends_only_on_the_input(self, g):
        # The same graph built with its edges in reverse order, each one
        # turned around, gets the same answer.
        again = RBGraph.from_parts(g.blue, g.red, [(v, u) for u, v in reversed(g.edges())])
        assert min_rbds(again) == min_rbds(g)


class TestDecide:
    def test_negative_budget(self):
        assert not decide(RBGraph(), -1)

    def test_empty_zero(self):
        assert decide(RBGraph(), 0)

    def test_star_budget_one(self):
        assert decide(star(), 1)

    def test_same_color_edges(self):
        assert not decide(RBGraph.from_parts([1], [2, 3], [(1, 2), (2, 3)]), 1)
        assert decide(RBGraph.from_parts([1, 2], [3], [(1, 2), (1, 3)]), 1)

    def test_agrees_with_min(self, random_graphs_300):
        rng = random.Random(7)
        for g in rng.sample(random_graphs_300, 80):
            out = min_rbds(g)
            for k in range(len(g.blue) + 1):
                expect = out.feasible and out.size <= k
                assert decide(g, k) == expect

    @given(cycle_unions())
    @settings(max_examples=100, deadline=None)
    def test_every_budget_on_cycle_unions(self, case):
        g, opt = case
        for k in range(opt - 3, opt + 2):
            assert decide(g, k) == (k >= opt)

    @given(unions())
    @settings(max_examples=150, deadline=None)
    def test_every_budget_matches_exhaustive(self, g):
        expected = exhaustive_min_rbds(g)
        for k in range(-1, len(g.blue) + 2):
            assert decide(g, k) == (expected is not None and expected[0] <= k)


class TestMonotonicity:
    def test_extra_blue_never_hurts_extra_red_never_helps(self, random_graphs_300):
        rng = random.Random(5)
        for g in rng.sample(random_graphs_300, 60):
            base = min_rbds(g)
            with_blue = g.copy()
            b = with_blue._add_with_id(max(with_blue.adj, default=0) + 1, with_blue.blue)
            for r in sorted(with_blue.red)[:2]:
                with_blue.add_edge(b, r)
            out_blue = min_rbds(with_blue)
            if base.feasible:
                assert out_blue.feasible and out_blue.size <= base.size

            with_red = g.copy()
            blues = sorted(with_red.blue)
            if blues:
                with_red.add_red_vertex({blues[0]})
                out_red = min_rbds(with_red)
                if base.feasible:
                    assert out_red.size >= base.size
