"""The generators build their graphs directly; each must give exactly the
instance its checked reference in ``helpers`` gives: a ``randrange`` per
face, a sorted edge set, and ``from_parts`` plus one ``add_edge`` per edge.
Equal means the same graph, next free id, budget and ``meta``, and the same
order of ``adj``'s keys and of every adjacency set, which the kernelizer's
scans follow.  The references draw through ``randrange`` of the Python that
runs the tests, so a Python whose ``randrange`` draws differently from
``getrandbits`` fails here."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel.generators import (GEN_ALGO_ID, _stacked_triangulation, gen_grid, gen_matching,
                                 gen_random_planar)

from helpers import (reference_gen_grid, reference_gen_matching, reference_gen_random_planar,
                     reference_stacked_triangulation)

# (n, density) of each random planar class of the tight-planar workload.
TIGHT_PLANAR = [(700, 0.6), (850, 1.0), (1000, 0.75), (1150, 0.9), (1300, 0.6), (1450, 1.0),
                (1600, 0.75), (1750, 0.9), (1900, 0.6), (2050, 1.0), (2200, 0.75), (2350, 0.9)]


def assert_same_instance(got, want):
    g, h = got.graph, want.graph
    assert g == h
    assert g._next_id == h._next_id
    assert got.k == want.k and got.meta == want.meta
    assert list(g.adj) == list(h.adj)
    assert [list(s) for s in g.adj.values()] == [list(s) for s in h.adj.values()]
    assert list(g.blue) == list(h.blue) and list(g.red) == list(h.red)


def test_algo_id_unchanged():
    assert GEN_ALGO_ID == "stacked-tri-mt19937-v1"


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 400), st.floats(0, 1, exclude_min=True), st.integers(0, 2**31 - 1))
@example(3, 0.5, 0)
@example(4, 1.0, 1)
@example(3, 0.01, 2)  # every edge dropped: all blue, nothing kept
@example(400, 0.01, 3)
@example(400, 1.0, 4)
def test_random_planar_matches_reference(n, density, seed):
    assert_same_instance(gen_random_planar(n, density, seed),
                         reference_gen_random_planar(n, density, seed))


@pytest.mark.parametrize("n, density", TIGHT_PLANAR)
def test_random_planar_matches_reference_on_the_benchmark_sizes(n, density):
    assert_same_instance(gen_random_planar(n, density, 7),
                         reference_gen_random_planar(n, density, 7))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 33, 257, 1000] + [n for n, _ in TIGHT_PLANAR])
def test_stacked_triangulation_matches_reference(n):
    for seed in (0, 7, 2**31 - 1):
        assert _stacked_triangulation(n, random.Random(seed)) == \
            reference_stacked_triangulation(n, random.Random(seed))


@pytest.mark.parametrize("rows, cols", [(r, c) for r in range(1, 13) for c in range(1, 13)
                                        if r * c > 1] + [(50, 50), (36, 70)])
def test_grid_matches_reference(rows, cols):
    assert_same_instance(gen_grid(rows, cols), reference_gen_grid(rows, cols))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 64])
def test_matching_matches_reference(m):
    assert_same_instance(gen_matching(m), reference_gen_matching(m))
