"""``face_cover_to_rbds`` builds the radial graph in one pass; it must give
what the builder through ``from_parts`` and a checked ``add_edge`` per
incidence gives (``helpers.reference_face_cover_to_rbds``): the same graph,
id maps and next free id, or the same ``GraphError``."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel.generators import _stacked_triangulation
from rbkernel.graph import GraphError
from rbkernel.planar import PlaneGraph, is_planar
from rbkernel.transforms import face_cover_to_rbds

from helpers import reference_face_cover_to_rbds


def embedding(n, edges) -> PlaneGraph:
    return is_planar(range(n), edges).embedding


@st.composite
def stacked_triangulations(draw):
    n = draw(st.integers(3, 40))
    return embedding(n, _stacked_triangulation(n, random.Random(draw(st.integers(0, 10**6)))))


@st.composite
def plane_grids(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return embedding(rows * cols, edges)


@st.composite
def forests(draw, pieces):
    """A random tree for ``pieces`` = 1; for more, a forest of that many
    trees, which has no face walk."""
    edges, n = [], 0
    for _ in range(pieces):
        size = draw(st.integers(1, 12))
        edges += [(n + draw(st.integers(0, v - 1)), n + v) for v in range(1, size)]
        n += size
    return embedding(n, edges)


K4 = embedding(4, itertools.combinations(range(4), 2))
C6 = embedding(6, [(i, (i + 1) % 6) for i in range(6)])
# K4 with one rotation reversed has 2 faces: V - E + F = 0.
TORUS = PlaneGraph({0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 3, 1], 3: [0, 1, 2]})
TWO_EDGES = PlaneGraph({0: [1], 1: [0], 2: [3], 3: [2]})


@given(st.one_of(stacked_triangulations(), plane_grids(), forests(1), forests(2)))
@example(K4)
@example(C6)
@example(PlaneGraph({}))
@example(PlaneGraph({0: []}))
@example(TWO_EDGES)
@example(TORUS)
@settings(max_examples=150, deadline=None)
def test_same_graph_as_the_checked_build(pg):
    try:
        want = reference_face_cover_to_rbds(pg)
    except GraphError as exc:
        with pytest.raises(GraphError, match="^%s$" % re.escape(str(exc))):
            face_cover_to_rbds(pg)
        return
    got = face_cover_to_rbds(pg)
    assert got == want
    assert got[0]._next_id == want[0]._next_id

