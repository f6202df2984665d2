"""``PlaneGraph.faces`` walks an int-indexed dart table that either
constructor builds: ``is_planar`` from the left-right test's half-edges,
``PlaneGraph(rotation)`` from a checked rotation dict.  Both must give the
faces of the dict walk by vertex names (``helpers.reference_faces``), and
``face_cover_to_rbds`` must build the same radial graph on either: the same
graph, key order, id maps and next free id, or the same ``GraphError``."""

import importlib.util
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rbkernel.generators import _stacked_triangulation
from rbkernel.graph import GraphError
from rbkernel.planar import PlaneGraph, is_planar
from rbkernel.transforms import face_cover_to_rbds

from helpers import face_sets, reference_face_cover_to_rbds, reference_faces


def relabeled(n, edges, names):
    """``is_planar`` on the graph with vertex i named ``names[i]``, listed in
    the order of ``names``."""
    return is_planar(names, [(names[u], names[v]) for u, v in edges]).embedding


@st.composite
def names_for(draw, n):
    """Vertex names for ``0..n-1``: the numbers themselves, or distinct
    spread-out ints in a drawn order, so that index and name order differ."""
    if draw(st.booleans()):
        return list(range(n))
    return draw(st.permutations([7 * i + 3 for i in range(n)]))


@st.composite
def stacked_triangulations(draw):
    n = draw(st.integers(3, 40))
    edges = _stacked_triangulation(n, random.Random(draw(st.integers(0, 10**6))))
    return relabeled(n, edges, draw(names_for(n)))


@st.composite
def subsampled_triangulations(draw):
    """A stacked triangulation with each edge kept with a drawn chance; the
    result may be disconnected, or have faces that pass a vertex twice."""
    n = draw(st.integers(3, 40))
    rng = random.Random(draw(st.integers(0, 10**6)))
    keep = draw(st.floats(0.3, 1.0))
    edges = [e for e in _stacked_triangulation(n, rng) if rng.random() < keep]
    return relabeled(n, edges, draw(names_for(n)))


@st.composite
def plane_grids(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return relabeled(rows * cols, edges, draw(names_for(rows * cols)))


@st.composite
def forests(draw):
    """A forest of one to three random trees; more than one has no face
    walk."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 12))
        edges += [(n + draw(st.integers(0, v - 1)), n + v) for v in range(1, size)]
        n += size
    return relabeled(n, edges, draw(names_for(n)))


# K4 with one rotation reversed has 2 faces: V - E + F = 0.
TORUS = {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 3, 1], 3: [0, 1, 2]}


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the message of the ``GraphError`` it
    raises."""
    try:
        return fn(*args)
    except GraphError as exc:
        return "GraphError: %s" % exc


def radial(pg):
    """``face_cover_to_rbds(pg)`` with the key order of every map, or the
    ``GraphError`` message."""
    got = outcome(face_cover_to_rbds, pg)
    if isinstance(got, str):
        return got
    g, vertex_to_red, face_to_blue = got
    return (g, list(g.adj), g._next_id, list(vertex_to_red.items()),
            list(face_to_blue.items()))


@given(st.one_of(stacked_triangulations(), subsampled_triangulations(), plane_grids(),
                 forests()))
@example(is_planar([5], []).embedding)
@example(is_planar([], []).embedding)
@settings(max_examples=200, deadline=None)
def test_both_tables_walk_the_reference_faces(pg):
    checked = PlaneGraph(pg.rotation)
    assert checked.rotation == pg.rotation and checked.names == pg.names
    want = outcome(reference_faces, pg)
    assert outcome(face_sets, pg) == outcome(face_sets, checked) == want
    if not isinstance(want, str):
        assert pg.faces() == checked.faces()
    assert radial(pg) == radial(checked)
    # The one-pass radial build agrees with the checked one on the
    # reference faces.
    ref = outcome(reference_face_cover_to_rbds, pg)
    got = outcome(face_cover_to_rbds, pg)
    assert got == ref
    if not isinstance(got, str):
        assert got[0]._next_id == ref[0]._next_id


def test_forest_of_two_trees_is_refused_by_both():
    pg = is_planar(range(5), [(0, 1), (1, 2), (3, 4)]).embedding
    for table in (pg, PlaneGraph(pg.rotation)):
        with pytest.raises(GraphError, match="^face traversal needs a connected graph$"):
            table.faces()
        with pytest.raises(GraphError, match="^face traversal needs a connected graph$"):
            face_cover_to_rbds(table)


def test_torus_rotation_gives_the_reference_faces_and_euler_refusal():
    pg = PlaneGraph(TORUS)
    assert face_sets(pg) == reference_faces(pg)
    assert len(pg.faces()) == 2
    with pytest.raises(GraphError) as want:
        reference_face_cover_to_rbds(pg)
    with pytest.raises(GraphError, match="^%s$" % re.escape(str(want.value))):
        face_cover_to_rbds(pg)


def test_empty_and_single_vertex():
    for table in (is_planar([], []).embedding, PlaneGraph({})):
        assert table.faces() == [] and table.n_vertices == table.n_edges == 0
    for table in (is_planar([9], []).embedding, PlaneGraph({9: []})):
        assert table.faces() == [[0]] and face_sets(table) == [frozenset({9})]
        g, vertex_to_red, face_to_blue = face_cover_to_rbds(table)
        assert (g.blue, g.red, vertex_to_red, face_to_blue) == ({1}, {2}, {9: 2}, {0: 1})


def test_missing_reverse_names_the_first_dart_in_rotation_order():
    with pytest.raises(GraphError, match=r"^edge \(1, 3\) missing its reverse$"):
        PlaneGraph({1: [2, 3], 2: [1], 3: []})


def test_output_hashes_checks_both_tables():
    # scripts/output_hashes.py refuses a plane operation whose radial graph
    # differs between the planarity test's embedding and PlaneGraph of its
    # rotation: here a table whose rings run the other way round.
    spec = importlib.util.spec_from_file_location(
        "output_hashes", Path(__file__).resolve().parent.parent / "scripts" / "output_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    edges = _stacked_triangulation(12, random.Random(4))
    assert script._same_radial(is_planar(range(12), edges).embedding)
    pg = is_planar(range(12), edges).embedding
    assert pg.rotation  # read before the rings turn
    ccw = pg._cw[:]
    for h, g in enumerate(pg._cw):
        ccw[g] = h
    pg._cw = ccw
    assert not script._same_radial(pg)
