"""Seeded corpus for the benchmark workloads.

Instances come from ``rbkernel.generators`` (grids, random planar graphs) and
from generators owned by the benchmark (stacked triangulations and grids as
plane graphs for face cover, dense non-planar bipartite graphs).  rbkernel
receives only the generated inputs.

Set-up is generation plus serialization of the red/blue instances; plane
graphs go to rbkernel as edge lists.  Budgets that depend on the optimum
are attached later by :mod:`reference`, so set-up never solves anything.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

from rbkernel import generators


@dataclass
class Item:
    """One generated input, without its budget.

    ``kind`` is ``"rbds"`` for a red/blue instance in file layout (blues
    1..n_blue, reds after them) or ``"plane"`` for a plane graph whose face
    cover is asked for.  An rbds item's ``body`` holds its edge lines and
    becomes a ``.rbds`` file once the ``p rbds`` header with its budget is
    put in front.  A plane item goes to the planarity test as its edge list
    and keeps its faces, which the generator knows by construction.
    """

    label: str
    kind: str
    budgets: tuple
    planar: bool
    body: str = ""
    n_blue: int = 0
    n_red: int = 0
    n_plane: int = 0
    edges: tuple = ()
    faces: tuple = ()


# -- generators owned by the benchmark -----------------------------------------


def stacked_triangulation(n: int, rng: random.Random):
    """Maximal plane graph on ``n >= 3`` vertices, grown by splitting a
    random face at each step; returns (edges, faces) with every face a
    frozenset of its three vertices.  Maximal planar graphs are 3-connected,
    so these faces are the faces of every embedding."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # the two sides of the first triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.update(((a, v), (b, v), (c, v)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return sorted(edges), tuple(frozenset(f) for f in faces)


def plane_grid(rows: int, cols: int):
    """Grid graph with ``rows, cols >= 2`` as a plane graph: (edges, faces),
    the faces being the unit squares and the outer face on the boundary."""
    def v(i, j):
        return i * cols + j
    edges = [(v(i, j), v(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(v(i, j), v(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    faces = [frozenset((v(i, j), v(i, j + 1), v(i + 1, j), v(i + 1, j + 1)))
             for i in range(rows - 1) for j in range(cols - 1)]
    faces.append(frozenset(v(i, j) for i in range(rows) for j in range(cols)
                           if i in (0, rows - 1) or j in (0, cols - 1)))
    return sorted(edges), tuple(faces)


def dense_bipartite(n_blue: int, n_red: int, degree: int, rng: random.Random):
    """Blue/red edges in file layout where each red is adjacent to its own
    distinct random ``degree``-subset of the blues.

    Equal-size distinct neighborhoods contain one another nowhere, so the
    graph stays dense after sanitizing and R2 finds no match, while every
    red still costs a full witness search.  At the sizes the workloads use,
    three reds share three blues, so the graph contains K3,3.
    """
    subsets = set()
    while len(subsets) < n_red:
        subsets.add(tuple(sorted(rng.sample(range(1, n_blue + 1), degree))))
    return [(b, n_blue + 1 + i) for i, sub in enumerate(sorted(subsets)) for b in sub]


# -- corpus ------------------------------------------------------------------------


def _rbds_body(edges) -> str:
    return "".join("e %d %d\n" % e for e in edges)


def _rbds_item(label, cls, planar, n_blue, n_red, edges) -> Item:
    return Item(label, "rbds", tuple(cls["budgets"]), planar, _rbds_body(edges),
                n_blue=n_blue, n_red=n_red)


def _plane_item(label, cls, n, edges, faces) -> Item:
    return Item(label, "plane", tuple(cls["budgets"]), True,
                n_plane=n, edges=tuple(edges), faces=faces)


def _generate(cls: dict, label: str, seed: int, timed) -> Item:
    gen = cls["gen"]
    rng = random.Random("%d:%s" % (seed, label))
    if gen == "grid":
        g = timed(generators.gen_grid, cls["rows"], cls["cols"]).graph
        return _rbds_item(label, cls, True, len(g.blue), len(g.red), g.edges())
    if gen == "random-planar":
        g = timed(generators.gen_random_planar,
                  cls["n"], cls["density"], rng.randrange(2 ** 31)).graph
        return _rbds_item(label, cls, True, len(g.blue), len(g.red), g.edges())
    if gen == "dense":
        edges = timed(dense_bipartite, cls["blues"], cls["reds"], cls["degree"], rng)
        return _rbds_item(label, cls, False, cls["blues"], cls["reds"], edges)
    if gen == "face-cover-stacked":
        edges, faces = timed(stacked_triangulation, cls["n"], rng)
        return _plane_item(label, cls, cls["n"], edges, faces)
    if gen == "face-cover-grid":
        edges, faces = timed(plane_grid, cls["rows"], cls["cols"])
        return _plane_item(label, cls, cls["rows"] * cls["cols"], edges, faces)
    raise ValueError("unknown generator %r" % gen)


def class_label(cls: dict) -> str:
    """Name of a spec class; it also seeds the class's generator."""
    gen = cls["gen"]
    if gen in ("grid", "face-cover-grid"):
        return "%s-%dx%d" % (gen, cls["rows"], cls["cols"])
    if gen == "random-planar":
        return "random-planar-%d-d%g" % (cls["n"], cls["density"])
    if gen == "dense":
        return "dense-%dx%d-deg%d" % (cls["blues"], cls["reds"], cls["degree"])
    return "%s-%d" % (gen, cls["n"])


def build(classes, seed: int, clock):
    """Generate and serialize every instance of a workload.

    Returns (items, setup seconds, generator seconds), both times
    normalized by ``clock`` (a :class:`speed.SpeedClock`) one instance at a
    time; the second counts the generator calls alone.
    """
    setup_s = gen_s = 0.0
    for_item = 0.0

    def timed(fn, *args):
        nonlocal for_item
        start = time.perf_counter()
        out = fn(*args)
        for_item += time.perf_counter() - start
        return out

    items = []
    for cls in classes:
        for_item = 0.0
        start = time.perf_counter()
        items.append(_generate(cls, class_label(cls), seed, timed))
        raw = time.perf_counter() - start
        norm = clock.normalize(raw)
        setup_s += norm
        gen_s += for_item * norm / raw
    return items, setup_s, gen_s


def digest(items) -> str:
    """Hash of everything rbkernel will be given, budgets aside."""
    h = hashlib.sha256()
    for it in items:
        h.update(("%s|%s|%s|%d|%d|%d\n" % (it.label, it.kind, ",".join(it.budgets),
                                            it.n_blue, it.n_red, it.n_plane)).encode())
        h.update(it.body.encode())
        h.update(repr(it.edges).encode())
    return h.hexdigest()
