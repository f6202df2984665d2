"""Face cover as red/blue domination.

Face cover of a plane graph becomes red/blue domination on the radial
graph: vertices turn red, faces turn blue, and incidences become edges.
The parameter is unchanged, so a kernel for the output doubles as a
bikernel for face cover.
"""

from __future__ import annotations

from .graph import GraphError, RBGraph
from .planar import PlaneGraph


def face_cover_to_rbds(pg: PlaneGraph):
    """Radial construction: reds are the vertices of ``pg``, blues its
    faces, with an edge whenever a vertex lies on a face boundary.

    Returns (graph, vertex_to_red, face_to_blue).  Faces are numbered in
    first-discovery order of the dart walk; a vertex appearing twice on one
    boundary still yields a single edge.  A disconnected graph, and a
    rotation system whose faces miss Euler's formula V - E + F = 2, one of
    higher genus, raise ``GraphError``; the empty plane graph has no faces
    and passes.
    """
    faces = pg.faces()
    euler = pg.n_vertices - pg.n_edges + len(faces)
    if pg.rotation and euler != 2:
        raise GraphError("the rotation system is not a plane embedding: V - E + F = "
                         "%d - %d + %d = %d, not 2" % (pg.n_vertices, pg.n_edges, len(faces), euler))
    face_to_blue = {i: i + 1 for i in range(len(faces))}
    vertex_to_red = {v: len(faces) + 1 + i for i, v in enumerate(sorted(pg.rotation))}
    # Built as RBGraph.copy does: every id is made here and every face
    # vertex is a rotation vertex, so no edge names an unknown vertex or
    # loops.  Blue i + 1 holds face i's reds, and each red gets its blues.
    red_adj = {r: set() for r in vertex_to_red.values()}
    adj = {}
    for b, face in enumerate(faces, start=1):
        adj[b] = reds = {vertex_to_red[v] for v in face}
        for r in reds:
            red_adj[r].add(b)
    adj.update(red_adj)
    g = RBGraph.__new__(RBGraph)
    g.blue = set(face_to_blue.values())
    g.red = set(vertex_to_red.values())
    g.adj = adj
    g._next_id = len(adj) + 1
    return g, vertex_to_red, face_to_blue

