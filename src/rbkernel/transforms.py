"""Problem reductions in and out of red/blue domination.

* Face cover of a plane graph becomes red/blue domination on the radial
  graph: vertices turn red, faces turn blue, and incidences become edges.
  The parameter is unchanged, so a kernel for the output doubles as a
  bikernel for face cover.
* Red/blue domination becomes classical dominating set by wiring a new
  vertex to every blue plus a pendant that forces it into any optimum.
"""

from __future__ import annotations

from .graph import GraphError, Instance, RBGraph
from .planar import PlaneGraph


class InfeasibleInputError(ValueError):
    pass


def face_cover_to_rbds(pg: PlaneGraph):
    """Radial construction: reds are the vertices of ``pg``, blues its
    faces, with an edge whenever a vertex lies on a face boundary.

    Returns (graph, vertex_to_red, face_to_blue).  Faces are numbered in
    first-discovery order of the dart walk; a vertex appearing twice on one
    boundary still yields a single edge.  The face walk raises
    ``DisconnectedError`` on a disconnected graph, and a rotation system
    whose faces miss Euler's formula V - E + F = 2, one of higher genus,
    raises ``GraphError``; the empty plane graph has no faces and passes.
    """
    faces = pg.faces()
    euler = pg.n_vertices - pg.n_edges + len(faces)
    if pg.rotation and euler != 2:
        raise GraphError("the rotation system is not a plane embedding: V - E + F = "
                         "%d - %d + %d = %d, not 2" % (pg.n_vertices, pg.n_edges, len(faces), euler))
    face_to_blue = {i: i + 1 for i in range(len(faces))}
    vertex_to_red = {v: len(faces) + 1 + i for i, v in enumerate(sorted(pg.rotation))}
    g = RBGraph.from_parts(face_to_blue.values(), vertex_to_red.values())
    for i, face in enumerate(faces):
        for v in face.vertices:
            g.add_edge(face_to_blue[i], vertex_to_red[v])
    return g, vertex_to_red, face_to_blue


def rbds_to_ds(inst: Instance):
    """Dominating-set form of a red/blue instance.

    Adds a hub vertex adjacent to every blue and a pendant hanging off the
    hub; the budget grows by one for the hub.  Requires a sanitized input
    where every red has a blue neighbor, otherwise the size correspondence
    breaks down.
    """
    g = inst.graph
    bad = sorted(r for r in g.red if not g.adj[r] & g.blue)
    if bad:
        raise InfeasibleInputError(
            "red vertices %s have no blue neighbor; the instance is infeasible" % bad)
    adj = {v: set(ns) for v, ns in g.adj.items()}
    hub = max(adj, default=0) + 1
    pendant = hub + 1
    adj[hub] = set(g.blue) | {pendant}
    adj[pendant] = {hub}
    for b in g.blue:
        adj[b].add(hub)
    return adj, inst.k + 1, {"hub": hub, "pendant": pendant}
