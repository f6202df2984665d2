"""Red/blue two-colored graphs, the instance type and ``sanitize``.

Vertices are plain integers with stable ids: once a vertex is deleted its id
is never handed out again, so replay logs can name dead vertices without
ambiguity.  Edges are stored symmetrically in ``adj``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BLUE = "b"
RED = "r"


class GraphError(Exception):
    """Base class for graph contract violations."""


class UnknownVertexError(GraphError):
    pass


class ColorError(GraphError):
    pass


class SameVertexError(GraphError):
    pass


class RBGraph:
    """Mutable blue/red graph.

    ``blue`` and ``red`` hold the live vertex ids of each color and ``adj``
    maps every live vertex to the set of its neighbors.  Callers read these
    three directly; the mutators keep ``adj`` symmetric.
    """

    __slots__ = ("blue", "red", "adj", "_next_id")

    def __init__(self) -> None:
        self.blue: set[int] = set()
        self.red: set[int] = set()
        self.adj: dict[int, set[int]] = {}
        self._next_id = 1

    @classmethod
    def from_parts(cls, blues, reds, edges=()) -> "RBGraph":
        g = cls()
        for v in sorted(blues):
            g._add_with_id(v, BLUE)
        for v in sorted(reds):
            g._add_with_id(v, RED)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    # -- construction and mutation ---------------------------------------

    def _add_with_id(self, vid: int, color: str) -> int:
        if vid < 0:
            raise GraphError("vertex ids must be non-negative, got %r" % vid)
        if vid in self.adj:
            raise GraphError("vertex id %d is already live" % vid)
        if color == BLUE:
            self.blue.add(vid)
        elif color == RED:
            self.red.add(vid)
        else:
            raise ColorError("unknown color %r" % color)
        self.adj[vid] = set()
        if vid >= self._next_id:
            self._next_id = vid + 1
        return vid

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise SameVertexError("self-loop at %d" % u)
        if u not in self.adj:
            raise UnknownVertexError("unknown vertex %d" % u)
        if v not in self.adj:
            raise UnknownVertexError("unknown vertex %d" % v)
        self.adj[u].add(v)
        self.adj[v].add(u)

    def add_red_vertex(self, neighbors, vid: int | None = None) -> int:
        """Create a fresh red vertex adjacent to exactly the given blues."""
        nbrs = set(neighbors)
        for u in nbrs:
            if u not in self.adj:
                raise UnknownVertexError("unknown vertex %d" % u)
            if u not in self.blue:
                raise ColorError("neighbor %d of a new red vertex must be blue" % u)
        new = self._add_with_id(self._next_id if vid is None else vid, RED)
        for u in nbrs:
            self.adj[u].add(new)
            self.adj[new].add(u)
        return new

    def remove_vertex(self, v: int) -> tuple[int, ...]:
        """Delete ``v`` and its incident edges; returns its former neighbors."""
        if v not in self.adj:
            raise UnknownVertexError("unknown vertex %d" % v)
        nbrs = tuple(sorted(self.adj[v]))
        for u in nbrs:
            self.adj[u].discard(v)
        del self.adj[v]
        self.blue.discard(v)
        self.red.discard(v)
        return nbrs

    def remove_edge(self, u: int, v: int) -> None:
        if u not in self.adj or v not in self.adj:
            raise UnknownVertexError("unknown endpoint in edge (%d, %d)" % (u, v))
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    # -- queries -----------------------------------------------------------

    def color_of(self, v: int) -> str:
        if v in self.blue:
            return BLUE
        if v in self.red:
            return RED
        raise UnknownVertexError("unknown vertex %d" % v)

    # -- whole-graph helpers ------------------------------------------------

    def vertices(self) -> set[int]:
        return set(self.adj)

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self.adj for v in self.adj[u] if u < v)

    def copy(self) -> "RBGraph":
        g = RBGraph.__new__(RBGraph)
        g.blue = set(self.blue)
        g.red = set(self.red)
        g.adj = {v: set(s) for v, s in self.adj.items()}
        g._next_id = self._next_id
        return g

    def __eq__(self, other) -> bool:
        if not isinstance(other, RBGraph):
            return NotImplemented
        return self.blue == other.blue and self.red == other.red and self.adj == other.adj

    def __repr__(self) -> str:
        return "RBGraph(nB=%d, nR=%d, m=%d)" % (len(self.blue), len(self.red), self.n_edges)


@dataclass
class SanitizeReport:
    """What sanitize changed: same-color edges and isolated blues removed,
    plus the set of red vertices left with no possible dominator."""

    removed_edges: list[tuple[int, int]] = field(default_factory=list)
    removed_blues: list[int] = field(default_factory=list)
    infeasible_reds: list[int] = field(default_factory=list)

    @property
    def infeasible(self) -> bool:
        return bool(self.infeasible_reds)


def sanitize(g: RBGraph) -> SanitizeReport:
    """Normalize ``g`` in place.

    Removes every edge joining two vertices of the same color, in ascending
    ``(u, v)`` order with ``u < v``, then deletes isolated blue vertices
    (they can never dominate anything), in ascending order.  Red vertices
    whose neighborhood ends up empty are reported as infeasible but kept:
    deciding what to do with an undominatable red is the driver's call.
    """
    rep = SanitizeReport()
    adj = g.adj
    for side in (g.blue, g.red):
        for u in side:
            if not adj[u].isdisjoint(side):
                rep.removed_edges += [(u, v) for v in adj[u] & side if v > u]
    rep.removed_edges.sort()
    for u, v in rep.removed_edges:
        g.remove_edge(u, v)
    rep.removed_blues = sorted(b for b in g.blue if not adj[b])
    for b in rep.removed_blues:
        g.remove_vertex(b)
    rep.infeasible_reds = sorted(r for r in g.red if not adj[r])
    return rep


@dataclass
class Instance:
    """A graph paired with the solution-size budget ``k``."""

    graph: RBGraph
    k: int
    meta: dict = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.graph == other.graph and self.k == other.k
