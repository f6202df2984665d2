"""Red/blue two-colored graphs and the instance type.

Vertices are plain integers with stable ids: once a vertex is deleted its id
is never handed out again, so replay logs can name dead vertices without
ambiguity.  Edges are stored symmetrically in ``adj``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphError(Exception):
    """Base class for graph contract violations."""


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
            g._add_with_id(v, g.blue)
        for v in sorted(reds):
            g._add_with_id(v, g.red)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def _trusted(cls, blue: set, red: set, adj: dict, next_id: int) -> "RBGraph":
        """Wrap parts the caller has already made consistent, with no check:
        ``adj`` is symmetric, keyed by exactly ``blue | red``, free of loops,
        and every id is below ``next_id``.  The one constructor for callers
        that build the sets themselves."""
        g = cls.__new__(cls)
        g.blue = blue
        g.red = red
        g.adj = adj
        g._next_id = next_id
        return g

    # -- construction and mutation ---------------------------------------

    def _add_with_id(self, vid: int, side: set) -> int:
        """Add the isolated vertex ``vid`` to ``side``, which is ``self.blue``
        or ``self.red``: a vertex's color is the set that holds it."""
        if vid < 0:
            raise GraphError("vertex ids must be non-negative, got %r" % vid)
        if vid in self.adj:
            raise GraphError("vertex id %d is already live" % vid)
        side.add(vid)
        self.adj[vid] = set()
        if vid >= self._next_id:
            self._next_id = vid + 1
        return vid

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError("self-loop at %d" % u)
        if u not in self.adj:
            raise GraphError("unknown vertex %d" % u)
        if v not in self.adj:
            raise GraphError("unknown vertex %d" % v)
        self.adj[u].add(v)
        self.adj[v].add(u)

    def add_red_vertex(self, neighbors) -> int:
        """Create a fresh red vertex adjacent to exactly the given blues."""
        nbrs = set(neighbors)
        for u in nbrs:
            if u not in self.adj:
                raise GraphError("unknown vertex %d" % u)
            if u not in self.blue:
                raise GraphError("neighbor %d of a new red vertex must be blue" % u)
        new = self._add_with_id(self._next_id, self.red)
        for u in nbrs:
            self.adj[u].add(new)
            self.adj[new].add(u)
        return new

    def remove_vertex(self, v: int) -> None:
        """Delete ``v`` and its incident edges."""
        adj = self.adj
        if v not in adj:
            raise GraphError("unknown vertex %d" % v)
        for u in adj.pop(v):
            adj[u].discard(v)
        self.blue.discard(v)
        self.red.discard(v)

    def remove_edge(self, u: int, v: int) -> None:
        if u not in self.adj or v not in self.adj:
            raise GraphError("unknown endpoint in edge (%d, %d)" % (u, v))
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    # -- whole-graph helpers ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u in self.adj for v in self.adj[u] if u < v)

    def copy(self) -> "RBGraph":
        return RBGraph._trusted(set(self.blue), set(self.red),
                                {v: set(s) for v, s in self.adj.items()}, self._next_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RBGraph):
            return NotImplemented
        return self.blue == other.blue and self.red == other.red and self.adj == other.adj

    def __repr__(self) -> str:
        return "RBGraph(nB=%d, nR=%d, m=%d)" % (len(self.blue), len(self.red), self.n_edges)


@dataclass
class Instance:
    """A graph paired with the solution-size budget ``k``."""

    graph: RBGraph
    k: int
    meta: dict = field(default_factory=dict)
