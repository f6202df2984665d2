"""Planarity checks, rotation systems, and face traversal.

Planarity is decided by an iterative left-right test (Brandes, *The
Left-Right Planarity Test*, 2009, after de Fraysseix, Ossona de Mendez and
Rosenstiehl).  :func:`planar_verdict` asks it for the verdict alone, on a
``{vertex: neighbors}`` map, and builds no embedding.  :func:`is_planar`
asks it for a combinatorial embedding of a planar graph, the bare verdict
for a non-planar one.  The embedding is a :class:`PlaneGraph`, a rotation
system (cyclic order of neighbors around each vertex) that supports the
dart-walk face enumeration the radial-graph transform needs.

A :class:`PlaneGraph` holds its rotation as one table of darts indexed by
int: dart ``h`` and its twin ``h ^ 1`` are the two ends of one edge, and
the face walk steps from ``h`` to ``cw[h ^ 1]``.  :meth:`PlaneGraph.faces`
gives each face as the vertex indices its walk passes, and
``transforms.face_cover_to_rbds`` builds the radial graph from those.  Two
constructors build the table.  ``PlaneGraph(rotation)`` builds it from a
``{vertex: cyclic neighbor list}`` map and checks that map;
``parse_plane`` and the tests use it.  :func:`is_planar` builds it with no
check from the left-right test's own half-edges, through the trusted
constructor, as ``RBGraph._trusted`` wraps parts its callers made
consistent.

The test is a step-for-step port, onto flat lists indexed by vertex and
edge numbers, of the non-recursive left-right test that
``tests/test_planarity.py`` uses as its oracle: the same neighbor orders,
the same stable sorts by nesting depth, the same leftmost-neighbor
bookkeeping in the embedding.  It therefore returns the oracle's rotation
system exactly.  Face ids, and every trace built on them, follow from that
rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import GraphError, RBGraph


@dataclass(frozen=True)
class PlanarityResult:
    """What :func:`is_planar` found: a rotation system realizing an
    embedding of a planar graph, or None for a non-planar one."""

    embedding: "PlaneGraph | None" = None

    @property
    def planar(self) -> bool:
        return self.embedding is not None


class PlaneGraph:
    """A graph with a rotation system, held as a table of darts.

    Vertex ``i`` is named ``names[i]``.  Each edge is two darts, ``h`` and
    ``h ^ 1``, one at each end: dart ``h`` leaves vertex ``_at[h]`` for
    ``_at[h ^ 1]``, ``_cw[h]`` is the next dart clockwise around
    ``_at[h]``, and ``_first[i]`` is the dart at which the listing of
    vertex ``i`` in :attr:`rotation` starts, -1 for an isolated vertex.
    ``_connected`` tells whether the graph is connected.

    The constructor takes ``rotation``, a map of each vertex to the cyclic
    list of its neighbors, and checks that it is symmetric, loop-free and
    duplicate-free.  :meth:`_trusted` takes a table that is consistent by
    construction.  Two questions stay separate: whether the edge set is
    planar, which ``planar_verdict(pg.rotation)`` answers, and whether this
    rotation is a genus-zero embedding of it, which the Euler count of
    :meth:`faces` answers and ``transforms.face_cover_to_rbds`` checks.
    """

    def __init__(self, rotation: dict):
        self.rotation = {v: list(ns) for v, ns in rotation.items()}
        index = {v: i for i, v in enumerate(self.rotation)}
        n = len(index)
        at, rings = [], []
        pending = {}  # tail * n + head -> the dart whose twin is already made
        for i, (v, ns) in enumerate(self.rotation.items()):
            ring = []
            seen = set()
            for u in ns:
                if u == v:
                    raise GraphError("self-loop at %r" % v)
                if u in seen:
                    raise GraphError("duplicate neighbor %r around %r" % (u, v))
                if u not in index:
                    raise GraphError("rotation of %r names unknown vertex %r" % (v, u))
                seen.add(u)
                j = index[u]
                h = pending.pop(i * n + j, None)
                if h is None:
                    h = len(at)
                    at += (i, j)
                    pending[j * n + i] = h + 1
                ring.append(h)
            rings.append(ring)
        if pending:  # some dart has no twin: name the first, in rotation order
            for v, ns in self.rotation.items():
                for u in ns:
                    if v not in self.rotation[u]:
                        raise GraphError("edge (%r, %r) missing its reverse" % (v, u))
        cw = [0] * len(at)
        for ring in rings:
            for h, g in zip(ring, ring[1:] + ring[:1]):
                cw[h] = g
        reached = bytearray(n)
        stack = [0] if n else []
        while stack:
            i = stack.pop()
            if not reached[i]:
                reached[i] = 1
                stack += [at[h ^ 1] for h in rings[i]]
        self.names = list(index)
        self._at = at
        self._cw = cw
        self._first = [ring[0] if ring else -1 for ring in rings]
        self._connected = 0 not in reached

    @classmethod
    def _trusted(cls, names: list, at: list, cw: list, first: list,
                 connected: bool) -> "PlaneGraph":
        """Wrap a dart table the caller has already made consistent, with no
        check: ``at`` pairs each dart ``h`` with its twin ``h ^ 1`` at the
        other end of one edge, ``cw`` links each vertex's darts in one
        cycle, ``first`` holds one dart of each vertex's cycle or -1, and
        ``connected`` says whether the graph is connected.
        :func:`is_planar` builds it from the left-right test's half-edges."""
        pg = cls.__new__(cls)
        pg.names = names
        pg._at = at
        pg._cw = cw
        pg._first = first
        pg._connected = connected
        return pg

    @cached_property
    def rotation(self) -> dict:
        """Each vertex's neighbors, clockwise from its first dart, as built
        the first time it is read."""
        names, at, cw = self.names, self._at, self._cw
        rotation = {}
        for v, h in zip(names, self._first):
            ring = rotation[v] = []
            start = h
            while h >= 0:
                ring.append(names[at[h ^ 1]])
                h = cw[h]
                if h == start:
                    break
        return rotation

    @property
    def n_vertices(self) -> int:
        return len(self.names)

    @property
    def n_edges(self) -> int:
        return len(self._at) // 2

    def faces(self) -> list[list[int]]:
        """Every face, by dart walking, as the list of the vertex indices
        its walk passes, a vertex once per pass (``names[i]`` names vertex
        ``i``): the dart after ``h`` is ``cw[h ^ 1]``, which leaves the head
        of ``h`` along the rotation successor of its tail.  Walks start at
        each unseen dart in ascending (tail name, head name) order, so faces
        come out in first-discovery order of that scan, which makes
        downstream ids deterministic."""
        if not self._connected:
            raise GraphError("face traversal needs a connected graph")
        names, at, cw, first = self.names, self._at, self._cw, self._first
        if not at:
            # A lone vertex sits on the one face of the plane.
            walks = [[0]] if names else []
        else:
            # Every vertex has a dart.  Taking the heads in ascending name
            # order, each dart joins its tail's list, which so comes out in
            # ascending head order.
            order = sorted(range(len(names)), key=names.__getitem__)
            out = [[] for _ in names]
            for v in order:
                h = start = first[v]
                while True:
                    out[at[h ^ 1]].append(h ^ 1)
                    h = cw[h]
                    if h == start:
                        break
            seen = bytearray(len(at))
            walks = []
            for h in [h for v in order for h in out[v]]:
                if seen[h]:
                    continue
                walk = []
                while not seen[h]:
                    seen[h] = 1
                    walk.append(at[h])
                    h = cw[h ^ 1]
                walks.append(walk)
        return walks


def _left_right(higher, embed: bool):
    """Left-right planarity test of the graph on vertices ``0..len(higher)-1``.

    ``higher[i]`` iterates the neighbors of ``i`` numbered above ``i``, each
    once, so every edge is named once and no self-loop at all.
    Returns None for a non-planar graph.  For a planar one it returns True,
    or, with ``embed``, the rotation system as the dart table ``(at, cw,
    first, connected)`` that :meth:`PlaneGraph._trusted` takes: half-edge
    ``2e`` of edge ``e`` sits at one end and ``2e + 1`` at the other,
    ``cw`` runs clockwise around each vertex, ``first[v]`` is the leftmost
    half-edge of ``v`` and ``connected`` says whether one DFS root reached
    every vertex.

    Edges are numbered; a conflict pair is a list ``[left.low, left.high,
    right.low, right.high]`` of edge numbers, None marking an empty end, and
    stack positions are compared by identity.  Every depth-first pass keeps
    its own stack, so no recursion depth grows with the graph.
    """
    n = len(higher)
    # The adjacency lists, numbered and ordered as the oracle builds them:
    # around i, the lower-numbered neighbors ascending, then the higher ones
    # in the order of higher[i].
    nbr = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    m = 0
    for i, ns in enumerate(higher):
        for j in ns:
            nbr[i].append(j)
            inc[i].append(m)
            nbr[j].append(i)
            inc[j].append(m)
            m += 1
    if n > 2 and m > 3 * n - 6:
        return None

    # Orientation: a DFS orients every edge away from where it is first met,
    # and computes lowpoints and the nesting depth that orders the testing.
    height = [-1] * n
    parent = [-1] * n  # tree edge into each vertex
    src = [-1] * m
    tgt = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out = [[] for _ in range(n)]  # edges oriented away from each vertex
    roots = []
    pos = [0] * n
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            ev, hv, pe = inc[v], height[v], parent[v]
            i = pos[v]
            while i < len(ev):
                e = ev[i]
                if src[e] < 0:
                    w = nbr[v][i]
                    src[e] = v
                    tgt[e] = w
                    out[v].append(e)
                    lowpt[e] = lowpt2[e] = hv
                    if height[w] < 0:  # tree edge, finished once w is done
                        parent[w] = e
                        height[w] = hv + 1
                        break
                    lowpt[e] = height[w]
                elif src[e] != v:  # oriented from the other end
                    i += 1
                    continue
                low, low2 = lowpt[e], lowpt2[e]
                nesting[e] = 2 * low + (low2 < hv)
                if pe >= 0:
                    up = lowpt[pe]
                    if low < up:
                        lowpt2[pe] = up if up < low2 else low2
                        lowpt[pe] = low
                    elif low > up:
                        if low < lowpt2[pe]:
                            lowpt2[pe] = low
                    elif low2 < lowpt2[pe]:
                        lowpt2[pe] = low2
                i += 1
            pos[v] = i
            if i < len(ev):
                stack.append(w)
            else:
                stack.pop()

    # Testing: a second DFS, children in nesting order, keeps the stack of
    # conflict pairs and records each edge's side relative to ref[edge].
    key = nesting.__getitem__
    ordered = [sorted(o, key=key) for o in out]
    ref = [None] * m
    side = [1] * m
    lowpt_edge = [0] * m
    bottom = [None] * m  # top of the conflict stack when each edge was entered
    S = []

    def add_constraints(ei, e):
        P = [None, None, None, None]
        le = lowpt[e]
        # merge the return edges of ei into P.right
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > le:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into P.left
        lei = lowpt[ei]
        while True:
            T = S[-1]
            if not ((T[1] is not None and lowpt[T[1]] > lei)
                    or (T[3] is not None and lowpt[T[3]] > lei)):
                break
            Q = S.pop()
            if Q[3] is not None and lowpt[Q[3]] > lei:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[3] is not None and lowpt[Q[3]] > lei:
                    return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] is not None or P[1] is not None or P[2] is not None or P[3] is not None:
            S.append(P)
        return True

    def remove_back_edges(e):
        u = src[e]
        hu = height[u]
        # drop whole conflict pairs whose lowest return edge ends at u
        while S:
            T = S[-1]
            if T[0] is None and T[1] is None:
                low = lowpt[T[2]]
            elif T[2] is None and T[3] is None:
                low = lowpt[T[0]]
            else:
                low = min(lowpt[T[0]], lowpt[T[2]])
            if low != hu:
                break
            S.pop()
            if T[0] is not None:
                side[T[0]] = -1
        if S:  # trim the intervals of the next pair
            P = S[-1]
            while P[1] is not None and tgt[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and tgt[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < hu:  # e takes the side of a highest return edge
            T = S[-1]
            hl, hr = T[1], T[3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    entered = [False] * n
    pos = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            ov, hv, pe = ordered[v], height[v], parent[v]
            i = pos[v]
            while i < len(ov):
                ei = ov[i]
                w = tgt[ei]
                if parent[w] != ei:  # back edge
                    bottom[ei] = S[-1] if S else None
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])
                elif not entered[w]:  # tree edge, finished once w is done
                    entered[w] = True
                    bottom[ei] = S[-1] if S else None
                    break
                if lowpt[ei] < hv:  # ei has return edges
                    if i == 0:
                        lowpt_edge[pe] = lowpt_edge[ei]
                    elif not add_constraints(ei, pe):
                        return None
                i += 1
            pos[v] = i
            if i < len(ov):
                stack.append(w)
            else:
                stack.pop()
                if pe >= 0:
                    remove_back_edges(pe)
    if not embed:
        return True

    # Embedding: resolve every side against its ref chain, sort again by
    # signed nesting depth, and let a third DFS place the incoming edges.
    for o in out:
        for e in o:
            if ref[e] is not None:
                chain = []
                f = e
                while ref[f] is not None:
                    chain.append(f)
                    f = ref[f]
                for g in reversed(chain):
                    side[g] *= side[ref[g]]
                    ref[g] = None
            if side[e] < 0:
                nesting[e] = -nesting[e]
    ordered = [sorted(o, key=key) for o in out]
    # Half-edge 2e sits at src[e], 2e + 1 at tgt[e]; cw and ccw link each
    # vertex's ring, and first[v] is the ring's leftmost half-edge, where
    # the clockwise listing starts.
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    first = [-1] * n
    for v, ov in enumerate(ordered):
        if ov:
            prev = 2 * ov[-1]
            for e in ov:
                h = 2 * e
                ccw[h] = prev
                cw[prev] = h
                prev = h
            first[v] = 2 * ov[0]
    left_ref = [0] * n
    right_ref = [0] * n
    pos = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            ov = ordered[v]
            i = pos[v]
            child = -1
            while i < len(ov):
                ei = ov[i]
                i += 1
                w = tgt[ei]
                h = 2 * ei + 1
                if parent[w] == ei:  # tree edge: h becomes w's leftmost
                    c = first[w]
                    if c < 0:
                        cw[h] = ccw[h] = h
                    else:
                        p = ccw[c]
                        cw[h], ccw[h], cw[p], ccw[c] = c, p, h, h
                    first[w] = h
                    left_ref[v] = right_ref[v] = 2 * ei
                    child = w
                    break
                if side[ei] == 1:  # right of the tree: after right_ref[w]
                    c = right_ref[w]
                    q = cw[c]
                    cw[h], ccw[h], ccw[q], cw[c] = q, c, h, h
                else:  # left of the tree: before left_ref[w]
                    c = left_ref[w]
                    p = ccw[c]
                    cw[h], ccw[h], cw[p], ccw[c] = c, p, h, h
                    if c == first[w]:
                        first[w] = h
                    left_ref[w] = h
            pos[v] = i
            if child >= 0:
                stack.append(child)
            else:
                stack.pop()
    at = [0] * (2 * m)
    at[0::2], at[1::2] = src, tgt
    return at, cw, first, len(roots) <= 1


def is_planar(vertices, edges) -> PlanarityResult:
    """Left-right planarity test of the graph on ``vertices`` and ``edges``.

    Vertices named only by edges join after ``vertices``, in edge order;
    self-loops and repeated edges are ignored.  A planar graph comes back
    with a rotation system realizing an embedding, the oracle's in
    ``tests/test_planarity.py``; a non-planar one comes back with none,
    after a single run of the test.  A caller that reads only the verdict
    asks :func:`planar_verdict`, which skips the embedding.
    """
    index = {}
    for v in vertices:
        index.setdefault(v, len(index))
    ends = [(index.setdefault(u, len(index)), index.setdefault(v, len(index)))
            for u, v in edges]
    # Each edge once, at its lower end, in first-seen order: the oracle's
    # order of the higher neighbors.
    higher = [{} for _ in index]
    for i, j in ends:
        if i < j:
            higher[i][j] = None
        elif j < i:
            higher[j][i] = None
    table = _left_right(higher, True)
    if table is not None:
        return PlanarityResult(PlaneGraph._trusted(list(index), *table))
    return PlanarityResult()


def planar_verdict(adj) -> bool:
    """Whether the graph of ``adj`` is planar, after one verdict-only run of
    the left-right test.

    ``adj`` maps each vertex to its neighbors, symmetrically, as
    ``RBGraph.adj`` and ``PlaneGraph.rotation`` do; the order of the
    neighbors does not matter, and no embedding is built.
    """
    index = {v: i for i, v in enumerate(adj)}
    return _left_right([[j for j in map(index.__getitem__, ns) if j > i]
                        for i, ns in enumerate(adj.values())], False) is not None


def bipartite_euler_bound(g: RBGraph) -> bool:
    """Necessary edge-count condition for planarity of a bipartite graph."""
    n, m = g.n_vertices, g.n_edges
    return n < 3 or m <= 2 * n - 4
