"""Planarity checks, rotation systems, and face traversal.

Planarity is decided by an iterative left-right test (Brandes, *The
Left-Right Planarity Test*, 2009, after de Fraysseix, Ossona de Mendez and
Rosenstiehl).  :func:`planar_verdict` asks it for the verdict alone, on a
``{vertex: neighbors}`` map, and builds no embedding.  :func:`is_planar`
asks it for a combinatorial embedding of a planar graph, the bare verdict
for a non-planar one.  The embedding is a :class:`PlaneGraph`, a rotation
system (cyclic order of neighbors around each vertex) that supports the
dart-walk face enumeration the radial-graph transform needs.

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
    """A graph with a rotation system.

    ``rotation`` maps each vertex to the cyclic list of its neighbors.  The
    constructor checks that the rotation is symmetric and duplicate-free.
    Two questions stay separate: whether the edge set is planar, which
    ``planar_verdict(pg.rotation)`` answers, and whether this rotation is a
    genus-zero embedding of it, which the Euler count of :meth:`faces`
    answers and ``transforms.face_cover_to_rbds`` checks.
    """

    def __init__(self, rotation: dict):
        self.rotation = {v: list(ns) for v, ns in rotation.items()}
        self._index = {}
        for v, ns in self.rotation.items():
            pos = {}
            for i, u in enumerate(ns):
                if u == v:
                    raise GraphError("self-loop at %r" % v)
                if u in pos:
                    raise GraphError("duplicate neighbor %r around %r" % (u, v))
                if u not in self.rotation:
                    raise GraphError("rotation of %r names unknown vertex %r" % (v, u))
                pos[u] = i
            self._index[v] = pos
        for v, ns in self.rotation.items():
            for u in ns:
                if v not in self._index[u]:
                    raise GraphError("edge (%r, %r) missing its reverse" % (v, u))

    @property
    def n_vertices(self) -> int:
        return len(self.rotation)

    @property
    def n_edges(self) -> int:
        return sum(len(ns) for ns in self.rotation.values()) // 2

    def is_connected(self) -> bool:
        if not self.rotation:
            return True
        seen = set()
        stack = [next(iter(sorted(self.rotation)))]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(u for u in self.rotation[v] if u not in seen)
        return len(seen) == len(self.rotation)

    def faces(self) -> list[frozenset]:
        """The vertex set of every face, by dart walking: the dart after
        (u, v) leaves v along the rotation successor of u.  Faces come out
        in first-discovery order of the ascending dart scan, which makes
        downstream ids deterministic."""
        if not self.is_connected():
            raise GraphError("face traversal needs a connected graph")
        if not self.rotation:
            return []
        if self.n_edges == 0:
            # A lone vertex sits on the one face of the plane.
            return [frozenset(self.rotation)]
        seen = set()
        out = []
        for u in sorted(self.rotation):
            for v in sorted(self.rotation[u]):
                if (u, v) in seen:
                    continue
                face = set()
                dart = (u, v)
                while dart not in seen:
                    seen.add(dart)
                    a, b = dart
                    face.add(a)
                    ns = self.rotation[b]
                    dart = (b, ns[(self._index[b][a] + 1) % len(ns)])
                out.append(frozenset(face))
        return out


def _left_right(adj, embed: bool):
    """Left-right planarity test of the graph on vertices ``0..len(adj)-1``.

    ``adj[i]`` iterates the neighbors of ``i``; self-loops are ignored.
    Returns None for a non-planar graph.  For a planar one it returns True,
    or, with ``embed``, the rotation system as one clockwise neighbor list
    per vertex, each starting at the vertex's leftmost neighbor.

    Edges are numbered; a conflict pair is a list ``[left.low, left.high,
    right.low, right.high]`` of edge numbers, None marking an empty end, and
    stack positions are compared by identity.  Every depth-first pass keeps
    its own stack, so no recursion depth grows with the graph.
    """
    n = len(adj)
    # The self-loop-free copy, numbered and ordered as the oracle builds it:
    # around i, the lower-numbered neighbors ascending, then the higher ones
    # in the order of adj[i].
    nbr = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    m = 0
    for i, ns in enumerate(adj):
        for j in ns:
            if j > i:
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
    rotation = []
    for v in range(n):
        ring = []
        h = start = first[v]
        while h >= 0:
            e = h >> 1
            ring.append(src[e] if h & 1 else tgt[e])
            h = cw[h]
            if h == start:
                break
        rotation.append(ring)
    return rotation


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
    adj = [{} for _ in index]
    for i, j in ends:
        adj[i][j] = adj[j][i] = None
    names = list(index)
    rotation = _left_right(adj, True)
    if rotation is not None:
        return PlanarityResult(PlaneGraph(
            {names[v]: [names[u] for u in ring] for v, ring in enumerate(rotation)}))
    return PlanarityResult()


def planar_verdict(adj) -> bool:
    """Whether the graph of ``adj`` is planar, after one verdict-only run of
    the left-right test.

    ``adj`` maps each vertex to its neighbors, symmetrically, as
    ``RBGraph.adj`` and ``PlaneGraph.rotation`` do; the order of the
    neighbors does not matter, and no embedding is built.
    """
    index = {v: i for i, v in enumerate(adj)}
    return _left_right([[index[u] for u in ns] for ns in adj.values()], False) is not None


def bipartite_euler_bound(g: RBGraph) -> bool:
    """Necessary edge-count condition for planarity of a bipartite graph."""
    n, m = g.n_vertices, g.n_edges
    return n < 3 or m <= 2 * n - 4
