"""Independent oracles and corpus builders shared across the test suite.

Everything here recomputes results straight from definitions (subset
enumeration, all-pairs scans, naive driver loops, HiGHS's integer program)
so library code is always checked against a second route.  The rule
oracles read each rule's definition over every vertex or pair, and the
naive reference driver (:func:`reference_kernelize`, with
:func:`reduce_rules123` and :func:`is_reduced`) is built on them: of
``kernelizer`` it uses only ``apply_rule``, ``sanitize``, the tag and
verdict constants and ``SIZE_FACTOR``, so it shares no search code with
the driver it is compared with.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from rbkernel import planar, solver
from rbkernel.formats import (_FINGERPRINT, _RECORD, MAX_VERTICES, ParseError, _is_id,
                             format_fingerprint)
from rbkernel.generators import GEN_ALGO_ID, gen_grid
from rbkernel.graph import GraphError, Instance, RBGraph
from rbkernel.kernelizer import (
    NO_BUDGET,
    NO_COUNTING,
    NO_ISOLATED_RED,
    NO_SIZE,
    R1,
    R2,
    R3,
    R4_CASE,
    SAN_NO,
    SIZE_FACTOR,
    WITNESS_LEN,
    Fingerprint,
    KernelTrace,
    RuleApplication,
    apply_rule,
    sanitize,
)

# Color labels for the color maps the reference generators and the test
# strategies draw; the library holds a vertex's color as the set it is in.
BLUE, RED = "b", "r"


class Match(NamedTuple):
    """A rule that applies, as the oracles report it: its trace tag and the
    record's witness tuple, ``(remove, witness)`` for R1 and R2, ``(v,)``
    for R3 and ``(v, w)`` for R4; ``(u, v)`` for Sanitize-edge, ``(v,)``
    for the other Sanitize tags.  ``apply_rule`` takes it, or any (tag,
    witness) pair, such as each of ``sanitize``'s matches."""

    tag: str
    witness: tuple


# -- independent exact solvers ------------------------------------------------


def exhaustive_min_rbds(g: RBGraph):
    """Minimum dominating blue set by enumerating all blue subsets in
    ascending size then lexicographic order; None if infeasible."""
    blues = sorted(g.blue)
    reds = sorted(g.red)
    for size in range(len(blues) + 1):
        for combo in itertools.combinations(blues, size):
            chosen = set(combo)
            if all(g.adj[r] & chosen for r in reds):
                return size, set(combo)
    return None


def highs_min_rbds(g: RBGraph) -> set:
    """A minimum set of blues dominating every red, from HiGHS
    (``scipy.optimize.milp``), which shares no code with ``solver.py``."""
    blues, reds = sorted(g.blue), sorted(g.red)
    if not reds:
        return set()
    col = {b: j for j, b in enumerate(blues)}
    rows, cols = zip(*[(i, col[b]) for i, r in enumerate(reds) for b in g.adj[r]])
    cover = csr_array((np.ones(len(rows)), (rows, cols)), shape=(len(reds), len(blues)))
    res = milp(np.ones(len(blues)), integrality=np.ones(len(blues)), bounds=Bounds(0, 1),
               constraints=LinearConstraint(cover, lb=1), options={"mip_rel_gap": 0})
    assert res.success, res.message
    chosen = {b for b, x in zip(blues, res.x) if x > 0.5}
    assert solver.verify_solution(g, chosen)
    return chosen


# -- queries over the library's solver ----------------------------------------------


def decide(g: RBGraph, k: int) -> bool:
    """True iff at most ``k`` blues dominate every red: one bounded query on
    the solver's cover engine per component, each under what ``k`` leaves
    after the components before it, as ``min_rbds`` solves them.  A blue's
    set is its red neighbors."""
    family = [g.adj[b] & g.red for b in g.blue]
    if k < 0 or not g.red <= set().union(*family):
        return False
    engine = solver._Cover(family)
    used = 0
    for part in engine.parts:
        used += engine.solve(part, k - used)
        if used > k:
            return False
    return True


# -- definitional rule oracles ---------------------------------------------------
#
# Each ``oracle_rule<i>_at`` gives the match at one vertex or pair, as the
# driver's probe there must; each ``oracle_rule<i>`` gives the match at the
# least vertex or pair, as the naive driver fires it.


def oracle_rule1_at(g: RBGraph, b: int):
    """R1 at blue ``b``: the least other blue whose neighborhood contains
    N(b).  An isolated blue belongs to sanitize, not R1."""
    nb = g.adj[b]
    if nb:
        for b2 in sorted(g.blue):
            if b2 != b and nb <= g.adj[b2]:
                return Match(R1, (b, b2))
    return None


def oracle_rule2_at(g: RBGraph, r: int):
    """R2 at red ``r``: the least other red whose neighborhood lies within
    N(r).  A red with no blue neighbor is sanitize's NO, not R2's witness."""
    nr = g.adj[r]
    if nr:
        for r2 in sorted(g.red):
            if r2 != r and not g.adj[r2].isdisjoint(g.blue) and g.adj[r2] <= nr:
                return Match(R2, (r, r2))
    return None


def _least(g: RBGraph, candidates, at):
    return next(filter(None, (at(g, x) for x in sorted(candidates))), None)


def oracle_rule1(g: RBGraph):
    return _least(g, g.blue, oracle_rule1_at)


def oracle_rule2(g: RBGraph):
    return _least(g, g.red, oracle_rule2_at)


def oracle_private(g: RBGraph, b: int) -> set:
    nb = g.adj[b]
    out = set()
    for r in nb:
        closure = set()
        for x in g.adj[r]:
            closure |= g.adj[x]
        if closure <= nb:
            out.add(r)
    return out


def oracle_pair_private(g: RBGraph, v: int, w: int) -> set:
    nvw = g.adj[v] | g.adj[w]
    out = set()
    for r in nvw:
        closure = set()
        for x in g.adj[r]:
            closure |= g.adj[x]
        if closure <= nvw:
            out.add(r)
    return out


def oracle_rule3_set(g: RBGraph) -> set:
    """Blues with a nonempty private neighborhood, straight from the
    definition (no two-vertex-component shortcut)."""
    return {b for b in g.blue if oracle_private(g, b)}


def oracle_rule3(g: RBGraph):
    """R3 at the least blue with a nonempty private neighborhood."""
    found = oracle_rule3_set(g)
    return Match(R3, (min(found),)) if found else None


def oracle_rule4_all(g: RBGraph):
    """All firing pairs over every blue pair, no candidate pruning."""
    hits = []
    blues = sorted(g.blue)
    for v, w in itertools.combinations(blues, 2):
        private = oracle_pair_private(g, v, w)
        if len(private) <= 1:
            continue
        if any(d not in (v, w) and private <= g.adj[d] for d in blues):
            continue
        in_v = private <= g.adj[v]
        in_w = private <= g.adj[w]
        case = 1 if not in_v and not in_w else 2 if in_v and in_w else 3 if in_v else 4
        hits.append((v, w, case, frozenset(private)))
    return hits


def oracle_rule4(g: RBGraph):
    """R4 at the least firing pair."""
    for v, w, case, _ in oracle_rule4_all(g):
        return Match(R4_CASE[case], (v, w))
    return None


def is_reduced(g: RBGraph) -> bool:
    """True iff none of the four rules applies."""
    return all(f(g) is None for f in (oracle_rule1, oracle_rule2, oracle_rule3, oracle_rule4))


def apply_sanitize(g: RBGraph) -> list:
    """Apply sanitize's findings to ``g`` in place; returns their records.
    Sanitize-NO changes nothing, so an undominatable red stays."""
    return [apply_rule(g, m) for m in sanitize(g)]


def reduce_rules123(g: RBGraph) -> RBGraph:
    """Apply R1, R2 and R3 to ``g`` in place, sanitizing in between, until
    none applies; the budget is ignored."""
    while True:
        apply_sanitize(g)
        m = oracle_rule1(g) or oracle_rule2(g) or oracle_rule3(g)
        if m is None:
            return g
        apply_rule(g, m)


# -- naive reference driver --------------------------------------------------------


def reference_kernelize(inst: Instance):
    """The driver loop written naively from the definitional oracles:
    sanitize; answer NO by counting if the budget's blues, each dominating
    at most the largest blue degree of reds, cannot cover every red; then
    exhaust R1 then R2, restart on change, then R3 else R4, restart after
    each.  Returns (status, reason-or-None, graph, k, records)."""
    g = inst.graph.copy()
    k = inst.k
    records = apply_sanitize(g)
    if records and records[-1].tag == SAN_NO:
        return "no", NO_ISOLATED_RED, g, k, records
    if g.red and -(-len(g.red) // max(len(g.adj[b]) for b in g.blue)) > k:
        return "no", NO_COUNTING, g, k, records
    while True:
        sanitized = apply_sanitize(g)
        records += sanitized
        if sanitized and sanitized[-1].tag == SAN_NO:
            return "no", NO_ISOLATED_RED, g, k, records
        changed = bool(sanitized)
        for find in (oracle_rule1, oracle_rule2):
            while (m := find(g)) is not None:
                records.append(apply_rule(g, m))
                changed = True
        if changed:
            continue
        m = oracle_rule3(g) or oracle_rule4(g)
        if m is None:
            break
        rec = apply_rule(g, m)
        records.append(rec)
        k += rec.delta_k
        if k < 0:
            return "no", NO_BUDGET, g, k, records
    if g.red and not g.blue:
        return "no", NO_ISOLATED_RED, g, k, records
    if g.red and g.n_vertices > SIZE_FACTOR * k:
        return "no", NO_SIZE, g, k, records
    return "reduced", None, g, k, records


def net_vertex_deltas(original: RBGraph, records) -> list[int]:
    """Per record, the vertices of the graph after it minus those before it,
    stepping one copy of ``original`` through the records as the checking
    replay does: the rule must apply at each witness and give the record
    back."""
    g = original.copy()
    deltas = []
    for rec in records:
        n = g.n_vertices
        assert apply_rule(g, Match(rec.tag, rec.witness)) == rec, rec
        deltas.append(g.n_vertices - n)
    return deltas


# -- corpus builders ----------------------------------------------------------------


def build_graph(nb: int, nr: int, rows) -> RBGraph:
    """Bipartite adjacency matrix rows (bitmask per blue) to an RBGraph in
    file layout: blues 1..nb, reds nb+1..nb+nr."""
    edges = [(i + 1, nb + 1 + j)
             for i, row in enumerate(rows) for j in range(nr) if row >> j & 1]
    return RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + nr + 1), edges)


def _remap_mask(mask: int, perm) -> int:
    out = 0
    for j, p in enumerate(perm):
        if mask >> j & 1:
            out |= 1 << p
    return out


def canonical_key(nb: int, nr: int, rows):
    best = None
    for perm in itertools.permutations(range(nr)):
        key = tuple(sorted(_remap_mask(r, perm) for r in rows))
        if best is None or key < best:
            best = key
        if not rows:
            break
    return nb, nr, best


def enumerate_sanitized_classes(max_n: int):
    """One representative per color-preserving isomorphism class of
    sanitized graphs (cross-color edges only, no isolated blues; isolated
    reds allowed, they exercise the NO path) with at most max_n vertices."""
    seen = set()
    out = []
    for n in range(max_n + 1):
        for nb in range(n + 1):
            nr = n - nb
            if nb > 0 and nr == 0:
                continue  # every blue would be isolated
            for rows in itertools.product(range(1, 1 << nr), repeat=nb):
                key = canonical_key(nb, nr, tuple(rows))
                if key in seen:
                    continue
                seen.add(key)
                out.append(build_graph(nb, nr, rows))
    return out


def _incomparable(a: int, b: int) -> bool:
    return a & b != a and a & b != b


def enumerate_r12_reduced(max_n: int):
    """All graphs (up to color-preserving isomorphism) on which neither R1
    nor R2 applies: blue neighborhoods form an antichain, red neighborhoods
    form an antichain, no isolated blues."""
    out = []
    for n in range(max_n + 1):
        for nb in range(n + 1):
            nr = n - nb
            if nb > 0 and nr == 0:
                continue
            masks = list(range(1, 1 << nr))
            for rows in _antichain_combos(masks, nb):
                cols = [sum((rows[i] >> j & 1) << i for i in range(nb)) for j in range(nr)]
                if all(_incomparable(a, b) for a, b in itertools.combinations(cols, 2)):
                    out.append(build_graph(nb, nr, rows))
    return out


def _antichain_combos(masks, size):
    if size == 0:
        yield ()
        return

    def rec(start, chosen):
        if len(chosen) == size:
            yield tuple(chosen)
            return
        for i in range(start, len(masks)):
            m = masks[i]
            if all(_incomparable(m, c) for c in chosen):
                chosen.append(m)
                yield from rec(i + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


def random_sanitized_instance(rng: random.Random, max_n: int = 12) -> RBGraph:
    """Random cross-color graph, isolated blues swept; isolated reds kept
    so infeasible cases show up."""
    n = rng.randint(1, max_n)
    nb = rng.randint(0, n)
    nr = n - nb
    g = RBGraph.from_parts(range(1, nb + 1), range(nb + 1, n + 1))
    p = rng.choice((0.15, 0.3, 0.5, 0.75))
    for b in range(1, nb + 1):
        for r in range(nb + 1, n + 1):
            if rng.random() < p:
                g.add_edge(b, r)
    apply_sanitize(g)
    return g


# -- reference generators ----------------------------------------------------
#
# The generators as they were before they built their graphs directly: a
# ``randrange`` per face, an edge set that is then sorted, and the graph
# built through ``from_parts`` plus one checked ``add_edge`` per edge.
# ``generators`` must give exactly what these give for every argument.


def _layout(colors: dict, edges) -> RBGraph:
    """Relabel to blues 1..nB, reds nB+1..nB+nR (old-id order) and build."""
    blues = sorted(v for v, c in colors.items() if c == BLUE)
    reds = sorted(v for v, c in colors.items() if c == RED)
    label = {v: i + 1 for i, v in enumerate(blues)}
    label.update({v: len(blues) + 1 + i for i, v in enumerate(reds)})
    g = RBGraph.from_parts(range(1, len(blues) + 1),
                           range(len(blues) + 1, len(blues) + len(reds) + 1))
    for u, v in edges:
        g.add_edge(label[u], label[v])
    return g


def reference_gen_grid(rows: int, cols: int) -> Instance:
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    n = rows * cols
    n_blue = (n + 1) // 2
    label = []
    blue = red = 0
    for i in range(rows):
        for j in range(cols):
            if (i + j) % 2 == 0:
                blue += 1
                label.append(blue)
            else:
                red += 1
                label.append(n_blue + red)
    g = RBGraph.from_parts(range(1, n_blue + 1), range(n_blue + 1, n + 1))
    for v in range(n):
        if (v + 1) % cols:
            g.add_edge(label[v], label[v + 1])
        if v + cols < n:
            g.add_edge(label[v], label[v + cols])
    return Instance(g, n_blue)


def reference_gen_matching(m: int) -> Instance:
    g = RBGraph.from_parts(range(1, m + 1), range(m + 1, 2 * m + 1))
    for i in range(1, m + 1):
        g.add_edge(i, m + i)
    return Instance(g, m)


def reference_stacked_triangulation(n: int, rng: random.Random):
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # both sides of the starting triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.update(((a, v), (b, v), (c, v)))
        faces.extend(((a, b, v), (a, c, v), (b, c, v)))
    return sorted(edges)


def reference_gen_random_planar(n: int, density: float, seed: int) -> Instance:
    rng = random.Random(seed)
    edges = [e for e in reference_stacked_triangulation(n, rng) if rng.random() < density]
    colors = {v: (BLUE if rng.random() < 0.5 else RED) for v in range(n)}
    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for v in range(n):
        if colors[v] == RED and not any(colors[u] == BLUE for u in adjacency[v]):
            colors[v] = BLUE
    cross = [(u, v) for u, v in edges if colors[u] != colors[v]]
    keep = {v for v, c in colors.items() if c == RED}
    keep.update(x for e in cross for x in e)
    g = _layout({v: colors[v] for v in keep}, cross)
    return Instance(g, len(g.blue), meta={"algo": GEN_ALGO_ID, "seed": seed})


def quadratic_gen_random_planar(n: int, density: float, seed: int) -> Instance:
    """gen_random_planar with its original recoloring: recolor the lowest
    undominated red blue, then rescan every vertex, until none is left."""
    rng = random.Random(seed)
    edges = [e for e in reference_stacked_triangulation(n, rng) if rng.random() < density]
    colors = {v: (BLUE if rng.random() < 0.5 else RED) for v in range(n)}
    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def undominated():
        return sorted(v for v, c in colors.items()
                      if c == RED and not any(colors[u] == BLUE for u in adjacency[v]))

    bad = undominated()
    while bad:
        colors[bad[0]] = BLUE
        bad = undominated()
    cross = [(u, v) for u, v in edges if colors[u] != colors[v]]
    keep = {v for v, c in colors.items() if c == RED}
    keep.update(x for e in cross for x in e)
    g = _layout({v: colors[v] for v in keep}, cross)
    return Instance(g, len(g.blue))


def rule4_case2_witness():
    # blues: v=1 w=2 y1=3 y2=4 za=5 zc=6; reds: p1=7 p2=8 a=9 c=10 e=11.
    # p1, p2 are private to the pair; a and c leak through za/zc to e.
    return RBGraph.from_parts(
        range(1, 7), range(7, 12),
        [(1, 7), (1, 8), (1, 9), (2, 7), (2, 8), (2, 10),
         (3, 7), (3, 9), (3, 10), (4, 8), (4, 9), (4, 10),
         (5, 9), (5, 11), (6, 10), (6, 11)])


def rule4_case3_witness(swap_vw=False):
    # blues: v=1 w=2 y=3 z=4 z2=5 z3=6; reds: q1=7 q2=8 c=9 e=10 f=11 g=12.
    # P(v,w) = {q1,q2} sits inside N(v) only; the z-cycle keeps c public.
    a, b = (2, 1) if swap_vw else (1, 2)
    return RBGraph.from_parts(
        range(1, 7), range(7, 13),
        [(a, 7), (a, 8), (b, 7), (b, 9), (3, 8), (3, 9),
         (4, 9), (4, 10), (4, 12), (5, 10), (5, 11), (6, 11), (6, 12)])


def r4_witness_union(rng: random.Random) -> RBGraph:
    """A union of 2-8 copies of the R4 case-2 and case-3 witnesses, the
    latter either way round, ids shifted copy by copy.  Each copy after the
    first is joined to an earlier one by at most one blue-red edge, a
    bridge, so a union of planar copies is planar."""
    g = RBGraph()
    copies = []
    for _ in range(rng.randint(2, 8)):
        kind = rng.randrange(3)
        w = rule4_case2_witness() if kind == 0 else rule4_case3_witness(swap_vw=kind == 2)
        shift = g._next_id - 1
        for v in sorted(w.adj):
            g._add_with_id(v + shift, g.blue if v in w.blue else g.red)
        for u, v in w.edges():
            g.add_edge(u + shift, v + shift)
        part = {v + shift for v in w.adj}
        if copies and rng.random() < 0.8:
            earlier = rng.choice(copies)
            if rng.random() < 0.5:
                g.add_edge(rng.choice(sorted(part & g.blue)), rng.choice(sorted(earlier & g.red)))
            else:
                g.add_edge(rng.choice(sorted(earlier & g.blue)), rng.choice(sorted(part & g.red)))
        copies.append(part)
    return g


def alternating_cycle(pairs: int) -> RBGraph:
    """Cycle alternating blue/red with `pairs` vertices of each color."""
    blues = list(range(1, pairs + 1))
    reds = list(range(pairs + 1, 2 * pairs + 1))
    edges = []
    for i in range(pairs):
        edges.append((blues[i], reds[i]))
        edges.append((blues[(i + 1) % pairs], reds[i]))
    return RBGraph.from_parts(blues, reds, edges)


def star_beside_matching() -> RBGraph:
    """Blue 1 with reds 7..16 beside the single edges (b, b + 15), b = 2..6.
    Counting asks for only two blues, but the six components need six."""
    edges = [(1, r) for r in range(7, 17)] + [(b, b + 15) for b in range(2, 7)]
    return RBGraph.from_parts(range(1, 7), range(7, 22), edges)


def grid_with_rim_blue(rows: int, cols: int) -> RBGraph:
    """``gen_grid(rows, cols)`` plus one blue, the next free id, next to
    every red on the grid's boundary.  The new blue sits in the outer face,
    so the graph stays planar."""
    g = gen_grid(rows, cols).graph
    rim = [r for r in g.red if len(g.adj[r]) < 4]
    hub = g.n_vertices + 1
    return RBGraph.from_parts([*g.blue, hub], g.red, [*g.edges(), *((hub, r) for r in rim)])


def count_left_right(monkeypatch) -> list:
    """Record the ``embed`` flag of every call to the left-right test."""
    calls = []
    left_right = planar._left_right

    def counted(adj, embed):
        calls.append(embed)
        return left_right(adj, embed)

    monkeypatch.setattr(planar, "_left_right", counted)
    return calls


def adjacency(vertices, edges) -> dict:
    """The ``{vertex: neighbors}`` map of a graph given as ``is_planar``
    takes it: vertices named only by edges included, self-loops and repeated
    edges dropped."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj.setdefault(u, set())
        adj.setdefault(v, set())
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def reference_faces(pg) -> list:
    """``PlaneGraph.faces`` walked on the rotation dict by vertex names: a
    name-level DFS for connectivity, a position dict per vertex, and darts as
    (tail, head) pairs.  The dart after (u, v) leaves v along the rotation
    successor of u; walks start at each unseen dart in ascending (tail,
    head) order."""
    rotation = pg.rotation
    seen = set()
    stack = [min(rotation)] if rotation else []
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(u for u in rotation[v] if u not in seen)
    if len(seen) != len(rotation):
        raise GraphError("face traversal needs a connected graph")
    if not rotation:
        return []
    if not any(rotation.values()):
        return [frozenset(rotation)]
    index = {v: {u: i for i, u in enumerate(ns)} for v, ns in rotation.items()}
    seen = set()
    out = []
    for u in sorted(rotation):
        for v in sorted(rotation[u]):
            if (u, v) in seen:
                continue
            face = set()
            dart = (u, v)
            while dart not in seen:
                seen.add(dart)
                a, b = dart
                face.add(a)
                ns = rotation[b]
                dart = (b, ns[(index[b][a] + 1) % len(ns)])
            out.append(frozenset(face))
    return out


def face_sets(pg) -> list:
    """``pg.faces()`` with each walk as the frozenset of its vertices'
    names, the form :func:`reference_faces` gives."""
    names = pg.names
    return [frozenset([names[i] for i in walk]) for walk in pg.faces()]


def reference_face_cover_to_rbds(pg):
    """``transforms.face_cover_to_rbds`` built through the graph's checked
    constructors, on :func:`reference_faces`: ``from_parts`` for the
    vertices, then one ``add_edge`` per face incidence."""
    faces = reference_faces(pg)
    euler = pg.n_vertices - pg.n_edges + len(faces)
    if pg.rotation and euler != 2:
        raise GraphError("the rotation system is not a plane embedding: V - E + F = "
                         "%d - %d + %d = %d, not 2" % (pg.n_vertices, pg.n_edges, len(faces), euler))
    face_to_blue = {i: i + 1 for i in range(len(faces))}
    vertex_to_red = {v: len(faces) + 1 + i for i, v in enumerate(sorted(pg.rotation))}
    g = RBGraph.from_parts(face_to_blue.values(), vertex_to_red.values())
    for i, face in enumerate(faces):
        for v in face:
            g.add_edge(face_to_blue[i], vertex_to_red[v])
    return g, vertex_to_red, face_to_blue


def brute_force_face_cover(pg) -> int:
    """Smallest number of faces covering every vertex, by trying all
    subsets of faces."""
    faces = face_sets(pg)
    everything = set(pg.rotation)
    for size in range(len(faces) + 1):
        for combo in itertools.combinations(faces, size):
            covered = set()
            for f in combo:
                covered |= f
            if covered >= everything:
                return size
    raise AssertionError("all faces together must cover the graph")


def format_plane(pg) -> str:
    """A plane file for ``pg``: the header, then each vertex's rotation."""
    lines = ["p plane %d %d" % (pg.n_vertices, pg.n_edges)]
    lines += ["v %d: %s" % (v, " ".join(map(str, pg.rotation[v]))) for v in sorted(pg.rotation)]
    return "\n".join(lines) + "\n"


# -- reference instance and trace readers and writers --------------------------------


def reference_parse_instance(text: str) -> Instance:
    """The instance reader written line by line: every line of
    ``text.splitlines()`` is split once and checked on its own."""
    header = None
    meta: dict = {}
    origid: dict[int, int] = {}
    adj: dict[int, set[int]] = {}
    nb = last = 0
    for i, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if header is None:
                raise ParseError(i, "edge before header")
            if len(parts) != 3:
                raise ParseError(i, "expected 'e <blue-id> <red-id>'")
            b, r = parts[1], parts[2]
            if not (line.isascii() and b.isdigit() and r.isdigit() and len(b) <= 18
                    and len(r) <= 18):
                raise ParseError(i, "edge endpoints must be ids of ASCII digits")
            b, r = int(b), int(r)
            if not 1 <= b <= nb:
                raise ParseError(i, "%d is not a blue id (1..%d)" % (b, nb))
            if not nb < r <= last:
                raise ParseError(i, "%d is not a red id (%d..%d)" % (r, nb + 1, last))
            reds = adj[b]
            if r in reds:
                raise ParseError(i, "duplicate edge (%d, %d)" % (b, r))
            reds.add(r)
            adj[r].add(b)
            continue
        if kind == "c":
            if len(parts) == 4 and parts[1] == "origid" and _is_id(parts[2]) and _is_id(parts[3]):
                origid[int(parts[2])] = int(parts[3])
            continue
        if kind == "p":
            if header is not None:
                raise ParseError(i, "duplicate header")
            if len(parts) != 5 or parts[1] != "rbds":
                raise ParseError(i, "expected 'p rbds <nB> <nR> <k>'")
            if not all(map(_is_id, parts[2:])):
                raise ParseError(i, "header fields must be counts of ASCII digits")
            nb, nr, k = map(int, parts[2:])
            if nb + nr > MAX_VERTICES:
                raise ParseError(i, "header declares %d vertices, more than %d"
                                 % (nb + nr, MAX_VERTICES))
            header = (nb, nr, k)
            last = nb + nr
            adj = {v: set() for v in range(1, last + 1)}
            continue
        if kind == "g":
            if len(parts) != 4 or parts[1] != "seed":
                raise ParseError(i, "expected 'g seed <algo-id> <seed>'")
            if not _is_id(parts[3].removeprefix("-")):
                raise ParseError(i, "seed must be ASCII digits after an optional '-'")
            meta["algo"] = parts[2]
            meta["seed"] = int(parts[3])
            continue
        raise ParseError(i, "unrecognized line %r" % line.strip())
    if header is None:
        raise ParseError(0, "missing 'p rbds' header")
    g = RBGraph.__new__(RBGraph)
    g.blue = set(range(1, nb + 1))
    g.red = set(range(nb + 1, last + 1))
    g.adj = adj
    g._next_id = last + 1
    if origid:
        meta["origid"] = origid
    return Instance(g, header[2], meta)


def reference_parse_trace(text: str) -> KernelTrace:
    """The trace reader written line by line: every line of
    ``text.splitlines()`` is stripped and matched on its own."""
    trace = KernelTrace()
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _RECORD.fullmatch(line)
        if m is None:
            parts = line.split(None, 2)
            if parts[0] != "c":
                if "removed=" in line or "added=[" in line:
                    raise ParseError(i, "a record of the old trace format: records no longer "
                                        "list removed=[..] and added=[..]; kernelize the "
                                        "instance again to write this format")
                raise ParseError(i, "expected 'r <tag> k_delta=.. witness=(..)', "
                                    "then 'added=<id>' for %s" % R4_CASE[2])
            if len(parts) > 1 and parts[1] == "fingerprint":
                fp = _FINGERPRINT.fullmatch(line)
                if fp is None:
                    raise ParseError(i, "expected 'c fingerprint v=<n> e=<m> sha=<16 hex digits>'")
                if trace.fingerprint is not None:
                    raise ParseError(i, "second 'c fingerprint' line")
                trace.fingerprint = Fingerprint(int(fp[1]), int(fp[2]), fp[3])
            continue
        tag, delta, ids, added = m.groups()
        size = WITNESS_LEN.get(tag)
        if size is None:
            raise ParseError(i, "unknown rule tag %r" % tag)
        witness = tuple(map(int, ids[1:-1].split(","))) if len(ids) > 2 else ()
        if len(witness) != size:
            raise ParseError(i, "%s needs a witness of %d vertices, got %d"
                             % (tag, size, len(witness)))
        if (added is None) == (tag == R4_CASE[2]):
            raise ParseError(i, "%s records and no others end with 'added=<id>'" % R4_CASE[2])
        trace.records.append(RuleApplication(
            tag, witness, int(delta), None if added is None else int(added)))
    return trace


def reference_format_trace(trace: KernelTrace) -> str:
    """The trace writer that builds every line field by field: the tag,
    ``k_delta``, the witness ids joined by commas, and ``added=<id>`` where
    the record names one."""
    lines = []
    if trace.fingerprint is not None:
        lines.append("c fingerprint " + format_fingerprint(trace.fingerprint))
    for tag, witness, delta, added in trace.records:
        line = "r\t%s\tk_delta=%d\twitness=(%s)" % (tag, delta, ",".join(map(str, witness)))
        lines.append(line if added is None else "%s\tadded=%d" % (line, added))
    return "\n".join(lines) + "\n"


def reference_format_instance(inst: Instance, comments=()) -> str:
    """The instance writer with a label map: edges blue by blue, each
    blue's reds sorted by label, and an edge count through ``n_edges``."""
    g = inst.graph
    adj = g.adj
    nb, nr = len(g.blue), len(g.red)
    blues, reds = sorted(g.blue), sorted(g.red)
    canonical = blues == list(range(1, nb + 1)) and reds == list(range(nb + 1, nb + nr + 1))
    label = {v: i + 1 for i, v in enumerate(blues)}
    label.update({v: nb + 1 + i for i, v in enumerate(reds)})
    lines = ["c %s" % c for c in comments]
    lines.append("p rbds %d %d %d" % (nb, nr, inst.k))
    if "algo" in inst.meta and "seed" in inst.meta:
        lines.append("g seed %s %d" % (inst.meta["algo"], inst.meta["seed"]))
    if not canonical:
        lines += ["c origid %d %d" % (label[v], v) for v in blues + reds]
    written = 0
    for b in blues:
        nbrs = adj[b]
        if not nbrs <= g.red:
            raise GraphError("blue %d has a blue neighbor; sanitize first" % b)
        head = "e %d " % label[b]
        lines += [head + str(r) for r in sorted(map(label.__getitem__, nbrs))]
        written += len(nbrs)
    if written != g.n_edges:
        raise GraphError("the graph has red-red edges; sanitize first")
    return "\n".join(lines) + "\n"
