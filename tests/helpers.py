"""Independent oracles and corpus builders shared across the test suite.

Everything here recomputes results straight from definitions (subset
enumeration, all-pairs scans, naive driver loops) so library code is always
checked against a second route.
"""

from __future__ import annotations

import itertools
import random

from rbkernel import solver
from rbkernel.generators import _layout, _stacked_triangulation
from rbkernel.graph import BLUE, RED, Instance, RBGraph
from rbkernel.kernelizer import (
    NO_BUDGET,
    NO_ISOLATED_RED,
    NO_SIZE,
    SAN_NO,
    Match,
    apply_rule,
    find_rule1,
    find_rule2,
    find_rule3,
    find_rule4,
    sanitize,
)


# -- exhaustive solvers -------------------------------------------------------


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


def exhaustive_min_ds(adj: dict):
    vs = sorted(adj)
    for size in range(len(vs) + 1):
        for combo in itertools.combinations(vs, size):
            chosen = set(combo)
            if all(v in chosen or adj[v] & chosen for v in vs):
                return size, chosen
    return None


# -- queries over the library's solver and finders ---------------------------------


def decide(g: RBGraph, k: int) -> bool:
    """True iff at most ``k`` blues dominate every red: one bounded query on
    the solver's cover engine per component, each under what ``k`` leaves
    after the components before it, as ``min_rbds`` solves them."""
    if k < 0 or any(not g.adj[r] for r in g.red):
        return False
    engine = solver._Cover([g.adj[b] for b in g.blue])
    used = 0
    for part in engine.parts:
        used += engine.solve(part, k - used)
        if used > k:
            return False
    return True


def min_ds(adj: dict) -> solver.SolveOutcome:
    """Minimum dominating set of a general graph through ``min_rbds``: each
    vertex gets a blue and a red copy, and a blue copy neighbors the red
    copies of its closed neighborhood.  Blue copies keep the vertex order,
    so the witness is the lex-min one over the vertices."""
    vs = sorted(adj)
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    edges = [(i + 1, n + 1 + index[u]) for i, v in enumerate(vs) for u in adj[v] | {v}]
    out = solver.min_rbds(RBGraph.from_parts(range(1, n + 1), range(n + 1, 2 * n + 1), edges))
    return solver.SolveOutcome(out.size, frozenset(vs[b - 1] for b in out.witness))


def is_reduced(g: RBGraph) -> bool:
    """True iff none of the four rules applies."""
    return all(f(g) is None for f in (find_rule1, find_rule2, find_rule3, find_rule4))


# -- definitional rule oracles ---------------------------------------------------


def oracle_rule1(g: RBGraph):
    for b in sorted(g.blue):
        nb = g.adj[b]
        if not nb:
            continue
        for b2 in sorted(g.blue):
            if b2 != b and nb <= g.adj[b2]:
                return b, b2
    return None


def oracle_rule2(g: RBGraph):
    for r in sorted(g.red):
        nr = g.adj[r]
        if not nr:
            continue
        for r2 in sorted(g.red):
            if r2 != r and g.adj[r2] <= nr:
                return r, r2
    return None


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


def apply_sanitize(g: RBGraph) -> list:
    """Apply sanitize's findings to ``g`` in place; returns their records.
    Sanitize-NO changes nothing, so an undominatable red stays."""
    return [apply_rule(g, 0, m)[1] for m in sanitize(g)]


def reduce_rules123(g: RBGraph) -> RBGraph:
    """Apply R1, R2 and R3 to ``g`` in place, sanitizing in between, until
    none applies; the budget is ignored."""
    while True:
        apply_sanitize(g)
        m = find_rule1(g) or find_rule2(g) or find_rule3(g)
        if m is None:
            return g
        apply_rule(g, 0, m)


# -- naive reference driver --------------------------------------------------------


def reference_kernelize(inst: Instance):
    """The driver loop written naively from the public finders: sanitize,
    exhaust R1 then R2, restart on change, then R3 else R4, restart after
    each.  Returns (status, reason-or-None, graph, k, records)."""
    g = inst.graph.copy()
    k = inst.k
    records = []
    while True:
        sanitized = apply_sanitize(g)
        records += sanitized
        if sanitized and sanitized[-1].tag == SAN_NO:
            return "no", NO_ISOLATED_RED, g, k, records
        changed = bool(sanitized)
        while (m := find_rule1(g)) is not None:
            k, rec, _ = apply_rule(g, k, m)
            records.append(rec)
            changed = True
        while (m := find_rule2(g)) is not None:
            k, rec, _ = apply_rule(g, k, m)
            records.append(rec)
            changed = True
        if changed:
            continue
        m = find_rule3(g)
        if m is None:
            m = find_rule4(g)
        if m is not None:
            k, rec, _ = apply_rule(g, k, m)
            records.append(rec)
            if k < 0:
                return "no", NO_BUDGET, g, k, records
            continue
        break
    if g.red and not g.blue:
        return "no", NO_ISOLATED_RED, g, k, records
    if g.red and g.n_vertices > 46 * k:
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
        assert apply_rule(g, 0, Match(rec.tag, rec.witness))[1] == rec, rec
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


def quadratic_gen_random_planar(n: int, density: float, seed: int) -> Instance:
    """gen_random_planar with its original recoloring: recolor the lowest
    undominated red blue, then rescan every vertex, until none is left."""
    rng = random.Random(seed)
    edges = [e for e in _stacked_triangulation(n, rng) if rng.random() < density]
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


def alternating_cycle(pairs: int) -> RBGraph:
    """Cycle alternating blue/red with `pairs` vertices of each color."""
    blues = list(range(1, pairs + 1))
    reds = list(range(pairs + 1, 2 * pairs + 1))
    edges = []
    for i in range(pairs):
        edges.append((blues[i], reds[i]))
        edges.append((blues[(i + 1) % pairs], reds[i]))
    return RBGraph.from_parts(blues, reds, edges)


def brute_force_face_cover(pg) -> int:
    """Smallest number of faces covering every vertex, by trying all
    subsets of faces."""
    faces = pg.faces()
    everything = set(pg.rotation)
    for size in range(len(faces) + 1):
        for combo in itertools.combinations(faces, size):
            covered = set()
            for f in combo:
                covered |= f.vertices
            if covered >= everything:
                return size
    raise AssertionError("all faces together must cover the graph")


def format_plane(pg) -> str:
    """A plane file for ``pg``: the header, then each vertex's rotation."""
    lines = ["p plane %d %d" % (pg.n_vertices, pg.n_edges)]
    lines += ["v %d: %s" % (v, " ".join(map(str, pg.rotation[v]))) for v in sorted(pg.rotation)]
    return "\n".join(lines) + "\n"
