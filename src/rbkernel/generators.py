"""Deterministic instance generators for tests and benchmarks.

Every generator emits an already-sanitized instance whose vertex ids follow
the file layout (blues first, then reds), so writing and re-reading an
instance is the identity.  Each refuses, before it allocates anything, a
size or seed that ``formats.format_instance`` would refuse.

Reproducibility: ``gen_random_planar`` draws from one ``random.Random(seed)``
and a seed gives the same instance for as long as ``GEN_ALGO_ID`` stays.  Its
face draws call ``getrandbits`` exactly as ``Random.randrange`` does, and
each generator fills its adjacency sets in the order the checked
``RBGraph.add_edge`` would (tests/test_generator_identity.py).
"""

from __future__ import annotations

import random

from .formats import check_seed, check_vertex_count
from .graph import Instance, RBGraph

GEN_ALGO_ID = "stacked-tri-mt19937-v1"


def gen_grid(rows: int, cols: int) -> Instance:
    """Grid graph 2-colored by coordinate parity; k is the blue count.

    Cell (i, j) is blue when i + j is even.  Blues are numbered 1..nB and
    reds nB+1..n, each in row-major order.  A grid needs two cells: one cell
    alone is an isolated blue, which sanitize would remove."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid needs rows, cols >= 1 and at least two cells")
    n = rows * cols
    check_vertex_count(n)
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
    sets = [set() for _ in range(n)]
    for v in range(n):
        lv = label[v]
        if (v + 1) % cols:
            w = label[v + 1]
            sets[lv - 1].add(w)
            sets[w - 1].add(lv)
        if v + cols < n:
            w = label[v + cols]
            sets[lv - 1].add(w)
            sets[w - 1].add(lv)
    g = RBGraph._trusted(set(range(1, n_blue + 1)), set(range(n_blue + 1, n + 1)),
                         dict(zip(range(1, n + 1), sets)), n + 1)
    return Instance(g, n_blue)


def gen_matching(m: int) -> Instance:
    """m disjoint blue-red edges; each component forces one pick, so k=m."""
    if m < 1:
        raise ValueError("matching needs m >= 1")
    check_vertex_count(2 * m)
    adj = {i: {m + i} for i in range(1, m + 1)}
    adj.update({m + i: {i} for i in range(1, m + 1)})
    g = RBGraph._trusted(set(range(1, m + 1)), set(range(m + 1, 2 * m + 1)), adj, 2 * m + 1)
    return Instance(g, m)


def _stacked_triangulation(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Maximal planar graph grown by repeatedly splitting a random face.

    Returns the sorted edge list.  Vertex v joins the three corners of the
    face it splits, so each corner's list of higher neighbors grows in
    ascending order and the lists, read in vertex order, are the sorted
    edges."""
    higher = [[1, 2], [2], []] + [[] for _ in range(3, n)]
    faces = [(0, 1, 2), (0, 1, 2)]  # both sides of the starting triangle
    getrandbits = rng.getrandbits
    pop = faces.pop
    extend = faces.extend
    for v in range(3, n):
        # Random.randrange(len(faces)), without its two Python frames.
        size = len(faces)
        bits = size.bit_length()
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        a, b, c = pop(r)
        higher[a].append(v)
        higher[b].append(v)
        higher[c].append(v)
        extend(((a, b, v), (a, c, v), (b, c, v)))
    return [(u, v) for u, hi in enumerate(higher) for v in hi]


def gen_random_planar(n: int, density: float, seed: int) -> Instance:
    """Random planar instance, reproducible from the seed.

    A stacked triangulation is subsampled edge by edge at the given
    density, vertices are colored by fair coin, and any red left without a
    blue neighbor is recolored blue so the instance stays feasible.  Only
    the blue-red edges stay, with every red and every blue that keeps one.
    The output gives sanitize nothing to find and k is the blue count.
    """
    if n < 3:
        raise ValueError("random planar generation needs n >= 3")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    check_vertex_count(n)
    check_seed(seed)
    rng = random.Random(seed)
    draw = rng.random
    # The edges come sorted, so each vertex's list is ascending.
    nbrs = [[] for _ in range(n)]
    for u, v in _stacked_triangulation(n, rng):
        if draw() < density:
            nbrs[u].append(v)
            nbrs[v].append(u)
    is_blue = [draw() < 0.5 for _ in range(n)]

    # Recoloring only ever dominates more reds, so one ascending pass
    # recolors exactly the reds a repeated lowest-undominated-first scan would.
    for v in range(n):
        if not is_blue[v] and not any(map(is_blue.__getitem__, nbrs[v])):
            is_blue[v] = True

    blues = [v for v in range(n)
             if is_blue[v] and not all(map(is_blue.__getitem__, nbrs[v]))]
    reds = [v for v in range(n) if not is_blue[v]]
    label = [0] * n
    for new, v in enumerate(blues + reds, start=1):
        label[v] = new
    # A set filled in ascending old-id order, as adding the sorted blue-red
    # edges one at a time fills it.
    adj = {label[v]: {label[u] for u in nbrs[v] if not is_blue[u]} for v in blues}
    adj.update({label[v]: {label[u] for u in nbrs[v] if is_blue[u]} for v in reds})
    nb = len(blues)
    g = RBGraph._trusted(set(range(1, nb + 1)), set(range(nb + 1, len(adj) + 1)), adj,
                         len(adj) + 1)
    return Instance(g, nb, meta={"algo": GEN_ALGO_ID, "seed": seed})
