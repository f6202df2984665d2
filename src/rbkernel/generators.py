"""Deterministic instance generators for tests and benchmarks.

Every generator emits an already-sanitized instance whose vertex ids follow
the file layout (blues first, then reds), so writing and re-reading an
instance is the identity.  Each refuses, before it allocates anything, a
size or seed that ``formats.format_instance`` would refuse.
"""

from __future__ import annotations

import random

from .formats import check_seed, check_vertex_count
from .graph import BLUE, RED, Instance, RBGraph

GEN_ALGO_ID = "stacked-tri-mt19937-v1"


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


def gen_grid(rows: int, cols: int) -> Instance:
    """Grid graph 2-colored by coordinate parity; k is the blue count.

    Cell (i, j) is blue when i + j is even.  Blues are numbered 1..nB and
    reds nB+1..n, each in row-major order, as :func:`_layout` numbers them."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
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
    g = RBGraph.from_parts(range(1, n_blue + 1), range(n_blue + 1, n + 1))
    for v in range(n):
        if (v + 1) % cols:
            g.add_edge(label[v], label[v + 1])
        if v + cols < n:
            g.add_edge(label[v], label[v + cols])
    return Instance(g, n_blue)


def gen_matching(m: int) -> Instance:
    """m disjoint blue-red edges; each component forces one pick, so k=m."""
    if m < 1:
        raise ValueError("matching needs m >= 1")
    check_vertex_count(2 * m)
    g = RBGraph.from_parts(range(1, m + 1), range(m + 1, 2 * m + 1))
    for i in range(1, m + 1):
        g.add_edge(i, m + i)
    return Instance(g, m)


def _stacked_triangulation(n: int, rng: random.Random):
    """Maximal planar graph grown by repeatedly splitting a random face."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # both sides of the starting triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges.update(((a, v), (b, v), (c, v)))
        faces.extend(((a, b, v), (a, c, v), (b, c, v)))
    return sorted(edges)


def gen_random_planar(n: int, density: float, seed: int) -> Instance:
    """Random planar instance, reproducible from the seed.

    A stacked triangulation is subsampled edge by edge at the given
    density, vertices are colored by fair coin, and any red left without a
    blue neighbor is recolored blue so the instance stays feasible.  The
    output gives sanitize nothing to find and k is the blue count.
    """
    if n < 3:
        raise ValueError("random planar generation needs n >= 3")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    check_vertex_count(n)
    check_seed(seed)
    rng = random.Random(seed)
    edges = [e for e in _stacked_triangulation(n, rng) if rng.random() < density]
    colors = {v: (BLUE if rng.random() < 0.5 else RED) for v in range(n)}

    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    # Recoloring only ever dominates more reds, so one ascending pass
    # recolors exactly the reds a repeated lowest-undominated-first scan would.
    for v in range(n):
        if colors[v] == RED and not any(colors[u] == BLUE for u in adjacency[v]):
            colors[v] = BLUE

    cross = [(u, v) for u, v in edges if colors[u] != colors[v]]
    keep = {v for v, c in colors.items() if c == RED}
    keep.update(x for e in cross for x in e)
    g = _layout({v: colors[v] for v in keep}, cross)
    return Instance(g, len(g.blue), meta={"algo": GEN_ALGO_ID, "seed": seed})
