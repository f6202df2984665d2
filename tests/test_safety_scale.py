"""Kernel safety at scale, checked against HiGHS.

HiGHS (``scipy.optimize.milp``) shares no code with ``solver.py``.  Each
class is kernelized at the budgets |B|, opt and opt - 1, opt being HiGHS's
optimum of the input:

* at k >= opt the verdict is REDUCED, opt(G) = opt(kernel) + (k - k'), and a
  HiGHS optimum of the kernel, lifted through the trace, is a solution of G
  with opt(G) blues;
* at k = opt - 1 the verdict is NO, or the kernel's optimum exceeds k'.

Rule order depends on vertex ids, so one class is also run with its ids
permuted: the trace differs and the identity must still hold.  The R4-union
class fires R4 cases 1 and 2 many times, which no benchmark workload does.
"""

import random

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array
from scipy.spatial import Delaunay

from rbkernel.generators import gen_grid, gen_random_planar
from rbkernel.graph import Instance, RBGraph
from rbkernel.kernelizer import R4_CASE, kernelize, lift_solution
from rbkernel.planar import is_planar
from rbkernel.solver import verify_solution
from rbkernel.transforms import face_cover_to_rbds

from test_rules import rule4_case2_witness

R4_UNION_COPIES = 100


def highs_min_rbds(g: RBGraph) -> set:
    """A minimum set of blues dominating every red, from HiGHS."""
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
    assert verify_solution(g, chosen)
    return chosen


def r4_union() -> RBGraph:
    """Disjoint copies of the R4 case-2 witness."""
    one = rule4_case2_witness()
    step = max(one.adj)
    blues, reds, edges = [], [], []
    for i in range(R4_UNION_COPIES):
        blues += [b + i * step for b in sorted(one.blue)]
        reds += [r + i * step for r in sorted(one.red)]
        edges += [(u + i * step, v + i * step) for u, v in one.edges()]
    return RBGraph.from_parts(blues, reds, edges)


def delaunay_face_cover(n: int) -> RBGraph:
    """Face cover, hull face included, of the Delaunay triangulation of n
    seeded random points."""
    points = np.random.default_rng(7).random((n, 2))
    edges = {tuple(sorted((int(s[i]), int(s[j]))))
             for s in Delaunay(points).simplices for i, j in ((0, 1), (1, 2), (0, 2))}
    return face_cover_to_rbds(is_planar(range(n), sorted(edges)).embedding)[0]


def permuted(g: RBGraph, seed: int) -> RBGraph:
    """``g`` with its vertex ids permuted at random."""
    ids = sorted(g.adj)
    to = dict(zip(ids, random.Random(seed).sample(ids, len(ids))))
    return RBGraph.from_parts([to[b] for b in g.blue], [to[r] for r in g.red],
                              [(to[u], to[v]) for u, v in g.edges()])


CLASSES = {
    "random-planar-10000": lambda: gen_random_planar(10 ** 4, 0.75, 7).graph,
    "r4-union-100": r4_union,
    "delaunay-100": lambda: delaunay_face_cover(100),
    "grid-20x20": lambda: gen_grid(20, 20).graph,
    "delaunay-100-permuted": lambda: permuted(delaunay_face_cover(100), 7),
}


@pytest.mark.parametrize("name", CLASSES)
def test_kernel_is_safe_against_highs(name):
    g = CLASSES[name]()
    opt = len(highs_min_rbds(g))
    assert 0 < opt <= len(g.blue)
    for k in (len(g.blue), opt, opt - 1):
        res = kernelize(Instance(g.copy(), k))
        if res.is_no:
            assert k < opt, (k, res.reason)
            continue
        kernel, k2 = res.instance.graph, res.instance.k
        solution = highs_min_rbds(kernel)
        if k < opt:
            assert len(solution) > k2
            continue
        assert opt == len(solution) + (k - k2), k
        lifted = lift_solution(res.trace, solution)
        assert verify_solution(g, lifted) and len(lifted) == opt, k


def test_r4_union_fires_cases_1_and_2_on_every_copy():
    g = r4_union()
    tags = [rec.tag for rec in kernelize(Instance(g, len(g.blue))).trace.records]
    assert tags.count(R4_CASE[1]) == tags.count(R4_CASE[2]) == R4_UNION_COPIES
