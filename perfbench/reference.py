"""Reference answers that do not come from rbkernel, and the checks that use them.

Optima come from a 0/1 set-cover program solved by HiGHS through
``scipy.optimize.milp``; scipy is not an rbkernel dependency and is used only
here.  Grids are beyond the MILP at benchmark sizes, so their verdicts come
from trivial bounds instead: with every red adjacent to a blue, all blues
form a solution (YES at k = |B|), and k below the counting bound
ceil(|R| / max blue degree) is certainly NO.  Neither rbkernel's solver nor
the budget drop along a trace is ever used as a reference.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from corpus import Item


@dataclass
class Op:
    """One instance at one budget, with its reference verdict.

    ``label`` is ``<class label>@<budget rule>``.  ``n_in`` counts the
    vertices of the red/blue instance kernelize receives (for plane input,
    the vertices plus the faces of the radial graph).  ``covers`` is the
    checker's own view of the instance: for each red (plane vertex) the set
    of blues (faces) adjacent to it.
    """

    op_id: int
    label: str
    item: Item
    k: int
    ref_yes: bool
    opt: int | None
    n_in: int
    text: str
    covers: dict


def min_cover(covers: dict) -> int:
    """Minimum number of sets hitting every element, proven optimal by HiGHS.

    ``covers`` maps each element to the ids of the sets containing it.
    """
    ids = sorted({s for ss in covers.values() for s in ss})
    col = {s: i for i, s in enumerate(ids)}
    indices, indptr = [], [0]
    for ss in covers.values():
        indices.extend(col[s] for s in ss)
        indptr.append(len(indices))
    a = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(covers), len(ids)))
    res = milp(np.ones(len(ids)), integrality=np.ones(len(ids)), bounds=Bounds(0, 1),
               constraints=LinearConstraint(a, lb=1, ub=np.inf), options={"mip_rel_gap": 0})
    if res.status != 0:
        raise RuntimeError("reference MILP failed: %s" % res.message)
    chosen = {ids[i] for i in np.flatnonzero(res.x > 0.5)}
    if any(not ss & chosen for ss in covers.values()) or len(chosen) != round(res.fun):
        raise RuntimeError("reference MILP returned an invalid cover")
    return len(chosen)


def _rbds_covers(item: Item) -> dict:
    """Red -> set of adjacent blues, read from the benchmark's own serialization."""
    covers = {r: set() for r in range(item.n_blue + 1, item.n_blue + item.n_red + 1)}
    for line in item.body.splitlines():
        _, b, r = line.split()
        covers[int(r)].add(int(b))
    return covers


def _plane_covers(item: Item) -> dict:
    """Plane vertex -> set of indices of the faces it lies on."""
    covers = {v: set() for v in range(item.n_plane)}
    for i, face in enumerate(item.faces):
        for v in face:
            covers[v].add(i)
    return covers


def _budget(rule: str, item: Item, covers: dict, opt, rng: random.Random):
    """(k, reference says YES) for one budget rule of the workload spec."""
    if rule == "opt":
        return opt, True
    if rule == "opt-1":
        return opt - 1, False
    if rule == "blues":
        if not all(covers.values()):
            raise ValueError("%s: a red has no blue neighbor" % item.label)
        return item.n_blue, True
    if rule == "size-no":
        degree = {}
        for ss in covers.values():
            for b in ss:
                degree[b] = degree.get(b, 0) + 1
        counting_bound = -(-item.n_red // max(degree.values()))
        k_max = min(counting_bound - 1, (item.n_blue + item.n_red) // 46 - 1)
        if k_max < 0:
            raise ValueError("%s: too small for a size-no budget" % item.label)
        return rng.randint(k_max // 2, k_max), False
    raise ValueError("unknown budget rule %r" % rule)


def prepare(items, seed: int):
    """Attach budgets and reference verdicts; returns (ops, seconds spent)."""
    start = time.perf_counter()
    ops = []
    for item in items:
        covers = _plane_covers(item) if item.kind == "plane" else _rbds_covers(item)
        needs_opt = any(rule.startswith("opt") for rule in item.budgets)
        opt = min_cover(covers) if needs_opt else None
        n_in = item.n_plane + len(item.faces) if item.kind == "plane" else item.n_blue + item.n_red
        rng = random.Random("%d:%s:budget" % (seed, item.label))
        for rule in item.budgets:
            k, yes = _budget(rule, item, covers, opt, rng)
            text = ""
            if item.kind == "rbds":
                text = "p rbds %d %d %d\n" % (item.n_blue, item.n_red, k) + item.body
            ops.append(Op(len(ops), "%s@%s" % (item.label, rule), item, k, yes,
                          opt, n_in, text, covers))
    return ops, time.perf_counter() - start


def check_solution(op: Op, chosen_sets) -> str | None:
    """Failure reason for a lifted solution, or None when it is valid.

    ``chosen_sets`` are blue ids for rbds input, and for plane input the
    vertex sets of the chosen faces, as rbkernel's radial graph names them.
    """
    if op.item.kind == "plane":
        faces = set(op.item.faces)
        if any(f not in faces for f in chosen_sets):
            return "lift-not-face"
        covered = set().union(*chosen_sets) if chosen_sets else set()
        if len(covered) != op.item.n_plane:
            return "lift-not-dominating"
    else:
        if any(not 1 <= b <= op.item.n_blue for b in chosen_sets):
            return "lift-not-blue"
        chosen = set(chosen_sets)
        if any(not ss & chosen for ss in op.covers.values()):
            return "lift-not-dominating"
    if len(chosen_sets) > op.k:
        return "lift-too-large"
    return None
