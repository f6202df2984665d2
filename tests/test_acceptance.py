"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy corpora
(exhaustive small classes, 5000 seeded random instances, 200 seeded planar
instances) are built once per module.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from rbkernel.generators import _stacked_triangulation, gen_grid, gen_random_planar
from rbkernel.graph import Instance, RBGraph
from rbkernel.kernelizer import SIZE_FACTOR, kernelize, lift_solution
from rbkernel.planar import is_planar, planar_verdict
from rbkernel.solver import min_rbds, verify_solution
from rbkernel.transforms import face_cover_to_rbds

from helpers import (
    adjacency,
    brute_force_face_cover,
    build_graph,
    canonical_key,
    decide,
    enumerate_r12_reduced,
    enumerate_sanitized_classes,
    net_vertex_deltas,
    oracle_rule3_set,
    random_sanitized_instance,
)

VERTEX_RULES = {"R1", "R2", "R3", "R4-case1", "R4-case2", "R4-case3", "R4-case4",
                "Sanitize-isolated-blue"}


@dataclass
class SweepStats:
    checks: int = 0
    reduced: int = 0
    lifts: int = 0
    sharp_bound_hits: int = 0
    rule_fires: dict = field(default_factory=dict)


def sweep_one(g, k, stats: SweepStats) -> None:
    """Kernelize (g, k) and grind every per-run acceptance assertion."""
    res = kernelize(Instance(g.copy(), k))
    expected = decide(g, k)
    if res.is_no:
        got = False
    else:
        got = decide(res.instance.graph, res.instance.k)
    assert got == expected, "safeness broke on %r k=%d" % (g, k)
    stats.checks += 1

    # Criterion 5: every vertex-removing application nets at least one
    # vertex out, and there are at most |V| of them.
    rule_recs = [r for r in res.trace.records if r.tag in VERTEX_RULES]
    assert len(rule_recs) <= g.n_vertices
    for rec, delta in zip(res.trace.records, net_vertex_deltas(g, res.trace.records)):
        if rec.tag in VERTEX_RULES:
            assert delta <= -1
    for rec in res.trace.records:
        stats.rule_fires[rec.tag] = stats.rule_fires.get(rec.tag, 0) + 1

    if res.is_no:
        return
    kernel = res.instance
    stats.reduced += 1

    # Criterion 2: hard bound always; sharper count when the optimum is
    # known and at least 3.
    n_out = kernel.graph.n_vertices
    assert n_out <= SIZE_FACTOR * kernel.k
    opt = min_rbds(kernel.graph)
    if expected:
        assert opt.feasible and opt.size <= kernel.k
        if opt.size >= 3:
            assert n_out <= 15 * (3 * opt.size - 6) + opt.size
            stats.sharp_bound_hits += 1

        # Criterion 3: lift an exact kernel solution and check it.
        lifted = lift_solution(res.trace, set(opt.witness))
        assert verify_solution(g, lifted)
        assert len(lifted) <= k
        stats.lifts += 1


@pytest.fixture(scope="module")
def exhaustive7():
    return enumerate_sanitized_classes(7)


@pytest.fixture(scope="module")
def random5000():
    rng = random.Random(20250808)
    return [random_sanitized_instance(rng, 12) for _ in range(5000)]


@pytest.fixture(scope="module")
def planar200():
    out = []
    densities = (0.55, 0.7, 0.85, 1.0)
    for seed in range(200):
        n = 10 + (seed * 7) % 41
        out.append(gen_random_planar(n, densities[seed % 4], seed))
    return out


@pytest.fixture(scope="module")
def sweep_small(exhaustive7, random5000):
    stats = SweepStats()
    for g in exhaustive7 + random5000:
        for k in range(len(g.blue) + 1):
            sweep_one(g, k, stats)
    return stats


@pytest.fixture(scope="module")
def sweep_planar(planar200):
    stats = SweepStats()
    for inst in planar200:
        sweep_one(inst.graph, inst.k, stats)
    return stats


def test_criterion_1_safeness(sweep_small, exhaustive7, random5000):
    assert len(random5000) == 5000
    assert sweep_small.checks > 13000
    print("ACCEPTANCE 1 safeness: PASS (%d instance/budget checks over %d exhaustive "
          "classes plus 5000 random graphs, 100%% oracle agreement)"
          % (sweep_small.checks, len(exhaustive7)))


@pytest.fixture(scope="module")
def sweep_structured():
    # Instances whose kernels stay nonempty, so the optimum-based part of
    # the size bound is actually exercised (small graphs collapse to the
    # empty kernel).
    stats = SweepStats()
    from helpers import alternating_cycle
    from test_rules import rule4_case2_witness, rule4_case3_witness
    for rows, cols in ((4, 4), (5, 5), (6, 6), (5, 8), (7, 7), (8, 8)):
        inst = gen_grid(rows, cols)
        sweep_one(inst.graph, inst.k, stats)
    for m in (6, 7, 8, 9, 10):
        sweep_one(alternating_cycle(m), m, stats)
    for g in (rule4_case2_witness(), rule4_case3_witness(),
              rule4_case3_witness(swap_vw=True)):
        for k in range(len(g.blue) + 1):
            sweep_one(g, k, stats)
    # Every rule, including all four pair cases, must show up somewhere.
    for tag in ("R1", "R2", "R3", "R4-case1", "R4-case2", "R4-case3", "R4-case4"):
        assert stats.rule_fires.get(tag, 0) > 0, "corpus never fires %s" % tag
    return stats


def test_criterion_2_size_bound(sweep_small, sweep_planar, sweep_structured):
    hits = (sweep_small.sharp_bound_hits + sweep_planar.sharp_bound_hits
            + sweep_structured.sharp_bound_hits)
    assert sweep_structured.sharp_bound_hits >= 10
    print("ACCEPTANCE 2 size bound: PASS (46k' on every reduced output; sharper "
          "15(3*opt-6)+opt count checked on %d yes-kernels with opt >= 3)" % hits)


def test_criterion_3_lifting(sweep_small, sweep_planar):
    lifts = sweep_small.lifts + sweep_planar.lifts
    assert lifts > 4000
    print("ACCEPTANCE 3 lifting: PASS (%d exact kernel solutions lifted, all "
          "verify on the originals within budget)" % lifts)


def test_criterion_4_preservation(planar200):
    for inst in planar200:
        res = kernelize(inst)
        assert not res.is_no
        kernel = res.instance.graph
        assert planar_verdict(kernel.adj)
        for u, v in kernel.edges():
            assert (u in kernel.blue) != (v in kernel.blue)
    print("ACCEPTANCE 4 preservation: PASS (200 seeded planar instances stay "
          "planar and properly two-colored after kernelization)")


def test_criterion_5_shrinkage(sweep_small, sweep_planar):
    # The per-run assertions live in sweep_one; this reports the totals.
    fired = {}
    for stats in (sweep_small, sweep_planar):
        for tag, n in stats.rule_fires.items():
            fired[tag] = fired.get(tag, 0) + n
    print("ACCEPTANCE 5 termination/shrinkage: PASS (every application removes "
          "a vertex, counts bounded by |V|; fires=%s)" % sorted(fired.items()))


def test_criterion_6_fact6_equivalence():
    corpus = enumerate_r12_reduced(9)

    # Cross-check the antichain enumeration itself against a direct filter
    # over every labeled sanitized graph with up to 6 vertices.
    direct = set()
    for n in range(7):
        for nb in range(n + 1):
            nr = n - nb
            if nb > 0 and nr == 0:
                continue
            for rows in itertools.product(range(1, 1 << nr), repeat=nb):
                cols = [sum((rows[i] >> j & 1) << i for i in range(nb))
                        for j in range(nr)]
                if any(a & b in (a, b) for a, b in itertools.combinations(rows, 2)):
                    continue
                if any(a & b in (a, b) for a, b in itertools.combinations(cols, 2)):
                    continue
                direct.add(canonical_key(nb, nr, tuple(sorted(rows))))
    mine = {canonical_key(len(g.blue), len(g.red),
                          tuple(sorted(sum(1 << (r - len(g.blue) - 1) for r in g.adj[b])
                                       for b in g.blue)))
            for g in corpus if g.n_vertices <= 6}
    assert mine == direct

    for g in corpus:
        fact6 = {v for v in sorted(g.blue)
                 if len(g.adj[v]) == 1
                 and len(g.adj[next(iter(g.adj[v]))]) == 1}
        assert fact6 == oracle_rule3_set(g), "Fact-6 scan diverged on %r" % g
    print("ACCEPTANCE 6 fact-6 equivalence: PASS (%d graphs reduced under "
          "R1/R2 with <= 9 vertices, scans agree everywhere)" % len(corpus))


def _plane_corpus():
    def embed(vertices, edges):
        res = is_planar(vertices, edges)
        assert res.planar
        return res.embedding

    graphs = []
    for n in range(3, 11):  # cycles C3..C10
        graphs.append(embed(range(n), [(i, (i + 1) % n) for i in range(n)]))
    graphs.append(embed(range(4), itertools.combinations(range(4), 2)))  # K4
    graphs.append(embed(range(5), [(i, j) for i in (0, 1) for j in (2, 3, 4)]))  # K2,3
    cube = [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b]
    graphs.append(embed(range(8), cube))  # Q3
    graphs.append(embed(range(7), [(0, i) for i in range(1, 7)]))  # star
    graphs.append(embed(range(8), [(i, i + 1) for i in range(7)]))  # path
    for rows, cols in ((2, 3), (2, 4), (2, 5), (3, 3)):  # grids
        edges = []
        for i in range(rows):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    edges.append((v, v + 1))
                if i + 1 < rows:
                    edges.append((v, v + cols))
        graphs.append(embed(range(rows * cols), edges))
    for rim in (5, 7, 9):  # wheels
        edges = [(0, i) for i in range(1, rim + 1)]
        edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
        graphs.append(embed(range(rim + 1), edges))
    for n, seed in ((6, 0), (6, 1), (8, 0), (8, 1), (10, 0), (10, 1)):
        tri = _stacked_triangulation(n, random.Random(seed))
        graphs.append(embed(range(n), tri))
    return graphs


def test_criterion_7_transforms():
    plane_corpus = _plane_corpus()
    assert all(pg.n_vertices <= 10 for pg in plane_corpus)
    for pg in plane_corpus:
        radial, _, _ = face_cover_to_rbds(pg)
        assert planar_verdict(radial.adj)
        assert min_rbds(radial).size == brute_force_face_cover(pg)
    print("ACCEPTANCE 7 transforms: PASS (radial optimum matches brute-force face cover "
          "on %d plane graphs)" % len(plane_corpus))


def test_criterion_8_performance():
    inst = gen_grid(100, 100)
    start = time.perf_counter()
    res = kernelize(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert not res.is_no
    assert res.instance.graph.n_vertices <= SIZE_FACTOR * res.instance.k
    rule_recs = [r for r in res.trace.records if r.tag in VERTEX_RULES]
    assert len(rule_recs) <= inst.graph.n_vertices
    deltas = net_vertex_deltas(inst.graph, res.trace.records)
    assert all(d <= -1 for r, d in zip(res.trace.records, deltas) if r.tag in VERTEX_RULES)
    fired = {}
    for rec in res.trace.records:
        fired[rec.tag] = fired.get(rec.tag, 0) + 1
    print("ACCEPTANCE 8 performance: PASS (gen_grid(100,100): %d vertices "
          "kernelized in %.2fs, fires=%s)"
          % (inst.graph.n_vertices, elapsed, sorted(fired.items())))


def test_criterion_9_planarity_golden():
    rng = random.Random(31415)
    planar_graphs = []

    for rows, cols in ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5), (2, 7)):
        g = gen_grid(rows, cols).graph
        planar_graphs.append((sorted(g.adj), g.edges()))
    for n in range(5, 15):  # 10 random trees
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        planar_graphs.append((list(range(n)), edges))
    planar_graphs.append((list(range(4)), list(itertools.combinations(range(4), 2))))
    planar_graphs.append((list(range(8)),
                          [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b]))
    for i in range(8):  # stacked triangulations
        n = 8 + i
        planar_graphs.append((list(range(n)),
                              _stacked_triangulation(n, random.Random(i))))

    nonplanar_graphs = [
        (list(range(5)), list(itertools.combinations(range(5), 2))),
        (list(range(6)), [(i, 3 + j) for i in range(3) for j in range(3)]),
    ]
    for i in range(20):  # edge counts beyond 3n-6 force non-planarity
        n = 7 + i % 6
        m = 3 * n - 5
        edges = rng.sample(list(itertools.combinations(range(n), 2)), m)
        nonplanar_graphs.append((list(range(n)), edges))

    assert len(planar_graphs) + len(nonplanar_graphs) == 50
    for vs, es in planar_graphs:
        res = is_planar(vs, es)
        assert res.planar and res.embedding is not None
        assert planar_verdict(adjacency(vs, es))
    for vs, es in nonplanar_graphs:
        res = is_planar(vs, es)
        assert not res.planar and res.embedding is None
        assert not planar_verdict(adjacency(vs, es))
    print("ACCEPTANCE 9 planarity: PASS (50-graph golden suite: 28 planar with "
          "embeddings, 22 non-planar; planar_verdict agrees on all 50)")
