"""Every record keeps a planar graph planar, as ``kernelize``'s docstring states.

Traces of ``kernelize`` on planar inputs are replayed record by record
through ``apply_rule``, and every intermediate graph is checked with
networkx's ``check_planarity``, the tests' planarity oracle, which shares no
code with ``rbkernel.planar``.  The inputs are random planar instances,
face covers of stacked triangulations, the R4 case-2 witness, seeded unions
of R4 witnesses joined by bridges, and one planar graph with same-color
edges and an isolated blue; between them they fire every tag that changes
the graph.
"""

import random
from collections import Counter

import networkx as nx

from rbkernel.generators import _stacked_triangulation, gen_random_planar
from rbkernel.graph import Instance, RBGraph
from rbkernel.kernelizer import R4_CASE, RULE_TAGS, SAN_NO, apply_rule, kernelize
from rbkernel.planar import is_planar
from rbkernel.transforms import face_cover_to_rbds

from helpers import alternating_cycle, r4_witness_union, rule4_case2_witness


def planar(g: RBGraph) -> bool:
    nxg = nx.Graph()
    nxg.add_nodes_from(g.adj)
    nxg.add_edges_from((u, v) for u, nu in g.adj.items() for v in nu if u < v)
    return nx.check_planarity(nxg)[0]


def same_color_edges_graph() -> RBGraph:
    # The alternating 8-cycle with a blue-blue and a red-red chord on one
    # side of it, and the isolated blue 9.
    g = alternating_cycle(4)
    g.add_edge(1, 2)
    g.add_edge(5, 6)
    g._add_with_id(9, g.blue)
    return g


def planar_inputs():
    """(graph, budget) pairs, each graph planar; every budget is the blue
    count, so no run stops on the budget before its fixpoint."""
    rng = random.Random(15)
    for seed in range(8):
        yield gen_random_planar(rng.randint(30, 90), rng.choice((0.6, 0.8, 1.0)), seed).graph
    for n in (12, 20, 30):
        for _ in range(3):
            tri = _stacked_triangulation(n, rng)
            yield face_cover_to_rbds(is_planar(range(n), tri).embedding)[0]
    yield rule4_case2_witness()
    for _ in range(12):
        yield r4_witness_union(rng)
    yield same_color_edges_graph()


def test_every_intermediate_graph_is_planar():
    fired = Counter()
    for g in planar_inputs():
        assert planar(g)
        res = kernelize(Instance(g.copy(), len(g.blue)))
        step = g.copy()
        for i, rec in enumerate(res.trace.records, start=1):
            assert apply_rule(step, rec[:2]) == rec
            assert planar(step), "record %d, %s at %s" % (i, rec.tag, rec.witness)
            fired[rec.tag] += 1
    assert set(RULE_TAGS) - {SAN_NO} <= set(fired), fired
    assert all(fired[tag] for tag in R4_CASE.values()), fired
