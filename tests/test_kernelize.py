import hashlib
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rbkernel import kernelizer
from rbkernel.generators import _stacked_triangulation, gen_matching, gen_random_planar
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
    RULE_TAGS,
    WITNESS_LEN,
    Fingerprint,
    KernelTrace,
    RuleApplication,
    _by_container,
    _least_container,
    _r3_at,
    _r3_seed,
    apply_rule,
    fingerprint_instance,
    kernelize,
    lift_solution,
    replay_trace,
)
from rbkernel.planar import is_planar
from rbkernel.solver import min_rbds, verify_solution
from rbkernel.transforms import face_cover_to_rbds

from helpers import (
    BLUE,
    RED,
    Match,
    alternating_cycle,
    apply_sanitize,
    decide,
    grid_with_rim_blue,
    is_reduced,
    net_vertex_deltas,
    oracle_pair_private,
    oracle_private,
    oracle_rule1,
    oracle_rule1_at,
    oracle_rule2,
    oracle_rule2_at,
    r4_witness_union,
    reference_kernelize,
    star_beside_matching,
)

VERTEX_RULES = {R1, R2, R3, "R4-case1", "R4-case2", "R4-case3", "R4-case4",
                "Sanitize-isolated-blue"}


def budget_spent(records) -> int:
    return -sum(rec.delta_k for rec in records)


@st.composite
def instance_parts(draw):
    """(k, blues, reds, edges) with ids anywhere among the non-negative
    ints, same-color edges included."""
    ids = draw(st.lists(st.one_of(st.integers(0, 30), st.integers(0, 2 ** 80)),
                        min_size=1, max_size=10, unique=True))
    blues = set(draw(st.lists(st.sampled_from(ids), unique=True)))
    pairs = [(u, v) for u in ids for v in ids if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return draw(st.integers(0, 5)), blues, set(ids) - blues, edges


def build_instance(k, blues, reds, edges, rnd=None) -> Instance:
    """The instance, its vertices and edges inserted in sorted order, or in
    an order ``rnd`` shuffles, each edge's endpoints in either order."""
    vertices = sorted([(v, BLUE) for v in blues] + [(v, RED) for v in reds])
    edges = sorted(edges)
    if rnd is not None:
        rnd.shuffle(vertices)
        rnd.shuffle(edges)
        edges = [e[::-1] if rnd.random() < 0.5 else e for e in edges]
    g = RBGraph()
    for v, color in vertices:
        g._add_with_id(v, g.blue if color == BLUE else g.red)
    for u, v in edges:
        g.add_edge(u, v)
    return Instance(g, k)


class TestDriverExamples:
    def test_two_blue_example(self):
        # b1 covered by b2, red tie broken low, then the forced pick.
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        res = kernelize(Instance(g, 1))
        assert res.status == "reduced"
        assert res.instance.graph.n_vertices == 0
        assert res.instance.k == 0
        tags = [r.tag for r in res.trace.records]
        assert tags == [R1, R2, R3]
        assert res.trace.records[0].witness == (1, 2)
        assert res.trace.records[1].witness == (3, 4)
        assert min_rbds(g).size == 1

    def test_single_edge_budget_zero(self):
        # No blue fits in the budget, so the red is left undominated.
        g = RBGraph.from_parts([1], [2], [(1, 2)])
        res = kernelize(Instance(g, 0))
        assert res.is_no and res.reason == NO_COUNTING
        assert res.trace.records == []

    def test_matching_reduces_by_forced_picks(self):
        inst = gen_matching(4)
        res = kernelize(inst)
        assert res.status == "reduced"
        assert res.instance.graph.n_vertices == 0 and res.instance.k == 0
        assert [r.tag for r in res.trace.records] == [R3] * 4
        assert min_rbds(inst.graph).size == 4

    def test_matching_over_budget(self):
        # Six single edges need six blues, and counting refutes budget 4
        # before any rule fires.  Beside a star of ten reds, counting
        # asks for two blues only: R2 cuts the star to one edge, then one R3
        # sweep takes the six components in id order; the fifth firing
        # drives k to -1 and ends the run there.
        res = kernelize(Instance(gen_matching(6).graph, 4))
        assert res.is_no and res.reason == NO_COUNTING
        assert res.trace.records == []
        res = kernelize(Instance(star_beside_matching(), 4))
        assert res.is_no and res.reason == NO_BUDGET
        recs = res.trace.records
        assert [r.tag for r in recs] == [R2] * 9 + [R3] * 5
        assert [r.witness for r in recs[9:]] == [(b,) for b in range(1, 6)]
        assert budget_spent(recs) == 5

    def test_isolated_red_is_no(self):
        g = RBGraph.from_parts([1], [2, 3], [(1, 2)])
        res = kernelize(Instance(g, 3))
        assert res.is_no and res.reason == NO_ISOLATED_RED

    def test_size_bound_no(self):
        # Alternating C12 is reduced, but with zero budget counting refutes
        # it before the size test.  A 20x20 grid with one blue on its 38
        # boundary reds passes counting at k = 6, since ceil(200 / 38) = 6;
        # the rules leave far more than SIZE_FACTOR * 6 vertices of the
        # planar graph, which certifies NO.
        g = alternating_cycle(6)
        res = kernelize(Instance(g, 0))
        assert res.is_no and res.reason == NO_COUNTING
        assert not decide(g, 0)
        g = grid_with_rim_blue(20, 20)
        assert max(len(g.adj[b]) for b in g.blue) == 38 and len(g.red) == 200
        assert is_planar(g.adj, g.edges()).embedding is not None
        res = kernelize(Instance(g, 6))
        assert res.is_no and res.reason == NO_SIZE
        assert not decide(g, 6)

    def test_reduced_input_is_identity(self):
        g = alternating_cycle(6)
        res = kernelize(Instance(g.copy(), 3))
        assert res.status == "reduced"
        assert res.instance.graph == g
        assert res.instance.k == 3
        assert res.trace.records == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            kernelize(Instance(RBGraph(), -1))

    @given(parts=instance_parts())
    @example(parts=(3, {1, 2, 3}, {4, 5, 6}, [(1, 4), (2, 5), (3, 6)]))
    @settings(max_examples=300, deadline=None)
    def test_input_not_mutated(self, parts):
        # Whatever the verdict: sanitize's matches, a counting NO, or rules
        # firing on a graph sanitize leaves as it is, as in the example.
        inst = build_instance(*parts)
        g = inst.graph
        before = (set(g.blue), set(g.red), {v: set(s) for v, s in g.adj.items()},
                  g._next_id, inst.k)
        kernelize(inst)
        assert inst.graph is g
        assert (g.blue, g.red, g.adj, g._next_id, inst.k) == before

    def test_same_color_edges_cleaned_and_replayable(self):
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        g.adj[1].add(2)
        g.adj[2].add(1)
        g.adj[3].add(4)
        g.adj[4].add(3)
        original = g.copy()
        res = kernelize(Instance(g, 2))
        assert res.status == "reduced"
        edge_recs = [r for r in res.trace.records if r.tag == "Sanitize-edge"]
        assert [r.witness for r in edge_recs] == [(1, 2), (3, 4)]
        assert replay_trace(original, res.trace) == res.instance.graph


class TestTrace:
    def test_forward_replay_reproduces_kernel(self, random_graphs_300):
        rng = random.Random(3)
        for g in rng.sample(random_graphs_300, 120):
            k = rng.randint(0, max(len(g.blue), 1))
            res = kernelize(Instance(g.copy(), k))
            if res.is_no:
                continue
            assert replay_trace(g, res.trace) == res.instance.graph

    def test_fingerprint_matches_original(self):
        inst = gen_matching(3)
        res = kernelize(inst)
        assert res.trace.fingerprint == fingerprint_instance(inst)
        assert res.trace.fingerprint.n_vertices == 6

    def test_budget_arithmetic(self, random_graphs_300):
        # k' = k - #R3 - #case3/4 - 2*#case1, never below the result budget.
        rng = random.Random(4)
        for g in rng.sample(random_graphs_300, 120):
            k = len(g.blue)
            res = kernelize(Instance(g.copy(), k))
            if res.is_no:
                continue
            assert res.instance.k == k - budget_spent(res.trace.records)
            assert res.instance.k >= 0

    def test_strict_shrinkage(self, random_graphs_300):
        rng = random.Random(5)
        for g in rng.sample(random_graphs_300, 120):
            res = kernelize(Instance(g.copy(), len(g.blue)))
            rule_recs = [r for r in res.trace.records if r.tag in VERTEX_RULES]
            assert len(rule_recs) <= g.n_vertices
            for rec, delta in zip(res.trace.records, net_vertex_deltas(g, res.trace.records)):
                if rec.tag in VERTEX_RULES:
                    assert delta <= -1

    def test_order_contract(self, random_graphs_300):
        # Before every R3/R4 record, R1 and R2 are exhausted on the graph
        # state reached by replaying the prefix.
        rng = random.Random(6)
        for g in rng.sample(random_graphs_300, 40):
            res = kernelize(Instance(g.copy(), len(g.blue)))
            if res.is_no:
                continue
            from rbkernel.kernelizer import KernelTrace
            for i, rec in enumerate(res.trace.records):
                if rec.tag.startswith("R3") or rec.tag.startswith("R4"):
                    state = replay_trace(g, KernelTrace(res.trace.records[:i]))
                    assert oracle_rule1(state) is None
                    assert oracle_rule2(state) is None

    def test_fixpoint_is_reduced(self, random_graphs_300):
        rng = random.Random(7)
        for g in rng.sample(random_graphs_300, 80):
            res = kernelize(Instance(g.copy(), len(g.blue)))
            if not res.is_no:
                assert is_reduced(res.instance.graph)


def _corruption_sources():
    """(graph, budget) pairs whose traces fire every tag between them:
    random planar graphs at two budgets, the R4 witness graphs (cases 1 to
    4) and a graph with same-color edges, an isolated blue and, in one
    copy, an isolated red (the Sanitize tags)."""
    from test_rules import rule4_case2_witness, rule4_case3_witness, tight_cap_witness
    unsanitized = RBGraph.from_parts([1, 2, 6], [3, 4, 5], [(1, 3), (2, 3), (2, 4), (1, 2), (3, 4)])
    graphs = [gen_random_planar(n, 0.8, seed).graph for n, seed in ((40, 1), (60, 2), (80, 3))]
    graphs += [alternating_cycle(4), tight_cap_witness(), rule4_case2_witness(),
               rule4_case3_witness(), rule4_case3_witness(swap_vw=True), unsanitized]
    sources = [(g, k) for g in graphs for k in (len(g.blue), len(g.blue) // 2)]
    no_red = unsanitized.copy()
    no_red.remove_vertex(5)
    return sources + [(no_red, 3)]


_SOURCES = _corruption_sources()


@st.composite
def corrupted_traces(draw):
    """A source's valid trace, the graph it replays to, and the trace with
    one thing corrupted; returns (graph, target, kind, corrupted records)."""
    g, k = draw(st.sampled_from(_SOURCES))
    records = kernelize(Instance(g.copy(), k)).trace.records
    target = replay_trace(g, KernelTrace(records))
    n = len(records)
    kinds = ["tag", "witness", "k_delta", "drop"]
    if any(rec.added is not None for rec in records):
        kinds.append("added")
    if n > 1:
        kinds += ["duplicate", "swap"]
    kind = draw(st.sampled_from(kinds))
    bad = list(records)
    i = draw(st.integers(0, n - 1))
    tag, witness, delta, added = bad[i]
    if kind == "tag":
        tags = [t for t in RULE_TAGS if WITNESS_LEN[t] == len(witness) and t != tag]
        tag = draw(st.sampled_from(tags))
        added = draw(st.integers(1, 200)) if tag == R4_CASE[2] else None
        bad[i] = RuleApplication(tag, witness, delta, added)
    elif kind == "witness":
        j = draw(st.integers(0, len(witness) - 1))
        new = draw(st.integers(0, max(g.adj, default=0) + 2).filter(lambda x: x != witness[j]))
        bad[i] = RuleApplication(tag, witness[:j] + (new,) + witness[j + 1:], delta, added)
    elif kind == "k_delta":
        bad[i] = RuleApplication(tag, witness, delta + draw(st.sampled_from([-2, -1, 1, 2])), added)
    elif kind == "added":
        i = draw(st.sampled_from([i for i, rec in enumerate(records) if rec.added is not None]))
        tag, witness, delta, added = bad[i]
        new = draw(st.integers(1, added + 3).filter(lambda x: x != added))
        bad[i] = RuleApplication(tag, witness, delta, new)
    elif kind == "drop":
        del bad[i]
    elif kind == "duplicate":
        bad.insert(draw(st.integers(0, n)), bad[i])
    else:
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        bad[i], bad[j] = bad[j], bad[i]
    return g, target, kind, bad


class TestCheckedReplay:
    def test_sources_replay_to_their_kernels(self):
        tags = set()
        for g, k in _SOURCES:
            res = kernelize(Instance(g.copy(), k))
            tags.update(rec.tag for rec in res.trace.records)
            if not res.is_no:
                assert replay_trace(g, res.trace, res.instance.graph) == res.instance.graph
        assert tags == set(RULE_TAGS)

    @given(corrupted_traces())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_one_corruption_is_refused_or_harmless(self, case):
        # A corrupted record is refused, or the corrupted trace replays to
        # the same graph (say, a swap of two independent records).  A
        # changed tag, budget drop or case-2 red id is always refused, since
        # the replayed record must equal the one in the trace.
        g, target, kind, bad = case
        try:
            out = replay_trace(g, KernelTrace(bad), target)
        except GraphError as exc:
            assert str(exc).startswith(("record ", "the trace ends at ")), exc
            return
        assert out == target
        assert kind not in ("tag", "k_delta", "added"), bad

    @pytest.mark.parametrize("tag, witness, delta", [
        (R1, (1, 1), 0), (R1, (2, 1), 0), (R1, (1, 3), 0), (R1, (1, 9), 0), (R1, (1, 2), -1),
        (R2, (3, 3), 0), (R2, (4, 3), 0), (R2, (3, 1), 0),
        (R3, (1,), -1), (R3, (3,), -1),
        ("R4-case1", (1, 2), -2), ("R4-case4", (2, 1), -1), ("R4-case4", (1, 3), -1),
        ("R4-case2", (2, 2), 0),
        ("Sanitize-edge", (1, 3), 0), ("Sanitize-edge", (1, 2), 0),
        ("Sanitize-isolated-blue", (1,), 0), ("Sanitize-NO", (3,), 0),
        (R3, (2,), -1), ("R4-case2", (1, 2), 0),
        (R1, (1,), 0), (R3, (), -1), ("Sanitize-NO", (), 0), (R1, (1, 2, 3), 0), ("R5", (1, 2), 0),
    ])
    def test_record_where_the_rule_does_not_apply_is_refused(self, tag, witness, delta):
        # N(1) = {3} lies in N(2) = {3, 4} and N(4) = {2} in N(3) = {1, 2}, so
        # R1 applies at (1, 2), R2 at (3, 4) and R4 case 4 at the pair (1, 2);
        # each record here is one of those turned wrong, names another rule,
        # or has a witness of the wrong length for its tag or an unknown tag.
        # R1 at (2, 1) would strand red 4, R3 at 1 or 2 would remove a blue
        # outside a two-vertex component, and R4 case 2 at (1, 2) would add a
        # gadget red where case 4 applies.
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 3), (2, 4)])
        for good in ((R1, (1, 2), 0), (R2, (3, 4), 0), ("R4-case4", (1, 2), -1)):
            replay_trace(g, KernelTrace([RuleApplication(*good, None)]))
        added = 5 if tag == "R4-case2" else None  # the id the graph would give it
        with pytest.raises(GraphError, match="^record 1, "):
            replay_trace(g, KernelTrace([RuleApplication(tag, witness, delta, added)]))
        # apply_rule itself refuses the match and leaves the graph as it was,
        # unless the rule applies and only the record's budget drop is wrong.
        before = g.copy()
        try:
            again = apply_rule(g, Match(tag, witness))
        except GraphError as exc:
            assert str(exc) == "%s does not apply at %s" % (tag, witness)
            assert g == before
        else:
            assert (again.tag, again.witness) == (tag, witness) and again.delta_k != delta

    def test_mismatch_names_the_first_bad_record(self):
        g = alternating_cycle(4)
        res = kernelize(Instance(g.copy(), 4))
        tag, witness, delta, added = res.trace.records[-1]
        bad = res.trace.records[:-1] + [RuleApplication(tag, witness, delta + 1, added)]
        with pytest.raises(GraphError, match="^record %d, %s" % (len(bad), tag)):
            replay_trace(g, KernelTrace(bad))

    @pytest.mark.parametrize("blues, reds, edges, tag, witness", [
        ([1, 2], [3], [(2, 3)], R1, (1, 2)),
        ([1], [2, 3], [(1, 2)], R2, (2, 3)),
    ])
    def test_record_at_an_isolated_vertex_is_refused(self, blues, reds, edges, tag, witness):
        # N(1) = {} lies within N(2) for the blues of the first graph, and
        # N(3) = {} within N(2) for the reds of the second; but the driver's
        # probes never remove an isolated blue by R1 nor take an isolated red
        # as R2's witness, so neither record replays.
        g = RBGraph.from_parts(blues, reds, edges)
        message = "record 1, %s does not apply at %s" % (tag, witness)
        with pytest.raises(GraphError, match="^%s$" % re.escape(message)):
            replay_trace(g, KernelTrace([RuleApplication(tag, witness, 0, None)]))


class TestDriverChecksItsScans:
    """A sweep fires its rule's function, which checks the rule on the
    current graph: a scan that names a vertex where the rule does not apply
    stops the run with apply_rule's message instead of writing a record."""

    def test_r1_at_a_blue_its_container_does_not_contain(self, monkeypatch):
        # N(1) = {3} does not lie within N(2) = {4}; the scan claims it does.
        real = kernelizer._least_container
        monkeypatch.setattr(kernelizer, "_least_container",
                            lambda adj, v: 2 if v == 1 else real(adj, v))
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (2, 4)])
        with pytest.raises(GraphError, match="^%s$" % re.escape("R1 does not apply at (1, 2)")):
            kernelize(Instance(g, 2))

    def test_r3_at_a_blue_outside_a_two_vertex_component(self, monkeypatch):
        # No rule fires on the alternating 8-cycle until R3's seed list,
        # which names blue 1 of degree two.
        monkeypatch.setattr(kernelizer, "_r3_seed", lambda g: [1])
        with pytest.raises(GraphError, match="^%s$" % re.escape("R3 does not apply at (1,)")):
            kernelize(Instance(alternating_cycle(4), 4))


class TestFingerprint:
    """The digest names (k, B, R, E) and nothing else."""

    def test_digest_of_documented_text(self):
        g = RBGraph.from_parts([1, 3], [2, 7], [(1, 2), (3, 2), (3, 7), (1, 3)])
        # m = 8; the keys of (1, 2), (1, 3), (2, 3), (3, 7) are 10, 11, 19, 31.
        text = "k=2 B=[1, 3] R=[2, 7] E=[10, 11, 19, 31]"
        fp = fingerprint_instance(Instance(g, 2))
        assert fp == Fingerprint(4, 4, hashlib.sha256(text.encode()).hexdigest()[:16])

    @given(parts=instance_parts(), rnd=st.randoms(use_true_random=False),
           extra=st.integers(1, 2 ** 70))
    @settings(max_examples=150, deadline=None)
    def test_same_instance_same_digest(self, parts, rnd, extra):
        inst = build_instance(*parts)
        other = build_instance(*parts, rnd)
        other.graph._next_id += extra
        assert other.graph._next_id != inst.graph._next_id
        assert fingerprint_instance(other) == fingerprint_instance(inst)

    @pytest.mark.parametrize("change", ["k", "recolor", "isolated", "same-color-edge",
                                        "remove-edge"])
    @given(parts=instance_parts(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_change_changes_digest(self, change, parts, data):
        k, blues, reds, edges = parts
        ids = sorted(blues | reds)
        if change == "k":
            k += 1
        elif change == "recolor":
            v = data.draw(st.sampled_from(ids))
            blues, reds = blues ^ {v}, reds ^ {v}
        elif change == "isolated":
            v = data.draw(st.integers(0, 2 ** 80).filter(lambda x: x not in ids))
            blues, reds = (blues | {v}, reds) if data.draw(st.booleans()) else (blues, reds | {v})
        elif change == "same-color-edge":
            free = [(u, v) for side in (sorted(blues), sorted(reds))
                    for i, u in enumerate(side) for v in side[i + 1:] if (u, v) not in edges]
            assume(free)
            edges = edges + [data.draw(st.sampled_from(free))]
        else:
            assume(edges)
            edges = edges.copy()
            edges.remove(data.draw(st.sampled_from(edges)))
        before = fingerprint_instance(build_instance(*parts)).digest
        assert fingerprint_instance(build_instance(k, blues, reds, edges)).digest != before


@st.composite
def sanitized_graphs(draw):
    """Random sanitized graphs.  Reds get two to four blue neighbors, so R4
    fires at some budget in about one graph in seven, mostly case 1."""
    nb = draw(st.integers(2, 8))
    red_nbhds = draw(st.lists(st.sets(st.integers(1, nb), min_size=2, max_size=4),
                              min_size=1, max_size=14))
    nr = len(red_nbhds)
    g = RBGraph.from_parts(range(1, nb + 1), range(nb + 1, nb + nr + 1),
                           [(b, nb + 1 + i) for i, nbhd in enumerate(red_nbhds) for b in nbhd])
    apply_sanitize(g)
    return g


# Per rule: where it applies at one vertex, the set of vertices its sweep
# fires at or takes, the color it looks at.  R1 and R2 fire where the scan
# over every blue and every red at start-up finds a containment; R3 takes the
# same set each round.
SEEDS = {R1: (oracle_rule1_at,
              lambda g: [b for b in g.blue if _least_container(g.adj, b) is not None], BLUE),
         R2: (oracle_rule2_at, lambda g: _by_container(g, g.red), RED),
         R3: (_r3_at, _r3_seed, BLUE)}


@pytest.mark.parametrize("rule", SEEDS)
class TestSeeds:
    """The start-up scan for R1 and R2, and the set R3 sweeps each round,
    hold every vertex where the rule applies."""

    @staticmethod
    def check(g, rule):
        at, seed, color = SEEDS[rule]
        side = g.blue if color == BLUE else g.red
        assert {x for x in side if at(g, x) is not None} <= set(seed(g))

    @given(g=sanitized_graphs())
    @example(g=gen_matching(3).graph)  # sanitized_graphs() has no R3 match
    @settings(max_examples=150, deadline=None)
    def test_on_sanitized_graphs(self, rule, g):
        self.check(g, rule)

    def test_on_random(self, rule, random_graphs_300):
        for g in random_graphs_300:
            if all(g.adj[r] for r in g.red):
                self.check(g, rule)


@given(g=sanitized_graphs())
@example(g=RBGraph.from_parts([1, 2], [3], [(1, 3), (2, 3)]))  # R1 leaves blue 2 alone at red 3
@settings(max_examples=150, deadline=None)
def test_r3_applies_at_every_seed_once_r1_is_exhausted(g):
    # The driver fires R3 at every blue _r3_seed lists in a round that fired
    # nothing, unprobed: with R1 exhausted, a degree-one blue is alone at its
    # red, since any other blue there would contain the blue's neighborhood.
    while (m := oracle_rule1(g)) is not None:
        apply_rule(g, m)
    assert all(_r3_at(g, b) is not None for b in _r3_seed(g))


class TestR2LeastWitness:
    """The containment scan over every red names, for each red, the least
    other red whose neighborhood lies within the red's own, as brute force
    over all reds finds it, or nothing when there is none."""

    @staticmethod
    def check(g):
        adj = g.adj
        contained = _by_container(g, g.red)
        for r in g.red:
            least = min((x for x in g.red if x != r and adj[x] <= adj[r]), default=None)
            assert min(contained.get(r, []), default=None) == least

    @given(g=sanitized_graphs())
    # Red 12's candidates 3 and 9 both lie within N(12), and a set of small
    # ints may hold 9 before 3.
    @example(g=RBGraph.from_parts([1], [3, 9, 12], [(1, 3), (1, 9), (1, 12)]))
    @settings(max_examples=150, deadline=None)
    def test_on_sanitized_graphs(self, g):
        self.check(g)

    def test_on_random(self, random_graphs_300):
        # A red with no blue is out of contract for R2.
        graphs = [g for g in random_graphs_300 if all(g.adj[r] for r in g.red)]
        assert len(graphs) >= 100
        for g in graphs:
            self.check(g)


def face_cover_corpus():
    """Face-cover instances of stacked triangulations at two budgets each;
    between them they fire R4 cases 1, 3 and 4."""
    for n in (12, 20, 36):
        for seed in range(10):
            tri = _stacked_triangulation(n, random.Random(seed))
            g, _, faces = face_cover_to_rbds(is_planar(range(n), tri).embedding)
            for k in (len(faces), 2):
                yield g, k


class TestReferenceEquivalence:
    """The pending-set driver must match the naive rescan-everything loop
    record for record, up to the record where a NO verdict stops it."""

    def check(self, g, k):
        res = kernelize(Instance(g.copy(), k))
        status, reason, _g2, k2, records = reference_kernelize(Instance(g.copy(), k))
        assert res.status == status
        assert res.trace.records == records
        if status == "no":
            assert res.reason == reason
        else:
            assert res.instance.k == k2
        return res

    @given(sanitized_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_budget_on_random_graphs(self, g):
        for k in range(len(g.blue) + 1):
            self.check(g, k)

    def test_on_planar_at_tight_budgets(self):
        # An empty kernel's budget drop is the optimum: k - k' is the least
        # YES budget and k - k' - 1 a NO budget.
        for i, n in enumerate((150, 200, 250, 300)):
            for seed in range(4):
                inst = gen_random_planar(n, 0.6 + 0.1 * i, seed)
                res = kernelize(inst)
                assert res.instance.graph.n_vertices == 0
                opt = inst.k - res.instance.k
                assert self.check(inst.graph, opt).status == "reduced"
                assert self.check(inst.graph, opt - 1).reason == NO_BUDGET

    def test_case2_gadget_feeds_rule2(self):
        # Red 12 neighbors both ends of the case-2 pair (1, 2) but reaches
        # red 11 through blue 5, so it is not private.  Once the gadget red
        # 13 with N = {1, 2} replaces the private reds 7 and 8, R2 removes 12
        # with 13 as its witness.
        from test_rules import rule4_case2_witness
        g = rule4_case2_witness()
        assert g.add_red_vertex({1, 2, 5}) == 12
        fired = [(rec.tag, rec.witness) for rec in self.check(g, len(g.blue)).trace.records]
        assert fired.index(("R4-case2", (1, 2))) < fired.index((R2, (12, 13)))

    def test_r1_takes_the_least_container_alive_at_its_turn(self):
        # With reds a, b, c = 4, 5, 6: N(1) = {a, b}, N(2) = {a} and
        # N(3) = {a, b, c}.  Before the sweep 2's least container is 1, which
        # R1 removes first, so at 2's turn the witness is 3.
        g = RBGraph.from_parts([1, 2, 3], [4, 5, 6], [(1, 4), (1, 5), (2, 4), (3, 4), (3, 5),
                                                      (3, 6)])
        assert _least_container(g.adj, 2) == 1
        records = self.check(g, 1).trace.records
        assert [(rec.tag, rec.witness) for rec in records[:2]] == [(R1, (1, 3)), (R1, (2, 3))]

    def test_pair_rule_enabled_at_distance_three(self):
        # R4 case 1 on (3, 9) deletes red 15, after which blue 8 has
        # N = {12, 22}: reds 12 and 22 turn private to the pair (1, 2), at
        # distance three from 15, which fires next.
        g = RBGraph.from_parts(range(1, 10), range(10, 23), [
            (1, 16), (1, 17), (1, 22), (2, 11), (2, 12), (2, 17), (3, 10), (3, 13), (3, 21),
            (4, 11), (4, 13), (4, 18), (5, 16), (5, 19), (6, 20), (6, 21), (7, 18), (7, 19),
            (8, 12), (8, 14), (8, 15), (8, 22), (9, 10), (9, 14), (9, 15), (9, 20)])
        # Below k = 4, k blues of degree at most 4 cover at most 12 of the 13
        # reds, which counting refutes before any rule fires.
        for k in range(len(g.blue) + 1):
            res = self.check(g, k)
            fired = [(rec.tag, rec.witness) for rec in res.trace.records]
            if k < 4:
                assert res.reason == NO_COUNTING and fired == []
            else:
                assert fired[1:4] == [("R4-case1", (3, 9)), ("Sanitize-isolated-blue", (6,)),
                                      ("R4-case1", (1, 2))]

    def test_on_classes(self, classes6):
        for g in classes6:
            for k in (0, 1, len(g.blue)):
                self.check(g, k)

    def test_on_random(self, random_graphs_300):
        rng = random.Random(8)
        for g in rng.sample(random_graphs_300, 100):
            self.check(g, rng.randint(0, max(len(g.blue), 1)))

    def test_on_planar(self):
        for seed in range(10):
            inst = gen_random_planar(24, 0.7, seed)
            self.check(inst.graph, inst.k)

    def test_on_grids(self):
        from rbkernel.generators import gen_grid
        for rows, cols in ((3, 4), (5, 5), (6, 6)):
            inst = gen_grid(rows, cols)
            self.check(inst.graph, inst.k)

    def test_on_face_cover_of_stacked_triangulations(self):
        fired = Counter()
        for g, k in face_cover_corpus():
            fired.update(rec.tag for rec in self.check(g, k).trace.records)
        assert fired["R4-case1"] and fired["R4-case3"] and fired["R4-case4"]

    def test_on_pair_rule_witnesses(self):
        from test_rules import rule4_case2_witness, rule4_case3_witness
        for g in (alternating_cycle(4), rule4_case2_witness(),
                  rule4_case3_witness(), rule4_case3_witness(swap_vw=True)):
            for k in range(len(g.blue) + 1):
                self.check(g, k)

    def test_on_r4_witness_unions(self):
        # Bridged unions of the case-2 and case-3 witnesses fire every R4
        # case, so the blues an R4 firing puts in wl1 meet every case.
        fired = Counter()
        for seed in range(40):
            g = r4_witness_union(random.Random(seed))
            for k in (len(g.blue), len(g.blue) - 1):
                fired.update(rec.tag for rec in self.check(g, k).trace.records)
        assert all(fired[tag] for tag in R4_CASE.values()), fired


def check_verdict(g, k):
    """Kernelize (g, k) and check the fact each verdict rests on: a REDUCED
    kernel, like the fixpoint of a size verdict, has no vertex without a
    neighbor; NO reason=isolated-red ends with the Sanitize-NO record of a
    red that no blue of ``g`` neighbors; NO reason=counting ends at the
    sanitize records, whose graph has more than k times its largest blue
    degree of reds, and every other verdict's sanitized graph has at most
    that many; NO reason=budget ends at the first record where k plus the
    running sum of the budget drops is negative.  Returns the status, or the
    reason of a NO."""
    res = kernelize(Instance(g.copy(), k))
    records = res.trace.records
    if res.reason == NO_ISOLATED_RED:
        assert records[-1].tag == "Sanitize-NO"
        assert g.adj[records[-1].witness[0]].isdisjoint(g.blue)
        return res.reason
    sanitizing = list(itertools.takewhile(lambda rec: rec.tag.startswith("Sanitize"), records))
    sanitized = replay_trace(g, KernelTrace(sanitizing))
    top = max((len(sanitized.adj[b]) for b in sanitized.blue), default=0)
    assert (len(sanitized.red) > k * top) == (res.reason == NO_COUNTING)
    if res.reason == NO_COUNTING:
        assert records == sanitizing
    elif res.reason == NO_BUDGET:
        left = list(itertools.accumulate((rec.delta_k for rec in records), initial=k))[1:]
        assert left[-1] < 0 and min(left[:-1], default=0) >= 0
    else:
        kernel = res.instance.graph if res.reason is None else replay_trace(g, res.trace)
        assert all(kernel.adj.values())
        kernel_k = k + sum(rec.delta_k for rec in records)
        assert (kernel.n_vertices > kernelizer.SIZE_FACTOR * kernel_k) == (res.reason == NO_SIZE)
    return res.reason or res.status


class TestVerdicts:
    """Each verdict's certificate, on the kernelize tests' corpora."""

    def test_on_random_graphs_at_every_budget(self, random_graphs_300):
        seen = Counter(check_verdict(g, k) for g in random_graphs_300
                       for k in range(len(g.blue) + 1))
        assert set(seen) == {"reduced", NO_BUDGET, NO_ISOLATED_RED, NO_COUNTING}

    def test_on_planar_grids_and_witnesses(self):
        from rbkernel.generators import gen_grid
        cases = list(_SOURCES) + list(face_cover_corpus())
        for i, n in enumerate((150, 200, 250, 300)):
            inst = gen_random_planar(n, 0.6 + 0.1 * i, 0)
            opt = inst.k - kernelize(inst).instance.k
            cases += [(inst.graph, opt), (inst.graph, opt - 1)]
        for rows, cols in ((3, 4), (5, 5), (6, 6), (10, 10)):
            # At the budget the rules spend, k' = 0 would leave a nonempty
            # kernel too large, but counting refutes that budget first.
            inst = gen_grid(rows, cols)
            spent = inst.k - kernelize(inst).instance.k
            cases += [(inst.graph, k) for k in (inst.k, spent, spent - 1) if k >= 0]
        cases += [(alternating_cycle(6), k) for k in range(4)]
        # Counting refutes k = 5 here and passes k = 6, which the size test
        # refutes.
        cases += [(grid_with_rim_blue(20, 20), k) for k in (5, 6)]
        seen = Counter(check_verdict(g, k) for g, k in cases)
        assert set(seen) == {"reduced", NO_BUDGET, NO_ISOLATED_RED, NO_COUNTING, NO_SIZE}


class TestCountingIsSound:
    """NO reason=counting is a NO: no k blues dominate every red, so no YES
    budget, one of at least the optimum, gets it."""

    @given(sanitized_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_budget_on_sanitized_graphs(self, g):
        opt = min_rbds(g).size
        for k in range(len(g.blue) + 1):
            if kernelize(Instance(g.copy(), k)).reason == NO_COUNTING:
                assert not decide(g, k)
                assert k < opt


def check_forced_blues(g, k):
    """Kernelize (g, k) and check each record against the blues it forced,
    read off the graph before and after the record: the removed blues whose
    neighbors are nonempty and all removed by the same record.  Lifting the
    record alone adds exactly those blues, the budget drops by their number,
    and they dominate the private reds of the record's witness in the graph
    the record was applied to.  Returns the tags that fired."""
    res = kernelize(Instance(g.copy(), k))
    cur = g.copy()
    for rec in res.trace.records:
        after = replay_trace(cur, KernelTrace([rec]))
        gone = cur.adj.keys() - after.adj.keys()
        forced = {v for v in gone & cur.blue if cur.adj[v] and cur.adj[v] <= gone}
        assert lift_solution(KernelTrace([rec]), set()) == forced, rec
        assert rec.delta_k == -len(forced), rec
        if forced:
            w = rec.witness
            private = oracle_private(cur, *w) if len(w) == 1 else oracle_pair_private(cur, *w)
            assert private and private <= set().union(*(cur.adj[f] for f in forced)), rec
        cur = after
    return [rec.tag for rec in res.trace.records]


class TestForcedBlues:
    @given(sanitized_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_budget_on_random_graphs(self, g):
        for k in range(len(g.blue) + 1):
            check_forced_blues(g, k)

    def test_on_face_cover_of_stacked_triangulations(self):
        fired = Counter()
        for g, k in face_cover_corpus():
            fired.update(check_forced_blues(g, k))
        assert fired["R4-case1"] and fired["R4-case3"] and fired["R4-case4"]

    def test_on_case2_gadget(self):
        from test_rules import rule4_case2_witness
        g = rule4_case2_witness()
        fired = []
        for k in range(len(g.blue) + 1):
            fired += check_forced_blues(g, k)
        assert "R4-case2" in fired


class TestLift:
    def test_matching_lift_adds_all_forced(self):
        inst = gen_matching(3)
        res = kernelize(inst)
        lifted = lift_solution(res.trace, set())
        assert lifted == {1, 2, 3}
        assert verify_solution(inst.graph, lifted)

    def test_identity_trace(self):
        g = alternating_cycle(6)
        res = kernelize(Instance(g.copy(), 3))
        sol = set(min_rbds(g).witness)
        assert lift_solution(res.trace, sol) == sol
        assert verify_solution(g, sol)

    def test_case2_lift_keeps_endpoint(self):
        # Apply a lone case-2 gadget swap; {w} dominates the gadget red, so
        # the lift is the identity and {w} still covers the restored set.
        g = RBGraph.from_parts([1, 2], [3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])
        original = g.copy()
        rec = apply_rule(g, Match("R4-case2", (1, 2)))
        trace = KernelTrace([rec])
        lifted = lift_solution(trace, {2})
        assert lifted == {2}
        assert verify_solution(original, lifted)

    def test_lift_size_matches_budget_drop(self, random_graphs_300):
        rng = random.Random(9)
        for g in rng.sample(random_graphs_300, 100):
            if any(not g.adj[r] for r in g.red):
                continue
            k = len(g.blue)
            res = kernelize(Instance(g.copy(), k))
            assert not res.is_no
            opt = min_rbds(res.instance.graph)
            assert opt.feasible and opt.size <= res.instance.k
            lifted = lift_solution(res.trace, set(opt.witness))
            assert verify_solution(g, lifted)
            assert len(lifted) == opt.size + (k - res.instance.k)
            assert len(lifted) <= k
