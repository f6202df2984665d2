"""Every rule firing checked on its own against brute force.

Small random graphs, and graphs grown from the R4 case-2 and case-3
witnesses, are walked down to their R1-R3 fixpoint.  On the way, the first
match of ``sanitize`` and of each of the definitional oracles
``helpers.oracle_rule1..4`` is fired through ``apply_rule`` on a copy, and
the one firing G -> G' is checked with ``exhaustive_min_rbds``, which
shares no code with ``solver.py``:

* G is infeasible exactly when G' is;
* opt(G) = opt(G') - delta_k;
* lifting an optimum of G' through that one record gives a solution of G
  with opt(G) blues;
* G' is the graph the rule's definition leaves: for R4 the case and the
  private set come from ``helpers.oracle_rule4_all``, and the budget drop
  is minus the number of blues the definition forces.

The last check is the only one that sees a rule weakened but still safe,
such as R4 case 1 forcing one endpoint of its pair instead of both.
"""

import random
from collections import Counter

from rbkernel.graph import RBGraph
from rbkernel.kernelizer import (
    R1,
    R2,
    R3,
    R4_CASE,
    RULE_TAGS,
    SAN_BLUE,
    SAN_EDGE,
    KernelTrace,
    apply_rule,
    lift_solution,
    sanitize,
)
from rbkernel.solver import verify_solution

from helpers import (
    apply_sanitize,
    exhaustive_min_rbds,
    oracle_rule1,
    oracle_rule2,
    oracle_rule3,
    oracle_rule3_set,
    oracle_rule4,
    oracle_rule4_all,
    reduce_rules123,
)
from test_rules import rule4_case2_witness, rule4_case3_witness

# The blues an R4 case forces, as positions in its (v, w) witness.
_CASE_FORCES = {1: (0, 1), 2: (), 3: (0,), 4: (1,)}


def expected_after(g: RBGraph, rec):
    """The graph the definition of ``rec``'s rule leaves of ``g``, and the
    number of blues it forces into every solution."""
    tag, witness = rec.tag, rec.witness
    out = g.copy()
    forced = ()
    if tag == SAN_EDGE:
        out.remove_edge(*witness)
    elif tag in (R1, R2, SAN_BLUE):
        out.remove_vertex(witness[0])
    elif tag == R3:
        assert witness[0] in oracle_rule3_set(g), rec
        forced = witness
    elif tag in R4_CASE.values():
        hits = {(v, w): (case, private) for v, w, case, private in oracle_rule4_all(g)}
        assert witness in hits, rec
        case, private = hits[witness]
        assert tag == R4_CASE[case], rec
        forced = [witness[i] for i in _CASE_FORCES[case]]
        if case == 2:
            for r in private:
                out.remove_vertex(r)
            assert rec.added not in g.adj, rec
            out._add_with_id(rec.added, out.red)
            for v in witness:
                out.add_edge(v, rec.added)
    for x in set(forced).union(*(g.adj[f] for f in forced)):
        out.remove_vertex(x)
    return out, len(forced)


def check_firing(g: RBGraph, match, fired: Counter) -> None:
    """Fire ``match`` on a copy of ``g`` and check the one step G -> G'."""
    after = g.copy()
    rec = apply_rule(after, match)
    want, n_forced = expected_after(g, rec)
    assert after == want and rec.delta_k == -n_forced, rec
    before, now = exhaustive_min_rbds(g), exhaustive_min_rbds(after)
    assert (before is None) == (now is None), rec
    if before is not None:
        assert before[0] == now[0] - rec.delta_k, (rec, before, now)
        lifted = lift_solution(KernelTrace([rec]), now[1])
        assert verify_solution(g, lifted) and len(lifted) == before[0], (rec, lifted)
    fired[rec.tag] += 1


def walk(g: RBGraph, fired: Counter) -> None:
    """Check the first match of each rule on its way down ``g``: sanitize
    on ``g`` itself, R1 and R2 once sanitized, R3 once R1 and R2 are
    exhausted, and R4 at the R1-R3 fixpoint."""
    found = sanitize(g)
    if found:
        check_firing(g, found[0], fired)
    g = g.copy()
    apply_sanitize(g)
    for find in (oracle_rule1, oracle_rule2):
        m = find(g)
        if m is not None:
            check_firing(g, m, fired)
    while (m := oracle_rule1(g) or oracle_rule2(g)) is not None:
        apply_rule(g, m)
        apply_sanitize(g)
    m = oracle_rule3(g)
    if m is not None:
        check_firing(g, m, fired)
    reduce_rules123(g)
    m = oracle_rule4(g)
    if m is not None:
        check_firing(g, m, fired)


def random_graph(rng: random.Random) -> RBGraph:
    """5-10 blues and 5-12 reds, each cross edge with one probability in
    0.2-0.5; one graph in five also gets a few same-color edges."""
    nb, nr = rng.randint(5, 10), rng.randint(5, 12)
    p = rng.uniform(0.2, 0.5)
    blues, reds = range(1, nb + 1), range(nb + 1, nb + nr + 1)
    g = RBGraph.from_parts(blues, reds, [(b, r) for b in blues for r in reds if rng.random() < p])
    if rng.random() < 0.2:
        for side in (blues, reds):
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(side, 2)
                g.add_edge(u, v)
    return g


def grown_witness(rng: random.Random) -> RBGraph:
    """The R4 case-2 or case-3 witness (case 4 with v and w swapped) with up
    to four blues and four reds added, and random edges at the added
    vertices that touch neither the pair's private reds nor their other
    dominators.  So the private reds stay private to the pair (1, 2) with
    no third dominator; added reds at 1 or 2 may change which case fires."""
    kind = rng.randrange(3)
    g = rule4_case2_witness() if kind == 0 else rule4_case3_witness(swap_vw=kind == 2)
    kept = {3, 4, 7, 8} if kind == 0 else {3, 7, 8}
    first = max(g.adj) + 1
    new_blues = range(first, first + rng.randint(0, 4))
    new_reds = range(new_blues.stop, new_blues.stop + rng.randint(0, 4))
    for v in new_blues:
        g._add_with_id(v, g.blue)
    for r in new_reds:
        g._add_with_id(r, g.red)
    p = rng.uniform(0.1, 0.4)
    for b in sorted(g.blue - kept):
        for r in sorted(g.red - kept):
            if (b >= first or r >= first) and rng.random() < p:
                g.add_edge(b, r)
    return g


def test_each_firing_matches_brute_force():
    rng = random.Random(2026)
    fired = Counter()
    for _ in range(1000):
        walk(random_graph(rng), fired)
    for _ in range(2000):
        walk(grown_witness(rng), fired)
    assert set(fired) == set(RULE_TAGS), fired
    assert min(fired[tag] for tag in R4_CASE.values()) >= 200, fired
