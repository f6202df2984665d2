"""The four reduction rules, the kernelization driver, and solution lifting.

The rules, in the order the driver exhausts them:

* R1: remove a blue vertex whose neighborhood another blue contains.
* R2: remove a red vertex whose neighborhood contains another red's.
* R3: a blue vertex with a nonempty private neighborhood is forced into
  every solution; remove it with its neighborhood and spend one unit of
  budget.  Once R1 and R2 are exhausted this degenerates to deleting a
  two-vertex component, which is how the scan is implemented.
* R4: for a pair of blues that is jointly forced (more than one shared
  private red, no third dominator), either both are forced (case 1), the
  pair's private reds collapse to a two-edge gadget (case 2), or one of
  the two is forced (cases 3 and 4).  With U(r) = N(N(r)), which holds r,
  a red r is private to the pair (a, w) iff U(r) - N(a) is within N(w).
  So every pair that r is private to has an endpoint in N(r), and the R4
  search starts from each red's own blues.

A finder returns a :class:`Match`: the trace tag and the record's witness
tuple; :func:`sanitize` returns every Sanitize match, in firing order.
:func:`apply_rule`, one chain of tests on the tag, is the one place where
each tag's condition and effect are written: it refuses a match whose rule
does not apply before it changes anything.  The table ``_FORCED`` names
the witness positions of the blues a match forces into every solution (R3
and R4 cases 1, 3 and 4); it alone decides what :func:`apply_rule` removes
for such a match, the budget drop (one unit per forced blue) and what
:func:`lift_solution` adds back.
Every application is logged as a :class:`RuleApplication`: its tag,
witness, budget drop and, for R4 case 2, the id of the red it added.  A
record names no removed vertex; :func:`replay_trace` applies each record's
tag and witness to the graph its predecessors left and checks that the
same record comes back, and so replays the log forward to the kernel graph.
Walked backward, the log lifts kernel solutions to the original instance.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import BLUE, RED, GraphError, Instance, RBGraph
from .planar import bipartite_euler_bound

R1 = "R1"
R2 = "R2"
R3 = "R3"
R4_CASE = {1: "R4-case1", 2: "R4-case2", 3: "R4-case3", 4: "R4-case4"}
SAN_EDGE = "Sanitize-edge"
SAN_BLUE = "Sanitize-isolated-blue"
SAN_NO = "Sanitize-NO"

# Length of each tag's witness tuple, in the order tags are reported.
WITNESS_LEN = {R1: 2, R2: 2, R3: 1, **{tag: 2 for tag in R4_CASE.values()},
               SAN_NO: 1, SAN_EDGE: 2, SAN_BLUE: 1}
RULE_TAGS = tuple(WITNESS_LEN)

# Witness positions of the blues a rule forces into every solution.
_FORCED = {R3: (0,), R4_CASE[1]: (0, 1), R4_CASE[3]: (0,), R4_CASE[4]: (1,)}

NO_ISOLATED_RED = "isolated-red"
NO_BUDGET = "budget"
NO_SIZE = "size"


class ContractViolation(GraphError):
    """A finder was invoked on a graph that an earlier rule still reduces."""


class RuleNotApplicableError(GraphError):
    """A match whose rule does not apply at its witness in the graph it is
    applied to, dead or wrongly colored vertices and a witness of the wrong
    length for its tag included."""


class TraceMismatchError(GraphError):
    """A trace record does not replay on the graph its predecessors left,
    or the replay does not end at the kernel it should."""


# -- findings ----------------------------------------------------------------


class Match(NamedTuple):
    """A rule that applies: its trace tag and the record's witness tuple,
    ``(remove, witness)`` for R1 and R2, ``(v,)`` for R3 and ``(v, w)`` for
    R4; ``(u, v)`` for Sanitize-edge, ``(v,)`` for the other Sanitize tags.
    A named tuple, because the driver builds one per firing."""

    tag: str
    witness: tuple


# -- trace records -------------------------------------------------------------


class RuleApplication(NamedTuple):
    """One rule firing: what a replay needs to re-derive it from the graph
    it applies to, and a lift to undo it.  ``added`` is the id of the red an
    R4 case 2 adds, None for every other tag.  A named tuple, because the
    driver builds one per firing."""

    tag: str
    witness: tuple
    delta_k: int
    added: int | None


@dataclass(frozen=True)
class Fingerprint:
    n_vertices: int
    n_edges: int
    digest: str


@dataclass
class KernelTrace:
    records: list = field(default_factory=list)
    fingerprint: Fingerprint | None = None


@dataclass
class KernelResult:
    """Outcome of the driver: a verdict with either a reduced instance and
    its trace, or the reason the input is a no-instance."""

    status: str  # "reduced" | "no"
    instance: Instance | None = None
    trace: KernelTrace | None = None
    reason: str | None = None

    @property
    def is_no(self) -> bool:
        return self.status == "no"


def fingerprint_instance(inst: Instance) -> Fingerprint:
    """The vertex and edge counts of ``inst`` and a digest of (k, B, R, E).

    The digest is the first 16 hex digits of the sha256 of the ASCII text
    ``k=<k> B=<blues> R=<reds> E=<keys>``, each list in ascending order and
    written as Python writes a list of ints, ``[1, 2]``.  With m one more
    than the largest vertex id, an edge u < v has the key u * m + v, so the
    keys name the edges, same-color ones included, and m follows from B and
    R.  Neither insertion order nor the graph's next free id changes it.
    """
    g = inst.graph
    adj = g.adj
    m = max(adj, default=0) + 1
    keys = [u * m + v for u, nu in adj.items() for v in nu if u < v]
    keys.sort()
    text = "k=%d B=%s R=%s E=%s" % (inst.k, sorted(g.blue), sorted(g.red), keys)
    return Fingerprint(g.n_vertices, len(keys), hashlib.sha256(text.encode()).hexdigest()[:16])


# -- finders -------------------------------------------------------------------
#
# All finders scan in ascending vertex id order and return the first match,
# sanitize every match, so runs are deterministic and traces replayable.
# When two neighborhoods are equal the lower id is the one removed, simply
# because the ascending scan reaches it first.


def sanitize(g: RBGraph) -> list[Match]:
    """What normalizing ``g`` takes, without changing it: Sanitize-edge for
    every edge (u, v), u < v, joining two vertices of one color, in
    ascending order; then Sanitize-isolated-blue for every blue with no red
    neighbor, which can never dominate anything, in ascending order; then
    Sanitize-NO for the least red with no blue neighbor, if there is one.
    Applied in this order, the matches leave a graph with cross-color edges
    only and no isolated blue."""
    adj, blue, red = g.adj, g.blue, g.red
    edges = []
    for side in (blue, red):
        for u in side:
            if not adj[u].isdisjoint(side):
                edges += [(u, v) for v in adj[u] & side if v > u]
    edges.sort()
    found = [Match(SAN_EDGE, e) for e in edges]
    found += [Match(SAN_BLUE, (b,)) for b in sorted(b for b in blue if adj[b].isdisjoint(red))]
    r = min((r for r in red if adj[r].isdisjoint(blue)), default=None)
    if r is not None:
        found.append(Match(SAN_NO, (r,)))
    return found


def _r1_at(g: RBGraph, b: int) -> Match | None:
    adj = g.adj
    nb = adj[b]
    if not nb:
        return None  # isolated blues belong to sanitize, not R1
    # The blues containing N(b) are exactly those next to every red of N(b).
    cands = set.intersection(*map(adj.__getitem__, nb))
    cands.discard(b)
    return Match(R1, (b, min(cands))) if cands else None


def _r1_seed(g: RBGraph) -> list:
    """The blues where R1 applies.  Every blue must have a red neighbor; a
    blue whose neighborhood contains N(b) is next to each red of N(b), so
    the blues of any one red are the only candidates."""
    adj = g.adj
    seed = []
    for b in g.blue:
        nb = adj[b]
        for r in nb:
            break
        for b2 in adj[r]:
            if b2 != b and nb <= adj[b2]:
                seed.append(b)
                break
    return seed


def _r2_at(g: RBGraph, r: int) -> Match | None:
    adj = g.adj
    nr = adj[r]
    if not nr:
        return None
    cands = set().union(*map(adj.__getitem__, nr))
    cands.discard(r)
    for x in sorted(cands):  # the least contained red is the witness
        if adj[x] <= nr:
            return Match(R2, (r, x))
    return None


def _containers(g: RBGraph, reds) -> set:
    """The union over the live reds r2 of ``reds`` of C(r2) - {r2}, C(r2)
    the reds whose neighborhood contains N(r2): the reds where r2 witnesses
    R2.  Every red must have a blue neighbor; a red whose neighborhood
    contains N(r2) is next to each blue of N(r2), so the reds of any one
    blue are the only candidates."""
    adj = g.adj
    found = set()
    for r2 in reds:
        if r2 in adj:
            nr = adj[r2]
            for b in nr:
                break
            for x in adj[b]:
                if nr <= adj[x] and x != r2:
                    found.add(x)
    return found


def _r3_at(g: RBGraph, v: int) -> Match | None:
    adj = g.adj
    nv = adj[v]
    if len(nv) != 1:
        return None
    r = next(iter(nv))
    if r in g.red and len(adj[r]) == 1:
        return Match(R3, (v,))
    return None


def _r3_seed(g: RBGraph) -> list:
    """The degree-one blues, which hold every blue where R3 applies."""
    adj = g.adj
    return [b for b in g.blue if len(adj[b]) == 1]


def _first(g: RBGraph, candidates, probe) -> Match | None:
    """The match ``probe`` finds at the least candidate where it finds one."""
    for x in sorted(candidates):
        m = probe(g, x)
        if m is not None:
            return m
    return None


def find_rule1(g: RBGraph) -> Match | None:
    """First blue whose neighborhood is contained in another blue's."""
    return _first(g, g.blue, _r1_at)


def find_rule2(g: RBGraph) -> Match | None:
    """First red whose neighborhood contains another red's."""
    return _first(g, g.red, _r2_at)


def find_rule3(g: RBGraph) -> Match | None:
    """First blue with a nonempty private neighborhood.

    With R1 and R2 exhausted this is exactly a two-vertex component: a
    degree-one blue whose red neighbor has degree one, which is what the
    scan looks for.  Tests assert that it agrees with the definitional
    private-neighborhood predicate.
    """
    assert find_rule1(g) is None and find_rule2(g) is None, \
        "find_rule3 requires a graph already reduced under R1 and R2"
    return _first(g, g.blue, _r3_at)


def _nbrs(adj: dict, vertices) -> set:
    return set().union(*(adj[v] for v in vertices))


def _r4_pairs(g: RBGraph) -> set:
    """Pairs (v < w) with two or more private reds."""
    count = _count_per_red if bipartite_euler_bound(g) else _count_per_blue
    return {p for p, c in count(g).items() if c > 1}


def _count_per_red(g: RBGraph) -> dict:
    """For each pair, how many reds are private to it."""
    adj = g.adj
    top = max(map(len, map(adj.__getitem__, g.blue)), default=0)
    counts = defaultdict(int)
    for r in g.red:
        nr = adj[r]
        ur = set().union(*map(adj.__getitem__, nr))
        size = len(ur)
        if size > 2 * top:
            continue  # too large to lie within N(a) | N(w) for any pair
        for a in nr:
            na = adj[a]
            if size - len(na) > top:
                continue  # X = U(r) - N(a) is too large to lie within any N(w)
            if size == len(na):
                raise ContractViolation("R3 applies to blue %d and red %d" % (a, r))
            x = ur - na
            for probe in x:
                break
            for w in adj[probe]:
                if x <= adj[w] and (a < w or w not in nr):  # a red next to both counts once
                    counts[(a, w) if a < w else (w, a)] += 1
    return counts


def _count_per_blue(g: RBGraph) -> dict:
    """The counts of :func:`_count_per_red`, blue by blue: for a blue a, the
    partners of a red r of N(a) are the blues in every
    W(b, a) = {w : N(b) - N(a) within N(w)}, b in N(r) - {a}, and each
    W(b, a) serves every red of N(a) next to b."""
    adj = g.adj
    counts = defaultdict(int)
    for a in g.blue:
        na = adj[a]
        ws = {}  # W(b, a), except where N(b) - N(a) is empty and W holds every blue
        for b in _nbrs(adj, na):
            x = adj[b] - na
            if x:
                for probe in x:
                    break
                ws[b] = {w for w in adj[probe] if x <= adj[w]}
        for r in na:
            sets = [ws[b] for b in adj[r] if b in ws]
            if not sets:
                raise ContractViolation("R3 applies to blue %d and red %d" % (a, r))
            for w in set.intersection(*sets):
                if a < w or r not in adj[w]:  # a red next to both counts once
                    counts[(a, w) if a < w else (w, a)] += 1
    return counts


def _pair_private(adj: dict, v: int, w: int) -> set:
    """The reds of N(v) | N(w) all of whose dominators stay inside it."""
    nvw = adj[v] | adj[w]
    return {r for r in nvw if all(adj[x] <= nvw for x in adj[r])}


def _r4_case(adj: dict, v: int, w: int) -> tuple[int, set] | None:
    """The case of R4 on the pair (v, w) and the pair's private reds, or
    None if R4 does not fire there."""
    private = _pair_private(adj, v, w)
    if len(private) <= 1:
        return None
    it = iter(private)
    dominators = set(adj[next(it)])
    for r in it:
        dominators &= adj[r]
        if not dominators:
            break
    if dominators - {v, w}:
        return None  # a third blue covers the whole private set
    in_v, in_w = private <= adj[v], private <= adj[w]
    return (2 if in_v and in_w else 3 if in_v else 4 if in_w else 1), private


def _r4_at(g: RBGraph, pair) -> Match | None:
    """The match if R4 fires on the pair (v, w), else None."""
    found = _r4_case(g.adj, *pair)
    return None if found is None else Match(R4_CASE[found[0]], pair)


def find_rule4(g: RBGraph) -> Match | None:
    """First blue pair (v < w) with a jointly forced private set."""
    assert (_first(g, g.blue, _r1_at) is None and _first(g, g.red, _r2_at) is None
            and _first(g, g.blue, _r3_at) is None), \
        "find_rule4 requires R1, R2 and R3 to be exhausted"
    return _first(g, _r4_pairs(g), _r4_at)


# -- applying rules --------------------------------------------------------------


def _force(g: RBGraph, k: int, tag: str, witness: tuple):
    """Remove the blues that ``_FORCED`` names, then their neighborhoods,
    and pay one unit of budget for each forced blue."""
    forced = [witness[i] for i in _FORCED[tag]]
    nbrs = _nbrs(g.adj, forced)
    removed = [(x, BLUE, g.remove_vertex(x)) for x in forced]
    removed += [(x, g.color_of(x), g.remove_vertex(x)) for x in nbrs]
    return k - len(forced), RuleApplication(tag, witness, -len(forced), None), removed


def apply_rule(g: RBGraph, k: int, match: Match) -> tuple[int, RuleApplication, list]:
    """Mutate ``g`` according to a match; returns the new budget, the trace
    record and the removed vertices as ``(vertex, color, former neighbors)``
    triples.  A match whose rule does not apply at its witness, or whose
    witness does not have its tag's length, raises
    :class:`RuleNotApplicableError` and leaves ``g`` unchanged."""
    tag, witness = match
    if WITNESS_LEN.get(tag) == len(witness):
        adj, blue, red = g.adj, g.blue, g.red
        if tag == R1:
            b, b2 = witness
            if b in blue and b2 in blue and b != b2 and adj[b] <= adj[b2]:
                return k, RuleApplication(tag, witness, 0, None), [(b, BLUE, g.remove_vertex(b))]
        elif tag == R2:
            r, r2 = witness
            if r in red and r2 in red and r != r2 and adj[r2] <= adj[r]:
                return k, RuleApplication(tag, witness, 0, None), [(r, RED, g.remove_vertex(r))]
        elif tag == R3:
            if witness[0] in blue and _r3_at(g, witness[0]) is not None:
                return _force(g, k, tag, witness)
        elif tag == SAN_EDGE:
            u, v = witness
            if u in adj and v in adj[u] and (u in blue) == (v in blue):
                g.remove_edge(u, v)
                return k, RuleApplication(tag, witness, 0, None), []
        elif tag == SAN_BLUE:
            b = witness[0]
            if b in blue and not adj[b]:
                return k, RuleApplication(tag, witness, 0, None), [(b, BLUE, g.remove_vertex(b))]
        elif tag == SAN_NO:
            if witness[0] in red and not adj[witness[0]]:
                return k, RuleApplication(tag, witness, 0, None), []
        else:  # an R4 case, which must be the one the probe finds at the pair
            v, w = witness
            found = _r4_case(adj, v, w) if v < w and v in blue and w in blue else None
            if found is not None and R4_CASE[found[0]] == tag:
                if tag != R4_CASE[2]:
                    return _force(g, k, tag, witness)
                # Case 2 swaps the pair's private reds for one red on the pair.
                removed = [(x, RED, g.remove_vertex(x)) for x in found[1]]
                return k, RuleApplication(tag, witness, 0, g.add_red_vertex(witness)), removed
    raise RuleNotApplicableError("%s does not apply at %s" % (tag, witness))


# -- the driver --------------------------------------------------------------------
#
# The driver is kernelize, which holds the run's state in locals: the graph
# copy, k, the records, R1's pending set wl1, the reds noted in ``shrunk`` and
# R2's pending set wl2.  It fires sanitize's matches, then the loop's, through
# its nested fire, which calls the module-global apply_rule (perfbench's
# tracer wraps it there), so apply_rule builds every record it writes.
# apply_rule checks the witness length, then walks its chain of tests to the
# tag, checks that tag's condition and, only if it holds, applies the tag;
# replay_trace is a loop over apply_rule too.  The loop keeps a pending set
# of the vertices where a rule may newly apply for R1 and R2, which it sweeps
# to a fixpoint many times per round.  One sweep, the nested sweep, serves
# them, isolated blues and R3: it empties the set and probes each live vertex
# of a sorted snapshot of it once.  A round sweeps isolated blues, R1 and R2
# and starts over while any fired; then it sweeps R3 over the degree-one
# blues of the current graph, the only blues where R3 applies, and tries R4
# once on every pair, as find_rule4 does.  A round ends at R4, so a run has
# one round more than it has R4 firings, and R3 and R4 keep nothing between
# rounds.  What a firing removed and added decides what becomes pending, by
# the color of each removed vertex alone: a red's neighbors join R1's set,
# and a blue's neighbors, like an added red, are noted in ``shrunk`` for R2.
# C(r) is the set of reds whose neighborhood contains N(r), and C(r) - {r}
# those for which r may now witness R2; _containers gives their union over
# a set of reds.  The isolated-blue sweep probes a snapshot of the live
# degree-0 blues of R1's set.  A blue loses its last red only when that red
# is removed, which puts the blue in R1's set, no record gives a degree-0
# blue a red, and only the R1 sweep, which follows the isolated-blue one,
# empties the set; so the snapshot holds every isolated blue of the graph.
#
# No firing makes a vertex pending for the rule being swept, so the snapshot
# visits what a min-heap popped to empty would, in the same order, and
# sweep asserts that its set is still empty afterwards: removing an
# isolated blue touches nothing else, R1 removes only blues and R2 only
# reds.  R3, with R1 and R2 exhausted, removes a whole component {v, r}, v
# first, so r has no neighbors left when it goes and makes nothing pending.
# So R3 fires every component in one sweep; the naive driver would find nothing
# in R1 and R2 between two firings.  Only R3 and R4 spend budget, and k < 0
# is checked after every firing, so a run stops at the record that drove k
# below zero.  Sweeping in ascending id order thus makes the run identical
# to the naive rescans-from-scratch driver, which tests exploit.
#
# At the fixpoint the size test alone decides, because there are no reds
# exactly when there are no blues.  Sanitize answers NO for every red
# without a blue before the loop starts, and no record leaves a red without
# a blue: R1 keeps the blue that contains the removed one's neighborhood, R2
# removes only reds, R3 and the forcing R4 cases remove each forced blue
# together with its reds, R4 case 2 puts its new red on the pair, and
# Sanitize-isolated-blue removes only blues that have no red.  A blue whose
# reds are all gone is removed by the isolated-blue sweep before the loop
# can end: the last round fires no isolated blue, R1, R2 or R4, and its R3
# sweep removes whole components, so it leaves no blue without a red.
#
# The R1 and R2 sets start with a seed, not with every vertex of its color,
# taken once sanitize's matches have fired, which make nothing pending and
# leave every vertex a neighbor: the blues where R1 applies, and for R2
# _containers over every red, the union over reds r2 of C(r2) - {r2}, which
# is the set of reds where R2 applies.  Both probe one neighbor's neighbors:
# a vertex whose neighborhood contains N(x) is next to every vertex of N(x),
# so the other neighbors of any one vertex of N(x) are the only candidates,
# and each takes one subset test.  Removing a red changes no red's
# neighborhood, removing a blue no blue's, and a vertex left out of its seed
# and not made pending since finds nothing when swept:
#
# * R1 at a blue b needs another blue whose neighborhood contains N(b).
#   N(b) changes only when a red of it is removed, which makes b pending, or
#   when b ends an R4 case-2 pair, whose record also removes private reds
#   next to b.  Other blues' neighborhoods only shrink, or gain a case-2 red
#   that is not in N(b), so b gains no witness.
# * R2 at a red x gains a witness r2 only when N(r2) comes to lie within
#   N(x): r2 loses a blue or is created, since no red gains one.  Both note
#   r2 in ``shrunk``, and _containers over the noted reds, taken when the
#   R2 sweep starts, then holds x, which is not r2.  No firing between a
#   note and that call removes a red, and the R2 sweep notes none.  A noted red itself need not be pending.  A red that lost a blue
#   gains no witness by it: its own containments only narrow, and one it
#   gains comes from a witness that shrank or was created, whose C - {itself}
#   holds it.  The red R4 case 2 adds, with N = {v, w}, has no witness when
#   it is created: a live red with N within {v, w} has no dominator but v
#   and w, so it is private to (v, w) and the same record removes it.
#
# So a set of every vertex holds the seeded set's vertices plus some that
# find nothing when probed.  Both are swept in ascending order, every note
# reaches both, and a probe that finds nothing changes nothing, so the
# firings and their order are those of the all-vertex sets.
#
# R4's search counts the private reds of every pair.  A red r private to
# (a, w) lies in U(r), within N(a) | N(w), so one endpoint, say a, is in
# N(r), and the partners w for that a are the blues next to any one red of
# X = U(r) - N(a) that neighbor all of X.  A red next to both endpoints
# finds its pair from both, and only the lower endpoint counts it.  This
# relies on R1-R3 being exhausted: X is never empty, since if N(a) held
# U(r), every other blue of N(r) would be an R1 match, then every other red
# of N(a) an R2 match, and {a, r} an R3 component.
#
# The search skips a red whose U(r) has more than 2 * D vertices, D the
# largest blue degree in the graph: a red private to (a, w) has U(r) within
# N(a) | N(w), so |U(r)| <= deg(a) + deg(w) <= 2 * D, and a skipped red adds
# to no pair's count.  For the same reason it skips an endpoint a whose X
# has more than D vertices, since X must lie within N(w): N(a) is within
# U(r), so |X| = |U(r)| - |N(a)| is known before X is built, and X is empty
# exactly when the two sizes are equal.  Neither skip hides a contract
# violation, since an empty X means |U(r)| = |N(a)| <= D.  On grids, where
# every blue degree is at most four, most reds are skipped; next to a hub
# blue the bounds skip little.
#
# That is the loop for a graph that meets the bipartite Euler bound
# m <= 2n - 4, as every planar one does.  A graph past the bound counts the
# same (a, r) pairs, a in N(r), blue by blue.  X = U(r) - N(a) is the union
# of N(b) - N(a) over b in N(r) - {a}, so the partners of a through r are
# the blues in every W(b, a) = {w : N(b) - N(a) within N(w)} whose
# N(b) - N(a) is nonempty (an empty one constrains nothing, and if all are
# empty X is, and the loop raises as the per-red one does).  W(b, a) is
# built once per a and serves every red of N(a) next to b.  A red next to
# both endpoints is found from both, and only the lower endpoint counts it.
# The loop skips no red on the 2 * D cap, which would cost U(r) per red.
# Measured per pass over the seed-7 corpora, every search of the pass
# (best of five, 2-vCPU Xeon, CPython 3.11.7): on size-verdict's four dense
# operations (14 or 16 blues, reds of degree 8 or 11) the search takes
# 0.044-0.048 s per red and 0.014-0.015 s per blue, while on graphs that
# meet the bound the per-blue loop is the slower one, 0.25 s against 0.030 s
# on the size-verdict grids and 0.32 s against 0.037 s on tight-planar.


def _iso_at(g: RBGraph, b: int) -> Match | None:
    return None if g.adj[b] else Match(SAN_BLUE, (b,))


def kernelize(inst: Instance) -> KernelResult:
    """Shrink ``inst`` to an equivalent reduced instance or report NO.

    Sanitizes, exhausts R1 then R2, restarts on any change, then fires R3
    at every two-vertex component and tries R4, restarting after an R4
    application.  The budget is checked after every firing.  A red that no
    blue can dominate is found by sanitize, before the loop, and answered
    NO there.  At the fixpoint every red has a blue neighbor and every blue
    a red one, so the result is NO when the budget went negative or the
    reduced graph is larger than 46 times the remaining budget; otherwise
    the reduced instance is returned with its trace.  The size test is what
    makes the output a kernel; it presumes a planar input.
    """
    if inst.k < 0:
        raise ValueError("budget must be non-negative, got %d" % inst.k)
    g = inst.graph.copy()
    adj = g.adj
    k = inst.k
    records: list[RuleApplication] = []
    trace = KernelTrace(records, fingerprint_instance(inst))
    wl1: set[int] = set()
    shrunk: set[int] = set()

    def fire(match) -> None:
        """Fire ``match``; make pending what it removed and added (see the
        driver notes)."""
        nonlocal k
        k, rec, removed = apply_rule(g, k, match)
        records.append(rec)
        for _, color, nbrs in removed:
            (wl1 if color == RED else shrunk).update(nbrs)
        if rec.added is not None:
            shrunk.add(rec.added)

    def sweep(pending: set | list, probe) -> bool:
        """Empty ``pending``, probe its live vertices in ascending order and
        fire what ``probe`` finds, stopping once the budget is negative; True
        iff anything fired.  No firing refills ``pending`` (see the driver
        notes)."""
        todo = sorted(pending)
        pending.clear()
        fired = False
        for x in todo:
            if x in adj:
                match = probe(g, x)
                if match is not None:
                    fire(match)
                    fired = True
                    if k < 0:
                        break
        assert not pending, "a firing made %s pending for the rule being swept" % sorted(pending)
        return fired

    found = sanitize(g)
    for match in found:
        fire(match)
    if found and found[-1].tag == SAN_NO:
        return KernelResult("no", reason=NO_ISOLATED_RED, trace=trace)

    wl1.update(_r1_seed(g))
    wl2 = _containers(g, g.red)
    while k >= 0:
        changed = sweep([b for b in wl1 if b in adj and not adj[b]], _iso_at)
        changed |= sweep(wl1, _r1_at)
        wl2 |= _containers(g, shrunk)
        shrunk.clear()
        changed |= sweep(wl2, _r2_at)
        if not changed:
            sweep(_r3_seed(g), _r3_at)
            if k < 0:
                break
            match = _first(g, _r4_pairs(g), _r4_at)
            if match is None:
                break
            fire(match)
    if k < 0:
        return KernelResult("no", reason=NO_BUDGET, trace=trace)
    assert bool(g.red) == bool(g.blue), "the fixpoint left a red without a blue or the reverse"
    if g.n_vertices > 46 * k:
        return KernelResult("no", reason=NO_SIZE, trace=trace)
    return KernelResult("reduced", Instance(g, k), trace)


# -- replay and lifting -----------------------------------------------------------


def replay_trace(original: RBGraph, trace: KernelTrace, kernel: RBGraph | None = None) -> RBGraph:
    """Re-run a trace forward on a copy of the original graph, checking it.

    Each record's tag and witness go to :func:`apply_rule` on the graph its
    predecessors left, which refuses them unless the rule applies there, and
    it must give back the same record, budget drop and case-2 red id
    included.  Given ``kernel``, the replay must also end at that graph.
    Any mismatch raises :class:`TraceMismatchError` naming the first bad
    record.
    """
    g = original.copy()
    for i, rec in enumerate(trace.records, start=1):
        try:
            _, again, _ = apply_rule(g, 0, Match(rec.tag, rec.witness))
        except GraphError as exc:
            raise TraceMismatchError("record %d, %s" % (i, exc)) from None
        if again != rec:
            raise TraceMismatchError("record %d, %s at %s k_delta=%d added=%s: replays with "
                                     "k_delta=%d added=%s"
                                     % (i, rec.tag, rec.witness, rec.delta_k, rec.added,
                                        again.delta_k, again.added))
    if kernel is not None and g != kernel:
        raise TraceMismatchError("the trace ends at %r, not at the kernel %r" % (g, kernel))
    return g


def lift_solution(trace: KernelTrace, kernel_solution):
    """Turn a solution of the kernel into one of the original instance.

    Walks the trace backward adding the blues each record forced (the
    ``_FORCED`` positions of its witness).  Every other record lifts
    identically; in particular after an R4 case 2 the kernel solution
    already contains one of the two pair vertices, which dominates
    everything that record removed.
    """
    lifted = set(kernel_solution)
    for rec in reversed(trace.records):
        for i in _FORCED.get(rec.tag, ()):
            lifted.add(rec.witness[i])
    return lifted
