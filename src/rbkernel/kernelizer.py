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

R1 and R2 read one relation two ways, N(v) within N(x) for two vertices of
one color: R1 removes the contained blue, R2 the containing red.  The
driver finds both with one scan, ``_containments``, which lists the
vertices of a vertex's color whose neighborhood contains its own.  R3's
probe ``_r3_at`` looks at one blue and returns a :class:`Match`: the trace
tag and the record's witness tuple; for R4 the driver asks ``_r4_case`` for
the case at one pair of blues and builds the match from it.
:func:`sanitize` returns every Sanitize match, in firing order.
:func:`apply_rule`, one chain of tests on the tag, is the one place where
each tag's condition and effect are written: it refuses a match whose rule
does not apply before it changes anything, and otherwise returns the record
and what it removed; the budget change is the record's ``delta_k``.  The
table ``_FORCED`` names the witness positions of the blues a match forces
into every solution (R3 and R4 cases 1, 3 and 4); it alone decides what
:func:`apply_rule` removes for such a match, the budget drop (one unit per
forced blue) and what :func:`lift_solution` adds back.  Every application
is logged as a :class:`RuleApplication`: its tag, witness, budget drop and,
for R4 case 2, the id of the red it added.  A record names no removed
vertex; :func:`replay_trace` applies each record's tag and witness to the
graph its predecessors left and checks that the same record comes back, and
so replays the log forward to the kernel graph.  Walked backward, the log
lifts kernel solutions to the original instance.
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

# The paper's kernel bound: a reduced planar yes-instance with budget k has
# at most SIZE_FACTOR * k vertices.
SIZE_FACTOR = 46

NO_ISOLATED_RED = "isolated-red"
NO_BUDGET = "budget"
NO_SIZE = "size"


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


# -- finding matches -----------------------------------------------------------
#
# A probe looks at one vertex or pair and returns its match or None; the
# containment scan lists the pairs R1 and R2 apply to; sanitize returns
# every match.  The driver fires in ascending id order, so runs are
# deterministic and traces replayable.  When two neighborhoods are equal the
# lower id is the one removed, simply because the ascending sweep reaches it
# first.


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


def _containments(g: RBGraph, vs) -> dict:
    """For each live v of ``vs`` that has a neighbor, the list of every
    x != v whose neighborhood contains N(v), if there is one.  Every edge
    must join two colors: such an x is next to every vertex of N(v), so the
    neighbors of any one of them, all of v's color, are the only candidates,
    and each takes one subset test."""
    adj = g.adj
    found = {}
    for v in vs:
        nv = adj.get(v)
        if nv:
            for u in nv:
                break
            for x in adj[u]:
                if x != v and nv <= adj[x]:
                    found.setdefault(v, []).append(x)
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
                raise GraphError("R3 applies to blue %d and red %d" % (a, r))
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
                raise GraphError("R3 applies to blue %d and red %d" % (a, r))
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


# -- applying rules --------------------------------------------------------------


def _force(g: RBGraph, tag: str, witness: tuple):
    """Remove the blues that ``_FORCED`` names, then their neighborhoods;
    the record pays one unit of budget for each forced blue."""
    forced = [witness[i] for i in _FORCED[tag]]
    nbrs = _nbrs(g.adj, forced)
    removed = [(x, BLUE, g.remove_vertex(x)) for x in forced]
    removed += [(x, g.color_of(x), g.remove_vertex(x)) for x in nbrs]
    return RuleApplication(tag, witness, -len(forced), None), removed


def apply_rule(g: RBGraph, match: Match) -> tuple[RuleApplication, list]:
    """Mutate ``g`` according to a match; returns the trace record, whose
    ``delta_k`` is the budget change, and the removed vertices as
    ``(vertex, color, former neighbors)`` triples.  A match whose rule does
    not apply at its witness, or whose witness does not have its tag's
    length, raises ``GraphError`` and leaves ``g`` unchanged.  R1 and R2
    apply only where the driver's scan finds them: the removed blue of R1
    and the witness red of R2 must have a neighbor, since an isolated blue
    is sanitize's and an isolated red answers NO."""
    tag, witness = match
    if WITNESS_LEN.get(tag) == len(witness):
        adj, blue, red = g.adj, g.blue, g.red
        if tag == R1:
            b, b2 = witness
            if b in blue and b2 in blue and b != b2 and adj[b] and adj[b] <= adj[b2]:
                return RuleApplication(tag, witness, 0, None), [(b, BLUE, g.remove_vertex(b))]
        elif tag == R2:
            r, r2 = witness
            if r in red and r2 in red and r != r2 and adj[r2] and adj[r2] <= adj[r]:
                return RuleApplication(tag, witness, 0, None), [(r, RED, g.remove_vertex(r))]
        elif tag == R3:
            if witness[0] in blue and _r3_at(g, witness[0]) is not None:
                return _force(g, tag, witness)
        elif tag == SAN_EDGE:
            u, v = witness
            if u in adj and v in adj[u] and (u in blue) == (v in blue):
                g.remove_edge(u, v)
                return RuleApplication(tag, witness, 0, None), []
        elif tag == SAN_BLUE:
            b = witness[0]
            if b in blue and not adj[b]:
                return RuleApplication(tag, witness, 0, None), [(b, BLUE, g.remove_vertex(b))]
        elif tag == SAN_NO:
            if witness[0] in red and not adj[witness[0]]:
                return RuleApplication(tag, witness, 0, None), []
        else:  # an R4 case, which must be the one the probe finds at the pair
            v, w = witness
            found = _r4_case(adj, v, w) if v < w and v in blue and w in blue else None
            if found is not None and R4_CASE[found[0]] == tag:
                if tag != R4_CASE[2]:
                    return _force(g, tag, witness)
                # Case 2 swaps the pair's private reds for one red on the pair.
                removed = [(x, RED, g.remove_vertex(x)) for x in found[1]]
                return RuleApplication(tag, witness, 0, g.add_red_vertex(witness)), removed
    raise GraphError("%s does not apply at %s" % (tag, witness))


# -- the driver --------------------------------------------------------------------
#
# The driver is kernelize, which holds the run's state in locals: the graph
# copy, k, the records and two pending sets, wl1, the blues R1 scans, and
# ``shrunk``, the reds R2 scans.  It fires sanitize's matches, then the
# loop's, through its nested fire, which calls the module-global apply_rule
# (perfbench's tracer wraps it there, and sanitize too), so apply_rule
# builds every record; fire appends it and adds its delta_k to k.
# apply_rule checks the witness length, then walks its chain of tests to the
# tag, checks that tag's condition and, only if it holds, applies the tag;
# replay_trace is a loop over apply_rule too.  A round sweeps isolated
# blues, R1 and R2 and starts over while any fired; then it sweeps R3 over
# the degree-one blues of the current graph, the only blues where R3
# applies, and asks _r4_case about every pair with two or more private reds,
# in ascending order, firing the first that has a case.  A round ends at R4,
# so a run has one round more than it has R4 firings, and R3 and R4 keep
# nothing between rounds.  What a firing removed and added decides what
# becomes pending, by the color of each removed vertex alone: a red's
# neighbors join wl1, and a blue's neighbors, like an added red, join
# ``shrunk``.
#
# The nested sweep serves isolated blues and R3: it probes each live vertex
# of a sorted list once.  The isolated-blue sweep's list holds the live
# degree-0 blues of wl1.  A blue loses its last red only when that red is
# removed, which puts the blue in wl1, no record gives a degree-0 blue a
# red, and only the R1 sweep, which follows the isolated-blue one, empties
# wl1; so the list holds every isolated blue of the graph.  The nested
# contain_sweep serves R1 and R2: it runs _containments over its pending set
# once, empties the set, and then fires in ascending order, R1 at each
# contained blue b with the least live blue containing N(b), R2 at each red
# x containing a scanned red with the least live scanned red within N(x).
# No firing makes a vertex pending for the rule being swept, which
# contain_sweep asserts: R1 removes only blues, whose reds join ``shrunk``,
# and R2 only reds, whose blues join wl1.  R3, with R1 and R2 exhausted,
# removes a whole component {v, r}, v first, so r has no neighbors left when
# it goes.  So R3 fires every component in one sweep; the naive driver would
# find nothing in R1 and R2 between two firings.  Only R3 and R4 spend
# budget, and k < 0 is checked after every firing, so a run stops at the
# record that drove k below zero.
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
# Sweeping in ascending id order makes the run identical to the naive
# rescans-from-scratch driver, which tests exploit, because each R1 or R2
# sweep, though it scans once when it starts, fires what a probe of each
# vertex at its turn would find.  The scan skips a vertex with no neighbor:
# an isolated blue is the isolated-blue sweep's, and an isolated red
# witnesses nothing.  Three facts carry the argument:
#
# 1. During an R1 sweep no blue's neighborhood changes, so a blue's
#    containers can only die, and its least live container is the witness
#    a probe at its turn finds.  At each R1 sweep every blue with a
#    container is in wl1: wl1 starts as every blue, and after an R1 sweep no
#    blue has a container.  A blue b gains one only when N(b) changes, which
#    needs a red of N(b) removed, putting b in wl1, or b ending an R4 case-2
#    pair, whose record also removes private reds next to b.  Other blues'
#    neighborhoods only shrink, or gain a case-2 red that is not in N(b).
# 2. After an R2 sweep no red has a witness, and no record grows a red's
#    neighborhood.  So a red x gains a witness r2 only when N(r2) shrinks or
#    r2 is created, and both note r2 in ``shrunk``: at the next R2 sweep
#    every witness of a container is a red noted in ``shrunk``, which the
#    scan pairs with every red containing it.  During the sweep, which
#    removes only reds, those witnesses can only die.  The red R4 case 2
#    adds, with N = {v, w}, has no witness when it is created: a live red
#    with N within {v, w} has no dominator but v and w, so it is private to
#    (v, w) and the same record removes it.
# 3. ``shrunk`` starts as every red, so the first R2 sweep, which follows
#    the first R1 sweep, scans every red.  A containment survives the
#    removal of a blue, so that scan finds every containment the graph had
#    when the loop started, as well as those the R1 sweep made.
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
    reduced graph is larger than ``SIZE_FACTOR`` = 46 times the remaining
    budget; otherwise the reduced instance is returned with its trace.  The
    size test is what makes the output a kernel; it presumes a planar input.
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
        rec, removed = apply_rule(g, match)
        records.append(rec)
        k += rec.delta_k
        for _, color, nbrs in removed:
            (wl1 if color == RED else shrunk).update(nbrs)
        if rec.added is not None:
            shrunk.add(rec.added)

    def sweep(todo: list, probe) -> bool:
        """Probe the live vertices of ``todo`` in ascending order and fire
        what ``probe`` finds, stopping once the budget is negative; True iff
        anything fired."""
        fired = False
        for x in sorted(todo):
            if x in adj:
                match = probe(g, x)
                if match is not None:
                    fire(match)
                    fired = True
                    if k < 0:
                        break
        return fired

    def contain_sweep(tag: str, pending: set) -> bool:
        """Scan and empty ``pending``, then fire ``tag`` in ascending order
        at each blue contained in another (R1) or red containing another
        (R2) that the scan found, with its least live partner as witness;
        True iff anything fired.  No firing refills ``pending`` (see the
        driver notes)."""
        found = _containments(g, pending)
        pending.clear()
        if tag == R2:  # key each containment by the containing red
            by_container = defaultdict(list)
            for r2, xs in found.items():
                for x in xs:
                    by_container[x].append(r2)
            found = by_container
        for x in sorted(found):
            live = [w for w in found[x] if w in adj]
            if live:
                fire(Match(tag, (x, min(live))))
        assert not pending, "a firing made %s pending for %s" % (sorted(pending), tag)
        return bool(found)  # the least key fires: its witnesses are all live

    found = sanitize(g)
    for match in found:
        fire(match)
    if found and found[-1].tag == SAN_NO:
        return KernelResult("no", reason=NO_ISOLATED_RED, trace=trace)

    wl1.update(g.blue)
    shrunk.update(g.red)
    while k >= 0:
        changed = sweep([b for b in wl1 if b in adj and not adj[b]], _iso_at)
        changed |= contain_sweep(R1, wl1)
        changed |= contain_sweep(R2, shrunk)
        if not changed:
            sweep(_r3_seed(g), _r3_at)
            if k < 0:
                break
            for v, w in sorted(_r4_pairs(g)):
                found = _r4_case(adj, v, w)
                if found is not None:
                    fire(Match(R4_CASE[found[0]], (v, w)))
                    break
            else:
                break  # no pair fires: the fixpoint
    if k < 0:
        return KernelResult("no", reason=NO_BUDGET, trace=trace)
    assert bool(g.red) == bool(g.blue), "the fixpoint left a red without a blue or the reverse"
    if g.n_vertices > SIZE_FACTOR * k:
        return KernelResult("no", reason=NO_SIZE, trace=trace)
    return KernelResult("reduced", Instance(g, k), trace)


# -- replay and lifting -----------------------------------------------------------


def replay_trace(original: RBGraph, trace: KernelTrace, kernel: RBGraph | None = None) -> RBGraph:
    """Re-run a trace forward on a copy of the original graph, checking it.

    Each record's tag and witness go to :func:`apply_rule` on the graph its
    predecessors left, which refuses them unless the rule applies there, and
    it must give back the same record, budget drop and case-2 red id
    included.  Given ``kernel``, the replay must also end at that graph.
    Any mismatch raises ``GraphError``; for a bad record the message
    starts ``record <i>, ``, i the one-based index of the first bad one.
    """
    g = original.copy()
    for i, rec in enumerate(trace.records, start=1):
        try:
            again, _ = apply_rule(g, Match(rec.tag, rec.witness))
        except GraphError as exc:
            raise GraphError("record %d, %s" % (i, exc)) from None
        if again != rec:
            raise GraphError("record %d, %s at %s k_delta=%d added=%s: replays with "
                             "k_delta=%d added=%s"
                             % (i, rec.tag, rec.witness, rec.delta_k, rec.added,
                                again.delta_k, again.added))
    if kernel is not None and g != kernel:
        raise GraphError("the trace ends at %r, not at the kernel %r" % (g, kernel))
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
