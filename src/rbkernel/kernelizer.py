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
driver finds R1 with ``_least_container``, the least blue whose
neighborhood contains a blue's own, and R2 with ``_by_container``, which
lists for each red the scanned reds within its neighborhood.  Once R1 is
exhausted R3 applies at every degree-one blue, which ``_r3_seed`` lists;
for R4 the driver asks ``_r4_case`` for the case and the private reds at
one pair of blues.  :func:`sanitize` returns every Sanitize match, a
(trace tag, witness tuple) pair, in firing order.
Each tag has one function that holds its condition, its effect and its
record (``_r1``, ``_r2``, ``_r3``, ``_r4``, whose condition is
``_r4_case``, and one per Sanitize tag): every firing runs it, and it
checks its rule on the graph as it is before it changes anything, refuses
with a ``GraphError`` if the rule does not apply, and otherwise applies it
and returns the record alone; the budget change is the record's
``delta_k``.  What a firing will change the driver reads off the graph
before it fires: N(b) for R1 at b, N(x) for R2 at x, and the blues within
distance two of the pair for R4.
The driver's sweeps call these functions directly; :func:`apply_rule`
picks one by a match's tag, for sanitize's matches and the replay.  R3
removes its two-vertex component itself.  The table ``_FORCED`` names the
witness positions of the blues a match forces into every solution (R3 and
R4 cases 1, 3 and 4); it sets what R4's forcing cases remove and their
budget drop (one unit per forced blue), and what :func:`lift_solution` adds
back for every forcing record.  Every application is logged as a
:class:`RuleApplication`: its tag, witness, budget drop and, for R4 case 2,
the id of the red it added.  A record names no removed vertex;
:func:`replay_trace` applies each record's tag and witness to the graph its
predecessors left and checks that the same record comes back, and so
replays the log forward to the kernel graph.  Walked backward, the log
lifts kernel solutions to the original instance.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import GraphError, Instance, RBGraph
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


# -- trace records -------------------------------------------------------------


class RuleApplication(NamedTuple):
    """One rule firing: what a replay needs to re-derive it from the graph
    it applies to, and a lift to undo it.  ``added`` is the id of the red an
    R4 case 2 adds, None for every other tag.  A named tuple, built with
    ``_make`` from a tuple of the four fields wherever one is built per
    record (the rule functions and the trace reader): calling the class
    goes through its generated Python ``__new__``, which costs more per
    record (CHANGES.md, the entry on ``_make`` records)."""

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
# The containment scans find the pairs R1 and R2 apply to, _r3_seed the
# blues R3 applies to once R1 is exhausted, and _r4_pairs the pairs R4 may
# apply to; sanitize returns every match.  _r3_at looks at one blue, for
# R3's check, and _r4_case at one pair, for the driver and apply_rule.  The
# driver fires in ascending id order, so runs are
# deterministic and traces replayable.  When two neighborhoods are equal the
# lower id is the one removed, simply because the ascending sweep reaches it
# first.


def sanitize(g: RBGraph) -> list[tuple]:
    """What normalizing ``g`` takes, without changing it, as (tag, witness)
    pairs: Sanitize-edge for every edge (u, v), u < v, joining two vertices
    of one color, in ascending order; then Sanitize-isolated-blue for every
    blue with no red neighbor, which can never dominate anything, in
    ascending order; then Sanitize-NO for the least red with no blue
    neighbor, if there is one.  Applied in this order, the matches leave a
    graph with cross-color edges only and no isolated blue."""
    adj, blue, red = g.adj, g.blue, g.red
    edges = []
    for side in (blue, red):
        for u in side:
            if not adj[u].isdisjoint(side):
                edges += [(u, v) for v in adj[u] & side if v > u]
    edges.sort()
    found = [(SAN_EDGE, e) for e in edges]
    found += [(SAN_BLUE, (b,)) for b in sorted(b for b in blue if adj[b].isdisjoint(red))]
    r = min((r for r in red if adj[r].isdisjoint(blue)), default=None)
    if r is not None:
        found.append((SAN_NO, (r,)))
    return found


def _least_container(adj: dict, v: int) -> int | None:
    """The least x != v whose neighborhood contains N(v), or None if there
    is none or v is dead or isolated.  Every edge must join two colors: such
    an x is next to every vertex of N(v), so the neighbors of any one of
    them, all of v's color, are the only candidates, and each one below the
    least found so far takes one subset test."""
    nv = adj.get(v)
    if not nv:
        return None
    for u in nv:
        break
    least = None
    for x in adj[u]:
        if (least is None or x < least) and x != v and nv <= adj[x]:
            least = x
    return least


def _by_container(g: RBGraph, vs) -> dict:
    """For each x whose neighborhood contains N(v) for some live v != x of
    ``vs`` that has a neighbor, the list of those v, found as
    :func:`_least_container` finds candidates but keeping every one."""
    adj = g.adj
    found = defaultdict(list)
    for v in vs:
        nv = adj.get(v)
        if nv:
            for u in nv:
                break
            for x in adj[u]:
                if x != v and nv <= adj[x]:
                    found[x].append(v)
    return found


def _r3_at(g: RBGraph, v: int) -> int | None:
    """The red of ``v``'s two-vertex component if v is a blue alone with its
    one red there, else None: R3's one condition."""
    if v not in g.blue:
        return None
    adj = g.adj
    nv = adj[v]
    if len(nv) != 1:
        return None
    for r in nv:
        break
    if r in g.red and len(adj[r]) == 1:
        return r
    return None


def _r3_seed(g: RBGraph) -> list:
    """The degree-one blues, which hold every blue where R3 applies."""
    adj = g.adj
    return [b for b in g.blue if len(adj[b]) == 1]


def _nbrs(adj: dict, vertices) -> set:
    return set().union(*(adj[v] for v in vertices))


def _r4_pairs(g: RBGraph) -> set:
    """Pairs (v < w) with two or more private reds."""
    if bipartite_euler_bound(g):
        return _count_per_red(g)
    return {p for p, c in _count_per_blue(g).items() if c > 1}


def _count_per_red(g: RBGraph) -> set:
    """The pairs (v < w) that two or more reds are private to, each found
    under its int key (driver notes)."""
    adj = g.adj
    top = max(map(len, map(adj.__getitem__, g.blue)), default=0)
    cap = 2 * top
    m = max(g.blue, default=0) + 1
    once: set[int] = set()
    twice: set[int] = set()
    for r in g.red:
        nr = adj[r]
        ur = set()
        for a in nr:
            ur |= adj[a]
            if len(ur) > cap:
                break  # U(r) is too large to lie within N(a) | N(w) for any pair
        else:
            size = len(ur)
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
                        key = a * m + w if a < w else w * m + a
                        if key in once:
                            twice.add(key)
                        else:
                            once.add(key)
    return {divmod(key, m) for key in twice}


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
            common = None
            for b in adj[r]:
                wb = ws.get(b)
                if wb is not None:
                    common = wb if common is None else common & wb
                    if not common:
                        break  # r is private to no pair with a
            if common is None:
                raise GraphError("R3 applies to blue %d and red %d" % (a, r))
            for w in common:
                if a < w or r not in adj[w]:  # a red next to both counts once
                    counts[(a, w) if a < w else (w, a)] += 1
    return counts


def _pair_private(adj: dict, v: int, w: int) -> set:
    """The reds of N(v) | N(w) all of whose dominators stay inside it."""
    nvw = adj[v] | adj[w]
    return {r for r in nvw if all(adj[x] <= nvw for x in adj[r])}


def _r4_case(g: RBGraph, v: int, w: int) -> tuple[int, set] | None:
    """The case of R4 on the pair of blues v < w and the pair's private
    reds, or None if R4 does not fire there."""
    if not (v < w and v in g.blue and w in g.blue):
        return None
    adj = g.adj
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
#
# One function per tag, each taking the graph and the record's witness: it
# checks its rule on the graph as it is, raises the refusal and leaves the
# graph unchanged if the rule does not apply, and otherwise applies it and
# returns the record alone.  The driver reads N(b), N(x) or the pair's
# 2-ball, whatever the firing will change, off the graph before it fires
# (driver notes).  R4's condition is _r4_case, and _r4 applies the
# case and private reds that _r4_case has just found.  R1 and R2 apply only
# where the driver's scan finds them: the removed blue of R1 and the witness
# red of R2 must have a neighbor, since an isolated blue is sanitize's and
# an isolated red answers NO.


def _refused(tag: str, witness: tuple) -> GraphError:
    return GraphError("%s does not apply at %s" % (tag, witness))


def _r1(g: RBGraph, witness: tuple) -> RuleApplication:
    """R1 at (b, b2): remove the blue b, whose neighborhood the blue b2
    contains."""
    b, b2 = witness
    adj, blue = g.adj, g.blue
    if b in blue and b2 in blue and b != b2 and adj[b] and adj[b] <= adj[b2]:
        g.remove_vertex(b)
        return RuleApplication._make((R1, witness, 0, None))
    raise _refused(R1, witness)


def _r2(g: RBGraph, witness: tuple) -> RuleApplication:
    """R2 at (r, r2): remove the red r, whose neighborhood contains the red
    r2's."""
    r, r2 = witness
    adj, red = g.adj, g.red
    if r in red and r2 in red and r != r2 and adj[r2] and adj[r2] <= adj[r]:
        g.remove_vertex(r)
        return RuleApplication._make((R2, witness, 0, None))
    raise _refused(R2, witness)


def _force(g: RBGraph, tag: str, witness: tuple) -> RuleApplication:
    """R4 cases 1, 3 and 4: remove the blues that ``_FORCED`` names, then
    their neighborhoods; the record pays one unit of budget for each forced
    blue."""
    forced = [witness[i] for i in _FORCED[tag]]
    for x in [*forced, *_nbrs(g.adj, forced)]:
        g.remove_vertex(x)
    return RuleApplication._make((tag, witness, -len(forced), None))


def _r3(g: RBGraph, witness: tuple) -> RuleApplication:
    """R3 at (v,): force the blue v of a two-vertex component, that is,
    remove v, then its one red, for one unit of budget."""
    v = witness[0]
    r = _r3_at(g, v)
    if r is None:
        raise _refused(R3, witness)
    g.remove_vertex(v)
    g.remove_vertex(r)
    return RuleApplication._make((R3, witness, -1, None))


def _r4(g: RBGraph, witness: tuple, found: tuple) -> RuleApplication:
    """R4 at the pair (v, w), given ``found``, the (case, private reds) that
    :func:`_r4_case` has just returned for it on ``g``: case 2 swaps the
    private reds for one red on the pair, the other cases force blues."""
    case, private = found
    tag = R4_CASE[case]
    if case != 2:
        return _force(g, tag, witness)
    for x in private:
        g.remove_vertex(x)
    return RuleApplication._make((tag, witness, 0, g.add_red_vertex(witness)))


def _san_edge(g: RBGraph, witness: tuple) -> RuleApplication:
    """Sanitize-edge at (u, v): remove the edge joining two vertices of one
    color."""
    u, v = witness
    adj = g.adj
    if u in adj and v in adj[u] and (u in g.blue) == (v in g.blue):
        g.remove_edge(u, v)
        return RuleApplication._make((SAN_EDGE, witness, 0, None))
    raise _refused(SAN_EDGE, witness)


def _san_blue(g: RBGraph, witness: tuple) -> RuleApplication:
    """Sanitize-isolated-blue at (b,): remove the blue b, which has no
    neighbor."""
    b = witness[0]
    if b in g.blue and not g.adj[b]:
        g.remove_vertex(b)
        return RuleApplication._make((SAN_BLUE, witness, 0, None))
    raise _refused(SAN_BLUE, witness)


def _san_no(g: RBGraph, witness: tuple) -> RuleApplication:
    """Sanitize-NO at (r,): the red r has no neighbor, so no blue can
    dominate it; the graph is left as it is."""
    if witness[0] in g.red and not g.adj[witness[0]]:
        return RuleApplication._make((SAN_NO, witness, 0, None))
    raise _refused(SAN_NO, witness)


# Every tag's function but R4's, which takes the case _r4_case found.
_RULE = {R1: _r1, R2: _r2, R3: _r3, SAN_EDGE: _san_edge, SAN_BLUE: _san_blue, SAN_NO: _san_no}


def apply_rule(g: RBGraph, match: tuple) -> RuleApplication:
    """Mutate ``g`` according to a match, a (tag, witness) pair, and
    return the trace record alone, whose ``delta_k`` is the budget change:
    a caller that needs what the firing changes reads it off ``g`` first.
    A match whose rule does not apply at its witness, or whose witness does
    not have its tag's length, raises ``GraphError`` and leaves ``g``
    unchanged.  The tag's own function checks and applies it; an R4 tag
    must name the case :func:`_r4_case` finds at the pair."""
    tag, witness = match
    if WITNESS_LEN.get(tag) == len(witness):
        if tag in _RULE:
            return _RULE[tag](g, witness)
        found = _r4_case(g, *witness)
        if found is not None and R4_CASE[found[0]] == tag:
            return _r4(g, witness, found)
    raise _refused(tag, witness)


# -- the driver --------------------------------------------------------------------
#
# The driver is kernelize, which holds the run's state in locals: the graph
# copy, k, the records and two pending sets, wl1, the blues R1 scans, and
# ``shrunk``, the reds R2 scans.  Every firing runs its rule's function,
# which checks the rule on the current graph before it applies it and
# raises the refusal if the rule does not apply, so a scan that named a
# wrong vertex stops the run instead of writing a record.  The driver
# appends each record and adds its delta_k to k.  Sanitize's matches go
# through the module-global apply_rule (perfbench's tracer wraps it there,
# and sanitize too), as the replay's records do; none of them spends budget
# or leaves a vertex that the sets, filled with every live vertex after
# them, would miss.  The sweeps call their rule's function directly.  A
# round sweeps isolated blues, R1 and R2 and starts over while any fired,
# that is while the records grew; then it sweeps R3 over the degree-one
# blues of the current graph, and asks _r4_case about every pair with two
# or more private reds, in ascending order, and fires _r4 with the case and
# private reds of the first pair that has one.  A round ends at R4, so a
# run has one round more than it has R4 firings, and R3 and R4 keep nothing
# between rounds.  What a firing will change decides what becomes pending,
# and since a rule's function returns its record alone, the driver reads
# that off the graph before the firing.  R1 at b removes only b, so N(b)
# joins ``shrunk``; R2 at x removes only x, so N(x) joins wl1.  So R1 feeds
# only ``shrunk`` and R2 only wl1, and each sweep updates that one set; an
# isolated blue has no neighbor, and R3 removes a whole two-vertex
# component, so neither feeds a set.  R4 at the pair (v, w) puts every blue
# within distance two of the pair, N(N({v, w})), into wl1, and case 2's
# added red joins ``shrunk`` after the firing.  An R4 firing removes only
# the pair, reds next to it and, in case 2, adds one red on it, so every
# blue it changes lies within distance two of the pair.  The set may hold
# more blues than that, in cases 2 to 4, and the records do not change:
# by fact 1 below, a blue whose neighborhood the firing left alone has no
# container, and it is not isolated.  The forcing cases remove every red
# next to a forced blue and case 2 removes no blue, so no live red loses a
# neighbor and only the added red joins ``shrunk``.
#
# Every sweep scans once and then fires in ascending order.  The
# isolated-blue sweep's scan takes the live degree-0 blues of wl1.  A blue
# loses its last red only when that red is removed, which puts the blue in
# wl1, no record gives a degree-0 blue a red, and only the R1 sweep, which
# follows the isolated-blue one, empties wl1; so the scan finds every
# isolated blue of the graph.  Sanitize-isolated-blue removes a vertex that
# has no neighbor, so it changes no other vertex, and each blue the scan
# found is still isolated at its turn.  The nested r1_sweep and r2_sweep
# scan their pending set once and empty it.  r1_sweep keeps each contained
# blue b's least container and fires R1 at b with it, or, if it died earlier
# in the sweep, with the least container a rescan of b finds.  r2_sweep keys
# each containment by the containing red x as it scans, and fires R2 at x
# with the least live scanned red within N(x).  It keeps every such red,
# since the least has often died by x's turn (CHANGES.md, the entry on
# R2 keyed by its containing red, counts how often), and a rescan of x
# would test every red next to a blue of N(x).  No firing makes a vertex
# pending for the rule being swept: R1 removes only blues, whose reds join
# ``shrunk``, and R2 only reds, whose blues join wl1.  The R3 sweep runs
# only after a round fired nothing, so R1 is exhausted.  Then a degree-one
# blue v with N(v) = {r} is alone at r: any other blue at r would contain
# {r}, which is an R1 match.  So every blue _r3_seed lists is an R3 match,
# and the sweep fires at each one; _r3, which checks R3 at every firing,
# would raise if this failed.  A firing removes the whole component
# {v, r}, v first, so r has no neighbors left when it goes, and it changes
# no other blue; the naive driver would find nothing in R1 and R2 between
# two firings.
# Only R3 and R4 spend budget, and k < 0 is checked after every firing, so a
# run stops at the record that drove k below zero.
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
# Every record keeps a planar graph planar, so the size test reads the
# paper's bound on a planar kernel whenever the input is planar.  Every tag
# but R4 case 2 removes vertices, an edge or nothing.  R4 case 2 removes the
# pair's private reds, each of which is next to both v and w, and adds one
# red on {v, w}: that equals keeping one private red, renamed, without its
# other edges.  So every record leaves a subgraph of its input, up to
# renaming.  tests/test_planar_records.py checks every intermediate graph
# of traces on planar inputs.
#
# Sweeping in ascending id order makes the run identical to the naive
# rescans-from-scratch driver, which tests exploit, because each R1 or R2
# sweep, though it scans once when it starts, fires what a probe of each
# vertex at its turn would find.  The scan skips a vertex with no neighbor:
# an isolated blue is the isolated-blue sweep's, and an isolated red
# witnesses nothing.  Three facts carry the argument:
#
# 1. During an R1 sweep no blue's neighborhood changes and no blue is
#    created, so a blue's containers can only die, and its least live
#    container is the witness a probe at its turn finds.  That is the least
#    container the scan found if it is still live, and otherwise what a
#    rescan of the blue on the current graph finds.  At each R1 sweep every
#    blue with a container is in wl1: wl1 starts as every blue, and after an
#    R1 sweep no blue has a container.  A blue b gains one only when N(b)
#    changes, which needs a red of N(b) removed, putting b in wl1, or b
#    ending an R4 case-2 pair, whose record also removes private reds next
#    to b.  Other blues' neighborhoods only shrink, or gain a case-2 red
#    that is not in N(b).
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
# of N(a) an R2 match, and {a, r} an R3 component.  Each find of a pair
# v < w is one private red, so the search needs only whether a pair was
# found twice.  With m one more than the largest blue id it keys the pair
# as the int v * m + w, which divmod(key, m) turns back into (v, w), and
# puts a key into ``once`` when first found and into ``twice`` when found
# again; the pairs are those of ``twice``.  A red next to both endpoints
# still adds one find, from the lower endpoint.  An int key and two set
# probes cost less per find than a tuple key and a dict increment
# (CHANGES.md, the entry on int pair keys).
#
# The search skips a red whose U(r) has more than 2 * D vertices, D the
# largest blue degree in the graph: a red private to (a, w) has U(r) within
# N(a) | N(w), so |U(r)| <= deg(a) + deg(w) <= 2 * D, and a skipped red adds
# to no pair's count.  It builds U(r) blue by blue and stops once the union
# passes 2 * D.  For the same reason it skips an endpoint a whose X
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
# For each red it intersects the W sets of the red's blues one at a time
# and stops at the first empty intersection, after which the red counts
# toward no pair of a; it raises only when none of them has a W set.  On
# size-verdict's dense graphs, whose reds have 8 or 11 blues, the per-blue
# loop is the faster one, and on graphs that meet the bound the per-red one
# is (CHANGES.md, the entries on the per-blue count and its early stop).


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
    size test is what makes the output a kernel; it presumes a planar input,
    and every record keeps a planar graph planar (driver notes), so the
    reduced graph of a planar input is planar too.
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

    def r1_sweep() -> None:
        """Scan and empty wl1, then fire R1 in ascending order at each blue
        the scan found contained, with its least live container as witness.
        The reds of each removed blue join ``shrunk``."""
        found = {b: x for b in wl1 if (x := _least_container(adj, b)) is not None}
        wl1.clear()
        for b in sorted(found):
            x = found[b]
            if x not in adj:  # the scan's least container died in this sweep
                x = _least_container(adj, b)
                if x is None:
                    continue
            shrunk.update(adj[b])
            records.append(_r1(g, (b, x)))

    def r2_sweep() -> None:
        """Scan and empty ``shrunk``, then fire R2 in ascending order at each
        red the scan found containing a scanned red, with the least live one
        as witness.  The blues of each removed red join wl1."""
        found = _by_container(g, shrunk)
        shrunk.clear()
        for x in sorted(found):
            r2 = min(filter(adj.__contains__, found[x]), default=None)
            if r2 is not None:
                wl1.update(adj[x])
                records.append(_r2(g, (x, r2)))

    found = sanitize(g)
    for match in found:
        records.append(apply_rule(g, match))
    if found and found[-1][0] == SAN_NO:
        return KernelResult("no", reason=NO_ISOLATED_RED, trace=trace)

    wl1.update(g.blue)
    shrunk.update(g.red)
    while k >= 0:
        before = len(records)
        for b in sorted(b for b in wl1 if b in adj and not adj[b]):
            records.append(_san_blue(g, (b,)))
        r1_sweep()
        r2_sweep()
        if len(records) == before:
            for b in sorted(_r3_seed(g)):
                rec = _r3(g, (b,))
                records.append(rec)
                k += rec.delta_k
                if k < 0:
                    break
            if k < 0:
                break
            for pair in sorted(_r4_pairs(g)):
                found = _r4_case(g, *pair)
                if found is not None:
                    wl1.update(_nbrs(adj, _nbrs(adj, pair)))
                    rec = _r4(g, pair, found)
                    records.append(rec)
                    k += rec.delta_k
                    if rec.added is not None:
                        shrunk.add(rec.added)
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

    Each record's tag and witness, its first two fields, go to
    :func:`apply_rule` on the graph its predecessors left, which refuses
    them unless the rule applies there, and it must give back the same
    record, budget drop and case-2 red id included.  Given ``kernel``, the
    replay must also end at that graph.  Any mismatch raises
    ``GraphError``; for a bad record the message starts ``record <i>, ``, i
    the one-based index of the first bad one.
    """
    g = original.copy()
    for i, rec in enumerate(trace.records, start=1):
        try:
            again = apply_rule(g, rec[:2])
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
