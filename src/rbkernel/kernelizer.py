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
tuple.  The table ``_FORCED`` names the witness positions of the blues a
match forces into every solution (R3 and R4 cases 1, 3 and 4); it alone
decides what :func:`apply_rule` removes for such a match, the budget drop
(one unit per forced blue) and what :func:`lift_solution` adds back.
Every application is logged as a :class:`RuleApplication`; the ordered log
replays forward to the kernel graph and backward to lift kernel solutions
to the original instance.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import BLUE, RED, GraphError, Instance, RBGraph, sanitize
from .solver import verify_solution

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


class StaleFindingError(GraphError):
    """A finding refers to vertices that are no longer live."""


class InvalidKernelSolutionError(GraphError):
    pass


# -- findings ----------------------------------------------------------------


class Match(NamedTuple):
    """A rule that applies: its trace tag and the record's witness tuple,
    ``(remove, witness)`` for R1 and R2, ``(v,)`` for R3 and ``(v, w)`` for
    R4, with the pair's private reds for R4.  A named tuple, because the
    driver builds one per firing."""

    tag: str
    witness: tuple
    private: frozenset = frozenset()


# -- trace records -------------------------------------------------------------


class RuleApplication(NamedTuple):
    """One rule firing: everything removed and added, with enough edge
    context to replay the mutation and to lift solutions back.  A named
    tuple, because the driver builds one per firing."""

    tag: str
    removed: tuple  # ((vertex, color, neighbors-at-removal), ...)
    added: tuple  # ((vertex, neighbors), ...)
    witness: tuple
    delta_k: int


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
    g = inst.graph
    h = hashlib.sha256()
    h.update(("k=%d" % inst.k).encode())
    h.update(("B=%s" % sorted(g.blue)).encode())
    h.update(("R=%s" % sorted(g.red)).encode())
    h.update(("E=%s" % g.edges()).encode())
    return Fingerprint(g.n_vertices, g.n_edges, h.hexdigest()[:16])


# -- finders -------------------------------------------------------------------
#
# All finders scan in ascending vertex id order and return the first match,
# so runs are deterministic and traces replayable.  When two neighborhoods
# are equal the lower id is the one removed, simply because the ascending
# scan reaches it first.


def _r1_at(g: RBGraph, b: int) -> Match | None:
    adj = g.adj
    nb = adj[b]
    if not nb:
        return None  # isolated blues belong to sanitize, not R1
    # The blues containing N(b) are exactly those next to every red of N(b).
    cands = set.intersection(*map(adj.__getitem__, nb))
    cands.discard(b)
    return Match(R1, (b, min(cands))) if cands else None


def _r2_at(g: RBGraph, r: int) -> Match | None:
    adj = g.adj
    nr = adj[r]
    if not nr:
        return None
    cands = set().union(*map(adj.__getitem__, nr))
    cands.discard(r)
    r2 = min((x for x in cands if adj[x] <= nr), default=None)
    return None if r2 is None else Match(R2, (r, r2))


def _containers(adj: dict, r: int) -> set:
    """C(r), the reds whose neighborhood contains N(r), r included; N(r)
    must be nonempty."""
    return set.intersection(*map(adj.__getitem__, adj[r]))


def _r2_seed(g: RBGraph) -> set:
    """The reds where R2 applies: the union over reds r2 of C(r2) - {r2}.
    Every red must have a blue neighbor."""
    adj = g.adj
    seed = set()
    for r2 in g.red:
        c = _containers(adj, r2)
        if len(c) > 1:
            c.discard(r2)
            seed |= c
    return seed


def _r3_at(g: RBGraph, v: int) -> Match | None:
    adj = g.adj
    nv = adj[v]
    if len(nv) != 1:
        return None
    r = next(iter(nv))
    if r in g.red and len(adj[r]) == 1:
        return Match(R3, (v,))
    return None


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


def _r4_pairs(g: RBGraph, blues) -> set:
    """Pairs (v < w) with an endpoint in ``blues`` and two or more private reds."""
    adj = g.adj
    dirty = g.blue.intersection(blues)
    reds = g.red if len(dirty) == len(g.blue) else _nbrs(adj, _nbrs(adj, _nbrs(adj, dirty)))
    cap = 2 * max(map(len, map(adj.__getitem__, g.blue)), default=0)
    counts: Counter = Counter()
    for r in reds:
        nr = adj[r]
        ur = set().union(*map(adj.__getitem__, nr))
        if len(ur) > cap:
            continue  # too large to lie within N(a) | N(w) for any pair
        pairs = set()  # a red next to both endpoints finds its pair twice
        for a in nr:
            x = ur - adj[a]
            if not x:
                raise ContractViolation("R3 applies to blue %d and red %d" % (a, r))
            for probe in x:
                break
            pairs.update([(a, w) if a < w else (w, a) for w in adj[probe] if x <= adj[w]])
        counts.update(pairs)
    return {p for p, c in counts.items() if c > 1 and (p[0] in dirty or p[1] in dirty)}


def _pair_private(adj: dict, v: int, w: int) -> set:
    """The reds of N(v) | N(w) all of whose dominators stay inside it."""
    nvw = adj[v] | adj[w]
    return {r for r in nvw if all(adj[x] <= nvw for x in adj[r])}


def _r4_at(g: RBGraph, pair) -> Match | None:
    """The match if R4 fires on the pair (v, w), else None."""
    v, w = pair
    private = _pair_private(g.adj, v, w)
    if len(private) <= 1:
        return None
    it = iter(private)
    dominators = set(g.adj[next(it)])
    for r in it:
        dominators &= g.adj[r]
        if not dominators:
            break
    if dominators - {v, w}:
        return None  # a third blue covers the whole private set
    in_v, in_w = private <= g.adj[v], private <= g.adj[w]
    case = 2 if in_v and in_w else 3 if in_v else 4 if in_w else 1
    return Match(R4_CASE[case], pair, frozenset(private))


def find_rule4(g: RBGraph) -> Match | None:
    """First blue pair (v < w) with a jointly forced private set."""
    assert (_first(g, g.blue, _r1_at) is None and _first(g, g.red, _r2_at) is None
            and _first(g, g.blue, _r3_at) is None), \
        "find_rule4 requires R1, R2 and R3 to be exhausted"
    return _first(g, _r4_pairs(g, g.blue), _r4_at)


# -- applying rules --------------------------------------------------------------


def apply_rule(g: RBGraph, k: int, match: Match) -> tuple[int, RuleApplication]:
    """Mutate ``g`` according to a finding; returns the new budget and the
    trace record.  R1, R2 and Sanitize-isolated-blue remove the first
    witness; R4 case 2 swaps the private reds for one red on the pair; a rule
    that forces blues removes them with their neighborhoods and pays one unit
    of budget for each.  Vertices are removed in recorded order so forward
    replay reproduces the graph exactly."""
    tag, witness, private = match
    adj = g.adj
    named = {*witness, *private}
    if not named <= adj.keys():
        raise StaleFindingError("finding names dead vertices %s" % sorted(named - adj.keys()))
    forced = ()
    if tag == R1 or tag == R2 or tag == SAN_BLUE:
        targets = witness[:1]
    elif tag == R4_CASE[2]:
        targets = sorted(private)
    elif tag in _FORCED:
        forced = [witness[i] for i in _FORCED[tag]]
        targets = forced + sorted(_nbrs(adj, forced))
    else:
        raise GraphError("unknown finding %r" % (match,))
    removed = tuple([(x, g.color_of(x), g.remove_vertex(x)) for x in targets])
    added = ((g.add_red_vertex(witness), witness),) if tag == R4_CASE[2] else ()
    return k - len(forced), RuleApplication(tag, removed, added, witness, -len(forced))


def _sanitize_records(rep) -> list[RuleApplication]:
    recs = [RuleApplication(SAN_EDGE, (), (), (u, v), 0) for u, v in rep.removed_edges]
    recs += [RuleApplication(SAN_BLUE, ((b, BLUE, ()),), (), (b,), 0)
             for b in rep.removed_blues]
    return recs


# -- the driver --------------------------------------------------------------------
#
# The loop keeps, per rule, a worklist of the vertices where it may newly
# apply, so a pass never rescans the whole graph.  R1, R2 and R3 share one
# drain: each live vertex popped goes to the rule's probe, and a Match it
# returns goes to apply_rule; R1 and R2 drain to empty, R3 stops after one
# firing so the budget is checked.  Popping worklists in
# ascending id order makes the run identical to the naive rescans-from-scratch
# driver, which tests exploit.  What a record changed decides what is pushed;
# "live" means still in the graph after the whole record, r is each live red
# of N(x), and C(r) is the set of reds whose neighborhood contains N(r), for
# which r may now witness R2:
#
#   change           R1 at        R2 at    R3 at       R4 seeds
#   red x removed    live N(x)    -        live N(x)   N(x)
#   blue x removed   -            C(r)     -           N(x)
#   red n added      -            C(n)     -           n
#
# Removing a red changes no red's neighborhood, removing a blue no blue's; a
# blue left isolated fires Sanitize-isolated-blue, so apply_rule builds every
# record the loop writes.  Only R1 removes a blue and keeps its
# reds, and no blue's own neighborhood shrinks then; every pop from wl3
# happens with R1 exhausted, when a degree-one blue's red has no other blue
# and R3 fires.  So a blue that R3 newly matches after a blue removal has
# been pushed since its last pop by a red removal, and the blue-removal
# column needs no R3 push.  An R4 case-2 red n has N(n) = {v, w}, and the
# same record removes private reds adjacent to both, which pushes v and w
# for R1 and R3 already.  R4 at a pair reads the graph within
# distance three of it.  Such a path from a changed vertex to a live blue
# leaves the last removed vertex on it through a seed, then runs over live
# vertices only, so the radius-2 ball around the live seeds, taken when R4
# is next tried, holds every blue whose pair may newly fire.
#
# wl1 and wl3 start with every blue, but wl2 starts with only the reds where
# R2 applies: the union over reds r2 of C(r2) - {r2}.  A red r outside it has
# no R2 witness, and it gains one only when some N(r2) shrinks into N(r) or
# a red n is added with N(n) within N(r).  The first happens only when a blue
# is removed, the second only in R4 case 2, and the records of both push
# C(r2) or C(n), which then holds r.  Removing a red creates no R2 match.  So
# a red left out of the seed, popped from a list of every red before any
# record pushed it, would find nothing there, and the firings and their order
# are those of that list.
#
# R4's search counts the private reds of every pair with a dirty endpoint.
# A red r private to (a, w) lies in U(r), within N(a) | N(w), so one endpoint,
# say a, is in N(r), and the partners w for that a are the blues next to any
# one red of X = U(r) - N(a) that neighbor all of X.  Each red collects its
# pairs as a set, so a red next to both endpoints counts once.  This relies on
# R1-R3 being exhausted.  X is never empty: if N(a) held U(r), every other
# blue of N(r) would be an R1 match, then every other red of N(a) an R2
# match, and {a, r} an R3 component.  And a private red r outside N(a) is
# within distance three of a: N(r) = {w} would be an R2 or R3 match, so r
# has a second blue b, whose neighborhood lies in N(a) | N(w) but not in
# N(w) (R1), so it meets N(a).  So the reds within distance three of the
# dirty blues count each such pair exactly.
#
# The search skips a red whose U(r) has more than 2 * D vertices, D the
# largest blue degree in the graph: a red private to (a, w) has U(r) within
# N(a) | N(w), so |U(r)| <= deg(a) + deg(w) <= 2 * D, and a skipped red adds
# to no pair's count.  The skip never hides a contract violation: an empty X
# means U(r) is within N(a), so |U(r)| <= D.  When every blue is dirty the
# search runs over all reds instead of the three-step ball, which would hold
# every red with a blue neighbor; a red without one has an empty N(r) and
# adds no pair.  On grids, where every blue degree is at most four, most
# reds are skipped; next to a hub blue the bound skips little.


class _Worklist:
    """Min-heap of vertex ids; ``members`` holds exactly its ids, so none is queued twice."""

    __slots__ = ("heap", "members")

    def __init__(self, items=()):
        self.members = set(items)
        self.heap = sorted(self.members)

    def push(self, v: int) -> None:
        if v not in self.members:
            self.members.add(v)
            heapq.heappush(self.heap, v)

    def pop(self) -> int | None:
        if not self.heap:
            return None
        v = heapq.heappop(self.heap)
        self.members.discard(v)
        return v


class _Driver:
    def __init__(self, inst: Instance):
        self.g = inst.graph.copy()
        self.k = inst.k
        self.records: list[RuleApplication] = []
        self.fp = fingerprint_instance(inst)

    def run(self) -> KernelResult:
        g = self.g
        rep = sanitize(g)
        self.records.extend(_sanitize_records(rep))
        if rep.infeasible:
            bad = rep.infeasible_reds[0]
            self.records.append(RuleApplication(SAN_NO, (), (), (bad,), 0))
            return self._no(NO_ISOLATED_RED)

        self.wl1 = _Worklist(g.blue)
        self.wl2 = _Worklist(_r2_seed(g))
        self.wl3 = _Worklist(g.blue)
        self.dirty4 = set(g.blue)
        self.seeds: set[int] = set()
        self.iso_blue: set[int] = set()

        while True:
            changed = self._drain_isolated_blues()
            changed |= self._drain(self.wl1, _r1_at, False)
            changed |= self._drain(self.wl2, _r2_at, False)
            if changed:
                continue
            if self._drain(self.wl3, _r3_at, True) or self._try_rule4():
                if self.k < 0:
                    return self._no(NO_BUDGET)
                continue
            break

        if not g.red:
            return self._reduced()
        if not g.blue:
            return self._no(NO_ISOLATED_RED)
        if g.n_vertices > 46 * self.k:
            return self._no(NO_SIZE)
        return self._reduced()

    # -- phases --

    def _drain_isolated_blues(self) -> bool:
        changed = False
        for b in sorted(self.iso_blue):
            if b in self.g.adj and not self.g.adj[b]:
                self._apply(Match(SAN_BLUE, (b,)))
                changed = True
        self.iso_blue.clear()
        return changed

    def _drain(self, wl: _Worklist, probe, once: bool) -> bool:
        """Pop ``wl`` and fire what ``probe`` finds until ``wl`` is empty, or
        after the first firing when ``once``; True iff anything fired."""
        g = self.g
        adj = g.adj
        fired = False
        while True:
            x = wl.pop()
            if x is None:
                return fired
            if x not in adj:
                continue
            match = probe(g, x)
            if match is not None:
                self._apply(match)
                if once:
                    return True
                fired = True

    def _try_rule4(self) -> bool:
        g = self.g
        seeds = {x for x in self.seeds if x in g.adj}
        self.seeds.clear()
        near = _nbrs(g.adj, seeds)
        self.dirty4 |= g.blue & (seeds | near | _nbrs(g.adj, near))
        match = _first(g, _r4_pairs(g, self.dirty4), _r4_at)
        if match is None:
            self.dirty4.clear()
            return False
        # Pairs ordered before the match were just proven clean: drop their
        # lower endpoints from the dirty set.
        v = match.witness[0]
        self.dirty4 = {x for x in self.dirty4 if x >= v}
        self._apply(match)
        return True

    # -- bookkeeping --

    def _apply(self, match) -> None:
        """Fire ``match``; push what its record changed (see the driver notes)."""
        adj = self.g.adj
        self.k, rec = apply_rule(self.g, self.k, match)
        self.records.append(rec)
        for _, color, nbrs in rec.removed:
            self.seeds.update(nbrs)
            for u in nbrs:
                if u not in adj:
                    continue
                if color == RED:
                    self.wl1.push(u)
                    self.wl3.push(u)
                    if not adj[u]:
                        self.iso_blue.add(u)
                else:
                    self._push_containers(u)
        for n, _ in rec.added:
            self.seeds.add(n)
            self._push_containers(n)

    def _push_containers(self, r: int) -> None:
        """Push C(r), r included, for R2."""
        for x in _containers(self.g.adj, r):
            self.wl2.push(x)

    # -- verdicts --

    def _trace(self) -> KernelTrace:
        return KernelTrace(self.records, self.fp)

    def _no(self, reason: str) -> KernelResult:
        return KernelResult("no", reason=reason, trace=self._trace())

    def _reduced(self) -> KernelResult:
        return KernelResult("reduced", Instance(self.g, self.k), self._trace())


def kernelize(inst: Instance) -> KernelResult:
    """Shrink ``inst`` to an equivalent reduced instance or report NO.

    Sanitizes, exhausts R1 then R2, restarts on any change, then tries R3
    and R4, restarting after each application.  At the fixpoint the result
    is NO when the budget went negative, a red is undominatable, or the
    reduced graph is larger than 46 times the remaining budget; otherwise
    the reduced instance is returned with its trace.  The size test is what
    makes the output a kernel; it presumes a planar input.
    """
    if inst.k < 0:
        raise ValueError("budget must be non-negative, got %d" % inst.k)
    return _Driver(inst).run()


# -- replay and lifting -----------------------------------------------------------


def replay_trace(original: RBGraph, trace: KernelTrace) -> RBGraph:
    """Re-run a trace forward on a copy of the original graph."""
    g = original.copy()
    for rec in trace.records:
        if rec.tag == SAN_EDGE:
            g.remove_edge(*rec.witness)
            continue
        if rec.tag == SAN_NO:
            continue
        for v, _color, _nbrs in rec.removed:
            g.remove_vertex(v)
        for v, nbrs in rec.added:
            g.add_red_vertex(set(nbrs), vid=v)
    return g


def lift_solution(trace: KernelTrace, kernel_solution, kernel_graph: RBGraph | None = None):
    """Turn a solution of the kernel into one of the original instance.

    Walks the trace backward adding the blues each record forced (the
    ``_FORCED`` positions of its witness).  Every other record lifts
    identically; in particular after an R4 case 2 the kernel solution
    already contains one of the two pair vertices, which dominates
    everything that record removed.
    """
    lifted = set(kernel_solution)
    if kernel_graph is not None and not verify_solution(kernel_graph, lifted):
        raise InvalidKernelSolutionError(
            "the given solution does not dominate the kernel graph")
    for rec in reversed(trace.records):
        for i in _FORCED.get(rec.tag, ()):
            lifted.add(rec.witness[i])
    return lifted
