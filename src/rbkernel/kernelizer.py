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

Every application is logged as a :class:`RuleApplication`; the ordered log
replays forward to the kernel graph and backward to lift kernel solutions
to the original instance.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
from dataclasses import dataclass, field

from .graph import BLUE, RED, GraphError, Instance, RBGraph, sanitize
from .solver import verify_solution

R1 = "R1"
R2 = "R2"
R3 = "R3"
R4_CASE = {1: "R4-case1", 2: "R4-case2", 3: "R4-case3", 4: "R4-case4"}
SAN_EDGE = "Sanitize-edge"
SAN_BLUE = "Sanitize-isolated-blue"
SAN_NO = "Sanitize-NO"

RULE_TAGS = (R1, R2, R3) + tuple(R4_CASE.values()) + (SAN_NO, SAN_EDGE, SAN_BLUE)

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


@dataclass(frozen=True)
class Rule1Match:
    remove: int
    witness: int


@dataclass(frozen=True)
class Rule2Match:
    remove: int
    witness: int


@dataclass(frozen=True)
class Rule3Match:
    vertex: int
    red: int


@dataclass(frozen=True)
class Rule4Match:
    v: int
    w: int
    case: int
    private: frozenset


# -- trace records -------------------------------------------------------------


@dataclass(frozen=True)
class RuleApplication:
    """One rule firing: everything removed and added, with enough edge
    context to replay the mutation and to lift solutions back."""

    tag: str
    removed: tuple  # ((vertex, color, neighbors-at-removal), ...)
    added: tuple  # ((vertex, neighbors), ...)
    witness: tuple
    delta_k: int

    @property
    def net_vertex_delta(self) -> int:
        return len(self.added) - len(self.removed)


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


def _r1_witness(g: RBGraph, b: int) -> int | None:
    adj = g.adj
    nb = adj[b]
    if not nb:
        return None  # isolated blues belong to sanitize, not R1
    # Every blue containing N(b) neighbors every red of N(b), so the least
    # such blue is the same whichever red serves as the probe.
    probe = min(nb, key=lambda r: len(adj[r]))
    for b2 in sorted(adj[probe]):
        if b2 != b and nb <= adj[b2]:
            return b2
    return None


def find_rule1(g: RBGraph) -> Rule1Match | None:
    """First blue whose neighborhood is contained in another blue's."""
    for b in sorted(g.blue):
        w = _r1_witness(g, b)
        if w is not None:
            return Rule1Match(b, w)
    return None


def _r2_witness(g: RBGraph, r: int) -> int | None:
    nr = g.adj[r]
    if not nr:
        return None
    cands = set()
    for b in nr:
        cands |= g.adj[b]
    cands.discard(r)
    for r2 in sorted(cands):
        if g.adj[r2] <= nr:
            return r2
    return None


def find_rule2(g: RBGraph) -> Rule2Match | None:
    """First red whose neighborhood contains another red's."""
    for r in sorted(g.red):
        w = _r2_witness(g, r)
        if w is not None:
            return Rule2Match(r, w)
    return None


def _r3_red(g: RBGraph, v: int) -> int | None:
    nv = g.adj[v]
    if len(nv) != 1:
        return None
    r = next(iter(nv))
    if r in g.red and len(g.adj[r]) == 1:
        return r
    return None


def find_rule3(g: RBGraph) -> Rule3Match | None:
    """First blue with a nonempty private neighborhood.

    With R1 and R2 exhausted this is exactly a two-vertex component: a
    degree-one blue whose red neighbor has degree one, which is what the
    scan looks for.  The definitional predicate is the private-neighborhood
    query on the graph module; tests assert the two agree.
    """
    assert find_rule1(g) is None and find_rule2(g) is None, \
        "find_rule3 requires a graph already reduced under R1 and R2"
    for v in sorted(g.blue):
        r = _r3_red(g, v)
        if r is not None:
            return Rule3Match(v, r)
    return None


def _nbrs(adj: dict, vertices) -> set:
    return set().union(*(adj[v] for v in vertices))


def _r4_pairs(g: RBGraph, blues) -> set:
    """Pairs (v < w) with an endpoint in ``blues`` and two or more private reds."""
    adj = g.adj
    dirty = g.blue.intersection(blues)
    hits: list = []
    for r in _nbrs(adj, _nbrs(adj, _nbrs(adj, dirty))):
        ur = _nbrs(adj, adj[r])
        by_degree = sorted(ur, key=lambda y: len(adj[y]))
        for a in _nbrs(adj, ur) & dirty:
            na = adj[a]
            for probe in by_degree:
                if probe not in na:
                    break
            else:
                raise ContractViolation("R3 applies to blue %d and red %d" % (a, r))
            x = ur - na  # holds the probe, so a is not among its neighbors
            hits.extend((a, w) for w in adj[probe] if x <= adj[w])
    return {(min(p), max(p)) for p, c in Counter(hits).items() if c > 1}


def _r4_check_pair(g: RBGraph, v: int, w: int):
    """Case tag and private set if R4 fires on (v, w), else None."""
    nv, nw = g.adj[v], g.adj[w]
    nvw = nv | nw
    private = set()
    for r in nvw:
        if all(g.adj[x] <= nvw for x in g.adj[r]):
            private.add(r)
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
    in_v, in_w = private <= nv, private <= nw
    if not in_v and not in_w:
        case = 1
    elif in_v and in_w:
        case = 2
    elif in_v:
        case = 3
    else:
        case = 4
    return case, frozenset(private)


def _first_rule4(g: RBGraph, blues) -> Rule4Match | None:
    """First firing pair (v < w) among the pairs with an endpoint in ``blues``."""
    for v, w in sorted(_r4_pairs(g, blues)):
        hit = _r4_check_pair(g, v, w)
        if hit is not None:
            return Rule4Match(v, w, *hit)
    return None


def find_rule4(g: RBGraph) -> Rule4Match | None:
    """First blue pair (v < w) with a jointly forced private set."""
    assert find_rule1(g) is None and find_rule2(g) is None and find_rule3(g) is None, \
        "find_rule4 requires R1, R2 and R3 to be exhausted"
    return _first_rule4(g, g.blue)


def is_reduced(g: RBGraph) -> bool:
    """True iff none of the four rules applies."""
    if find_rule1(g) is not None or find_rule2(g) is not None:
        return False
    if any(_r3_red(g, v) is not None for v in g.blue):
        return False
    return _first_rule4(g, g.blue) is None


# -- applying rules --------------------------------------------------------------


def _require_live(g: RBGraph, vertices) -> None:
    dead = [v for v in vertices if not g.has_vertex(v)]
    if dead:
        raise StaleFindingError("finding names dead vertices %s" % dead)


def _remove_recorded(g: RBGraph, v: int) -> tuple:
    color = g.color_of(v)
    return (v, color, g.remove_vertex(v))


def apply_rule(g: RBGraph, k: int, match) -> tuple[int, RuleApplication]:
    """Mutate ``g`` according to a finding; returns the new budget and the
    trace record.  Vertices are removed in recorded order so forward replay
    reproduces the graph exactly."""
    if isinstance(match, Rule1Match):
        _require_live(g, (match.remove, match.witness))
        rec = RuleApplication(R1, (_remove_recorded(g, match.remove),), (),
                              (match.remove, match.witness), 0)
        return k, rec
    if isinstance(match, Rule2Match):
        _require_live(g, (match.remove, match.witness))
        rec = RuleApplication(R2, (_remove_recorded(g, match.remove),), (),
                              (match.remove, match.witness), 0)
        return k, rec
    if isinstance(match, Rule3Match):
        _require_live(g, (match.vertex, match.red))
        targets = [match.vertex] + sorted(g.adj[match.vertex])
        removed = tuple(_remove_recorded(g, x) for x in targets)
        rec = RuleApplication(R3, removed, (), (match.vertex,), -1)
        return k - 1, rec
    if isinstance(match, Rule4Match):
        _require_live(g, (match.v, match.w))
        _require_live(g, match.private)
        v, w = match.v, match.w
        if match.case == 1:
            targets = [v, w] + sorted(g.adj[v] | g.adj[w])
            removed = tuple(_remove_recorded(g, x) for x in targets)
            rec = RuleApplication(R4_CASE[1], removed, (), (v, w), -2)
            return k - 2, rec
        if match.case == 2:
            removed = tuple(_remove_recorded(g, x) for x in sorted(match.private))
            new = g.add_red_vertex({v, w})
            rec = RuleApplication(R4_CASE[2], removed, ((new, (v, w)),), (v, w), 0)
            return k, rec
        if match.case == 3:
            targets = [v] + sorted(g.adj[v])
            removed = tuple(_remove_recorded(g, x) for x in targets)
            rec = RuleApplication(R4_CASE[3], removed, (), (v, w), -1)
            return k - 1, rec
        if match.case == 4:
            targets = [w] + sorted(g.adj[w])
            removed = tuple(_remove_recorded(g, x) for x in targets)
            rec = RuleApplication(R4_CASE[4], removed, (), (v, w), -1)
            return k - 1, rec
        raise GraphError("unknown R4 case %r" % (match.case,))
    raise GraphError("unknown finding %r" % (match,))


def _sanitize_records(rep) -> list[RuleApplication]:
    recs = [RuleApplication(SAN_EDGE, (), (), (u, v), 0) for u, v in rep.removed_edges]
    recs += [RuleApplication(SAN_BLUE, ((b, BLUE, ()),), (), (b,), 0)
             for b in rep.removed_blues]
    return recs


# -- the driver --------------------------------------------------------------------
#
# The loop keeps, per rule, a worklist of the vertices where it may newly
# apply, so a pass never rescans the whole graph.  Popping worklists in
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
# blue left isolated goes to sanitize.  Only R1 removes a blue and keeps its
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
# R4's search relies on R1-R3 being exhausted: a red r within distance three
# of a dirty blue a has U(r) - N(a) nonempty (else R3 applies to a), so all w
# with r private to (a, w) neighbor one probe in that set, and a red private
# to (a, w) farther from a would need N(r) = {w} (R1) and N(w) = {r} (R2), an
# R3 match again.  So _r4_pairs counts each pair's private reds exactly.


class _Worklist:
    """Min-heap of vertex ids with lazy deletion."""

    __slots__ = ("heap", "members")

    def __init__(self, items=()):
        self.members = set(items)
        self.heap = sorted(self.members)

    def push(self, v: int) -> None:
        if v not in self.members:
            self.members.add(v)
            heapq.heappush(self.heap, v)

    def pop(self) -> int | None:
        while self.heap:
            v = heapq.heappop(self.heap)
            if v in self.members:
                self.members.discard(v)
                return v
        return None


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
        self.wl2 = _Worklist(g.red)
        self.wl3 = _Worklist(g.blue)
        self.dirty4 = set(g.blue)
        self.seeds: set[int] = set()
        self.iso_blue: set[int] = set()

        while True:
            changed = self._drain_isolated_blues()
            changed |= self._exhaust_rule1()
            changed |= self._exhaust_rule2()
            if changed:
                continue
            if self._try_rule3() or self._try_rule4():
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
            if self.g.has_vertex(b) and not self.g.adj[b]:
                self.g.remove_vertex(b)
                self.records.append(
                    RuleApplication(SAN_BLUE, ((b, BLUE, ()),), (), (b,), 0))
                changed = True
        self.iso_blue.clear()
        return changed

    def _exhaust_rule1(self) -> bool:
        changed = False
        while True:
            b = self.wl1.pop()
            if b is None:
                return changed
            if not self.g.has_vertex(b):
                continue
            w = _r1_witness(self.g, b)
            if w is None:
                continue
            self._apply(Rule1Match(b, w))
            changed = True

    def _exhaust_rule2(self) -> bool:
        changed = False
        while True:
            r = self.wl2.pop()
            if r is None:
                return changed
            if not self.g.has_vertex(r):
                continue
            w = _r2_witness(self.g, r)
            if w is None:
                continue
            self._apply(Rule2Match(r, w))
            changed = True

    def _try_rule3(self) -> bool:
        while True:
            v = self.wl3.pop()
            if v is None:
                return False
            if not self.g.has_vertex(v):
                continue
            r = _r3_red(self.g, v)
            if r is None:
                continue
            self._apply(Rule3Match(v, r))
            return True

    def _try_rule4(self) -> bool:
        g = self.g
        seeds = {x for x in self.seeds if x in g.adj}
        self.seeds.clear()
        near = _nbrs(g.adj, seeds)
        self.dirty4 |= g.blue & (seeds | near | _nbrs(g.adj, near))
        match = _first_rule4(g, self.dirty4)
        if match is None:
            self.dirty4.clear()
            return False
        # Pairs ordered before the match were just proven clean: drop their
        # lower endpoints from the dirty set.
        self.dirty4 = {x for x in self.dirty4 if x >= match.v}
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
        adj = self.g.adj
        for x in set.intersection(*(adj[b] for b in adj[r])):
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

    Walks the trace backward adding the forced vertices: the R3 witness,
    both endpoints for R4 case 1, and the forced endpoint for cases 3
    and 4.  Every other record lifts identically; in particular after an
    R4 case 2 the kernel solution already contains one of the two pair
    vertices, which dominates everything that record removed.
    """
    lifted = set(kernel_solution)
    if kernel_graph is not None and not verify_solution(kernel_graph, lifted):
        raise InvalidKernelSolutionError(
            "the given solution does not dominate the kernel graph")
    for rec in reversed(trace.records):
        if rec.tag == R3 or rec.tag == R4_CASE[3]:
            lifted.add(rec.witness[0])
        elif rec.tag == R4_CASE[4]:
            lifted.add(rec.witness[1])
        elif rec.tag == R4_CASE[1]:
            lifted.add(rec.witness[0])
            lifted.add(rec.witness[1])
    return lifted
