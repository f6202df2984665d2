"""The four reduction rules, the kernelization driver, and solution lifting.

The rules, in the order the driver exhausts them:

* R1: remove a blue vertex whose neighborhood another blue contains.
* R2: remove a red vertex whose neighborhood contains another red's.
* R3: a blue vertex with a nonempty private neighborhood is forced into
  every solution; remove it with its neighborhood and spend one unit of
  budget.  Once R1 and R2 are exhausted this degenerates to deleting a
  two-vertex component, which is how it is implemented.
* R4: for a pair of blues that is jointly forced (more than one shared
  private red, no third dominator), either both are forced (case 1), the
  pair's private reds collapse to a two-edge gadget (case 2), or one of
  the two is forced (cases 3 and 4).

Each tag has one function that holds its condition, its effect and its
record (R4's condition is :func:`_r4_case`): it checks its rule on the
graph as it is, raises ``GraphError`` and leaves the graph unchanged if the
rule does not apply, and otherwise applies it and returns the
:class:`RuleApplication`.  :func:`kernelize` fires them to a fixpoint and
logs every firing; :func:`replay_trace` re-runs the log forward, checking
each record, and :func:`lift_solution` walks it backward.
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
NO_COUNTING = "counting"


# -- trace records -------------------------------------------------------------


class RuleApplication(NamedTuple):
    """One rule firing: what a replay needs to re-derive it from the graph
    it applies to, and a lift to undo it.  ``added`` is the id of the red an
    R4 case 2 adds, None for every other tag.  Built per record with
    ``tuple.__new__(RuleApplication, (...))``, one C call and no Python
    frame, where ``_make`` and the class's generated ``__new__`` each run
    one; that skips the field-count check, so every site passes four
    fields."""

    tag: str
    witness: tuple
    delta_k: int
    added: int | None


@dataclass
class KernelTrace:
    records: list = field(default_factory=list)
    fingerprint: str | None = None  # fingerprint_instance of the input


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


def fingerprint_instance(inst: Instance) -> str:
    """``v=<vertices> e=<edges> sha=<digest>`` of ``inst``, the fields of a
    trace's ``c fingerprint`` line, the digest one of (k, B, R, E).

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
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return "v=%d e=%d sha=%s" % (g.n_vertices, len(keys), digest)


# -- finding matches -----------------------------------------------------------


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


def _top_blue_degree(g: RBGraph) -> int:
    """The largest degree of a blue of ``g``, 0 if it has none."""
    adj = g.adj
    return max(map(len, map(adj.__getitem__, g.blue)), default=0)


def _nbrs(adj: dict, vertices) -> set:
    return set().union(*(adj[v] for v in vertices))


def _r4_pairs(g: RBGraph) -> set:
    """The pairs (v < w) that two or more reds are private to, counted red
    by red on a graph that meets the bipartite Euler bound m <= 2n - 4, as
    every planar one does, and blue by blue, the faster on dense graphs,
    past it.  Both counters return that same set
    (tests/test_rules.py::TestRule4::test_pair_counting_matches_brute_force)."""
    return _count_per_red(g) if bipartite_euler_bound(g) else _count_per_blue(g)


def _count_per_red(g: RBGraph) -> set:
    """The pairs (v < w) that two or more reds are private to.

    With U(r) = N(N(r)), a red r is private to (a, w) iff U(r) lies within
    N(a) | N(w).  So one endpoint a is in N(r), and the partners w are the
    blues next to any one red of X = U(r) - N(a) that neighbor all of X.  X
    is empty only where R1, R2 or R3 applies (every other blue of N(r)
    would lie within a, every other red of N(a) would contain r, and {a, r}
    would be a component), and then the search raises
    (tests/test_rules.py::TestRule4::test_pair_counting_refuses_r3_match).
    With D the largest blue degree, a red whose U(r) has more than 2 * D
    vertices, and an endpoint whose X has more than D, count toward no pair
    and are skipped
    (tests/test_rules.py::TestRule4::test_pair_counting_matches_brute_force).
    Each pair is keyed by the int v * m + w, m one past the largest blue id,
    and kept once found twice.
    """
    adj = g.adj
    top = _top_blue_degree(g)
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


def _count_per_blue(g: RBGraph) -> set:
    """The pairs :func:`_count_per_red` returns, counted blue by blue, with
    its refusal where some red r has a neighbor a with N(a) = U(r): for a
    blue a, the partners of a red r of N(a) are the blues in every
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
    return {p for p, c in counts.items() if c > 1}


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
# R1's removed blue and R2's witness red must have a neighbor, as the
# driver's scans find them: an isolated blue is sanitize's, and an isolated
# red answers NO (tests/test_rules.py::TestApplyRule::test_isolated_vertex_match_refused).


def _refused(tag: str, witness: tuple) -> GraphError:
    return GraphError("%s does not apply at %s" % (tag, witness))


def _r1(g: RBGraph, witness: tuple) -> RuleApplication:
    """R1 at (b, b2): remove the blue b, whose neighborhood the blue b2
    contains."""
    b, b2 = witness
    adj, blue = g.adj, g.blue
    if b in blue and b2 in blue and b != b2 and adj[b] and adj[b] <= adj[b2]:
        g.remove_vertex(b)
        return tuple.__new__(RuleApplication, (R1, witness, 0, None))
    raise _refused(R1, witness)


def _r2(g: RBGraph, witness: tuple) -> RuleApplication:
    """R2 at (r, r2): remove the red r, whose neighborhood contains the red
    r2's."""
    r, r2 = witness
    adj, red = g.adj, g.red
    if r in red and r2 in red and r != r2 and adj[r2] and adj[r2] <= adj[r]:
        g.remove_vertex(r)
        return tuple.__new__(RuleApplication, (R2, witness, 0, None))
    raise _refused(R2, witness)


def _force(g: RBGraph, tag: str, witness: tuple) -> RuleApplication:
    """R4 cases 1, 3 and 4: remove the blues that ``_FORCED`` names, then
    their neighborhoods; the record pays one unit of budget for each forced
    blue."""
    forced = [witness[i] for i in _FORCED[tag]]
    for x in [*forced, *_nbrs(g.adj, forced)]:
        g.remove_vertex(x)
    return tuple.__new__(RuleApplication, (tag, witness, -len(forced), None))


def _r3(g: RBGraph, witness: tuple) -> RuleApplication:
    """R3 at (v,): force the blue v of a two-vertex component, that is,
    remove v, then its one red, for one unit of budget."""
    v = witness[0]
    r = _r3_at(g, v)
    if r is None:
        raise _refused(R3, witness)
    g.remove_vertex(v)
    g.remove_vertex(r)
    return tuple.__new__(RuleApplication, (R3, witness, -1, None))


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
    return tuple.__new__(RuleApplication, (tag, witness, 0, g.add_red_vertex(witness)))


def _san_edge(g: RBGraph, witness: tuple) -> RuleApplication:
    """Sanitize-edge at (u, v): remove the edge joining two vertices of one
    color."""
    u, v = witness
    adj = g.adj
    if u in adj and v in adj[u] and (u in g.blue) == (v in g.blue):
        g.remove_edge(u, v)
        return tuple.__new__(RuleApplication, (SAN_EDGE, witness, 0, None))
    raise _refused(SAN_EDGE, witness)


def _san_blue(g: RBGraph, witness: tuple) -> RuleApplication:
    """Sanitize-isolated-blue at (b,): remove the blue b, which has no
    neighbor."""
    b = witness[0]
    if b in g.blue and not g.adj[b]:
        g.remove_vertex(b)
        return tuple.__new__(RuleApplication, (SAN_BLUE, witness, 0, None))
    raise _refused(SAN_BLUE, witness)


def _san_no(g: RBGraph, witness: tuple) -> RuleApplication:
    """Sanitize-NO at (r,): the red r has no neighbor, so no blue can
    dominate it; the graph is left as it is."""
    if witness[0] in g.red and not g.adj[witness[0]]:
        return tuple.__new__(RuleApplication, (SAN_NO, witness, 0, None))
    raise _refused(SAN_NO, witness)


# Every tag's function but R4's, which takes the case _r4_case found.
_RULE = {R1: _r1, R2: _r2, R3: _r3, SAN_EDGE: _san_edge, SAN_BLUE: _san_blue, SAN_NO: _san_no}


def apply_rule(g: RBGraph, match: tuple) -> RuleApplication:
    """Mutate ``g`` according to a match, a (tag, witness) pair, and
    return its trace record, whose ``delta_k`` is the budget change.  A
    match whose rule does not apply at its witness, or whose witness does
    not have its tag's length, raises ``GraphError`` and leaves ``g``
    unchanged; an R4 tag must name the case :func:`_r4_case` finds."""
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
# kernelize keeps two pending sets, wl1, the blues R1 scans, and ``shrunk``,
# the reds R2 scans.  Each sweep scans once, empties its set and fires in
# ascending order, so of two equal neighborhoods the lower id goes
# (tests/test_rules.py::TestRule1::test_equal_neighborhoods_lower_id_removed).
# Each firing rechecks its rule, so a wrong scan stops the run
# (tests/test_kernelize.py::TestDriverChecksItsScans).  The records are
# those of the naive driver that rescans everything before each firing
# (tests/test_kernelize.py::TestReferenceEquivalence) by these facts:
#
# - Reach.  R1 at b changes only N(b), which joins ``shrunk``; R2 at x only
#   N(x), which joins wl1.  R4 changes only blues within distance two of its
#   pair, which join wl1, and of the live reds only case 2's added one, which
#   joins ``shrunk``: the forcing cases remove every red next to a forced blue
#   (tests/test_kernelize.py::TestReferenceEquivalence::test_on_r4_witness_unions).
#   An isolated blue and an R3 component change no other vertex.
# 1. During an R1 sweep no blue's neighborhood changes and blues only die,
#    so R1 takes at each blue's turn the least container still alive, as
#    the naive driver does
#    (tests/test_kernelize.py::TestReferenceEquivalence::test_r1_takes_the_least_container_alive_at_its_turn).
#    A blue gains a container, or loses its last red, only when its own
#    neighborhood changes, which puts it in wl1.  So wl1 holds every blue
#    with a container, and the isolated-blue sweep, which scans wl1 before
#    the R1 sweep empties it, finds every isolated blue.
# 2. No record grows a red's neighborhood, so after an R2 sweep a red gains
#    a witness r2 only when N(r2) shrinks or r2 is created, which puts r2 in
#    ``shrunk``
#    (tests/test_kernelize.py::TestReferenceEquivalence::test_case2_gadget_feeds_rule2).
#    Case 2's new red has no witness when it is created: a red within its
#    N = {v, w} would be private to the pair, and the same record removes it.
# 3. wl1 and ``shrunk`` start as every blue and every red, and a containment
#    survives the removal of a blue, so the first sweeps find every match
#    the input has.
#
# The R3 sweep runs only in a round that fired nothing, so R1 is exhausted
# and a degree-one blue is alone at its red: any other blue there would
# contain it (tests/test_kernelize.py::test_r3_applies_at_every_seed_once_r1_is_exhausted).


def kernelize(inst: Instance) -> KernelResult:
    """Shrink ``inst`` to an equivalent reduced instance or report NO.

    Sanitizes, exhausts R1 then R2, restarts on any change, then fires R3
    at every two-vertex component and tries R4, restarting after an R4
    application.  A red that no blue can dominate is answered NO by
    sanitize.  Before the first rule fires, the sanitized graph is answered
    NO by counting if it has more than k * D reds, D its largest blue
    degree: k blues dominate at most that many, on any graph
    (tests/test_kernelize.py::TestCountingIsSound).  This counting lemma is
    not one of the paper's rules.  The budget is checked after every
    firing.  At the fixpoint the result is NO if the graph has more than
    ``SIZE_FACTOR`` = 46 times the remaining budget vertices, and otherwise
    the reduced instance with its trace.  That size test, which makes the
    output a kernel, presumes a planar input; every record leaves a subgraph
    of its input up to renaming (R4 case 2's red on the pair stands for a
    removed private red, next to both ends), so a planar input stays planar
    (tests/test_planar_records.py).
    """
    if inst.k < 0:
        raise ValueError("budget must be non-negative, got %d" % inst.k)
    k = inst.k
    records: list[RuleApplication] = []
    trace = KernelTrace(records, fingerprint_instance(inst))
    wl1: set[int] = set()
    shrunk: set[int] = set()

    def r1_sweep() -> None:
        """Fire R1 at each contained blue of wl1, in ascending order, with
        its least live container at its turn as witness, and empty wl1."""
        for b in sorted(wl1):
            x = _least_container(adj, b)
            if x is not None:
                shrunk.update(adj[b])
                records.append(_r1(g, (b, x)))
        wl1.clear()

    def r2_sweep() -> None:
        """Fire R2 at each red x containing a red of ``shrunk``, in ascending
        order, with the least live one as witness, and empty ``shrunk``.
        The scan keeps every contained red, since the least has often died
        by x's turn, and a rescan of x would test every red next to N(x)."""
        found = _by_container(g, shrunk)
        shrunk.clear()
        for x in sorted(found):
            r2 = min(filter(adj.__contains__, found[x]), default=None)
            if r2 is not None:
                wl1.update(adj[x])
                records.append(_r2(g, (x, r2)))

    # The input is copied only once it is to change: before sanitize's
    # matches are applied, or else once the counting check has passed.
    g = inst.graph
    found = sanitize(g)
    if found:
        g = g.copy()
    for match in found:  # through apply_rule, which perfbench's tracer wraps
        records.append(apply_rule(g, match))
    if found and found[-1][0] == SAN_NO:
        return KernelResult("no", reason=NO_ISOLATED_RED, trace=trace)
    if len(g.red) > k * _top_blue_degree(g):
        return KernelResult("no", reason=NO_COUNTING, trace=trace)
    if not found:
        g = g.copy()
    adj = g.adj

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
    # No reds exactly when no blues, so the size test alone decides: sanitize
    # answered NO for a red without a blue, no record leaves one, and the
    # isolated-blue sweep leaves no blue without a red
    # (tests/test_kernelize.py::TestVerdicts).
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
