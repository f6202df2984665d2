"""Exact solver for red/blue domination.

Minimum red/blue domination is minimum set cover: the blues' neighborhoods
are the sets and the reds the elements.  :func:`min_rbds` builds one
:class:`_Cover` engine over that family and runs a memoized
branch-and-bound search on it.  The work at a node, the uncovered element
mask ``u`` under a limit, comes in this order:

1. memo: an exact value, or a lower bound above the limit, answers at once;
2. packing: a greedy packing lower bound, raised to any memoized bound,
   prunes when it exceeds the limit;
3. branch: on the lowest element of ``u``, over the element's
   non-subsumed candidate sets, one recursive call, i.e. one frame, per
   chosen set.

Element bits follow breadth-first layers of the element graph, two
elements joined when a set holds both, so the lowest uncovered element sits
on the frontier of what is covered.  The search then covers the family
front to back, one layer at a time, and different branches reach the same
uncovered mask: everything past the frontier, minus the few frontier
elements some branch covered.  The memo thus works as a frontier dynamic
program over a path decomposition whose bags are about two layers; on a
grid kernel the layers are diagonals, no longer than the grid's short side.
A node tests no connectivity and splits nothing: on this layout the memo
already keeps the masks few, and a per-node walk for components costs more
than the split saves.

The layout numbers each component of the family as one run of bits, its
*part*, and :func:`min_rbds` solves the parts one by one: the stack depth is
then the optimum of the part at hand, not the summed optimum
(tests/test_solver.py::TestMinRbds::test_many_components_solved_one_by_one),
and no memo mask carries one component along with another.

The memo lives as long as the engine, i.e. for one call.  A search deeper
than the interpreter's stack, or one that needs more than
:data:`MAX_STATES` memo entries, raises :class:`InstanceTooLargeError`, the
library's one "too large" answer.

Witness contract: the witness is a minimum cover, deterministic for a given
input and search; among blues with equal red sets, the lowest id.  It is
the union of the covers that each part's exact memo entries record
(:meth:`_Cover.walk`), so a change to the layout, the order or the pruning
may move the witness, but never the optimum.

Only a blue's red neighbors count as its set: an edge between two blues or
two reds dominates nothing, and a red with no blue neighbor makes the
instance infeasible.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from .graph import RBGraph


# The most memo entries, i.e. uncovered masks, one min_rbds call may hold.
# The 26 x 26 grid kernel needs 140,954 and is answered; the 28 x 28 one
# would need 487,599 and is refused.
MAX_STATES = 200_000


class InstanceTooLargeError(ValueError):
    """The exact search cannot answer this instance."""


@dataclass(frozen=True)
class SolveOutcome:
    """Either infeasible (size is None) or an optimum with a witness set."""

    size: int | None
    witness: frozenset | None

    @property
    def feasible(self) -> bool:
        return self.size is not None


INFEASIBLE = SolveOutcome(None, None)


def verify_solution(g: RBGraph, chosen) -> bool:
    """True iff ``chosen`` is a set of blue vertices dominating every red."""
    d = set(chosen)
    if not d <= g.blue:
        return False
    return all(g.adj[r] & d for r in g.red)


def min_rbds(g: RBGraph) -> SolveOutcome:
    """Exact minimum number of blues needed to dominate all reds, with the
    witness of the module's witness contract.

    Raises :class:`InstanceTooLargeError` when the search runs out of stack
    or needs more than :data:`MAX_STATES` memo states.
    """
    blues = sorted(g.blue)
    family = [g.adj[b] & g.red for b in blues]
    if not g.red <= set().union(*family):
        return INFEASIBLE
    engine = _Cover(family)
    blue_of: dict[int, int] = {}
    for b, m in zip(blues, engine.masks):
        blue_of.setdefault(m, b)
    size = 0
    chosen: list[int] = []
    try:
        for part in engine.parts:
            size += engine.solve(part, part.bit_count())
            chosen += map(blue_of.get, engine.walk(part))
    except RecursionError:
        raise InstanceTooLargeError(
            "instance too large for exact search: the search ran out of stack") from None
    return SolveOutcome(size, frozenset(chosen))


class _Cover:
    """Memoized minimum set cover over a fixed family of sets.

    Element bits are laid out breadth-first over the element graph: each
    component is rooted at its element with the fewest covering sets (ties
    to the lower id), and each placed element appends its unplaced
    neighbours in that same (cover count, id) order, first in first out.
    Every bit but a component's first thus shares a set with a lower bit,
    the breadth-first distance from the component's first bit never
    decreases along the bits, and each component is one run of bits, kept
    in ``parts`` in bit order.
    """

    def __init__(self, family: list):
        count = Counter(e for s in family for e in s)
        near = defaultdict(set)
        for s in family:
            for e in s:
                near[e].update(s)

        def rank(e):
            return count[e], e

        # ``order`` is the breadth-first queue, one component after another;
        # it runs dry exactly when a component is complete.
        order: list = []
        seen: set = set()
        self.parts: list[int] = []
        for root in sorted(count, key=rank):
            if root in seen:
                continue
            seen.add(root)
            head = start = len(order)
            order.append(root)
            while head < len(order):
                fresh = sorted(near[order[head]] - seen, key=rank)
                seen.update(fresh)
                order.extend(fresh)
                head += 1
            self.parts.append((1 << len(order)) - (1 << start))
        bit = {e: 1 << i for i, e in enumerate(order)}
        self.masks = [sum(bit[e] for e in s) for s in family]
        # covers[i]: the masks of the sets covering element i; reach[i]: the
        # elements sharing a set with element i, i included.
        self.covers: list[list[int]] = [[] for _ in order]
        self.reach = [0] * len(order)
        for m in self.masks:
            rest = m
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                self.covers[i].append(m)
                self.reach[i] |= m
                rest ^= low
        # apart[i]: the complement of reach[i], what packing keeps.
        self.apart = [~r for r in self.reach]
        # Uncovered mask -> (value, choice).  A value within the limit it was
        # searched under is exact and records the nonzero mask of the set
        # that reached it; any other value is a lower bound, with choice 0.
        # An exact entry is never overwritten.
        self.memo: dict[int, tuple[int, int]] = {}

    def solve(self, u: int, limit: int) -> int:
        """Size of a minimum cover of ``u`` if it is at most ``limit``, else
        a lower bound on it above ``limit``.  Branches on the lowest element
        of ``u``, the first one left in the earliest uncovered layer, one
        frame per chosen set."""
        if not u:
            return 0
        hit = self.memo.get(u)
        if hit is None:
            low = self._packing(u)
        elif hit[1] or hit[0] > limit:  # exact, or a bound past the limit
            return hit[0]
        else:
            low = max(self._packing(u), hit[0])
        best, choice = low, 0
        if low <= limit:
            # The candidates are the covering sets cut down to ``u``;
            # ``full`` maps each to the first set that gives it, to be
            # recorded.
            full: dict[int, int] = {}
            for m in self.covers[(u & -u).bit_length() - 1]:
                full.setdefault(m & u, m)
            # Branch only on maximal candidates, largest first and ties in
            # the order of their first set: a cover using a subsumed set
            # stays a cover when it takes the larger one instead.
            kept: list[int] = []
            for m in sorted(full, key=int.bit_count, reverse=True):
                if all(m & k != m for k in kept):
                    kept.append(m)
            # Every element has a cover, so |u| + 1 exceeds any bound on u.
            best = u.bit_count() + 1
            for m in kept:
                value = 1 + self.solve(u & ~m, min(best - 1, limit) - 1)
                if value < best:
                    best, choice = value, full[m]
                    if best == low:
                        break
        if hit is None and len(self.memo) >= MAX_STATES:
            raise InstanceTooLargeError(
                "instance too large for exact search: it needs more than MAX_STATES = "
                "%d memo states" % MAX_STATES)
        self.memo[u] = (best, choice if best <= limit else 0)
        return best

    def walk(self, u: int) -> list[int]:
        """A minimum cover of ``u``, which must be exact in the memo or 0:
        the sets recorded from ``u`` on.  The child of an exact entry is
        exact too, since its value was within its limit when it lowered the
        entry's best."""
        cover = []
        while u:
            m = self.memo[u][1]
            cover.append(m)
            u &= ~m
        return cover

    def _packing(self, u: int) -> int:
        """Elements of ``u`` with pairwise disjoint covers, taken in bit
        order, i.e. layer by layer: each needs a set of its own.  Taking an
        element rules out every element it shares a set with."""
        apart = self.apart
        n = 0
        while u:
            u &= apart[(u & -u).bit_length() - 1]
            n += 1
        return n
