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
   non-subsumed candidate sets.

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
*part*, and :func:`min_rbds` solves the parts one by one.  The search
recurses twice per chosen set, so its stack depth is twice the optimum of
the part at hand; one mask over all parts would need twice the summed
optimum, which a union of many small components soon exceeds.

The memo lives as long as the engine, i.e. for one call.  A search deeper
than the interpreter's stack raises :class:`InstanceTooLargeError`, the
library's one "too large" answer.

Witness contract: among all minimum covers the lexicographically smallest
sorted id tuple is returned, so golden tests stay stable.  A minimum cover
is a minimum cover of each part, and the lex-min one is the union of the
parts' lex-min covers.  A part's cover is rebuilt in ascending id order,
keeping an id when the part's still-uncovered elements can then be covered
by the part's remaining budget; every such query runs on the same engine
and memo.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass

from .graph import RBGraph


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
    lexicographically smallest id set among the minimum solutions.

    Raises :class:`InstanceTooLargeError` when the search runs out of stack.
    """
    if any(not g.adj[r] for r in g.red):
        return INFEASIBLE
    blues = sorted(g.blue)
    engine = _Cover([g.adj[b] for b in blues])
    # A set lies inside one part, and the parts are increasing bit runs, so
    # the part of a set is the first one ending at or above its top bit.
    ends = [part.bit_length() for part in engine.parts]
    members: list[list] = [[] for _ in ends]
    for b, m in zip(blues, engine.masks):
        if m:
            members[bisect_left(ends, m.bit_length())].append((b, m))
    size = 0
    chosen: list[int] = []
    try:
        for part, sets in zip(engine.parts, members):
            best = engine.solve(part, part.bit_count())
            size += best
            # Keep a blue when a minimum cover of the part extends the blues
            # kept so far with it.  Asking over all the part's blues, not
            # just the later ones, changes no answer: a completion through a
            # skipped lower id would have kept that id at its turn.
            covered = kept = 0
            for b, m in sets:
                need = best - kept - 1
                if m & ~covered and engine.solve(part & ~(covered | m), need) <= need:
                    chosen.append(b)
                    covered |= m
                    kept += 1
                    if kept == best:
                        break
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

        # Breadth-first over the element graph, one component after another,
        # each rooted at its lowest-ranked element; ``order`` is the queue,
        # and it runs dry exactly when a component is complete.
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
        # Uncovered mask -> (value, exact); inexact values are lower bounds.
        self.memo: dict[int, tuple[int, bool]] = {}

    def solve(self, u: int, limit: int) -> int:
        """Size of a minimum cover of ``u`` if it is at most ``limit``, else
        a lower bound on it above ``limit``."""
        if not u:
            return 0
        hit = self.memo.get(u)
        if hit is None:
            low = self._packing(u)
        elif hit[1] or hit[0] > limit:
            return hit[0]
        else:
            low = max(self._packing(u), hit[0])
        value = low if low > limit else self._branch(u, limit, low)
        self.memo[u] = (value, value <= limit)
        return value

    def _packing(self, u: int) -> int:
        """Elements of ``u`` with pairwise disjoint covers, taken in bit
        order, i.e. layer by layer: each needs a set of its own.  Taking an
        element rules out every element it shares a set with."""
        reach = self.reach
        n = 0
        while u:
            u &= ~reach[(u & -u).bit_length() - 1]
            n += 1
        return n

    def _branch(self, u: int, limit: int, low: int) -> int:
        """Branch on the lowest element of ``u``, the first one left in the
        earliest uncovered layer; ``low`` is a lower bound on its cover size,
        at most ``limit``."""
        cands = {m & u for m in self.covers[(u & -u).bit_length() - 1]}
        # Branch only on maximal candidates, largest first: a cover using a
        # subsumed set stays a cover when it takes the larger one instead.
        kept: list[int] = []
        for m in sorted(cands, key=int.bit_count, reverse=True):
            if all(m & k != m for k in kept):
                kept.append(m)
        # Every element has a cover, so |u| + 1 exceeds any bound on u.
        best = u.bit_count() + 1
        for m in kept:
            best = min(best, 1 + self.solve(u & ~m, min(best - 1, limit) - 1))
            if best == low:
                break
        return best
