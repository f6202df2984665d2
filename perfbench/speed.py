"""Machine-speed normalization for timings taken on a shared machine.

On a machine shared with other tenants the speed of the same pure-Python
code drifts in phases of seconds by 25% or more, which would swamp the
differences the benchmark exists to show.  A fixed probe of the kind of
interpreter work rbkernel does (heap-ordered graph walk, neighborhood
subset tests and unions, a small text round trip, big-integer bitmask
arithmetic as in the exact solver) is timed between
operations; each measured duration is divided by the probe times on both
sides of it and multiplied by :data:`PROBE_S`.  Reported times are therefore
seconds on a machine on which the probe takes ``PROBE_S`` seconds.  The
probe belongs to the benchmark, so a change to rbkernel cannot move it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

PROBE_S = 0.02  # the probe's duration that defines a normalized second


def _probe_graph(n: int = 2000) -> dict:
    """Fixed sparse random graph the probe walks."""
    rng = random.Random(7)
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, 2)):
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _probe_work(adj: dict) -> int:
    acc = 0
    seen = {0}
    heap = [0]
    while heap:
        v = heapq.heappop(heap)
        nv = adj[v]
        for u in sorted(nv):
            if u not in seen:
                seen.add(u)
                heapq.heappush(heap, u)
            if nv <= adj[u] | {u}:
                acc += 1
        if v % 3 == 0:
            cands = set()
            for u in nv:
                cands |= adj[u]
            acc += len(cands)
    text = "\n".join("e %d %d" % (v, min(adj[v])) for v in range(0, len(adj), 4))
    acc += sum(int(line.split()[2]) for line in text.splitlines())
    masks = [((1 << 180) - 1) // (2 * i + 3) for i in range(160)]
    for rnd in range(25):
        for i, m in enumerate(masks):
            other = masks[(i * 7 + rnd) % len(masks)]
            rest = m & ~other
            acc += (rest | other >> 3).bit_count() + (rest & -rest).bit_length()
    return acc


class SpeedClock:
    """Turns raw durations into normalized seconds.

    Call :meth:`normalize` right after each measured interval; it probes
    again and scales the interval by the mean of the probe taken before the
    interval (the previous call's, or the constructor's) and the new one.
    ``probes`` keeps every probe time.
    """

    def __init__(self) -> None:
        self._adj = _probe_graph()
        self.last = self.probe()
        self.probes = [self.last]

    def probe(self) -> float:
        """Seconds the fixed probe takes right now."""
        start = perf_counter()
        _probe_work(self._adj)
        return perf_counter() - start

    def normalize(self, seconds: float) -> float:
        before, self.last = self.last, self.probe()
        self.probes.append(self.last)
        return seconds * PROBE_S * 2 / (before + self.last)
