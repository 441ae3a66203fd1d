"""Machine-speed probe and the scaling of a run's times by it.

The benchmark shares a small virtual machine with other tenants, and its
speed moves by up to 2x in phases that last from under a second to minutes:
one build of the same graph took 1.3 s in one run and 2.5 s in the next.  A
run's wall times therefore track those phases as much as the program.  The
measured process times a fixed piece of pure-Python work, `probe`, after
each group of timed operations, so probes and operations sample the same
phases in the same proportions.  Phases do not slow all code alike, so the
probe mixes allocating searches, as builds run, with lookups that return
small results, as queries run.  A metric is the median of its wall-time
samples times the run's speed, `PROBE_REF_S` over the median probe time.
It reads in seconds at the reference speed: a change to the program moves
it as it moves wall time, while a slow phase of the machine moves the probe
as well and mostly cancels.

The probe is the benchmark's own code, so no change to the library can move
it, and it runs with the garbage collector paused, so the size of the
program's heap does not change its time either.  Wall-time medians and the
speed stay in each run's record and printout beside the scaled metrics.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

# Probe time at the reference speed: about the median on a 2-vCPU VM with
# Python 3.11.7.  It only sets the scale the metrics read in.
PROBE_REF_S = 0.045

_NODES = 1200
_DEGREE = 5
_ROWS = 50
_rng = random.Random(20260101)
_GRAPH = [[(_rng.randrange(_NODES), _rng.randint(1, 20))
           for _ in range(_DEGREE)] for _ in range(_NODES)]
_PAIRS = [(_rng.random() < 0.2, _rng.randrange(_ROWS), _rng.randrange(_ROWS))
          for _ in range(4096)]


class _Chain:
    """Search path node, as the library's lexicographic searches use."""
    __slots__ = ("node", "parent", "weight", "nedges")

    def __init__(self, node, parent, weight, nedges):
        self.node = node
        self.parent = parent
        self.weight = weight
        self.nedges = nedges


class _Entry:
    __slots__ = ("key", "chain")

    def __init__(self, chain):
        self.key = (chain.weight, chain.nedges)
        self.chain = chain

    def __lt__(self, other):
        if self.key != other.key:
            return self.key < other.key
        return self.chain.node < other.chain.node


def _search(source: int) -> int:
    best = {source: _Chain(source, None, 0, 0)}
    settled = {}
    heap = [_Entry(best[source])]
    while heap:
        chain = heapq.heappop(heap).chain
        node = chain.node
        if node in settled or best[node] is not chain:
            continue
        settled[node] = chain
        for head, w in _GRAPH[node]:
            if head in settled:
                continue
            cand = _Chain(head, chain, chain.weight + w, chain.nedges + 1)
            cur = best.get(head)
            if cur is None or (cand.weight, cand.nedges) < (cur.weight,
                                                            cur.nedges):
                best[head] = cand
                heapq.heappush(heap, _Entry(cand))
    return len(settled)


class _Table:
    """Lookups and small results, as the oracle's queries make them."""
    __slots__ = ("rows", "edge_of")

    def __init__(self):
        self.rows = [[_rng.randint(1, 99) for _ in range(_ROWS)]
                     for _ in range(_ROWS)]
        self.edge_of = [_rng.randrange(4 * _ROWS) for _ in range(4 * _ROWS)]

    def lookup(self, s: int, t: int):
        w = self.rows[s][t]
        return (w, w & 3), s ^ t

    def expand(self, s: int, t: int) -> list[int]:
        (w, _), idx = self.lookup(s, t)
        edge_of = self.edge_of
        return sorted({edge_of[(idx + w * j) % len(edge_of)]
                       for j in range(w % 6 + 2)})


_TABLE = _Table()


def probe() -> float:
    """Wall time of the fixed probe work, in seconds: searches that allocate
    as a build does, then lookups with small results as queries make."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for s in range(3):
            _search(s)
        lookup, expand = _TABLE.lookup, _TABLE.expand
        for _ in range(8):
            for rep, s, t in _PAIRS:
                if rep:
                    expand(s, t)
                else:
                    lookup(s, t)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Paced:
    """Operations timed with a probe after each group of them, so that a
    run takes its probes in step with its operations, in slow phases and
    fast ones alike."""

    def __init__(self):
        self.probes: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.step()

    def add(self, name: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)

    def step(self, probes: int = 1) -> None:
        self.probes.extend(probe() for _ in range(probes))

    def timed(self, name: str, fn, repeats: int = 1, probes: int = 1):
        """Call `fn` `repeats` times, store each wall time, take `probes`
        probes; returns the last result."""
        times = []
        out = None
        for _ in range(repeats):
            out = None
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        self.add(name, times)
        self.step(probes)
        return out

    def record(self) -> dict:
        return {"probes": self.probes, "samples": self.samples}


def speed_of(record: dict) -> float:
    """The run's speed relative to the reference machine: the reference
    probe time over the run's median probe time."""
    return PROBE_REF_S / statistics.median(record["probes"])


def scaled_median(record: dict, name: str, rate: bool = False) -> float:
    """Median of the samples of `name` in reference-speed units: a time is
    multiplied by the run's speed, a per-second rate divided by it."""
    raw = statistics.median(record["samples"][name])
    return raw / speed_of(record) if rate else raw * speed_of(record)
