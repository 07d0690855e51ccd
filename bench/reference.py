"""A fixed pure-Python loop that measures how fast the host runs Python now.

The machine this benchmark runs on is shared: identical passes of a
workload differ by ~10% from one pass to the next, and the whole host
drifts by 20% or more over minutes.  Timing this loop next to every
measurement and rescaling by ``NOMINAL_S / measured`` reports times at
one nominal host speed; that cut the run-to-run spread of pass wall
times about threefold (e.g. 10.7% -> 3.6% IQR over median for
``kv_dynamic``, ten runs).

The loop is shaped like the simulator's inner loop -- a heap of slotted
events, each resuming a generator process that updates a dict -- and
imports nothing from ``src``, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, Iterator

#: Median time of one :func:`reference_loop` on the host the committed
#: baseline was recorded on (see ``bench/baseline.json``).  Times
#: rescaled by it read as seconds on that host.
NOMINAL_S = 0.033


class _Event:
    __slots__ = ("t", "seq", "gen")

    def __init__(self, t: float, seq: int, gen: Iterator[float]):
        self.t = t
        self.seq = seq
        self.gen = gen

    def __lt__(self, other: "_Event") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)


def _process(k: int, counts: Dict[int, int]) -> Iterator[float]:
    x = k + 1
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        counts[x & 255] = counts.get(x & 255, 0) + 1
        yield (x % 997) * 1e-6


def reference_loop(n_events: int = 20000, n_procs: int = 64) -> int:
    heap = []
    counts: Dict[int, int] = {}
    for k in range(n_procs):
        gen = _process(k, counts)
        heap.append(_Event(next(gen), k, gen))
    heapq.heapify(heap)
    seq = n_procs
    for _ in range(n_events):
        ev = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, _Event(ev.t + next(ev.gen), seq, ev.gen))
    return len(counts)


def time_reference(samples: int) -> list:
    """Wall time of ``samples`` runs of the reference loop."""
    gc.collect()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def host_factor(reference_times: list) -> float:
    """Multiply a wall time by this to read it at the nominal host speed."""
    return NOMINAL_S / statistics.median(reference_times)
