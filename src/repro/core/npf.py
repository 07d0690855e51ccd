"""Network page fault (NPF) event records.

These are the observable artifacts of the paper's mechanism: every
fault serviced by the driver produces an :class:`NpfEvent` with its
Figure 3 breakdown, and every MMU-notifier invalidation updates the
:class:`NpfLog`'s constant-size invalidation aggregates.  Experiments
aggregate them for Figure 3 and Table 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.stats import StreamingSummary, Summary
from .costs import NpfBreakdown

__all__ = ["NpfKind", "NpfSide", "NpfEvent", "NpfLog"]


class NpfKind(enum.Enum):
    """Minor = page never present / reclaimed without content; major = swap read."""

    MINOR = "minor"
    MAJOR = "major"


class NpfSide(enum.Enum):
    """Which datapath hit the fault (paper §4: four concurrent classes)."""

    SEND = "send"                    # initiator read of local memory
    RECEIVE = "receive"              # responder write of incoming data
    RDMA_READ_INITIATOR = "rdma-read-initiator"
    RDMA_WRITE_RESPONDER = "rdma-write-responder"


@dataclass(slots=True)
class NpfEvent:
    """One serviced network page fault."""

    time: float
    side: NpfSide
    kind: NpfKind
    n_pages: int
    breakdown: NpfBreakdown
    channel: str = ""

    @property
    def latency(self) -> float:
        return self.breakdown.total


class NpfLog:
    """Accumulates fault events and invalidation aggregates for the
    experiments.

    Invalidations are never kept one by one, in either mode: the driver
    adds each page's Figure 3(b) components to running sums, page by
    page in invalidation order, so each ``*_sum`` equals a left-to-right
    sum over a per-page list bit for bit.

    Faults have two modes:

    * ``keep_events=True`` (default) retains every :class:`NpfEvent` —
      experiments slice them freely and compute exact percentiles.
    * ``keep_events=False`` is the streaming mode for benchmarks and
      long soak runs: events are dropped after updating bounded-memory
      :class:`~repro.sim.stats.StreamingSummary` accumulators (online
      count/sum/min/max plus P² percentile estimates), overall and
      per side.
    """

    def __init__(self, keep_events: bool = True):
        self.keep_events = keep_events
        self.npf_events: List[NpfEvent] = []
        self.npf_count = 0
        self.minor_count = 0
        self.major_count = 0
        #: Pages invalidated, and how many of them had an I/O PTE.
        self.invalidation_count = 0
        self.invalidation_mapped = 0
        #: Page-order running sums of Figure 3(b)'s components (checks,
        #: hw page-table update, sw updates) and of their per-page total.
        self.invalidation_checks_sum = 0.0
        self.invalidation_update_pt_sum = 0.0
        self.invalidation_updates_sum = 0.0
        self.invalidation_latency_sum = 0.0
        self._stream_all: Optional[StreamingSummary] = None
        self._stream_by_side: Dict[NpfSide, StreamingSummary] = {}
        if not keep_events:
            self._stream_all = StreamingSummary()

    def record_npf(self, event: NpfEvent) -> None:
        self.npf_count += 1
        if event.kind is NpfKind.MAJOR:
            self.major_count += 1
        else:
            self.minor_count += 1
        if self.keep_events:
            self.npf_events.append(event)
            return
        latency = event.breakdown.total
        self._stream_all.add(latency)
        per_side = self._stream_by_side.get(event.side)
        if per_side is None:
            per_side = self._stream_by_side[event.side] = StreamingSummary()
        per_side.add(latency)

    # -- allocation-lean streaming entry points -------------------------------
    # The batched fault-service pipeline uses these when ``keep_events``
    # is off: the caller passes the already-summed latency so no
    # NpfEvent / breakdown objects are allocated per fault.

    def record_npf_total(self, side: NpfSide, kind: NpfKind, latency: float) -> None:
        """Streaming-mode record of one serviced fault (no event object).

        Updates the same counters and the same :class:`StreamingSummary`
        accumulators as :meth:`record_npf` would for an equivalent event.
        Only valid with ``keep_events=False``.
        """
        if self.keep_events:
            raise ValueError("record_npf_total requires keep_events=False")
        self.npf_count += 1
        if kind is NpfKind.MAJOR:
            self.major_count += 1
        else:
            self.minor_count += 1
        self._stream_all.add(latency)
        per_side = self._stream_by_side.get(side)
        if per_side is None:
            per_side = self._stream_by_side[side] = StreamingSummary()
        per_side.add(latency)

    def latencies(self, side: Optional[NpfSide] = None) -> List[float]:
        return [
            ev.latency
            for ev in self.npf_events
            if side is None or ev.side is side
        ]

    def npf_summary(self, side: Optional[NpfSide] = None) -> Summary:
        """Latency summary of serviced NPFs, overall or for one side.

        Works in both modes: exact percentiles when events are retained,
        P² estimates in streaming mode.  Raises ``ValueError`` when no
        matching fault has been recorded.
        """
        if self.keep_events:
            return Summary.of(self.latencies(side))
        if side is None:
            stream = self._stream_all
        else:
            stream = self._stream_by_side.get(side)
        if stream is None or not stream.count:
            raise ValueError("summary of empty sample set")
        return stream.summary()
