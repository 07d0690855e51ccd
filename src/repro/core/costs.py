"""NPF timing model, calibrated to the paper's Figure 3 and Table 4.

The paper measures (Connect-IB, minor faults):

* 4 KB message (1 page):  ~220 µs total, ~90 % in hardware/firmware;
* 4 MB message (1024 pages): ~350 µs total — the increase is software
  (the OS translating/allocating more pages);
* invalidations: ~35 µs when the page was never IOMMU-mapped (checks
  only), ~60 µs when a hardware page-table update is needed;
* Table 4 tails: p50 215 µs, p95 250 µs, p99 261 µs, max 464 µs (4 KB).

The deterministic component budget below reproduces those means; the
tail comes from a lognormal jitter on the hardware components plus a
rare firmware slow path (~0.5 % of faults take ~2x), matching the
max/median ratio of Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp as _exp, log as _log
from typing import Optional

from ..sim.rng import NV_MAGICCONST as _NV_MAGICCONST, Rng
from ..sim.units import ms, us

__all__ = ["NpfCosts", "NpfBreakdown"]


@dataclass(slots=True)
class NpfBreakdown:
    """Per-fault latency split along Figure 3(a)'s components.

    Components map to the paper's (i)–(v) event intervals:
    ``trigger_interrupt`` (i→ii, hw only), ``driver`` (ii→iii, sw only),
    ``update_pt`` (iii→iv, sw + hw) and ``resume`` (iv→v, hw only).
    """

    trigger_interrupt: float
    driver: float
    update_pt: float
    resume: float
    swap: float = 0.0  # major-fault disk time, not part of Figure 3

    @property
    def total(self) -> float:
        return self.trigger_interrupt + self.driver + self.update_pt + self.resume + self.swap

    @property
    def hardware_fraction(self) -> float:
        hw = self.trigger_interrupt + 0.8 * self.update_pt + self.resume
        return hw / self.total if self.total else 0.0


@dataclass
class NpfCosts:
    """All NPF-path latency constants (seconds)."""

    # -- Figure 3(a): fault service -------------------------------------
    #: firmware detects the fault and raises the interrupt (hw only)
    interrupt: float = 100 * us
    #: driver NPF handler invocation + work-request parsing (sw only)
    driver_base: float = 14 * us
    #: OS physical-address query / allocation, per page (sw only)
    os_per_page: float = 0.10 * us
    #: driver <-> NIC page-table update handshake (sw + hw), base
    pt_update_base: float = 80 * us
    #: per-page portion of the page-table update
    pt_update_per_page: float = 0.027 * us
    #: NIC observes the update and resumes (hw only)
    resume: float = 25 * us

    # -- Figure 3(b): invalidation ----------------------------------------
    #: MR lookup + was-it-mapped checks (sw only)
    inv_checks: float = 18 * us
    #: hardware page-table update + invalidation ack (sw + hw)
    inv_update_pt: float = 30 * us
    #: driver internal-state updates (sw only)
    inv_updates: float = 10 * us

    # -- transports -----------------------------------------------------------
    #: firmware time to emit an RNR NACK upon an rNPF
    rnr_nack_generation: float = 2 * us
    #: RNR timer the NACK asks the sender to back off for; "faster than
    #: the basic NPF overhead" per §4
    rnr_timer: float = 150 * us
    #: RDMA-read rewind penalty (no RNR NACK possible; full timeout)
    read_rewind_timeout: float = 1 * ms

    # -- memory registration (pinning baselines) ----------------------------
    #: syscall + get_user_pages fixed cost per registration
    pin_base: float = 30 * us
    #: per-page pinning + IOMMU map cost
    pin_per_page: float = 0.35 * us
    #: deregistration fixed cost
    unpin_base: float = 15 * us
    #: per-page unpin + IOMMU unmap cost
    unpin_per_page: float = 0.15 * us

    # -- interrupts / copies ------------------------------------------------------
    #: interrupt dispatch latency to a driver/IOuser handler
    interrupt_dispatch: float = 4 * us
    #: host memcpy bandwidth, for backup-ring merges and copy baselines
    memcpy_bandwidth: float = 5 * 1024**3  # 5 GiB/s

    # -- jitter (Table 4 tails) ---------------------------------------------------
    jitter_sigma: float = 0.11
    slow_path_probability: float = 0.005
    slow_path_multiplier: float = 2.0
    rng: Optional[Rng] = field(default=None, repr=False)

    # ------------------------------------------------------------------ API --
    def _jitter(self, value: float) -> float:
        # Hot path: one draw per hardware component of every serviced
        # fault.  Uses the underlying ``random.Random`` bound methods
        # directly — same draws, same stream position as the wrapped
        # ``Rng.lognormal_jitter`` / ``Rng.bernoulli`` calls.
        rng = self.rng
        if rng is None:
            return value
        rand = rng._random.random
        # Inlined random.lognormvariate(0.0, sigma): the loop is
        # CPython's normalvariate() (Kinderman-Monahan) verbatim — same
        # uniform draws, same stream position, same float out.
        while True:
            u1 = rand()
            u2 = 1.0 - rand()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -_log(u2):
                break
        jittered = value * _exp(z * self.jitter_sigma)
        if rand() < self.slow_path_probability:
            jittered *= self.slow_path_multiplier
        return jittered

    # -- batch amortization (§4: one round-trip per faulting page range) ----
    def os_batch_time(self, n_pages: int) -> float:
        """Driver/OS phase for an ``n_pages`` batch: per-batch fixed cost
        (handler invocation, WQE parse) plus a per-page increment (PA
        query / allocation).  One scheduling decision regardless of N."""
        return self.driver_base + n_pages * self.os_per_page

    def pt_update_batch_time(self, n_pages: int) -> float:
        """NIC page-table update for an ``n_pages`` batch: one jittered
        driver<->NIC handshake per batch plus a per-page write cost."""
        return self._jitter(self.pt_update_base) + n_pages * self.pt_update_per_page

    def npf_breakdown(self, n_pages: int, swap_latency: float = 0.0) -> NpfBreakdown:
        """Latency breakdown for one NPF covering ``n_pages`` pages.

        ``swap_latency`` is the disk time for major faults (from the
        :class:`~repro.mem.swap.SwapDevice`), charged inside the driver
        phase but reported separately.
        """
        if n_pages < 1:
            raise ValueError(f"an NPF covers at least one page, got {n_pages!r}")
        return NpfBreakdown(
            trigger_interrupt=self._jitter(self.interrupt),
            driver=self.os_batch_time(n_pages),
            update_pt=self.pt_update_batch_time(n_pages),
            resume=self._jitter(self.resume),
            swap=swap_latency,
        )

    def memcpy_time(self, size_bytes: int) -> float:
        return size_bytes / self.memcpy_bandwidth

    def pin_time(self, n_pages: int) -> float:
        """Registration cost for pinning ``n_pages`` pages."""
        return self.pin_base + n_pages * self.pin_per_page

    def unpin_time(self, n_pages: int) -> float:
        """Deregistration cost for unpinning ``n_pages`` pages."""
        return self.unpin_base + n_pages * self.unpin_per_page
