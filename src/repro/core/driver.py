"""The NPF driver — the IOprovider side of the paper's Figure 2 flows.

``NpfDriver.service_fault_async`` is the fault flow (steps 1–4):
interrupt, OS fault-in (minor or major), batched I/O page-table update,
resume — driven as a chain of event callbacks (one timeout per phase,
no generator machinery).  ``NpfDriver.service_fault`` is the same flow
in generator form for process-style composition.
``NpfDriver.invalidate_range`` is the invalidation flow (steps a–d),
invoked from MMU-notifier context when the OS evicts or unmaps pages;
``NpfDriver.invalidate`` is its single-page form.

The three §4 optimizations are all here and individually switchable for
the ablation benchmarks:

* **batching** (`batch_prefault=True`) — on a fault, pre-fault *all*
  unmapped pages of the triggering work request in one go, instead of
  ATS/PRI's one-page-per-request;
* **concurrency** (`concurrent_fault_classes`) — one outstanding fault
  per (channel, side) class, four classes per IOchannel;
* **firmware bypass** (`firmware_bypass=True`) — a fault raised while a
  same-class fault is in flight is not re-reported: it waits for the
  in-flight resolution and pays only the fast resume path.

Batch-pipeline extensions (all default-off so the calibrated experiment
outputs stay bit-identical; see DESIGN.md "Batched fault-service
pipeline"):

* **coalescing** (`coalesce_faults=True`) — a fault whose page range
  overlaps or abuts a same-class fault that has not yet reached its OS
  phase merges into it: one driver→OS→IOMMU round-trip serves both,
  and both callers complete on the same event.  No extra slot is taken,
  so the ≤4-concurrent-NPFs-per-QP bound is preserved by construction.
* **swap bursting** (`swap_burst=True`) — a batch's major faults are
  read from swap in one burst (single seek) instead of one seek each.
* **IOTLB warming** (`warm_iotlb=True`) — the batched page-table update
  pre-loads the new translations into the IOTLB with one coalesced
  fill.
"""

from __future__ import annotations

from math import exp as _exp, log as _log
from typing import Dict, List, Optional, Tuple

from ..analysis import hooks as _hooks
from ..iommu.iommu import Iommu
from ..mem.memory import AddressSpace, Region
from ..sim.engine import Environment, Event
from ..sim.resources import Resource
from ..sim.rng import NV_MAGICCONST as _NV_MAGICCONST
from .costs import NpfBreakdown, NpfCosts
from .npf import NpfEvent, NpfKind, NpfLog, NpfSide
from .regions import MemoryRegion, OdpMemoryRegion, PinnedMemoryRegion

__all__ = ["NpfDriver"]

# Sentinel distinguishing "vpn not mapped" from any legitimate PTE value
# in the single-lookup ``dict.pop`` fast path of :meth:`invalidate_range`.
_UNMAPPED = object()


class _FaultOp:
    """One in-flight NPF service operation (callback pipeline).

    Drives the same four phases as the generator flow — interrupt, OS
    fault-in, batched PT update, resume — as chained event callbacks:
    the phase methods below are stored bare as each timeout's
    ``callbacks`` (see ``engine._NO_WAITERS``).  Heap-push counts, event
    times and RNG draw order are exactly those of the historical
    process/generator path, so experiment outputs are bit-identical.

    ``pages is None`` marks the pre-OS window: until ``_resolve`` runs
    (slot acquired), a coalescing driver may still widen
    ``vpn``/``n_pages`` in place.
    """

    __slots__ = ("driver", "mr", "vpn", "n_pages", "side", "channel",
                 "done", "ckey", "slot", "holds", "bypassed", "pages",
                 "interrupt", "driver_time", "swap_latency", "update_pt",
                 "resume_time", "majors")

    def __init__(self, driver: "NpfDriver", mr: MemoryRegion, vpn: int,
                 n_pages: int, side: NpfSide, channel: str):
        self.driver = driver
        self.mr = mr
        self.vpn = vpn
        self.n_pages = n_pages
        self.side = side
        self.channel = channel
        self.done: Event = driver.env.event()
        self.ckey: Optional[Tuple[str, object]] = None
        self.slot: Optional[Resource] = None
        self.holds = False
        self.bypassed = False
        self.pages: Optional[list] = None
        self.swap_latency = 0.0
        self.majors = 0

    # -- phase 0: bootstrap (slot acquisition) ------------------------------
    def _start(self, _hook: Event) -> None:
        try:
            driver = self.driver
            slot = driver._slot_for(self.channel, self.side)
            self.slot = slot
            if slot.try_acquire():
                self.holds = True
                self._resolve()
            else:
                # Same-class fault already in flight.  With the firmware
                # bypass bitmap the new fault is not re-reported: it waits
                # for the in-flight resolution and pays only the fast
                # resume path once granted.
                if driver.firmware_bypass:
                    self.bypassed = True
                slot.acquire().callbacks.append(self._granted)
        except BaseException as exc:
            self._abort(exc)

    def _granted(self, _ev: Event) -> None:
        self.holds = True
        try:
            self._resolve()
        except BaseException as exc:
            self._abort(exc)

    # -- phase 1: fault detected, firmware raises the interrupt -------------
    def _resolve(self) -> None:
        driver = self.driver
        mr = self.mr
        costs = driver.costs
        if isinstance(mr, OdpMemoryRegion):
            n_pages = self.n_pages if driver.batch_prefault else 1
            if n_pages == 1:
                # Single-page form of unmapped_vpns (range clamp + one
                # page-table probe), minus two method hops.
                v = self.vpn
                if v in mr._vpn_range and v not in mr.domain._entries:
                    pages = [v]
                else:
                    pages = []
            else:
                pages = mr.unmapped_vpns(self.vpn, n_pages)
        else:
            pages = []
        self.pages = pages

        if not pages:
            # Resolved concurrently.  With the firmware-bypass bitmap the
            # fault was never re-reported, so only the fast hardware
            # resume is charged; without it, the firmware re-raises the
            # interrupt and the driver discovers there is nothing to do.
            resume = costs._jitter(costs.resume)
            if driver.firmware_bypass:
                interrupt = 0.0
                driver_time = 0.0
            else:
                interrupt = costs._jitter(costs.interrupt)
                driver_time = costs.driver_base
            self.interrupt = interrupt
            self.driver_time = driver_time
            self.resume_time = resume
            driver.env.after(
                interrupt + costs.interrupt_dispatch + driver_time + resume,
                self._finish_empty,
            )
            return

        # (1)-(2): fault detected, firmware raises the NPF interrupt.
        interrupt = 0.0 if self.bypassed else costs._jitter(costs.interrupt)
        self.interrupt = interrupt
        driver.env.after(interrupt + costs.interrupt_dispatch, self._os_phase)

    # -- phase 2: the driver queries the OS (fault-in) ----------------------
    def _os_phase(self, _ev: Event) -> None:
        try:
            driver = self.driver
            costs = driver.costs
            # The per-page CPU trap cost is *not* charged here: the driver
            # resolves the whole batch in one pass (that is what
            # os_batch_time models), so only disk reads and reclaim
            # writebacks remain — resolved with one bulk walk, split
            # exactly as the per-page loop would.
            batch = self.mr.space.touch_vpns(
                self.pages, swap_burst=driver.swap_burst
            )
            swap_latency = batch.swap_extra
            inject = driver.inject
            if inject is not None:
                swap_latency += inject.extra_fault_latency(
                    self.channel, self.side, len(self.pages)
                )
            self.swap_latency = swap_latency
            self.majors = batch.majors
            driver_time = costs.os_batch_time(len(self.pages)) + batch.evict_extra
            self.driver_time = driver_time
            driver.env.after(driver_time + swap_latency, self._pt_phase)
        except BaseException as exc:
            self._abort(exc)

    # -- phase 3: batched I/O page-table update -----------------------------
    def _pt_phase(self, _ev: Event) -> None:
        try:
            driver = self.driver
            mr = self.mr
            pages = self.pages
            translate = mr.space.translate
            if len(pages) == 1 and not driver.warm_iotlb:
                # Single-entry form of map_batch: same validation, same
                # page-table state, ``maps`` count and sanitizer check,
                # no dict or hops.
                v = pages[0]
                frame = translate(v)
                if frame is not None:
                    if frame < 0:
                        raise ValueError(f"invalid frame {frame!r}")
                    domain = mr.domain
                    domain._entries[v] = frame
                    domain.maps += 1
                    if _hooks.active is not None:
                        _hooks.active.on_pt_map(domain, v, frame)
            else:
                entries = {}
                for v in pages:
                    frame = translate(v)
                    if frame is not None:
                        entries[v] = frame
                driver.iommu.map_batch(
                    mr.domain.domain_id, entries, warm_iotlb=driver.warm_iotlb
                )
            update_pt = driver.costs.pt_update_batch_time(len(pages))
            self.update_pt = update_pt
            driver.env.after(update_pt, self._resume_phase)
        except BaseException as exc:
            self._abort(exc)

    # -- phase 4: firmware observes the update and resumes ------------------
    def _resume_phase(self, _ev: Event) -> None:
        try:
            driver = self.driver
            resume = driver.costs._jitter(driver.costs.resume)
            self.resume_time = resume
            driver.env.after(resume, self._finish)
        except BaseException as exc:
            self._abort(exc)

    # -- completion ---------------------------------------------------------
    def _finish(self, _ev: Event) -> None:
        driver = self.driver
        log = driver.log
        kind = NpfKind.MAJOR if self.majors else NpfKind.MINOR
        if log.keep_events:
            breakdown = NpfBreakdown(
                self.interrupt, self.driver_time, self.update_pt,
                self.resume_time, self.swap_latency,
            )
            event = NpfEvent(driver.env.now, self.side, kind,
                             len(self.pages), breakdown, self.channel)
            log.record_npf(event)
        else:
            # Allocation-lean streaming record: same latency sum (same
            # float association as NpfBreakdown.total), no event object.
            log.record_npf_total(
                self.side, kind,
                self.interrupt + self.driver_time + self.update_pt
                + self.resume_time + self.swap_latency,
            )
            event = None
        if self.ckey is not None:
            self._unregister()
        self.slot.release()
        self.done.succeed(event)

    def _finish_empty(self, _ev: Event) -> None:
        driver = self.driver
        log = driver.log
        if log.keep_events:
            breakdown = NpfBreakdown(
                self.interrupt, self.driver_time, 0.0, self.resume_time,
            )
            event = NpfEvent(driver.env.now, self.side, NpfKind.MINOR, 0,
                             breakdown, self.channel)
            log.record_npf(event)
        else:
            log.record_npf_total(
                self.side, NpfKind.MINOR,
                self.interrupt + self.driver_time + self.resume_time,
            )
            event = None
        if self.ckey is not None:
            self._unregister()
        self.slot.release()
        self.done.succeed(event)

    # -- failure ------------------------------------------------------------
    def _abort(self, exc: BaseException) -> None:
        if self.ckey is not None:
            self._unregister()
        if self.holds:
            self.holds = False
            self.slot.release()
        self.done.fail(exc)

    def _unregister(self) -> None:
        ops = self.driver._inflight.get(self.ckey)
        if ops is not None:
            try:
                ops.remove(self)
            except ValueError:
                pass


class NpfDriver:
    """Services NPFs and invalidations for every ODP MR of one host."""

    def __init__(
        self,
        env: Environment,
        iommu: Iommu,
        costs: Optional[NpfCosts] = None,
        log: Optional[NpfLog] = None,
        batch_prefault: bool = True,
        firmware_bypass: bool = True,
        concurrent_fault_classes: bool = True,
        coalesce_faults: bool = False,
        swap_burst: bool = False,
        warm_iotlb: bool = False,
    ):
        self.env = env
        self.iommu = iommu
        self.costs = costs or NpfCosts()
        self.log = log or NpfLog()
        self.batch_prefault = batch_prefault
        self.firmware_bypass = firmware_bypass
        self.concurrent_fault_classes = concurrent_fault_classes
        self.coalesce_faults = coalesce_faults
        self.swap_burst = swap_burst
        self.warm_iotlb = warm_iotlb
        self.coalesced_faults = 0
        #: Optional fault-injection hook (duck-typed; the scenario fuzzer
        #: installs one to model arbitrarily slow resolutions).  When set,
        #: ``extra_fault_latency(channel, side, n_pages) -> float`` is added
        #: to the fault's OS-phase latency.  ``None`` — the default
        #: everywhere outside fuzzing — costs one attribute load per fault.
        self.inject = None
        # One in-flight fault per (channel, side) class; a single shared
        # slot per channel when class concurrency is disabled.
        self._slots: Dict[Tuple[str, object], Resource] = {}
        # Fault ops still in their pre-OS window, per class (coalescing).
        self._inflight: Dict[Tuple[str, object], List[_FaultOp]] = {}

    # -- MR factories ----------------------------------------------------------
    def register_odp(self, space: AddressSpace, region: Region, domain=None) -> OdpMemoryRegion:
        """Create an ODP MR over ``region`` (no pinning, lazy mapping)."""
        domain = domain or self.iommu.create_domain()
        return OdpMemoryRegion(space, region, self.iommu, domain, self)

    def register_odp_implicit(self, space: AddressSpace, domain=None) -> OdpMemoryRegion:
        """ODP MR covering the whole address space (mlx5's implicit ODP).

        This is what gives IOusers the paper's headline programming model:
        every virtual address is a valid DMA target, no registration
        bookkeeping at all.
        """
        region = Region(base=0, size=1 << 47, name="implicit-odp")
        domain = domain or self.iommu.create_domain()
        return OdpMemoryRegion(space, region, self.iommu, domain, self)

    def register_pinned(self, space: AddressSpace, region: Region, domain=None) -> PinnedMemoryRegion:
        """Create a classic pinned MR (the paper's baseline)."""
        domain = domain or self.iommu.create_domain()
        return PinnedMemoryRegion(space, region, self.iommu, domain, self.costs)

    # -- fault flow (Figure 2, left) ----------------------------------------------
    def _class_key(self, channel: str, side: NpfSide) -> Tuple[str, object]:
        return (channel, side) if self.concurrent_fault_classes else (channel, None)

    def _slot_for(self, channel: str, side: NpfSide) -> Resource:
        key = self._class_key(channel, side)
        slot = self._slots.get(key)
        if slot is None:
            slot = Resource(self.env, 1)
            self._slots[key] = slot
        return slot

    def service_fault_async(
        self,
        mr: MemoryRegion,
        vpn: int,
        n_pages: int = 1,
        side: NpfSide = NpfSide.RECEIVE,
        channel: str = "",
    ) -> Event:
        """The full NPF service flow; returns an :class:`Event` that fires
        with the :class:`NpfEvent` (or ``None`` in streaming-log mode).

        ``n_pages`` is the extent of the triggering work request starting
        at ``vpn``; with batching enabled, every still-unmapped page of
        that extent is resolved under this single fault.  One heap push
        at call time (the bootstrap hook), one per phase after that —
        the allocation-lean spine of the batched fault pipeline.
        """
        if self.coalesce_faults:
            merged = self._try_coalesce(mr, vpn, n_pages, side, channel)
            if merged is not None:
                return merged
            op = _FaultOp(self, mr, vpn, n_pages, side, channel)
            key = self._class_key(channel, side)
            op.ckey = key
            ops = self._inflight.get(key)
            if ops is None:
                ops = self._inflight[key] = []
            ops.append(op)
        else:
            op = _FaultOp(self, mr, vpn, n_pages, side, channel)
        # Bootstrap: acquire the slot at the current time, after every
        # event already queued — faults issued at one timestamp contend
        # in issue order, exactly like process creation order.
        self.env.defer(op._start)
        return op.done

    def _try_coalesce(self, mr, vpn, n_pages, side, channel) -> Optional[Event]:
        """Merge a new fault into a same-class one still pre-OS, if any.

        Returns the in-flight op's completion event (shared by both
        callers) or None.  Merging widens the queued range in place, so
        the whole union is serviced by the one round-trip that is already
        scheduled — no extra slot, no extra interrupt.
        """
        ops = self._inflight.get(self._class_key(channel, side))
        if not ops:
            return None
        end = vpn + n_pages
        for op in ops:
            if (op.pages is None and op.mr is mr
                    and vpn <= op.vpn + op.n_pages and op.vpn <= end):
                lo = op.vpn if op.vpn < vpn else vpn
                hi = op.vpn + op.n_pages
                if end > hi:
                    hi = end
                op.vpn = lo
                op.n_pages = hi - lo
                self.coalesced_faults += 1
                return op.done
        return None

    def service_fault(
        self,
        mr: MemoryRegion,
        vpn: int,
        n_pages: int = 1,
        side: NpfSide = NpfSide.RECEIVE,
        channel: str = "",
    ):
        """Generator form of :meth:`service_fault_async` (same phases,
        same costs, same log records); returns the :class:`NpfEvent`.

        Kept for process-style composition (``env.process(...)``); the
        hot NIC datapaths yield the async event directly.
        """
        event = yield self.service_fault_async(mr, vpn, n_pages, side, channel)
        return event

    # -- invalidation flow (Figure 2, right) -----------------------------------------
    def invalidate(self, mr: MemoryRegion, vpn: int) -> float:
        """Tear down one I/O PTE; returns the latency to charge the evictor."""
        return self.invalidate_range(mr, vpn, 1)

    def invalidate_range(self, mr: MemoryRegion, vpn: int, n_pages: int) -> float:
        """Tear down a run of I/O PTEs; returns the summed latency.

        Per page: unmap the PTE, shoot down its IOTLB entry and charge
        Figure 3(b)'s checks, plus the jittered hardware page-table
        update and the software updates when the page was mapped.  The
        log's running sums are loaded into locals and advanced page by
        page, so they equal a per-page list's ``sum()`` bit for bit.
        An armed DMA sanitizer sees every removed PTE and then checks
        the whole range for a missing shootdown.
        """
        if n_pages <= 0:
            return 0.0
        san = _hooks.active
        costs = self.costs
        log = self.log
        iommu = self.iommu
        domain_id = mr.domain.domain_id
        table = iommu._domains[domain_id]
        iotlb = iommu.iotlb
        iotlb_cache = iotlb._cache
        iotlb_pop = iotlb_cache.pop
        rng = costs.rng
        rand = rng._random.random if rng is not None else None
        checks = costs.inv_checks
        base_update = costs.inv_update_pt
        updates = costs.inv_updates
        sigma = costs.jitter_sigma
        slow_p = costs.slow_path_probability
        slow_mult = costs.slow_path_multiplier
        checks_sum = log.invalidation_checks_sum
        update_pt_sum = log.invalidation_update_pt_sum
        updates_sum = log.invalidation_updates_sum
        latency_sum = log.invalidation_latency_sum
        total = 0.0
        mapped = 0
        # Hot-loop locals: one dict.pop replaces the contains+del pair,
        # the IOTLB shootdown is skipped while the cache is empty (a pop
        # from an empty cache is a no-op either way), and the miss
        # latency is the same constant every iteration.
        entries_pop = table._entries.pop
        miss_latency = checks + 0.0 + 0.0
        for v in range(vpn, vpn + n_pages):
            checks_sum += checks
            if entries_pop(v, _UNMAPPED) is not _UNMAPPED:
                mapped += 1
                if san is not None:
                    san.on_pt_unmap(table, v)
                if iotlb_cache:
                    iotlb_pop((domain_id, v), None)
                if rand is None:
                    upd = base_update
                else:
                    # Inlined random.lognormvariate(0.0, sigma): the
                    # Kinderman-Monahan loop below is CPython's
                    # normalvariate() verbatim, so it consumes the same
                    # uniform draws and yields the same float.
                    while True:
                        u1 = rand()
                        u2 = 1.0 - rand()
                        z = _NV_MAGICCONST * (u1 - 0.5) / u2
                        # z*z*0.25 is exactly z*z/4.0 (scaling by a
                        # power of two is exact), so the accept test
                        # matches CPython's bit for bit.
                        if z * z * 0.25 <= -_log(u2):
                            break
                    upd = base_update * _exp(z * sigma)
                    if rand() < slow_p:
                        upd *= slow_mult
                latency = checks + upd + updates
                update_pt_sum += upd
                updates_sum += updates
                latency_sum += latency
                total += latency
            else:
                latency_sum += miss_latency
                total += miss_latency
        log.invalidation_checks_sum = checks_sum
        log.invalidation_update_pt_sum = update_pt_sum
        log.invalidation_updates_sum = updates_sum
        log.invalidation_latency_sum = latency_sum
        log.invalidation_count += n_pages
        log.invalidation_mapped += mapped
        table.unmaps += mapped
        iotlb.invalidations += mapped
        if san is not None:
            san.on_iommu_unmap(iommu, domain_id, vpn, n_pages)
        return total

    # -- pre-faulting helper ------------------------------------------------------------
    def prefault(self, mr: OdpMemoryRegion, addr: int, size: int):
        """Generator: warm a VA range (e.g. a receive ring) ahead of traffic.

        Used by the Fig. 10 benchmarks, which pre-fault the ring to
        isolate steady-state behaviour from the cold-ring effect.
        """
        first = addr >> 12
        n_pages = ((addr + size - 1) >> 12) - first + 1
        pages = mr.unmapped_vpns(first, n_pages)
        if not pages:
            return 0
        batch = mr.space.touch_vpns(pages, swap_burst=self.swap_burst)
        translate = mr.space.translate
        entries = {}
        for v in pages:
            frame = translate(v)
            if frame is not None:
                entries[v] = frame
        self.iommu.map_batch(mr.domain.domain_id, entries,
                             warm_iotlb=self.warm_iotlb)
        latency = (
            batch.latency
            + self.costs.pt_update_base
            + len(pages) * self.costs.pt_update_per_page
        )
        yield self.env.timeout(latency)
        return len(pages)
