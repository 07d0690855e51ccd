"""Tests for the batched NPF fault-service pipeline (PR: batch pipeline).

Covers the streaming (``keep_events=False``) log against the keep-events
log, the async callback pipeline against the generator path, fault
coalescing, the bulk page-in / range-install fast paths, and the
swap-burst batch amortization.
"""

import math
import tracemalloc

import pytest

from repro.core import NpfCosts, NpfDriver, NpfKind, NpfSide
from repro.core.npf import NpfLog
from repro.iommu import Iommu
from repro.iommu.iotlb import Iotlb
from repro.iommu.page_table import IoPageTable
from repro.mem import Memory
from repro.sim import Environment
from repro.sim.rng import Rng
from repro.sim.units import MB, PAGE_SIZE


def make_stack(mem_pages=64, seed=None, log=None, **driver_kwargs):
    env = Environment()
    memory = Memory(mem_pages * PAGE_SIZE)
    iommu = Iommu()
    costs = NpfCosts(rng=Rng(seed)) if seed is not None else None
    driver = NpfDriver(env, iommu, costs=costs, log=log, **driver_kwargs)
    return env, memory, iommu, driver


def service_workload(env, driver, mr, base, faults=40, use_generator=False):
    """Fault/invalidate loop across a few pages and both fault kinds;
    returns each ``invalidate`` call's latency, in call order."""
    latencies = []

    def body():
        for i in range(faults):
            vpn = base + (i % 8)
            side = NpfSide.SEND if i % 2 else NpfSide.RECEIVE
            if use_generator:
                yield env.process(driver.service_fault(mr, vpn, 1, side))
            else:
                yield driver.service_fault_async(mr, vpn, 1, side)
            latencies.append(driver.invalidate(mr, vpn))

    env.run(env.process(body()))
    return latencies


def invalidation_aggregates(log):
    return (log.invalidation_count, log.invalidation_mapped,
            log.invalidation_checks_sum, log.invalidation_update_pt_sum,
            log.invalidation_updates_sum, log.invalidation_latency_sum)


def running_sum(values):
    """Left-to-right float sum (``sum()`` is compensated on 3.12+)."""
    total = 0.0
    for v in values:
        total += v
    return total


# ------------------------------------------------- streaming log parity
def run_logged(keep_events, seed=7, faults=40):
    log = NpfLog(keep_events=keep_events)
    env, memory, iommu, driver = make_stack(seed=seed, log=log)
    space = memory.create_space()
    region = space.mmap(16 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    latencies = service_workload(env, driver, mr, region.vpns()[0],
                                 faults=faults)
    return driver.log, latencies


def test_streaming_summary_matches_keep_events_aggregates():
    keep, keep_lat = run_logged(True)
    stream, stream_lat = run_logged(False)
    assert stream.npf_count == keep.npf_count
    assert stream.minor_count == keep.minor_count
    assert stream.major_count == keep.major_count
    assert not stream.npf_events

    for side in (None, NpfSide.SEND, NpfSide.RECEIVE):
        exact = keep.npf_summary(side)
        est = stream.npf_summary(side)
        # Same RNG draws, same float association: the scalar aggregates
        # are bit-identical, not merely close.
        assert est.count == exact.count
        assert est.mean == exact.mean
        assert est.minimum == exact.minimum
        assert est.maximum == exact.maximum
        # Percentiles are P^2 estimates beyond five samples: always
        # bounded by the observed range, and in the right ballpark (the
        # estimator can be ~20% off the exact tail at these sample sizes).
        for attr in ("p50", "p95", "p99"):
            lo, hi = exact.minimum, exact.maximum
            assert lo <= getattr(est, attr) <= hi
            assert getattr(est, attr) == pytest.approx(
                getattr(exact, attr), rel=0.5)

    # Invalidations are aggregated the same way in both modes, and the
    # sums are the page-order running sums of the returned latencies.
    assert stream_lat == keep_lat
    assert invalidation_aggregates(stream) == invalidation_aggregates(keep)
    assert keep.invalidation_count == len(keep_lat) == 40
    assert 0 < keep.invalidation_mapped <= keep.invalidation_count
    assert keep.invalidation_latency_sum == running_sum(keep_lat)


def test_streaming_percentiles_exact_below_five_events():
    # The P^2 estimator keeps an exact sorted bootstrap until the fifth
    # sample initialises the markers, so summaries over fewer than five
    # events match the keep-events percentiles bit-for-bit.
    keep, _ = run_logged(True, faults=4)
    stream, _ = run_logged(False, faults=4)
    exact = keep.npf_summary()
    est = stream.npf_summary()
    assert (est.p50, est.p95, est.p99) == (exact.p50, exact.p95, exact.p99)


def test_record_totals_require_streaming_mode():
    log = NpfLog()  # keep_events=True
    with pytest.raises(ValueError):
        log.record_npf_total(NpfSide.SEND, NpfKind.MINOR, 1.0)


# ------------------------------------------- bounded invalidation state
def storm_peak_ratio():
    """tracemalloc peak of an 8x longer Table 4 4MB storm over a short one
    (20 vs 160 faults, each followed by a 1024-page invalidation)."""
    from repro.experiments.table4_tail import cell_tail

    peaks = []
    for samples in (20, 160):
        tracemalloc.start()
        try:
            cell_tail("4MB", 4 * MB, samples=samples, seed=7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[1] / peaks[0]


class _RetainingLog(NpfLog):
    """Planted leak: keeps one object per invalidated page."""

    def __init__(self, keep_events=True):
        self.retained = []
        super().__init__(keep_events)

    @property
    def invalidation_count(self):
        return len(self.retained)

    @invalidation_count.setter
    def invalidation_count(self, value):
        self.retained.extend(object() for _ in range(value - len(self.retained)))


def test_invalidation_state_is_bounded_by_run_length():
    assert storm_peak_ratio() <= 1.2


def test_planted_per_page_invalidation_record_breaks_the_bound(monkeypatch):
    import repro.core.driver as driver_module

    monkeypatch.setattr(driver_module, "NpfLog", _RetainingLog)
    assert storm_peak_ratio() > 1.2


# ------------------------------------------- async vs generator parity
def test_async_pipeline_matches_generator_path():
    runs = []
    for use_generator in (False, True):
        env, memory, iommu, driver = make_stack(seed=3)
        space = memory.create_space()
        region = space.mmap(16 * PAGE_SIZE)
        mr = driver.register_odp(space, region)
        latencies = service_workload(env, driver, mr, region.vpns()[0],
                                     use_generator=use_generator)
        runs.append((driver.log, latencies))
    (async_log, async_lat), (gen_log, gen_lat) = runs
    assert async_log.npf_events == gen_log.npf_events
    assert async_lat == gen_lat
    assert async_log.invalidation_mapped > 0
    assert (invalidation_aggregates(async_log)
            == invalidation_aggregates(gen_log))


def test_batched_wqe_fault_matches_n_pages_aggregate():
    """One 4-page WQE pre-fault == one NpfEvent covering all four pages."""
    env, memory, iommu, driver = make_stack(seed=11)
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]

    def body():
        yield driver.service_fault_async(mr, base, 4, NpfSide.SEND)

    env.run(env.process(body()))
    assert driver.log.npf_count == 1
    (event,) = driver.log.npf_events
    assert event.n_pages == 4
    assert mr.domain.all_mapped(base, 4)
    # Batch amortization: fixed per-batch cost plus per-page increments.
    costs = driver.costs
    assert event.breakdown.driver == costs.os_batch_time(4)
    assert costs.os_batch_time(4) == costs.driver_base + 4 * costs.os_per_page


# ------------------------------------------------------- fault coalescing
def test_coalescing_merges_overlapping_faults():
    env, memory, iommu, driver = make_stack(coalesce_faults=True)
    space = memory.create_space()
    region = space.mmap(16 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]

    first = driver.service_fault_async(mr, base, 4, NpfSide.SEND, "qp0")
    second = driver.service_fault_async(mr, base + 2, 4, NpfSide.SEND, "qp0")
    # The overlapping fault merged into the pre-OS window of the first:
    # both callers complete on the same event, one round-trip total.
    assert second is first
    assert driver.coalesced_faults == 1

    def body():
        yield first

    env.run(env.process(body()))
    assert driver.log.npf_count == 1
    (event,) = driver.log.npf_events
    assert event.n_pages == 6  # widened to [base, base+6)
    assert mr.domain.all_mapped(base, 6)


def test_coalescing_only_merges_same_class():
    env, memory, iommu, driver = make_stack(coalesce_faults=True)
    space = memory.create_space()
    region = space.mmap(16 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]
    a = driver.service_fault_async(mr, base, 2, NpfSide.SEND, "qp0")
    b = driver.service_fault_async(mr, base, 2, NpfSide.RECEIVE, "qp0")
    c = driver.service_fault_async(mr, base + 8, 2, NpfSide.SEND, "qp1")
    assert b is not a and c is not a
    assert driver.coalesced_faults == 0

    def body():
        yield env.all_of([a, b, c])

    env.run(env.process(body()))
    assert driver.log.npf_count == 3


def test_coalescing_preserves_class_concurrency_bound():
    """A merged fault takes no extra slot; distinct ranges serialize."""
    env, memory, iommu, driver = make_stack(coalesce_faults=True)
    space = memory.create_space()
    region = space.mmap(32 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]
    events = [
        driver.service_fault_async(mr, base + 8 * i, 2, NpfSide.SEND, "qp0")
        for i in range(3)
    ]
    assert len(set(map(id, events))) == 3  # disjoint ranges: no merge
    slot = driver._slot_for("qp0", NpfSide.SEND)
    assert slot.capacity == 1  # one in-flight NPF per (channel, side) class

    def body():
        yield env.all_of(events)

    env.run(env.process(body()))
    assert driver.log.npf_count == 3


# ------------------------------------------------ invalidate_range parity
def test_invalidate_range_matches_per_page_loop():
    """Bulk, per-page and the composed ``iommu.unmap`` reference leave the
    same page table and IOTLB behind; bulk and per-page also agree on
    every latency, log aggregate and counter."""
    results = []
    states = []
    for how in ("bulk", "loop", "iommu.unmap"):
        env, memory, iommu, driver = make_stack(seed=5)
        space = memory.create_space()
        region = space.mmap(12 * PAGE_SIZE)
        mr = driver.register_odp(space, region)
        base = region.vpns()[0]
        domain_id = mr.domain.domain_id

        def body():
            yield driver.service_fault_async(mr, base, 6, NpfSide.SEND)

        env.run(env.process(body()))
        for vpn in range(base, base + 6):  # fill the IOTLB
            assert not iommu.translate(domain_id, vpn).fault
        # Pages base+2 .. base+9: four mapped and cached, four never mapped.
        if how == "bulk":
            total = driver.invalidate_range(mr, base + 2, 8)
        elif how == "loop":
            total = 0.0
            for vpn in range(base + 2, base + 10):
                total += driver.invalidate(mr, vpn)
        else:
            for vpn in range(base + 2, base + 10):
                iommu.unmap(domain_id, vpn)
            total = None
        states.append((list(iommu.iotlb._cache),
                       dict(iommu._domains[domain_id]._entries),
                       iommu._domains[domain_id].unmaps,
                       iommu.iotlb.invalidations))
        results.append((total, invalidation_aggregates(driver.log)))
    bulk_r, loop_r, _ = results
    assert bulk_r == loop_r  # summed latency (same draws) and log aggregates
    assert bulk_r[1][:2] == (8, 4)  # pages invalidated, pages that were mapped
    bulk_s, loop_s, ref_s = states
    assert bulk_s == loop_s == ref_s  # IOTLB keys, PTEs, unmap/shootdown counters
    assert sorted(ref_s[0]) == [(domain_id, base), (domain_id, base + 1)]
    assert sorted(ref_s[1]) == [base, base + 1]


# ------------------------------------------------- bulk page-in / batches
def test_swap_burst_batches_major_reads():
    latencies = {}
    for burst in (False, True):
        env = Environment()
        memory = Memory(8 * PAGE_SIZE)
        space = memory.create_space()
        region = space.mmap(16 * PAGE_SIZE)
        for vpn in region.vpns():  # evict the first half to swap
            space.touch_page(vpn)
        swapped = region.vpns()[:4]
        assert all(memory.swap.holds(space.asid, v) for v in swapped)
        result = space.touch_vpns(list(swapped), swap_burst=burst)
        assert result.majors == 4
        latencies[burst] = result.latency
    swap = memory.swap
    seek_saving = 3 * (swap.read_latency(1) - swap.read_transfer_latency(1))
    # A burst pays one seek; majors 2..4 pay transfer only.
    assert latencies[True] < latencies[False]
    assert latencies[False] - latencies[True] == pytest.approx(
        seek_saving, rel=1e-12)


def test_swap_load_batch_matches_sequential_loads():
    env = Environment()
    memory = Memory(4 * PAGE_SIZE)
    swap = memory.swap
    for vpn in (1, 2, 3):
        swap.store(0, vpn)
    latency = swap.load_batch([(0, 1), (0, 2), (0, 3)])
    assert latency == swap.read_latency(3)
    assert swap.reads == 3
    assert not any(swap.holds(0, v) for v in (1, 2, 3))
    with pytest.raises(KeyError):
        swap.load_batch([(0, 9)])


def test_page_table_map_batch_matches_sequential_maps():
    a, b = IoPageTable(domain_id=1), IoPageTable(domain_id=1)
    entries = {10: 100, 11: 101, 12: 102}
    a.map_batch(entries)
    for iopn, frame in entries.items():
        b.map(iopn, frame)
    assert a._entries == b._entries
    assert a.maps == b.maps == 3
    with pytest.raises(ValueError):
        a.map_batch({20: 200, 21: -1})
    assert a.all_mapped(10, 3)
    assert not a.all_mapped(10, 4)


def test_iotlb_fill_batch_matches_sequential_fills():
    a, b = Iotlb(capacity=4), Iotlb(capacity=4)
    entries = {i: 100 + i for i in range(6)}
    a.fill_batch(1, entries)
    for iopn, frame in entries.items():
        b.fill(1, iopn, frame)
    assert a._cache == b._cache
    assert list(a._cache) == list(b._cache)  # same LRU order
    assert len(a._cache) == 4  # trimmed to capacity


def test_warm_iotlb_preloads_batch_translations():
    env, memory, iommu, driver = make_stack(warm_iotlb=True)
    space = memory.create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]

    def body():
        yield driver.service_fault_async(mr, base, 4, NpfSide.SEND)

    env.run(env.process(body()))
    cached = [k for k in iommu.iotlb._cache if k[0] == mr.domain.domain_id]
    assert len(cached) == 4


def test_lru_touch_range_matches_per_page_touches():
    orders = []
    for bulk in (True, False):
        env = Environment()
        memory = Memory(8 * PAGE_SIZE)
        space = memory.create_space()
        region = space.mmap(6 * PAGE_SIZE)
        for vpn in region.vpns():
            space.touch_page(vpn)
        first = region.vpns()[0]
        if bulk:
            memory._lru_touch_range(space.asid, first, 3)
        else:
            for vpn in range(first, first + 3):
                space.touch_page(vpn)
        orders.append(list(memory._lru))
    assert orders[0] == orders[1]
