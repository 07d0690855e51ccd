"""Tests for the NPF cost model against the paper's Figure 3 / Table 4."""

import pytest

from repro.core import NpfCosts
from repro.sim import Rng, percentile
from repro.sim.units import us


def test_minor_npf_4kb_matches_paper_mean():
    """Figure 3(a): a 4KB (1-page) minor NPF takes ~220 us."""
    costs = NpfCosts()  # no rng -> deterministic
    bd = costs.npf_breakdown(n_pages=1)
    assert bd.total == pytest.approx(220 * us, rel=0.05)


def test_minor_npf_4mb_matches_paper_mean():
    """Figure 3(a): a 4MB (1024-page) minor NPF takes ~350 us."""
    costs = NpfCosts()
    bd = costs.npf_breakdown(n_pages=1024)
    assert bd.total == pytest.approx(350 * us, rel=0.05)


def test_npf_overhead_dominated_by_hardware():
    """The paper: ~90% of the 4KB NPF is firmware/hardware time."""
    bd = NpfCosts().npf_breakdown(1)
    assert bd.hardware_fraction > 0.8


def test_npf_growth_is_software_side():
    """4KB -> 4MB growth comes from the sw driver/OS phase."""
    costs = NpfCosts()
    small = costs.npf_breakdown(1)
    large = costs.npf_breakdown(1024)
    assert large.driver > small.driver
    assert large.trigger_interrupt == small.trigger_interrupt
    assert large.resume == small.resume


def test_major_fault_adds_swap_time():
    costs = NpfCosts()
    bd = costs.npf_breakdown(1, swap_latency=0.010)
    assert bd.swap == 0.010
    assert bd.total == pytest.approx(costs.npf_breakdown(1).total + 0.010)


def test_npf_breakdown_validates_pages():
    with pytest.raises(ValueError):
        NpfCosts().npf_breakdown(0)


def test_tail_latency_shape_matches_table4():
    """Table 4 (4KB): p50 ~215, p95 ~250, p99 ~261, max ~464 (us)."""
    costs = NpfCosts(rng=Rng(seed=42))
    samples = [costs.npf_breakdown(1).total for _ in range(4000)]
    p50 = percentile(samples, 50)
    p95 = percentile(samples, 95)
    p99 = percentile(samples, 99)
    assert 200 * us < p50 < 240 * us
    assert p95 / p50 < 1.35
    assert p99 / p50 < 1.6
    assert max(samples) / p50 > 1.5  # rare firmware slow path exists
    assert max(samples) / p50 < 3.5


def _invalidate_pages(n_mapped, n_unmapped, keep_events=True):
    """Invalidate ``n_mapped`` pages with an I/O PTE, then ``n_unmapped``
    never-mapped ones, one call each; returns (costs, log, latencies)."""
    from repro.core import NpfDriver
    from repro.core.npf import NpfLog
    from repro.iommu import Iommu
    from repro.mem import Memory
    from repro.sim import Environment
    from repro.sim.units import PAGE_SIZE

    costs = NpfCosts()
    iommu = Iommu()
    driver = NpfDriver(Environment(), iommu, costs=costs,
                       log=NpfLog(keep_events=keep_events))
    space = Memory(64 * PAGE_SIZE).create_space()
    region = space.mmap((n_mapped + n_unmapped) * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    vpns = region.vpns()
    for frame, vpn in enumerate(vpns[:n_mapped]):
        mr.domain.map(vpn, frame)
    latencies = [driver.invalidate(mr, vpn) for vpn in vpns]
    return costs, driver.log, latencies


def test_invalidation_cheaper_than_npf():
    """Figure 3: invalidations are cheaper than faults."""
    costs, _, (inv,) = _invalidate_pages(1, 0)
    npf = costs.npf_breakdown(1)
    assert inv == costs.inv_checks + costs.inv_update_pt + costs.inv_updates
    assert inv < npf.total


def test_unmapped_invalidation_skips_hardware():
    """Lazily-mapped pages that never faulted: checks only, no hw update."""
    costs, log, (mapped, unmapped) = _invalidate_pages(1, 1)
    assert unmapped == costs.inv_checks
    assert unmapped < mapped
    assert (log.invalidation_count, log.invalidation_mapped) == (2, 1)
    assert log.invalidation_update_pt_sum == costs.inv_update_pt
    assert log.invalidation_updates_sum == costs.inv_updates


def test_pin_time_scales_linearly():
    costs = NpfCosts()
    assert costs.pin_time(1) < costs.pin_time(1024)
    assert costs.pin_time(0) == costs.pin_base
    assert costs.unpin_time(10) == pytest.approx(costs.unpin_base + 10 * costs.unpin_per_page)


def test_memcpy_time():
    costs = NpfCosts()
    assert costs.memcpy_time(costs.memcpy_bandwidth) == pytest.approx(1.0)


# --------------------------------------------------- NpfLog streaming mode


def _event(latency_parts, side, kind, t=0.0):
    from repro.core.npf import NpfEvent
    from repro.core.costs import NpfBreakdown

    return NpfEvent(time=t, side=side, kind=kind, n_pages=1,
                    breakdown=NpfBreakdown(*latency_parts))


def test_npf_log_streaming_mode_drops_events_keeps_summaries():
    from repro.core.npf import NpfKind, NpfLog, NpfSide

    log = NpfLog(keep_events=False)
    for i in range(100):
        side = NpfSide.SEND if i % 2 else NpfSide.RECEIVE
        kind = NpfKind.MAJOR if i % 10 == 0 else NpfKind.MINOR
        log.record_npf(_event((1.0, 2.0, 3.0, 4.0, float(i)), side, kind,
                              t=float(i)))
    assert log.npf_events == []                 # nothing retained
    assert log.npf_count == 100
    assert log.major_count == 10
    assert log.minor_count == 90
    overall = log.npf_summary()
    assert overall.count == 100
    assert overall.minimum == 10.0              # breakdown total, i=0
    assert overall.maximum == 109.0
    assert log.npf_summary(NpfSide.SEND).count == 50
    assert log.npf_summary(NpfSide.RECEIVE).count == 50
    with pytest.raises(ValueError):
        log.npf_summary(NpfSide.RDMA_READ_INITIATOR)


def test_npf_log_summary_agrees_across_modes():
    from repro.core.npf import NpfKind, NpfLog, NpfSide

    kept = NpfLog(keep_events=True)
    stream = NpfLog(keep_events=False)
    rng = Rng(5)
    for i in range(2_000):
        ev = _event((rng.uniform(1.0, 5.0), 2.0, 3.0, 4.0),
                    NpfSide.SEND, NpfKind.MINOR, t=float(i))
        kept.record_npf(ev)
        stream.record_npf(ev)
    exact = kept.npf_summary(NpfSide.SEND)
    est = stream.npf_summary(NpfSide.SEND)
    assert est.count == exact.count
    assert est.minimum == exact.minimum
    assert est.maximum == exact.maximum
    assert est.mean == pytest.approx(exact.mean)
    assert est.p50 == pytest.approx(exact.p50, rel=0.05)
    assert est.p95 == pytest.approx(exact.p95, rel=0.05)


def test_npf_log_streaming_invalidations():
    """A streaming-mode log keeps the invalidation count and sums."""
    costs, log, latencies = _invalidate_pages(6, 4, keep_events=False)
    assert log.invalidation_count == 10
    assert log.invalidation_mapped == 6
    total = 0.0
    for latency in latencies:  # page order, as the driver accumulates
        total += latency
    assert log.invalidation_latency_sum == total
    assert log.invalidation_checks_sum == pytest.approx(10 * costs.inv_checks)
    assert log.invalidation_update_pt_sum == pytest.approx(6 * costs.inv_update_pt)
    assert log.invalidation_updates_sum == pytest.approx(6 * costs.inv_updates)
