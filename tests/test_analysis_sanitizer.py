"""Tests for DMAsan (repro.analysis): deliberate violations and clean runs.

Each deliberate-violation test opens its *own* ``hooks.session``, so the
session-wide sanitizer installed by conftest under ``REPRO_SANITIZE=1``
never sees the staged bugs.
"""

import io
from collections import OrderedDict
from contextlib import redirect_stdout

import pytest

from repro.analysis import hooks
from repro.analysis.sanitizer import DmaSanitizer, SanitizerError
from repro.core import NpfCosts, NpfDriver, NpfSide
from repro.iommu.iommu import Iommu
from repro.mem.memory import Memory
from repro.sim import Environment, Rng
from repro.sim.units import MB, PAGE_SIZE


def _checkers(san):
    return {v.checker for v in san.violations}


# -- use-after-unmap ---------------------------------------------------------

def test_use_after_unmap_via_stale_iotlb_is_detected():
    """Unmapping the PTE *without* a shootdown leaves a stale IOTLB entry;
    the next DMA through it is a use-after-unmap (paper Figure 2's whole
    point: invalidation must reach the NIC)."""
    san = DmaSanitizer()
    with hooks.session(san):
        iommu = Iommu(iotlb_capacity=16)
        table = iommu.create_domain()
        table.map(7, 1234)
        # Prime the IOTLB through a legitimate translation.
        t = iommu.translate(table.domain_id, 7)
        assert t.frame == 1234 and not t.fault
        # BUG (deliberate): tear down the PTE behind the IOMMU's back —
        # no IOTLB invalidation.
        table.unmap(7)
        # DMA hits the stale cached translation.
        t = iommu.translate(table.domain_id, 7)
        assert t.frame == 1234  # the hardware would happily DMA here
    assert "use-after-unmap" in _checkers(san)


def test_proper_unmap_reports_nothing():
    san = DmaSanitizer()
    with hooks.session(san):
        iommu = Iommu(iotlb_capacity=16)
        table = iommu.create_domain()
        table.map(7, 1234)
        iommu.translate(table.domain_id, 7)
        # Correct flow: driver-level unmap shoots the IOTLB down.
        assert iommu.unmap(table.domain_id, 7)
        t = iommu.translate(table.domain_id, 7)
        assert t.fault
        san.final_check()
    assert san.violations == []


def test_missing_shootdown_at_unmap_time_is_detected():
    """A driver whose unmap forgets the IOTLB is caught immediately."""
    san = DmaSanitizer()
    with hooks.session(san):
        iommu = Iommu(iotlb_capacity=16)
        table = iommu.create_domain()
        table.map(3, 99)
        iommu.translate(table.domain_id, 3)  # cached
        # Simulate the buggy driver: PTE removed, then the *hook* for a
        # driver-level unmap fires while the IOTLB still holds the entry.
        table.unmap(3)
        san.on_iommu_unmap(iommu, table.domain_id, 3, 1)
    assert "missing-shootdown" in _checkers(san)


# -- the driver's bulk invalidation loop -------------------------------------

class _NoShootdownCache(OrderedDict):
    """An IOTLB whose ``pop`` does nothing: every shootdown is lost."""

    def pop(self, key, default=None):
        return default


def _invalidate_cached_pages(cache_cls=None):
    """Fault in 4 pages, cache their translations, then invalidate 8 pages
    in one ``invalidate_range``; returns its latency and the log sums."""
    env = Environment()
    iommu = Iommu()
    driver = NpfDriver(env, iommu, costs=NpfCosts(rng=Rng(5)))
    space = Memory(64 * PAGE_SIZE).create_space()
    region = space.mmap(8 * PAGE_SIZE)
    mr = driver.register_odp(space, region)
    base = region.vpns()[0]
    env.run(driver.service_fault_async(mr, base, 4, NpfSide.SEND))
    for vpn in range(base, base + 4):
        assert not iommu.translate(mr.domain.domain_id, vpn).fault
    if cache_cls is not None:
        iommu.iotlb._cache = cache_cls(iommu.iotlb._cache)
    total = driver.invalidate_range(mr, base, 8)
    log = driver.log
    return (total, log.invalidation_count, log.invalidation_mapped,
            log.invalidation_checks_sum, log.invalidation_update_pt_sum,
            log.invalidation_updates_sum, log.invalidation_latency_sum)


def test_missing_shootdown_in_bulk_invalidation_is_detected():
    """The planted bug: the bulk loop's IOTLB pops are lost."""
    san = DmaSanitizer()
    with hooks.session(san):
        _invalidate_cached_pages(_NoShootdownCache)
    assert "missing-shootdown" in _checkers(san)


class _CountingSanitizer(DmaSanitizer):
    def __init__(self):
        super().__init__()
        self.pt_unmaps = 0
        self.range_unmaps = []

    def on_pt_unmap(self, table, iopn):
        self.pt_unmaps += 1
        super().on_pt_unmap(table, iopn)

    def on_iommu_unmap(self, iommu, domain_id, iopn, n_pages):
        self.range_unmaps.append(n_pages)
        super().on_iommu_unmap(iommu, domain_id, iopn, n_pages)


def test_bulk_invalidation_is_one_path_armed_or_not():
    """Armed and unarmed runs return bit-identical latencies and sums; the
    armed run sees each removed PTE and one range-level unmap check."""
    with hooks.session(None):
        plain = _invalidate_cached_pages()
    san = _CountingSanitizer()
    with hooks.session(san):
        armed = _invalidate_cached_pages()
        san.final_check()
    assert san.violations == [], san.summary()
    assert armed == plain
    assert plain[1:3] == (8, 4)
    assert san.pt_unmaps == 4
    assert san.range_unmaps == [8]


# -- pinned-frame accounting -------------------------------------------------

def test_pinned_page_eviction_is_detected():
    """A pinned page that lands back on the reclaim LRU (the staged bug)
    gets evicted under pressure — DMAsan flags the pin violation."""
    san = DmaSanitizer()
    with hooks.session(san):
        memory = Memory(total_bytes=4 * PAGE_SIZE)
        space = memory.create_space("victim")
        space.pin_page(0)
        # BUG (deliberate): pinned pages must stay off the LRU; put it
        # back, as a broken reclaim path would.
        memory._lru_insert(space.asid, 0)
        # Pressure: four more pages in a four-frame memory forces
        # eviction of the (pinned!) LRU head.
        for vpn in range(1, 5):
            space.touch_page(vpn)
    assert "pin-leak" in _checkers(san)
    assert any("was evicted" in v.message for v in san.violations)


def test_pin_count_drift_is_detected():
    """Shadow pin counts are cross-checked against the space's own
    bookkeeping on every pin/unpin."""
    san = DmaSanitizer()
    with hooks.session(san):
        memory = Memory(total_bytes=1 * MB)
        space = memory.create_space("drift")
        space.pin_page(0)
        # BUG (deliberate): leak a pin behind the sanitizer's back.
        space._pinned[0] += 1
        space.unpin_page(0)  # space: 1 pin left; shadow: 0
    assert "pin-leak" in _checkers(san)
    assert any("drift" in v.message for v in san.violations)


def test_pin_leak_survives_to_final_check():
    san = DmaSanitizer()
    with hooks.session(san):
        memory = Memory(total_bytes=1 * MB)
        space = memory.create_space("leaky")
        space.pin_page(0)
        space._pinned.clear()  # BUG: pins dropped without unpin
        san.final_check()
    assert "pin-leak" in _checkers(san)


def test_balanced_pin_unpin_cycles_are_clean():
    san = DmaSanitizer()
    with hooks.session(san):
        memory = Memory(total_bytes=1 * MB)
        space = memory.create_space("ok")
        for _ in range(3):
            space.pin_page(5)
            space.pin_page(5)
            space.unpin_page(5)
            space.unpin_page(5)
        san.final_check()
    assert san.violations == []


# -- frame accounting --------------------------------------------------------

def test_frame_leak_is_detected():
    san = DmaSanitizer()
    with hooks.session(san):
        memory = Memory(total_bytes=1 * MB)
        space = memory.create_space("leak")
        space.touch_page(0)
        # BUG (deliberate): lose a frame without releasing it.
        memory.allocator.allocate()
        san.final_check()
    assert "frame-leak" in _checkers(san)


def test_strict_mode_raises_on_first_violation():
    san = DmaSanitizer(strict=True)
    with hooks.session(san):
        memory = Memory(total_bytes=4 * PAGE_SIZE)
        space = memory.create_space("strict")
        space.pin_page(0)
        memory._lru_insert(space.asid, 0)
        with pytest.raises(SanitizerError):
            for vpn in range(1, 5):
                space.touch_page(vpn)


# -- session nesting ---------------------------------------------------------

def test_sessions_nest_and_restore():
    outer = DmaSanitizer()
    inner = DmaSanitizer()
    with hooks.session(outer):
        assert hooks.active is outer
        with hooks.session(inner):
            assert hooks.active is inner
            memory = Memory(total_bytes=1 * MB)
            space = memory.create_space("inner-only")
            space.touch_page(0)
        assert hooks.active is outer
    assert hooks.active is not outer
    # The inner session's events never reached the outer observer.
    assert outer._page_frame == {}
    assert inner._page_frame != {}


# -- clean end-to-end runs (the acceptance criterion) ------------------------

def test_fig3_run_is_sanitizer_clean():
    from repro.experiments import fig3_breakdown
    san = DmaSanitizer()
    with hooks.session(san), redirect_stdout(io.StringIO()):
        fig3_breakdown.run(samples=20)
        san.final_check()
    assert san.violations == [], san.summary()


def test_fig4_startup_run_is_sanitizer_clean():
    from repro.experiments import fig4_cold_ring
    san = DmaSanitizer()
    with hooks.session(san), redirect_stdout(io.StringIO()):
        fig4_cold_ring.run_startup(duration=1.0)
        san.final_check()
    assert san.violations == [], san.summary()
