"""DMAsan — shadow-state invariant checkers for the simulated substrate.

The sanitizer mirrors, in its own shadow structures, every state
transition the hooked subsystems report, and cross-checks each event
against the contracts the paper's design (and PR 1's bit-identical
proof) depend on:

* **residency** — a page becomes resident exactly once before it is
  dropped; frames are never double-freed; per-:class:`Memory` frame
  accounting balances at the end of a run (no leaked frames);
* **mapped ⇒ resident** — an I/O PTE is only ever installed for a frame
  that is currently resident in the owning host's memory, and no PTE
  outlives its frame (paper Figure 2's invalidation flow, steps a–d);
* **use-after-unmap** — a successful IOMMU translation must agree with
  the shadow page table; a stale IOTLB entry surviving an unmap (missed
  shootdown) is reported at the moment DMA would have used it;
* **shootdown-after-unmap** — immediately after ``Iommu.unmap`` /
  ``unmap_range`` the IOTLB must hold no entry for the torn-down pages;
* **pin accounting** — pin counts never underflow, pinned pages are
  resident, the shadow count always matches the address space's own
  bookkeeping, and a pinned page is never chosen for eviction
  (paper §2.1: pinned memory is exempt from reclaim);
* **backup-ring merge order** — Figure 6's ``head``/``head_offset``/
  bitmap state machine: faults are resolved only if previously marked,
  the ring head always parks on the oldest unresolved fault, direct
  stores are reported to the IOuser only when no older fault is
  pending, and the pinned backup ring drains strictly FIFO (§5);
* **RNR bound** — a work request's RNR retry count never exceeds the
  configured ``MAX_RNR_RETRIES`` bound without completing with
  ``RNR_RETRY_EXCEEDED`` (§4).

Violations are collected (``strict=True`` raises at the first one) so a
CI run can assert ``not san.violations`` after the workload finishes;
:meth:`DmaSanitizer.final_check` adds the end-of-run balance checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

__all__ = ["DmaSanitizer", "SanitizerError", "Violation"]


class SanitizerError(AssertionError):
    """Raised on the first violation when the sanitizer is strict."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant breach."""

    checker: str   # e.g. "use-after-unmap", "pin-leak"
    message: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.checker}] {self.message}"


class DmaSanitizer:
    """Implements the full ``on_*`` hook surface of :mod:`.hooks`.

    One instance observes one workload.  All shadow state is keyed by
    the observed objects themselves (never by names or ids), so several
    hosts — several ``Memory``/``Iommu`` instances with overlapping
    frame numbers — coexist without aliasing.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.violations: List[Violation] = []
        # -- memory shadow ------------------------------------------------
        #: (memory, frame) -> number of (space, vpn) pages backed by it
        self._frame_refs: Dict[Tuple[Any, int], int] = {}
        #: (space, vpn) -> frame
        self._page_frame: Dict[Tuple[Any, int], int] = {}
        #: (space, vpn) -> pin count
        self._pins: Dict[Tuple[Any, int], int] = {}
        #: memory -> frames already in use when we first saw it
        self._mem_baseline: Dict[Any, int] = {}
        self._spaces: Set[Any] = set()
        self._closed_spaces: Set[Any] = set()
        # -- IOMMU shadow -------------------------------------------------
        #: (table, iopn) -> frame  (the shadow I/O page tables)
        self._pt: Dict[Tuple[Any, int], int] = {}
        #: table -> memory owning the frames it maps (learnt from MRs)
        self._table_memory: Dict[Any, Any] = {}
        # -- ring shadow --------------------------------------------------
        #: rx ring -> outstanding (marked, unresolved) absolute bit indices
        self._ring_bits: Dict[Any, Set[int]] = {}
        #: backup ring -> FIFO of entries we saw stored
        self._backup_fifo: Dict[Any, Deque[Any]] = {}

    # ------------------------------------------------------------------
    def _report(self, checker: str, message: str) -> None:
        violation = Violation(checker, message)
        self.violations.append(violation)
        if self.strict:
            raise SanitizerError(str(violation))

    def summary(self) -> str:
        """Human-readable digest of everything found."""
        if not self.violations:
            return "DMAsan: no violations"
        lines = [f"DMAsan: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)

    # -- memory hooks ----------------------------------------------------
    def _note_memory(self, memory: Any, unobserved: int = 0) -> None:
        if memory not in self._mem_baseline:
            # Frames allocated before observation started are excluded
            # from the end-of-run balance (the sanitizer may be
            # installed mid-simulation).  ``unobserved`` discounts frames
            # the current event itself accounts for: residency hooks fire
            # *after* the allocator incremented, so the first observed
            # allocation must not land in the baseline.
            self._mem_baseline[memory] = memory.allocator.used_frames - unobserved

    def on_page_resident(self, space: Any, vpn: int, frame: int) -> None:
        """A page gained a backing frame (minor/major fault, fork share)."""
        self._note_memory(space.memory, unobserved=1)
        self._spaces.add(space)
        key = (space, vpn)
        if key in self._page_frame:
            self._report(
                "residency",  # static: dynamic-only(double residency depends on runtime fault/fork interleaving)
                f"page asid={space.asid} vpn={vpn} became resident twice "
                f"(frames {self._page_frame[key]} and {frame})",
            )
        self._page_frame[key] = frame
        fkey = (space.memory, frame)
        self._frame_refs[fkey] = self._frame_refs.get(fkey, 0) + 1
        if self._mem_baseline[space.memory] == 0:
            # Full observation: the shadow can vouch for the allocator.
            if frame >= space.memory.allocator._next_fresh:
                self._report(
                    "residency",
                    f"frame {frame} handed out past the allocator's "
                    f"fresh-frame watermark",
                )

    def on_page_dropped(self, space: Any, vpn: int, frame: int,
                        evicted: bool) -> None:
        """A page lost its frame (eviction, munmap, space teardown)."""
        self._note_memory(space.memory)
        key = (space, vpn)
        shadow = self._page_frame.pop(key, None)
        if shadow is None:
            self._report(
                "residency",
                f"drop of non-resident page asid={space.asid} vpn={vpn}",
            )
        elif shadow != frame:
            self._report(
                "residency",
                f"page asid={space.asid} vpn={vpn} dropped frame {frame} "
                f"but shadow says it held {shadow}",
            )
        if evicted and self._pins.get(key, 0) > 0:
            self._report(
                "pin-leak",
                f"pinned page asid={space.asid} vpn={vpn} "
                f"(pin count {self._pins[key]}) was evicted",
            )
        fkey = (space.memory, frame)
        refs = self._frame_refs.get(fkey, 0)
        if refs <= 0:
            self._report(
                "residency",
                f"frame {frame} released more times than it was mapped "
                f"(double free)",
            )
        elif refs == 1:
            del self._frame_refs[fkey]
        else:
            self._frame_refs[fkey] = refs - 1

    def on_page_remapped(self, space: Any, vpn: int, old_frame: int,
                         new_frame: int, why: str) -> None:
        """A resident page atomically switched frames (CoW break, dedup)."""
        self._note_memory(space.memory)
        key = (space, vpn)
        shadow = self._page_frame.get(key)
        if shadow != old_frame:
            self._report(
                "residency",
                f"{why}: page asid={space.asid} vpn={vpn} remapped from "
                f"frame {old_frame} but shadow says {shadow}",
            )
        self._page_frame[key] = new_frame
        old_key = (space.memory, old_frame)
        refs = self._frame_refs.get(old_key, 0)
        if refs <= 0:
            self._report(
                "residency",
                f"{why}: old frame {old_frame} was not resident",
            )
        elif refs == 1:
            del self._frame_refs[old_key]
        else:
            self._frame_refs[old_key] = refs - 1
        new_key = (space.memory, new_frame)
        self._frame_refs[new_key] = self._frame_refs.get(new_key, 0) + 1

    def on_pin(self, space: Any, vpn: int) -> None:
        key = (space, vpn)
        self._pins[key] = self._pins.get(key, 0) + 1
        self._spaces.add(space)
        if key not in self._page_frame:
            self._report(
                "pin-leak",
                f"pin of non-resident page asid={space.asid} vpn={vpn}",
            )
        actual = space._pinned.get(vpn, 0)
        if actual != self._pins[key]:
            self._report(
                "pin-leak",
                f"pin count drift on asid={space.asid} vpn={vpn}: "
                f"space says {actual}, shadow says {self._pins[key]}",
            )

    def on_unpin(self, space: Any, vpn: int) -> None:
        key = (space, vpn)
        count = self._pins.get(key, 0)
        if count <= 0:
            self._report(
                "pin-leak",
                f"unpin underflow on asid={space.asid} vpn={vpn}",
            )
            return
        if count == 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1
        actual = space._pinned.get(vpn, 0)
        if actual != self._pins.get(key, 0):
            self._report(
                "pin-leak",
                f"pin count drift on asid={space.asid} vpn={vpn} after "
                f"unpin: space says {actual}, "
                f"shadow says {self._pins.get(key, 0)}",
            )

    def on_space_close(self, space: Any) -> None:
        """Process exit: pins die with the space, pages are dropped."""
        self._closed_spaces.add(space)
        for key in [k for k in self._pins if k[0] is space]:
            del self._pins[key]

    # -- IOMMU hooks -----------------------------------------------------
    def on_mr_registered(self, mr: Any) -> None:
        """Bind an I/O page table to the memory whose frames it will map."""
        self._table_memory[mr.domain] = mr.space.memory
        self._spaces.add(mr.space)

    def on_pt_map(self, table: Any, iopn: int, frame: int) -> None:
        self._pt[(table, iopn)] = frame
        memory = self._table_memory.get(table)
        if memory is not None and (memory, frame) not in self._frame_refs:
            if self._mem_baseline.get(memory, 1) == 0:
                self._report(
                    "mapped-not-resident",  # static: dynamic-only(needs the live shadow frame table)
                    f"I/O PTE dom={table.domain_id} iopn={iopn} installed "
                    f"for frame {frame} which is not resident",
                )

    def on_pt_map_range(self, table: Any, entries: Dict[int, int]) -> None:
        """A bulk install landed: each entry gets :meth:`on_pt_map`'s check."""
        for iopn, frame in entries.items():
            self.on_pt_map(table, iopn, frame)

    def on_pt_unmap(self, table: Any, iopn: int) -> None:
        self._pt.pop((table, iopn), None)

    def on_iommu_unmap(self, iommu: Any, domain_id: int, iopn: int,
                       n_pages: int) -> None:
        """Fires *after* a driver-level unmap: the shootdown must be done."""
        cache = iommu.iotlb._cache
        for p in range(iopn, iopn + n_pages):
            if (domain_id, p) in cache:
                self._report(
                    "missing-shootdown",
                    f"IOTLB still caches dom={domain_id} iopn={p} after "
                    f"unmap (no shootdown)",
                )

    def on_translate(self, iommu: Any, domain_id: int, iopn: int,
                     frame: Optional[int]) -> None:
        """A DMA translation resolved; ``frame`` None means it faulted."""
        if frame is None:
            return
        table = iommu._domains.get(domain_id)
        shadow = self._pt.get((table, iopn)) if table is not None else None
        if shadow is None:
            self._report(
                "use-after-unmap",
                f"DMA translated dom={domain_id} iopn={iopn} -> frame "
                f"{frame} but the page was never mapped or already "
                f"unmapped (stale IOTLB entry?)",
            )
            return
        if shadow != frame:
            self._report(
                "use-after-unmap",
                f"DMA through dom={domain_id} iopn={iopn} hit frame "
                f"{frame} but the current mapping is frame {shadow}",
            )
            return
        memory = self._table_memory.get(table)
        if (memory is not None and self._mem_baseline.get(memory, 1) == 0
                and (memory, frame) not in self._frame_refs):
            self._report(
                "use-after-unmap",
                f"DMA touched freed frame {frame} "
                f"(dom={domain_id} iopn={iopn})",
            )

    # -- receive-ring hooks (paper Figure 6) ------------------------------
    def _check_ring(self, ring: Any, what: str) -> None:
        if ring.head_offset < 0:
            self._report("ring-order", f"{what}: negative head_offset")  # static: dynamic-only(ring cursor relations are runtime values)
        if ring.head > ring.tail:
            self._report(
                "ring-order",
                f"{what}: head ({ring.head}) passed tail ({ring.tail})",
            )
        if ring.consumed > ring.head:
            self._report(
                "ring-order",
                f"{what}: IOuser consumed past head",
            )
        if ring.head_offset > 0 and not ring.bitmap[ring.bm_index % ring.bm_size]:
            self._report(
                "ring-order",
                f"{what}: head not parked on the oldest unresolved fault "
                f"(bm_index={ring.bm_index} bit clear with "
                f"head_offset={ring.head_offset})",
            )

    def on_ring_fault(self, ring: Any, bit_index: int) -> None:
        bits = self._ring_bits.setdefault(ring, set())
        if bit_index in bits:
            self._report(
                "ring-order",
                f"fault bit {bit_index} marked twice without a resolve",
            )
        bits.add(bit_index)
        self._check_ring(ring, "mark_fault")

    def on_ring_resolve(self, ring: Any, bit_index: int,
                        advanced: int) -> None:
        bits = self._ring_bits.setdefault(ring, set())
        if bit_index not in bits:
            self._report(
                "ring-order",
                f"resolve of bit {bit_index} which was never marked "
                f"(or already resolved)",
            )
        bits.discard(bit_index)
        if advanced < 0:
            self._report("ring-order", "resolve swept the head backwards")
        self._check_ring(ring, "resolve_fault")

    def on_ring_store(self, ring: Any, notified: bool) -> None:
        # A direct store is reported to the IOuser iff no older fault is
        # pending; afterwards head_offset is 0 exactly in that case.
        if notified != (ring.head_offset == 0):
            self._report(
                "ring-order",
                f"direct store notified={notified} with "
                f"head_offset={ring.head_offset}: packets would be "
                f"reported past an unresolved fault",
            )
        self._check_ring(ring, "store_direct")

    # -- backup-ring hooks (paper §5) -------------------------------------
    def on_backup_store(self, ring: Any, entry: Any, accepted: bool) -> None:
        fifo = self._backup_fifo.setdefault(ring, deque())
        if accepted:
            fifo.append(entry)
            if len(ring._entries) > ring.size:
                self._report(
                    "backup-order",  # static: dynamic-only(FIFO order is a property of the event interleaving)
                    f"backup ring over capacity: {len(ring._entries)} > "
                    f"{ring.size}",
                )
        elif len(ring._entries) < ring.size:
            self._report(
                "backup-order",
                "backup ring dropped an entry while it still had room",
            )

    def on_backup_drain(self, ring: Any, entries: List[Any]) -> None:
        fifo = self._backup_fifo.setdefault(ring, deque())
        for entry in entries:
            if not fifo or fifo.popleft() is not entry:
                self._report(
                    "backup-order",
                    "backup ring drained entries out of stored (FIFO) "
                    "order — Figure 6 merge order broken",
                )
                fifo.clear()
                return

    def on_backup_pop(self, ring: Any, entry: Any) -> None:
        fifo = self._backup_fifo.setdefault(ring, deque())
        if not fifo or fifo.popleft() is not entry:
            self._report(
                "backup-order",
                "backup ring popped an entry out of FIFO order",
            )
            fifo.clear()

    # -- transport hooks --------------------------------------------------
    def on_rnr_retry(self, qp: Any, message: Any) -> None:
        # One NACK past the bound is the one that triggers the
        # RNR_RETRY_EXCEEDED completion; beyond that the message should
        # no longer exist.
        if message.retry > qp.MAX_RNR_RETRIES + 1:
            self._report(
                "rnr-bound",  # static: dynamic-only(retry counters exist only at runtime)
                f"wr {message.wr_id} retried {message.retry} times, past "
                f"the MAX_RNR_RETRIES={qp.MAX_RNR_RETRIES} bound",
            )

    def on_completion(self, cq: Any, wc: Any) -> None:
        if wc.byte_len < 0:
            self._report(
                "verbs",  # static: dynamic-only(completion contents are runtime values)
                f"completion wr={wc.wr_id} with negative byte_len",
            )
        if wc.time != cq.env.now:
            self._report(
                "verbs",
                f"completion wr={wc.wr_id} stamped {wc.time} != now "
                f"{cq.env.now}",
            )

    # -- end of run -------------------------------------------------------
    def final_check(self) -> None:
        """Balance checks once the workload is done."""
        # No pinned page may outlive its space; live spaces must agree
        # with the shadow pin table exactly.
        for (space, vpn), count in sorted(
                self._pins.items(), key=lambda kv: (kv[0][0].asid, kv[0][1])):
            if space in self._closed_spaces:
                self._report(
                    "pin-leak",
                    f"page vpn={vpn} still pinned ({count}x) after its "
                    f"space closed",
                )
        for space in sorted(self._spaces, key=lambda s: s.asid):
            if space in self._closed_spaces:
                continue
            shadow = {vpn: n for (s, vpn), n in self._pins.items()
                      if s is space}
            if shadow != dict(space._pinned):
                self._report(
                    "pin-leak",
                    f"pin table drift on asid={space.asid}: space says "
                    f"{dict(space._pinned)}, shadow says {shadow}",
                )
        # Frame accounting balances: frames in use == frames the shadow
        # can account for (plus whatever predated observation).
        for memory, baseline in self._mem_baseline.items():
            if baseline != 0:
                continue  # partial observation: the balance can't be vouched
            shadow_frames = len({f for (m, f) in self._frame_refs
                                 if m is memory})
            used = memory.allocator.used_frames
            if shadow_frames != used:
                self._report(
                    "frame-leak",  # static: dynamic-only(allocator vs shadow balance is runtime state)
                    f"allocator holds {used} frames but the shadow "
                    f"accounts for {shadow_frames}: leaked or "
                    f"double-counted frames",
                )
        # No I/O PTE may point at a frame that is no longer resident.
        for (table, iopn), frame in self._pt.items():
            memory = self._table_memory.get(table)
            if memory is None or self._mem_baseline.get(memory, 1) != 0:
                continue
            if (memory, frame) not in self._frame_refs:
                self._report(
                    "mapped-not-resident",
                    f"dangling I/O PTE dom={table.domain_id} iopn={iopn} "
                    f"-> freed frame {frame}",
                )
        # NOTE: outstanding fault bits are *not* an end-of-run violation:
        # experiments truncate the simulation mid-flight (run(until=...)),
        # legitimately leaving rNPFs unresolved.
