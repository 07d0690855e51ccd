"""Parallel sweep-cell execution engine with a content-addressed cache.

The sequential CLI ran 20 registry entries one after another in one
process, even though every experiment is a sweep of independent cells
(mode x ring size x capacity points) that each build their own
``Environment``.  This engine:

* asks each experiment for its cells (``ExperimentSpec.cells``), in
  canonical order;
* skips cells whose result is already in the on-disk cache under
  ``.repro-cache/`` — keyed by a content hash of the cell config plus
  a fingerprint of the ``src/repro`` tree, so results invalidate
  themselves when the code changes (:func:`repro.experiments.cells
  .cell_fingerprint`);
* fans the remaining cells out over a ``multiprocessing`` pool
  (``jobs=1`` stays in-process — no pool, no pickling), then
* merges fragments back per experiment, in canonical cell order.

Because each cell seeds its own RNGs from its config and the merge
order is the cell order — never completion order — the output is
bit-identical whatever ``jobs`` is.  ``REPRO_SANITIZE=1`` installs a
fresh DMAsan observer around every pooled cell (each worker process
has no ambient test-session sanitizer of its own) and turns any
violation into a hard error.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..sim.walltime import walltime
from . import (
    ablations,
    fig3_breakdown,
    fig4_cold_ring,
    fig7_dynamic,
    fig8_storage,
    fig9_imb,
    fig10_whatif,
    rack_incast,
    sec63_loc,
    table3_tradeoffs,
    table4_tail,
    table5_overcommit,
    table6_beff,
)
from .base import ExperimentResult
from .cells import Cell, cell_fingerprint, execute, source_fingerprint

__all__ = [
    "ExperimentSpec",
    "SPECS",
    "CacheStats",
    "RunReport",
    "default_jobs",
    "usable_cpus",
    "execute_cells",
    "run_experiment",
    "run_many",
]

DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: how to enumerate, run and fold a sweep."""

    name: str
    cells: Callable[..., List[Cell]]
    merge: Callable[[Sequence[Cell], List[Any]], ExperimentResult]
    run: Callable[..., ExperimentResult]   # sequential facade (API compat)
    #: include in ``run all``?  Opt-out entries (the rack-incast sweep)
    #: run by explicit name only, so the run-all transcript — a golden,
    #: byte-compared artifact — is not changed by adding them.
    default: bool = True


SPECS: "OrderedDict[str, ExperimentSpec]" = OrderedDict(
    (spec.name, spec) for spec in (
        ExperimentSpec("fig3", fig3_breakdown.cells,
                       fig3_breakdown.merge, fig3_breakdown.run),
        ExperimentSpec("table4", table4_tail.cells,
                       table4_tail.merge, table4_tail.run),
        ExperimentSpec("fig4a", fig4_cold_ring.startup_cells,
                       fig4_cold_ring.merge_startup,
                       fig4_cold_ring.run_startup),
        ExperimentSpec("fig4b", fig4_cold_ring.ring_sweep_cells,
                       fig4_cold_ring.merge_ring_sweep,
                       fig4_cold_ring.run_ring_sweep),
        ExperimentSpec("table5", table5_overcommit.cells,
                       table5_overcommit.merge, table5_overcommit.run),
        ExperimentSpec("fig7", fig7_dynamic.cells,
                       fig7_dynamic.merge, fig7_dynamic.run),
        ExperimentSpec("fig8a", fig8_storage.bandwidth_cells,
                       fig8_storage.merge_bandwidth,
                       fig8_storage.run_bandwidth),
        ExperimentSpec("fig8b", fig8_storage.resident_cells,
                       fig8_storage.merge_resident,
                       fig8_storage.run_resident_memory),
        ExperimentSpec("fig9", fig9_imb.cells, fig9_imb.merge, fig9_imb.run),
        ExperimentSpec("table6", table6_beff.cells,
                       table6_beff.merge, table6_beff.run),
        ExperimentSpec("fig10-eth", fig10_whatif.ethernet_cells,
                       fig10_whatif.merge_ethernet,
                       fig10_whatif.run_ethernet),
        ExperimentSpec("fig10-ib", fig10_whatif.infiniband_cells,
                       fig10_whatif.merge_infiniband,
                       fig10_whatif.run_infiniband),
        ExperimentSpec("table3", table3_tradeoffs.cells,
                       table3_tradeoffs.merge, table3_tradeoffs.run),
        ExperimentSpec("sec63", sec63_loc.cells,
                       sec63_loc.merge, sec63_loc.run),
        ExperimentSpec("ablation-batching", ablations.batching_cells,
                       ablations.merge_batching, ablations.run_batching),
        ExperimentSpec("ablation-bypass", ablations.firmware_bypass_cells,
                       ablations.merge_firmware_bypass,
                       ablations.run_firmware_bypass),
        ExperimentSpec("ablation-classes", ablations.concurrent_classes_cells,
                       ablations.merge_concurrent_classes,
                       ablations.run_concurrent_classes),
        ExperimentSpec("ablation-bm-size", ablations.bm_size_cells,
                       ablations.merge_bm_size, ablations.run_bm_size_sweep),
        ExperimentSpec("ablation-pdc", ablations.pdc_capacity_cells,
                       ablations.merge_pdc_capacity,
                       ablations.run_pdc_capacity_sweep),
        ExperimentSpec("ablation-read-rnr", ablations.read_rnr_cells,
                       ablations.merge_read_rnr,
                       ablations.run_read_rnr_extension),
        ExperimentSpec("rack-incast", rack_incast.cells,
                       rack_incast.merge, rack_incast.run, default=False),
    )
)


@dataclass
class CacheStats:
    """Hit/miss accounting for one ``execute_cells`` pass."""

    total: int = 0
    hits: int = 0
    misses: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.total += other.total
        self.hits += other.hits
        self.misses += other.misses


@dataclass
class RunReport:
    """What one ``run_many`` invocation did, for the CLI summary line.

    ``mode`` is the *effective* execution mode — ``"in-process"`` or
    ``"fork-pool(n)"`` (``+retry(k)`` after a timeout) — as chosen by
    :func:`execute_cells` after the fallback heuristics, not the
    requested ``jobs``.  Benchmarks record it so a pool that would lose
    to (or silently degrade to) sequential execution can never be
    reported as parallel silently (see ``tools/bench_substrate.py``).
    ``notes`` records degradation events (timed-out pool cells) for the
    stderr summary.
    """

    jobs: int
    results: "OrderedDict[str, ExperimentResult]" = field(
        default_factory=OrderedDict)
    stats: CacheStats = field(default_factory=CacheStats)
    wall_s: float = 0.0
    mode: str = "in-process"
    notes: List[str] = field(default_factory=list)


#: Below this many pending cells a fork pool cannot amortize its
#: startup + pickle cost against typical cell runtimes; stay in-process.
_MIN_POOL_CELLS = 4

#: Per-cell wait bound for pooled execution.  The longest legitimate
#: cells (fig7's one-minute configs) finish in well under a tenth of
#: this, so it only ever fires on a genuinely wedged worker — which
#: previously stalled ``run all`` forever.  Overridable per call
#: (``cell_timeout=``) or via ``REPRO_CELL_TIMEOUT`` (seconds; 0
#: disables).
DEFAULT_CELL_TIMEOUT_S = 600.0


def _default_cell_timeout() -> Optional[float]:
    raw = os.environ.get("REPRO_CELL_TIMEOUT")
    if raw is None:
        return DEFAULT_CELL_TIMEOUT_S
    value = float(raw)
    return value if value > 0 else None


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker count when the caller does not specify one.

    With <= 2 usable cores a fork pool loses to sequential execution
    (fork + pickle overhead with no spare core to hide it behind — the
    0.91x "speedup" once recorded in BENCH_experiments.json), so the
    default is in-process there.
    """
    n = usable_cpus()
    return 1 if n <= 2 else n


def _sanitize_requested() -> bool:
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


def _execute_cell(spec: Cell) -> Any:
    """Pool-worker entry point: run one cell, sanitized when requested.

    Worker processes carry none of the parent's test-session observers,
    so under ``REPRO_SANITIZE=1`` each pooled cell gets its own DMAsan
    session; a breached DMA invariant fails the whole run loudly
    instead of vanishing with the worker.
    """
    if _sanitize_requested():
        from ..analysis import hooks
        from ..analysis.sanitizer import DmaSanitizer

        sanitizer = DmaSanitizer()
        with hooks.session(sanitizer):
            fragment = execute(spec)
            sanitizer.final_check()
        if sanitizer.violations:
            raise RuntimeError(
                f"DMAsan violations in cell {spec.label()}:\n"
                + sanitizer.summary()
            )
        return fragment
    return execute(spec)


def _execute_cell_indexed(job: "tuple[int, Cell]") -> "tuple[int, Any]":
    """Pool-worker entry for the imap scheduler: tag results with their
    cell index so completion order (which varies run to run) never leaks
    into result order."""
    i, spec = job
    return i, _execute_cell(spec)


# -- the cache ---------------------------------------------------------------

def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key}.pkl"


def _cache_load(path: Path) -> "tuple[bool, Any]":
    """Load one cache entry; ``(False, None)`` when it is unreadable.

    A truncated or corrupt file (a writer killed before the atomic
    publish existed, disk trouble, a garbage file dropped into the
    cache dir) must read as a *miss* — the cell recomputes and the
    entry is republished — never as an unpickling crash that takes the
    whole sweep down.
    """
    try:
        return True, pickle.loads(path.read_bytes())
    except Exception:
        return False, None


def _cache_store(path: Path, fragment: Any) -> None:
    """Atomic publish: a killed run never leaves a torn cache entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_bytes(pickle.dumps(fragment, protocol=pickle.HIGHEST_PROTOCOL))
    os.replace(tmp, path)


def execute_cells(cells: Sequence[Cell],
                  jobs: Optional[int] = None,
                  cache: bool = True,
                  cache_dir: Optional[os.PathLike] = None,
                  fingerprint: Optional[str] = None,
                  stats: Optional[CacheStats] = None,
                  report: Optional[RunReport] = None,
                  cell_timeout: Optional[float] = None) -> List[Any]:
    """Execute ``cells``, returning fragments in the cells' order.

    Cached fragments are loaded instead of recomputed; missing ones run
    in-process or across a fork pool, and are published to the cache
    afterwards.  ``fingerprint`` overrides the source-tree hash (tests
    use this to force invalidation without editing files).

    Parallelism is honest: the pool is only forked when it can plausibly
    win — more than two usable cores AND at least ``_MIN_POOL_CELLS``
    pending cells AND ``jobs > 1`` — otherwise execution stays
    in-process (no fork, no pickling, ambient observers intact).
    Cache-hit cells never travel: only pending cells are pooled.
    Fragments are reassembled by cell index whatever completes first,
    so the output is bit-identical to the in-process order at any job
    count.  The chosen mode is recorded on ``report`` when one is passed.

    Robustness: pooled cells wait at most ``cell_timeout`` seconds
    (default :data:`DEFAULT_CELL_TIMEOUT_S`, env ``REPRO_CELL_TIMEOUT``);
    a wedged pool is terminated and its unfinished cells retried
    in-process.  A stuck child can therefore no longer stall ``run all``
    forever.
    """
    jobs = jobs if jobs else default_jobs()
    if stats is None:
        stats = CacheStats()
    stats.total += len(cells)
    cache_root = Path(cache_dir if cache_dir is not None
                      else os.environ.get("REPRO_CACHE_DIR",
                                          DEFAULT_CACHE_DIR))
    source_fp = fingerprint if fingerprint is not None else source_fingerprint()

    fragments: List[Any] = [None] * len(cells)
    pending: List[int] = []
    paths: Dict[int, Path] = {}
    for i, spec in enumerate(cells):
        if not cache:
            pending.append(i)
            continue
        path = _cache_path(cache_root, cell_fingerprint(spec, source_fp))
        paths[i] = path
        if path.exists():
            ok, fragment = _cache_load(path)
            if ok:
                fragments[i] = fragment
                stats.hits += 1
                continue
        pending.append(i)
    stats.misses += len(pending)

    if pending:
        computed = _execute_local(cells, pending, jobs, cell_timeout, report)
        for i, fragment in zip(pending, computed):
            fragments[i] = fragment
            if cache:
                _cache_store(paths[i], fragment)
    elif report is not None:
        report.mode = "in-process"
    return fragments


def _execute_local(cells: Sequence[Cell], pending: List[int],
                   jobs: int, cell_timeout: Optional[float],
                   report: Optional[RunReport]) -> List[Any]:
    """Run the pending cells: fork pool when it can win, else in-process."""
    n_workers = min(jobs, len(pending))
    use_pool = (n_workers > 1
                and len(pending) >= _MIN_POOL_CELLS
                and usable_cpus() > 2)
    if not use_pool:
        # In-process fallback: no pool, no pickling, ambient
        # observers (a test-session DMAsan) keep seeing events.
        # ``REPRO_SANITIZE=1`` still gets its per-cell sanitizer
        # session (they nest), so the sanitize contract does not
        # depend on whether the pool heuristics engaged.
        if report is not None:
            report.mode = "in-process"
        return [_execute_cell(cells[i]) for i in pending]

    import multiprocessing

    timeout = (cell_timeout if cell_timeout is not None
               else _default_cell_timeout())
    # imap_unordered, one cell per task: workers pull work as they
    # finish (slow cells overlap instead of barrier-batching a map), and
    # index tags restore deterministic order on reassembly.  It must
    # stay unchunked: with chunksize > 1 CPython returns a plain
    # generator, which has no ``next(timeout)``.
    by_index: Dict[int, Any] = {}
    retried: List[int] = []
    with multiprocessing.get_context("fork").Pool(n_workers) as pool:
        results = pool.imap_unordered(
            _execute_cell_indexed, [(i, cells[i]) for i in pending])
        while len(by_index) + len(retried) < len(pending):
            try:
                i, fragment = (results.next(timeout) if timeout
                               else results.next())
            except StopIteration:
                break
            except multiprocessing.TimeoutError:
                # A wedged child would stall the sweep forever; kill
                # the pool and retry everything unfinished in-process.
                pool.terminate()
                retried = [i for i in pending if i not in by_index]
                break
            by_index[i] = fragment
    for i in retried:
        by_index[i] = _execute_cell(cells[i])
    if report is not None:
        report.mode = f"fork-pool({n_workers})"
        if retried:
            report.mode += f"+retry({len(retried)})"
            report.notes.append(f"fork-pool: cell wait exceeded "
                                f"{timeout}s; pool terminated, "
                                f"{len(retried)} cell(s) retried "
                                f"in-process")
    return [by_index[i] for i in pending]


def run_experiment(name: str,
                   jobs: Optional[int] = None,
                   cache: bool = True,
                   cache_dir: Optional[os.PathLike] = None,
                   fingerprint: Optional[str] = None,
                   stats: Optional[CacheStats] = None,
                   cell_timeout: Optional[float] = None,
                   **kwargs: Any) -> ExperimentResult:
    """Run one registry entry through the cell engine.

    ``kwargs`` go to the experiment's cells builder, so tests can run
    reduced sweeps (``run_experiment("table4", samples=100, jobs=2)``).
    """
    spec = SPECS[name]
    sweep = spec.cells(**kwargs)
    fragments = execute_cells(sweep, jobs=jobs, cache=cache,
                              cache_dir=cache_dir, fingerprint=fingerprint,
                              stats=stats, cell_timeout=cell_timeout)
    return spec.merge(sweep, fragments)


def run_many(names: Sequence[str],
             jobs: Optional[int] = None,
             cache: bool = True,
             cache_dir: Optional[os.PathLike] = None,
             fingerprint: Optional[str] = None,
             cell_timeout: Optional[float] = None) -> RunReport:
    """Run several experiments as ONE flat cell sweep.

    All cells from all requested experiments share the pool, so a long
    sweep (fig7's two one-minute configs) overlaps with everything else
    instead of serializing behind its own two-cell fan-out.
    """
    jobs = jobs if jobs else default_jobs()
    report = RunReport(jobs=jobs)
    start = walltime()

    sweeps: "OrderedDict[str, List[Cell]]" = OrderedDict()
    flat: List[Cell] = []
    for name in names:
        sweep = SPECS[name].cells()
        sweeps[name] = sweep
        flat.extend(sweep)

    fragments = execute_cells(flat, jobs=jobs, cache=cache,
                              cache_dir=cache_dir, fingerprint=fingerprint,
                              stats=report.stats, report=report,
                              cell_timeout=cell_timeout)

    offset = 0
    for name, sweep in sweeps.items():
        report.results[name] = SPECS[name].merge(
            sweep, fragments[offset:offset + len(sweep)])
        offset += len(sweep)
    report.wall_s = walltime() - start
    return report
