"""The parallel sweep-cell engine: equivalence, caching, sanitizing.

The engine's contract is strong: whatever ``jobs`` is, and whether
fragments came from the pool or the cache, the merged tables are
byte-identical to the sequential facades' output.  These tests pin
that contract on a set of fast experiments (the full sweep runs in the
``e2e_run_all`` benchmark gate instead).
"""

from __future__ import annotations

import contextlib
import io
import multiprocessing
import pickle

import pytest

from repro.experiments import runner
from repro.experiments.base import print_result, results_to_json
from repro.experiments.cells import (
    Cell,
    cell,
    cell_fingerprint,
    resolve,
    source_fingerprint,
)
from repro.experiments.runner import CacheStats, run_experiment, run_many

# Sub-second experiments: enough to exercise every engine path without
# paying for the minute-long sweeps.
FAST = ["table3", "sec63", "ablation-batching", "ablation-bypass",
        "ablation-classes", "ablation-pdc"]

_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not _FORK, reason="needs fork start method")


def _render(results) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for result in results:
            print_result(result)
    return buf.getvalue()


# -- the cell abstraction ----------------------------------------------------

def test_cells_are_picklable_and_resolvable():
    for name in FAST:
        for spec in runner.SPECS[name].cells():
            clone = pickle.loads(pickle.dumps(spec))
            assert clone == spec
            assert callable(resolve(clone))


def test_cell_config_is_canonically_ordered():
    from repro.experiments.table3_tradeoffs import cell_strategy

    a = cell("x", 0, cell_strategy, strategy="npf")
    assert a.config == (("strategy", "npf"),)
    assert a.kwargs() == {"strategy": "npf"}
    assert a.fn == "repro.experiments.table3_tradeoffs:cell_strategy"


def test_cell_fingerprint_depends_on_config_and_source():
    from repro.experiments.table3_tradeoffs import cell_strategy

    a = cell("x", 0, cell_strategy, strategy="npf")
    b = cell("x", 0, cell_strategy, strategy="fine")
    assert cell_fingerprint(a, "fp") != cell_fingerprint(b, "fp")
    assert cell_fingerprint(a, "fp") != cell_fingerprint(a, "other-fp")
    assert cell_fingerprint(a, "fp") == cell_fingerprint(a, "fp")


def test_source_fingerprint_is_stable_within_a_process():
    assert source_fingerprint() == source_fingerprint()
    assert len(source_fingerprint()) == 64


# -- parallel == sequential --------------------------------------------------

@needs_fork
def test_parallel_output_is_byte_identical_to_sequential(force_pool):
    seq = run_many(FAST, jobs=1, cache=False)
    par = run_many(FAST, jobs=4, cache=False)
    assert par.mode.startswith("fork-pool("), par.mode
    assert _render(seq.results.values()) == _render(par.results.values())


@needs_fork
def test_parallel_matches_run_facades(force_pool):
    report = run_many(FAST, jobs=2, cache=False)
    assert report.mode.startswith("fork-pool("), report.mode
    facades = [runner.SPECS[name].run() for name in FAST]
    assert _render(report.results.values()) == _render(facades)


@needs_fork
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_determinism_across_job_counts(jobs, force_pool):
    spec = runner.SPECS["ablation-pdc"]
    sweep = spec.cells()
    fragments, mode = force_pool(sweep, jobs)
    if jobs > 1:
        assert mode.startswith("fork-pool("), mode
    baseline = run_experiment("ablation-pdc", jobs=1, cache=False)
    assert _render([spec.merge(sweep, fragments)]) == _render([baseline])


def test_json_export_is_stable():
    r1 = run_experiment("table3", jobs=1, cache=False)
    r2 = run_experiment("table3", jobs=1, cache=False)
    assert results_to_json([r1]) == results_to_json([r2])
    assert '"experiment_id": "table-3"' in results_to_json([r1])


# -- the cache ---------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    cold = CacheStats()
    r1 = run_experiment("table3", jobs=1, cache_dir=tmp_path, stats=cold)
    assert (cold.total, cold.hits, cold.misses) == (4, 0, 4)

    warm = CacheStats()
    r2 = run_experiment("table3", jobs=1, cache_dir=tmp_path, stats=warm)
    assert (warm.total, warm.hits, warm.misses) == (4, 4, 0)
    assert _render([r1]) == _render([r2])


def test_cache_invalidates_when_source_changes(tmp_path):
    first = CacheStats()
    run_experiment("table3", jobs=1, cache_dir=tmp_path,
                   fingerprint="rev-a", stats=first)
    assert first.misses == 4

    # Same "source": all hits.  Different "source": all misses again.
    same = CacheStats()
    run_experiment("table3", jobs=1, cache_dir=tmp_path,
                   fingerprint="rev-a", stats=same)
    assert (same.hits, same.misses) == (4, 0)

    changed = CacheStats()
    run_experiment("table3", jobs=1, cache_dir=tmp_path,
                   fingerprint="rev-b", stats=changed)
    assert (changed.hits, changed.misses) == (0, 4)


def test_no_cache_never_touches_disk(tmp_path):
    stats = CacheStats()
    run_experiment("table3", jobs=1, cache=False, cache_dir=tmp_path,
                   stats=stats)
    assert stats.hits == 0 and stats.misses == 4
    assert list(tmp_path.iterdir()) == []


@needs_fork
def test_pooled_run_populates_cache_for_sequential_rerun(tmp_path):
    cold = CacheStats()
    par = run_experiment("ablation-pdc", jobs=4, cache_dir=tmp_path,
                         stats=cold)
    assert cold.misses == 4

    warm = CacheStats()
    seq = run_experiment("ablation-pdc", jobs=1, cache_dir=tmp_path,
                         stats=warm)
    assert warm.hits == 4
    assert _render([par]) == _render([seq])


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    stats = CacheStats()
    run_experiment("sec63", jobs=1, stats=stats)
    assert stats.misses == 3
    assert (tmp_path / "alt").is_dir()


# -- DMAsan through pooled cells ---------------------------------------------

@needs_fork
def test_pooled_cell_runs_under_dmasan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    # ablation-bypass cells drive real DMA traffic through the driver;
    # a clean run proves each worker installed (and passed) its own
    # sanitizer session.
    result = run_experiment("ablation-bypass", jobs=2, cache=False)
    baseline = run_experiment("ablation-bypass", jobs=1, cache=False)
    assert _render([result]) == _render([baseline])


def cell_violation() -> int:
    """Test helper cell: reports a DMA invariant breach to the observer.

    Dropping a page the sanitizer never saw become resident is a
    guaranteed "residency" violation, with no simulation required.
    """
    from repro.analysis import hooks

    class _Allocator:
        used_frames = 0
        _next_fresh = 0

    class _Memory:
        allocator = _Allocator()

    class _Space:
        asid = 99
        memory = _Memory()

    if hooks.active is not None:
        hooks.active.on_page_dropped(_Space(), vpn=1, frame=0, evicted=False)
    return 0


def test_cell_violation_fails_loudly(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    spec = Cell(experiment="x", index=0,
                fn="tests.test_experiments_runner:cell_violation", config=())
    with pytest.raises(RuntimeError, match="DMAsan"):
        runner._execute_cell(spec)


@needs_fork
def test_pooled_cell_violation_fails_loudly(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    spec = Cell(experiment="x", index=0,
                fn="tests.test_experiments_runner:cell_violation", config=())
    other = Cell(experiment="x", index=1,
                 fn="tests.test_experiments_runner:cell_violation", config=())
    with pytest.raises(RuntimeError, match="DMAsan"):
        runner.execute_cells([spec, other], jobs=2, cache=False)


# -- pool robustness: the hung-worker hazard ---------------------------------

def cell_pool_sleeper(value: int) -> int:
    """Wedges only inside a pool child; instant on the in-process retry.

    ``multiprocessing.parent_process()`` is None in the main process,
    so the timeout path's retry completes immediately — the test
    observes the terminate-and-retry machinery, not a long sleep.
    """
    import time

    if multiprocessing.parent_process() is not None:
        time.sleep(60.0)
    return value * 7


def cell_quick(value: int) -> int:
    return value * 3


@needs_fork
def test_pool_cell_timeout_terminates_and_retries_in_process(monkeypatch):
    """A wedged pool child used to stall ``run all`` forever; now the
    pool is terminated and unfinished cells retried in-process."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 4)
    cells = [Cell("drill", 0, "tests.test_experiments_runner:"
                  "cell_pool_sleeper", (("value", 6),))]
    cells += [Cell("drill", i, "tests.test_experiments_runner:cell_quick",
                   (("value", i),)) for i in range(1, 6)]
    report = runner.RunReport(jobs=2)
    fragments = runner.execute_cells(cells, jobs=2, cache=False,
                                     cell_timeout=2.0, report=report)
    assert fragments == [42, 3, 6, 9, 12, 15]
    assert report.mode.startswith("fork-pool(2)+retry("), report.mode
    assert any("retried in-process" in note for note in report.notes)


@needs_fork
def test_pool_timeout_disabled_via_env(monkeypatch):
    """REPRO_CELL_TIMEOUT=0 disables the bound (opt-out stays possible)."""
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
    assert runner._default_cell_timeout() is None
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "120")
    assert runner._default_cell_timeout() == 120.0
    monkeypatch.delenv("REPRO_CELL_TIMEOUT")
    assert runner._default_cell_timeout() == runner.DEFAULT_CELL_TIMEOUT_S


# -- cache hardening: corrupt entries and concurrent writers -----------------

def test_corrupt_cache_entry_reads_as_miss_and_heals(tmp_path):
    populate = CacheStats()
    first = run_experiment("table3", jobs=1, cache_dir=tmp_path,
                           stats=populate)
    assert populate.misses == 4
    entries = sorted(tmp_path.rglob("*.pkl"))
    assert len(entries) == 4
    entries[0].write_bytes(b"\x80\x04 torn mid-write")  # truncated pickle
    entries[1].write_bytes(b"")                          # zero-length

    stats = CacheStats()
    second = run_experiment("table3", jobs=1, cache_dir=tmp_path,
                            stats=stats)
    assert (stats.hits, stats.misses) == (2, 2)
    assert _render([first]) == _render([second])
    # Recomputation republished both entries: a third run is all hits.
    healed = CacheStats()
    run_experiment("table3", jobs=1, cache_dir=tmp_path, stats=healed)
    assert (healed.hits, healed.misses) == (4, 0)


def test_cache_load_rejects_garbage_without_raising(tmp_path):
    path = tmp_path / "zz" / "deadbeef.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle at all")
    assert runner._cache_load(path) == (False, None)


def _hammer_cache_store(path, payload, iterations):
    for _ in range(iterations):
        runner._cache_store(path, payload)


@needs_fork
def test_concurrent_publishers_never_leave_a_torn_entry(tmp_path):
    """Two processes racing ``_cache_store`` on the same key while a
    reader polls: ``os.replace`` publish means every read is a complete
    entry from one writer or the other, never a blend or a torn file."""
    path = tmp_path / "ab" / "abcdef.pkl"
    small = {"writer": "a", "rows": list(range(10))}
    large = {"writer": "b", "rows": list(range(5000))}

    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(target=_hammer_cache_store, args=(path, small, 200)),
        ctx.Process(target=_hammer_cache_store, args=(path, large, 200)),
    ]
    for proc in writers:
        proc.start()
    reads = 0
    try:
        while any(proc.is_alive() for proc in writers):
            if path.exists():
                ok, fragment = runner._cache_load(path)
                assert ok, "reader saw a torn cache entry mid-publish"
                assert fragment in (small, large)
                reads += 1
    finally:
        for proc in writers:
            proc.join(timeout=30)
    assert all(proc.exitcode == 0 for proc in writers)
    assert reads > 0, "reader never overlapped the writers"
    ok, final = runner._cache_load(path)
    assert ok and final in (small, large)
    leftovers = [p for p in path.parent.iterdir() if p.suffix != ".pkl"]
    assert not leftovers or all(".tmp." in p.name for p in leftovers)


# -- run_many ----------------------------------------------------------------

def test_run_many_reports_stats_and_order():
    report = run_many(["sec63", "table3"], jobs=1, cache=False)
    assert list(report.results) == ["sec63", "table3"]
    assert report.stats.total == 7
    assert report.wall_s >= 0.0


def test_registry_backed_by_specs():
    from repro.experiments.__main__ import REGISTRY

    assert list(REGISTRY) == list(runner.SPECS)
    for name, fn in REGISTRY.items():
        assert fn is runner.SPECS[name].run
