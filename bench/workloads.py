"""The benchmark's four workloads and the child process that measures one.

A workload is a list of calls to one experiment's public ``cell_*``
function.  One *pass* runs every call once, in process, with no result
cache.  The child runs passes back to back until the next one would end
past the time window, and prints one JSON object on its last stdout line:
per-pass wall times, the reference-loop times taken before each pass
(``reference.py``), the application operations a pass serves, every
cell's fragment digest per pass, the invariant problems each pass showed,
peak RSS and, when traced, the per-layer cProfile attribution.

Run as ``python3 bench/workloads.py WORKLOAD SEED SECONDS TRACE SCALE``;
``bench/run.py`` does this once per workload in a fresh interpreter.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from reference import time_reference

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_SAMPLES = 3

KB = 1024
MB = 1024 * KB

# Memaslap report intervals hard-coded in fig7_dynamic.cell_mode and
# fig4_cold_ring.cell_startup: a rate series times its interval gives
# the operations served in that interval.
FIG7_REPORT_S = 0.5
FIG4_REPORT_S = 0.25

RACK_SENDERS = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which cells a pass runs and how to judge them."""

    module: str                    # experiment module holding the cell function
    fn: str                        # public cell_* function a pass calls
    own_seed: int                  # the experiment's default seed (--seed 0)
    calls: Callable[[int, float], List[dict]]   # (seed, scale) -> kwargs per cell
    ops: Callable[[List[dict], List[dict]], int]    # (calls, fragments) -> ops
    check: Callable[[List[dict], List[dict]], List[str]]  # -> problems


def _kv_calls(seed: int, scale: float) -> List[dict]:
    duration = round(1.0 * scale, 6)
    return [dict(npf=True, duration=duration,
                 switch_at=round(duration / 2, 6), seed=seed)]


def _kv_ops(calls, frags) -> int:
    f = frags[0]
    return round((sum(f["grow"]) + sum(f["shrink"])) * FIG7_REPORT_S)


def _kv_check(calls, frags) -> List[str]:
    f = frags[0]
    problems = []
    if not len(f["times"]) == len(f["grow"]) == len(f["shrink"]) > 0:
        problems.append("hit series lengths differ or are empty")
    if min(f["grow"] + f["shrink"], default=0.0) < 0:
        problems.append("negative hit rate")
    if not (sum(f["grow"]) > 0 and sum(f["shrink"]) > 0):
        problems.append("an instance served no hits")
    return problems


def _cold_calls(seed: int, scale: float) -> List[dict]:
    duration = round(1.0 * scale, 6)
    return [dict(mode=mode, duration=duration, seed=seed)
            for mode in ("drop", "backup")]


def _cold_ops(calls, frags) -> int:
    return round(sum(sum(f["values"]) for f in frags) * FIG4_REPORT_S)


def _cold_check(calls, frags) -> List[str]:
    served = {f["mode"]: sum(f["values"]) for f in frags}
    if not served["backup"] > served["drop"]:
        return [f"backup ring served no more than drop: {served}"]
    return []


def _npf_calls(seed: int, scale: float) -> List[dict]:
    samples = max(1, round(250 * scale))
    return [dict(label=label, size=size, samples=samples, seed=seed)
            for label, size in (("4KB", 4 * KB), ("4MB", 4 * MB))]


def _npf_ops(calls, frags) -> int:
    return sum(c["samples"] for c in calls)


def _npf_check(calls, frags) -> List[str]:
    problems = []
    for f in frags:
        p = [f["p50_us"], f["p95_us"], f["p99_us"], f["max_us"]]
        if not 0 < p[0] <= p[1] <= p[2] <= p[3]:
            problems.append(f"{f['message']}: percentiles out of order {p}")
    small, large = frags
    if not large["p50_us"] > small["p50_us"]:
        problems.append("a 4MB fault is not slower than a 4KB fault")
    return problems


def _rack_calls(seed: int, scale: float) -> List[dict]:
    messages = max(1, round(200 * scale))
    return [dict(net=net, memory=memory, n_senders=RACK_SENDERS,
                 loss_pct=1.0, messages=messages, size=16 * KB, seed=seed)
            for net in ("pfc", "gbn", "irn")
            for memory in ("static", "pdc", "npf")]


def _rack_ops(calls, frags) -> int:
    return sum(f["delivered"] for f in frags)


def _rack_check(calls, frags) -> List[str]:
    problems = []
    for c, f in zip(calls, frags):
        where = f"{f['net']}/{f['memory']}"
        if f["delivered"] != c["n_senders"] * c["messages"]:
            problems.append(f"{where}: delivered {f['delivered']} messages")
        if f["net"] == "pfc" and (f["lost"] or f["switch_drops"]
                                  or f["retransmits"]):
            problems.append(f"{where}: the lossless fabric lost packets")
    return problems


WORKLOADS: Dict[str, Workload] = {
    "kv_dynamic": Workload("repro.experiments.fig7_dynamic", "cell_mode", 23,
                           _kv_calls, _kv_ops, _kv_check),
    "cold_ring": Workload("repro.experiments.fig4_cold_ring", "cell_startup",
                          11, _cold_calls, _cold_ops, _cold_check),
    "npf_storm": Workload("repro.experiments.table4_tail", "cell_tail", 7,
                          _npf_calls, _npf_ops, _npf_check),
    "rack_incast": Workload("repro.experiments.rack_incast", "cell_incast", 11,
                            _rack_calls, _rack_ops, _rack_check),
}


def cell_calls(name: str, seed: int, scale: float) -> List[dict]:
    """The kwargs of every cell one pass of ``name`` runs; seed 0 means
    the experiment's own seed."""
    w = WORKLOADS[name]
    return w.calls(seed or w.own_seed, scale)


def cell_key(name: str, kwargs: dict) -> str:
    """Stable description of one cell call, the key of its golden digest."""
    w = WORKLOADS[name]
    args = ", ".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
    return f"{w.module.rsplit('.', 1)[-1]}.{w.fn}({args})"


def digest(fragment) -> str:
    """md5 of a fragment's canonical JSON."""
    text = json.dumps(fragment, sort_keys=True, separators=(",", ":"))
    return hashlib.md5(text.encode()).hexdigest()


def measure(name: str, seed: int, seconds: float, traced: bool,
            scale: float) -> dict:
    """Run passes of one workload for ``seconds`` and report on them.

    Before every pass the reference loop is timed ``REFERENCE_SAMPLES``
    times.  Untraced, every pass is timed.  Traced, one pass without the
    profiler gives the unprofiled wall time, and every later pass runs
    under cProfile; ``trace.overhead`` is their ratio.
    """
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[name]
    fn = getattr(importlib.import_module(w.module), w.fn)
    calls = cell_calls(name, seed, scale)
    profiler = None
    if traced:
        import cProfile
        profiler = cProfile.Profile()

    walls: List[float] = []
    refs: List[float] = []
    digests: List[List[str]] = [[] for _ in calls]
    problems: List[List[str]] = []
    ops = 0
    error = None
    unprofiled_wall = None
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        refs += time_reference(REFERENCE_SAMPLES)
        gc.collect()
        profiling = profiler is not None and unprofiled_wall is not None
        try:
            if profiling:
                profiler.enable()
            t0 = time.perf_counter()
            frags = [fn(**kw) for kw in calls]
            wall = time.perf_counter() - t0
        except Exception:
            error = traceback.format_exc()
            break
        finally:
            if profiling:
                profiler.disable()
        if profiler is not None and unprofiled_wall is None:
            unprofiled_wall = wall
        else:
            walls.append(wall)
        for i, f in enumerate(frags):
            digests[i].append(digest(f))
        problems.append(w.check(calls, frags))
        ops = w.ops(calls, frags)
        now = time.perf_counter()
        if walls and now - start + (now - t_pass) > seconds:
            break

    report = dict(
        walls=walls,
        refs=refs,
        ops=ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cells=[dict(key=cell_key(name, kw), digests=d)
               for kw, d in zip(calls, digests)],
        problems=problems,
        error=error,
    )
    if profiler is not None and walls:
        import trace as layer_trace
        from repro.sim.engine import Environment, Process
        profiler.create_stats()
        report["trace"] = layer_trace.attribute(
            profiler.stats, SRC / "repro", passes=len(walls),
            events=[getattr(Environment, m).__code__
                    for m in layer_trace.EVENT_FACTORIES],
            processes=Process.__init__.__code__)
        report["trace"]["unprofiled_wall_s"] = unprofiled_wall
    return report


def main(argv: List[str]) -> None:
    name, seed, seconds, traced, scale = argv
    report = measure(name, int(seed), float(seconds), traced == "1",
                     float(scale))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
