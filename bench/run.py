"""Benchmark: four cell-level workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload W[,W...]] [--seed S] [--seconds T]
                         [--trace [0|1]] [--json OUT] [--out DIR]

Each workload runs in its own fresh interpreter (``bench/workloads.py``),
one after another, single-threaded.  Untraced, it prints the
``end_to_end`` metrics ``BENCHMARK.json`` declares; with ``--trace`` it
profiles the same passes under cProfile, prints the ``per_layer``
metrics and writes ``trace-<workload>.json`` to ``--out``.  Every cell's
fragment digest is checked against ``bench/golden.json`` where the
golden holds that exact cell, and against the run's own first pass and
the workload's invariants always.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with several workloads, ``metrics`` maps each
workload to its metrics.  The exit code is non-zero when any cell failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from reference import host_factor, time_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SPAWNS = 5
# A child may overrun its window by this much before it is killed.
CHILD_SLACK_S = 120
MIN_COVERAGE = 0.95

# Time from spawn until the workload's modules are imported; the parent
# stops the clock when the child reports.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "__import__(sys.argv[2]); print('ready', flush=True)")


def run_child(name: str, seed: int, seconds: float, traced: bool,
              scale: float) -> dict:
    cmd = [sys.executable, str(BENCH / "workloads.py"), name, str(seed),
           repr(seconds), "1" if traced else "0", repr(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=seconds + CHILD_SLACK_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: workload child exited "
                         f"{proc.returncode}\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not report["walls"]:
        raise SystemExit(f"{name}: no pass completed\n{report['error']}")
    return report


def setup_seconds(module: str) -> float:
    """Median over fresh interpreters of spawn-to-imported time, at the
    nominal host speed measured around the spawns."""
    times, refs = [], []
    for _ in range(SETUP_SPAWNS):
        refs += time_reference(2)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC),
                               module], stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            if proc.wait(timeout=CHILD_SLACK_S) != 0 or line != "ready\n":
                raise SystemExit(f"cannot import {module}")
    return statistics.median(times) * host_factor(refs)


def verdicts(report: dict, golden: Dict[str, str]) -> dict:
    """Count failed cell executions: a raise, a digest that differs from
    the golden (or, with no golden, from the first pass), or a pass whose
    fragments break the workload's invariants."""
    attempted = failed = 0
    checked = True
    for cell in report["cells"]:
        expect = golden.get(cell["key"])
        checked &= expect is not None
        for i, d in enumerate(cell["digests"]):
            attempted += 1
            if d != (expect or cell["digests"][0]) or report["problems"][i]:
                failed += 1
    if report["error"]:
        attempted += 1
        failed += 1
    return dict(attempted=attempted, failed=failed,
                checked="golden" if checked else "unchecked")


def end_to_end(report: dict, setup_s: float) -> Dict[str, float]:
    wall = statistics.median(report["walls"]) * host_factor(report["refs"])
    return dict(wall_s=wall, ops_per_s=report["ops"] / wall,
                setup_s=setup_s, peak_rss_mb=report["peak_rss_mb"])


def per_layer(report: dict) -> Dict[str, float]:
    trace = report["trace"]
    metrics = dict(trace["metrics"])
    metrics["sim.events_per_op"] = metrics["sim.events"] / report["ops"]
    metrics["trace.overhead"] = (statistics.median(report["walls"])
                                 / trace["unprofiled_wall_s"])
    metrics["trace.coverage"] = trace["coverage"]
    return metrics


def with_units(values: Dict[str, float], declared: List[dict]) -> dict:
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit("computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(names))}")
    return {m["name"]: dict(value=values[m["name"]], unit=m["unit"])
            for m in declared}


def run_workload(name: str, args, golden: dict) -> dict:
    report = run_child(name, args.seed, args.seconds, args.trace, args.scale)
    verdict = verdicts(report, golden.get(name, {}))
    if args.trace:
        values = per_layer(report)
        if values["trace.coverage"] < MIN_COVERAGE:
            raise SystemExit(f"{name}: trace coverage "
                             f"{values['trace.coverage']:.3f} < {MIN_COVERAGE}")
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"trace-{name}.json").write_text(json.dumps(
            {**report["trace"], "workload": name, "seed": args.seed,
             "metrics": values}, indent=1))
        metrics = with_units(values, SPEC["per_layer"])
    else:
        setup_s = setup_seconds(WORKLOADS[name].module)
        metrics = with_units(end_to_end(report, setup_s), SPEC["end_to_end"])
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name}: {len(report['walls'])} passes, raw median "
          f"{statistics.median(report['walls']):.4g} s, host at "
          f"{1 / host_factor(report['refs']):.3f}x nominal time, "
          f"{verdict['failed']}/{verdict['attempted']} cells failed "
          f"({verdict['checked']})")
    if report["error"]:
        print(report["error"], file=sys.stderr)
    return dict(verdict, metrics=metrics, walls=report["walls"],
                refs=report["refs"], ops=report["ops"], cells=report["cells"],
                problems=report["problems"])


def record_golden(path: Path, golden: dict, results: dict) -> None:
    for name, result in results.items():
        for cell in result["cells"]:
            golden.setdefault(name, {})[cell["key"]] = cell["digests"][0]
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=",".join(WORKLOADS),
                   help="comma-separated workloads (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="0 keeps each experiment's own seed")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="measurement window per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="profile and print per-layer metrics")
    p.add_argument("--json", type=Path, help="write the full report here")
    p.add_argument("--out", type=Path, default=BENCH / "out",
                   help="directory for trace-<workload>.json")
    p.add_argument("--golden", type=Path, default=BENCH / "golden.json")
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's digests in --golden")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink each pass (tests); goldens hold scale 1")
    args = p.parse_args(argv)
    names = args.workload.split(",")
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workload(s): {sorted(unknown)}")

    golden = json.loads(args.golden.read_text()) if args.golden.exists() else {}
    results = {name: run_workload(name, args, golden) for name in names}
    if args.record_golden:
        record_golden(args.golden, golden, results)
    if args.json:
        args.json.write_text(json.dumps(dict(seed=args.seed, trace=args.trace,
                                             workloads=results), indent=1))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = (results[names[0]]["metrics"] if len(names) == 1 else
               {name: r["metrics"] for name, r in results.items()})
    print(json.dumps(dict(correct=failed == 0, attempted=attempted,
                          failed=failed, metrics=metrics)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
