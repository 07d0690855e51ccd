"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig3 table4 ...
    python -m repro.experiments run all --jobs 8
    python -m repro.experiments run all --json results.json
    python -m repro.experiments profile [names...] [--jobs N]

Each experiment prints the paper-style table it reproduces.  ``run``
fans the experiments' sweep cells across a process pool (``--jobs``,
default: all cores) and caches cell results under ``.repro-cache/``
keyed by config + source hash (``--no-cache`` forces recompute); the
tables land on stdout — byte-identical whatever ``--jobs`` is — while
timing, cache accounting and the effective execution mode go to
stderr.  ``profile`` runs the substrate micro-benchmarks (or named
experiments) under cProfile and prints the top functions by cumulative
time.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List

from .base import print_result, results_to_json
from .runner import SPECS, default_jobs, run_many

#: Back-compat map of experiment name -> sequential ``run`` facade.
REGISTRY: Dict[str, Callable] = {
    name: spec.run for name, spec in SPECS.items()
}


def _import_bench_substrate():
    """Import ``tools.bench_substrate`` as the package it is.

    Works as-is from a repo-root checkout (the repo root is on
    ``sys.path`` for ``python -m`` runs started there); otherwise the
    repo root is appended explicitly.
    """
    try:
        from tools import bench_substrate
    except ImportError:
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[3]
        if str(repo_root) not in sys.path:
            sys.path.append(str(repo_root))
        from tools import bench_substrate
    return bench_substrate


def _profile(names: List[str], top: int, jobs: int | None,
             bench: str | None = None) -> int:
    """Run the substrate micro-benchmarks (or experiments) under cProfile."""
    import cProfile
    import pstats

    if bench:
        bench_substrate = _import_bench_substrate()
        wanted = [b.strip() for b in bench.split(",") if b.strip()]
        unknown = [b for b in wanted if b not in bench_substrate.BENCHMARKS]
        if unknown:
            print(f"unknown benchmarks: {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(bench_substrate.BENCHMARKS)}",
                  file=sys.stderr)
            return 2

        def workload():
            for name in wanted:
                fn, scale, _unit = bench_substrate.BENCHMARKS[name]
                fn(scale)

        label = f"substrate benchmarks (full scale): {', '.join(wanted)}"
    elif names:
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
            return 2

        def workload():
            run_many(names, jobs=jobs, cache=False)

        label = ", ".join(names)
        if jobs and jobs != 1:
            label += f" (jobs={jobs})"
    else:
        # Default: the substrate micro-benchmark suite at reduced scale —
        # the hot paths every experiment sits on.
        bench_substrate = _import_bench_substrate()

        def workload():
            for name, (fn, scale, _unit) in bench_substrate.BENCHMARKS.items():
                fn(max(1, scale // 10))

        label = "substrate micro-benchmarks (1/10 scale)"

    print(f"profiling: {label}")
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("names", nargs="+",
                            help="experiment names, or 'all'")
    run_parser.add_argument("--jobs", type=int, default=None,
                            help="worker processes for the cell sweep "
                                 "(default: all cores; 1 = in-process)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="recompute every cell, ignoring and not "
                                 "writing .repro-cache/")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="also dump the results as JSON to PATH")
    run_parser.add_argument("--cell-timeout", type=float, default=None,
                            metavar="S",
                            help="per-cell wait bound for pooled "
                                 "execution (default 600; timed-out cells "
                                 "are retried in-process)")
    profile_parser = sub.add_parser(
        "profile",
        help="profile the substrate micro-benchmarks (or experiments) "
             "under cProfile",
    )
    profile_parser.add_argument("names", nargs="*",
                                help="experiment names (default: substrate "
                                     "micro-benchmarks)")
    profile_parser.add_argument("--top", type=int, default=20,
                                help="how many functions to print (default 20)")
    profile_parser.add_argument("--jobs", type=int, default=None,
                                help="worker processes when profiling "
                                     "experiments (default: all cores)")
    profile_parser.add_argument("--bench", default=None,
                                help="comma-separated substrate benchmark "
                                     "names to profile at full scale "
                                     "(e.g. link_stream,switch_fanout)")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in REGISTRY:
            print(name)
        return 0

    if args.command == "profile":
        return _profile(args.names, args.top, args.jobs, bench=args.bench)

    # ``all`` means the default set; opt-out specs (rack-incast) run by
    # explicit name only, keeping the run-all transcript byte-stable.
    names = ([n for n, s in SPECS.items() if s.default]
             if args.names == ["all"] else args.names)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    report = run_many(names, jobs=args.jobs, cache=not args.no_cache,
                      cell_timeout=args.cell_timeout)
    for result in report.results.values():
        print_result(result)
        print()
    stats = report.stats
    print(f"{len(report.results)} experiment(s), {stats.total} cells "
          f"({stats.hits} cached, {stats.misses} computed) "
          f"in {report.wall_s:.1f}s with jobs={report.jobs or default_jobs()} "
          f"[{report.mode}]",
          file=sys.stderr)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(results_to_json(report.results.values()))
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
