"""Tests for the repro-lint static analysis pass (tools/lint)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from tools.lint import (  # noqa: E402 - path bootstrap above
    fingerprint,
    format_baseline,
    lint_file,
    lint_paths,
    load_baseline,
)
from tools.lint.__main__ import main as lint_main  # noqa: E402


def _lint_source(tmp_path, source, display):
    f = tmp_path / Path(display).name
    f.write_text(textwrap.dedent(source))
    return lint_file(f, display)


def _codes(findings):
    return [f.code for f in findings]


# -- the acceptance criterion: src/ lints clean ------------------------------

def test_src_tree_is_clean():
    findings = lint_paths([str(REPO / "src")])
    baseline = load_baseline(REPO / "tools" / "lint" / "baseline.txt")
    assert baseline == set(), "determinism baseline must stay empty"
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_run_over_src_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint", "src/"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


# -- RL001: wall-clock reads -------------------------------------------------

def test_rl001_flags_time_time(tmp_path):
    findings = _lint_source(tmp_path, """\
        import time
        def measure():
            return time.time()
        """, "src/repro/sim/engine_extra.py")
    assert "RL001" in _codes(findings)


def test_rl001_flags_datetime_now(tmp_path):
    findings = _lint_source(tmp_path, """\
        from datetime import datetime
        stamp = datetime.now()
        """, "src/repro/core/foo.py")
    assert "RL001" in _codes(findings)


def test_rl001_exempts_walltime_helper(tmp_path):
    findings = _lint_source(tmp_path, """\
        import time
        def walltime():
            return time.perf_counter()
        """, "src/repro/sim/walltime.py")
    assert "RL001" not in _codes(findings)


def test_rl001_ignores_non_sim_code(tmp_path):
    findings = _lint_source(tmp_path, """\
        import time
        now = time.time()
        """, "scripts/bench.py")
    assert "RL001" not in _codes(findings)


def test_rl001_fix_rewrites_to_walltime(tmp_path):
    from tools.lint.__main__ import _apply_fixes
    f = tmp_path / "mod.py"
    f.write_text(textwrap.dedent("""\
        import time

        def stamp():
            return time.time()
        """))
    findings = lint_file(f, "src/repro/exp/mod.py")
    fix = [x for x in findings if x.code == "RL001"]
    assert fix and fix[0].fix is not None
    applied = _apply_fixes(f, "src/repro/exp/mod.py", findings)
    assert applied == 1
    fixed = f.read_text()
    assert "walltime()" in fixed
    assert "time.time()" not in fixed
    assert "from ..sim.walltime import walltime" in fixed


# -- RL002: unseeded randomness ----------------------------------------------

def test_rl002_flags_random_import_and_use(tmp_path):
    findings = _lint_source(tmp_path, """\
        import random
        x = random.random()
        """, "src/repro/net/jitter.py")
    assert _codes(findings).count("RL002") == 2


def test_rl002_exempts_rng_module(tmp_path):
    findings = _lint_source(tmp_path, """\
        import random
        class Rng:
            __slots__ = ("_r",)
            def __init__(self, seed):
                self._r = random.Random(seed)
        """, "src/repro/sim/rng.py")
    assert "RL002" not in _codes(findings)


# -- RL003: id() -------------------------------------------------------------

def test_rl003_flags_id_in_repr(tmp_path):
    findings = _lint_source(tmp_path, """\
        class Thing:
            __slots__ = ()
            def __repr__(self):
                return f"<Thing at {id(self):#x}>"
        """, "src/repro/sim/engine.py")
    assert "RL003" in _codes(findings)


def test_rl003_inline_suppression(tmp_path):
    findings = _lint_source(tmp_path, """\
        token = id(object())  # lint: disable=RL003
        """, "src/repro/core/foo.py")
    assert "RL003" not in _codes(findings)


# -- RL004: set iteration ----------------------------------------------------

def test_rl004_flags_set_iteration(tmp_path):
    findings = _lint_source(tmp_path, """\
        def schedule(env, waiters):
            for w in set(waiters):
                env.schedule(w)
        """, "src/repro/sim/queues.py")
    assert "RL004" in _codes(findings)


def test_rl004_flags_set_literal_comprehension(tmp_path):
    findings = _lint_source(tmp_path, """\
        order = [x for x in {3, 1, 2}]
        """, "src/repro/core/foo.py")
    assert "RL004" in _codes(findings)


def test_rl004_allows_sorted_sets(tmp_path):
    findings = _lint_source(tmp_path, """\
        def schedule(env, waiters):
            for w in sorted(set(waiters)):
                env.schedule(w)
        """, "src/repro/sim/queues.py")
    assert "RL004" not in _codes(findings)


def test_rl004_fix_wraps_in_sorted(tmp_path):
    from tools.lint.__main__ import _apply_fixes
    f = tmp_path / "mod.py"
    f.write_text(textwrap.dedent("""\
        def drain(pending):
            for p in set(pending):
                yield p
        """))
    findings = lint_file(f, "src/repro/nic/mod.py")
    assert _apply_fixes(f, "src/repro/nic/mod.py", findings) == 1
    assert "for p in sorted(set(pending)):" in f.read_text()
    # The fixed file lints clean.
    assert lint_file(f, "src/repro/nic/mod.py") == []


# -- RL005: __slots__ in hot modules ----------------------------------------

def test_rl005_flags_slotless_class_in_hot_module(tmp_path):
    findings = _lint_source(tmp_path, """\
        class Event:
            def __init__(self):
                self.value = None
        """, "src/repro/sim/engine.py")
    assert "RL005" in _codes(findings)


def test_rl005_accepts_slots_and_slotted_dataclass(tmp_path):
    findings = _lint_source(tmp_path, """\
        from dataclasses import dataclass

        class Event:
            __slots__ = ("value",)

        @dataclass(frozen=True, slots=True)
        class Translation:
            frame: int

        class SimulationError(Exception):
            pass
        """, "src/repro/iommu/iommu.py")
    assert "RL005" not in _codes(findings)


def test_rl005_not_applied_outside_hot_modules(tmp_path):
    findings = _lint_source(tmp_path, """\
        class Config:
            pass
        """, "src/repro/experiments/config.py")
    assert "RL005" not in _codes(findings)


# -- RL006: unmap without shootdown ------------------------------------------

def test_rl006_flags_unmap_without_invalidate(tmp_path):
    findings = _lint_source(tmp_path, """\
        def teardown(table, iopn):
            table.unmap(iopn)
        """, "src/repro/core/driver.py")
    assert "RL006" in _codes(findings)


def test_rl006_accepts_unmap_with_shootdown(tmp_path):
    findings = _lint_source(tmp_path, """\
        def teardown(self, domain_id, iopn):
            self._domains[domain_id].unmap(iopn)
            self.iotlb.invalidate(domain_id, iopn)
        """, "src/repro/iommu/extra.py")
    assert "RL006" not in _codes(findings)


def test_rl006_accepts_iommu_level_unmap(tmp_path):
    findings = _lint_source(tmp_path, """\
        def deregister(self, vpn):
            self.iommu.unmap(self.domain.domain_id, vpn)
        """, "src/repro/core/regions.py")
    assert "RL006" not in _codes(findings)


# -- RL007: experiment cell purity -------------------------------------------

def test_rl007_flags_cell_reading_module_list(tmp_path):
    findings = _lint_source(tmp_path, """\
        SIZES = [64, 4096]

        def cell_latency(samples):
            return [s * len(SIZES) for s in range(samples)]
        """, "src/repro/experiments/fake_exp.py")
    assert "RL007" in _codes(findings)


def test_rl007_flags_cell_mutating_module_dict(tmp_path):
    findings = _lint_source(tmp_path, """\
        _RESULTS = {}

        def cell_point(x):
            _RESULTS[x] = x * 2
            return _RESULTS[x]
        """, "src/repro/experiments/fake_exp.py")
    assert "RL007" in _codes(findings)


def test_rl007_flags_global_statement(tmp_path):
    findings = _lint_source(tmp_path, """\
        COUNT = 0

        def cell_bump():
            global COUNT
            COUNT += 1
            return COUNT
        """, "src/repro/experiments/fake_exp.py")
    assert "RL007" in _codes(findings)


def test_rl007_allows_immutable_module_constants(tmp_path):
    findings = _lint_source(tmp_path, """\
        MODES = ("pin", "npf")
        SCALE = 4

        def cell_run(mode):
            assert mode in MODES
            return SCALE
        """, "src/repro/experiments/fake_exp.py")
    assert "RL007" not in _codes(findings)


def test_rl007_allows_locally_shadowed_names(tmp_path):
    findings = _lint_source(tmp_path, """\
        SIZES = [64, 4096]

        def cell_run(n):
            SIZES = list(range(n))
            return sum(SIZES)
        """, "src/repro/experiments/fake_exp.py")
    assert "RL007" not in _codes(findings)


def test_rl007_ignores_non_cell_functions(tmp_path):
    findings = _lint_source(tmp_path, """\
        CACHE = {}

        def run():
            CACHE["x"] = 1
            return CACHE
        """, "src/repro/experiments/fake_exp.py")
    assert "RL007" not in _codes(findings)


def test_rl007_scoped_to_experiment_modules(tmp_path):
    findings = _lint_source(tmp_path, """\
        STATE = []

        def cell_helper():
            return len(STATE)
        """, "src/repro/core/fake.py")
    assert "RL007" not in _codes(findings)


# -- RL008: direct heap access to the scheduler -------------------------------

def test_rl008_flags_heappush_on_env_state(tmp_path):
    findings = _lint_source(tmp_path, """\
        import heapq

        def sneak(env, ev):
            heapq.heappush(env._queue, (0.0, ev))
        """, "src/repro/core/fake.py")
    assert "RL008" in _codes(findings)


def test_rl008_flags_from_import_alias(tmp_path):
    findings = _lint_source(tmp_path, """\
        from heapq import heappush as push

        def sneak(self, ev):
            push(self.env._events, ev)
        """, "src/repro/nic/fake.py")
    assert "RL008" in _codes(findings)


def test_rl008_allows_heap_on_plain_state(tmp_path):
    findings = _lint_source(tmp_path, """\
        import heapq

        def track(backlog, item):
            heapq.heappush(backlog, item)
        """, "src/repro/core/fake.py")
    assert "RL008" not in _codes(findings)


def test_rl008_exempts_sim_package(tmp_path):
    findings = _lint_source(tmp_path, """\
        import heapq

        def _store(self, item):
            heapq.heappush(self.env._pending, item)
        """, "src/repro/sim/queues.py")
    assert "RL008" not in _codes(findings)


# -- baseline ----------------------------------------------------------------

def test_baseline_suppresses_matching_finding(tmp_path):
    f = tmp_path / "mod.py"
    f.write_text("token = id(object())\n")
    display = "src/repro/core/mod.py"
    findings = lint_file(f, display)
    assert _codes(findings) == ["RL003"]
    lines = f.read_text().splitlines()
    entries = [(x, fingerprint(x, lines)) for x in findings]
    baseline_file = tmp_path / "baseline.txt"
    baseline_file.write_text(format_baseline(entries))
    baseline = load_baseline(baseline_file)
    assert all(fp in baseline for _, fp in entries)
    # A different finding is not suppressed by it.
    assert f"RL003|{display}|other = id(object())" not in baseline


def test_cli_list_rules():
    assert lint_main(["--list-rules"]) == 0


def test_cli_reports_violations(tmp_path, capsys):
    bad = tmp_path / "repro"
    bad.mkdir()
    (bad / "clock.py").write_text("import time\nnow = time.time()\n")
    rc = lint_main(["--no-baseline", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RL001" in out
