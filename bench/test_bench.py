"""Tests for the benchmark harness, at tiny sizes (a few seconds in all).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0", "--scale", "0.05"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                           *args, *TINY], capture_output=True, text=True,
                          cwd=cwd, timeout=120)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def printed_names(proc: subprocess.CompletedProcess) -> set:
    """Metric names from the ``<workload> <metric> <value> <unit>`` lines."""
    return {line.split()[1] for line in proc.stdout.splitlines()[:-1]
            if len(line.split()) == 4}


def declared(kind: str) -> set:
    return {m["name"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    report = tmp_path_factory.mktemp("seed0") / "report.json"
    proc = bench("--workload", "npf_storm", "--json", str(report))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(report.read_text())["workloads"]["npf_storm"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    proc = bench("--workload", "rack_incast", "--trace", "1",
                 "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads((out / "trace-rack_incast.json").read_text())


def test_printed_names_are_declared(seed0, traced):
    for (proc, _), kind in ((seed0, "end_to_end"), (traced, "per_layer")):
        names = printed_names(proc)
        assert names == set(result(proc)["metrics"]) == declared(kind)
        assert all(NAME.fullmatch(n) for n in names)


def test_planted_wrong_digest_fails(seed0, tmp_path):
    _, report = seed0
    planted = tmp_path / "golden.json"
    planted.write_text(json.dumps({"npf_storm": {
        cell["key"]: "0" * 32 for cell in report["cells"]}}))
    proc = bench("--workload", "npf_storm", "--golden", str(planted))
    out = result(proc)
    assert proc.returncode != 0
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] > 0     # fail ratio 1.0


def test_other_seed_changes_digests(seed0, tmp_path):
    report = tmp_path / "report.json"
    proc = bench("--workload", "npf_storm", "--seed", "5",
                 "--json", str(report))
    assert proc.returncode == 0, proc.stderr
    other = json.loads(report.read_text())["workloads"]["npf_storm"]["cells"]
    base = seed0[1]["cells"]
    assert len(other) == len(base)
    for a, b in zip(base, other):
        assert a["digests"][0] != b["digests"][0]


def test_layer_self_times_add_up(traced):
    _, trace = traced
    layers = [n.split(".")[0] for n in declared("per_layer")
              if n.endswith(".self_s")]
    total = sum(trace["metrics"][f"{l}.self_s"] for l in layers)
    assert total + trace["unattributed_s"] == pytest.approx(
        trace["total_self_s"])
    assert sum(f["self_s"] for f in trace["functions"]) == pytest.approx(
        trace["total_self_s"])
    assert sum(trace["metrics"][f"{l}.self_share"] for l in layers) == \
        pytest.approx(trace["coverage"])
    assert trace["coverage"] >= 0.95


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "npf_storm", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
