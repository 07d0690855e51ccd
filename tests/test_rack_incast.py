"""Golden-trace determinism for the rack incast sweep.

An 8-to-1 reduced sweep (all nine net x memory cells) must serialize
byte-identically to the committed golden under both execution paths:
in-process and the fork pool at several widths.  The golden pins the whole
surface — goodput floats, PFC pause counts, retransmit/NACK/drop
counters — so any nondeterminism in the rack fabric shows up as a
one-byte diff here long before it corrupts a paper figure.

Regenerate (only after an intentional model change):

    PYTHONPATH=src python - <<'EOF'
    from repro.experiments.base import results_to_json
    from repro.experiments.runner import run_experiment
    result = run_experiment("rack-incast", n_senders=8, messages=80,
                            seed=7, jobs=1, cache=False)
    open("tests/data/rack_incast_8to1.json", "w").write(
        results_to_json([result]))
    EOF
"""

import json
from pathlib import Path

import pytest

from repro.experiments.base import results_to_json
from repro.experiments.runner import SPECS

GOLDEN = Path(__file__).resolve().parent / "data" / "rack_incast_8to1.json"

#: Reduced config: 8 senders x 80 messages keeps every cell sub-second.
CONFIG = dict(n_senders=8, messages=80, seed=7)


def _render():
    return GOLDEN.read_text()


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_incast_golden_across_job_counts(jobs, force_pool):
    spec = SPECS["rack-incast"]
    sweep = spec.cells(**CONFIG)
    fragments, mode = force_pool(sweep, jobs)
    if jobs > 1:
        assert mode.startswith("fork-pool("), mode
    assert results_to_json([spec.merge(sweep, fragments)]) == _render(), \
        f"--jobs {jobs} diverged from the committed golden"


def test_incast_golden_is_internally_consistent():
    """Sanity over the committed artifact itself, so a bad regeneration
    can't silently bless a broken model."""
    [result] = json.loads(_render())
    rows = result["rows"]
    assert len(rows) == 9, "expected the full 3x3 net x memory sweep"
    by_key = {(r["net"], r["memory"]): r for r in rows}
    total = 8 * 80
    for row in rows:
        assert row["delivered"] == total, row
        assert row["goodput_gbps"] > 0, row
    for memory in ("static", "pdc", "npf"):
        lossless = by_key[("pfc", memory)]
        # PFC is lossless: nothing dropped, nothing lost, no retransmits.
        assert lossless["lost"] == 0 and lossless["switch_drops"] == 0
        assert lossless["retransmits"] == 0
        for net in ("gbn", "irn"):
            lossy = by_key[(net, memory)]
            assert lossy["lost"] > 0, "lossy regime saw no loss"
            assert lossy["retransmits"] > 0, "loss recovered without resends"
            assert lossy["pfc_pauses"] == 0, "lossy fabric emitted PAUSE"
    # Full-window static incast must engage PFC backpressure (pdc's
    # acquire latency can throttle injection below xoff at this scale).
    assert by_key[("pfc", "static")]["pfc_pauses"] > 0
    assert by_key[("pfc", "npf")]["pfc_pauses"] > 0
    for net in ("pfc", "gbn", "irn"):
        # NPF faults cost goodput relative to static pinning, and the
        # fault-latency tail is only populated under NPF.
        assert by_key[(net, "npf")]["p99_fault_us"] > 0
        assert by_key[(net, "static")]["p99_fault_us"] == 0.0
        assert (by_key[(net, "npf")]["goodput_gbps"]
                < by_key[(net, "static")]["goodput_gbps"])
