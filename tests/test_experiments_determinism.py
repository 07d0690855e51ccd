"""Determinism regression tests for the optimized substrate.

The perf pass (bulk page ops, slotted sim kernel, inlined dispatch)
must not perturb simulated behavior at all: two runs of the same
experiment with the same seed must produce *identical* NpfLog event
streams — every fault's time, side, kind, page count and cost
breakdown, in the same order.  These tests are the canary for any
optimization that reorders events or changes float association.
"""

import multiprocessing

import pytest

from repro.apps.framing import MessageFramer
from repro.apps.kvstore import KvServer
from repro.apps.memaslap import Memaslap
from repro.experiments import fig3_breakdown
from repro.experiments.base import results_to_json
from repro.experiments.config import scaled_tcp_params
from repro.experiments.fig4_cold_ring import MODES
from repro.experiments.runner import SPECS, run_experiment
from repro.host.host import ethernet_testbed
from repro.sim.engine import Environment
from repro.sim.rng import Rng
from repro.sim.units import KB, MB

_FORK = "fork" in multiprocessing.get_all_start_methods()


def _npf_stream(log):
    return [
        (ev.time, ev.side, ev.kind, ev.n_pages, ev.breakdown, ev.channel)
        for ev in log.npf_events
    ]


def _invalidation_aggregates(log):
    return (log.invalidation_count, log.invalidation_mapped,
            log.invalidation_checks_sum, log.invalidation_update_pt_sum,
            log.invalidation_updates_sum, log.invalidation_latency_sum)


def test_fig3_event_streams_are_reproducible():
    logs_a, logs_b = [], []
    result_a = fig3_breakdown.run(samples=40, logs=logs_a)
    result_b = fig3_breakdown.run(samples=40, logs=logs_b)

    assert len(logs_a) == len(logs_b) == 4  # npf-4KB, npf-4MB, 2x invalidation
    assert logs_a[0].npf_count > 0
    assert logs_a[2].invalidation_mapped == logs_a[2].invalidation_count > 0
    assert logs_a[3].invalidation_count > 0
    assert logs_a[3].invalidation_mapped == 0
    for log_a, log_b in zip(logs_a, logs_b):
        assert log_a.npf_count == log_b.npf_count
        assert _npf_stream(log_a) == _npf_stream(log_b)
        assert _invalidation_aggregates(log_a) == _invalidation_aggregates(log_b)
    assert result_a.rows == result_b.rows


def test_fig4_cold_ring_event_streams_are_reproducible():
    """Same fig4 testbed (mode x seed) twice -> identical fault streams.

    Mirrors ``fig4_cold_ring._build`` but keeps handles on both hosts so
    the assertion covers the full serviced-NPF stream and the invalidation
    aggregates, not just the throughput series the experiment reports.
    """

    def run_once(mode):
        MessageFramer.reset_registry()
        env = Environment()
        server, client, srv_user, cli_user = ethernet_testbed(
            env, mode, ring_size=64, tcp_params=scaled_tcp_params(),
        )
        KvServer(srv_user, capacity_bytes=8 * MB, item_value_size=1 * KB)
        gen = Memaslap(
            cli_user, "server", "srv0", Rng(11), connections=8,
            get_ratio=0.9, n_keys=512, value_size=1 * KB,
            report_interval=0.25, think_time=0.001,
        )
        gen.start()
        env.run(until=0.6)
        gen.stop()
        return (
            env.now,
            _npf_stream(server.driver.log),
            _invalidation_aggregates(server.driver.log),
            _npf_stream(client.driver.log),
            _invalidation_aggregates(client.driver.log),
        )

    saw_faults = False
    for name, mode in MODES.items():
        first = run_once(mode)
        second = run_once(mode)
        assert first == second, f"mode {name} diverged between identical runs"
        saw_faults = saw_faults or bool(first[1]) or bool(first[3])
    assert saw_faults, "no NPFs serviced in any mode; test lost its teeth"


@pytest.mark.skipif(not _FORK, reason="parallel runner needs the fork start method")
def test_seed_matrix_is_byte_identical_across_job_counts(force_pool):
    """3 seeds x jobs {1, 4}: each seed's rendered table must be
    byte-identical regardless of worker count, and distinct seeds must
    actually produce distinct tables (the seed plumbing is not dead)."""
    MessageFramer.reset_registry()
    spec = SPECS["table4"]
    sweeps = {seed: spec.cells(samples=60, seed=seed) for seed in (7, 11, 23)}
    # All three seeds in one flat sweep: enough pending cells to fork.
    fragments, mode = force_pool(
        [c for sweep in sweeps.values() for c in sweep], 4)
    assert mode.startswith("fork-pool("), mode
    per_seed = {}
    offset = 0
    for seed, sweep in sweeps.items():
        pooled = spec.merge(sweep, fragments[offset:offset + len(sweep)])
        offset += len(sweep)
        sequential = run_experiment(
            "table4", samples=60, seed=seed, jobs=1, cache=False,
        )
        assert results_to_json([pooled]) == results_to_json([sequential]), (
            f"seed {seed}: output diverged between jobs=1 and jobs=4"
        )
        per_seed[seed] = results_to_json([sequential])
    assert len(set(per_seed.values())) == 3, (
        "different seeds produced identical tables; seed is not reaching cells"
    )
