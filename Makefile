PYTHON ?= python
export PYTHONPATH := src

## Worker processes for the parallel experiment engine.
JOBS ?= $(shell nproc 2>/dev/null || echo 1)

## Scenario count for the long-running `make fuzz` campaign.
FUZZ_N ?= 5000
## Master seed for fuzz campaigns (fuzz-smoke pins its own).
FUZZ_SEED ?= 3405691582

.PHONY: test lint lint-flow sanitize bench bench-quick bench-quick-record \
        bench-golden bench-experiments bench-rack rack-smoke profile profile-net \
        experiments fuzz fuzz-smoke

## Lint + bench smoke + fuzz smoke + rack smoke + full test suite.
## tests/test_experiments_runner.py includes the parallel-equals-sequential
## smoke check for the experiment engine; bench-quick fails if a gated
## benchmark regresses below 0.9x of its committed
## BENCH_substrate_quick.json throughput; bench-golden checks the
## benchmark cells' output digests.
test: lint lint-flow bench-quick bench-golden fuzz-smoke rack-smoke
	$(PYTHON) -m pytest -x -q

## Byte-identity of the benchmark workloads: one pass per workload at the
## default seed and at the held-out seed 97, every cell's digest checked
## against bench/golden.json (exit 1 on any mismatch).
bench-golden:
	$(PYTHON) bench/run.py --seconds 0
	$(PYTHON) bench/run.py --seconds 0 --seed 97

## CI smoke for the rack fabric: the reduced 8-sender incast sweep,
## sequential vs parallel byte-identity plus the GBN-worse-than-IRN
## ordering under loss.  Read-only (--check): the committed
## BENCH_experiments*.json records are never rewritten here.
rack-smoke:
	$(PYTHON) tools/bench_substrate.py --rack --quick --check

## Determinism / DMA-invariant static analysis (tools/lint).
## Results are content-hash cached under .repro-cache/lint/; warm runs
## of both passes are sub-second.
lint:
	$(PYTHON) -m tools.lint src/

## Whole-program flow analysis (repro.analysis.static): interprocedural
## typestate (RL009/RL010), determinism taint (RL011), callback captures
## (RL012) and the DMAsan coverage cross-check (RLCOV).
lint-flow:
	$(PYTHON) -m tools.lint flow src/

## Full test run with the DMAsan runtime sanitizer hooked into every test.
sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

## Substrate micro-benchmarks -> BENCH_substrate.json (merges by label;
## a stored "seed" entry yields a speedup_vs_seed section).
bench:
	$(PYTHON) tools/bench_substrate.py --label optimized

## CI smoke: 1/10-scale suite, read-only compare of the gated benchmarks
## against the committed quick reference (fails below 0.9x).  The flow
## pass gates the bench path too: perf numbers recorded from a tree that
## violates the DMA/pinning protocol are not numbers worth keeping.
bench-quick: lint-flow
	$(PYTHON) tools/bench_substrate.py --label optimized --quick --check

## Re-record the committed quick reference (BENCH_substrate_quick.json).
bench-quick-record:
	$(PYTHON) tools/bench_substrate.py --label optimized --quick

## The e2e_run_all gate: run all experiments sequentially, parallel-cold
## and warm-cache, verify byte-identical output -> BENCH_experiments.json.
bench-experiments:
	$(PYTHON) tools/bench_substrate.py --experiments --jobs $(JOBS)

## The rack_incast gate at full scale (16 senders): byte-identity plus
## the 2x GBN-vs-IRN goodput-degradation separation under 1% loss ->
## BENCH_experiments.json.
bench-rack:
	$(PYTHON) tools/bench_substrate.py --rack

## Differential fuzz smoke: 200 scenarios under a pinned seed, sanitized,
## NPF run vs. static-pinning oracle.  Any failure is shrunk to a replay
## file under fuzz-failures/ (re-run it: python -m repro.fuzz replay <f>).
fuzz-smoke:
	$(PYTHON) -m repro.fuzz run --n 200 --seed 3405691582
	$(PYTHON) -m repro.fuzz run --n 60 --seed 3405691582 --profile net-stress
	$(PYTHON) -m repro.fuzz run --n 60 --seed 3405691582 --profile rack

## Long campaign: make fuzz FUZZ_N=5000 [FUZZ_SEED=...]
fuzz:
	$(PYTHON) -m repro.fuzz run --n $(FUZZ_N) --seed $(FUZZ_SEED)

## cProfile over the micro-benchmarks; top-20 by cumulative time.
profile:
	$(PYTHON) -m repro.experiments profile

## cProfile focused on the burst network datapath (full-scale
## link_stream + switch_fanout benchmarks).
profile-net:
	$(PYTHON) -m repro.experiments profile --bench link_stream,switch_fanout

## Regenerate every table/figure in parallel (make experiments JOBS=8).
## Cell results are cached under .repro-cache/ keyed by config + source
## hash; use --no-cache via the CLI to force a full recompute.
experiments:
	$(PYTHON) -m repro.experiments run all --jobs $(JOBS)
