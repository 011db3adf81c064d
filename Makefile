# Convenience targets for the reproduction repository.

.PHONY: install test bench bench-check bench-baseline microbench quicktest smoke faults-smoke profile-smoke sparse-smoke exec-smoke runs-gc examples clean

install:
	python setup.py develop

test:
	pytest tests/

quicktest:
	pytest tests/ --ignore=tests/test_experiment_drivers.py -q

# Hot-kernel benchmarks + regression gate: time the registered benches
# into a scratch report and fail if any kernel's median regressed past
# the threshold vs the latest committed BENCH_<seq>.json baseline.
bench:
	@mkdir -p results
	PYTHONPATH=src python -m repro.bench run --out results/bench_current.json
	PYTHONPATH=src python -m repro.bench compare --candidate results/bench_current.json

# Run the suite now and gate against the newest committed baseline —
# the pre-merge check for perf-sensitive changes.  Identical gate to
# `bench`, kept as its own name so CI scripts read as intent.
bench-check:
	@mkdir -p results
	PYTHONPATH=src python -m repro.bench run --out results/bench_check.json --quiet
	PYTHONPATH=src python -m repro.bench compare --candidate results/bench_check.json

# Record a new committed baseline point (BENCH_<next seq>.json).
bench-baseline:
	PYTHONPATH=src python -m repro.bench run

# The same bench definitions through pytest-benchmark (rich statistics).
microbench:
	pytest benchmarks/test_microbench.py --benchmark-only -s

# Tiny instrumented convert+evaluate pipeline; fails unless a non-empty
# trace with the expected spans, spike-rate histograms, conversion
# drift records and energy gauges is produced, the run registers in the
# run registry, an identical-seed self-diff is regression-free, and
# `dashboard --once` renders deterministically.  Runs the
# fault-tolerance smoke first, then the op-profiled variant (a
# strict superset of the plain pipeline assertions), then the
# sparse-dispatch smoke, and finally the parallel-executor smoke.
smoke: faults-smoke profile-smoke sparse-smoke exec-smoke

# Parallel-execution check: map/reduce results must be bitwise
# identical at workers 1/2/4, survive a deterministic chaos worker
# kill unchanged, quarantine a poison task into an explicit partial
# result, and degrade to serial on an unavailable start method; an
# unobserved micro fault sweep must be bitwise identical serial vs
# parallel vs chaos-killed, and a traced workers=2 sweep (observed maps
# run serially) must diff clean against a traced workers=1 one, with
# the executor config flagged informationally, never as a gate.
exec-smoke:
	PYTHONPATH=src python -m repro.exec.smoke

# Event-driven sparse execution check: crossover calibration must be
# deterministic under a fixed time_fn and round-trip through its
# artefact, a low-activity pipeline must route most weight-layer
# forwards through the sparse gather kernels with dense-identical
# logits (int8 within quantization tolerance), measured accumulate
# counts must reach the energy.* gauges alongside dispatch.* telemetry
# in report + dashboard, and an identical-seed self-diff must be clean.
sparse-smoke:
	PYTHONPATH=src python -m repro.snn.sparse_smoke

# The same smoke pipeline with the op profiler on: both runs must write
# profile.jsonl + a repro.obs.profile/v1 summary with per-layer
# attribution and deterministic aggregate keys, register the artefacts
# in the run registry, export a loadable Chrome trace, and keep the
# identical-seed self-diff clean with the profile series aligned.
profile-smoke:
	PYTHONPATH=src python -m repro.obs.smoke --profile

# Compact the observed-run registry: drop entries whose run directories
# are gone and keep only the 20 newest runs (the baseline always stays).
runs-gc:
	PYTHONPATH=src python -m repro.obs runs gc --keep 20

# Deterministic fault-injection + NonFiniteGuard recovery check:
# null-spec bitwise identity in both execution modes, seeded fault
# reproducibility, fault telemetry, and guarded NaN recovery.
faults-smoke:
	PYTHONPATH=src python -m repro.faults.smoke

examples:
	python examples/quickstart.py
	python examples/energy_audit.py
	python examples/conversion_strategies.py
	python examples/custom_architecture.py
	python examples/encoding_comparison.py
	python examples/event_stream_classification.py
	python examples/batchnorm_folding.py
	python examples/neuromorphic_deployment.py

clean:
	rm -rf build dist *.egg-info .pytest_cache results
	find . -name __pycache__ -type d -exec rm -rf {} +
