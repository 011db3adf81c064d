# Convenience targets for the reproduction repository.

.PHONY: install test bench quicktest verify smoke runs-gc examples clean

install:
	python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

quicktest:
	PYTHONPATH=src python -m pytest tests/ --ignore=tests/test_experiment_drivers.py -q

# The tier-1 suite, then the e2e benchmark harness's own tests (not
# under pytest's testpaths, so `make test` does not run them).
verify:
	PYTHONPATH=src python -m pytest -x -q
	python -m pytest benchmarks/e2e -q

# End-to-end benchmark: the paper's pipeline in pinned subprocesses
# (results under results/e2e); compare two output directories with
# `python3 benchmarks/e2e/compare.py BASE CAND`.
bench:
	python3 benchmarks/e2e/run.py

# End-to-end determinism checks, selected from the tier-1 suite by the
# `smoke` pytest marker: an observed, op-profiled tiny pipeline run twice
# must diff clean and render a byte-identical report twice; an observed
# sparse-dispatched run must publish exact accumulate gauges and diff
# clean; fault sweeps must be bitwise identical serial vs on the worker
# pool (and observed runs diff clean); a null fault spec must be a
# bitwise identity; NonFiniteGuard must recover from a transient NaN.
smoke:
	PYTHONPATH=src python -m pytest -m smoke -q

# Compact the observed-run registry: drop entries whose run directories
# are gone and keep only the 20 newest runs (the baseline always stays).
runs-gc:
	PYTHONPATH=src python -m repro.obs runs gc --keep 20

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/energy_audit.py
	PYTHONPATH=src python examples/conversion_strategies.py
	PYTHONPATH=src python examples/custom_architecture.py
	PYTHONPATH=src python examples/neuromorphic_deployment.py

clean:
	rm -rf build dist *.egg-info .pytest_cache results
	find . -name __pycache__ -type d -exec rm -rf {} +
