"""Micro-benchmarks of the substrate hot paths.

Not a paper table — these give the throughput numbers that contextualise
the Fig. 3 timing results on this CPU substrate (conv GEMM, IF neuron
update, the Algorithm-1 search, a full SNN inference step).

The benchmark *definitions* live in :mod:`repro.bench.suite` behind the
``@register_bench`` registry, shared with the ``python -m repro.bench``
baseline runner — this module only adapts them to pytest-benchmark.
Each registered factory performs its setup untimed, sanity-checks the
kernel's output once, and returns the zero-arg callable timed here.
"""

import pytest

from repro.bench import iter_benches

CASES = list(iter_benches())


def test_registry_has_the_hot_kernels():
    names = {case.name for case in CASES}
    assert {
        "nn.conv2d_forward",
        "nn.conv2d_forward_backward",
        "snn.if_neuron_step",
        "snn.surrogate_backward",
        "conversion.algorithm1_search",
        "snn.full_forward_t2",
    } <= names


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_microbench(benchmark, case):
    fn = case.prepare()
    benchmark(fn)
