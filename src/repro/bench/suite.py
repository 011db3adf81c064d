"""The standard hot-kernel benchmark suite.

Each entry exercises one substrate hot path the paper's cost story
depends on (Figs. 3-4): the im2col convolution, the IF-neuron step and
its surrogate-gradient backward, the Algorithm-1 ``alpha``/``beta``
grid search, and a full ``T``-step SNN inference pass through a
converted network.

Problem sizes mirror ``benchmarks/test_microbench.py`` (which now runs
these same definitions through pytest-benchmark): small enough that the
whole suite runs in seconds, large enough that medians sit well above
timer resolution.
"""

from __future__ import annotations

import numpy as np

from .registry import register_bench


@register_bench("nn.conv2d_forward", group="nn")
def conv2d_forward():
    from ..nn import Conv2d
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    layer = Conv2d(16, 32, 3, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(8, 16, 16, 16)))

    def run():
        return layer(x)

    assert run().shape == (8, 32, 16, 16)
    return run


@register_bench("nn.conv2d_forward_backward", group="nn")
def conv2d_forward_backward():
    from ..nn import Conv2d
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    layer = Conv2d(16, 32, 3, padding=1, rng=rng)
    x = Tensor(rng.normal(size=(8, 16, 16, 16)), requires_grad=True)

    def run():
        layer.zero_grad()
        layer(x).sum().backward()

    run()
    assert layer.weight.grad is not None
    return run


@register_bench("snn.if_neuron_step", group="snn")
def if_neuron_step():
    from ..snn import IFNeuron
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    neuron = IFNeuron(v_threshold=1.0)
    current = Tensor(rng.normal(size=(32, 64, 8, 8)))

    def run():
        neuron.reset_state()
        return neuron(current)

    assert run().shape == current.shape
    return run


@register_bench("snn.surrogate_backward", group="snn")
def surrogate_backward():
    """One IF step forward + boxcar-surrogate backward through it."""
    from ..snn import IFNeuron
    from ..tensor import Tensor

    rng = np.random.default_rng(0)
    neuron = IFNeuron(v_threshold=1.0)
    current = Tensor(rng.normal(size=(32, 64, 8, 8)), requires_grad=True)

    def run():
        neuron.zero_grad()
        current.grad = None
        neuron.reset_state()
        neuron(current).sum().backward()

    run()
    assert current.grad is not None
    return run


def _algorithm1_percentiles() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.percentile(
        rng.exponential(scale=0.3, size=100_000), np.arange(101.0)
    )


@register_bench("conversion.algorithm1_search", group="conversion")
def algorithm1_search():
    from ..conversion import find_scaling_factors

    percentiles = _algorithm1_percentiles()

    def run():
        return find_scaling_factors(percentiles, 2.0, 2)

    assert 0 < run().alpha <= 1.0
    return run


def _converted_tiny_vgg(mode: str):
    from ..conversion import ConversionConfig, convert_dnn_to_snn
    from ..data import DataLoader
    from ..models import vgg11

    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=10, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 10, 16), 16)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
    snn.mode = mode
    snn.eval()
    return snn, rng.random((16, 3, 8, 8))


@register_bench("snn.full_forward_t2", group="snn", repeats=9, warmup=2)
def snn_full_forward():
    """Full T=2 inference pass through a converted tiny VGG-11.

    Uses the network's default engine (time-fused, layer-major); the
    ``_stepwise`` twin below pins the classic step-major loop so the
    baseline trajectory keeps both engines honest.
    """
    from ..tensor import no_grad

    snn, images = _converted_tiny_vgg("fused")

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    return run


@register_bench("snn.full_forward_t2_stepwise", group="snn", repeats=9, warmup=2)
def snn_full_forward_stepwise():
    """Same converted network, pinned to the step-major engine."""
    from ..tensor import no_grad

    snn, images = _converted_tiny_vgg("stepwise")

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    return run


@register_bench("snn.fused_spike_scan_t4", group="snn")
def fused_spike_scan_micro():
    """The vectorised membrane scan alone: T=4 folded IF dynamics."""
    from ..snn import IFNeuron
    from ..tensor import Tensor, no_grad

    rng = np.random.default_rng(0)
    neuron = IFNeuron(v_threshold=1.0)
    current = Tensor(rng.normal(size=(4 * 32, 64, 8, 8)))

    def run():
        neuron.reset_state()
        with no_grad():
            return neuron.forward_fused(current, 4)

    assert run().shape == current.shape
    return run


@register_bench("obs.profile_overhead", group="obs", repeats=9, warmup=2)
def profile_overhead():
    """Disabled-path cost of the op-profiler hook.

    The profiler intercepts ``Tensor.from_op`` only while a profiler is
    entered — with none active the pristine ``from_op`` is installed and
    instrumented code must pay nothing.  This case times the
    ``snn.full_forward_t2`` workload with profiling off and asserts it
    stays within 5% of itself measured before the hook machinery was
    ever exercised (a profiled pass runs in between to prove the
    un-patch really restores the fast path).
    """
    from ..obs.profile import OpProfiler
    from ..profiling import time_callable
    from ..tensor import no_grad
    from ..tensor.tensor import Tensor

    snn, images = _converted_tiny_vgg("fused")

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    pristine = Tensor.from_op
    # Tolerance: 5% relative plus a 0.1 ms absolute floor, retried a few
    # times because two back-to-back minima on a busy host still jitter.
    for attempt in range(3):
        before = time_callable(run, repeats=9, warmup=2)
        with OpProfiler() as profiler:
            run()
        assert profiler.records, "profiled pass recorded no ops"
        assert Tensor.from_op is pristine, (
            "OpProfiler exit did not restore the pristine Tensor.from_op"
        )
        after = time_callable(run, repeats=9, warmup=2)
        if after.minimum <= before.minimum * 1.05 + 1e-4:
            break
    else:
        raise AssertionError(
            f"disabled-path overhead gate failed: "
            f"{after.minimum * 1e3:.3f} ms after vs "
            f"{before.minimum * 1e3:.3f} ms before (> 5% + 0.1 ms)"
        )
    return run


def _synthetic_spike_frame(shape, density, rng):
    """Binary frame with exactly ``round(density * size)`` active units."""
    total = int(np.prod(shape))
    active = max(1, int(round(density * total)))
    flat = np.zeros(total)
    flat[rng.permutation(total)[:active]] = 1.0
    return flat.reshape(shape)


def _crossover_artifact_path():
    """The committed calibration artefact, if present at the repo root."""
    import os

    root = os.path.dirname(  # src/repro/bench -> repo root
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))))
    path = os.path.join(root, "CROSSOVER.json")
    return path if os.path.exists(path) else None


@register_bench("snn.sparse_linear_gather", group="snn")
def sparse_linear_gather_micro():
    """Event-gather linear kernel at 0.2% density (512 -> 256).

    Times exactly what the dispatcher pays on a sparse-routed linear:
    CSR packing plus the transposed-gather kernel.  The density sits
    at the bottom of the calibrated sweep for this shape, under its
    break-even, so this number should stay below the dense GEMM's
    (``CROSSOVER.json`` records both sides of that crossover).
    """
    from ..nn import Linear
    from ..tensor import Tensor, no_grad
    from ..tensor.sparse import pack_spikes, sparse_linear_gather

    rng = np.random.default_rng(0)
    layer = Linear(512, 256, bias=False, rng=rng)
    weight = layer.weight.data
    frame = _synthetic_spike_frame((32, 512), 0.002, rng)

    with no_grad():
        dense = layer(Tensor(frame)).data
    sparse = sparse_linear_gather(pack_spikes(frame, amplitude=1.0), weight)
    assert np.allclose(sparse, dense, atol=1e-9)

    def run():
        return sparse_linear_gather(
            pack_spikes(frame, amplitude=1.0), weight
        )

    return run


@register_bench("snn.sparse_conv_gather", group="snn")
def sparse_conv_gather_micro():
    """Event-gather conv kernel at 0.5% density (16ch 8x8 -> 32ch)."""
    from ..nn import Conv2d
    from ..tensor import Tensor, no_grad
    from ..tensor.sparse import (
        pack_conv_weight,
        pack_spikes,
        sparse_conv2d_gather,
    )

    rng = np.random.default_rng(0)
    layer = Conv2d(16, 32, 3, padding=1, bias=False, rng=rng)
    packed = pack_conv_weight(layer.weight.data)
    frame = _synthetic_spike_frame((32, 16, 8, 8), 0.005, rng)

    with no_grad():
        dense = layer(Tensor(frame)).data
    sparse = sparse_conv2d_gather(
        pack_spikes(frame, amplitude=1.0), stride=1, padding=1,
        packed=packed, out_dtype=layer.weight.data.dtype,
    )
    assert np.allclose(sparse, dense, atol=1e-9)

    def run():
        return sparse_conv2d_gather(
            pack_spikes(frame, amplitude=1.0), stride=1, padding=1,
            packed=packed, out_dtype=np.float64,
        )

    return run


@register_bench("snn.full_forward_t2_sparse", group="snn", repeats=9, warmup=2)
def snn_full_forward_sparse():
    """Dispatched T=2 pass through the tiny VGG in a low-activity regime.

    Same converted network as ``snn.full_forward_t2``, fed attenuated
    images so the hidden layers fall well below their calibrated
    crossover densities (the operating point ultra-low-latency
    conversion targets: most layer-steps nearly silent).  The
    activity-adaptive dispatcher routes those layer-forwards through
    the sparse gather kernels, so this median should land *under* the
    dense ``snn.full_forward_t2`` one.  Setup asserts the regime is
    genuine: hidden density <= 10%, a majority of weight-layer
    forwards sparse-routed, and logits identical to the dense engine.
    """
    from ..tensor import no_grad

    snn, images = _converted_tiny_vgg("fused")
    images = images * 0.25

    crossover = _crossover_artifact_path()
    with no_grad():
        reference = snn(images).data
    probe = snn.enable_sparse_dispatch(crossover=crossover, count_ops=True)
    with no_grad():
        routed = snn(images).data
    assert np.allclose(routed, reference, atol=1e-9)
    stats = probe.layer_stats()
    hidden = [s.mean_density for s in stats[1:]]
    assert max(hidden) <= 0.10, f"hidden density too high: {hidden}"
    sparse_runs = sum(s.sparse_runs for s in stats)
    calls = sum(s.calls for s in stats)
    assert sparse_runs * 2 >= calls, (
        f"sparse routing did not dominate: {sparse_runs}/{calls}"
    )
    dispatch = snn.enable_sparse_dispatch(crossover=crossover)

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    # Paired back-to-back gate: the dispatched pass must actually beat
    # the dense engine on this workload (minima, retried — cross-case
    # medians on a busy host drift more than the effect size).
    from ..profiling import time_callable

    for attempt in range(3):
        snn._dispatch = None
        dense = time_callable(run, repeats=9, warmup=2)
        snn._dispatch = dispatch
        routed_t = time_callable(run, repeats=9, warmup=2)
        if routed_t.minimum < dense.minimum:
            break
    else:
        raise AssertionError(
            f"sparse-routed pass did not beat dense: "
            f"{routed_t.minimum * 1e3:.3f} ms vs {dense.minimum * 1e3:.3f} ms"
        )
    return run


@register_bench("snn.dispatch_overhead", group="snn", repeats=9, warmup=2)
def dispatch_overhead():
    """Dense-path cost of the activity-adaptive dispatcher.

    At standard bench activity (15-40% hidden density) every weight
    layer stays on the dense GEMM, so an enabled dispatcher only pays
    its routing bookkeeping: the density measurement and threshold
    compare per layer-forward.  This case times the
    ``snn.full_forward_t2`` workload with the dispatcher installed and
    asserts it stays within 5% (plus a 0.1 ms floor, retried a few
    times — two back-to-back minima on a busy host still jitter) of
    the same workload without it.
    """
    from ..profiling import time_callable
    from ..tensor import no_grad

    snn, images = _converted_tiny_vgg("fused")
    crossover = _crossover_artifact_path()

    def run():
        with no_grad():
            return snn(images)

    assert run().shape == (16, 10)
    dispatch = snn.enable_sparse_dispatch(crossover=crossover)
    snn._dispatch = None
    for attempt in range(3):
        snn._dispatch = None
        before = time_callable(run, repeats=9, warmup=2)
        snn._dispatch = dispatch
        after = time_callable(run, repeats=9, warmup=2)
        if after.minimum <= before.minimum * 1.05 + 1e-4:
            break
    else:
        raise AssertionError(
            f"dense-path dispatch overhead gate failed: "
            f"{after.minimum * 1e3:.3f} ms dispatched vs "
            f"{before.minimum * 1e3:.3f} ms plain (> 5% + 0.1 ms)"
        )
    stats = dispatch.layer_stats()
    assert stats and all(s.sparse_runs == 0 for s in stats), (
        "expected the standard-activity workload to stay fully dense"
    )

    def run_dispatched():
        with no_grad():
            return snn(images)

    assert run_dispatched().shape == (16, 10)
    return run_dispatched


@register_bench("snn.sgl_step_t2", group="snn", repeats=5)
def sgl_train_step():
    """One SGL fine-tuning step (fused forward + BPTT backward)."""
    from ..tensor import Tensor

    snn, images = _converted_tiny_vgg("fused")
    snn.train()
    x = Tensor(images)

    def run():
        snn.zero_grad()
        snn(x).sum().backward()

    run()
    assert any(p.grad is not None for p in snn.parameters())
    return run


@register_bench("exec.sweep_serial", group="exec", repeats=3, warmup=1)
def exec_sweep_serial():
    """Serial baseline for the executor scaling pair: 10 sweep points.

    Each point is a fixed 40 ms latency-bound task
    (:func:`repro.exec.simulated_sweep_point`) — the regime real sweep
    points occupy once their compute is memory/I-O bound.  Sleep-based
    points keep the pair honest on a single-core host, where a
    compute-bound task cannot speed up past 1x no matter how many
    workers overlap; what the executor actually buys is overlap of
    fixed-latency work.
    """
    from ..exec import ParallelExecutor, simulated_sweep_point

    points = [0.04] * 10
    executor = ParallelExecutor(workers=1)

    def run():
        outcome = executor.map(simulated_sweep_point, points, label="bench")
        assert outcome.ok

    return run


@register_bench("exec.sweep_parallel4", group="exec", repeats=3, warmup=1)
def exec_sweep_parallel4():
    """The same 10 sweep points fanned out over 4 supervised workers.

    Setup runs a paired back-to-back gate asserting the parallel map
    actually beats serial by >= 1.7x on this workload (minima,
    retried — cross-case medians on a busy host drift more than the
    effect size), so the recorded baseline pair always embodies a real
    speedup.
    """
    from ..exec import ParallelExecutor, simulated_sweep_point
    from ..profiling import time_callable

    points = [0.04] * 10
    serial = ParallelExecutor(workers=1)
    parallel = ParallelExecutor(workers=4)

    def run_serial():
        assert serial.map(simulated_sweep_point, points, label="bench").ok

    def run():
        assert parallel.map(simulated_sweep_point, points, label="bench").ok

    for attempt in range(3):
        serial_t = time_callable(run_serial, repeats=3, warmup=0)
        parallel_t = time_callable(run, repeats=3, warmup=0)
        if parallel_t.minimum * 1.7 <= serial_t.minimum:
            break
    else:
        raise AssertionError(
            f"parallel sweep under 1.7x vs serial: "
            f"{serial_t.minimum:.3f}s / {parallel_t.minimum:.3f}s = "
            f"{serial_t.minimum / parallel_t.minimum:.2f}x"
        )
    return run
