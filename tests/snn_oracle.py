"""Shared builders, tolerance contracts and the accumulate oracle of the
SNN suites (``test_fused_equivalence``, ``test_sparse_kernels``,
``test_event_driven``).

The oracle prices a weight layer the way Section VI of the paper does:
every input spike of a hidden layer costs one accumulate per reachable
output connection, and the first weight layer, which sees the analog
image, pays for every input element at every step.  It enumerates output
positions and kernel taps by brute force and never calls the
counter's fan-out map or the gather kernels, so the exact counts of
:func:`~repro.snn.analysis.count_accumulates` can be checked against
it layer by layer, under either forced routing of the dispatcher.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.nn import Conv2d, Flatten, Identity, Linear, tap
from repro.snn import (
    IFNeuron,
    LIFNeuron,
    SpikingMaxPool,
    SpikingNetwork,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
    count_accumulates,
    count_spikes,
)
from repro.snn.dispatch import CrossoverTable
from repro.tensor import no_grad

T = 3

#: Fused vs stepwise engine: BLAS may block a GEMM over the folded
#: ``(T*N, ...)`` batch differently than T per-step GEMMs, so outputs
#: agree to within a few ulp rather than bitwise.
FUSED_CONTRACT = dict(rtol=1e-12, atol=1e-14)
#: Gather kernels vs dense GEMM: events are summed in a different order.
GATHER_CONTRACT = dict(rtol=1e-9, atol=1e-12)

#: Route every weight layer sparse regardless of measured density.
FORCE_SPARSE = {"conv": 1.1, "linear": 1.1}
#: Keep every weight layer dense (density is never <= -1).
FORCE_DENSE = {"conv": -1.0, "linear": -1.0}

# (constructor, kwargs) triples covering the neuron design space: plain
# IF, a leaky neuron with beta-scaled spikes and a bias-shift initial
# potential, and the hard-reset variant (detached reset branch).
NEURON_CONFIGS = [
    pytest.param(lambda: IFNeuron(v_threshold=0.6), id="if-soft"),
    pytest.param(
        lambda: LIFNeuron(v_threshold=0.6, leak=0.85, beta=1.3,
                          initial_potential=0.35),
        id="lif-beta-shift",
    ),
    pytest.param(
        lambda: LIFNeuron(v_threshold=0.6, leak=1.0, reset_mode="hard"),
        id="if-hard",
    ),
]


def build_net(neuron_fn, mode, timesteps=T, dropout=None, seed=0):
    """A tiny conv -> neuron -> pool -> linear network, seeded so two
    builds with the same ``seed`` are exact parameter twins."""
    rng = np.random.default_rng(seed)
    layers = [
        StepWrapper(Conv2d(1, 2, 3, padding=1, rng=rng)),
        neuron_fn(),
        SpikingMaxPool(2),
    ]
    if dropout is not None:
        layers.append(TemporalDropout(dropout, rng=np.random.default_rng(99)))
    layers += [
        StepWrapper(Flatten()),
        StepWrapper(Linear(2 * 2 * 2, 3, rng=rng)),
    ]
    body = SpikingSequential(*layers)
    return SpikingNetwork(body, timesteps=timesteps, mode=mode)


def images_batch(n=4, seed=3):
    return np.random.default_rng(seed).random((n, 1, 4, 4))


def run_recorded(snn, images):
    """Eval-mode no-grad forward under the spike counter; returns
    ``(logits, total spike count)``."""
    snn.eval()
    with count_spikes(snn) as counts, no_grad():
        logits = snn(images)
    return logits.data, sum(counts.spikes)


def assert_logits_match(actual, expected, contract=FUSED_CONTRACT):
    np.testing.assert_allclose(actual, expected, **contract)


# ----------------------------------------------------------------------
# Brute-force accumulate oracle
# ----------------------------------------------------------------------
def brute_force_fanout(layer, in_shape):
    """Output connections fed by each input element of ``layer``.

    A convolution is enumerated output position by output position and
    kernel tap by kernel tap: every tap that lands on a real input (not
    on the zero pad) connects that input to ``out_channels`` outputs.
    """
    if isinstance(layer, Linear):
        return np.full(in_shape, layer.out_features, dtype=np.int64)
    channels, height, width = in_shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    fanout = np.zeros(in_shape, dtype=np.int64)
    for oy in range((height + 2 * p - k) // s + 1):
        for ox in range((width + 2 * p - k) // s + 1):
            for ky in range(k):
                for kx in range(k):
                    iy, ix = oy * s - p + ky, ox * s - p + kx
                    if 0 <= iy < height and 0 <= ix < width:
                        fanout[:, iy, ix] += layer.out_channels
    return fanout


def brute_force_counts(layer, frame, analog=False):
    """``(events, accumulates)`` of ``layer`` on one per-step frame.

    Hidden layers see spikes: each nonzero input is an event.  The first
    weight layer, which sees the analog image (``analog=True``), takes
    every element as an event.
    """
    active = np.ones(frame.shape, dtype=bool) if analog else frame != 0
    fanout = brute_force_fanout(layer, frame.shape[1:])
    return int(active.sum()), int((active * fanout[None]).sum())


def weight_layers(snn):
    return [
        m.inner for m in snn.modules()
        if isinstance(m, StepWrapper) and isinstance(m.inner, (Conv2d, Linear))
    ]


def counted_forward(snn, images, routing=FORCE_DENSE):
    """One eval no-grad forward under the accumulate counter, with a
    dispatcher forced to ``routing``, observed by the oracle.

    Taps record every per-step frame each weight layer receives (the
    fused engine fires them once per time block, so both engines show
    the same calls), and the brute-force counts of those frames are
    compared with :func:`~repro.snn.analysis.count_accumulates`.
    Returns ``(logits, measured, expected)``: per-image ``(events,
    accumulates)`` for each weight layer in execution order, read from
    the counter with
    :meth:`~repro.snn.analysis.AccumulateCounts.per_inference` and from the
    oracle.  The dispatcher installed before the call is restored.
    """
    images = np.asarray(images)
    frames = {}

    def record(layer, x, _out):
        frames.setdefault(id(layer), (layer, []))[1].append(x.data.copy())

    installed = snn.sparse_dispatch
    snn.enable_sparse_dispatch(CrossoverTable(defaults=routing))
    snn.eval()
    try:
        with tap(weight_layers(snn), record), count_accumulates(snn) as counts, \
                no_grad():
            logits = snn(images).data
    finally:
        snn.sparse_dispatch = installed

    expected = []
    for index, (layer, seen) in enumerate(frames.values()):
        totals = np.sum(
            [brute_force_counts(layer, f, analog=index == 0) for f in seen],
            axis=0,
        )
        expected.append(tuple(float(total) / len(images) for total in totals))
    measured = list(
        zip(counts.per_inference(counts.events), counts.per_inference(counts.accumulates))
    )
    return logits, measured, expected


# ----------------------------------------------------------------------
# Random small networks for the oracle property
# ----------------------------------------------------------------------
def _neuron(kind, threshold):
    if kind == "if-soft":
        return IFNeuron(v_threshold=threshold)
    if kind == "lif-soft":
        return LIFNeuron(v_threshold=threshold, leak=0.8, beta=1.2)
    if kind == "if-hard":
        return LIFNeuron(v_threshold=threshold, leak=1.0, reset_mode="hard")
    return LIFNeuron(v_threshold=threshold, leak=0.7, reset_mode="hard")


@st.composite
def random_nets(draw):
    """A net description: a conv or linear stem, optional max pool and
    residual block, a linear head; IF/LIF, soft/hard reset; T in 1..5;
    input images from all-zero through partly zero to dense."""
    return dict(
        channels=draw(st.integers(1, 2)),
        size=draw(st.sampled_from([4, 6])),
        stem=draw(st.sampled_from(["conv", "linear"])),
        width=draw(st.integers(1, 3)),
        kernel=draw(st.sampled_from([1, 3])),
        stride=draw(st.sampled_from([1, 2])),
        padding=draw(st.sampled_from([0, 1])),
        pool=draw(st.booleans()),
        residual=draw(st.sampled_from([None, "conv", "identity"])),
        neuron=draw(st.sampled_from(["if-soft", "lif-soft", "if-hard", "lif-hard"])),
        threshold=draw(st.sampled_from([0.01, 0.05, 0.2, 1.0])),
        timesteps=draw(st.integers(1, 5)),
        batch=draw(st.integers(1, 3)),
        scale=draw(st.sampled_from([0.0, 0.5, 2.0, 8.0])),
        zero_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
        seed=draw(st.integers(0, 2**16)),
    )


def build_random_net(spec, mode):
    """The network ``spec`` describes; equal specs give parameter twins."""
    rng = np.random.default_rng(spec["seed"])

    def neuron():
        return _neuron(spec["neuron"], spec["threshold"])

    channels, size = spec["channels"], spec["size"]
    layers = []
    if spec["stem"] == "conv":
        k, s, p = spec["kernel"], spec["stride"], spec["padding"]
        layers += [
            StepWrapper(Conv2d(channels, spec["width"], k, stride=s,
                               padding=p, rng=rng)),
            neuron(),
        ]
        channels, size = spec["width"], (size + 2 * p - k) // s + 1
        if spec["pool"] and size % 2 == 0:
            layers.append(SpikingMaxPool(2))
            size //= 2
        if spec["residual"] is not None:
            shortcut = (
                Conv2d(channels, channels, 1, rng=rng)
                if spec["residual"] == "conv" else Identity()
            )
            layers.append(SpikingResidualBlock(
                conv1=StepWrapper(Conv2d(channels, channels, 3, padding=1, rng=rng)),
                neuron1=neuron(),
                conv2=StepWrapper(Conv2d(channels, channels, 3, padding=1, rng=rng)),
                shortcut=StepWrapper(shortcut),
                neuron2=neuron(),
            ))
        layers.append(StepWrapper(Flatten()))
    else:
        layers += [
            StepWrapper(Flatten()),
            StepWrapper(Linear(channels * size * size, 5, rng=rng)),
            neuron(),
        ]
        channels, size = 5, 1
    layers += [
        StepWrapper(Linear(channels * size * size, 4, rng=rng)),
        neuron(),
        StepWrapper(Linear(4, 3, rng=rng)),
    ]
    return SpikingNetwork(
        SpikingSequential(*layers), timesteps=spec["timesteps"], mode=mode
    )


def random_images(spec):
    rng = np.random.default_rng(spec["seed"] + 1)
    shape = (spec["batch"], spec["channels"], spec["size"], spec["size"])
    images = rng.random(shape) * spec["scale"]
    images[rng.random(shape) < spec["zero_fraction"]] = 0.0
    return images
