"""Shared builders, tolerance contracts, the step-major reference loop
and the accumulate oracle of the SNN suites (``test_fused_equivalence``,
``test_sparse_kernels``, ``test_event_driven`` and the neuron, fault,
observability and dtype tests).

:func:`stepwise_reference` is the classic step-major simulation of a
:class:`~repro.snn.SpikingNetwork`: T outer steps, each pushing the
frame through every layer with one membrane update per neuron
(``U += I``, spike above threshold, subtract on fire), built from
:mod:`repro.tensor` ops so BPTT gradients for weights, thresholds and
leaks flow through the unrolled chain.  The library has one engine, the
time-folded one; every equivalence test compares it with this loop,
either directly or through :func:`use_engine`, which routes a network's
calls through the reference so that probes which call the network
themselves (rasters, drift monitors, fault sessions) run on it.

The oracle prices a weight layer the way Section VI of the paper does:
every input spike of a hidden layer costs one accumulate per reachable
output connection, and the first weight layer, which sees the analog
image, pays for every input element at every step.  It enumerates output
positions and kernel taps by brute force and never calls the
counter's fan-out map or the gather kernels, so the exact counts of
:func:`~repro.snn.analysis.count_accumulates` can be checked against
it layer by layer, under either forced routing of the dispatcher.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.nn import Conv2d, Flatten, Identity, Linear, tap
from repro.snn import (
    IFNeuron,
    LIFNeuron,
    SpikingMaxPool,
    SpikingNetwork,
    SpikingNeuron,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
    count_accumulates,
    count_spikes,
    dispatch_context,
)
from repro.snn.dispatch import CrossoverTable
from repro.tensor import Tensor, no_grad, where
from repro.tensor.conv_ops import (
    _check_pool_args,
    pool_windows,
    route_to_winners,
    window_argmax,
)

T = 3

#: The fused engine vs :func:`stepwise_reference`: BLAS may block a GEMM
#: over the folded ``(T*N, ...)`` batch differently than T per-step
#: GEMMs, so outputs agree to within a few ulp rather than bitwise.
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


def build_net(neuron_fn, engine="fused", timesteps=T, dropout=None, seed=0):
    """A tiny conv -> neuron -> pool -> linear network, seeded so two
    builds with the same ``seed`` are exact parameter twins; ``engine``
    as in :func:`use_engine`."""
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
    return use_engine(SpikingNetwork(body, timesteps=timesteps), engine)


# ----------------------------------------------------------------------
# Step-major reference loop
# ----------------------------------------------------------------------
#: ``use_engine`` names: the library's engine and the reference loop.
ENGINES = ("fused", "stepwise")


def spike_function(u_temp, v_threshold, beta, surrogate):
    """Differentiable (via surrogate) spike emission.

    Forward: ``beta * v_th * 1{u > v_th}``.

    Backward:
    - w.r.t. ``u``: the surrogate window ``g(u, v_th)`` (the paper uses
      a boxcar equal to 1 on ``[0, 2 v_th]``);
    - w.r.t. ``v_th``: ``beta * 1{spike}`` from the amplitude term minus
      the surrogate window from the firing condition — raising the
      threshold raises each emitted spike's amplitude but suppresses
      marginal spikes.
    """
    v_th = float(v_threshold.data.reshape(-1)[0])
    if v_th <= 0:
        raise ValueError(f"spiking threshold must be positive, got {v_th}")
    fired = u_temp.data > v_th
    dtype = u_temp.data.dtype
    out = np.where(fired, dtype.type(beta * v_th), dtype.type(0.0))
    window = surrogate(u_temp.data, v_th)

    def bwd(g):
        gu = g * window
        gv = (g * (beta * fired.astype(g.dtype) - window)).sum()
        return (gu, np.full(v_threshold.data.shape, gv))

    return Tensor.from_op(out, (u_temp, v_threshold), bwd, "spike")


def _masked(x, mask, name):
    """``x * mask`` for a constant numpy mask (gradient masked alike)."""
    def bwd(g):
        return (g * mask,)

    return Tensor.from_op(x.data * mask, (x,), bwd, name)


def _neuron_step(neuron, current):
    """One Eq. (2)-(4) update; the membrane stays in the graph."""
    membrane = neuron.membrane
    if membrane is None:
        membrane = Tensor(np.full_like(current.data, neuron.initial_potential))
    u_temp = membrane * neuron.leak + current
    spikes = spike_function(u_temp, neuron.v_threshold, neuron.beta, neuron.surrogate)
    fired = (spikes.data != 0.0).astype(current.data.dtype)
    if neuron.reset_mode == "soft":
        neuron.membrane = u_temp - neuron.v_threshold * Tensor(fired)
    else:  # hard reset: zero the fired units, graph detached there
        neuron.membrane = where(
            fired != 0.0, Tensor(np.zeros_like(u_temp.data)), u_temp
        )
    alive = neuron._unit_alive_mask(current.data.shape[1:])
    if alive is not None:
        spikes = _masked(spikes, alive.astype(spikes.data.dtype), "dead_units")
    return spikes


def _pool_step(pool, x, state):
    """One rate-gated pooling step: running window counts pick winners."""
    k = pool.kernel_size
    _check_pool_args(x, k, k)
    frames = pool_windows(x.data, k)
    counts = state.get(id(pool))
    if counts is None:
        counts = state[id(pool)] = np.zeros_like(frames)
    counts += frames
    out, winners = window_argmax(frames, counts)

    def bwd(g):
        return (route_to_winners(g, winners, k),)

    return Tensor.from_op(out, (x,), bwd, "spiking_max_pool")


def _dropout_step(dropout, x, state):
    """The one mask per forward, drawn from the module's generator at
    frame shape as the engine draws it, applied at every step."""
    if not dropout.training or dropout.p == 0.0:
        return x
    mask = state.get(id(dropout))
    if mask is None:
        keep = (dropout.rng.random(x.data.shape) >= dropout.p).astype(x.data.dtype)
        mask = state[id(dropout)] = keep / (1.0 - dropout.p)
    return _masked(x, mask, "temporal_dropout")


def _step(module, x, state):
    """``module``'s output for one time step, its taps fired once."""
    if isinstance(module, SpikingSequential):
        out = x
        for layer in module:
            out = _step(layer, out, state)
    elif isinstance(module, StepWrapper):
        out = module.inner.run_taps(x, module._run_inner(x))
    elif isinstance(module, SpikingNeuron):
        out = _neuron_step(module, x)
    elif isinstance(module, SpikingMaxPool):
        out = _pool_step(module, x, state)
    elif isinstance(module, TemporalDropout):
        out = _dropout_step(module, x, state)
    elif isinstance(module, SpikingResidualBlock):
        branch = _step(module.conv2, _step(
            module.neuron1, _step(module.conv1, x, state), state), state)
        out = _step(module.neuron2, branch + _step(module.shortcut, x, state), state)
    else:
        raise TypeError(f"no reference step for {type(module).__name__}")
    return module.run_taps(x, out) if module._taps else out


def _unroll(snn, images):
    if isinstance(images, Tensor) and images.requires_grad:
        frame = images
    else:
        frame = Tensor(images)
    state = {}
    total = _step(snn.body, frame, state)
    for _ in range(snn.timesteps - 1):
        total = total + _step(snn.body, frame, state)
    return total * (1.0 / snn.timesteps)


def stepwise_reference(snn, images):
    """The mean output logits of ``snn`` on ``images``, simulated step by
    step.

    Same parameters, input path (the analog frame at every step), output
    decoding (the mean over steps), unit-fault masks, dropout masks and
    sparse dispatch (no-grad eval passes only) as the engine; taps fire
    once per layer and step, in step-major order.  Each neuron's
    ``membrane`` is left at ``U(T)``, still in the graph.
    """
    snn.reset_state()
    if snn._dispatch_eligible():
        with dispatch_context(snn.sparse_dispatch):
            return _unroll(snn, images)
    return _unroll(snn, images)


def use_engine(snn, engine):
    """Return ``snn`` with its calls routed through ``engine``:
    ``"fused"`` leaves the library's engine, ``"stepwise"`` installs
    :func:`stepwise_reference` as this instance's ``forward``."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "stepwise":
        # A deep copy of the network calls the reference on the copy.
        snn.forward = partial(stepwise_reference, snn)
    return snn


@contextmanager
def engine_of(snn, engine):
    """:func:`use_engine` for the duration of a block."""
    use_engine(snn, engine)
    try:
        yield snn
    finally:
        snn.__dict__.pop("forward", None)


def run_neuron(neuron, currents):
    """The spikes, shaped ``(T, ...)``, of one engine call of ``neuron``
    over the per-step ``currents`` (shape ``(T, ...)``)."""
    currents = np.asarray(currents, dtype=float)
    x = Tensor(currents.reshape((-1,) + currents.shape[2:]))
    return neuron.forward_fused(x, len(currents)).reshape(currents.shape)


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
    engine fires them once per time block, so it shows the same calls as
    the reference loop), and the brute-force counts of those frames are
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


def build_random_net(spec, engine="fused"):
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
    return use_engine(
        SpikingNetwork(SpikingSequential(*layers), timesteps=spec["timesteps"]),
        engine,
    )


def random_images(spec):
    rng = np.random.default_rng(spec["seed"] + 1)
    shape = (spec["batch"], spec["channels"], spec["size"], spec["size"])
    images = rng.random(shape) * spec["scale"]
    images[rng.random(shape) < spec["zero_fraction"]] = 0.0
    return images
