"""Spiking network structure: wrappers, dropout, residual blocks, loop."""

import itertools

import numpy as np
import pytest

from repro.nn import Conv2d, Flatten, Identity, Linear, ReLU
from repro.snn import (
    IFNeuron,
    SpikingMaxPool,
    SpikingNetwork,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
    count_spikes,
)
from repro.snn.network import STATELESS_LAYERS
from repro.tensor import Tensor


def tiny_snn(timesteps=4, v_th=1.0, rng=None):
    rng = rng or np.random.default_rng(0)
    body = SpikingSequential(
        StepWrapper(Conv2d(1, 2, 3, padding=1, rng=rng)),
        IFNeuron(v_threshold=v_th),
        StepWrapper(Flatten()),
        StepWrapper(Linear(2 * 4 * 4, 3, bias=False, rng=rng)),
    )
    return SpikingNetwork(body, timesteps=timesteps)


class TestStepWrapper:
    def test_applies_inner(self, rng):
        layer = Linear(3, 2, rng=rng)
        wrapper = StepWrapper(layer)
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(wrapper.forward_fused(x, 2).data, layer(x).data)

    def test_repr(self, rng):
        assert "Linear" in repr(StepWrapper(Linear(2, 2, rng=rng)))

    def test_rejects_unlisted_inner(self):
        # Only stateless layers fold a time-folded batch in one call.
        assert not isinstance(ReLU(), STATELESS_LAYERS)
        with pytest.raises(TypeError, match="ReLU"):
            StepWrapper(ReLU())

    def test_converter_wraps_the_same_layers(self):
        from repro.conversion import converter

        assert converter.STATELESS_LAYERS is STATELESS_LAYERS


class TestTemporalDropout:
    def test_mask_fixed_across_steps(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.train()
        x = Tensor(np.ones((2 * 2, 10)))
        first, second = drop.forward_fused(x, 2).data.reshape(2, 2, 10)
        np.testing.assert_allclose(first, second)
        assert (first == 0).any() and (first != 0).any()

    def test_mask_resampled_after_reset(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.train()
        x = Tensor(np.ones((2, 50)))
        first = drop.forward_fused(x, 1).data.copy()
        drop.reset_state()
        second = drop.forward_fused(x, 1).data
        assert not np.allclose(first, second)

    def test_eval_identity(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.eval()
        x = Tensor(np.ones((2, 4)))
        assert drop.forward_fused(x, 1) is x

    def test_gradient_through_mask(self, rng):
        drop = TemporalDropout(0.5, rng=rng)
        drop.train()
        x = Tensor(np.ones((1, 20)), requires_grad=True)
        drop.forward_fused(x, 1).sum().backward()
        kept = x.grad != 0
        np.testing.assert_allclose(x.grad[kept], 2.0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            TemporalDropout(1.0)


class TestSpikingSequential:
    def test_iteration_and_indexing(self, rng):
        seq = SpikingSequential(StepWrapper(Identity()), IFNeuron())
        assert len(seq) == 2
        assert isinstance(seq[1], IFNeuron)
        assert len(list(seq)) == 2

    def test_reset_recurses(self):
        neuron = IFNeuron(v_threshold=1.0)
        seq = SpikingSequential(neuron)
        seq.forward_fused(Tensor(np.array([0.5])), 1)
        assert neuron.membrane is not None
        seq.reset_state()
        assert neuron.membrane is None


class TestSpikingResidualBlock:
    def test_identity_shortcut_sums_currents(self, rng):
        conv1 = StepWrapper(Conv2d(2, 2, 3, padding=1, rng=rng))
        conv2 = StepWrapper(Conv2d(2, 2, 3, padding=1, rng=rng))
        block = SpikingResidualBlock(
            conv1,
            IFNeuron(v_threshold=1e6),  # never spikes
            conv2,
            StepWrapper(Identity()),
            IFNeuron(v_threshold=1e-6, beta=1.0),  # always spikes on + input
        )
        x = Tensor(np.ones((1, 2, 4, 4)))
        out = block.forward_fused(x, 1)
        assert out.shape == (1, 2, 4, 4)

    def test_reset_clears_both_neurons(self, rng):
        n1, n2 = IFNeuron(), IFNeuron()
        block = SpikingResidualBlock(
            StepWrapper(Identity()), n1, StepWrapper(Identity()),
            StepWrapper(Identity()), n2,
        )
        block.forward_fused(Tensor(np.ones((1, 2))), 1)
        block.reset_state()
        assert n1.membrane is None and n2.membrane is None


class TestSpikingNetwork:
    def test_output_is_time_average(self, rng):
        snn = tiny_snn(timesteps=4)
        x = rng.normal(size=(2, 1, 4, 4))
        out = snn(x)
        assert out.shape == (2, 3)

    def test_state_reset_between_forwards(self, rng):
        snn = tiny_snn(timesteps=2)
        x = rng.normal(size=(1, 1, 4, 4))
        first = snn(x).data.copy()
        second = snn(x).data
        np.testing.assert_allclose(first, second)

    def test_more_timesteps_changes_nothing_for_constant_zero(self):
        snn = tiny_snn(timesteps=3)
        out = snn(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_recording_controls(self, rng):
        # The counter counts inside its block only and leaves no tap.
        snn = tiny_snn(timesteps=2, v_th=0.01)
        with count_spikes(snn) as counts:
            snn(np.abs(rng.normal(size=(1, 1, 4, 4))))
        seen = sum(counts.spikes)
        assert seen > 0
        snn(np.abs(rng.normal(size=(1, 1, 4, 4))))
        assert sum(counts.spikes) == seen
        assert all(not n._taps for n in snn.spiking_neurons())

    def test_spiking_neurons_enumeration(self):
        snn = tiny_snn()
        assert len(snn.spiking_neurons()) == 1

    def test_invalid_timesteps(self):
        with pytest.raises(ValueError):
            SpikingNetwork(SpikingSequential(), timesteps=0)

    def test_module_without_fused_forward_is_named(self, rng):
        # A bare DNN layer has no forward_fused; nothing falls back to a
        # per-step loop.
        body = SpikingSequential(
            StepWrapper(Flatten()), Linear(16, 3, rng=rng), IFNeuron()
        )
        snn = SpikingNetwork(body, timesteps=2)
        with pytest.raises(TypeError, match="Linear has no forward_fused"):
            snn(rng.normal(size=(1, 1, 4, 4)))

    def test_accepts_tensor_input(self, rng):
        snn = tiny_snn(timesteps=2)
        out = snn(Tensor(rng.normal(size=(1, 1, 4, 4))))
        assert out.shape == (1, 3)

    def test_bptt_gradients_flow_to_weights(self, rng):
        snn = tiny_snn(timesteps=3, v_th=0.5)
        out = snn(np.abs(rng.normal(size=(2, 1, 4, 4))))
        out.sum().backward()
        conv = snn.body[0].inner
        assert conv.weight.grad is not None
        assert np.abs(conv.weight.grad).sum() > 0

    def test_bptt_gradients_flow_to_threshold(self, rng):
        snn = tiny_snn(timesteps=3, v_th=0.5)
        out = snn(np.abs(rng.normal(size=(2, 1, 4, 4))) + 0.5)
        out.sum().backward()
        neuron = snn.spiking_neurons()[0]
        assert neuron.v_threshold.grad is not None


def naive_spiking_max_pool(frames, k, grads):
    """Per-window loop reference over a list of frames: each window
    passes the current value of the input with the highest running sum
    (first maximum in row-major window order on ties), and each step's
    output gradient is routed to that input alone."""
    n, c, h, w = frames[0].shape
    counts = np.zeros((n, c, h // k, w // k, k * k))
    outs, gxs = [], []
    for frame, g in zip(frames, grads):
        out = np.zeros((n, c, h // k, w // k))
        gx = np.zeros_like(frame)
        for b, ch, i, j in itertools.product(range(n), range(c), range(h // k), range(w // k)):
            best = 0
            for tap, (di, dj) in enumerate(itertools.product(range(k), range(k))):
                counts[b, ch, i, j, tap] += frame[b, ch, i * k + di, j * k + dj]
                if counts[b, ch, i, j, tap] > counts[b, ch, i, j, best]:
                    best = tap
            di, dj = divmod(best, k)
            out[b, ch, i, j] = frame[b, ch, i * k + di, j * k + dj]
            gx[b, ch, i * k + di, j * k + dj] = g[b, ch, i, j]
        outs.append(out)
        gxs.append(gx)
    return outs, gxs


def tie_heavy_frames(rng, kind, steps, k):
    raw = rng.normal(size=(steps, 2, 3, 2 * k, 2 * k))
    return {
        "relu": np.maximum(raw, 0.0),
        "rounded": np.round(raw),
        "spikes": (raw > 0.3).astype(float),
    }[kind]


def run_stepwise_pool(pool, frames, grads):
    """One ``forward_fused`` call per step: the window counts carry from
    call to call."""
    outs, gxs = [], []
    for frame, g in zip(frames, grads):
        x = Tensor(frame, requires_grad=True)
        out = pool.forward_fused(x, 1)
        out.backward(g)
        outs.append(out.data)
        gxs.append(x.grad)
    return outs, gxs


class TestSpikingMaxPoolPins:
    """Per-step and all-steps pool calls against a per-window loop, with
    ties."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["relu", "rounded", "spikes"])
    def test_stepwise_matches_window_loop(self, rng, k, kind):
        frames = tie_heavy_frames(rng, kind, 3, k)
        grads = rng.normal(size=(3, 2, 3, 2, 2))
        want_outs, want_gxs = naive_spiking_max_pool(frames, k, grads)
        outs, gxs = run_stepwise_pool(SpikingMaxPool(k), frames, grads)
        for t in range(3):
            np.testing.assert_array_equal(outs[t], want_outs[t])
            assert (gxs[t] == want_gxs[t]).all()

    @pytest.mark.parametrize("timesteps", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["relu", "rounded", "spikes"])
    def test_fused_equals_stepwise(self, rng, timesteps, k, kind):
        frames = tie_heavy_frames(rng, kind, timesteps, k)
        grads = rng.normal(size=(timesteps, 2, 3, 2, 2))
        outs, gxs = run_stepwise_pool(SpikingMaxPool(k), frames, grads)
        x = Tensor(frames.reshape((-1,) + frames.shape[2:]), requires_grad=True)
        out = SpikingMaxPool(k).forward_fused(x, timesteps)
        out.backward(grads.reshape((-1,) + grads.shape[2:]))
        np.testing.assert_array_equal(out.data, np.concatenate(outs))
        assert (x.grad == np.concatenate(gxs)).all()

    @pytest.mark.parametrize("kind", ["relu", "rounded", "spikes"])
    def test_fused_carries_counts_across_calls(self, rng, kind):
        frames = tie_heavy_frames(rng, kind, 5, 2)
        grads = rng.normal(size=(5, 2, 3, 2, 2))
        want_outs, want_gxs = run_stepwise_pool(SpikingMaxPool(2), frames, grads)
        pool = SpikingMaxPool(2)
        for chunk in (slice(0, 2), slice(2, 5)):
            x = Tensor(frames[chunk].reshape((-1, 3, 4, 4)), requires_grad=True)
            out = pool.forward_fused(x, len(frames[chunk]))
            out.backward(grads[chunk].reshape((-1, 3, 2, 2)))
            np.testing.assert_array_equal(out.data, np.concatenate(want_outs[chunk]))
            assert (x.grad == np.concatenate(want_gxs[chunk])).all()

    def test_nan_window_yields_nan(self):
        frame = np.ones((1, 1, 4, 4))
        frame[0, 0, 0, 1] = np.nan
        stepwise = SpikingMaxPool(2).forward_fused(Tensor(frame), 1).data
        fused = SpikingMaxPool(2).forward_fused(Tensor(np.concatenate([frame, frame])), 2).data
        for out in (stepwise, fused[:1], fused[1:]):
            assert np.isnan(out[0, 0, 0, 0])
            np.testing.assert_array_equal(out[0, 0].ravel()[1:], [1.0, 1.0, 1.0])


class TestSpikingMaxPool:
    def test_binary_in_binary_out(self, rng):
        pool = SpikingMaxPool(2)
        frame = (rng.random((1, 1, 4, 4)) > 0.5).astype(float)
        out = pool.forward_fused(Tensor(frame), 1)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_rate_converges_to_max(self, rng):
        # Two inputs per window with rates 0.8 and 0.2: the gated pool's
        # long-run output rate must approach max(0.8, 0.2).
        pool = SpikingMaxPool(2)
        steps = 400
        total = 0.0
        rates = np.array([[0.8, 0.2], [0.1, 0.3]])
        for t in range(steps):
            frame = (rng.random((2, 2)) < rates).astype(float)
            out = pool.forward_fused(Tensor(frame.reshape(1, 1, 2, 2)), 1)
            total += out.data[0, 0, 0, 0]
        assert abs(total / steps - 0.8) < 0.08

    def test_naive_max_would_overestimate(self, rng):
        # Sanity: the naive per-step max rate is ~1-(1-r)^4, far above r.
        rates = np.full((2, 2), 0.3)
        steps = 300
        naive = 0.0
        for _ in range(steps):
            frame = (rng.random((2, 2)) < rates).astype(float)
            naive += frame.max()
        assert naive / steps > 0.6  # >> 0.3

    def test_reset_clears_counts(self, rng):
        pool = SpikingMaxPool(2)
        pool.forward_fused(Tensor(np.ones((1, 1, 2, 2))), 1)
        assert pool._counts is not None
        pool.reset_state()
        assert pool._counts is None

    def test_gradient_routes_to_winner(self):
        pool = SpikingMaxPool(2)
        frame = np.array([[[[1.0, 0.0], [0.0, 0.0]]]])
        x = Tensor(frame, requires_grad=True)
        pool.forward_fused(x, 1).sum().backward()
        np.testing.assert_allclose(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            SpikingMaxPool(2).forward_fused(Tensor(np.ones((1, 1, 3, 3))), 1)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            SpikingMaxPool(0)
