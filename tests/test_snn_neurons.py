"""IF/LIF neuron dynamics (paper Eqs. 2-4 and 8) and surrogate gradients."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.snn import (
    IFNeuron,
    LIFNeuron,
    SpikingNetwork,
    SpikingNeuron,
    SpikingSequential,
    available_surrogates,
    boxcar,
    count_spikes,
    get_surrogate,
    triangle,
)
from repro.tensor import Tensor

from .snn_oracle import run_neuron, spike_function


class TestSpikeFunction:
    def test_forward_amplitude(self):
        u = Tensor(np.array([0.5, 1.5, 3.0]))
        v = Parameter(np.array([1.0]))
        out = spike_function(u, v, beta=0.7, surrogate=boxcar)
        np.testing.assert_allclose(out.data, [0.0, 0.7, 0.7])

    def test_no_spike_at_threshold(self):
        # Eq. 3 uses strict inequality: U == V^th does not fire.
        u = Tensor(np.array([1.0]))
        out = spike_function(u, Parameter(np.array([1.0])), 1.0, boxcar)
        np.testing.assert_allclose(out.data, [0.0])

    def test_surrogate_gradient_window(self):
        u = Tensor(np.array([-0.5, 0.5, 1.5, 2.5]), requires_grad=True)
        v = Parameter(np.array([1.0]))
        spike_function(u, v, 1.0, boxcar).sum().backward()
        # boxcar: 1 on [0, 2*v_th]
        np.testing.assert_allclose(u.grad, [0.0, 1.0, 1.0, 0.0])

    def test_threshold_gradient_terms(self):
        u = Tensor(np.array([1.5]))
        v = Parameter(np.array([1.0]))
        out = spike_function(u, v, beta=2.0, surrogate=boxcar)
        out.sum().backward()
        # d(beta*v*H)/dv = beta*H - window = 2 - 1
        np.testing.assert_allclose(v.grad, [1.0])

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            spike_function(Tensor([1.0]), Parameter(np.array([0.0])), 1.0, boxcar)


class TestIFNeuronDynamics:
    def test_subthreshold_integration(self):
        n = IFNeuron(v_threshold=1.0)
        out = run_neuron(n, [[0.4]])
        np.testing.assert_allclose(out.data, [[0.0]])
        np.testing.assert_allclose(n.membrane.data, [0.4])

    def test_spike_and_soft_reset(self):
        n = IFNeuron(v_threshold=1.0)
        out = run_neuron(n, [[0.7], [0.7]])  # membrane 1.4 > 1.0
        np.testing.assert_allclose(out.data, [[0.0], [1.0]])
        np.testing.assert_allclose(n.membrane.data, [0.4], atol=1e-12)

    def test_beta_scales_output_not_reset(self):
        n = IFNeuron(v_threshold=1.0, beta=1.5)
        out = run_neuron(n, [[1.2]])
        np.testing.assert_allclose(out.data, [[1.5]])
        # reset subtracts V^th, not beta*V^th
        np.testing.assert_allclose(n.membrane.data, [0.2], atol=1e-12)

    def test_rate_approximates_activation(self):
        # Long-run IF firing rate ~ clip(input, 0, v_th) / v_th.
        n = IFNeuron(v_threshold=1.0)
        steps, current = 1000, 0.3141
        out = run_neuron(n, np.full((steps, 1), current))
        total = out.data.sum()
        assert abs(total / steps - current) < 2.0 / steps * 1.0 + 1e-3

    def test_charge_conservation(self):
        # spikes * V^th + membrane == total injected charge (lambda=1).
        n = IFNeuron(v_threshold=0.8)
        rng = np.random.default_rng(0)
        currents = rng.uniform(0.0, 1.0, size=50)
        out = run_neuron(n, currents[:, None])
        emitted = out.data.sum()
        np.testing.assert_allclose(
            emitted + n.membrane.data[0], currents.sum(), atol=1e-9
        )

    def test_initial_potential_shifts_first_spike(self):
        plain = IFNeuron(v_threshold=1.0)
        shifted = IFNeuron(v_threshold=1.0, initial_potential=0.5)
        assert run_neuron(plain, [[0.6]]).data[0, 0] == 0.0
        assert run_neuron(shifted, [[0.6]]).data[0, 0] == 1.0  # 0.5 + 0.6 > 1.0

    def test_reset_state(self):
        n = IFNeuron(v_threshold=1.0)
        run_neuron(n, [[0.4]])
        n.reset_state()
        assert n.membrane is None

    def test_negative_currents_accumulate(self):
        n = IFNeuron(v_threshold=1.0)
        run_neuron(n, [[-0.5]])
        np.testing.assert_allclose(n.membrane.data, [-0.5])


class TestLIFNeuron:
    def test_leak_decays_membrane(self):
        n = LIFNeuron(v_threshold=10.0, leak=0.5)
        run_neuron(n, [[1.0], [0.0]])
        np.testing.assert_allclose(n.membrane.data, [0.5])

    def test_leak_one_is_if(self):
        lif = LIFNeuron(v_threshold=1.0, leak=1.0)
        iff = IFNeuron(v_threshold=1.0)
        currents = [[0.3], [0.5], [0.9]]
        np.testing.assert_allclose(
            run_neuron(lif, currents).data, run_neuron(iff, currents).data
        )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpikingNeuron(v_threshold=-1.0)
        with pytest.raises(ValueError):
            SpikingNeuron(beta=0.0)
        with pytest.raises(ValueError):
            SpikingNeuron(leak=1.5)

    def test_trainable_flag(self):
        frozen = SpikingNeuron(trainable=False)
        assert not frozen.v_threshold.requires_grad
        assert not frozen.leak.requires_grad

    def test_leak_gradient_flows(self):
        n = LIFNeuron(v_threshold=10.0, leak=0.5)
        # No spike (threshold 10), but both membranes (2, then leak*2 + 2)
        # sit in the boxcar window, so the second step's credit reaches
        # the leak through U(1).
        out = run_neuron(n, [[2.0], [2.0]])
        out.sum().backward()
        assert n.leak.grad is not None and n.leak.grad[0] != 0.0


def one_neuron_net(timesteps=1):
    return SpikingNetwork(
        SpikingSequential(IFNeuron(v_threshold=1.0)), timesteps=timesteps
    )


class TestSpikeRecording:
    def test_counts_spikes(self):
        snn = one_neuron_net()
        with count_spikes(snn) as counts:
            snn(np.full((2, 3), 1.5))
        assert counts.spikes == [6]
        assert counts.neurons == [3]  # per-sample neurons (excl. batch dim)
        assert counts.slots == [6]  # neurons x images x steps
        assert counts.rates() == [1.0]

    def test_reset_spike_stats(self):
        # Every count_spikes block starts from zero.
        snn = one_neuron_net()
        with count_spikes(snn):
            snn(np.full((1, 2), 1.5))
        with count_spikes(snn) as counts:
            pass
        assert counts.spikes == [0] and counts.slots == [0]
        assert counts.rates() == [0.0]


class TestSurrogates:
    def test_registry(self):
        assert set(available_surrogates()) >= {
            "boxcar", "triangle", "fast_sigmoid", "arctan",
        }
        assert get_surrogate("boxcar") is boxcar
        with pytest.raises(KeyError):
            get_surrogate("mystery")

    def test_boxcar_window(self):
        u = np.array([-0.1, 0.0, 1.0, 2.0, 2.1])
        np.testing.assert_allclose(boxcar(u, 1.0), [0, 1, 1, 1, 0])

    def test_triangle_peak_at_threshold(self):
        u = np.array([0.0, 1.0, 2.0])
        out = triangle(u, 1.0)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0])

    def test_all_surrogates_nonnegative(self):
        u = np.linspace(-5, 5, 101)
        for name in available_surrogates():
            assert np.all(get_surrogate(name)(u, 1.0) >= 0.0)

    def test_all_surrogates_peak_near_threshold(self):
        u = np.linspace(-5, 5, 1001)
        for name in available_surrogates():
            values = get_surrogate(name)(u, 1.0)
            peak = u[values.argmax()]
            assert -0.1 <= peak <= 2.1
