"""Property-based tests (hypothesis) on core data structures & invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.conversion import compute_loss, find_scaling_factors, snn_staircase
from repro.snn import IFNeuron, boxcar
from repro.tensor import Tensor, log_softmax, relu, threshold_relu, unbroadcast

from .snn_oracle import run_neuron

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def small_arrays(min_dims=1, max_dims=3, max_side=5):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(min_dims=min_dims, max_dims=max_dims, max_side=max_side),
        elements=finite_floats,
    )


class TestTensorProperties:
    @given(small_arrays(), small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_addition_matches_numpy_when_broadcastable(self, a, b):
        try:
            expected = a + b
        except ValueError:
            return  # not broadcastable; out of scope
        out = Tensor(a) + Tensor(b)
        np.testing.assert_allclose(out.data, expected)

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_sum_backward_is_ones(self, a):
        t = Tensor(a, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(a))

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_relu_idempotent(self, a):
        t = Tensor(a)
        once = relu(t).data
        twice = relu(relu(t)).data
        np.testing.assert_allclose(once, twice)

    @given(small_arrays(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_threshold_relu_bounded(self, a, mu):
        out = threshold_relu(Tensor(a), Tensor(np.array([mu]))).data
        assert np.all(out >= 0.0)
        assert np.all(out <= mu + 1e-12)

    @given(small_arrays(min_dims=2, max_dims=2))
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_normalised(self, a):
        out = log_softmax(Tensor(a), axis=1)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-9)

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_unbroadcast_roundtrip(self, a):
        # Broadcasting up then unbroadcasting a ones-gradient counts the
        # multiplicity of each source element.
        target_shape = (3,) + a.shape
        grad = np.ones(target_shape)
        back = unbroadcast(grad, a.shape)
        np.testing.assert_allclose(back, np.full(a.shape, 3.0))


class TestIFNeuronProperties:
    @given(
        arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=0.0, max_value=2.0),
        ),
        st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_charge_conservation(self, currents, v_th):
        """Eqs. 2-4 invariant: emitted charge + residual = injected."""
        neuron = IFNeuron(v_threshold=v_th)
        spikes = run_neuron(neuron, currents[:, None])
        emitted = float(spikes.data.sum())
        residual = float(neuron.membrane.data[0])
        np.testing.assert_allclose(emitted + residual, currents.sum(), atol=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.2, max_value=2.0),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_spike_count_bounded_by_charge(self, current, v_th, steps):
        """An IF neuron can never emit more than injected/v_th spikes."""
        neuron = IFNeuron(v_threshold=v_th)
        out = run_neuron(neuron, np.full((steps, 1), current))
        spikes = int((out.data > 0).sum())
        assert spikes <= int(current * steps / v_th) + 1

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_if_rate_equals_staircase(self, fraction, timesteps):
        """T-step IF output equals the Eq. 5 staircase for constant input."""
        v_th = 1.0
        current = fraction * v_th
        neuron = IFNeuron(v_threshold=v_th)
        out = run_neuron(neuron, np.full((timesteps, 1), current))
        total = float(out.data.sum())
        expected = snn_staircase(np.array([current]), timesteps, v_th)[0] * timesteps
        np.testing.assert_allclose(total, expected, atol=1e-9)


class TestStaircaseProperties:
    @given(
        arrays(dtype=np.float64, shape=20,
               elements=st.floats(min_value=-1.0, max_value=5.0)),
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_staircase_bounded(self, d, timesteps, v_th, beta):
        out = snn_staircase(d, timesteps, v_th, beta=beta)
        assert np.all(out >= 0.0)
        assert np.all(out <= beta * v_th + 1e-12)

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_staircase_monotone(self, timesteps, v_th):
        d = np.linspace(-0.5, 2.0 * v_th, 200)
        out = snn_staircase(d, timesteps, v_th)
        assert np.all(np.diff(out) >= -1e-12)


class TestAlgorithm1Properties:
    @given(
        arrays(dtype=np.float64, shape=50,
               elements=st.floats(min_value=0.0, max_value=4.0)),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_search_never_worse_than_identity(self, samples, timesteps):
        mu = 2.0
        percentiles = np.percentile(samples, np.arange(0, 101, 10))
        identity = compute_loss(percentiles, mu, 1.0, 1.0, timesteps)
        result = find_scaling_factors(
            percentiles, mu, timesteps, beta_step=0.25
        )
        assert abs(result.loss) <= abs(identity) + 1e-12

    @given(
        arrays(dtype=np.float64, shape=30,
               elements=st.floats(min_value=0.0, max_value=4.0)),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_compute_loss_finite(self, percentiles, alpha, beta, timesteps):
        loss = compute_loss(percentiles, 2.0, alpha, beta, timesteps)
        assert np.isfinite(loss)


class TestSurrogateProperties:
    @given(
        arrays(dtype=np.float64, shape=30, elements=finite_floats),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_boxcar_binary(self, u, v_th):
        out = boxcar(u, v_th)
        assert set(np.unique(out)) <= {0.0, 1.0}
