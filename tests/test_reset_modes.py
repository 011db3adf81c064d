"""Hard vs soft membrane reset (conversion-literature comparison)."""

import numpy as np
import pytest

from repro.conversion import snn_staircase
from repro.snn import IFNeuron, SpikingNeuron

from .snn_oracle import run_neuron


class TestResetModes:
    def test_soft_reset_conserves_residual(self):
        n = SpikingNeuron(v_threshold=1.0, reset_mode="soft")
        run_neuron(n, [[1.7]])
        np.testing.assert_allclose(n.membrane.data, [0.7], atol=1e-12)

    def test_hard_reset_discards_residual(self):
        n = SpikingNeuron(v_threshold=1.0, reset_mode="hard")
        run_neuron(n, [[1.7]])
        np.testing.assert_allclose(n.membrane.data, [0.0], atol=1e-12)

    def test_hard_reset_keeps_subthreshold_membrane(self):
        n = SpikingNeuron(v_threshold=1.0, reset_mode="hard")
        run_neuron(n, [[0.4]])
        np.testing.assert_allclose(n.membrane.data, [0.4])

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SpikingNeuron(reset_mode="medium")

    def test_soft_matches_staircase_hard_does_not(self):
        """The Eq. 5 rate equivalence requires reset-by-subtraction;
        hard reset under-counts (the classic conversion accuracy loss)."""
        timesteps, v_th, current = 8, 1.0, 0.66
        totals = {}
        for mode in ("soft", "hard"):
            n = SpikingNeuron(v_threshold=v_th, reset_mode=mode)
            out = run_neuron(n, np.full((timesteps, 1), current))
            totals[mode] = float(out.data.sum())
        expected = snn_staircase(
            np.array([current]), timesteps, v_th
        )[0] * timesteps
        np.testing.assert_allclose(totals["soft"], expected, atol=1e-12)
        assert totals["hard"] < totals["soft"]

    def test_hard_reset_charge_leaks(self):
        """Emitted + residual < injected for hard reset (charge lost)."""
        rng = np.random.default_rng(0)
        n = SpikingNeuron(v_threshold=0.8, reset_mode="hard")
        currents = rng.uniform(0.5, 1.5, size=30)
        emitted = float(run_neuron(n, currents[:, None]).data.sum())
        assert emitted + float(n.membrane.data[0]) < currents.sum()

    def test_default_is_soft(self):
        assert IFNeuron().reset_mode == "soft"
