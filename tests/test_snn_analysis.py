"""Temporal spike-analysis tests."""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.snn import (
    count_spikes,
    first_spike_latency,
    layer_summary,
    record_spike_raster,
    spikes_per_step,
    synchrony_index,
    temporal_sparsity,
)


@pytest.fixture(scope="module")
def snn_and_images():
    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=4)).snn
    return snn, rng.random((3, 3, 8, 8))


class TestRaster:
    def test_shapes(self, snn_and_images):
        snn, images = snn_and_images
        rasters = record_spike_raster(snn, images)
        assert len(rasters) == len(snn.spiking_neurons())
        for raster in rasters:
            assert raster.shape[0] == snn.timesteps
            assert raster.shape[1] == images.shape[0]

    def test_binary(self, snn_and_images):
        snn, images = snn_and_images
        for raster in record_spike_raster(snn, images):
            assert set(np.unique(raster)) <= {0.0, 1.0}

    def test_consistent_with_recording(self, snn_and_images):
        snn, images = snn_and_images
        rasters = record_spike_raster(snn, images)
        snn.eval()
        from repro.tensor import no_grad

        with count_spikes(snn) as counts, no_grad():
            snn(images)
        for raster, spikes, slots in zip(rasters, counts.spikes, counts.slots):
            assert raster.sum() == spikes
            assert raster.size == slots


class TestStatistics:
    def test_spikes_per_step(self):
        raster = np.zeros((3, 1, 4))
        raster[0, 0, :2] = 1.0
        raster[2, 0, 0] = 1.0
        np.testing.assert_allclose(spikes_per_step(raster), [2, 0, 1])

    def test_first_spike_latency(self):
        raster = np.zeros((3, 2))
        raster[1, 0] = 1.0  # neuron 0 fires at t=1; neuron 1 never
        latency = first_spike_latency(raster)
        np.testing.assert_array_equal(latency, [1, 3])

    def test_temporal_sparsity_bounds(self, snn_and_images):
        snn, images = snn_and_images
        for raster in record_spike_raster(snn, images):
            assert 0.0 <= temporal_sparsity(raster) <= 1.0

    def test_synchrony_extremes(self):
        one_step = np.zeros((4, 5))
        one_step[2] = 1.0
        assert synchrony_index(one_step) == 1.0
        uniform = np.ones((4, 5))
        assert synchrony_index(uniform) == pytest.approx(0.25)
        assert synchrony_index(np.zeros((4, 5))) == 0.0

    def test_layer_summary(self, snn_and_images):
        snn, images = snn_and_images
        summary = layer_summary(snn, images)
        assert len(summary) == len(snn.spiking_neurons())
        for row in summary:
            assert 0.0 <= row["temporal_sparsity"] <= 1.0
            assert 0.0 <= row["fraction_firing"] <= 1.0
            assert row["spikes_per_neuron"] >= 0.0
