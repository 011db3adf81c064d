"""Neuromorphic core-mapping model tests."""

import copy
import math

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.energy import measure_spiking_activity
from repro.hw import CoreSpec, EnergyCoefficients, map_network
from repro.hw.mapping import _cores_for_layer, _layer_geometry
from repro.models import resnet20, vgg11
from repro.nn import Conv2d, Linear
from repro.tensor import no_grad


@pytest.fixture(scope="module")
def mapped_vgg():
    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
    images = rng.random((4, 3, 8, 8))
    return snn, images


class TestCoreSpec:
    def test_defaults_truenorth_like(self):
        spec = CoreSpec()
        assert spec.neurons_per_core == 256
        assert spec.axons_per_core == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreSpec(neurons_per_core=0)

    def test_energy_coefficients_validation(self):
        with pytest.raises(ValueError):
            EnergyCoefficients(per_mesh_hop=-1.0)


class TestLayerGeometry:
    def test_conv_geometry(self):
        conv = Conv2d(3, 8, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        neurons, inputs, fan_in, synapses, out_shape = _layer_geometry(
            conv, (3, 8, 8)
        )
        assert neurons == 8 * 8 * 8
        assert inputs == 3 * 8 * 8
        assert fan_in == 3 * 3 * 3
        assert synapses == neurons * fan_in
        assert out_shape == (8, 8, 8)

    def test_linear_geometry(self):
        layer = Linear(100, 10, rng=np.random.default_rng(0))
        neurons, inputs, fan_in, synapses, out_shape = _layer_geometry(
            layer, (100,)
        )
        assert (neurons, inputs, fan_in, synapses) == (10, 100, 100, 1000)


class TestCoresForLayer:
    def test_fits_one_core(self):
        assert _cores_for_layer(100, 100, CoreSpec()) == 1

    def test_neuron_tiling(self):
        assert _cores_for_layer(1000, 100, CoreSpec()) == math.ceil(1000 / 256)

    def test_fan_in_splitting(self):
        # fan-in 1000 > 256 axons -> 4 input slices per neuron tile.
        assert _cores_for_layer(100, 1000, CoreSpec()) == 4

    def test_both_limits(self):
        cores = _cores_for_layer(1000, 1000, CoreSpec())
        assert cores == math.ceil(1000 / 256) * 4


class TestMapNetwork:
    def test_layer_count_matches_weight_layers(self, mapped_vgg):
        snn, images = mapped_vgg
        report = map_network(snn, images)
        from repro.energy import trace_weight_layers

        dense = trace_weight_layers(snn.body, (3, 8, 8))
        assert len(report.layers) == len(dense)

    def test_total_cores_positive(self, mapped_vgg):
        snn, images = mapped_vgg
        report = map_network(snn, images)
        assert report.total_cores >= len(report.layers)

    def test_synapses_match_geometry(self, mapped_vgg):
        snn, images = mapped_vgg
        report = map_network(snn, images)
        for layer in report.layers:
            assert layer.synapses == layer.neurons * layer.fan_in

    def test_energy_components(self, mapped_vgg):
        snn, images = mapped_vgg
        report = map_network(snn, images)
        base = report.energy(EnergyCoefficients(1.0, 0.0, 0.0))
        with_static = report.energy(EnergyCoefficients(1.0, 0.0, 1.0))
        assert with_static == pytest.approx(
            base + report.total_cores * snn.timesteps
        )

    def test_silent_network_costs_static_plus_first_layer(self, mapped_vgg):
        snn, images = mapped_vgg
        report = map_network(snn, np.zeros_like(images))
        # Direct-encoded first layer still receives analog input.
        assert report.layers[0].synaptic_events > 0
        assert all(l.synaptic_events == 0 for l in report.layers[1:])

    def test_tighter_cores_need_more_of_them(self, mapped_vgg):
        snn, images = mapped_vgg
        big = map_network(snn, images, CoreSpec(256, 256))
        small = map_network(snn, images, CoreSpec(64, 64))
        assert small.total_cores > big.total_cores

    def test_resnet_maps_all_branches(self):
        rng = np.random.default_rng(2)
        model = resnet20(
            num_classes=5, width_multiplier=0.125, rng=np.random.default_rng(0)
        )
        loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        deployment = map_network(snn, rng.random((4, 3, 8, 8)))
        from repro.energy import trace_weight_layers

        dense = trace_weight_layers(snn.body, (3, 8, 8))
        assert len(deployment.layers) == len(dense)

    def test_silent_input_lower_energy(self, mapped_vgg):
        snn, images = mapped_vgg
        full = map_network(snn, images)
        silent = map_network(snn, np.zeros_like(images))
        assert silent.energy() < full.energy()

    def test_input_events_scale_with_t(self, mapped_vgg):
        snn, images = mapped_vgg
        report = map_network(snn, images)
        pixels = int(np.prod(images.shape[1:]))
        assert report.layers[0].input_spikes_per_inference == pytest.approx(
            pixels * snn.timesteps
        )

    def test_leaves_installed_dispatcher_untouched(self, mapped_vgg):
        snn, images = mapped_vgg
        was_training = snn.training
        installed = snn.enable_sparse_dispatch()
        try:
            snn.eval()
            with no_grad():
                snn(images)
            before = [copy.copy(st) for st in installed.layer_stats()]
            snn.train()
            map_network(snn, images)
            assert snn.sparse_dispatch is installed
            assert installed.layer_stats() == before
            assert snn.training
        finally:
            snn.disable_sparse_dispatch()
            snn.train(was_training)
