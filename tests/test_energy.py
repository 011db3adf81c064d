"""Energy accounting tests: FLOPs, spikes, CMOS & neuromorphic models."""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.energy import (
    E_AC_45NM,
    E_MAC_45NM,
    EnergyModel,
    LayerFlops,
    dnn_total_flops,
    measure_spiking_activity,
    neuromorphic_energy,
    snn_layer_flops,
    snn_total_flops,
    trace_weight_layers,
)
from repro.models import resnet20, vgg11
from repro.nn import Conv2d, Linear, ReLU, Sequential, Flatten


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(0)
    return Sequential(
        Conv2d(1, 2, 3, padding=1, bias=False, rng=rng),
        ReLU(),
        Flatten(),
        Linear(2 * 4 * 4, 3, bias=False, rng=rng),
    )


class TestDNNFlops:
    def test_conv_macs_hand_computed(self, tiny_model):
        records = trace_weight_layers(tiny_model, (1, 4, 4))
        # conv: 4*4 spatial x 2 out x 1 in x 3 x 3 = 288
        assert records[0].macs == 288
        # linear: 32 x 3 = 96
        assert records[1].macs == 96

    def test_total(self, tiny_model):
        assert dnn_total_flops(tiny_model, (1, 4, 4)) == 288 + 96

    def test_vgg_flops_positive_and_ordered(self):
        model = vgg11(image_size=16, width_multiplier=0.125, rng=np.random.default_rng(0))
        records = trace_weight_layers(model, (3, 16, 16))
        assert all(r.macs > 0 for r in records)
        assert len(records) == 8 + 2  # convs + classifier linears

    def test_stride_reduces_macs(self):
        rng = np.random.default_rng(0)
        dense = Sequential(Conv2d(1, 1, 3, stride=1, padding=1, rng=rng))
        strided = Sequential(Conv2d(1, 1, 3, stride=2, padding=1, rng=rng))
        a = trace_weight_layers(dense, (1, 8, 8))[0].macs
        b = trace_weight_layers(strided, (1, 8, 8))[0].macs
        assert b == a / 4

    def test_no_weight_layers_rejected(self):
        with pytest.raises(ValueError):
            trace_weight_layers(Sequential(ReLU()), (1, 4, 4))


@pytest.fixture(scope="module")
def converted(tiny_loader_and_vgg):
    model, loader = tiny_loader_and_vgg
    return convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3)), loader


@pytest.fixture(scope="module")
def tiny_loader_and_vgg():
    rng = np.random.default_rng(1)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(0),
    )
    images = rng.random((16, 3, 8, 8))
    labels = rng.integers(0, 5, size=16)
    return model, DataLoader(images, labels, batch_size=8)


class TestSpikeMeasurement:
    def test_report_structure(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader)
        assert len(report.layers) == len(conversion.snn.spiking_neurons())
        assert report.timesteps == 3
        assert report.images == 16

    def test_rates_bounded_by_timesteps(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader)
        for layer in report.layers:
            assert 0.0 <= layer.spikes_per_neuron <= report.timesteps + 1e-9

    def test_rates_by_neuron_id(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader)
        rates = report.rates_by_neuron_id(conversion.snn)
        assert len(rates) == len(report.layers)

    def test_max_batches(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader, max_batches=1)
        assert report.images == 8

    def test_recording_disabled_after(self, converted):
        conversion, loader = converted
        measure_spiking_activity(conversion.snn, loader)
        assert all(not n._taps for n in conversion.snn.spiking_neurons())

    def test_empty_batches_rejected(self, converted):
        conversion, _ = converted
        with pytest.raises(ValueError):
            measure_spiking_activity(conversion.snn, [])


class TestSNNFlops:
    def test_first_layer_is_mac_scaled_by_t(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader)
        records = snn_layer_flops(
            conversion.snn, (3, 8, 8), report.rates_by_neuron_id(conversion.snn)
        )
        assert records[0].is_mac
        assert records[0].snn_ops == records[0].macs * 3  # T = 3

    def test_hidden_layers_scaled_by_input_rate(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader)
        rates = report.rates_by_neuron_id(conversion.snn)
        records = snn_layer_flops(conversion.snn, (3, 8, 8), rates)
        neurons = conversion.snn.spiking_neurons()
        # second weight layer consumes the first neuron layer's rate
        expected = records[1].macs * rates[id(neurons[0])]
        assert records[1].snn_ops == pytest.approx(expected)
        assert not records[1].is_mac

    def test_resnet_flops_accounting(self):
        rng = np.random.default_rng(2)
        model = resnet20(num_classes=5, width_multiplier=0.125, rng=np.random.default_rng(0))
        loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
        conversion = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2))
        report = measure_spiking_activity(conversion.snn, loader)
        records = snn_layer_flops(
            conversion.snn, (3, 8, 8), report.rates_by_neuron_id(conversion.snn)
        )
        dense = trace_weight_layers(model, (3, 8, 8))
        assert len(records) == len(dense)
        assert snn_total_flops(records) >= 0

    def test_zero_rates_give_zero_hidden_ops(self, converted):
        conversion, _ = converted
        zero_rates = {id(n): 0.0 for n in conversion.snn.spiking_neurons()}
        records = snn_layer_flops(conversion.snn, (3, 8, 8), zero_rates)
        assert all(r.snn_ops == 0 for r in records[1:])
        assert records[0].snn_ops > 0  # direct-encoded first layer


class TestEnergyModel:
    def test_constants(self):
        assert E_MAC_45NM == pytest.approx(3.2e-12)
        assert E_AC_45NM == pytest.approx(0.1e-12)

    def test_dnn_energy(self):
        records = [LayerFlops("a", "conv", macs=100.0), LayerFlops("b", "linear", macs=50.0)]
        model = EnergyModel()
        assert model.dnn_energy(records) == pytest.approx(150.0 * 3.2e-12)

    def test_snn_energy_prices_mac_and_ac(self):
        records = [
            LayerFlops("a", "conv", macs=100.0, snn_ops=200.0, is_mac=True),
            LayerFlops("b", "conv", macs=100.0, snn_ops=30.0, is_mac=False),
        ]
        model = EnergyModel()
        expected = 200.0 * 3.2e-12 + 30.0 * 0.1e-12
        assert model.snn_energy(records) == pytest.approx(expected)

    def test_improvement_ratio(self):
        records = [LayerFlops("a", "conv", macs=320.0, snn_ops=10.0, is_mac=False)]
        model = EnergyModel()
        assert model.improvement(records) == pytest.approx(320 * 3.2 / (10 * 0.1))

    def test_improvement_zero_snn_rejected(self):
        records = [LayerFlops("a", "conv", macs=1.0, snn_ops=0.0)]
        with pytest.raises(ZeroDivisionError):
            EnergyModel().improvement(records)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(e_mac=0.0)

    def test_sparser_snn_uses_less_energy(self, converted):
        conversion, loader = converted
        report = measure_spiking_activity(conversion.snn, loader)
        rates = report.rates_by_neuron_id(conversion.snn)
        half_rates = {k: v / 2 for k, v in rates.items()}
        full = EnergyModel().snn_energy(
            snn_layer_flops(conversion.snn, (3, 8, 8), rates)
        )
        half = EnergyModel().snn_energy(
            snn_layer_flops(conversion.snn, (3, 8, 8), half_rates)
        )
        assert half < full


class TestNeuromorphic:
    def test_truenorth_vs_spinnaker(self):
        tn = neuromorphic_energy(1000.0, 2, "truenorth")
        sp = neuromorphic_energy(1000.0, 2, "spinnaker")
        assert tn == pytest.approx(1000 * 0.4 + 2 * 0.6)
        assert sp == pytest.approx(1000 * 0.64 + 2 * 0.36)

    def test_compute_bound_for_large_flops(self):
        # FLOPs >> T: energy dominated by compute (paper Section VI-B).
        energy = neuromorphic_energy(1e9, 16, "truenorth")
        assert energy == pytest.approx(1e9 * 0.4, rel=1e-6)

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            neuromorphic_energy(1.0, 1, "loihi")

    def test_validation(self):
        with pytest.raises(ValueError):
            neuromorphic_energy(-1.0, 1)
        with pytest.raises(ValueError):
            neuromorphic_energy(1.0, 0)
