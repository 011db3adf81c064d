"""Exact event accounting: the counter's fan-out map and counts.

:func:`repro.snn.count_accumulates` is the repository's one exact
accumulate counter; these tests pin its fan-out map and its per-layer
counts on a converted VGG against the brute-force oracle of
``snn_oracle``, and bound the rate-based FLOP estimator by them.

    PYTHONPATH=src python -m tests.test_event_driven

prints the estimator's per-layer estimate/exact ratios on the net
``test_rate_estimator_agrees_with_exact_counts`` checks.
"""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.energy import measure_spiking_activity, snn_layer_flops
from repro.nn import Conv2d
from repro.snn import count_accumulates
from repro.snn.analysis import conv_fanout_map
from repro.tensor import no_grad

from .snn_oracle import (
    FORCE_DENSE,
    FORCE_SPARSE,
    brute_force_fanout,
    counted_forward,
    weight_layers,
)


@pytest.fixture(scope="module")
def converted():
    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 5, 16), 8)
    conversion = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3))
    images = rng.random((4, 3, 8, 8))
    return conversion.snn, images


def estimator_vs_exact():
    """``(name, estimate, exact)`` accumulates per image for every weight
    layer of a converted 16x16 VGG-11 at T=3.

    One activity pass runs under both counters: its spike rates feed
    the ``snn_layer_flops`` estimate, its tap the exact count.
    """
    rng = np.random.default_rng(5)
    model = vgg11(
        num_classes=5, image_size=16, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((8, 3, 16, 16)), rng.integers(0, 5, 8), 8)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3)).snn
    images = rng.random((4, 3, 16, 16))
    labels = np.zeros(4, dtype=np.int64)
    with count_accumulates(snn) as counts:
        report = measure_spiking_activity(
            snn, DataLoader(images, labels, batch_size=4)
        )
    records = snn_layer_flops(
        snn, images.shape[1:], report.rates_by_neuron_id(snn)
    )
    exact = counts.per_inference(counts.accumulates)
    return [(rec.name, rec.snn_ops, count) for rec, count in zip(records, exact)]


def fanout_of(in_shape, layer):
    """The counter's fan-out map, checked against the oracle's."""
    fanout = conv_fanout_map(in_shape, layer)
    np.testing.assert_array_equal(fanout, brute_force_fanout(layer, in_shape))
    return fanout


class TestFanoutMap:
    def test_interior_fanout(self):
        layer = Conv2d(2, 4, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        fanout = fanout_of((2, 6, 6), layer)
        # Interior positions are covered by all 9 kernel placements.
        assert fanout[0, 3, 3] == 9 * 4
        # Corners only by 4 placements.
        assert fanout[0, 0, 0] == 4 * 4

    def test_no_padding(self):
        layer = Conv2d(1, 1, 3, stride=1, padding=0, rng=np.random.default_rng(0))
        fanout = fanout_of((1, 5, 5), layer)
        assert fanout[0, 2, 2] == 9
        assert fanout[0, 0, 0] == 1

    def test_total_equals_dense_macs_without_padding(self):
        # With no padding every kernel tap lands on a real input, so the
        # fan-out total equals the dense MAC count exactly.
        layer = Conv2d(3, 8, 3, stride=1, padding=0, rng=np.random.default_rng(0))
        fanout = fanout_of((3, 6, 6), layer)
        dense_macs = 4 * 4 * 8 * 3 * 3 * 3  # out_hw * out_c * in_c * k * k
        assert fanout.sum() == dense_macs

    def test_padding_taps_excluded(self):
        # With padding, dense MACs include multiplications against the
        # zero pad; the event fan-out counts only real-input taps and is
        # therefore strictly smaller.
        layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=np.random.default_rng(0))
        fanout = fanout_of((3, 6, 6), layer)
        dense_macs = 6 * 6 * 8 * 3 * 3 * 3
        assert 0 < fanout.sum() < dense_macs

    def test_strided(self):
        layer = Conv2d(1, 2, 3, stride=2, padding=0, rng=np.random.default_rng(0))
        fanout = fanout_of((1, 9, 9), layer)
        out_hw = 4 * 4
        assert fanout.sum() == out_hw * 2 * 1 * 3 * 3


class TestDispatcherCounts:
    def test_outputs_match_dense_simulator(self, converted):
        snn, images = converted
        # Default crossovers: quiet layers may route to the gathers.
        logits, _measured, _expected = counted_forward(snn, images, routing=None)
        with no_grad():
            reference = snn(images)
        np.testing.assert_allclose(logits, reference.data, atol=1e-10)

    def test_sparse_mode_matches_too(self, converted):
        snn, images = converted
        dense_logits, dense_counts, _ = counted_forward(snn, images, FORCE_DENSE)
        logits, counts, _ = counted_forward(snn, images, FORCE_SPARSE)
        np.testing.assert_allclose(logits, dense_logits, atol=1e-8)
        assert counts == dense_counts

    def test_counts_structure(self, converted):
        snn, images = converted
        _logits, measured, expected = counted_forward(snn, images)
        assert measured == expected
        assert len(measured) == len(weight_layers(snn))
        assert sum(accumulates for _, accumulates in measured) > 0

    def test_first_layer_counts_scale_with_t_and_batch(self, converted):
        snn, images = converted
        _logits, measured, _expected = counted_forward(snn, images)
        first_conv = weight_layers(snn)[0]
        fanout = brute_force_fanout(first_conv, images.shape[1:])
        # Per image: every input element at each of the T steps.
        assert measured[0] == (
            fanout.size * snn.timesteps, fanout.sum() * snn.timesteps
        )

    def test_rate_estimator_agrees_with_exact_counts(self):
        """The Fig. 4(b) estimator must track event-driven ground truth.

        The estimator assumes uniform fan-out (dense MACs x average
        rate) and prices a layer behind a max pool at the pre-pool
        rate; the exact count excludes padding taps and counts the
        pooled spikes at their positions.  Per layer the two part ways
        (on the 1x1 maps of the last stage only the centre tap is
        real), but the totals must agree within a factor well below
        the order-of-magnitude claims of Fig. 4.
        """
        layers = estimator_vs_exact()
        estimated_total = sum(estimate for _, estimate, _ in layers)
        exact_total = sum(exact for _, _, exact in layers)
        assert 0.5 < estimated_total / exact_total < 2.0

    def test_silent_network_counts_only_first_layer(self, converted):
        snn, images = converted
        _logits, measured, expected = counted_forward(snn, np.zeros_like(images))
        assert measured == expected
        assert measured[0][1] > 0
        assert all(accumulates == 0 for _, accumulates in measured[1:])


if __name__ == "__main__":
    layers = estimator_vs_exact()
    for name, estimate, exact in layers:
        print(f"{name:8s} estimate/exact = {estimate / exact:.3f}")
    total = sum(e for _, e, _ in layers) / sum(x for _, _, x in layers)
    print(f"{'total':8s} estimate/exact = {total:.3f}")
