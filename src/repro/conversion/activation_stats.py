"""Collection of per-layer pre-activation statistics from a trained DNN.

Algorithm 1 and the analytical error model both consume the empirical
distribution of each activation layer's inputs.  This module taps every
activation layer with an :class:`~repro.nn.activations.ActivationRecorder`,
drives calibration batches through the network, and
summarises each layer into a :class:`LayerActivationStats` (percentiles,
trained threshold ``mu``, observed maximum ``d_max``).

For plain-ReLU networks (the max-pre-activation conversion baseline of
Fig. 2) there is no trained ``mu``; ``mu`` is reported as ``d_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..nn import ActivationRecorder, Module, ReLU, ThresholdReLU, tap
from ..tensor import Tensor, no_grad


@dataclass
class LayerActivationStats:
    """Summary of one activation layer's pre-activation distribution.

    Attributes
    ----------
    percentiles:
        101 values: the 0th..100th percentile of the recorded samples.
    mu:
        The layer's trained clipping threshold (``d_max`` for ReLU).
    d_max:
        Maximum observed pre-activation (the outlier the paper warns
        about: >99% of mass typically lies below ``d_max / 3``).
    mean, count:
        Sample mean and number of recorded values.
    """

    percentiles: np.ndarray
    mu: float
    d_max: float
    mean: float
    count: int

    def percentile(self, q: float) -> float:
        """Interpolated percentile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        grid = np.arange(101.0)
        return float(np.interp(q, grid, self.percentiles))

    @property
    def positive_fraction_below(self) -> float:
        """Fraction of the [0, d_max] range below mu — a skew indicator."""
        if self.d_max <= 0:
            return 1.0
        return min(1.0, self.mu / self.d_max)


def activation_layers(model: Module) -> List[Module]:
    """All activation layers of ``model`` in forward (definition) order."""
    return [m for m in model.modules() if isinstance(m, (ThresholdReLU, ReLU))]


def collect_activation_stats(
    model: Module,
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    max_batches: Optional[int] = None,
    max_samples_per_layer: int = 200_000,
) -> List[LayerActivationStats]:
    """Run calibration batches and summarise every activation layer.

    Parameters
    ----------
    model:
        A trained DNN built from this library's layers.
    batches:
        Iterable of ``(images, labels)`` numpy batches (labels unused).
    max_batches:
        Stop after this many batches (None = exhaust the iterable).
    max_samples_per_layer:
        Per-layer sample bound to cap memory (a deterministic stride,
        see :class:`~repro.nn.ActivationRecorder`).

    Returns statistics in the same order as :func:`activation_layers`.
    ``mean`` and ``d_max`` are read from the samples in recording order;
    each layer's samples are then sorted once and the percentiles taken
    from the sorted copy, which gives exactly ``np.percentile`` of the
    recording-order samples (percentiles depend on order statistics
    only) at a fraction of its selection cost.
    """
    layers = activation_layers(model)
    if not layers:
        raise ValueError("model has no activation layers to calibrate")

    recorders = [
        ActivationRecorder(max_samples=max_samples_per_layer) for _ in layers
    ]
    by_layer = {id(layer): rec for layer, rec in zip(layers, recorders)}

    def record(layer, x, _out):
        by_layer[id(layer)].record(x.data)

    was_training = model.training
    model.eval()
    try:
        with tap(layers, record), no_grad():
            for index, (images, _labels) in enumerate(batches):
                if max_batches is not None and index >= max_batches:
                    break
                model(Tensor(np.asarray(images)))
    finally:
        model.train(was_training)

    stats: List[LayerActivationStats] = []
    for layer, recorder in zip(layers, recorders):
        values = recorder.values()
        if values.size == 0:
            raise RuntimeError("calibration produced no activation samples")
        # Pairwise summation, and which of tied +-0.0 max() returns,
        # depend on sample order: read both before sorting.
        mean = float(values.mean())
        d_max = float(values.max())
        # Percentiles are functions of the order statistics alone, and
        # np.percentile selects them far faster from sorted data.
        values.sort()
        percentiles = np.percentile(values, np.arange(101.0))
        if isinstance(layer, ThresholdReLU):
            mu = layer.threshold
        else:
            mu = d_max
        stats.append(
            LayerActivationStats(
                percentiles=percentiles,
                mu=mu,
                d_max=d_max,
                mean=mean,
                count=values.size,
            )
        )
        recorder.clear()
    return stats
