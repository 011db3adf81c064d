"""Per-layer conversion-error diagnostics (Section III-A applied).

For every layer of a converted network this module reports, side by
side:

- the distribution facts Eq. 7 depends on: ``K(mu)`` and ``h(T, mu)``
  (skew indicators; ``K = h = 1/2`` would mean zero expected error);
- the *predicted* expected DNN-SNN output gap ``Delta_{alpha beta}``
  from the analytical model, under the layer's chosen scaling; and
- the *measured* gap: mean DNN post-activation minus mean time-averaged
  SNN output on real data.

This is the paper's error analysis turned into an engineering tool: it
pinpoints which layers a failed conversion is losing accuracy in, and
validates the Eq. 6-7 approximations against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..nn import Module, tap
from ..snn import SpikingNetwork
from ..tensor import Tensor, no_grad
from .activation_stats import activation_layers
from .converter import ConversionResult
from .theory import expected_difference_alpha_beta, h_t_mu, k_mu


def _dnn_layer_outputs(model: Module, images: np.ndarray) -> List[np.ndarray]:
    """Post-activation outputs of every activation layer, forward order."""
    outputs: List[np.ndarray] = []

    def record(_layer, _x, out):
        outputs.append(out.data.copy())

    was_training = model.training
    model.eval()
    try:
        with tap(activation_layers(model), record), no_grad():
            model(Tensor(images))
    finally:
        model.train(was_training)
    return outputs


def _snn_average_outputs(snn: SpikingNetwork, images: np.ndarray) -> List[np.ndarray]:
    """Time-averaged spiking outputs of every neuron layer."""
    neurons = snn.spiking_neurons()
    index = {id(neuron): i for i, neuron in enumerate(neurons)}
    sums: List[np.ndarray] = [None] * len(neurons)

    def accumulate(neuron, _current, out):
        i = index[id(neuron)]
        if sums[i] is None:
            sums[i] = out.data.copy()
        else:
            sums[i] += out.data

    was_training = snn.training
    snn.eval()
    try:
        with tap(neurons, accumulate), no_grad():
            snn(images)
    finally:
        snn.train(was_training)
    return [
        (total / snn.timesteps if total is not None else None) for total in sums
    ]


@dataclass
class LayerErrorReport:
    """Error diagnosis of one converted layer."""

    layer: int
    mu: float
    alpha: float
    beta: float
    k_mu: float
    h_t_mu: float
    predicted_gap: float
    measured_gap: float
    dnn_mean: float
    snn_mean: float

    @property
    def relative_gap(self) -> float:
        """Measured gap normalised by the DNN mean (0 = perfect)."""
        if self.dnn_mean == 0:
            return 0.0
        return self.measured_gap / self.dnn_mean

    def as_dict(self) -> dict:
        """JSON-ready record (used by the obs drift-monitor JSONL sink)."""
        return {
            "layer": self.layer,
            "mu": self.mu,
            "alpha": self.alpha,
            "beta": self.beta,
            "k_mu": self.k_mu,
            "h_t_mu": self.h_t_mu,
            "predicted_gap": self.predicted_gap,
            "measured_gap": self.measured_gap,
            "dnn_mean": self.dnn_mean,
            "snn_mean": self.snn_mean,
            "relative_gap": self.relative_gap,
        }


def worst_layer(reports: List[LayerErrorReport]) -> Optional[LayerErrorReport]:
    """The layer losing the most: largest absolute measured gap."""
    if not reports:
        return None
    return max(reports, key=lambda r: abs(r.measured_gap))


def diagnose_conversion(
    conversion: ConversionResult,
    model: Module,
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    max_batches: int = 1,
) -> List[LayerErrorReport]:
    """Per-layer predicted vs measured conversion error.

    Parameters
    ----------
    conversion:
        The result of :func:`convert_dnn_to_snn` (stats + specs + snn).
    model:
        The source DNN.
    batches:
        Evaluation batches (first ``max_batches`` are concatenated).
    """
    images = []
    for index, (batch, _labels) in enumerate(batches):
        if index >= max_batches:
            break
        images.append(np.asarray(batch))
    if not images:
        raise ValueError("no evaluation batches provided")
    images = np.concatenate(images, axis=0)

    dnn_outputs = _dnn_layer_outputs(model, images)
    snn_outputs = _snn_average_outputs(conversion.snn, images)
    if len(dnn_outputs) != len(snn_outputs):
        raise ValueError("layer count mismatch between DNN and SNN")

    timesteps = conversion.snn.timesteps
    reports: List[LayerErrorReport] = []
    for index, (stats, spec) in enumerate(zip(conversion.stats, conversion.specs)):
        samples = stats.percentiles  # quantile grid ~ distribution samples
        k_value = k_mu(samples, stats.mu)
        h_value = h_t_mu(samples, timesteps, stats.mu)
        predicted = expected_difference_alpha_beta(
            samples, samples, stats.mu, spec.alpha, spec.beta, timesteps
        )
        dnn_mean = float(dnn_outputs[index].mean())
        snn_out = snn_outputs[index]
        snn_mean = float(snn_out.mean()) if snn_out is not None else 0.0
        reports.append(
            LayerErrorReport(
                layer=index,
                mu=stats.mu,
                alpha=spec.alpha,
                beta=spec.beta,
                k_mu=k_value,
                h_t_mu=h_value,
                predicted_gap=float(predicted),
                measured_gap=dnn_mean - snn_mean,
                dnn_mean=dnn_mean,
                snn_mean=snn_mean,
            )
        )
    return reports


def render_diagnosis(reports: List[LayerErrorReport]) -> str:
    """Aligned text table of a conversion diagnosis."""
    from ..experiments.reporting import format_table

    rows = [
        [
            r.layer, r.mu, r.alpha, r.beta, r.k_mu, r.h_t_mu,
            r.predicted_gap, r.measured_gap, r.relative_gap,
        ]
        for r in reports
    ]
    return format_table(
        ["layer", "mu", "alpha", "beta", "K(mu)", "h(T,mu)",
         "pred gap", "meas gap", "rel gap"],
        rows,
        title="Per-layer conversion-error diagnosis",
    )
