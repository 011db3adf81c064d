"""Fig. 1: activation functions, pre-activation distributions, h(T, mu).

Regenerates the three panels of Fig. 1(a) and the scaled staircase of
Fig. 1(b) for a chosen layer of the trained VGG-16:

- the DNN threshold-ReLU curve vs the SNN staircase (Eq. 5), the
  bias-shifted staircase of Deng et al., and the proposed
  ``alpha``/``beta``-scaled staircase;
- histograms of the DNN and SNN (T-step average) pre-activation values,
  exhibiting the skew (mass concentrated near zero) that breaks the
  uniform-distribution assumption;
- ``K(mu)`` and ``h(T, mu)`` for T = 1..5 — the paper's insert showing
  ``h`` collapsing below ``K ~ 1/2`` at ultra-low latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..conversion import h_t_mu, k_mu, snn_staircase
from ..nn import ActivationRecorder, ThresholdReLU, tap
from ..snn import SpikingNeuron
from ..tensor import Tensor, no_grad
from .config import ExperimentConfig, get_scale
from .context import get_context
from .pipeline import convert_only


def _collect_dnn_samples(
    context, layer_index: int, max_batches: int
) -> np.ndarray:
    """Raw pre-activation samples of one ThresholdReLU layer."""
    layers = [
        m for m in context.model.modules() if isinstance(m, ThresholdReLU)
    ]
    recorder = ActivationRecorder(max_samples=500_000)

    def record(_layer, x, _out):
        recorder.record(x.data)

    was_training = context.model.training
    context.model.eval()
    try:
        with tap(layers[layer_index], record), no_grad():
            for index, (images, _labels) in enumerate(context.calibration_loader()):
                if index >= max_batches:
                    break
                context.model(Tensor(images))
    finally:
        context.model.train(was_training)
    return recorder.values()


def _collect_snn_average_currents(
    snn, layer_index: int, loader, max_batches: int
) -> np.ndarray:
    """Time-averaged input currents of one spiking layer.

    These are the empirical samples of the SNN pre-activation
    distribution ``f_S`` used by ``h(T, mu)``.
    """
    neurons: List[SpikingNeuron] = snn.spiking_neurons()
    collected: List[np.ndarray] = []
    window: List[np.ndarray] = []

    def record(_neuron, current, _spikes):
        window.append(current.data.copy())

    was_training = snn.training
    snn.eval()
    try:
        with tap(neurons[layer_index], record), no_grad():
            for index, (images, _labels) in enumerate(loader):
                if index >= max_batches:
                    break
                window.clear()
                snn(images)
                if window:
                    collected.append(np.mean(window, axis=0).reshape(-1))
    finally:
        snn.train(was_training)
    if not collected:
        raise RuntimeError("no SNN currents were recorded")
    return np.concatenate(collected)


def run_fig1(
    scale_name: str = "bench",
    dataset: str = "cifar10",
    layer_index: int = 1,
    timesteps: int = 2,
    grid_points: int = 400,
    seed: int = 0,
    max_batches: int = 4,
) -> Dict:
    """Compute every series of Fig. 1 for one layer of VGG-16."""
    scale = get_scale(scale_name)
    config = ExperimentConfig(
        arch="vgg16", dataset=dataset, timesteps=timesteps, scale=scale, seed=seed
    )
    context = get_context(config)
    conversion = convert_only(config, strategy="proposed", context=context)
    stats = conversion.stats[layer_index]
    spec = conversion.specs[layer_index]
    mu, d_max = stats.mu, stats.d_max

    dnn_samples = _collect_dnn_samples(context, layer_index, max_batches)
    snn_samples = _collect_snn_average_currents(
        conversion.snn, layer_index, context.calibration_loader(), max_batches
    )

    # Activation curves over a pre-activation grid.
    grid = np.linspace(0.0, min(d_max, 2.0 * mu), grid_points)
    curves = {
        "dnn_threshold_relu": np.clip(grid, 0.0, mu),
        "snn_staircase": snn_staircase(grid, timesteps, mu),
        "snn_staircase_bias": snn_staircase(
            grid, timesteps, mu, bias_shift=mu / (2.0 * timesteps)
        ),
        "snn_staircase_scaled": snn_staircase(
            grid, timesteps, spec.v_threshold, beta=spec.beta
        ),
    }

    # Histograms (shared bins on [min, mu]).
    bins = np.linspace(
        min(dnn_samples.min(), snn_samples.min()), mu, 80
    )
    dnn_hist, _ = np.histogram(dnn_samples, bins=bins, density=True)
    snn_hist, _ = np.histogram(snn_samples, bins=bins, density=True)

    # K(mu) and the h(T, mu) insert for T = 1..5.
    k_value = k_mu(dnn_samples, mu)
    h_values = {t: h_t_mu(snn_samples, t, mu) for t in range(1, 6)}
    h_uniform = {
        t: h_t_mu(np.linspace(0.0, mu, 20_001), t, mu) for t in range(1, 6)
    }

    return {
        "layer_index": layer_index,
        "timesteps": timesteps,
        "mu": mu,
        "d_max": d_max,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "v_threshold": spec.v_threshold,
        "grid": grid,
        "curves": curves,
        "histogram_bins": bins,
        "dnn_histogram": dnn_hist,
        "snn_histogram": snn_hist,
        "k_mu": k_value,
        "h_t_mu": h_values,
        "h_t_mu_uniform": h_uniform,
        "dnn_mass_below_third_of_dmax": float(
            (dnn_samples <= d_max / 3.0).mean()
        ),
    }


def render_fig1(result: Dict) -> str:
    """Human-readable summary of the Fig. 1 quantities."""
    lines = [
        "Fig. 1 — activation functions & distributions "
        f"(layer {result['layer_index']}, T={result['timesteps']})",
        f"  mu = {result['mu']:.4f}, d_max = {result['d_max']:.4f} "
        f"(mass below d_max/3: {result['dnn_mass_below_third_of_dmax']*100:.1f}%)",
        f"  alpha = {result['alpha']:.4f}, beta = {result['beta']:.4f}, "
        f"V^th = {result['v_threshold']:.4f}",
        f"  K(mu) = {result['k_mu']:.4f}",
        "  h(T, mu):  " + "  ".join(
            f"T={t}: {h:.4f}" for t, h in sorted(result["h_t_mu"].items())
        ),
        "  h uniform: " + "  ".join(
            f"T={t}: {h:.4f}" for t, h in sorted(result["h_t_mu_uniform"].items())
        ),
    ]
    return "\n".join(lines)
