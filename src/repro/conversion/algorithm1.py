"""Algorithm 1 of the paper: layer-wise scaling factors for the SNN
threshold (``alpha``) and post-activation amplitude (``beta``).

Given the empirical percentiles ``P`` of a layer's DNN pre-activations
and the trained threshold ``mu``, the algorithm evaluates the *signed*
sum of DNN-vs-SNN output differences over the percentile grid for a
candidate ``(alpha, beta)`` (``ComputeLoss``), and searches
``alpha in {P[j]/mu : P[j] <= mu}`` x ``beta in [0, 2] step 0.01``
for the pair with the smallest absolute loss (``FindScalingFactors``).

Using percentiles rather than a linear grid concentrates candidates
where the (sharply skewed) distribution actually has mass — the paper's
stated reason the approach beats linear threshold search.

The three loss segments match Fig. 1(b):

- Seg-I  (``0 <= p <= alpha mu``): the DNN output ``p`` sits on
  staircase step ``j`` whose SNN output is ``j alpha beta mu / T``;
- Seg-II (``alpha mu < p <= mu``): the SNN is saturated at
  ``alpha beta mu`` while the DNN still grows linearly;
- Seg-III (``p > mu``): both are saturated, at ``mu`` and
  ``alpha beta mu`` respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass
class ScalingFactors:
    """Result of the per-layer search.

    ``alpha`` scales the threshold (``V^th = alpha * mu``), ``beta`` the
    spike amplitude (output ``beta * V^th`` per spike); ``loss`` is the
    signed ComputeLoss value at the optimum; ``evaluations`` counts the
    candidate pairs examined.
    """

    alpha: float
    beta: float
    loss: float
    evaluations: int = 0


def compute_loss(
    percentiles: np.ndarray,
    mu: float,
    alpha: float,
    beta: float,
    timesteps: int,
) -> float:
    """``ComputeLoss`` of Algorithm 1: signed sum of per-percentile
    DNN-minus-SNN output differences under ``(alpha, beta)``.

    Vectorised equivalent of the paper's triple loop: for each
    percentile ``p`` the SNN output is the unshifted staircase with
    threshold ``alpha mu`` and amplitude scale ``beta``; the DNN output
    is ``clip(p, 0, mu)``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if beta < 0.0:
        raise ValueError("beta must be non-negative")
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")

    p = np.asarray(percentiles, dtype=np.float64)
    p = p[p > 0.0]  # negative pre-activations contribute 0 to both outputs
    if p.size == 0:
        return 0.0
    alpha_mu = alpha * mu
    step = alpha_mu / timesteps

    # Seg-I: 0 < p <= alpha mu  ->  SNN on staircase level
    # j = floor(p/step), evaluated just below exact edges to match the
    # strict firing condition of Eq. 3 (see theory.snn_staircase).
    seg1 = p <= alpha_mu
    levels = np.maximum(np.floor(p[seg1] / step - 1e-12), 0.0)
    levels = np.minimum(levels, timesteps)
    loss = float((p[seg1] - levels * beta * step).sum())

    # Seg-II: alpha mu < p <= mu  ->  SNN saturated at alpha beta mu
    seg2 = (p > alpha_mu) & (p <= mu)
    loss += float((p[seg2] - alpha_mu * beta).sum())

    # Seg-III: p > mu  ->  DNN saturated at mu, SNN at alpha beta mu
    seg3 = p > mu
    loss += float(seg3.sum() * mu * (1.0 - alpha * beta))
    return loss


def find_scaling_factors(
    percentiles: np.ndarray,
    mu: float,
    timesteps: int,
    beta_max: float = 2.0,
    beta_step: float = 0.01,
    alpha_candidates: Optional[Sequence[float]] = None,
) -> ScalingFactors:
    """``FindScalingFactors`` of Algorithm 1.

    Parameters
    ----------
    percentiles:
        The layer's pre-activation percentile grid ``P`` (typically 101
        values from :mod:`repro.conversion.activation_stats`).
    mu:
        The layer's trained clipping threshold.
    timesteps:
        Target SNN latency ``T``.
    beta_max, beta_step:
        The ``beta`` grid ``[0, beta_max]`` with the paper's 0.01 step.
    alpha_candidates:
        Override the ``alpha`` grid (defaults to ``P[j]/mu`` for every
        positive percentile not exceeding ``mu`` — the paper's choice).

    Returns the pair minimising ``|ComputeLoss|``, initialised at the
    identity ``(alpha, beta) = (1, 1)`` exactly as in the pseudocode, so
    the search can only improve on the unscaled conversion.  The loss of
    every ``beta`` at one ``alpha`` is one NumPy expression whose entries
    are bitwise the scalar ``compute_loss`` values, so the minimiser, its
    loss and ``evaluations`` are those of the pseudocode's loop.
    """
    p = np.asarray(percentiles, dtype=np.float64)
    if alpha_candidates is None:
        valid = p[(p > 0.0) & (p <= mu)]
        alpha_candidates = np.unique(valid / mu)
        # Guard against subnormal percentiles underflowing to alpha = 0.
        alpha_candidates = alpha_candidates[alpha_candidates > 0.0]
    else:
        alpha_candidates = np.asarray(list(alpha_candidates), dtype=np.float64)
        if np.any((alpha_candidates <= 0) | (alpha_candidates > 1)):
            raise ValueError("alpha candidates must lie in (0, 1]")
    if beta_step <= 0.0:
        raise ValueError("beta_step must be positive")

    best_alpha, best_beta = 1.0, 1.0
    best_loss = compute_loss(p, mu, best_alpha, best_beta, timesteps)
    betas = np.arange(0.0, beta_max + 0.5 * beta_step, beta_step)
    evaluations = 1 + alpha_candidates.size * betas.size
    if evaluations > 1:
        positive = p[p > 0.0]  # negative pre-activations contribute 0 to both outputs
        losses = np.stack(
            [
                _losses_over_betas(positive, mu, alpha, betas, timesteps)
                for alpha in alpha_candidates
            ]
        )
        # argmin takes the first minimum in alpha-major, beta-minor order:
        # the pseudocode's scan with a strict "<".
        i, j = np.unravel_index(np.argmin(np.abs(losses)), losses.shape)
        if abs(losses[i, j]) < abs(best_loss):
            best_alpha, best_beta = float(alpha_candidates[i]), float(betas[j])
            best_loss = float(losses[i, j])
    # A zero beta would silence the layer entirely; the pseudocode's grid
    # includes it but a dead layer is never the minimiser in practice.
    if best_beta == 0.0:
        best_beta = beta_step
    return ScalingFactors(
        alpha=best_alpha, beta=best_beta, loss=best_loss, evaluations=evaluations
    )


def _losses_over_betas(
    p: np.ndarray,
    mu: float,
    alpha: float,
    betas: np.ndarray,
    timesteps: int,
) -> np.ndarray:
    """``compute_loss`` at one ``alpha`` for every ``beta`` in ``betas``,
    over the positive percentiles ``p``.

    Performs ``compute_loss``'s per-element operations in the same order,
    one row per ``beta``, so each entry is bitwise the scalar result.
    Only a ``len(betas) x len(p)`` block is live at a time, never the
    ``alpha x beta x percentile`` cube.
    """
    alpha_mu = alpha * mu
    step = alpha_mu / timesteps

    seg1 = p <= alpha_mu
    levels = np.maximum(np.floor(p[seg1] / step - 1e-12), 0.0)
    levels = np.minimum(levels, timesteps)
    loss = (p[seg1][None, :] - levels[None, :] * betas[:, None] * step).sum(axis=1)

    seg2 = (p > alpha_mu) & (p <= mu)
    loss += (p[seg2][None, :] - alpha_mu * betas[:, None]).sum(axis=1)

    seg3 = p > mu
    loss += seg3.sum() * mu * (1.0 - alpha * betas)
    return loss
