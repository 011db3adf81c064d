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

``ComputeLoss`` is affine in ``beta``.  ``find_scaling_factors`` uses
that only as a filter: a vectorised pass bounds each ``alpha`` row with
a margin ``E`` that covers the rounding of both the affine form and
``ComputeLoss``, and only the rows that may hold the minimum are
evaluated exactly, so the result is bitwise the pseudocode's loop.

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
    the search can only improve on the unscaled conversion.

    The search runs in two passes.  :func:`_rows_that_may_hold_minimum`
    bounds every ``alpha`` row at once through the affine form of the
    loss and rules out each row whose every ``|loss|`` is provably above
    some pair's.  The rows it keeps (typically one of ~60) are then
    evaluated by :func:`_losses_over_betas`, whose entries are bitwise
    the scalar ``compute_loss`` values.  A dropped row cannot hold any
    minimum, so the first minimum in the kept rows' alpha-major,
    beta-minor order is the pseudocode's: the minimiser, its loss (ties
    and the ``alpha_candidates`` order included) and ``evaluations``,
    which counts the pseudocode's pairs, are those of its loop.
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
        rows = np.flatnonzero(
            _rows_that_may_hold_minimum(
                positive, mu, alpha_candidates, betas, timesteps
            )
        )
        losses = np.stack(
            [
                _losses_over_betas(
                    positive, mu, alpha_candidates[row], betas, timesteps
                )
                for row in rows
            ]
        )
        # argmin takes the first minimum in alpha-major, beta-minor order:
        # the pseudocode's scan with a strict "<".
        i, j = np.unravel_index(np.argmin(np.abs(losses)), losses.shape)
        if abs(losses[i, j]) < abs(best_loss):
            best_alpha, best_beta = float(alpha_candidates[rows[i]]), float(betas[j])
            best_loss = float(losses[i, j])
    # A zero beta would silence the layer entirely; the pseudocode's grid
    # includes it but a dead layer is never the minimiser in practice.
    if best_beta == 0.0:
        best_beta = beta_step
    return ScalingFactors(
        alpha=best_alpha, beta=best_beta, loss=best_loss, evaluations=evaluations
    )


def _rows_that_may_hold_minimum(
    p: np.ndarray,
    mu: float,
    alphas: np.ndarray,
    betas: np.ndarray,
    timesteps: int,
) -> np.ndarray:
    """Mask of the ``alphas`` rows whose ``|compute_loss|`` over ``betas``
    may reach the minimum over the whole grid, for the positive
    percentiles ``p``.

    ``ComputeLoss`` is affine in ``beta``: in exact arithmetic it is
    ``A - beta B`` with ``A = sum(p[p <= mu]) + n3 mu`` and
    ``B = step sum(levels) + alpha_mu n2 + n3 mu alpha``, where ``n2``
    and ``n3`` count Seg-II and Seg-III.  The Seg-I ``levels``,
    ``alpha_mu`` and ``step`` come from ``_losses_over_betas``' own
    elementwise operations, so both forms round the same real number.
    The term magnitudes sum to at most ``M = A + beta B``, and each float
    operation rounds with relative error ``eps / 2``, plus an absolute
    ``tiny / 2`` (``tiny`` the smallest subnormal) when a product
    underflows.  With ``n = len(p)``, computed ``ComputeLoss`` is within
    ``(n + 4) eps M / 2 + (2n + 3) tiny / 2`` of that real number (at
    most ``2n + 3`` products) and the rounded ``A - beta B`` within
    ``(n + 6) eps M / 2 + 5 tiny / 2``, a gap of at most
    ``(n + 5) eps M + (n + 4) tiny``.  The bound
    ``E = 4 (n + 4) (eps M + tiny)`` is over three times that, which
    also covers the rounding of ``M``, ``E`` and the comparisons.

    A row is dropped only if every ``|A - beta B| - E`` in it exceeds
    ``min(|A - beta B| + E)`` over the grid: its ``|compute_loss|``
    values are then all strictly above that of the pair attaining the
    minimum.  Rows with a NaN bound compare false and are kept.
    """
    alpha_mu = alphas * mu
    step = alpha_mu / timesteps
    seg1 = p[None, :] <= alpha_mu[:, None]
    # Outside Seg-I the quotient stays 0, so its level clamps to 0.
    quotient = np.divide(
        p[None, :], step[:, None], out=np.zeros(seg1.shape), where=seg1
    )
    levels = np.maximum(np.floor(quotient - 1e-12), 0.0)
    levels = np.minimum(levels, timesteps)
    n3 = int((p > mu).sum())
    n2 = (p <= mu).sum() - seg1.sum(axis=1)
    a = p[p <= mu].sum() + n3 * mu
    b = step * levels.sum(axis=1) + alpha_mu * n2 + n3 * mu * alphas

    # Only three alpha x beta blocks are live at a time.
    slope = np.multiply.outer(b, betas)
    bound = a + slope
    bound *= 4 * (p.size + 4) * np.finfo(np.float64).eps
    bound += 4 * (p.size + 4) * np.finfo(np.float64).smallest_subnormal
    magnitude = np.abs(np.subtract(a, slope, out=slope), out=slope)
    ceiling = (magnitude + bound).min()
    lowest = np.subtract(magnitude, bound, out=magnitude).min(axis=1)
    return ~(lowest > ceiling)


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
    ``alpha x beta x percentile`` cube; ``find_scaling_factors`` calls
    it only for the rows :func:`_rows_that_may_hold_minimum` keeps.
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
