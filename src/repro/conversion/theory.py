"""Analytical conversion-error model (paper Section III-A, Eqs. 5-7).

This module implements, over *empirical samples* of the pre-activation
distributions, every quantity in the paper's analysis of why DNN-to-SNN
conversion fails at ultra-low latency:

- :func:`snn_staircase` — the T-step IF average-activation (Eq. 5), the
  piecewise staircase of Fig. 1(a), with optional bias shift and the
  proposed ``alpha``/``beta`` scaling of Fig. 1(b);
- :func:`k_mu` — ``K(mu)``, the normalised first moment of the DNN
  pre-activation distribution on ``[0, mu]``;
- :func:`g_i` — the staircase bin masses ``g_i(T, mu)``;
- :func:`h_t_mu` — ``h(T, mu)`` (with the Deng bias shift) and
  :func:`h_prime_t_mu` (without, as used after Eq. 8);
- :func:`expected_difference` — ``Delta ~= mu (K - h)`` (Eq. 7) and
  :func:`expected_difference_alpha_beta` — ``Delta_{alpha beta}``.

The paper's headline observation — for *uniform* distributions
``K = h = 1/2`` so the error vanishes, but for the *skewed* empirical
ones ``h`` collapses as ``T`` drops below ~5 — is directly checkable
(and is checked in the test suite and regenerated by the Fig. 1 bench).
"""

from __future__ import annotations

import numpy as np


def snn_staircase(
    d: np.ndarray,
    timesteps: int,
    v_threshold: float,
    beta: float = 1.0,
    bias_shift: float = 0.0,
) -> np.ndarray:
    """Average T-step IF output for constant per-step input ``d`` (Eq. 5).

        S_bar = (beta V^th / T) * clip(floor((d + shift) T / V^th), 0, T)

    ``bias_shift`` shifts the staircase left (Deng et al. use
    ``V^th / 2T``).  With ``beta = 1`` and ``bias_shift = 0`` this is
    Eq. 5, with one refinement: Eq. 3's firing condition is *strict*
    (``U > V^th``), so an input sitting exactly on a step edge does NOT
    fire.  The spike count is taken from the soft-reset IF recurrence
    itself (``T`` vectorised float64 steps) rather than from the floor:
    near a step edge the float input, not the real number it
    approximates, decides whether the last spike fires (``0.4`` at
    ``T = 5`` fires twice, ``0.2`` fires not at all), and no closed
    form tracks that rounding.  The result agrees exactly with simulated
    IF dynamics for constant inputs (property-tested in the suite).
    """
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")
    if v_threshold <= 0:
        raise ValueError("v_threshold must be positive")
    x = np.asarray(d, dtype=np.float64) + bias_shift
    membrane = np.zeros_like(x)
    steps = np.zeros_like(x)
    for _ in range(timesteps):
        membrane += x
        fired = membrane > v_threshold
        steps += fired
        membrane -= v_threshold * fired
    return (beta * v_threshold / timesteps) * steps


def dnn_threshold_relu(d: np.ndarray, mu: float) -> np.ndarray:
    """The DNN activation ``clip(d, 0, mu)`` (Eq. 1)."""
    return np.clip(np.asarray(d, dtype=np.float64), 0.0, mu)


def k_mu(d_samples: np.ndarray, mu: float) -> float:
    """``K(mu)``: E[d 1{0 <= d <= mu}] / (mu P(0 <= d <= mu)).

    The paper defines ``K`` by ``int_0^mu d f_D(d) dd = K(mu) mu`` with
    ``f_D`` the *pre-activation density conditioned on the clip range*
    (for the uniform density ``1/mu`` the integral is ``mu/2`` so
    ``K = 1/2``).  Estimated from samples by restricting to the band.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    d = np.asarray(d_samples, dtype=np.float64)
    in_band = (d >= 0.0) & (d <= mu)
    mass = in_band.mean()
    if mass == 0.0:
        return 0.0
    return float(d[in_band].mean() / mu)


def g_i(
    s_samples: np.ndarray, timesteps: int, mu: float, i: int, shifted: bool = True
) -> float:
    """Bin mass ``g_i(T, mu)`` of the SNN pre-activation distribution.

    With the bias shift (``shifted=True``, paper's ``g_i``) the i-th bin
    is ``[(i - 1/2) mu / T, (i + 1/2) mu / T)``; without it
    (``g_{i-1/2}``, used for ``h'``) the bin is ``[i mu/T, (i+1) mu/T)``.
    Masses are conditioned on the band ``[0, mu]`` to match ``K(mu)``.
    """
    if not 1 <= i <= timesteps - 1:
        raise ValueError(f"bin index {i} out of range for T={timesteps}")
    s = np.asarray(s_samples, dtype=np.float64)
    in_band = (s >= 0.0) & (s <= mu)
    total = in_band.sum()
    if total == 0:
        return 0.0
    width = mu / timesteps
    if shifted:
        low, high = (i - 0.5) * width, (i + 0.5) * width
    else:
        low, high = i * width, (i + 1.0) * width
    mass = ((s >= low) & (s < high) & in_band).sum()
    return float(mass / total)


def h_t_mu(s_samples: np.ndarray, timesteps: int, mu: float) -> float:
    """``h(T, mu)`` (Eq. 7, with the Deng bias shift):

        h = sum_{i=1}^{T-1} (i/T) g_i(T, mu) + P(T' <= s <= mu)

    with ``T' = (T - 1/2) mu / T``; probabilities conditioned on the
    band ``[0, mu]``.  Equals 1/2 for the uniform density.
    """
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")
    s = np.asarray(s_samples, dtype=np.float64)
    in_band = (s >= 0.0) & (s <= mu)
    total = in_band.sum()
    if total == 0:
        return 0.0
    acc = sum(
        (i / timesteps) * g_i(s, timesteps, mu, i, shifted=True)
        for i in range(1, timesteps)
    )
    t_prime = (timesteps - 0.5) * mu / timesteps
    tail = ((s >= t_prime) & in_band).sum() / total
    return float(acc + tail)


def h_prime_t_mu(s_samples: np.ndarray, timesteps: int, mu: float) -> float:
    """``h'(T, mu)``: the bias-free variant used after Eq. 8.

        h' = sum_{i=1}^{T-1} (i/T) * P(i mu/T <= s < (i+1) mu/T | band)

    i.e. the normalised expected unshifted-staircase output on the band
    ``[0, mu]``.  The top bin ``[(T-1) mu/T, mu)`` carries weight
    ``(T-1)/T``; the point mass at exactly ``s = mu`` is measure-zero
    and ignored.  For the uniform density ``h' = (T-1)/(2T)``.
    """
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")
    s = np.asarray(s_samples, dtype=np.float64)
    in_band = (s >= 0.0) & (s <= mu)
    if in_band.sum() == 0:
        return 0.0
    acc = sum(
        (i / timesteps) * g_i(s, timesteps, mu, i, shifted=False)
        for i in range(1, timesteps)
    )
    return float(acc)


def expected_difference(
    d_samples: np.ndarray, s_samples: np.ndarray, mu: float, timesteps: int
) -> float:
    """``Delta ~= mu (K(mu) - h(T, mu))`` (Eq. 7)."""
    return mu * (k_mu(d_samples, mu) - h_t_mu(s_samples, timesteps, mu))


def expected_difference_alpha_beta(
    d_samples: np.ndarray,
    s_samples: np.ndarray,
    mu: float,
    alpha: float,
    beta: float,
    timesteps: int,
) -> float:
    """``Delta_{alpha beta}`` — the signed expected DNN-SNN output gap
    under threshold scale ``alpha`` and output scale ``beta``:

        Delta_ab ~= alpha mu (K(alpha mu) - beta h'(T, alpha mu))
                    + int_{alpha mu}^{mu} d f_D(d) dd
                    - alpha beta mu P(alpha mu < s <= mu)

    Estimated from samples with expectations conditioned on ``[0, mu]``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    d = np.asarray(d_samples, dtype=np.float64)
    s = np.asarray(s_samples, dtype=np.float64)
    alpha_mu = alpha * mu

    head = alpha_mu * (
        k_mu(d, alpha_mu) - beta * h_prime_t_mu(s, timesteps, alpha_mu)
    )

    d_band = (d >= 0.0) & (d <= mu)
    total_d = d_band.sum()
    mid_d = (d > alpha_mu) & d_band
    mid_mean = d[mid_d].sum() / total_d if total_d else 0.0

    s_band = (s >= 0.0) & (s <= mu)
    total_s = s_band.sum()
    mid_s = ((s > alpha_mu) & s_band).sum() / total_s if total_s else 0.0

    return float(head + mid_mean - alpha * beta * mu * mid_s)


def empirical_output_gap(
    d_samples: np.ndarray,
    mu: float,
    timesteps: int,
    v_threshold: float,
    beta: float = 1.0,
    bias_shift: float = 0.0,
) -> float:
    """Direct Monte-Carlo estimate of E[d'] - E[s'].

    Evaluates the DNN clip and the SNN staircase on the *same* samples —
    the ground truth that the Eq. 7 algebra approximates. Used by tests
    and the Fig. 1 bench to validate the analytical pipeline.
    """
    d = np.asarray(d_samples, dtype=np.float64)
    dnn_out = dnn_threshold_relu(d, mu)
    snn_out = snn_staircase(d, timesteps, v_threshold, beta=beta, bias_shift=bias_shift)
    return float(dnn_out.mean() - snn_out.mean())
