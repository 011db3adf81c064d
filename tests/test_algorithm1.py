"""Tests of Algorithm 1 (ComputeLoss / FindScalingFactors)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conversion import ScalingFactors, compute_loss, find_scaling_factors
from repro.conversion.algorithm1 import _losses_over_betas

MU = 2.0


def uniform_percentiles():
    return np.percentile(np.linspace(0.0, MU, 100_001), np.arange(101.0))


def skewed_percentiles(seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.exponential(scale=MU / 6.0, size=200_000)
    return np.percentile(samples, np.arange(101.0))


def paper_alpha_grid(p, mu):
    alphas = np.unique(p[(p > 0.0) & (p <= mu)] / mu)
    return alphas[alphas > 0.0]


def reference_search(
    percentiles, mu, timesteps, beta_max=2.0, beta_step=0.01, alpha_candidates=None
):
    """FindScalingFactors as the paper's pseudocode writes it: one scalar
    ComputeLoss per (alpha, beta) pair, scanned alpha-major, beta-minor,
    keeping a pair only on a strict improvement."""
    p = np.asarray(percentiles, dtype=np.float64)
    if alpha_candidates is None:
        alpha_candidates = paper_alpha_grid(p, mu)
    best_alpha, best_beta = 1.0, 1.0
    best_loss = compute_loss(p, mu, best_alpha, best_beta, timesteps)
    evaluations = 1
    for alpha in alpha_candidates:
        for beta in np.arange(0.0, beta_max + 0.5 * beta_step, beta_step):
            loss = compute_loss(p, mu, float(alpha), float(beta), timesteps)
            evaluations += 1
            if abs(loss) < abs(best_loss):
                best_alpha, best_beta, best_loss = float(alpha), float(beta), loss
    if best_beta == 0.0:
        best_beta = beta_step
    return ScalingFactors(best_alpha, best_beta, best_loss, evaluations)


def exhaustive_search(percentiles, mu, timesteps, beta_max=2.0, beta_step=0.01):
    """FindScalingFactors with every alpha row evaluated, no row filter:
    a row's losses are ``_losses_over_betas``, bitwise the scalar
    ``compute_loss`` values, scanned in the pseudocode's order."""
    p = np.asarray(percentiles, dtype=np.float64)
    alphas = paper_alpha_grid(p, mu)
    betas = np.arange(0.0, beta_max + 0.5 * beta_step, beta_step)
    best_alpha, best_beta = 1.0, 1.0
    best_loss = compute_loss(p, mu, best_alpha, best_beta, timesteps)
    for alpha in alphas:
        row = _losses_over_betas(p[p > 0.0], mu, alpha, betas, timesteps)
        j = int(np.argmin(np.abs(row)))  # the first minimum in beta order
        if abs(row[j]) < abs(best_loss):
            best_alpha, best_beta, best_loss = float(alpha), float(betas[j]), float(row[j])
    if best_beta == 0.0:
        best_beta = beta_step
    return ScalingFactors(best_alpha, best_beta, best_loss, 1 + alphas.size * betas.size)


def as_tuple(factors):
    return (factors.alpha, factors.beta, factors.loss, factors.evaluations)


@st.composite
def search_cases(draw):
    """Percentile sets with duplicates, zero and negative entries and
    values exactly on the staircase edges ``k alpha mu / T``, plus an
    optional ``alpha`` grid override and a coarse or fine ``beta`` grid."""
    timesteps = draw(st.integers(min_value=1, max_value=6))
    mu = draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))
    free = draw(
        st.lists(
            st.floats(min_value=-mu, max_value=2.5 * mu) | st.just(0.0),
            max_size=24,
        )
    )
    edge_alpha = draw(st.sampled_from([0.25, 0.5, 0.6, 1.0]))
    edges = [
        k * edge_alpha * mu / timesteps
        for k in draw(st.lists(st.integers(0, timesteps), max_size=6))
    ]
    values = free + edges
    duplicates = draw(st.integers(min_value=0, max_value=len(values)))
    percentiles = np.array(values + values[:duplicates], dtype=np.float64)
    alpha_candidates = draw(
        st.none()
        | st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6)
        | st.just([edge_alpha, edge_alpha / 2.0, edge_alpha])
    )
    beta_step = draw(st.sampled_from([0.01, 0.25, 0.5]))
    beta_max = draw(st.sampled_from([1.0, 2.0, 3.0]))
    return percentiles, mu, timesteps, dict(
        beta_max=beta_max, beta_step=beta_step, alpha_candidates=alpha_candidates
    )


class TestComputeLoss:
    def test_zero_when_percentiles_on_staircase(self):
        # Percentiles sitting just above SNN step edges give ~0 loss
        # (the firing condition is strict, so the edge itself belongs to
        # the lower step).
        t, alpha, beta = 4, 1.0, 1.0
        eps = 1e-9
        levels = np.array([MU / 4, MU / 2, 3 * MU / 4]) + eps
        loss = compute_loss(levels, MU, alpha, beta, t)
        assert loss == pytest.approx(0.0, abs=1e-8)

    def test_identity_scaling_loss_nonnegative(self):
        # With alpha=beta=1 the staircase floors every value: each term
        # p - staircase(p) >= 0.
        loss = compute_loss(skewed_percentiles(), MU, 1.0, 1.0, 2)
        assert loss >= 0.0

    def test_seg2_contribution(self):
        # One percentile between alpha*mu and mu: loss = p - alpha*beta*mu.
        p = np.array([1.5])
        loss = compute_loss(p, MU, 0.5, 1.0, 2)
        assert loss == pytest.approx(1.5 - 0.5 * MU)

    def test_seg3_contribution(self):
        # One percentile above mu: loss = mu (1 - alpha beta).
        p = np.array([3.0])
        loss = compute_loss(p, MU, 0.5, 1.0, 2)
        assert loss == pytest.approx(MU * (1 - 0.5))

    def test_negative_percentiles_ignored(self):
        assert compute_loss(np.array([-1.0, -0.5]), MU, 1.0, 1.0, 2) == 0.0

    def test_beta_reduces_loss_linearly(self):
        p = skewed_percentiles()
        l1 = compute_loss(p, MU, 0.5, 1.0, 2)
        l2 = compute_loss(p, MU, 0.5, 2.0, 2)
        l15 = compute_loss(p, MU, 0.5, 1.5, 2)
        # Loss is affine in beta.
        assert l15 == pytest.approx((l1 + l2) / 2.0, rel=1e-9)

    def test_validation(self):
        p = uniform_percentiles()
        with pytest.raises(ValueError):
            compute_loss(p, 0.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 1.2, 1.0, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 1.0, -0.1, 2)
        with pytest.raises(ValueError):
            compute_loss(p, MU, 1.0, 1.0, 0)


class TestFindScalingFactors:
    def test_never_worse_than_identity(self):
        p = skewed_percentiles()
        identity_loss = compute_loss(p, MU, 1.0, 1.0, 2)
        result = find_scaling_factors(p, MU, 2)
        assert abs(result.loss) <= abs(identity_loss)

    def test_skewed_low_t_prefers_downscaled_alpha(self):
        # The paper's core claim: for skewed distributions at T=2 the
        # optimum has alpha < 1 (threshold pulled into the mass).
        result = find_scaling_factors(skewed_percentiles(), MU, 2)
        assert result.alpha < 1.0

    def test_skewed_low_t_amplifies_beta(self):
        result = find_scaling_factors(skewed_percentiles(), MU, 2)
        assert result.beta > 1.0

    def test_factors_in_valid_ranges(self):
        for t in (1, 2, 3, 5):
            result = find_scaling_factors(skewed_percentiles(), MU, t)
            assert 0.0 < result.alpha <= 1.0
            assert 0.0 < result.beta <= 2.0

    def test_evaluation_count_matches_grid(self):
        p = skewed_percentiles()
        result = find_scaling_factors(p, MU, 2, beta_max=1.0, beta_step=0.5)
        positive = np.unique(p[(p > 0) & (p <= MU)] / MU)
        # identity + len(alphas) * len([0, 0.5, 1.0])
        assert result.evaluations == 1 + len(positive) * 3

    def test_custom_alpha_candidates(self):
        result = find_scaling_factors(
            skewed_percentiles(), MU, 2, alpha_candidates=[0.25, 0.5]
        )
        assert result.alpha in (0.25, 0.5, 1.0)

    def test_rejects_bad_alpha_candidates(self):
        with pytest.raises(ValueError):
            find_scaling_factors(skewed_percentiles(), MU, 2, alpha_candidates=[1.5])

    def test_beta_never_zero(self):
        result = find_scaling_factors(skewed_percentiles(), MU, 2)
        assert result.beta > 0.0

    def test_uniform_distribution_keeps_scales_near_identity(self):
        # With uniform percentiles the unscaled loss is already small;
        # the search must not pick a degenerate tiny alpha.
        result = find_scaling_factors(uniform_percentiles(), MU, 8)
        assert result.alpha * result.beta == pytest.approx(1.0, abs=0.35)

    def test_deterministic(self):
        p = skewed_percentiles()
        a = find_scaling_factors(p, MU, 2)
        b = find_scaling_factors(p, MU, 2)
        assert (a.alpha, a.beta, a.loss) == (b.alpha, b.beta, b.loss)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_matches_reference_on_layer_percentiles(self, t):
        p = skewed_percentiles()
        assert as_tuple(find_scaling_factors(p, MU, t)) == as_tuple(
            reference_search(p, MU, t)
        )

    @given(search_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_bitwise(self, case):
        percentiles, mu, timesteps, kwargs = case
        assert as_tuple(find_scaling_factors(percentiles, mu, timesteps, **kwargs)) == (
            as_tuple(reference_search(percentiles, mu, timesteps, **kwargs))
        )

    @given(search_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_grid_loss_is_bitwise_compute_loss(self, case):
        percentiles, mu, timesteps, kwargs = case
        step = kwargs["beta_step"]
        betas = np.arange(0.0, kwargs["beta_max"] + 0.5 * step, step)
        alphas = kwargs["alpha_candidates"] or paper_alpha_grid(percentiles, mu)
        for alpha in alphas:
            row = _losses_over_betas(
                percentiles[percentiles > 0.0], mu, alpha, betas, timesteps
            )
            assert row.tolist() == [
                compute_loss(percentiles, mu, float(alpha), float(beta), timesteps)
                for beta in betas
            ]

    @pytest.mark.parametrize(
        "percentiles, kwargs, expected",
        [
            # One alpha row, |loss| = 1 at beta = 1 and at beta = 2:
            # the first beta in the scan wins.
            ([0.75] * 4, dict(alpha_candidates=[0.25], beta_step=1.0, beta_max=3.0),
             (0.25, 1.0, 1.0)),
            # loss = 0 at (0.25, 2) and (0.125, 4): the first alpha in the
            # given candidate order wins, not the smaller one.
            ([1.0], dict(alpha_candidates=[0.25, 0.125], beta_step=0.5, beta_max=4.0),
             (0.25, 2.0, 0.0)),
            ([1.0], dict(alpha_candidates=[0.125, 0.25], beta_step=0.5, beta_max=4.0),
             (0.125, 4.0, 0.0)),
            # The identity already has loss 0; a tie does not replace it.
            ([3.0], dict(alpha_candidates=[0.5], beta_step=0.5, beta_max=2.0),
             (1.0, 1.0, 0.0)),
        ],
    )
    def test_ties_go_to_the_first_pair_in_scan_order(
        self, percentiles, kwargs, expected
    ):
        percentiles = np.array(percentiles)
        found = find_scaling_factors(percentiles, MU, 1, **kwargs)
        assert (found.alpha, found.beta, found.loss) == expected
        reference = reference_search(percentiles, MU, 1, **kwargs)
        assert as_tuple(found) == as_tuple(reference)

    @pytest.mark.parametrize(
        "percentiles, mu, timesteps, kwargs",
        [
            # Evenly spaced percentiles put an exact zero of the affine
            # loss on the beta grid of several alpha rows; rounding alone
            # decides which row's |loss| is smallest.
            (np.linspace(0.0, 1.0, 6), 1.0, 5, {}),
            (np.linspace(0.0, 3.7, 12), 3.7, 2, {}),
            # Two rows reach |loss| = 0.002 up to rounding of the
            # 0.01-step beta grid.
            (np.linspace(0.0, 1.0, 4), 1.0, 5,
             dict(alpha_candidates=[0.5625, 0.4375, 0.125, 0.5])),
        ],
    )
    def test_near_ties_across_alpha_rows_match_reference(
        self, percentiles, mu, timesteps, kwargs
    ):
        alphas = kwargs.get("alpha_candidates") or paper_alpha_grid(percentiles, mu)
        betas = np.arange(0.0, 2.005, 0.01)
        positive = percentiles[percentiles > 0.0]
        row_minima = np.array(
            [np.abs(_losses_over_betas(positive, mu, a, betas, timesteps)).min()
             for a in alphas]
        )
        # The case really is a near tie: two rows within rounding.
        slack = 64 * np.finfo(np.float64).eps * positive.sum()
        assert np.sum(row_minima <= row_minima.min() + slack) >= 2
        assert as_tuple(find_scaling_factors(percentiles, mu, timesteps, **kwargs)) == (
            as_tuple(reference_search(percentiles, mu, timesteps, **kwargs))
        )

    def test_search_never_builds_the_alpha_beta_percentile_cube(self):
        # ~100 alpha x 201 beta x 101 percentiles would be ~16 MB; one
        # alpha row of 201 x 101 floats is ~160 kB.
        p = skewed_percentiles()
        tracemalloc.start()
        try:
            find_scaling_factors(p, MU, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_non_positive_beta_step(self):
        with pytest.raises(ValueError):
            find_scaling_factors(skewed_percentiles(), MU, 2, beta_step=0.0)
