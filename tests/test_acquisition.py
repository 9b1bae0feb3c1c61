"""Acquisition-function tests: closed forms against Monte-Carlo and analytic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivebo.acquisition import (
    EPS_EIG,
    AcquisitionParams,
    adaptive_acquisition_batch,
    complexity_factor,
    complexity_factor_batch,
    expected_improvement,
)
from adaptivebo.errors import NumericalError
from adaptivebo.gp import Dataset, GPConfig, KernelParams, fit, predict
from adaptivebo.search import Domain, SearchConfig, propose_next, sobol_samples


def ei_mc_oracle(mean, sd, f_best, n_samples, seed):
    """Monte-Carlo estimate of E[max(value - f_best, 0)] for a Gaussian belief."""
    rng = np.random.default_rng(seed)
    draws = mean + sd * rng.standard_normal(n_samples)
    return float(np.mean(np.maximum(draws - f_best, 0.0)))


def prior_gp(dim, amplitude_sq=1.0, mean=0.0):
    """The zero-data GP: constant mean ``mean`` and variance ``amplitude_sq`` everywhere."""
    return fit(Dataset.empty(dim), KernelParams(amplitude_sq=amplitude_sq), GPConfig(mean=mean))


def penalty(gp, points):
    """U = sigma^2 * C over a batch: mu minus the acquisition at kappa = 0, lambda = 1."""
    mean, _ = predict(gp, points)
    return mean - adaptive_acquisition_batch(gp, points, AcquisitionParams(0.0, 1.0))


def random_fitted_gp(rng, dim, n):
    """GP on n points in the unit box with standard-normal values.

    The harness fits its GPs the same way: unit-box inputs, standardized values.
    """
    data = Dataset(rng.uniform(size=(n, dim)), rng.normal(size=n))
    return fit(data, KernelParams(), GPConfig(noise_variance=0.01))


class TestUCB:
    """lambda = 0 is fixed-weight UCB, mu + kappa*sigma, here on a one-row prior batch."""

    def test_zero_kappa_is_mean(self):
        value = adaptive_acquisition_batch(prior_gp(2), np.zeros(2), AcquisitionParams(0.0))
        assert value[0] == 0.0

    def test_direct_arithmetic(self):
        gp = prior_gp(2, amplitude_sq=4.0, mean=1.0)
        assert adaptive_acquisition_batch(gp, np.zeros(2), AcquisitionParams(0.5))[0] == 2.0

    def test_monotone_in_kappa(self):
        gp = prior_gp(2, amplitude_sq=0.49, mean=0.3)
        kappas = np.linspace(0.0, 5.0, 50)
        values = [adaptive_acquisition_batch(gp, np.zeros(2), AcquisitionParams(k))[0]
                  for k in kappas]
        assert np.all(np.diff(values) > 0)


class TestExpectedImprovement:
    def test_degenerate_positive_improvement(self):
        assert expected_improvement(2.0, 0.0, 1.0) == 1.0

    def test_degenerate_no_improvement(self):
        assert expected_improvement(0.0, 0.0, 1.0) == 0.0

    def test_at_incumbent_equals_standard_density(self):
        # z = 0 leaves only sd * phi(0).
        value = expected_improvement(1.0, 1.0, 1.0)
        assert value == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
        mc = ei_mc_oracle(1.0, 1.0, 1.0, 10**6, seed=0)
        assert value == pytest.approx(mc, abs=1e-3)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            mean, sd, best = rng.normal(), rng.uniform(0, 3), rng.normal()
            assert expected_improvement(mean, sd, best) >= 0.0

    def test_nondecreasing_in_sd_when_below_incumbent(self):
        sds = np.linspace(0.0, 3.0, 60)
        for mean in (-1.0, 0.0, 0.5):
            values = [expected_improvement(mean, sd, 0.5) for sd in sds]
            assert np.all(np.diff(values) >= -1e-15)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        mean = rng.normal(size=30)
        sd = rng.uniform(0, 2, size=30)
        batch = expected_improvement(mean, sd, 0.2)
        scalars = [expected_improvement(m, s, 0.2) for m, s in zip(mean, sd)]
        np.testing.assert_array_equal(batch, scalars)


class TestComplexityFactor:
    def test_zero_matrix_floors_every_eigenvalue(self):
        assert complexity_factor(np.zeros((3, 3)), 1e-6) == 3e-6

    def test_absolute_eigenvalue_sum(self):
        assert complexity_factor(np.diag([2.0, -3.0]), 1e-6) == pytest.approx(5.0, rel=1e-12)

    def test_small_eigenvalue_floored(self):
        assert complexity_factor(np.diag([1e-9, 1.0]), 1e-6) == pytest.approx(1.000001, rel=1e-12)

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(5)
        sym = rng.normal(size=(20, 4, 4))
        sym = (sym + np.swapaxes(sym, 1, 2)) / 2
        q, _ = np.linalg.qr(rng.normal(size=(20, 4, 4)))
        direct = complexity_factor(sym, 1e-6)
        rotated = complexity_factor(q @ sym @ np.swapaxes(q, 1, 2), 1e-6)
        np.testing.assert_allclose(rotated, direct, rtol=0, atol=1e-9)
        # A stack gives each matrix the value it gets alone.
        for matrix, value in zip(sym, direct):
            assert complexity_factor(matrix, 1e-6) == value

    def test_eigen_failure_is_numerical_error_on_both_paths(self, monkeypatch):
        def failing_eigvalsh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        gp = random_fitted_gp(np.random.default_rng(6), 2, 6)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        with pytest.raises(NumericalError):
            complexity_factor(np.eye(2))
        with pytest.raises(NumericalError):
            complexity_factor_batch(gp, np.full((3, 2), 0.5))


class TestUncertaintyMeasure:
    def test_zero_data_prior_is_floor_times_amplitude(self):
        assert penalty(prior_gp(2), np.array([[0.3, 0.7]]))[0] == 1.0 * 2e-6

    def test_vanishes_at_noiseless_training_point(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.2, 0.8, size=(4, 2))
        gp = fit(Dataset(pts, rng.normal(size=4)), KernelParams(), GPConfig(noise_variance=0.0))
        assert abs(penalty(gp, pts[2:3])[0]) < 1e-8

    def test_scales_linearly_with_prior_amplitude(self):
        x = np.array([[0.1, 0.9]])
        one = penalty(prior_gp(2, amplitude_sq=1.0), x)[0]
        two = penalty(prior_gp(2, amplitude_sq=2.0), x)[0]
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestAdaptiveAcquisition:
    @pytest.fixture()
    def fitted(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.uniform(size=(8, 2)), rng.normal(size=8))
        return fit(data, KernelParams(), GPConfig(noise_variance=0.01))

    def test_zero_lambda_reduces_to_ucb_exactly(self, fitted):
        rng = np.random.default_rng(13)
        params = AcquisitionParams(kappa=0.8, lambda_pen=0.0)
        points = rng.uniform(size=(100, 2))
        mean, var = predict(fitted, points)
        assert np.array_equal(adaptive_acquisition_batch(fitted, points, params),
                              mean + 0.8 * np.sqrt(var))

    def test_zero_kappa_zero_lambda_is_posterior_mean(self, fitted):
        rng = np.random.default_rng(17)
        params = AcquisitionParams(kappa=0.0, lambda_pen=0.0)
        points = rng.uniform(size=(100, 2))
        mean, _ = predict(fitted, points)
        assert np.array_equal(adaptive_acquisition_batch(fitted, points, params), mean)

    def test_prior_composition_value(self):
        params = AcquisitionParams(kappa=1.0, lambda_pen=0.01)
        value = adaptive_acquisition_batch(prior_gp(2), np.array([0.5, 0.5]), params)[0]
        assert value == pytest.approx(1.0 - 0.01 * 2e-6, rel=1e-15)

    def test_batch_matches_pointwise(self, fitted):
        rng = np.random.default_rng(19)
        params = AcquisitionParams(kappa=1.3, lambda_pen=0.05)
        points = rng.uniform(size=(25, 2))
        batch = adaptive_acquisition_batch(fitted, points, params)
        for i, x in enumerate(points):
            one_row = adaptive_acquisition_batch(fitted, x, params)[0]
            assert batch[i] == pytest.approx(one_row, abs=1e-12)

    def test_argmax_invariant_under_constant_mean_shift(self):
        # A constant added to the prior mean (and observations) shifts the
        # posterior mean exactly, so the acquisition argmax cannot move.
        rng = np.random.default_rng(23)
        pts = rng.uniform(size=(8, 2))
        vals = rng.normal(size=8)
        candidates = rng.uniform(size=(200, 2))
        params = AcquisitionParams(kappa=1.0, lambda_pen=0.1)
        shift = 37.5
        base = fit(Dataset(pts, vals), KernelParams(), GPConfig(noise_variance=0.01))
        shifted = fit(
            Dataset(pts, vals + shift),
            KernelParams(),
            GPConfig(noise_variance=0.01, mean=shift),
        )
        a = adaptive_acquisition_batch(base, candidates, params)
        b = adaptive_acquisition_batch(shifted, candidates, params)
        assert int(np.argmax(a)) == int(np.argmax(b))
        np.testing.assert_allclose(b - a, shift, atol=1e-8)


class TestComplexityFactorBatch:
    @pytest.mark.parametrize("dim", [1, 2, 10])
    def test_row_is_exactly_equal_alone_and_in_any_batch(self, dim):
        rng = np.random.default_rng(200 + dim)
        for n in (5, 30, 100):
            gp = random_fitted_gp(rng, dim, n)
            points = rng.uniform(size=(1000, dim))
            points[:5] = gp.dataset.points[:5]
            full = complexity_factor_batch(gp, points)
            for size in (5, 21):
                for start in range(0, 1000 - size, 97):
                    np.testing.assert_array_equal(
                        complexity_factor_batch(gp, points[start : start + size]),
                        full[start : start + size],
                    )
            for i in range(0, 1000, 37):
                assert complexity_factor_batch(gp, points[i : i + 1])[0] == full[i]

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.floats(0.0, 10.0),
        lambda_pen=st.floats(0.0, 10.0),
    )
    def test_penalized_search_stays_in_box_and_beats_sweep(
        self, dim, n, seed, kappa, lambda_pen
    ):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-2.0, 0.0, size=dim)
        domain = Domain(lower, lower + rng.uniform(0.05, 3.0, size=dim))
        data = Dataset(rng.uniform(domain.lower, domain.upper, size=(n, dim)), rng.normal(size=n))
        gp = fit(data, KernelParams(length_scale=float(rng.uniform(0.1, 2.0))),
                 GPConfig(noise_variance=0.01))
        params = AcquisitionParams(kappa=kappa, lambda_pen=lambda_pen)

        def acq(points):
            return adaptive_acquisition_batch(gp, points, params)

        cfg = SearchConfig(n_global=64, n_refine=2)
        x = propose_next(gp, acq, domain, cfg)
        assert domain.contains(x)
        # A one-row score can differ from the same row's batched score in the
        # last bits of predict's mean, which agrees with itself to 1e-12.
        best_sweep = np.max(acq(sobol_samples(domain, cfg.n_global)))
        assert acq(x[None, :])[0] >= best_sweep - 1e-12 * max(1.0, abs(best_sweep))

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        n=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        corner=st.lists(st.sampled_from([0.0, 1.0, None]), min_size=4, max_size=4),
    )
    def test_floored_at_training_points_and_box_corners(self, dim, n, seed, corner):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-2.0, 0.0, size=dim)
        upper = lower + rng.uniform(0.01, 3.0, size=dim)
        frac = np.array([rng.uniform() if c is None else c for c in corner[:dim]])
        data = Dataset(rng.uniform(lower, upper, size=(n, dim)), rng.normal(size=n))
        gp = fit(data, KernelParams(), GPConfig(noise_variance=0.01))
        points = np.vstack([lower + frac * (upper - lower), data.points])
        assert np.all(complexity_factor_batch(gp, points) >= dim * EPS_EIG)
