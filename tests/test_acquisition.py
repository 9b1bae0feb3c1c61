"""Acquisition-function tests: closed forms against Monte-Carlo and analytic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivebo.acquisition import (
    EPS_EIG,
    AcquisitionParams,
    HessianEstimate,
    adaptive_acquisition,
    adaptive_acquisition_batch,
    complexity_factor,
    complexity_factor_batch,
    expected_improvement,
    hessian_fd,
    ucb,
    uncertainty_measure,
)
from adaptivebo.errors import NumericalError
from adaptivebo.gp import Dataset, GPConfig, KernelParams, fit, predict
from adaptivebo.search import Domain, SearchConfig, propose_next, sobol_samples

# Step of the finite-difference stencils below.
FD_STEP = 1e-4


def ei_mc_oracle(mean, sd, f_best, n_samples, seed):
    """Monte-Carlo estimate of E[max(value - f_best, 0)] for a Gaussian belief."""
    rng = np.random.default_rng(seed)
    draws = mean + sd * rng.standard_normal(n_samples)
    return float(np.mean(np.maximum(draws - f_best, 0.0)))


def reference_hessians(gp, points, h, lower, upper):
    """Four-point forward-difference Hessians of the posterior mean, one per row.

    Slides each base point inward so that base + 2h stays inside the box, lays
    out each row's stencil (base, base + h e_i, base + h e_i + h e_j for i <= j)
    after the previous row's, predicts all of them in one call, then fills
    each matrix one entry at a time.
    """
    dim = points.shape[1]
    steps = h * np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    stencil = []
    for x in points:
        base = np.maximum(np.minimum(x, upper - 2.0 * h), lower)
        stencil += [base] + [base + steps[i] for i in range(dim)]
        stencil += [base + (steps[i] + steps[j]) for i, j in pairs]
    values = predict(gp, np.array(stencil))[0].reshape(len(points), -1)
    hess = np.empty((len(points), dim, dim))
    for row, v in enumerate(values):
        f0, fi = v[0], v[1 : 1 + dim]
        for k, (i, j) in enumerate(pairs):
            hess[row, i, j] = hess[row, j, i] = (v[1 + dim + k] - fi[i] - fi[j] + f0) / (h * h)
    return hess


def random_fitted_gp(rng, dim, n):
    """GP on n points in the unit box with standard-normal values.

    The harness fits its GPs the same way: unit-box inputs, standardized values.
    """
    data = Dataset(rng.uniform(size=(n, dim)), rng.normal(size=n))
    return fit(data, KernelParams(), GPConfig(noise_variance=0.01))


class TestUCB:
    def test_zero_kappa_is_mean(self):
        assert ucb(0.0, 1.0, 0.0) == 0.0

    def test_direct_arithmetic(self):
        assert ucb(1.0, 2.0, 0.5) == 2.0

    def test_monotone_in_kappa(self):
        kappas = np.linspace(0.0, 5.0, 50)
        values = [ucb(0.3, 0.7, k) for k in kappas]
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


class TestHessianFD:
    def test_quadratic_diagonal(self):
        def f(pts):
            pts = np.atleast_2d(pts)
            return pts[:, 0] ** 2 + 3.0 * pts[:, 1] ** 2

        est = hessian_fd(f, np.array([0.3, -0.2]), h=1e-4)
        np.testing.assert_allclose(est.matrix, np.diag([2.0, 6.0]), atol=1e-3)

    def test_quadratic_with_cross_terms(self):
        A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 0.7]])

        def f(pts):
            pts = np.atleast_2d(pts)
            return 0.5 * np.einsum("ni,ij,nj->n", pts, A, pts)

        est = hessian_fd(f, np.array([0.1, 0.2, 0.3]), h=1e-4)
        np.testing.assert_allclose(est.matrix, A, atol=1e-3)

    def test_linear_function_gives_zero(self):
        def f(pts):
            pts = np.atleast_2d(pts)
            return 1.5 * pts[:, 0] - 0.7 * pts[:, 1]

        est = hessian_fd(f, np.array([0.5, 0.5]), h=1e-4)
        np.testing.assert_allclose(est.matrix, 0.0, atol=1e-3)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(3)

        def f(pts):
            pts = np.atleast_2d(pts)
            return np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1]) + pts[:, 0] * pts[:, 1]

        est = hessian_fd(f, rng.uniform(size=2), h=1e-4)
        np.testing.assert_array_equal(est.matrix, est.matrix.T)

    def test_boundary_stencil_stays_inside(self):
        seen = []

        def f(pts):
            pts = np.atleast_2d(pts)
            seen.append(pts)
            return np.zeros(len(pts))

        hessian_fd(f, np.array([1.0, 1.0]), h=1e-4, lower=np.zeros(2), upper=np.ones(2))
        stacked = np.vstack(seen)
        assert np.all(stacked <= 1.0) and np.all(stacked >= 0.0)

    def test_non_finite_values_raise(self):
        def f(pts):
            return np.full(len(np.atleast_2d(pts)), np.nan)

        with pytest.raises(NumericalError):
            hessian_fd(f, np.zeros(2), h=1e-4)


class TestComplexityFactor:
    def test_zero_matrix_floors_every_eigenvalue(self):
        est = HessianEstimate(np.zeros((3, 3)))
        assert complexity_factor(est, 1e-6) == 3e-6

    def test_absolute_eigenvalue_sum(self):
        est = HessianEstimate(np.diag([2.0, -3.0]))
        assert complexity_factor(est, 1e-6) == pytest.approx(5.0, rel=1e-12)

    def test_small_eigenvalue_floored(self):
        est = HessianEstimate(np.diag([1e-9, 1.0]))
        assert complexity_factor(est, 1e-6) == pytest.approx(1.000001, rel=1e-12)

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sym = rng.normal(size=(4, 4))
            sym = (sym + sym.T) / 2
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            direct = complexity_factor(HessianEstimate(sym), 1e-6)
            rotated = complexity_factor(HessianEstimate(q @ sym @ q.T), 1e-6)
            assert rotated == pytest.approx(direct, abs=1e-9)

    def test_eigen_failure_is_numerical_error_on_both_paths(self, monkeypatch):
        def failing_eigvalsh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        gp = random_fitted_gp(np.random.default_rng(6), 2, 6)
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        with pytest.raises(NumericalError):
            complexity_factor(HessianEstimate(np.eye(2)))
        with pytest.raises(NumericalError):
            complexity_factor_batch(gp, np.full((3, 2), 0.5))


class TestUncertaintyMeasure:
    def test_zero_data_prior_is_floor_times_amplitude(self):
        gp = fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig())
        params = AcquisitionParams()
        assert uncertainty_measure(gp, np.array([0.3, 0.7]), params) == 1.0 * 2e-6

    def test_vanishes_at_noiseless_training_point(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.2, 0.8, size=(4, 2))
        gp = fit(Dataset(pts, rng.normal(size=4)), KernelParams(), GPConfig(noise_variance=0.0))
        value = uncertainty_measure(gp, pts[2], AcquisitionParams())
        assert abs(value) < 1e-8

    def test_scales_linearly_with_prior_amplitude(self):
        params = AcquisitionParams()
        x = np.array([0.1, 0.9])
        one = uncertainty_measure(
            fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig()), x, params
        )
        two = uncertainty_measure(
            fit(Dataset.empty(2), KernelParams(amplitude_sq=2.0), GPConfig()), x, params
        )
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
        for _ in range(100):
            x = rng.uniform(size=2)
            mean, var = predict(fitted, x)
            assert adaptive_acquisition(fitted, x, params) == ucb(mean, np.sqrt(var), 0.8)

    def test_zero_kappa_zero_lambda_is_posterior_mean(self, fitted):
        rng = np.random.default_rng(17)
        params = AcquisitionParams(kappa=0.0, lambda_pen=0.0)
        for _ in range(100):
            x = rng.uniform(size=2)
            mean, _ = predict(fitted, x)
            assert adaptive_acquisition(fitted, x, params) == mean

    def test_prior_composition_value(self):
        gp = fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig())
        params = AcquisitionParams(kappa=1.0, lambda_pen=0.01)
        value = adaptive_acquisition(gp, np.array([0.5, 0.5]), params)
        assert value == pytest.approx(1.0 - 0.01 * 2e-6, rel=1e-15)

    def test_batch_matches_pointwise(self, fitted):
        rng = np.random.default_rng(19)
        params = AcquisitionParams(kappa=1.3, lambda_pen=0.05)
        points = rng.uniform(size=(25, 2))
        batch = adaptive_acquisition_batch(fitted, points, params)
        for i, x in enumerate(points):
            assert batch[i] == pytest.approx(adaptive_acquisition(fitted, x, params), abs=1e-12)

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


class TestStencilAgainstReference:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_hessian_fd_matches_per_point_loop(self, dim):
        rng = np.random.default_rng(100 + dim)
        lower, upper = np.zeros(dim), np.ones(dim)
        # Data sizes a trial passes through: the initial design up to the budget.
        for n in (5, 25, 100):
            gp = random_fitted_gp(rng, dim, n)
            points = rng.uniform(size=(12, dim))
            # Rows within 2h of the upper bound, where the base must shift.
            points[::3, rng.integers(dim)] = 1.0 - rng.uniform(0.0, 2.0 * FD_STEP, size=4)
            points[1, :] = 1.0
            # The same stencil points in the same single predict call give the
            # same mean values, so the estimate must match the reference exactly.
            for x in points:
                est = hessian_fd(
                    lambda q: predict(gp, q)[0], x, FD_STEP, lower=lower, upper=upper
                )
                np.testing.assert_array_equal(
                    est.matrix, reference_hessians(gp, x[None, :], FD_STEP, lower, upper)[0]
                )

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        corner=st.lists(st.sampled_from([0.0, 1.0, None]), min_size=4, max_size=4),
    )
    def test_stencil_inside_box_and_factor_floored(self, dim, seed, corner):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(-2.0, 0.0, size=dim)
        upper = lower + rng.uniform(0.01, 3.0, size=dim)
        frac = np.array([rng.uniform() if c is None else c for c in corner[:dim]])
        x = lower + frac * (upper - lower)
        data = Dataset(rng.uniform(lower, upper, size=(4, dim)), rng.normal(size=4))
        gp = fit(data, KernelParams(), GPConfig(noise_variance=0.01))
        seen = []

        def mean_fn(points):
            seen.append(points)
            return predict(gp, points)[0]

        est = hessian_fd(mean_fn, x, FD_STEP, lower=lower, upper=upper)
        stencil = np.vstack(seen)
        assert np.all(stencil >= lower) and np.all(stencil <= upper)
        assert complexity_factor(est) >= dim * EPS_EIG
        assert complexity_factor_batch(gp, x[None, :])[0] >= dim * EPS_EIG
