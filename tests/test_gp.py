"""GP regression tests against dense linear-algebra and special-function oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import gamma, kv

from adaptivebo.errors import (
    DimensionMismatchError,
    NonPositiveDefiniteError,
    NumericalError,
)
from adaptivebo.gp import (
    HYPER_BOUNDS,
    Dataset,
    FittedGP,
    GPConfig,
    KernelParams,
    fit,
    kernel_matrix,
    log_marginal_likelihood,
    mean_hessians,
    optimize_hyperparameters,
    predict,
)
from adaptivebo.gp import _neg_lml_and_grad, _pack, _sq_dists, _unpack

# Oracle value for the unit-amplitude Matern-2.5 kernel at r/l = 1, computed
# from the general Bessel form below (the closed form agrees to 2e-16).
MATERN25_AT_UNIT_DISTANCE = 0.5239941088318205


def matern_bessel_oracle(r, length_scale, nu=2.5, amplitude_sq=1.0):
    """General Matern kernel via the modified Bessel function of the second kind."""
    r = np.asarray(r, dtype=float)
    arg = np.sqrt(2.0 * nu) * r / length_scale
    value = amplitude_sq * (2.0 ** (1.0 - nu) / gamma(nu)) * arg**nu * kv(nu, arg)
    return np.where(r == 0, amplitude_sq, value)


def dense_predict_oracle(data: Dataset, params, noise, query, mean=0.0):
    """Posterior mean/variance through an explicit matrix inverse."""
    K = kernel_matrix(data.points, data.points, params) + noise * np.eye(data.n)
    K_inv = np.linalg.inv(K)
    k_vec = kernel_matrix(query[None, :], data.points, params)[0]
    mu = mean + k_vec @ K_inv @ (data.values - mean)
    var = kernel_matrix(query[None], query[None], params)[0, 0] - k_vec @ K_inv @ k_vec
    return mu, var


def dense_lml_oracle(data: Dataset, params, noise, mean=0.0):
    K = kernel_matrix(data.points, data.points, params) + noise * np.eye(data.n)
    resid = data.values - mean
    _, logdet = np.linalg.slogdet(K)
    return -0.5 * resid @ np.linalg.inv(K) @ resid - 0.5 * logdet \
        - 0.5 * data.n * np.log(2 * np.pi)


class TestKernels:
    def test_zero_distance_returns_amplitude(self):
        p = KernelParams(amplitude_sq=2.0, length_scale=1.0)
        x = np.array([0.3, -1.2])
        assert kernel_matrix(x[None], x[None], p)[0, 0] == 2.0

    def test_large_distance_decays(self):
        p = KernelParams(amplitude_sq=1.0, length_scale=1.0)
        assert kernel_matrix(np.array([[0.0]]), np.array([[100.0]]), p)[0, 0] < 1e-40

    def test_matern25_closed_form_matches_bessel_oracle(self):
        rng = np.random.default_rng(42)
        ratios = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=1000))
        lengths = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=1000))
        errs = []
        for ratio, ell in zip(ratios, lengths):
            r = ratio * ell
            closed = kernel_matrix(
                np.array([[0.0]]), np.array([[r]]), KernelParams(length_scale=ell)
            )[0, 0]
            errs.append(abs(closed - matern_bessel_oracle(r, ell)))
        assert max(errs) < 1e-10

    def test_matern25_frozen_value_at_unit_ratio(self):
        p = KernelParams(amplitude_sq=1.0, length_scale=1.0)
        value = kernel_matrix(np.array([[0.0]]), np.array([[1.0]]), p)[0, 0]
        assert value == pytest.approx(MATERN25_AT_UNIT_DISTANCE, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n_a=st.integers(1, 12),
        n_b=st.integers(1, 12),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        log_amplitude=st.floats(np.log(1e-3), np.log(1e3)),
        log_length=st.floats(np.log(1e-2), np.log(1e2)),
    )
    def test_symmetry_is_exact(self, n_a, n_b, dim, seed, log_amplitude, log_length):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(n_a, dim)), rng.normal(size=(n_b, dim))
        p = KernelParams(float(np.exp(log_amplitude)), float(np.exp(log_length)))
        np.testing.assert_array_equal(kernel_matrix(a, b, p), kernel_matrix(b, a, p).T)

    def test_kernel_matrix_positive_definite_with_noise(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(15, 4))
        K = kernel_matrix(pts, pts, KernelParams()) + 1e-6 * np.eye(15)
        assert np.linalg.eigvalsh(K).min() > 0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            kernel_matrix(np.array([[1.0]]), np.array([[1.0, 2.0]]), KernelParams())

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            KernelParams(amplitude_sq=-1.0)
        with pytest.raises(ValueError):
            KernelParams(length_scale=0.0)


class TestFit:
    def test_empty_dataset_gives_prior(self):
        gp = fit(Dataset.empty(3), KernelParams(amplitude_sq=2.5), GPConfig())
        mean, var = predict(gp, np.array([0.1, 0.2, 0.3]))
        assert mean == 0.0
        assert var == 2.5

    def test_cholesky_reconstructs_covariance(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.uniform(size=(3, 2)), rng.normal(size=3))
        cfg = GPConfig(noise_variance=0.01)
        gp = fit(data, KernelParams(), cfg)
        target = kernel_matrix(data.points, data.points, gp.kernel) + 0.01 * np.eye(3)
        recon = gp.chol_factor @ gp.chol_factor.T
        assert np.all(np.diag(gp.chol_factor) > 0)
        rel = np.abs(recon - target).max() / np.abs(target).max()
        assert rel < 1e-8

    def test_duplicate_points_need_jitter(self):
        # Rank-deficient covariance: the dense eigenvalue oracle confirms the
        # smallest eigenvalue vanishes, so the factorization relies on jitter.
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        data = Dataset(pts, np.array([1.0, 1.0]))
        K = kernel_matrix(pts, pts, KernelParams())
        assert np.linalg.eigvalsh(K).min() == pytest.approx(0.0, abs=1e-12)
        gp = fit(data, KernelParams(), GPConfig(noise_variance=0.0))
        assert 0 < gp.jitter <= 1e-4

    def test_factorization_failure_raises(self):
        # Jitter below one ulp of the diagonal cannot repair an exactly
        # singular matrix, so escalation runs out and errors.
        pts = np.array([[0.5], [0.5]])
        data = Dataset(pts, np.array([0.0, 0.0]))
        cfg = GPConfig(noise_variance=0.0, jitter_initial=1e-18, jitter_max=1e-17)
        with pytest.raises(NonPositiveDefiniteError):
            fit(data, KernelParams(), cfg)


class TestPredict:
    def test_prior_prediction(self):
        gp = fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig())
        assert predict(gp, np.array([5.0, -3.0])) == (0.0, 1.0)

    def test_single_noiseless_observation_interpolates(self):
        x0, y0 = np.array([0.4]), 1.7
        gp = fit(Dataset(x0[None, :], [y0]), KernelParams(), GPConfig(noise_variance=0.0))
        mean, var = predict(gp, x0)
        assert mean == pytest.approx(y0, abs=1e-8)
        assert var == pytest.approx(0.0, abs=1e-8)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(17)
        params = KernelParams(amplitude_sq=1.4, length_scale=0.6)
        data = Dataset(rng.uniform(size=(10, 3)), rng.normal(size=10))
        gp = fit(data, params, GPConfig(noise_variance=0.05))
        for _ in range(20):
            q = rng.uniform(size=3)
            mean, var = predict(gp, q)
            mu_o, var_o = dense_predict_oracle(data, params, 0.05, q)
            assert mean == pytest.approx(mu_o, abs=1e-8)
            assert var == pytest.approx(var_o, abs=1e-8)

    def test_batch_equals_single_calls(self):
        rng = np.random.default_rng(23)
        data = Dataset(rng.uniform(size=(12, 2)), rng.normal(size=12))
        gp = fit(data, KernelParams(), GPConfig(noise_variance=0.01))
        queries = rng.uniform(size=(40, 2))
        mean_b, var_b = predict(gp, queries)
        for i, q in enumerate(queries):
            mean_s, var_s = predict(gp, q)
            assert mean_b[i] == pytest.approx(mean_s, abs=1e-12)
            assert var_b[i] == pytest.approx(var_s, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 20),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        log_amplitude=st.floats(np.log(0.1), np.log(10.0)),
        log_length=st.floats(np.log(0.05), np.log(2.0)),
        log_noise=st.floats(np.log(1e-4), np.log(1.0)),
    )
    def test_posterior_variance_never_exceeds_prior(
        self, n, dim, seed, log_amplitude, log_length, log_noise
    ):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(size=(n, dim)), rng.normal(size=n))
        amplitude = float(np.exp(log_amplitude))
        kernel = KernelParams(amplitude, float(np.exp(log_length)))
        gp = fit(data, kernel, GPConfig(noise_variance=float(np.exp(log_noise))))
        # Random queries plus the training points, where the variance is smallest.
        _, var = predict(gp, np.vstack([rng.uniform(size=(50, dim)), data.points]))
        assert np.all((var >= 0.0) & (var <= amplitude))

    def test_observation_reduces_variance_at_point(self):
        rng = np.random.default_rng(37)
        pts = rng.uniform(size=(5, 2))
        vals = rng.normal(size=5)
        target = np.array([0.42, 0.58])
        cfg = GPConfig(noise_variance=0.0)
        before = predict(fit(Dataset(pts, vals), KernelParams(), cfg), target)[1]
        grown = Dataset(np.vstack([pts, target]), np.append(vals, 0.3))
        after = predict(fit(grown, KernelParams(), cfg), target)[1]
        assert after < before
        assert after == pytest.approx(0.0, abs=1e-8)

    def test_dimension_mismatch_raises(self):
        gp = fit(Dataset.empty(2), KernelParams(), GPConfig())
        with pytest.raises(DimensionMismatchError):
            predict(gp, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_raises(self, bad):
        data = Dataset(np.array([[0.2, 0.4], [0.7, 0.1]]), np.array([1.0, -1.0]))
        gp = fit(data, KernelParams(), GPConfig(noise_variance=0.01))
        with pytest.raises(ValueError):
            predict(gp, np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_corrupt_factor_flags_negative_variance(self):
        data = Dataset(np.array([[0.5]]), np.array([1.0]))
        good = fit(data, KernelParams(), GPConfig(noise_variance=0.0))
        bad = FittedGP(
            dataset=data, kernel=good.kernel, config=good.config,
            chol_factor=np.array([[0.1]]), alpha=good.alpha, jitter=good.jitter,
        )
        with pytest.raises(NumericalError):
            predict(bad, np.array([0.5]))


def central_difference_hessian(gp, x, h):
    """Hessian of the posterior mean at ``x`` from four-point central differences."""
    dim = x.size
    steps = h * np.eye(dim)
    stencil = [
        x + si * steps[i] + sj * steps[j]
        for i in range(dim) for j in range(dim) for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    v = predict(gp, np.array(stencil))[0].reshape(dim, dim, 4)
    return (v[..., 0] - v[..., 1] - v[..., 2] + v[..., 3]) / (4.0 * h * h)


class TestMeanHessians:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 30),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        log_length=st.floats(np.log(0.1), np.log(2.0)),
        log_noise=st.floats(np.log(1e-4), np.log(1e-1)),
    )
    def test_symmetric_and_matches_central_differences(
        self, n, dim, seed, log_length, log_noise
    ):
        rng = np.random.default_rng(seed)
        length = float(np.exp(log_length))
        data = Dataset(rng.uniform(size=(n, dim)), rng.normal(size=n))
        gp = fit(data, KernelParams(length_scale=length),
                 GPConfig(noise_variance=float(np.exp(log_noise))))
        # Random queries plus queries exactly on training points.
        query = np.vstack([rng.uniform(size=(3, dim)), data.points[:2]])
        hess = mean_hessians(gp, query)
        assert hess.shape == (len(query), dim, dim)
        np.testing.assert_array_equal(hess, np.swapaxes(hess, 1, 2))
        if n == 0:
            np.testing.assert_array_equal(hess, 0.0)
            return
        # Every Hessian entry is a sum of sigma_f^2 |alpha_i| / l^2 times a
        # bounded function of d_i / l. The central difference is off by a
        # truncation error of order (h / l)^2 (the kernel is C^4) plus a
        # rounding error of order eps (l / h)^2, both in units of that scale.
        scale = gp.kernel.amplitude_sq * np.sum(np.abs(gp.alpha)) / length**2
        h = 1e-4 * length
        tol = scale * (50.0 * (h / length) ** 2 + 8.0 * np.finfo(float).eps * (length / h) ** 2)
        for x, exact in zip(query, hess):
            np.testing.assert_allclose(exact, central_difference_hessian(gp, x, h), rtol=0, atol=tol)

    def test_dimension_mismatch_raises(self):
        gp = fit(Dataset(np.eye(2), [0.0, 1.0]), KernelParams(), GPConfig())
        with pytest.raises(DimensionMismatchError):
            mean_hessians(gp, np.zeros((1, 3)))


class TestLogMarginalLikelihood:
    def test_empty_dataset_is_zero(self):
        gp = fit(Dataset.empty(1), KernelParams(), GPConfig())
        assert log_marginal_likelihood(gp) == 0.0

    def test_single_unit_variance_observation(self):
        # k(x, x) + noise = 1 and y = 0 leaves only the normalization constant.
        gp = fit(
            Dataset(np.array([[0.0]]), np.array([0.0])),
            KernelParams(amplitude_sq=0.5),
            GPConfig(noise_variance=0.5),
        )
        assert log_marginal_likelihood(gp) == pytest.approx(
            -0.5 * np.log(2 * np.pi), abs=1e-10
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(41)
        params = KernelParams(amplitude_sq=1.2, length_scale=0.9)
        data = Dataset(rng.uniform(size=(6, 2)), rng.normal(size=6))
        gp = fit(data, params, GPConfig(noise_variance=0.1))
        assert log_marginal_likelihood(gp) == pytest.approx(
            dense_lml_oracle(data, params, 0.1), abs=1e-8
        )


class TestOptimizeHyperparameters:
    def _sample_from_gp(self, rng, n, length_scale, noise_sd):
        pts = rng.uniform(size=(n, 1))
        K = kernel_matrix(pts, pts, KernelParams(length_scale=length_scale))
        chol = np.linalg.cholesky(K + 1e-10 * np.eye(n))
        values = chol @ rng.standard_normal(n) + noise_sd * rng.standard_normal(n)
        return Dataset(pts, values)

    def test_returned_params_within_bounds(self):
        rng = np.random.default_rng(47)
        data = self._sample_from_gp(rng, 25, 0.5, 0.05)
        params = optimize_hyperparameters(
            data, KernelParams(), GPConfig(noise_variance=0.0025), seed=0
        )
        assert 1e-3 <= params.amplitude_sq <= 1e3
        assert 1e-2 <= params.length_scale <= 1e2

    def test_likelihood_never_below_start(self):
        rng = np.random.default_rng(53)
        data = self._sample_from_gp(rng, 20, 0.3, 0.1)
        cfg = GPConfig(noise_variance=0.01)
        start = KernelParams(amplitude_sq=0.1, length_scale=5.0)
        params = optimize_hyperparameters(data, start, cfg, seed=1)
        lml_start = log_marginal_likelihood(fit(data, start, cfg))
        lml_opt = log_marginal_likelihood(fit(data, params, cfg))
        assert lml_opt >= lml_start

    def test_recovers_known_length_scale(self):
        recovered = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            data = self._sample_from_gp(rng, 40, 0.5, 0.05)
            params = optimize_hyperparameters(
                data, KernelParams(), GPConfig(noise_variance=0.0025), seed=seed
            )
            recovered.append(params.length_scale)
        assert 0.25 <= np.median(recovered) <= 1.0

    def test_not_worse_than_finite_difference_search(self):
        # Reference: the same restarts run by L-BFGS-B on a finite-difference
        # gradient of -log_marginal_likelihood(fit(...)).
        log_box = np.log(HYPER_BOUNDS)

        def neg_lml(theta, data, cfg):
            try:
                return -log_marginal_likelihood(fit(data, _unpack(theta), cfg))
            except NonPositiveDefiniteError:
                return 1e25

        for case in range(8):
            rng = np.random.default_rng(500 + case)
            dim, n = (2, 10)[case % 2], int(rng.integers(10, 41))
            pts = rng.uniform(size=(n, dim))
            data = Dataset(pts, np.sin(4.0 * pts).sum(axis=1) + 0.01 * rng.normal(size=n))
            cfg = GPConfig(noise_variance=(1e-6, 1e-4, 1e-2)[case % 3])
            start = KernelParams()
            draws = np.random.default_rng(case)
            starts = [_pack(start)] + [
                draws.uniform(log_box[:, 0], log_box[:, 1]) for _ in range(4)
            ]
            best_fd = -min(
                min(neg_lml(t, data, cfg),
                    minimize(neg_lml, t, args=(data, cfg), method="L-BFGS-B",
                             bounds=log_box).fun)
                for t in starts
            )
            params = optimize_hyperparameters(data, start, cfg, seed=case)
            assert log_marginal_likelihood(fit(data, params, cfg)) >= best_fd - 1e-6

    def test_too_few_points_rejected(self):
        data = Dataset(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            optimize_hyperparameters(data, KernelParams(), GPConfig())


class TestLikelihoodObjective:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 30),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        log_noise=st.floats(np.log(1e-4), np.log(1e-1)),
        frac=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_value_is_exact_and_gradient_matches_central_differences(
        self, n, dim, seed, log_noise, frac
    ):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(size=(n, dim)), rng.normal(size=n))
        cfg = GPConfig(noise_variance=float(np.exp(log_noise)))
        log_box = np.log(HYPER_BOUNDS)
        theta = log_box[:, 0] + np.array(frac) * (log_box[:, 1] - log_box[:, 0])
        sqrt5_r = np.sqrt(5.0 * _sq_dists(data.points, data.points))

        def neg_lml(t):
            return -log_marginal_likelihood(fit(data, _unpack(t), cfg))

        value, grad = _neg_lml_and_grad(theta, data, cfg, sqrt5_r)
        assert value == neg_lml(theta)

        # The differences stay inside the box, where _unpack does not clip.
        theta = np.clip(theta, log_box[:, 0] + 1e-4, log_box[:, 1] - 1e-4)
        value, grad = _neg_lml_and_grad(theta, data, cfg, sqrt5_r)
        h = 1e-5
        central = np.array(
            [(neg_lml(theta + h * e) - neg_lml(theta - h * e)) / (2.0 * h) for e in np.eye(2)]
        )
        # Rounding in each value is about cond(K) * eps * (|value| + n), and
        # the differences divide it by h.
        cond = np.linalg.cond(fit(data, _unpack(theta), cfg).chol_factor) ** 2
        rounding = cond * np.finfo(float).eps * (abs(value) + n) / h
        np.testing.assert_array_less(
            np.abs(grad - central), 1e-5 * (1.0 + np.abs(grad)) + rounding
        )

    def test_not_positive_definite_scores_1e25_with_zero_gradient(self):
        data = Dataset(np.zeros((2, 1)), np.array([1.0, -1.0]))
        cfg = GPConfig(noise_variance=0.0, jitter_initial=1e-30, jitter_max=1e-30)
        value, grad = _neg_lml_and_grad(np.zeros(2), data, cfg, np.zeros((2, 2)))
        assert value == 1e25
        np.testing.assert_array_equal(grad, np.zeros(2))


class TestDataset:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros((3, 2)), np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([0.0]))
