"""Exact Gaussian-process regression.

Kernel evaluation, Cholesky-based posterior inference, marginal likelihood,
and restart-based hyperparameter optimization with the exact likelihood
gradient. Models are immutable after fitting, so concurrent read-only
prediction is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .errors import DimensionMismatchError, NonPositiveDefiniteError, NumericalError

# Hyperparameter search box (rows: amplitude_sq, length_scale), assuming
# inputs scaled to the unit box.
HYPER_BOUNDS = np.array([[1e-3, 1e3], [1e-2, 1e2]])

# Negative predicted variances above this threshold are round-off and are
# clamped to zero; anything below it signals a broken factorization.
VARIANCE_FLOOR = -1e-9


@dataclass(frozen=True)
class KernelParams:
    """Matern-2.5 hyperparameters (single amplitude, isotropic length scale)."""

    amplitude_sq: float = 1.0
    length_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.amplitude_sq > 0:
            raise ValueError("amplitude_sq must be positive")
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")


@dataclass(frozen=True)
class GPConfig:
    """Observation model and numerical-stability settings."""

    noise_variance: float = 0.0
    jitter_initial: float = 1e-10
    jitter_max: float = 1e-4
    mean: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")
        if not 0 < self.jitter_initial <= self.jitter_max:
            raise ValueError("require 0 < jitter_initial <= jitter_max")


@dataclass(frozen=True)
class Dataset:
    """Training inputs (n, d) and observations (n,)."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.ndim != 2:
            raise DimensionMismatchError("points must be an (n, d) array")
        values = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)
        if points.shape[0] != values.shape[0]:
            raise DimensionMismatchError(
                f"{points.shape[0]} points but {values.shape[0]} values"
            )
        if points.shape[1] < 1:
            raise DimensionMismatchError("input dimension must be >= 1")
        if not (np.isfinite(points).all() and np.isfinite(values).all()):
            raise ValueError("dataset entries must be finite")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @staticmethod
    def empty(dim: int) -> "Dataset":
        return Dataset(np.empty((0, dim)), np.empty(0))

    def append(self, x: np.ndarray, y: float) -> "Dataset":
        x = np.asarray(x, dtype=float).reshape(1, -1)
        return Dataset(np.vstack([self.points, x]), np.append(self.values, y))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"points have dimensions {a.shape[1]} and {b.shape[1]}"
        )
    return cdist(a, b, metric="sqeuclidean")


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern-2.5 covariance matrix between row-point arrays ``a`` and ``b``.

    sigma_f^2 (1 + sqrt(5) r/l + 5 r^2 / (3 l^2)) exp(-sqrt(5) r/l).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    u = np.sqrt(5.0 * _sq_dists(a, b)) / params.length_scale
    return params.amplitude_sq * (1.0 + u + u * u / 3.0) * np.exp(-u)


def kernel_eval(a: np.ndarray, b: np.ndarray, params: KernelParams) -> float:
    """Covariance between two points."""
    a = np.asarray(a, dtype=float).reshape(1, -1)
    b = np.asarray(b, dtype=float).reshape(1, -1)
    return float(kernel_matrix(a, b, params)[0, 0])


@dataclass(frozen=True)
class FittedGP:
    """Immutable posterior: training data, kernel, and cached Cholesky factor.

    ``chol_factor`` is the lower-triangular L with L L^T = K + sigma_n^2 I
    (+ jitter); ``alpha`` solves (K + sigma_n^2 I) alpha = y - m. Both are
    ``None``/empty for the zero-data prior.
    """

    dataset: Dataset
    kernel: KernelParams
    config: GPConfig
    chol_factor: np.ndarray | None
    alpha: np.ndarray
    jitter: float = 0.0

    @property
    def dim(self) -> int:
        return self.dataset.dim


def fit(dataset: Dataset, kernel: KernelParams, config: GPConfig) -> FittedGP:
    """Factorize K + sigma_n^2 I and cache the solved residual vector.

    On factorization failure the diagonal jitter escalates geometrically
    (x10) from ``jitter_initial`` up to ``jitter_max`` before raising
    :class:`NonPositiveDefiniteError`.
    """
    if dataset.n == 0:
        return FittedGP(dataset, kernel, config, None, np.empty(0), 0.0)

    return _factorize(dataset, kernel, config,
                      kernel_matrix(dataset.points, dataset.points, kernel))


def _factorize(
    dataset: Dataset, kernel: KernelParams, config: GPConfig, k0: np.ndarray
) -> FittedGP:
    """``fit`` given the noise-free kernel matrix ``k0``, which is not modified."""
    eye = np.eye(dataset.n)
    cov = k0 + config.noise_variance * eye
    resid = dataset.values - config.mean

    # The exact matrix is tried first; jitter is the repair on failure.
    jitter = 0.0
    while jitter <= config.jitter_max * (1.0 + 1e-12):
        try:
            chol = cholesky(cov + jitter * eye, lower=True)
        except LinAlgError:
            jitter = config.jitter_initial if jitter == 0.0 else jitter * 10.0
            continue
        alpha = cho_solve((chol, True), resid)
        return FittedGP(dataset, kernel, config, chol, alpha, jitter)
    raise NonPositiveDefiniteError(
        f"covariance factorization failed at jitter {config.jitter_max:g}"
    )


def predict(gp: FittedGP, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at one query point or a batch of rows.

    Returns floats for a single point, 1-D arrays for an (m, d) batch.
    Variances in [-1e-9, 0) are clamped to zero; anything lower raises
    :class:`NumericalError`.
    """
    query = np.asarray(query, dtype=float)
    single = query.ndim == 1
    q = np.atleast_2d(query)
    if q.shape[1] != gp.dim:
        raise DimensionMismatchError(
            f"query dimension {q.shape[1]} != model dimension {gp.dim}"
        )
    # The cached factor is finite by construction, so only the query is checked.
    if not np.isfinite(q).all():
        raise ValueError("array must not contain infs or NaNs")

    prior_var = gp.kernel.amplitude_sq
    if gp.dataset.n == 0:
        mean = np.full(q.shape[0], gp.config.mean)
        var = np.full(q.shape[0], prior_var)
    else:
        k_trans = kernel_matrix(q, gp.dataset.points, gp.kernel)
        mean = gp.config.mean + k_trans @ gp.alpha
        v = solve_triangular(gp.chol_factor, k_trans.T, lower=True, check_finite=False)
        var = prior_var - np.einsum("ij,ij->j", v, v)
        if np.any(var < VARIANCE_FLOOR):
            raise NumericalError(
                f"predicted variance {var.min():g} below {VARIANCE_FLOOR:g}"
            )
        np.maximum(var, 0.0, out=var)

    if single:
        return float(mean[0]), float(var[0])
    return mean, var


def mean_hessians(gp: FittedGP, points: np.ndarray) -> np.ndarray:
    """Exact Hessians of the posterior mean at every row of an (m, d) batch.

    The mean is the prior mean plus sum_i alpha_i k(x, x_i), and with
    d_i = x - x_i and u_i = sqrt(5) |d_i| / l the Matern-2.5 kernel's Hessian is
    (5 sigma_f^2 / 3 l^2) e^-u_i [(5 / l^2) d_i d_i^T - (1 + u_i) I]
    (Rasmussen & Williams, 2006, ch. 4 and §9.4). It has no 1/|d_i| term, so
    it is finite at the training points. Each row is computed on its own, so
    its Hessian does not depend on the other rows of the batch. The
    zero-data prior's mean is constant and its Hessians are zero.
    """
    q = np.atleast_2d(np.asarray(points, dtype=float))
    train = gp.dataset.points
    u = np.sqrt(5.0 * _sq_dists(q, train)) / gp.kernel.length_scale
    if gp.dataset.n == 0:
        return np.zeros((q.shape[0], gp.dim, gp.dim))
    ell_sq = gp.kernel.length_scale**2
    weights = gp.alpha * (5.0 * gp.kernel.amplitude_sq / (3.0 * ell_sq)) * np.exp(-u)
    diff = q[:, None, :] - train[None, :, :]
    outer = np.matmul(np.swapaxes(diff * weights[:, :, None], 1, 2), diff)
    # (w d_i) d_j and (w d_j) d_i can round differently; average the triangles.
    hess = (5.0 / ell_sq) * 0.5 * (outer + np.swapaxes(outer, 1, 2))
    diag = np.arange(gp.dim)
    hess[:, diag, diag] -= np.sum(weights * (1.0 + u), axis=1)[:, None]
    return hess


def log_marginal_likelihood(gp: FittedGP) -> float:
    """Log marginal likelihood of the training data under the fitted kernel."""
    n = gp.dataset.n
    if n == 0:
        return 0.0
    resid = gp.dataset.values - gp.config.mean
    quad = float(resid @ gp.alpha)
    logdet = float(np.sum(np.log(np.diag(gp.chol_factor))))
    return -0.5 * quad - logdet - 0.5 * n * np.log(2.0 * np.pi)


def _pack(params: KernelParams) -> np.ndarray:
    return np.array([np.log(params.amplitude_sq), np.log(params.length_scale)])


def _unpack(theta: np.ndarray) -> KernelParams:
    # Clip after exponentiating: the log/exp round trip can land a hair
    # outside the stated bounds.
    vals = np.clip(np.exp(theta), HYPER_BOUNDS[:, 0], HYPER_BOUNDS[:, 1])
    return KernelParams(float(vals[0]), float(vals[1]))


def _neg_lml_and_grad(
    theta: np.ndarray, dataset: Dataset, config: GPConfig, sqrt5_r: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient in (log sigma_f^2, log l).

    ``sqrt5_r`` is sqrt(5) times the pairwise distances of the training
    points. The value equals ``-log_marginal_likelihood(fit(...))`` bit for
    bit: K is built in ``kernel_matrix``'s expression order and factorized by
    ``fit``'s jitter loop. With u = sqrt(5) r / l, dK/dlog sigma_f^2 = K and
    dK/dlog l = sigma_f^2 e^-u u^2 (1 + u) / 3, and the likelihood gradient
    is 1/2 sum(W * dK) with W = alpha alpha^T - (K + sigma_n^2 I)^-1
    (Rasmussen & Williams, 2006, eq. 5.9). A matrix that is not positive
    definite even at ``jitter_max`` scores 1e25 with a zero gradient.
    """
    params = _unpack(theta)
    u = sqrt5_r / params.length_scale
    decay = np.exp(-u)
    k0 = params.amplitude_sq * (1.0 + u + u * u / 3.0) * decay
    try:
        model = _factorize(dataset, params, config, k0)
    except NonPositiveDefiniteError:
        return 1e25, np.zeros(2)
    value = log_marginal_likelihood(model)
    if not np.isfinite(value):
        return 1e25, np.zeros(2)
    w = np.outer(model.alpha, model.alpha) - cho_solve(
        (model.chol_factor, True), np.eye(dataset.n)
    )
    d_length = params.amplitude_sq * decay * u * u * (1.0 + u) / 3.0
    grad = np.array([np.vdot(w, k0), np.vdot(w, d_length)])
    return -value, -0.5 * grad


def optimize_hyperparameters(
    dataset: Dataset,
    kernel: KernelParams,
    config: GPConfig,
    n_restarts: int = 5,
    seed: int = 0,
) -> KernelParams:
    """Maximize the marginal likelihood over log-transformed kernel parameters.

    Runs bounded L-BFGS-B on the exact likelihood gradient from the current
    parameters plus ``n_restarts - 1`` log-uniform draws inside
    ``HYPER_BOUNDS`` and keeps the best result. The noise variance in
    ``config`` is known and stays fixed.

    Returns the best parameters found; if no restart improves on its start,
    the best starting point is returned with a RuntimeWarning.
    """
    if dataset.n < 2:
        raise ValueError("hyperparameter optimization needs at least 2 points")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")

    log_box = np.log(HYPER_BOUNDS)
    sqrt5_r = np.sqrt(5.0 * _sq_dists(dataset.points, dataset.points))
    args = (dataset, config, sqrt5_r)

    theta0 = np.clip(_pack(kernel), log_box[:, 0], log_box[:, 1])
    rng = np.random.default_rng(seed)
    starts = [theta0] + [
        rng.uniform(log_box[:, 0], log_box[:, 1]) for _ in range(n_restarts - 1)
    ]

    # Starting points themselves are candidates, so the returned likelihood
    # can never fall below any restart's start.
    best_theta, best_val = theta0, np.inf
    solver_ok = False
    for theta_start in starts:
        start_val, _ = _neg_lml_and_grad(theta_start, *args)
        if start_val < best_val:
            best_theta, best_val = theta_start, start_val
        result = minimize(
            _neg_lml_and_grad,
            theta_start,
            args=args,
            jac=True,
            method="L-BFGS-B",
            bounds=log_box,
        )
        if np.isfinite(result.fun) and result.fun <= start_val:
            solver_ok = True
            if result.fun < best_val:
                best_theta, best_val = result.x, float(result.fun)

    if not solver_ok:
        warnings.warn(
            "hyperparameter optimization failed from every restart; "
            "returning the best starting point",
            RuntimeWarning,
            stacklevel=2,
        )
    return _unpack(best_theta)
