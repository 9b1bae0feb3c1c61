"""Exact Gaussian-process regression.

Kernel evaluation, Cholesky-based posterior inference, marginal likelihood,
and restart-based hyperparameter optimization. Models are immutable after
fitting, so concurrent read-only prediction is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .errors import DimensionMismatchError, NonPositiveDefiniteError, NumericalError

# Default hyperparameter search boxes, assuming inputs scaled to the unit box.
DEFAULT_HYPER_BOUNDS: Mapping[str, tuple[float, float]] = {
    "amplitude_sq": (1e-3, 1e3),
    "length_scale": (1e-2, 1e2),
}

# Lower bound when observation-noise variance is learned rather than known.
MIN_LEARNED_NOISE = 1e-8

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

    base = kernel_matrix(dataset.points, dataset.points, kernel)
    base[np.diag_indices_from(base)] += config.noise_variance
    resid = dataset.values - config.mean

    # The exact matrix is tried first; jitter is the repair on failure.
    jitter = 0.0
    while jitter <= config.jitter_max * (1.0 + 1e-12):
        try:
            chol = cholesky(base + jitter * np.eye(dataset.n), lower=True)
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

    prior_var = gp.kernel.amplitude_sq
    if gp.dataset.n == 0:
        mean = np.full(q.shape[0], gp.config.mean)
        var = np.full(q.shape[0], prior_var)
    else:
        k_trans = kernel_matrix(q, gp.dataset.points, gp.kernel)
        mean = gp.config.mean + k_trans @ gp.alpha
        v = solve_triangular(gp.chol_factor, k_trans.T, lower=True)
        var = prior_var - np.einsum("ij,ij->j", v, v)
        if np.any(var < VARIANCE_FLOOR):
            raise NumericalError(
                f"predicted variance {var.min():g} below {VARIANCE_FLOOR:g}"
            )
        np.maximum(var, 0.0, out=var)

    if single:
        return float(mean[0]), float(var[0])
    return mean, var


def log_marginal_likelihood(gp: FittedGP) -> float:
    """Log marginal likelihood of the training data under the fitted kernel."""
    n = gp.dataset.n
    if n == 0:
        return 0.0
    resid = gp.dataset.values - gp.config.mean
    quad = float(resid @ gp.alpha)
    logdet = float(np.sum(np.log(np.diag(gp.chol_factor))))
    return -0.5 * quad - logdet - 0.5 * n * np.log(2.0 * np.pi)


def _pack(params: KernelParams, noise: float | None) -> np.ndarray:
    theta = [np.log(params.amplitude_sq), np.log(params.length_scale)]
    if noise is not None:
        theta.append(np.log(noise))
    return np.array(theta)


def _unpack(
    theta: np.ndarray, learn_noise: bool, box: np.ndarray
) -> tuple[KernelParams, float | None]:
    # Clip after exponentiating: the log/exp round trip can land a hair
    # outside the stated bounds.
    vals = np.clip(np.exp(theta), box[:, 0], box[:, 1])
    noise = float(vals[2]) if learn_noise else None
    return KernelParams(float(vals[0]), float(vals[1])), noise


def optimize_hyperparameters(
    dataset: Dataset,
    kernel: KernelParams,
    config: GPConfig,
    bounds: Mapping[str, tuple[float, float]] | None = None,
    noise_bounds: tuple[float, float] | None = None,
    n_restarts: int = 5,
    seed: int = 0,
) -> tuple[KernelParams, GPConfig]:
    """Maximize the marginal likelihood over log-transformed hyperparameters.

    Runs bounded L-BFGS-B from the current parameters plus ``n_restarts - 1``
    log-uniform draws inside the bounds and keeps the best result. The noise
    variance is treated as known unless ``noise_bounds`` is given, in which
    case it is learned (floored at 1e-8) and returned in the config.

    Returns the best parameters found; if no restart improves on its start,
    the best starting point is returned with a RuntimeWarning.
    """
    if dataset.n < 2:
        raise ValueError("hyperparameter optimization needs at least 2 points")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")

    merged = {**DEFAULT_HYPER_BOUNDS, **(bounds or {})}
    box = [merged["amplitude_sq"], merged["length_scale"]]
    learn_noise = noise_bounds is not None
    if learn_noise:
        lo, hi = noise_bounds
        box.append((max(lo, MIN_LEARNED_NOISE), hi))
    box_arr = np.asarray(box, dtype=float)
    log_box = np.log(box_arr)

    def objective(theta: np.ndarray) -> float:
        params, noise = _unpack(theta, learn_noise, box_arr)
        cfg = config if noise is None else replace(config, noise_variance=noise)
        try:
            model = fit(dataset, params, cfg)
        except NonPositiveDefiniteError:
            return 1e25
        value = log_marginal_likelihood(model)
        return -value if np.isfinite(value) else 1e25

    start_noise = config.noise_variance if learn_noise else None
    theta0 = np.clip(_pack(kernel, start_noise), log_box[:, 0], log_box[:, 1])
    rng = np.random.default_rng(seed)
    starts = [theta0] + [
        rng.uniform(log_box[:, 0], log_box[:, 1]) for _ in range(n_restarts - 1)
    ]

    # Starting points themselves are candidates, so the returned likelihood
    # can never fall below any restart's start.
    best_theta, best_val = theta0, objective(theta0)
    solver_ok = False
    for theta_start in starts:
        start_val = objective(theta_start)
        if start_val < best_val:
            best_theta, best_val = theta_start, start_val
        result = minimize(
            objective,
            theta_start,
            method="L-BFGS-B",
            bounds=[(lo, hi) for lo, hi in log_box],
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
    params, noise = _unpack(best_theta, learn_noise, box_arr)
    cfg = config if noise is None else replace(config, noise_variance=noise)
    return params, cfg
