"""Acquisition functions.

Fixed-weight UCB, Expected Improvement, and the penalized acquisition
mu + kappa*sigma - lambda*U, where U(x) = sigma^2(x) * C(x) weights the
posterior variance by a curvature complexity factor C(x): the sum of
floored absolute eigenvalues of the exact Hessian of the posterior mean
(``gp.mean_hessians``). ``hessian_fd`` estimates the Hessian of any batch
function by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import NumericalError
from .gp import FittedGP, mean_hessians, predict


# Floor on each absolute Hessian eigenvalue in C(x).
EPS_EIG = 1e-6


@dataclass(frozen=True)
class AcquisitionParams:
    """Weights of the penalized acquisition."""

    kappa: float = 1.0
    lambda_pen: float = 0.0

    def __post_init__(self) -> None:
        if self.kappa < 0 or self.lambda_pen < 0:
            raise ValueError("kappa and lambda_pen must be nonnegative")


@dataclass(frozen=True)
class HessianEstimate:
    """Symmetric second-derivative matrix of a function, checked to be finite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Hessian must be a square matrix")
        if not np.isfinite(m).all():
            raise NumericalError("Hessian contains non-finite entries")


def ucb(mean, sd, kappa):
    """Upper confidence bound mean + kappa*sd (vectorizes over arrays)."""
    return mean + kappa * sd


def expected_improvement(mean, sd, f_best):
    """Expected improvement over ``f_best`` for a Gaussian belief (maximization).

    Closed form (mean - f_best) Phi(z) + sd phi(z) with z = (mean - f_best)/sd;
    the sd = 0 limit is max(mean - f_best, 0). Vectorizes over arrays.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    imp = mean - f_best
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, imp / np.where(sd > 0, sd, 1.0), 0.0)
        ei = np.where(sd > 0, imp * norm.cdf(z) + sd * norm.pdf(z), np.maximum(imp, 0.0))
    ei = np.maximum(ei, 0.0)
    if ei.ndim == 0:
        return float(ei)
    return ei


def _eigen_sum(hess: np.ndarray, eps_eig: float) -> np.ndarray:
    """Sum of absolute eigenvalues, each floored at ``eps_eig``, over the last two axes."""
    try:
        eigvals = np.linalg.eigvalsh(hess)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Hessian eigendecomposition failed") from exc
    return np.sum(np.maximum(np.abs(eigvals), eps_eig), axis=-1)


def hessian_fd(mean_fn, x: np.ndarray, h: float, lower=None, upper=None) -> HessianEstimate:
    """Finite-difference Hessian of ``mean_fn`` at ``x`` via a four-point forward stencil.

    ``mean_fn`` maps a (k, d) batch to a (k,) array and is called once, on
    the (d^2 + 3d)/2 + 1 stencil points base, base + h e_i and
    base + (h e_i + h e_j) for i <= j. Entry (i, j) is
    [f(x+he_i+he_j) - f(x+he_i) - f(x+he_j) + f(x)] / h^2, written to both
    triangles. The stencil reaches base + 2h per coordinate, so when box
    bounds are given the base slides inward and every evaluation stays inside.
    """
    base = np.asarray(x, dtype=float)
    if upper is not None:
        base = np.minimum(base, np.asarray(upper, dtype=float) - 2.0 * h)
    if lower is not None:
        base = np.maximum(base, np.asarray(lower, dtype=float))
    dim = base.size
    steps = h * np.eye(dim)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    stencil = [base] + [base + steps[i] for i in range(dim)]
    stencil += [base + (steps[i] + steps[j]) for i, j in pairs]
    values = np.asarray(mean_fn(np.array(stencil)), dtype=float)
    f0, fi, fij = values[0], values[1 : 1 + dim], values[1 + dim :]
    hess = np.empty((dim, dim))
    for k, (i, j) in enumerate(pairs):
        hess[i, j] = hess[j, i] = (fij[k] - fi[i] - fi[j] + f0) / (h * h)
    return HessianEstimate(hess)


def complexity_factor(hessian: HessianEstimate, eps_eig: float = EPS_EIG) -> float:
    """Sum of absolute Hessian eigenvalues, each floored at ``eps_eig``."""
    return float(_eigen_sum(hessian.matrix, eps_eig))


def complexity_factor_batch(gp: FittedGP, points: np.ndarray) -> np.ndarray:
    """Complexity factors C(x) of the posterior mean for an (m, d) batch."""
    return _eigen_sum(mean_hessians(gp, points), EPS_EIG)


def adaptive_acquisition_batch(
    gp: FittedGP, points: np.ndarray, params: AcquisitionParams
) -> np.ndarray:
    """Penalized acquisition mu + kappa*sigma - lambda * sigma^2 * C over an (m, d) batch."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    mean, var = predict(gp, points)
    base = mean + params.kappa * np.sqrt(var)
    if params.lambda_pen == 0.0:
        return base
    return base - params.lambda_pen * (var * complexity_factor_batch(gp, points))


def uncertainty_measure(gp: FittedGP, x: np.ndarray, params: AcquisitionParams) -> float:
    """Variance-weighted local complexity sigma^2(x) * C(x) at a point.

    ``params`` carries no setting U depends on; it mirrors :func:`adaptive_acquisition`.
    """
    point = np.asarray(x, dtype=float)[None, :]
    _, var = predict(gp, point)
    return float(var[0] * complexity_factor_batch(gp, point)[0])


def adaptive_acquisition(gp: FittedGP, x: np.ndarray, params: AcquisitionParams) -> float:
    """Penalized acquisition at a single point (a one-row batch)."""
    point = np.asarray(x, dtype=float)[None, :]
    return float(adaptive_acquisition_batch(gp, point, params)[0])
