"""Acquisition functions.

Expected Improvement, and the penalized acquisition mu + kappa*sigma - lambda*U,
where U(x) = sigma^2(x) * C(x) weights the posterior variance by a curvature
complexity factor C(x): the sum of floored absolute eigenvalues of the exact
Hessian of the posterior mean, ``complexity_factor(mean_hessians(gp, x))``.
lambda = 0 is fixed-weight UCB, mu + kappa*sigma.
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
    return np.maximum(ei, 0.0)


def complexity_factor(hess: np.ndarray, eps_eig: float = EPS_EIG) -> np.ndarray:
    """Sum of absolute eigenvalues, each floored at ``eps_eig``, of (..., d, d) Hessians."""
    try:
        eigvals = np.linalg.eigvalsh(hess)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Hessian eigendecomposition failed") from exc
    return np.sum(np.maximum(np.abs(eigvals), eps_eig), axis=-1)


def complexity_factor_batch(gp: FittedGP, points: np.ndarray) -> np.ndarray:
    """Complexity factors C(x) of the posterior mean for an (m, d) batch."""
    return complexity_factor(mean_hessians(gp, points))


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
