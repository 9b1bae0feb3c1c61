"""Benchmark objectives with known or estimated optima."""

from __future__ import annotations

import warnings
from functools import lru_cache
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import minimize

from .errors import DimensionMismatchError
from .search import Domain

# Evaluation boxes. Only the Gaussian mixture's box is prescribed; the rest
# are the conventional boxes containing the stated optima.
ROSENBROCK_BOX = (-2.048, 2.048)
ACKLEY_BOX = (-5.0, 5.0)
LEVY_BOX = (-10.0, 10.0)
MIXTURE_BOX = (-5.0, 5.0)

FUNCTION_NAMES = ("rosenbrock", "ackley", "levy", "gauss_mix")


def rosenbrock(x) -> float:
    """Banana-valley function; minimum 0 at (1, ..., 1). Needs d >= 2."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DimensionMismatchError("rosenbrock requires dimension >= 2")
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2))


def ackley(x) -> float:
    """Flat-shell function with a central funnel; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    d = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x**2) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / d)
        + 20.0
        + np.e
    )


def levy(x) -> float:
    """Heavily multimodal function; minimum 0 at (1, ..., 1).

    Uses w_i = 1 + (x_i - 1)/4; for d = 1 only the first and last terms
    remain, with w_1 = w_d.
    """
    x = np.asarray(x, dtype=float)
    w = 1.0 + (x - 1.0) / 4.0
    head = np.sin(np.pi * w[0]) ** 2
    tail = (w[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[-1]) ** 2)
    middle = np.sum((w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[:-1] + 1.0) ** 2))
    return float(head + middle + tail)


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Randomly generated sum of anisotropic Gaussian bumps (no normalizers)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    seed: int

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    # Haar-distributed via QR with sign-corrected diagonal.
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def make_gaussian_mixture(seed: int, d: int, m: int = 5) -> GaussianMixtureSpec:
    """Deterministically generate a mixture landscape on the [-5, 5]^d box.

    Means are uniform in the box, weights come from a flat Dirichlet, and each
    covariance is Q diag(eigs) Q^T with random orthogonal Q and log-uniform
    eigenvalues in [0.1, 2.0] (condition numbers up to 20).
    """
    if d < 1 or m < 1:
        raise ValueError("require d >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = MIXTURE_BOX
    means = rng.uniform(lo, hi, size=(m, d))
    weights = rng.dirichlet(np.ones(m))
    covariances = np.empty((m, d, d))
    for j in range(m):
        q = _random_orthogonal(rng, d)
        eigs = np.exp(rng.uniform(np.log(0.1), np.log(2.0), size=d))
        covariances[j] = (q * eigs) @ q.T
    return GaussianMixtureSpec(weights, means, covariances, seed)


def gaussian_mixture_eval(spec: GaussianMixtureSpec, x) -> float:
    """Sum over components of a_j * exp(-1/2 (x-mu_j)^T Sigma_j^-1 (x-mu_j))."""
    x = np.asarray(x, dtype=float)
    if x.size != spec.dim:
        raise DimensionMismatchError(
            f"point dimension {x.size} != mixture dimension {spec.dim}"
        )
    total = 0.0
    for j in range(spec.n_components):
        diff = x - spec.means[j]
        chol = cholesky(spec.covariances[j], lower=True)
        quad = float(diff @ cho_solve((chol, True), diff))
        total += spec.weights[j] * np.exp(-0.5 * quad)
    return float(total)


@dataclass(frozen=True)
class TestFunction:
    """Benchmark descriptor: evaluator, box, and known (or estimated) optimum."""

    name: str
    dim: int
    bounds: Domain
    optimum_point: np.ndarray
    optimum_value: float
    evaluator: Callable = field(repr=False)
    maximize: bool = False
    optimum_estimated: bool = False


def _estimate_mixture_optimum(spec: GaussianMixtureSpec, domain: Domain):
    """Dense multistart search for the mixture maximum (recorded as estimated)."""
    rng = np.random.default_rng(spec.seed + 1)
    starts = np.vstack(
        [spec.means, rng.uniform(domain.lower, domain.upper, size=(64, spec.dim))]
    )

    def neg(x):
        return -gaussian_mixture_eval(spec, x)

    best_x, best_v = None, np.inf
    bounds = list(zip(domain.lower, domain.upper))
    for x0 in np.clip(starts, domain.lower, domain.upper):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = minimize(neg, x0, method="L-BFGS-B", bounds=bounds)
        if res.fun < best_v:
            best_x, best_v = np.clip(res.x, domain.lower, domain.upper), float(res.fun)
    return best_x, -best_v


@lru_cache(maxsize=8)
def _mixture(mixture_seed: int, dim: int) -> tuple[GaussianMixtureSpec, np.ndarray, float]:
    """The mixture landscape and its estimated optimum, built once per process.

    Callers must not modify the returned arrays; ``get_test_function`` copies
    the optimum point before handing it out.
    """
    lo, hi = MIXTURE_BOX
    domain = Domain(np.full(dim, lo), np.full(dim, hi))
    spec = make_gaussian_mixture(mixture_seed, dim)
    x_star, f_star = _estimate_mixture_optimum(spec, domain)
    return spec, x_star, f_star


def get_test_function(name: str, dim: int, mixture_seed: int = 0) -> TestFunction:
    """Construct a named benchmark at the given dimension.

    The Gaussian mixture landscape is seeded (default seed 0) so it is a fixed
    maximization benchmark; its optimum is estimated by multistart search and
    flagged as such. That search is memoized per process, so only the first
    call for a (seed, dim) pair pays for it.
    """
    if name == "rosenbrock":
        if dim < 2:
            raise DimensionMismatchError("rosenbrock requires dimension >= 2")
        lo, hi = ROSENBROCK_BOX
        return TestFunction(
            name, dim, Domain(np.full(dim, lo), np.full(dim, hi)),
            np.ones(dim), 0.0, rosenbrock,
        )
    if name == "ackley":
        lo, hi = ACKLEY_BOX
        return TestFunction(
            name, dim, Domain(np.full(dim, lo), np.full(dim, hi)),
            np.zeros(dim), 0.0, ackley,
        )
    if name == "levy":
        lo, hi = LEVY_BOX
        return TestFunction(
            name, dim, Domain(np.full(dim, lo), np.full(dim, hi)),
            np.ones(dim), 0.0, levy,
        )
    if name == "gauss_mix":
        lo, hi = MIXTURE_BOX
        domain = Domain(np.full(dim, lo), np.full(dim, hi))
        spec, x_star, f_star = _mixture(mixture_seed, dim)

        def evaluator(x, _spec=spec):
            return gaussian_mixture_eval(_spec, x)

        return TestFunction(
            "gauss_mix", dim, domain, x_star.copy(), f_star, evaluator,
            maximize=True, optimum_estimated=True,
        )
    raise ValueError(f"unknown test function {name!r}; choose from {FUNCTION_NAMES}")
