"""Acquisition maximization over a box domain.

Two stages: a deterministic Sobol global sweep, then bounded L-BFGS-B
refinement of the top candidates using central-difference gradients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .errors import DimensionMismatchError, SearchFailureError, UnsupportedDimensionError
from .gp import FittedGP

# Dimension cap for the quasi-random generator (direction-number coverage).
SOBOL_MAX_DIM = 21
# Leading Sobol points dropped from the global sweep (the all-zeros corner).
SOBOL_SKIP = 1

# Local refinement: L-BFGS-B iteration cap, projected-gradient tolerance and
# the central-difference step of its gradients.
MAX_LOCAL_ITERS = 100
LOCAL_TOL = 1e-5
GRAD_STEP = 1e-6


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box with strictly positive extent in every coordinate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size < 1:
            raise ValueError("bounds must be matching 1-D vectors")
        if not np.all(lower < upper):
            raise ValueError("require lower < upper componentwise")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @staticmethod
    def unit(dim: int) -> "Domain":
        return Domain(np.zeros(dim), np.ones(dim))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass(frozen=True)
class SearchConfig:
    """Candidate counts for acquisition search."""

    n_global: int = 1000
    n_refine: int = 5

    def __post_init__(self) -> None:
        if min(self.n_global, self.n_refine) < 1:
            raise ValueError("n_global and n_refine must be >= 1")
        if self.n_refine > self.n_global:
            raise ValueError("n_refine cannot exceed n_global")


def sobol_samples(domain: Domain, n: int, skip: int = SOBOL_SKIP) -> np.ndarray:
    """First ``n`` points of the Sobol sequence after ``skip``, mapped into the box.

    Unscrambled and therefore identical across calls. ``skip=1`` drops the
    all-zeros first element.
    """
    if domain.dim > SOBOL_MAX_DIM:
        raise UnsupportedDimensionError(
            f"Sobol sampling supports d <= {SOBOL_MAX_DIM}, got {domain.dim}"
        )
    engine = qmc.Sobol(d=domain.dim, scramble=False)
    if skip > 0:
        engine.fast_forward(skip)
    with warnings.catch_warnings():
        # Drawing a non power-of-two count degrades balance only, not validity.
        warnings.simplefilter("ignore", UserWarning)
        unit = engine.random(n)
    return domain.lower + unit * (domain.upper - domain.lower)


def _refine(acq, x0: np.ndarray, domain: Domain) -> np.ndarray:
    dim = domain.dim
    eye = np.eye(dim)

    def neg_with_grad(z: np.ndarray):
        pts = np.vstack([z[None, :], z + GRAD_STEP * eye, z - GRAD_STEP * eye])
        vals = np.asarray(acq(pts), dtype=float)
        grad = (vals[1 : 1 + dim] - vals[1 + dim :]) / (2.0 * GRAD_STEP)
        return -vals[0], -grad

    result = minimize(
        neg_with_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(domain.lower, domain.upper)),
        # LOCAL_TOL is the projected-gradient tolerance; the relative
        # function-value tolerance keeps the solver's tighter default.
        options={"maxiter": MAX_LOCAL_ITERS, "gtol": LOCAL_TOL},
    )
    return np.clip(result.x, domain.lower, domain.upper)


def propose_next(
    gp: FittedGP, acq, domain: Domain, cfg: SearchConfig | None = None
) -> np.ndarray:
    """Maximize a batch acquisition evaluator over the domain.

    ``acq`` maps an (m, d) array to an (m,) array of finite scores (non-finite
    candidates are discarded). Evaluates the Sobol candidates, refines the
    ``n_refine`` best, and returns the overall argmax; ties resolve to the
    lowest candidate index. The result always lies inside the box.
    """
    if cfg is None:
        cfg = SearchConfig()
    if gp is not None and gp.dim != domain.dim:
        raise DimensionMismatchError(
            f"model dimension {gp.dim} != domain dimension {domain.dim}"
        )
    candidates = sobol_samples(domain, cfg.n_global)
    values = np.asarray(acq(candidates), dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        raise SearchFailureError("acquisition returned no finite values")
    values = np.where(finite, values, -np.inf)

    top = np.argsort(-values, kind="stable")[: cfg.n_refine]
    points = [candidates]
    scores = [values]
    for idx in top:
        if not finite[idx]:
            continue
        refined = _refine(acq, candidates[idx], domain)
        val = float(np.asarray(acq(refined[None, :]), dtype=float)[0])
        # Keep a refined point only when it genuinely beats its start, so
        # refinement can never lose the incumbent.
        if np.isfinite(val) and val > values[idx]:
            points.append(refined[None, :])
            scores.append(np.array([val]))

    all_points = np.vstack(points)
    all_scores = np.concatenate(scores)
    best = int(np.argmax(all_scores))
    return all_points[best].copy()
