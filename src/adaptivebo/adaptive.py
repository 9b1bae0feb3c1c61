"""Adaptive exploration/penalty state.

kappa follows a multiplicative-exponential update driven by the prediction
error relative to its moving average; lambda follows a multiplicative update
driven by the Monte-Carlo integrated posterior variance relative to its
moving average. Both stay inside hard clamping bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import FittedGP, predict

# Moving-average denominators below this are treated as zero (perfect
# prediction / vanished variance) and leave the parameter unchanged.
GUARD_EPS = 1e-12


@dataclass
class AdaptiveState:
    """Mutable per-run state: current weights, moving averages, learning rates."""

    kappa: float = 1.0
    lambda_pen: float = 0.01
    beta: float = 0.1
    gamma: float = 0.05
    eta: float = 0.1
    kappa_bounds: tuple[float, float] = (0.01, 10.0)
    lambda_max: float = 10.0
    delta_bar: float | None = None
    i_bar: float | None = None

    def __post_init__(self) -> None:
        lo, hi = self.kappa_bounds
        if not 0 < lo <= hi:
            raise ValueError("kappa bounds must satisfy 0 < min <= max")
        if not lo <= self.kappa <= hi:
            raise ValueError("kappa must start within its bounds")
        if not 0 <= self.lambda_pen <= self.lambda_max:
            raise ValueError("lambda_pen must start within [0, lambda_max]")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")


def _moving_average(old: float | None, sample: float, eta: float) -> float:
    # First sample initializes the average, making the first parameter
    # update a no-op instead of dividing by zero.
    if old is None:
        return sample
    return old + eta * (sample - old)


def record_prediction_error(
    state: AdaptiveState, observed_y: float, predicted_mean: float
) -> float:
    """Record |observed - predicted| and fold it into the moving average.

    Returns the error delta_t for this iteration.
    """
    delta = abs(float(observed_y) - float(predicted_mean))
    state.delta_bar = _moving_average(state.delta_bar, delta, state.eta)
    return delta


def record_integrated_variance(state: AdaptiveState, i_t: float) -> float:
    """Fold the integrated-variance sample into its moving average."""
    i_t = float(i_t)
    state.i_bar = _moving_average(state.i_bar, i_t, state.eta)
    return i_t


def update_kappa(state: AdaptiveState, delta_t: float) -> float:
    """kappa <- clamp(kappa * exp(beta * (delta - delta_bar)/delta_bar)).

    Requires the moving average to have been updated for this iteration
    already; a vanished average leaves kappa unchanged.
    """
    bar = state.delta_bar
    if bar is None or bar < GUARD_EPS:
        factor = 1.0
    else:
        # Cap the exponent: anything this large is clamped to kappa_max anyway,
        # and exp would otherwise overflow.
        arg = min(state.beta * (delta_t - bar) / bar, 50.0)
        factor = np.exp(arg)
    lo, hi = state.kappa_bounds
    state.kappa = float(min(max(state.kappa * factor, lo), hi))
    return state.kappa


def update_lambda(state: AdaptiveState, i_t: float) -> float:
    """lambda <- clamp(lambda * (1 + gamma * (i - i_bar)/i_bar), 0, lambda_max)."""
    bar = state.i_bar
    if bar is None or bar < GUARD_EPS:
        factor = 1.0
    else:
        factor = 1.0 + state.gamma * (i_t - bar) / bar
    state.lambda_pen = float(min(max(state.lambda_pen * factor, 0.0), state.lambda_max))
    return state.lambda_pen


def integrated_variance_mc(
    gp: FittedGP,
    lower: np.ndarray,
    upper: np.ndarray,
    n_samples: int = 1000,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of the domain integral of the posterior variance.

    Computes volume * mean(sigma^2) over ``n_samples`` uniform draws;
    deterministic for a fixed seed.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(upper <= lower):
        raise ValueError("domain must have positive extent in every coordinate")
    rng = np.random.default_rng(seed)
    samples = rng.uniform(lower, upper, size=(n_samples, lower.shape[0]))
    _, var = predict(gp, samples)
    volume = float(np.prod(upper - lower))
    return volume * float(np.mean(var))
