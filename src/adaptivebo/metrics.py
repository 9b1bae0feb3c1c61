"""Performance metrics computed from trial traces.

All metrics use the logged noise-free values and the benchmark's original
(minimization or maximization) convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import TestFunction
from .harness import TrialTrace

CONVERGENCE_THRESHOLDS = (0.10, 0.05, 0.01)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial summary of a trace."""

    trial: int
    seed: int
    best_value: float
    simple_regret: float
    conv_iters_10: int | None
    conv_iters_5: int | None
    conv_iters_1: int | None
    exploration_efficiency: float
    mean_iter_seconds: float


@dataclass(frozen=True)
class ExperimentSummary:
    """Across-trial aggregate of best values and simple regrets."""

    n_trials: int
    best_mean: float
    best_median: float
    best_std: float
    regret_mean: float
    regret_median: float
    regret_std: float


def _gap_series(f_true: np.ndarray, fn: TestFunction) -> np.ndarray:
    """Per-step distance to the optimum, nonnegative for exact optima."""
    if fn.maximize:
        return fn.optimum_value - f_true
    return f_true - fn.optimum_value


def _best_gap_series(f_true: np.ndarray, fn: TestFunction) -> np.ndarray:
    return np.minimum.accumulate(_gap_series(f_true, fn))


def compute_metrics(
    trace: TrialTrace, fn: TestFunction, grid_bins: int = 10, n_init: int = 5
) -> TrialMetrics:
    """Summarize one trace.

    Convergence counts are the first iteration whose best-so-far gap falls
    to 10/5/1 percent of the gap at the end of the initial design (None when
    never reached). Exploration efficiency is the number of distinct occupied
    grid cells over the budget, with each dimension split into ``grid_bins``.
    """
    f_true = np.array([r.f_true for r in trace.records])
    best_gap = _best_gap_series(f_true, fn)
    budget = len(trace.records)

    best_value = float(np.max(f_true) if fn.maximize else np.min(f_true))
    simple_regret = float(best_gap[-1])

    base_gap = best_gap[min(n_init, budget) - 1]
    conv: list[int | None] = []
    for threshold in CONVERGENCE_THRESHOLDS:
        hit = np.nonzero(best_gap <= threshold * base_gap)[0]
        conv.append(int(hit[0]) + 1 if hit.size else None)

    lower, upper = fn.bounds.lower, fn.bounds.upper
    width = upper - lower
    cells = set()
    for record in trace.records:
        idx = np.floor((record.x - lower) / width * grid_bins).astype(int)
        np.clip(idx, 0, grid_bins - 1, out=idx)
        cells.add(tuple(idx))
    exploration = len(cells) / budget

    mean_seconds = float(np.mean([r.iter_seconds for r in trace.records]))
    return TrialMetrics(
        trial=trace.trial,
        seed=trace.seed,
        best_value=best_value,
        simple_regret=simple_regret,
        conv_iters_10=conv[0],
        conv_iters_5=conv[1],
        conv_iters_1=conv[2],
        exploration_efficiency=exploration,
        mean_iter_seconds=mean_seconds,
    )


def summarize(metrics: list[TrialMetrics]) -> ExperimentSummary:
    """Aggregate per-trial metrics (mean/median/std of bests and regrets)."""
    bests = np.array([m.best_value for m in metrics])
    regrets = np.array([m.simple_regret for m in metrics])
    return ExperimentSummary(
        n_trials=len(metrics),
        best_mean=float(bests.mean()),
        best_median=float(np.median(bests)),
        best_std=float(bests.std()),
        regret_mean=float(regrets.mean()),
        regret_median=float(np.median(regrets)),
        regret_std=float(regrets.std()),
    )


@dataclass(frozen=True)
class RegretCurves:
    """Per-iteration regret series across a collection of equal-length traces.

    Rows index trials, columns iterations. ``rate`` is cumulative regret
    divided by the iteration count, the series whose decay indicates
    sublinear cumulative regret.
    """

    simple: np.ndarray
    cumulative: np.ndarray
    rate: np.ndarray


def regret_curve(traces: list[TrialTrace], fn: TestFunction) -> RegretCurves:
    """Simple and cumulative regret series for equal-length traces."""
    lengths = {len(t.records) for t in traces}
    if len(lengths) != 1:
        raise ValueError("all traces must have equal length")
    gaps = np.array([
        _gap_series(np.array([r.f_true for r in t.records]), fn) for t in traces
    ])
    simple = np.minimum.accumulate(gaps, axis=1)
    cumulative = np.cumsum(gaps, axis=1)
    steps = np.arange(1, gaps.shape[1] + 1)
    return RegretCurves(simple=simple, cumulative=cumulative, rate=cumulative / steps)
