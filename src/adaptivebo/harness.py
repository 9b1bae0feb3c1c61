"""Experiment orchestration.

Runs the full optimization loop (initial design, GP refits with periodic
hyperparameter optimization, acquisition search, adaptive-parameter updates)
for the adaptive strategy and the fixed-UCB / expected-improvement / random
baselines, producing per-iteration traces.

The loop maximizes internally; minimization objectives are negated on the way
in and all traced values stay in the objective's original convention. Inputs
are likewise worked in the unit box and mapped back for evaluation.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, asdict
from typing import Any

import numpy as np
from scipy.stats import qmc

from .acquisition import AcquisitionParams, adaptive_acquisition_batch, expected_improvement
from .adaptive import AdaptiveState, integrated_variance_mc, record_integrated_variance, \
    record_prediction_error, update_kappa, update_lambda
from .benchmarks import FUNCTION_NAMES, TestFunction, get_test_function
from .gp import Dataset, FittedGP, GPConfig, KernelParams, fit, optimize_hyperparameters, predict
from .search import Domain, SearchConfig, propose_next

STRATEGY_KINDS = ("adaptive", "ucb", "ei", "random")

# Guard for standardizing nearly-constant observation sets.
MIN_SCALE = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the benchmark grid. Field names match the JSON config keys."""

    function: str
    dim: int
    noise_std: float = 0.005
    strategy: str = "adaptive"
    kappa_init: float = 1.0
    lambda_init: float = 0.01
    beta: float = 0.1
    gamma: float = 0.05
    eta: float = 0.1
    budget: int = 100
    n_trials: int = 30
    base_seed: int = 0
    n_init: int = 5
    refit_every: int = 10
    n_global: int = 1000
    n_refine: int = 5
    mc_samples: int = 1000
    grid_bins: int = 10

    def __post_init__(self) -> None:
        # A grid built with numpy passes numpy scalars, which json cannot
        # write. .item() keeps each value's kind: an int stays an int.
        for name, value in vars(self).items():
            if isinstance(value, np.generic):
                object.__setattr__(self, name, value.item())
        if self.function not in FUNCTION_NAMES:
            raise ValueError(f"unknown function {self.function!r}; choose from {FUNCTION_NAMES}")
        if self.strategy not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGY_KINDS}")
        if not self.budget > self.n_init >= 1:
            raise ValueError("require budget > n_init >= 1")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kappa_init < 0 or self.lambda_init < 0:
            raise ValueError("kappa_init and lambda_init must be nonnegative")
        if min(self.refit_every, self.mc_samples, self.grid_bins) < 1:
            raise ValueError("refit_every, mc_samples and grid_bins must be >= 1")
        self.search_config()  # checks n_global and n_refine
        if self.strategy == "adaptive":
            self.adaptive_state()  # checks the starting weights and eta

    def search_config(self) -> SearchConfig:
        return SearchConfig(n_global=self.n_global, n_refine=self.n_refine)

    def adaptive_state(self) -> AdaptiveState:
        return AdaptiveState(kappa=self.kappa_init, lambda_pen=self.lambda_init,
                             beta=self.beta, gamma=self.gamma, eta=self.eta)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class IterationRecord:
    """One evaluation: proposal, observation, and adaptive-state snapshot."""

    t: int
    x: np.ndarray
    y: float
    f_true: float
    kappa: float
    lambda_pen: float
    delta: float
    delta_bar: float
    i_mc: float
    i_bar: float
    best_true: float
    iter_seconds: float


@dataclass
class TrialTrace:
    """Complete record of one trial: budget iteration records plus metadata."""

    trial: int
    seed: int
    records: list[IterationRecord] = field(default_factory=list)
    final_kernel: KernelParams | None = None


@dataclass
class TrialFailure:
    """Recorded in place of a trace when a trial aborts."""

    trial: int
    seed: int
    error: str


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _scrambled_sobol(dim: int, seed: int) -> qmc.Sobol:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return qmc.Sobol(d=dim, scramble=True, seed=seed)


def _draw(sampler: qmc.Sobol, n: int) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return sampler.random(n)


class _TrialRunner:
    """State for a single trial; everything is seeded and deterministic."""

    def __init__(self, cfg: ExperimentConfig, trial_seed: int, trial_index: int):
        self.cfg = cfg
        self.seed = trial_seed
        self.fn: TestFunction = get_test_function(cfg.function, cfg.dim)
        self.unit = Domain.unit(cfg.dim)
        self.noise_rng = np.random.default_rng([trial_seed, 1])
        self.sampler = _scrambled_sobol(cfg.dim, trial_seed)
        self.trace = TrialTrace(trial=trial_index, seed=trial_seed)
        self.points_unit: list[np.ndarray] = []
        self.values_internal: list[float] = []
        self.best_true = np.inf if not self.fn.maximize else -np.inf
        # Standardization of internal values, refreshed at every refit.
        self.shift = 0.0
        self.scale = 1.0
        self.kernel = KernelParams()
        self.model: FittedGP | None = None

    def to_original(self, u: np.ndarray) -> np.ndarray:
        b = self.fn.bounds
        return b.lower + u * (b.upper - b.lower)

    def evaluate(self, x_unit: np.ndarray) -> tuple[float, float, float]:
        """Returns (f_true, y_noisy) in original convention plus internal y."""
        x = self.to_original(x_unit)
        f_true = float(self.fn.evaluator(x))
        y = f_true
        if self.cfg.noise_std > 0:
            y += float(self.noise_rng.normal(0.0, self.cfg.noise_std))
        y_internal = y if self.fn.maximize else -y
        return f_true, y, y_internal

    def update_best(self, f_true: float) -> float:
        if self.fn.maximize:
            self.best_true = max(self.best_true, f_true)
        else:
            self.best_true = min(self.best_true, f_true)
        return self.best_true

    def refit(self) -> None:
        """Standardize observations and refit; re-optimize hyperparameters
        whenever the evaluation count is a multiple of ``refit_every``."""
        y = np.asarray(self.values_internal)
        self.shift = float(y.mean())
        self.scale = float(max(y.std(), MIN_SCALE))
        y_std = (y - self.shift) / self.scale
        noise_var = (self.cfg.noise_std / self.scale) ** 2
        gp_config = GPConfig(noise_variance=noise_var)
        data = Dataset(np.asarray(self.points_unit), y_std)
        n = data.n
        if n >= 2 and n % self.cfg.refit_every == 0:
            self.kernel = optimize_hyperparameters(
                data, self.kernel, gp_config, seed=_derived_seed(self.seed, 3, n)
            )
        self.model = fit(data, self.kernel, gp_config)

    def predict_internal(self, x_unit: np.ndarray) -> float:
        mean_std, _ = predict(self.model, x_unit)
        return mean_std * self.scale + self.shift

    def make_acquisition(self, state: AdaptiveState | None):
        cfg, model = self.cfg, self.model
        if cfg.strategy == "ei":
            f_best_std = (max(self.values_internal) - self.shift) / self.scale

            def acq(points: np.ndarray) -> np.ndarray:
                mean, var = predict(model, np.atleast_2d(points))
                return expected_improvement(mean, np.sqrt(var), f_best_std)

            return acq

        if cfg.strategy == "adaptive":
            params = AcquisitionParams(kappa=state.kappa, lambda_pen=state.lambda_pen)
        else:  # fixed-kappa UCB
            params = AcquisitionParams(kappa=cfg.kappa_init, lambda_pen=0.0)

        def acq(points: np.ndarray) -> np.ndarray:
            return adaptive_acquisition_batch(model, points, params)

        return acq


def run_trial(cfg: ExperimentConfig, trial_seed: int, trial_index: int = 0) -> TrialTrace:
    """Execute one seeded trial of ``budget`` evaluations and return its trace."""
    runner = _TrialRunner(cfg, trial_seed, trial_index)
    random_search = cfg.strategy == "random"
    adaptive = cfg.strategy == "adaptive"
    state = cfg.adaptive_state() if adaptive else None
    kappa0 = cfg.kappa_init if cfg.strategy in ("adaptive", "ucb") else 0.0
    lambda0 = cfg.lambda_init if adaptive else 0.0

    # Initial design, counted against the budget. Random search is a design of
    # ``budget`` points with kappa = lambda = 0: the seeded scrambled-Sobol stream.
    init_points = _draw(runner.sampler, cfg.budget if random_search else cfg.n_init)
    for i, x_unit in enumerate(init_points):
        start = time.perf_counter()
        f_true, y, y_internal = runner.evaluate(x_unit)
        runner.points_unit.append(np.asarray(x_unit))
        runner.values_internal.append(y_internal)
        best = runner.update_best(f_true)
        runner.trace.records.append(IterationRecord(
            t=i + 1, x=runner.to_original(x_unit), y=y, f_true=f_true,
            kappa=kappa0, lambda_pen=lambda0, delta=0.0, delta_bar=0.0,
            i_mc=0.0, i_bar=0.0, best_true=best,
            iter_seconds=time.perf_counter() - start,
        ))
    if random_search:
        return runner.trace
    runner.refit()

    search_cfg = cfg.search_config()
    for t in range(cfg.n_init + 1, cfg.budget + 1):
        start = time.perf_counter()
        kappa_used = state.kappa if adaptive else kappa0
        lambda_used = state.lambda_pen if adaptive else 0.0

        acq = runner.make_acquisition(state)
        x_unit = propose_next(runner.model, acq, runner.unit, search_cfg)
        mu_prev = runner.predict_internal(x_unit)

        f_true, y, y_internal = runner.evaluate(x_unit)
        best = runner.update_best(f_true)

        delta = delta_bar = i_mc = i_bar = 0.0
        if adaptive:
            delta = record_prediction_error(state, y_internal, mu_prev)
            delta_bar = state.delta_bar
            update_kappa(state, delta)

        runner.points_unit.append(np.asarray(x_unit))
        runner.values_internal.append(y_internal)
        runner.refit()

        if adaptive:
            unit_iv = integrated_variance_mc(
                runner.model, runner.unit.lower, runner.unit.upper,
                n_samples=cfg.mc_samples, seed=_derived_seed(runner.seed, 2, t),
            )
            i_mc = runner.fn.bounds.volume * runner.scale**2 * unit_iv
            record_integrated_variance(state, i_mc)
            i_bar = state.i_bar
            update_lambda(state, i_mc)

        runner.trace.records.append(IterationRecord(
            t=t, x=runner.to_original(x_unit), y=y, f_true=f_true,
            kappa=kappa_used, lambda_pen=lambda_used,
            delta=delta, delta_bar=delta_bar, i_mc=i_mc, i_bar=i_bar,
            best_true=best, iter_seconds=time.perf_counter() - start,
        ))

    runner.trace.final_kernel = runner.kernel
    return runner.trace


def trial_seed_for(cfg: ExperimentConfig, trial_index: int) -> int:
    """Trial seeds are derived as base_seed + trial index."""
    return cfg.base_seed + trial_index


def _trial_task(cfg_dict: dict, trial_index: int):
    cfg = ExperimentConfig.from_dict(cfg_dict)
    seed = trial_seed_for(cfg, trial_index)
    try:
        return run_trial(cfg, seed, trial_index)
    except Exception as exc:  # one bad trial must not cost the finished ones
        return TrialFailure(trial=trial_index, seed=seed, error=f"{type(exc).__name__}: {exc}")


def _pool_outcome(cfg: ExperimentConfig, trial_index: int, future: Future):
    # A worker that dies (killed, out of memory, os._exit) breaks the pool and
    # every trial not yet finished; the finished ones keep their results.
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return TrialFailure(trial=trial_index, seed=trial_seed_for(cfg, trial_index),
                            error=f"BrokenProcessPool: {exc}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    traces: list[TrialTrace]
    failures: list[TrialFailure]


def run_experiment(cfg: ExperimentConfig, n_workers: int = 1) -> ExperimentResult:
    """Run ``n_trials`` independently seeded trials (optionally in parallel).

    A trial that raises any exception, or that a dead pool worker takes down,
    is recorded as a :class:`TrialFailure` and skipped; successful traces are
    returned in trial order.
    """
    indices = list(range(cfg.n_trials))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(_trial_task, cfg.to_dict(), i) for i in indices]
            outcomes = [_pool_outcome(cfg, i, future) for i, future in zip(indices, futures)]
    else:
        outcomes = [_trial_task(cfg.to_dict(), i) for i in indices]

    traces = [o for o in outcomes if isinstance(o, TrialTrace)]
    failures = [o for o in outcomes if isinstance(o, TrialFailure)]
    return ExperimentResult(config=cfg, traces=traces, failures=failures)
