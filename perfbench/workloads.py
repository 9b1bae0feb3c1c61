"""Workloads, metric catalogue and per-layer predictions of the benchmark.

Everything here is plain data; ``run.py`` and ``measure.py`` read it, and
``BENCHMARK.json`` repeats the names and units and adds the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ROSEN = "rosen2d-ucb"
ACKLEY = "ackley10d-adaptive"
GAUSSMIX = "gaussmix2d-ei-pool"


@dataclass(frozen=True)
class Workload:
    """One benchmark cell and how it is driven.

    ``cell`` holds the ``ExperimentConfig`` fields; trial seeds come from the
    benchmark's ``--seed``. ``workers > 1`` drives the cell through
    ``run_experiment`` in batches of ``min_trials`` trials, as
    ``adaptivebo run --parallel <workers>`` would; ``workers == 1`` calls
    ``run_trial`` in the measuring process. The thread budget is
    ``workers * blas_threads`` and never exceeds the CPUs the run may use.
    """

    name: str
    cell: dict
    workers: int
    blas_threads: int
    # Trials (or, for the pool, trials of the first batch) that every run
    # makes whatever --seconds says; quality and count metrics use exactly
    # these, so they repeat exactly for a fixed seed.
    min_trials: int


WORKLOADS = {w.name: w for w in (
    # Cheap 2-D cell: the search layer and hyperparameter fitting dominate.
    # lambda = 0 returns before complexity_factor_batch, so this is the
    # workload on which a penalty optimisation must show no change. Budget
    # 40, not 100, so that one run holds about 100 trials: iteration time
    # climbs from about 2.5 to 15 ms over a trial, at a point that differs
    # between seeds; with 20 trials of budget 100 per run the median
    # iteration moved by 18% between seeds, and with 70 of budget 50 the
    # median trial by 8%.
    Workload(
        ROSEN, dict(function="rosenbrock", dim=2, strategy="ucb", budget=40),
        workers=1, blas_threads=1, min_trials=10,
    ),
    # The mechanism under study: the FD-Hessian stencil of the penalty and
    # its predict rows take about 85% of a trial. The budget is cut from 100
    # to 10 so that one run holds about 90 trials: trial cost follows the
    # L-BFGS-B work, which at budget 15 varied by 18% between trials and at
    # budget 10 by 11%. All five proposals then use the default kernel (the
    # first hyperparameter refit comes with the last evaluation), and
    # per-iteration cost grows with the data size, so a budget-100 trial
    # costs more per iteration than these.
    Workload(
        ACKLEY, dict(function="ackley", dim=10, strategy="adaptive", budget=10),
        workers=1, blas_threads=1, min_trials=10,
    ),
    # Throughput: the process pool plus the post-processing of `run`. Each
    # trial rebuilds the mixture and re-runs its multistart optimum search.
    # One BLAS thread per worker: at the default (one per core) the same
    # 4-trial run took 5.3-33 s over four runs on 2 cores, against 2.0 s.
    Workload(
        GAUSSMIX, dict(function="gauss_mix", dim=2, strategy="ei", budget=100),
        workers=2, blas_threads=1, min_trials=8,
    ),
)}

# Trial seeds of a run are SEED_STRIDE * --seed + 0, 1, 2, ...
SEED_STRIDE = 1000
# Reserved for confirming a claim after the change is written; do not tune on it.
HELD_OUT_SEED = 977


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    # workload -> the end-to-end metric(s) this layer metric should move;
    # on any workload not listed the prediction is "no change".
    moves: dict = field(default_factory=dict)


END_TO_END = (
    Metric("trial_s_p50", "s", "lower", "median wall time of one trial"),
    Metric("iter_ms_p50", "ms", "lower", "median iter_seconds of the BO iterations"),
    Metric("iter_ms_p95", "ms", "lower", "95th percentile of iter_seconds (refit iterations)"),
    Metric("trials_per_s", "1/s", "higher", "completed trials / wall time of the whole run"),
    Metric("setup_s", "s", "lower",
           "median of fresh-process import + config + get_test_function"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak RSS of the measuring process plus workers x largest worker"),
)

_ALL = (ROSEN, ACKLEY, GAUSSMIX)


def _on(workloads, effect):
    return {w: effect for w in workloads}


LAYERS = (
    Metric("acquisition.complexity_factor_batch.s", "s", "lower",
           "self time of the FD-Hessian complexity factor",
           _on((ACKLEY,), "trial_s_p50, iter_ms_p50")),
    Metric("acquisition.stencil_rows", "count", "lower",
           "predict rows issued by complexity_factor_batch",
           _on((ACKLEY,), "trial_s_p50, iter_ms_p50")),
    Metric("acquisition.adaptive_acquisition_batch.s", "s", "lower",
           "self time of the UCB / penalized acquisition",
           _on((ROSEN, ACKLEY), "iter_ms_p50")),
    Metric("acquisition.expected_improvement.s", "s", "lower",
           "self time of expected improvement",
           _on((GAUSSMIX,), "iter_ms_p50")),
    Metric("search.propose_next.s", "s", "lower",
           "self time of propose_next: Sobol set, L-BFGS-B machinery",
           _on(_ALL, "iter_ms_p50")),
    Metric("search.sweep.s", "s", "lower",
           "inclusive time of the first acquisition call (Sobol sweep)",
           _on(_ALL, "iter_ms_p50")),
    Metric("search.refine.s", "s", "lower",
           "inclusive time of the rest of propose_next (refinement)",
           _on(_ALL, "iter_ms_p50")),
    Metric("search.lbfgs_evals", "count", "lower",
           "L-BFGS-B objective evaluations (2d+1-row acquisition calls)",
           _on(_ALL, "iter_ms_p50")),
    Metric("search.acq_rows", "count", "lower",
           "rows passed to the acquisition", _on(_ALL, "iter_ms_p50")),
    Metric("search.refine_win_frac", "ratio", "higher",
           "proposals that are not a Sobol candidate"),
    Metric("gp.predict.s", "s", "lower", "self time of predict", _on(_ALL, "iter_ms_p50")),
    Metric("gp.predict.calls", "count", "lower", "predict calls", _on(_ALL, "iter_ms_p50")),
    Metric("gp.predict.rows", "count", "lower", "predict query rows", _on(_ALL, "iter_ms_p50")),
    Metric("gp.optimize_hyperparameters.s", "s", "lower",
           "self time of hyperparameter optimisation (inner fits excluded)",
           _on(_ALL, "iter_ms_p95")),
    Metric("gp.lml_evals", "count", "lower", "log marginal likelihood evaluations",
           _on(_ALL, "iter_ms_p95")),
    Metric("gp.fit.s", "s", "lower", "self time of fit (Cholesky), all callers",
           _on(_ALL, "iter_ms_p95")),
    Metric("gp.fit.calls", "count", "lower", "fit calls, all callers",
           _on(_ALL, "iter_ms_p95")),
    Metric("gp.fit.jitter_frac", "ratio", "lower", "fits that needed diagonal jitter"),
    Metric("adaptive.integrated_variance_mc.s", "s", "lower",
           "self time of the MC integrated variance", _on((ACKLEY,), "iter_ms_p50")),
    Metric("benchmarks.get_test_function.s", "s", "lower",
           "self time of building the test function in the trial",
           _on((GAUSSMIX,), "setup_s, trials_per_s")),
    Metric("benchmarks.get_test_function.calls", "count", "lower",
           "test-function builds in the trial", _on((GAUSSMIX,), "setup_s, trials_per_s")),
    Metric("benchmarks.objective.s", "s", "lower", "time in objective evaluations",
           _on((GAUSSMIX,), "trials_per_s")),
    Metric("harness.run_trial.s", "s", "lower", "wall time of one traced trial",
           {ROSEN: "trial_s_p50", ACKLEY: "trial_s_p50", GAUSSMIX: "trial_s_p50, trials_per_s"}),
    Metric("harness.worker_busy_frac", "ratio", "higher",
           "sum of trial wall times / (workers x run wall time)",
           _on((GAUSSMIX,), "trials_per_s")),
    Metric("harness.unattributed_s", "s", "lower",
           "trial wall time outside every traced span", _on((GAUSSMIX,), "trials_per_s")),
    Metric("harness.unattributed_frac", "ratio", "lower",
           "unattributed share of the trial wall time"),
    Metric("harness.fail_frac", "ratio", "lower", "failed / attempted trials"),
    Metric("metrics.compute_metrics.s", "s", "lower", "compute_metrics time per trial",
           _on((GAUSSMIX,), "trials_per_s")),
    Metric("metrics.regret_log10_p50", "log10", "lower",
           "median log10 simple regret (floored at 1e-12) over the fixed trials"),
    Metric("output.write_outputs.s", "s", "lower", "write_outputs time per trial",
           _on((GAUSSMIX,), "trials_per_s")),
    Metric("output.bytes", "B", "lower", "bytes written per trial",
           _on((GAUSSMIX,), "trials_per_s")),
    Metric("trace.overhead_s", "s", "lower",
           "traced minus untraced wall time of the same trial"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "trace.overhead_s over the untraced trial wall time"),
)


def prediction(metric: Metric, workload: str) -> str:
    """What a change that makes this layer cheaper should do to the workload."""
    effect = metric.moves.get(workload)
    return f"should move {effect}" if effect else "no change"
