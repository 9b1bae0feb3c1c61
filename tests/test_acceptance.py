"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Every test prints one ``[criterion N] PASS`` line on success (visible with
``pytest -s``). The end-to-end checks (criteria 8 and 9) run full 30-trial
experiments and take a few minutes combined.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from adaptivebo.acquisition import (
    AcquisitionParams,
    HessianEstimate,
    adaptive_acquisition,
    complexity_factor,
    expected_improvement,
    hessian_fd,
    ucb,
    uncertainty_measure,
)
from adaptivebo.adaptive import (
    AdaptiveState,
    integrated_variance_mc,
    record_integrated_variance,
    record_prediction_error,
    update_kappa,
    update_lambda,
)
from adaptivebo.benchmarks import ackley, get_test_function, levy, rosenbrock
from adaptivebo.cli import main
from adaptivebo.gp import (
    Dataset,
    GPConfig,
    KernelParams,
    fit,
    kernel_eval,
    log_marginal_likelihood,
    predict,
)
from adaptivebo.harness import ExperimentConfig, run_experiment
from adaptivebo.metrics import compute_metrics, regret_curve

from test_gp import dense_lml_oracle, dense_predict_oracle, matern_bessel_oracle


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS {message}")


def test_criterion_1_gp_matches_dense_oracle():
    rng = np.random.default_rng(12345)
    start = time.time()
    worst_mean = worst_var = worst_lml = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        d = int(rng.integers(1, 6))
        data = Dataset(rng.uniform(size=(n, d)), rng.normal(size=n))
        noise = float(rng.uniform(0.01, 0.2))
        params = KernelParams(
            amplitude_sq=float(rng.uniform(0.5, 2.0)),
            length_scale=float(rng.uniform(0.3, 1.5)),
        )
        gp = fit(data, params, GPConfig(noise_variance=noise))
        for _ in range(3):
            q = rng.uniform(size=d)
            mean, var = predict(gp, q)
            mean_o, var_o = dense_predict_oracle(data, params, noise, q)
            worst_mean = max(worst_mean, abs(mean - mean_o))
            worst_var = max(worst_var, abs(var - var_o))
        worst_lml = max(
            worst_lml,
            abs(log_marginal_likelihood(gp) - dense_lml_oracle(data, params, noise)),
        )
    elapsed = time.time() - start
    assert worst_mean < 1e-8 and worst_var < 1e-8
    assert worst_lml < 1e-8
    assert elapsed < 10.0
    _report(1, f"200 datasets: mean/var/LML within 1e-8 of dense oracle ({elapsed:.1f}s)")


def test_criterion_2_matern_closed_form_vs_bessel():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        ell = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        r = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))) * ell
        closed = kernel_eval(np.zeros(1), np.array([r]), KernelParams(length_scale=ell))
        worst = max(worst, abs(closed - float(matern_bessel_oracle(r, ell))))
    assert worst < 1e-10
    _report(2, f"1000 (r, l) pairs: max closed-vs-Bessel error {worst:.2e} < 1e-10")


def test_criterion_3_acquisition_reductions_exact():
    rng = np.random.default_rng(31)
    data = Dataset(rng.uniform(size=(12, 3)), rng.normal(size=12))
    gp = fit(data, KernelParams(), GPConfig(noise_variance=0.01))
    ucb_params = AcquisitionParams(kappa=1.7, lambda_pen=0.0)
    mean_params = AcquisitionParams(kappa=0.0, lambda_pen=0.0)
    for _ in range(1000):
        x = rng.uniform(size=3)
        mean, var = predict(gp, x)
        assert adaptive_acquisition(gp, x, ucb_params) == ucb(mean, np.sqrt(var), 1.7)
        assert adaptive_acquisition(gp, x, mean_params) == mean
    _report(3, "lambda=0 equals UCB and kappa=lambda=0 equals the mean, exactly, at 1000 points")


def test_criterion_4_ei_against_monte_carlo():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        mean, f_best = rng.uniform(-1, 1, size=2)
        sd = float(rng.uniform(0.0, 1.0))
        closed = expected_improvement(mean, sd, f_best)
        z = np.random.default_rng(10_000 + i).standard_normal(500_000)
        draws = np.concatenate([mean + sd * z, mean - sd * z])
        mc = float(np.mean(np.maximum(draws - f_best, 0.0)))
        worst = max(worst, abs(closed - mc))
    assert worst < 1e-3
    _report(4, f"50 triples vs 1e6-sample MC: max error {worst:.2e} < 1e-3")


def test_criterion_5_complexity_factor_pipeline():
    rng = np.random.default_rng(55)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        sym = rng.normal(size=(d, d))
        sym = (sym + sym.T) / 2

        def quadratic(pts, _A=sym):
            pts = np.atleast_2d(pts)
            return 0.5 * np.einsum("ni,ij,nj->n", pts, _A, pts)

        est = hessian_fd(quadratic, rng.uniform(size=d), h=1e-4)
        value = complexity_factor(est, 1e-6)
        expected = np.sum(np.maximum(np.abs(np.linalg.eigvalsh(sym)), 1e-6))
        assert value == pytest.approx(expected, abs=1e-3)

    for d in (1, 2, 3, 5):
        gp = fit(Dataset.empty(d), KernelParams(amplitude_sq=1.0), GPConfig())
        measured = uncertainty_measure(gp, np.full(d, 0.4), AcquisitionParams())
        assert measured == d * 1e-6
    _report(5, "quadratic Hessian pipeline within 1e-3; zero-data measure exactly d*1e-6")


def test_criterion_6_update_rule_invariants():
    state = AdaptiveState(kappa=1.3, lambda_pen=0.4)
    state.delta_bar = 0.77
    state.i_bar = 3.21
    assert update_kappa(state, 0.77) == 1.3
    assert update_lambda(state, 3.21) == 0.4

    rng = np.random.default_rng(6)
    state = AdaptiveState(kappa=1.0, lambda_pen=0.01)
    scales = 10.0 ** rng.uniform(-8, 8, size=100_000)
    for i in range(100_000):
        delta = record_prediction_error(state, float(scales[i]), 0.0)
        update_kappa(state, delta)
        i_t = record_integrated_variance(state, float(scales[-1 - i]))
        update_lambda(state, i_t)
        assert 0.01 <= state.kappa <= 10.0
        assert 0.0 <= state.lambda_pen <= 10.0
    _report(6, "exact fixed points; bounds hold across 1e5 randomized updates")


def test_criterion_7_integrated_variance():
    gp = fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig())
    exact = integrated_variance_mc(gp, np.full(2, -5.0), np.full(2, 5.0), 1000, seed=0)
    assert exact == 100.0

    rng = np.random.default_rng(70)
    data = Dataset(rng.uniform(size=(10, 1)), rng.normal(size=10))
    gp = fit(data, KernelParams(length_scale=0.25), GPConfig(noise_variance=0.01))
    grid = np.linspace(0.0, 1.0, 10**4)[:, None]
    _, var = predict(gp, grid)
    quadrature = float(np.trapezoid(var, grid[:, 0]))
    mc = integrated_variance_mc(gp, np.zeros(1), np.ones(1), 1000, seed=7)
    assert mc == pytest.approx(quadrature, rel=0.03)
    _report(7, f"prior box integral exactly 100.0; MC vs quadrature within 3% ({mc:.4f} vs {quadrature:.4f})")


@pytest.mark.slow
def test_criterion_8_directional_end_to_end():
    start = time.time()
    common = dict(function="rosenbrock", dim=2, noise_std=0.005, lambda_init=0.01,
                  budget=100, n_trials=30, base_seed=0)
    fn = get_test_function("rosenbrock", 2)
    medians = {}
    for strategy in ("adaptive", "random", "ucb"):
        cfg = ExperimentConfig(strategy=strategy, kappa_init=1.0, **common)
        result = run_experiment(cfg)
        assert len(result.traces) == 30
        regrets = [
            compute_metrics(t, fn, n_init=cfg.n_init).simple_regret
            for t in result.traces
        ]
        medians[strategy] = float(np.median(regrets))
    elapsed = time.time() - start
    assert elapsed < 600.0
    assert medians["adaptive"] < medians["random"], (
        f"adaptive median {medians['adaptive']:.3g} not below "
        f"random median {medians['random']:.3g}"
    )
    assert medians["adaptive"] <= medians["ucb"], (
        f"adaptive median {medians['adaptive']:.3g} exceeds fixed-UCB(1.0) "
        f"median {medians['ucb']:.3g}: with the prescribed multiplicative "
        "error-driven update (rate 0.1, floor 0.01), kappa decays to its "
        "floor within ~50 iterations on this well-modeled 2-D problem and "
        "the greedy phase cannot polish further, while fixed UCB keeps "
        "refining; the penalty term is not the cause (lambda=0.01 with "
        "frozen kappa matches UCB here)"
    )
    _report(8, "median regret adaptive {adaptive:.3g} < random {random:.3g}, "
               "<= ucb {ucb:.3g} ({secs:.0f}s)".format(secs=elapsed, **medians))


@pytest.mark.slow
def test_criterion_9_empirical_sublinearity():
    cfg = ExperimentConfig(function="gauss_mix", dim=2, noise_std=0.005,
                           strategy="adaptive", lambda_init=0.01,
                           budget=100, n_trials=30, base_seed=0)
    result = run_experiment(cfg)
    assert len(result.traces) == 30
    fn = get_test_function("gauss_mix", 2)
    curves = regret_curve(result.traces, fn)
    rate_25 = float(np.median(curves.rate[:, 24]))
    rate_100 = float(np.median(curves.rate[:, 99]))
    assert rate_100 < rate_25
    _report(9, f"median cumulative-regret rate falls from {rate_25:.4g} (t=25) "
               f"to {rate_100:.4g} (t=100)")


def test_criterion_10_byte_identical_reruns(tmp_path):
    config = {
        "function": "rosenbrock", "dim": 2, "noise_std": 0.005,
        "strategy": "adaptive", "budget": 15, "n_trials": 2, "base_seed": 3,
        "n_global": 256, "n_refine": 2, "mc_samples": 250,
    }
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report(10, f"two `run` invocations produced byte-identical {names}")


def test_criterion_11_test_function_ground_truth():
    for d in (2, 5, 10):
        assert abs(rosenbrock(np.ones(d))) < 1e-12
        assert abs(ackley(np.zeros(d))) < 1e-12
        assert abs(levy(np.ones(d))) < 1e-12
    assert levy(np.array([0.0])) == pytest.approx(0.625, abs=1e-12)
    _report(11, "rosenbrock/ackley/levy optima and levy((0,)) = 0.625 within 1e-12")
