"""Optimization-loop, metrics, and file-output tests."""

import json
import multiprocessing
import os
import struct
import tempfile
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import adaptivebo.harness as harness
from adaptivebo.benchmarks import get_test_function
from adaptivebo.errors import NonPositiveDefiniteError
from adaptivebo.gp import Dataset
from adaptivebo.harness import (
    ExperimentConfig,
    IterationRecord,
    TrialTrace,
    run_experiment,
    run_trial,
    trial_seed_for,
)
from adaptivebo.metrics import compute_metrics, regret_curve, summarize
from adaptivebo.output import (
    SUMMARY_COLUMNS,
    load_trace,
    trace_from_dicts,
    trace_filename,
    write_outputs,
    write_trace,
)

FAST = dict(n_global=128, n_refine=2, mc_samples=200)


def small_config(**overrides):
    base = dict(
        function="rosenbrock", dim=2, noise_std=0.01, strategy="adaptive",
        budget=12, n_trials=2, n_init=5, base_seed=0, **FAST,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def trace_points(trace: TrialTrace) -> np.ndarray:
    return np.array([r.x for r in trace.records])


class TestRunTrial:
    @pytest.mark.parametrize("strategy", ["adaptive", "ucb", "ei", "random"])
    def test_trace_length_equals_budget(self, strategy):
        cfg = small_config(strategy=strategy)
        trace = run_trial(cfg, trial_seed=3)
        assert len(trace.records) == cfg.budget
        assert [r.t for r in trace.records] == list(range(1, cfg.budget + 1))

    @pytest.mark.parametrize("strategy", ["adaptive", "ucb", "ei", "random"])
    def test_identical_seed_identical_trace(self, strategy):
        cfg = small_config(strategy=strategy)
        a = run_trial(cfg, trial_seed=5)
        b = run_trial(cfg, trial_seed=5)
        np.testing.assert_array_equal(trace_points(a), trace_points(b))
        assert [r.y for r in a.records] == [r.y for r in b.records]
        assert [r.kappa for r in a.records] == [r.kappa for r in b.records]
        assert [r.lambda_pen for r in a.records] == [r.lambda_pen for r in b.records]

    @pytest.mark.parametrize("strategy", ["adaptive", "ucb", "ei", "random"])
    def test_best_so_far_is_monotone(self, strategy):
        cfg = small_config(strategy=strategy, noise_std=0.05)
        trace = run_trial(cfg, trial_seed=11)
        best = np.array([r.best_true for r in trace.records])
        assert np.all(np.diff(best) <= 0)  # minimization problem

    def test_random_search_matches_standalone_sampler(self):
        cfg = small_config(strategy="random", budget=16)
        trace = run_trial(cfg, trial_seed=21)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sampler = qmc.Sobol(d=cfg.dim, scramble=True, seed=21)
            unit = sampler.random(cfg.budget)
        fn = get_test_function(cfg.function, cfg.dim)
        expected = fn.bounds.lower + unit * (fn.bounds.upper - fn.bounds.lower)
        np.testing.assert_array_equal(trace_points(trace), expected)

    def test_random_search_ignores_observations(self):
        # Same seed, different noise level: proposals are unchanged.
        a = run_trial(small_config(strategy="random", noise_std=0.0), trial_seed=2)
        b = run_trial(small_config(strategy="random", noise_std=1.0), trial_seed=2)
        np.testing.assert_array_equal(trace_points(a), trace_points(b))

    def test_noise_free_trace_is_reproducible_reference(self):
        cfg = small_config(noise_std=0.0)
        a = run_trial(cfg, trial_seed=7)
        b = run_trial(cfg, trial_seed=7)
        np.testing.assert_array_equal(trace_points(a), trace_points(b))
        assert [r.delta for r in a.records] == [r.delta for r in b.records]

    def test_fixed_ucb_equals_degenerate_adaptive(self):
        # With frozen learning rates and no penalty, the adaptive machinery
        # must propose exactly the fixed-UCB points.
        ucb_cfg = small_config(strategy="ucb", kappa_init=1.0, budget=14)
        ada_cfg = small_config(
            strategy="adaptive", kappa_init=1.0, lambda_init=0.0,
            beta=0.0, gamma=0.0, budget=14,
        )
        a = run_trial(ucb_cfg, trial_seed=13)
        b = run_trial(ada_cfg, trial_seed=13)
        np.testing.assert_array_equal(trace_points(a), trace_points(b))
        assert [r.kappa for r in b.records] == [1.0] * 14

    def test_non_adaptive_strategies_record_constant_fields(self):
        for strategy in ("ucb", "ei", "random"):
            trace = run_trial(small_config(strategy=strategy), trial_seed=1)
            assert {r.delta for r in trace.records} == {0.0}
            assert {r.lambda_pen for r in trace.records} == {0.0}
            assert {r.i_mc for r in trace.records} == {0.0}

    def test_adaptive_fields_evolve_and_stay_bounded(self):
        cfg = small_config(budget=20, noise_std=0.02)
        trace = run_trial(cfg, trial_seed=17)
        kappas = [r.kappa for r in trace.records]
        assert all(0.01 <= k <= 10.0 for k in kappas)
        assert len(set(kappas)) > 1
        lambdas = [r.lambda_pen for r in trace.records]
        assert all(0.0 <= v <= 10.0 for v in lambdas)

    def test_maximization_benchmark_best_is_nondecreasing(self):
        cfg = small_config(function="gauss_mix", strategy="adaptive", noise_std=0.001)
        trace = run_trial(cfg, trial_seed=19)
        best = np.array([r.best_true for r in trace.records])
        assert np.all(np.diff(best) >= 0)


class TestRunExperiment:
    def test_trial_count_and_seed_derivation(self):
        cfg = small_config(n_trials=3, base_seed=40)
        result = run_experiment(cfg)
        assert len(result.traces) == 3
        assert [t.seed for t in result.traces] == [40, 41, 42]
        assert [t.seed for t in result.traces] == [
            trial_seed_for(cfg, i) for i in range(3)
        ]

    def test_aggregate_mean_is_arithmetic_mean(self):
        cfg = small_config(n_trials=3)
        result = run_experiment(cfg)
        fn = get_test_function(cfg.function, cfg.dim)
        metrics = [compute_metrics(t, fn, n_init=cfg.n_init) for t in result.traces]
        summary = summarize(metrics)
        mean = np.mean([m.best_value for m in metrics])
        assert abs(summary.best_mean - mean) < 1e-12

    def test_changing_base_seed_changes_traces_not_schema(self):
        a = run_experiment(small_config(n_trials=1, base_seed=0)).traces[0]
        b = run_experiment(small_config(n_trials=1, base_seed=99)).traces[0]
        assert len(a.records) == len(b.records)
        assert not np.array_equal(trace_points(a), trace_points(b))

    def test_failures_are_recorded_and_skipped(self, monkeypatch):
        real_run_trial = harness.run_trial

        def flaky(cfg, trial_seed, trial_index=0):
            if trial_index == 1:
                raise NonPositiveDefiniteError("synthetic failure")
            if trial_index == 2:
                # What an objective returning NaN runs into: a plain ValueError.
                Dataset(np.zeros((1, cfg.dim)), np.array([np.nan]))
            return real_run_trial(cfg, trial_seed, trial_index)

        monkeypatch.setattr(harness, "run_trial", flaky)
        result = run_experiment(small_config(n_trials=4))
        assert [t.trial for t in result.traces] == [0, 3]
        assert [(f.trial, f.error) for f in result.failures] == [
            (1, "NonPositiveDefiniteError: synthetic failure"),
            (2, "ValueError: dataset entries must be finite"),
        ]

    def test_parallel_matches_serial(self):
        for strategy in ("random", "adaptive"):
            cfg = small_config(n_trials=2, strategy=strategy, budget=16)
            serial = run_experiment(cfg, n_workers=1)
            parallel = run_experiment(cfg, n_workers=2)
            assert len(serial.traces) == len(parallel.traces) == 2
            for a, b in zip(serial.traces, parallel.traces):
                assert (a.trial, a.seed, a.final_kernel) == (b.trial, b.seed, b.final_kernel)
                np.testing.assert_array_equal(trace_points(a), trace_points(b))
                for ra, rb in zip(a.records, b.records):
                    assert (ra.y, ra.kappa, ra.lambda_pen, ra.delta, ra.i_mc, ra.best_true) == \
                           (rb.y, rb.kappa, rb.lambda_pen, rb.delta, rb.i_mc, rb.best_true)

    def test_worker_failures_are_recorded_and_skipped(self, monkeypatch):
        # Pool workers are forked from this process, so they inherit the patch.
        real_run_trial = harness.run_trial

        def flaky(cfg, trial_seed, trial_index=0):
            if trial_index == 0:
                raise ValueError("synthetic failure")
            return real_run_trial(cfg, trial_seed, trial_index)

        monkeypatch.setattr(harness, "run_trial", flaky)
        result = run_experiment(small_config(n_trials=3, strategy="random"), n_workers=2)
        assert [t.trial for t in result.traces] == [1, 2]
        assert [(f.trial, f.error) for f in result.failures] == [
            (0, "ValueError: synthetic failure"),
        ]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched run_trial reaches the workers only by fork")
    def test_dead_worker_loses_only_unfinished_trials(self, monkeypatch):
        real_run_trial = harness.run_trial

        def dying(cfg, trial_seed, trial_index=0):
            if trial_index == 2:
                # Trials 0 and 1 hold both workers, so one of them has
                # finished before this one starts; give the other time too.
                time.sleep(1.0)
                os._exit(1)
            return real_run_trial(cfg, trial_seed, trial_index)

        monkeypatch.setattr(harness, "run_trial", dying)
        cfg = small_config(n_trials=4, strategy="random")
        result = run_experiment(cfg, n_workers=2)
        kept = [t.trial for t in result.traces]
        lost = [f.trial for f in result.failures]
        assert sorted(kept + lost) == [0, 1, 2, 3]
        assert 2 in lost and kept
        for failure in result.failures:
            assert failure.seed == trial_seed_for(cfg, failure.trial)
            assert failure.error.startswith("BrokenProcessPool: ")
        for trace in result.traces:
            np.testing.assert_array_equal(
                trace_points(trace),
                trace_points(real_run_trial(cfg, trace.seed, trace.trial)),
            )


def _hand_trace(points, f_values, trial=0, seed=0):
    trace = TrialTrace(trial=trial, seed=seed)
    best = np.inf
    for i, (x, f) in enumerate(zip(points, f_values)):
        best = min(best, f)
        trace.records.append(IterationRecord(
            t=i + 1, x=np.asarray(x, dtype=float), y=f, f_true=f,
            kappa=1.0, lambda_pen=0.0, delta=0.0, delta_bar=0.0,
            i_mc=0.0, i_bar=0.0, best_true=best, iter_seconds=0.0,
        ))
    return trace


class TestComputeMetrics:
    def test_hand_built_convergence_counts(self):
        fn = get_test_function("ackley", 2)
        trace = _hand_trace(
            [[-4.0, -4.0], [0.5, 0.5], [0.01, 0.01]], [10.0, 4.0, 0.2]
        )
        m = compute_metrics(trace, fn, n_init=1)
        assert m.best_value == 0.2
        assert m.simple_regret == 0.2
        # Baseline gap 10: thresholds 1.0 / 0.5 / 0.1.
        assert m.conv_iters_10 == 3
        assert m.conv_iters_5 == 3
        assert m.conv_iters_1 is None

    def test_trace_hitting_optimum_has_zero_regret(self):
        fn = get_test_function("ackley", 2)
        trace = _hand_trace([[2.0, 2.0], [0.0, 0.0]], [5.0, 0.0])
        assert compute_metrics(trace, fn, n_init=1).simple_regret == 0.0

    def test_single_point_exploration(self):
        fn = get_test_function("ackley", 2)
        trace = _hand_trace([[1.0, 1.0]] * 8, [3.0] * 8)
        m = compute_metrics(trace, fn, n_init=1)
        assert m.exploration_efficiency == 1.0 / 8

    def test_distinct_cells_counted(self):
        fn = get_test_function("ackley", 2)
        trace = _hand_trace([[-4.5, -4.5], [0.0, 0.0], [4.5, 4.5]], [3.0, 2.0, 1.0])
        m = compute_metrics(trace, fn, n_init=1)
        assert m.exploration_efficiency == 1.0


class TestRegretCurve:
    def test_trace_at_optimum_has_zero_cumulative_regret(self):
        fn = get_test_function("ackley", 2)
        trace = _hand_trace([[0.0, 0.0]] * 5, [0.0] * 5)
        curves = regret_curve([trace], fn)
        np.testing.assert_array_equal(curves.cumulative, 0.0)

    def test_cumulative_regret_nondecreasing(self):
        cfg = small_config(strategy="random", budget=16)
        trace = run_trial(cfg, trial_seed=3)
        fn = get_test_function(cfg.function, cfg.dim)
        curves = regret_curve([trace], fn)
        assert np.all(np.diff(curves.cumulative[0]) >= 0)

    def test_simple_regret_matches_direct_recomputation(self):
        cfg = small_config(strategy="random", budget=16)
        trace = run_trial(cfg, trial_seed=4)
        fn = get_test_function(cfg.function, cfg.dim)
        curves = regret_curve([trace], fn)
        gaps = np.array([r.f_true for r in trace.records]) - fn.optimum_value
        expected = np.array([gaps[: t + 1].min() for t in range(len(gaps))])
        np.testing.assert_allclose(curves.simple[0], expected, atol=0)

    def test_unequal_lengths_rejected(self):
        fn = get_test_function("ackley", 2)
        a = _hand_trace([[0.0, 0.0]] * 3, [1.0] * 3)
        b = _hand_trace([[0.0, 0.0]] * 4, [1.0] * 4)
        with pytest.raises(ValueError):
            regret_curve([a, b], fn)


class TestOutputs:
    def _run_and_write(self, tmp_path, **overrides):
        cfg = small_config(**overrides)
        result = run_experiment(cfg)
        fn = get_test_function(cfg.function, cfg.dim)
        metrics = [compute_metrics(t, fn, n_init=cfg.n_init) for t in result.traces]
        write_outputs(tmp_path, result, metrics, summarize(metrics))
        return cfg, result, metrics

    def test_csv_header_matches_documented_schema(self, tmp_path):
        self._run_and_write(tmp_path)
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header == ",".join(SUMMARY_COLUMNS)

    def test_jsonl_record_count_is_budget(self, tmp_path):
        cfg, result, _ = self._run_and_write(tmp_path)
        for trace in result.traces:
            records = load_trace(tmp_path / trace_filename(trace.trial))
            assert len(records) == cfg.budget

    def test_trace_roundtrip_full_precision(self, tmp_path):
        cfg, result, _ = self._run_and_write(tmp_path)
        original = result.traces[0]
        loaded = trace_from_dicts(
            load_trace(tmp_path / trace_filename(0)), trial=0, seed=original.seed
        )
        for a, b in zip(original.records, loaded.records):
            np.testing.assert_array_equal(a.x, b.x)
            assert (a.y, a.f_true, a.kappa, a.lambda_pen, a.delta, a.delta_bar,
                    a.i_mc, a.i_bar, a.best_true) == \
                   (b.y, b.f_true, b.kappa, b.lambda_pen, b.delta, b.delta_bar,
                    b.i_mc, b.i_bar, b.best_true)

    def test_rerun_outputs_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for out in (dir_a, dir_b):
            cfg = small_config(n_trials=2)
            result = run_experiment(cfg)
            fn = get_test_function(cfg.function, cfg.dim)
            metrics = [compute_metrics(t, fn, n_init=cfg.n_init) for t in result.traces]
            write_outputs(out, result, metrics, summarize(metrics))
        for name in ["config.json", "summary.csv", "aggregate.json",
                     trace_filename(0), trace_filename(1)]:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_summary_recomputable_from_traces(self, tmp_path):
        # Every CSV value must be reproducible from the stored traces alone.
        cfg, result, metrics = self._run_and_write(tmp_path)
        fn = get_test_function(cfg.function, cfg.dim)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        for row, trace, metric in zip(rows, result.traces, metrics):
            loaded = trace_from_dicts(
                load_trace(tmp_path / trace_filename(trace.trial)),
                trial=trace.trial, seed=trace.seed,
            )
            recomputed = compute_metrics(loaded, fn, cfg.grid_bins, cfg.n_init)
            cells = row.split(",")
            assert float(cells[8]) == recomputed.best_value
            assert float(cells[9]) == recomputed.simple_regret
            assert float(cells[13]) == recomputed.exploration_efficiency

    def test_aggregate_record_matches_summary_and_kernels(self, tmp_path):
        _, result, metrics = self._run_and_write(tmp_path)
        aggregate = json.loads((tmp_path / "aggregate.json").read_text())
        summary = summarize(metrics)
        assert aggregate["summary"] == {
            "best_mean": summary.best_mean, "best_median": summary.best_median,
            "best_std": summary.best_std, "regret_mean": summary.regret_mean,
            "regret_median": summary.regret_median, "regret_std": summary.regret_std,
        }
        assert aggregate["final_kernels"] == {
            str(t.trial): {"amplitude_sq": t.final_kernel.amplitude_sq,
                           "length_scale": t.final_kernel.length_scale}
            for t in result.traces
        }

    def test_timing_zeroed_unless_requested(self, tmp_path):
        cfg = small_config(n_trials=1, strategy="random", budget=8)
        result = run_experiment(cfg)
        fn = get_test_function(cfg.function, cfg.dim)
        metrics = [compute_metrics(t, fn, n_init=cfg.n_init) for t in result.traces]

        write_outputs(tmp_path / "plain", result, metrics, summarize(metrics))
        records = load_trace(tmp_path / "plain" / trace_filename(0))
        assert {r["iter_seconds"] for r in records} == {0.0}

        write_outputs(tmp_path / "timed", result, metrics, summarize(metrics),
                      include_timing=True)
        records = load_trace(tmp_path / "timed" / trace_filename(0))
        assert any(r["iter_seconds"] > 0.0 for r in records)

    def test_rewrite_removes_traces_it_does_not_write(self, tmp_path, monkeypatch):
        # A rerun into the same directory with fewer trials, or with a trial
        # that now fails, must not leave the earlier run's traces behind.
        self._run_and_write(tmp_path, n_trials=4, strategy="random")
        real_run_trial = harness.run_trial

        def flaky(cfg, trial_seed, trial_index=0):
            if trial_index == 0:
                raise ValueError("synthetic failure")
            return real_run_trial(cfg, trial_seed, trial_index)

        monkeypatch.setattr(harness, "run_trial", flaky)
        self._run_and_write(tmp_path, n_trials=2, strategy="random")
        assert sorted(p.name for p in tmp_path.glob("trace_*")) == [trace_filename(1)]

    def test_numpy_scalars_written_as_plain_numbers(self, tmp_path):
        noise = np.linspace(0.0, 0.2, 3)[1]  # np.float64(0.1), as a grid builds it
        self._run_and_write(tmp_path, noise_std=noise, strategy="random", n_trials=1)
        row = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[SUMMARY_COLUMNS.index("noise_std")] == "0.1"
        assert json.loads((tmp_path / "config.json").read_text())["noise_std"] == 0.1

    def test_numpy_config_writes_what_its_plain_twin_writes(self, tmp_path):
        plain = dict(function="ackley", dim=2, noise_std=0.0, strategy="random",
                     n_trials=2, base_seed=3)
        # np.int64, np.float64 and np.str_ values, as a grid built with numpy passes them.
        as_numpy = {key: np.array(value)[()] for key, value in plain.items()}
        assert small_config(**as_numpy).to_dict() == small_config(**plain).to_dict()
        self._run_and_write(tmp_path / "plain", **plain)
        self._run_and_write(tmp_path / "numpy", **as_numpy)
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "numpy").iterdir())
        for name in names:
            written = (tmp_path / "numpy" / name).read_bytes()
            assert written == (tmp_path / "plain" / name).read_bytes(), name


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOAT_FIELDS = [f.name for f in fields(IterationRecord) if f.name not in ("t", "x")]


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@st.composite
def iteration_records(draw):
    dim = draw(st.integers(1, 10))
    return [
        IterationRecord(
            t=draw(st.integers()),
            x=np.array(draw(st.lists(FINITE, min_size=dim, max_size=dim)), dtype=float),
            **{name: draw(FINITE) for name in FLOAT_FIELDS},
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestTraceRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(records=iteration_records(), include_timing=st.booleans())
    @example(records=[IterationRecord(
        t=-(2**70), x=np.array([-0.0, 5e-324, 1e308, -1e308]), y=-0.0, f_true=5e-324,
        kappa=1e308, lambda_pen=-1e308, delta=2.2250738585072014e-308, delta_bar=-5e-324,
        i_mc=0.1, i_bar=1 / 3, best_true=-1e-310, iter_seconds=-0.0,
    )], include_timing=True)
    def test_jsonl_round_trip_is_exact(self, records, include_timing):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / trace_filename(0)
            write_trace(path, TrialTrace(trial=0, seed=0, records=records), include_timing)
            loaded = trace_from_dicts(load_trace(path), trial=0, seed=0).records
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert type(b.t) is int and b.t == a.t
            assert b.x.dtype == np.float64 and b.x.tobytes() == a.x.tobytes()
            expected = [getattr(a, name) for name in FLOAT_FIELDS]
            if not include_timing:
                expected[FLOAT_FIELDS.index("iter_seconds")] = 0.0
            assert _bits([getattr(b, name) for name in FLOAT_FIELDS]) == _bits(expected)


class TestStrategyAndConfig:
    def test_strategy_validation(self):
        base = {"function": "ackley", "dim": 2}
        for good in (
            {"strategy": "ucb", "kappa_init": 0.0, "lambda_init": 0.0},
            {"refit_every": 1, "n_global": 3, "n_refine": 3, "mc_samples": 1, "grid_bins": 1},
        ):
            ExperimentConfig.from_dict({**base, **good})
        for bad in (
            {"strategy": "annealing"},
            {"strategy": "ucb", "kappa_init": -0.5},
            {"strategy": "ucb", "lambda_init": -0.01},
            # The adaptive strategy also needs starting weights its state accepts.
            {"kappa_init": 0.0},
            {"kappa_init": 10.5},
            {"lambda_init": 10.5},
            {"eta": 1.0},
            {"refit_every": 0},
            {"n_global": 0},
            {"n_refine": 0},
            {"n_global": 4, "n_refine": 5},
            {"mc_samples": 0},
            {"grid_bins": 0},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig.from_dict({**base, **bad})

    def test_config_roundtrip(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"function": "ackley", "dim": 2, "foo": 1})

    def test_budget_must_exceed_n_init(self):
        with pytest.raises(ValueError):
            small_config(budget=5, n_init=5)
