"""Update-rule and integrated-variance tests, including quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivebo.adaptive import (
    AdaptiveState,
    integrated_variance_mc,
    record_integrated_variance,
    record_prediction_error,
    update_kappa,
    update_lambda,
)
from adaptivebo.gp import Dataset, GPConfig, KernelParams, fit, predict


def make_state(**kwargs):
    defaults = dict(kappa=1.0, lambda_pen=0.01)
    defaults.update(kwargs)
    return AdaptiveState(**defaults)


class TestMovingAverages:
    def test_first_error_initializes_average(self):
        state = make_state()
        delta = record_prediction_error(state, 1.5, 1.0)
        assert delta == 0.5
        assert state.delta_bar == 0.5

    def test_exponential_update_arithmetic(self):
        state = make_state(eta=0.1)
        state.delta_bar = 1.0
        record_prediction_error(state, 2.0, 0.0)
        assert state.delta_bar == pytest.approx(1.1, rel=1e-15)

    def test_zero_errors_decay_monotonically(self):
        state = make_state()
        record_prediction_error(state, 1.0, 0.0)
        previous = state.delta_bar
        for _ in range(50):
            record_prediction_error(state, 0.0, 0.0)
            assert state.delta_bar < previous or state.delta_bar == 0.0
            previous = state.delta_bar

    def test_average_stays_between_old_and_sample(self):
        rng = np.random.default_rng(0)
        state = make_state()
        record_prediction_error(state, rng.uniform(), 0.0)
        for _ in range(500):
            old = state.delta_bar
            sample = record_prediction_error(state, rng.uniform(0, 10), 0.0)
            lo, hi = min(old, sample), max(old, sample)
            assert lo <= state.delta_bar <= hi

    def test_integrated_average_same_convention(self):
        state = make_state(eta=0.25)
        record_integrated_variance(state, 4.0)
        assert state.i_bar == 4.0
        record_integrated_variance(state, 8.0)
        assert state.i_bar == pytest.approx(5.0, rel=1e-15)


class TestKappaUpdate:
    def test_fixed_point_is_exact(self):
        state = make_state(kappa=0.73)
        state.delta_bar = 0.31
        assert update_kappa(state, 0.31) == 0.73

    def test_sequenced_update_value(self):
        # Average moves first (eta = 0.1), then the ratio drives the update.
        state = make_state(kappa=1.0, beta=0.1, eta=0.1)
        state.delta_bar = 1.0
        delta = record_prediction_error(state, 2.0, 0.0)
        assert state.delta_bar == pytest.approx(1.1, rel=1e-15)
        new_kappa = update_kappa(state, delta)
        assert new_kappa == pytest.approx(np.exp(0.1 * (0.9 / 1.1)), rel=1e-12)
        assert new_kappa == pytest.approx(1.0853, abs=2e-4)

    def test_vanished_average_guard(self):
        state = make_state(kappa=2.0)
        state.delta_bar = 0.0
        assert update_kappa(state, 0.5) == 2.0

    def test_strictly_increasing_in_delta(self):
        deltas = np.linspace(0.0, 3.0, 40)
        values = []
        for delta in deltas:
            state = make_state(kappa=1.0, kappa_bounds=(1e-6, 1e6))
            state.delta_bar = 1.0
            values.append(update_kappa(state, delta))
        assert np.all(np.diff(values) > 0)

    def test_clamped_to_bounds(self):
        state = make_state(kappa=9.0, beta=5.0)
        state.delta_bar = 0.1
        assert update_kappa(state, 100.0) == 10.0
        state = make_state(kappa=0.02, beta=5.0)
        state.delta_bar = 10.0
        assert update_kappa(state, 0.0) == 0.01


class TestLambdaUpdate:
    def test_fixed_point_is_exact(self):
        state = make_state(lambda_pen=0.05)
        state.i_bar = 2.5
        assert update_lambda(state, 2.5) == 0.05

    def test_direct_arithmetic(self):
        state = make_state(lambda_pen=0.01, gamma=0.05)
        state.i_bar = 1.0
        assert update_lambda(state, 1.2) == pytest.approx(0.0101, rel=1e-12)

    def test_clamped_to_cap(self):
        state = make_state(lambda_pen=9.99, gamma=1.0, lambda_max=10.0)
        state.i_bar = 1.0
        assert update_lambda(state, 100.0) == 10.0

    def test_vanished_average_guard(self):
        state = make_state(lambda_pen=0.3)
        state.i_bar = 0.0
        assert update_lambda(state, 1.0) == 0.3


class TestBoundsNeverViolated:
    def test_randomized_update_sequences(self):
        rng = np.random.default_rng(99)
        state = make_state(kappa=1.0, lambda_pen=0.01)
        for _ in range(20000):
            delta = record_prediction_error(state, rng.uniform(0, 100), 0.0)
            update_kappa(state, delta)
            i_t = record_integrated_variance(state, rng.uniform(0, 1000))
            update_lambda(state, i_t)
            assert 0.01 <= state.kappa <= 10.0
            assert 0.0 <= state.lambda_pen <= 10.0

    @settings(max_examples=300, deadline=None)
    @given(
        kappa=st.floats(0.01, 10.0),
        lambda_pen=st.floats(0.0, 10.0),
        rates=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(1e-6, 1.0 - 1e-6)),
        stream=st.lists(
            st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300), st.floats(0.0, 1e300)),
            min_size=1,
            max_size=60,
        ),
    )
    def test_arbitrary_error_and_variance_streams(self, kappa, lambda_pen, rates, stream):
        beta, gamma, eta = rates
        state = make_state(kappa=kappa, lambda_pen=lambda_pen, beta=beta, gamma=gamma, eta=eta)
        for observed, predicted, variance in stream:
            update_kappa(state, record_prediction_error(state, observed, predicted))
            update_lambda(state, record_integrated_variance(state, variance))
            assert 0.01 <= state.kappa <= 10.0
            assert 0.0 <= state.lambda_pen <= 10.0


class TestIntegratedVariance:
    def test_prior_over_unit_square_is_exact(self):
        gp = fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig())
        value = integrated_variance_mc(gp, np.zeros(2), np.ones(2), 1000, seed=0)
        assert value == 1.0

    def test_prior_volume_scaling_is_exact(self):
        gp = fit(Dataset.empty(2), KernelParams(amplitude_sq=1.0), GPConfig())
        value = integrated_variance_mc(gp, np.full(2, -5.0), np.full(2, 5.0), 1000, seed=0)
        assert value == 100.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.uniform(size=(6, 2)), rng.normal(size=6))
        gp = fit(data, KernelParams(), GPConfig(noise_variance=0.01))
        a = integrated_variance_mc(gp, np.zeros(2), np.ones(2), 500, seed=3)
        b = integrated_variance_mc(gp, np.zeros(2), np.ones(2), 500, seed=3)
        assert a == b

    def test_matches_trapezoid_quadrature_1d(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.uniform(size=(8, 1)), rng.normal(size=8))
        gp = fit(data, KernelParams(length_scale=0.3), GPConfig(noise_variance=0.01))
        grid = np.linspace(0.0, 1.0, 10**4)[:, None]
        _, var = predict(gp, grid)
        quadrature = np.trapezoid(var, grid[:, 0])
        mc = integrated_variance_mc(gp, np.zeros(1), np.ones(1), 1000, seed=11)
        assert mc == pytest.approx(quadrature, rel=0.03)

    def test_degenerate_domain_rejected(self):
        gp = fit(Dataset.empty(1), KernelParams(), GPConfig())
        with pytest.raises(ValueError):
            integrated_variance_mc(gp, np.array([1.0]), np.array([1.0]))


class TestStateValidation:
    def test_kappa_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveState(kappa=100.0, lambda_pen=0.0)

    def test_lambda_above_cap_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveState(kappa=1.0, lambda_pen=11.0)

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            AdaptiveState(kappa=1.0, lambda_pen=0.0, eta=1.0)
