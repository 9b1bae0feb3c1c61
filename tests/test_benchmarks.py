"""Test-function ground truths and landscape generator properties."""

import numpy as np
import pytest

from adaptivebo.benchmarks import (
    GaussianMixtureSpec,
    ackley,
    gaussian_mixture_eval,
    get_test_function,
    levy,
    make_gaussian_mixture,
    rosenbrock,
)
from adaptivebo.errors import DimensionMismatchError
from adaptivebo.harness import ExperimentConfig, _TrialRunner


class TestRosenbrock:
    @pytest.mark.parametrize("dim", [2, 3, 5, 10])
    def test_minimum_at_ones(self, dim):
        assert rosenbrock(np.ones(dim)) == 0.0

    def test_hand_values(self):
        assert rosenbrock(np.zeros(2)) == 1.0
        assert rosenbrock(np.zeros(3)) == 2.0

    def test_rejects_one_dimension(self):
        with pytest.raises(DimensionMismatchError):
            rosenbrock(np.array([1.0]))


class TestAckley:
    def test_minimum_at_origin(self):
        for dim in (1, 2, 5, 10):
            assert abs(ackley(np.zeros(dim))) < 1e-12

    def test_even_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-5, 5, size=4)
            assert ackley(x) == pytest.approx(ackley(-x), rel=1e-12)

    def test_nonnegative_on_box(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert ackley(rng.uniform(-5, 5, size=3)) >= 0.0

    def test_dense_grid_confirms_global_floor_1d(self):
        grid = np.linspace(-5, 5, 10**4)
        values = np.array([ackley(np.array([x])) for x in grid])
        assert values.min() >= 0.0


class TestLevy:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_minimum_at_ones(self, dim):
        assert abs(levy(np.ones(dim))) < 1e-12

    def test_one_dimensional_hand_value(self):
        # w = 0.75: sin^2(0.75 pi) = 0.5 and (w-1)^2 (1 + sin^2(1.5 pi)) = 0.125.
        assert levy(np.array([0.0])) == pytest.approx(0.625, abs=1e-12)

    def test_nonnegative_sampled(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert levy(rng.uniform(-10, 10, size=4)) >= 0.0


class TestGaussianMixture:
    def test_weights_sum_to_one(self):
        spec = make_gaussian_mixture(seed=4, d=3)
        assert abs(spec.weights.sum() - 1.0) < 1e-12
        assert np.all(spec.weights > 0)

    def test_covariance_eigenvalues_in_range(self):
        spec = make_gaussian_mixture(seed=5, d=4)
        for cov in spec.covariances:
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= 0.1 - 1e-9
            assert eigs.max() <= 2.0 + 1e-9

    def test_deterministic_for_seed(self):
        a = make_gaussian_mixture(seed=6, d=2)
        b = make_gaussian_mixture(seed=6, d=2)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.covariances, b.covariances)

    def test_single_component_peak_value(self):
        spec = make_gaussian_mixture(seed=7, d=2, m=1)
        assert gaussian_mixture_eval(spec, spec.means[0]) == spec.weights[0]

    def test_bounded_by_weight_sum(self):
        rng = np.random.default_rng(8)
        spec = make_gaussian_mixture(seed=8, d=2)
        for _ in range(100):
            value = gaussian_mixture_eval(spec, rng.uniform(-5, 5, size=2))
            assert 0.0 < value <= spec.weights.sum()

    def test_well_separated_components(self):
        spec = GaussianMixtureSpec(
            weights=np.array([0.6, 0.4]),
            means=np.array([[-4.0, -4.0], [4.0, 4.0]]),
            covariances=np.array([np.eye(2) * 0.5, np.eye(2) * 0.5]),
            seed=0,
        )
        assert gaussian_mixture_eval(spec, spec.means[0]) == pytest.approx(0.6, abs=1e-6)

    def test_invariant_under_component_permutation(self):
        spec = make_gaussian_mixture(seed=9, d=3)
        perm = np.array([3, 1, 4, 0, 2])
        shuffled = GaussianMixtureSpec(
            weights=spec.weights[perm],
            means=spec.means[perm],
            covariances=spec.covariances[perm],
            seed=spec.seed,
        )
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=3)
            assert gaussian_mixture_eval(spec, x) == pytest.approx(
                gaussian_mixture_eval(shuffled, x), rel=1e-12
            )

    def test_dimension_mismatch_rejected(self):
        spec = make_gaussian_mixture(seed=11, d=2)
        with pytest.raises(DimensionMismatchError):
            gaussian_mixture_eval(spec, np.zeros(3))


class TestNoisyEval:
    """Observation noise, added by the one noise path: ``_TrialRunner.evaluate``."""

    @staticmethod
    def _runner(sigma, seed):
        cfg = ExperimentConfig(function="rosenbrock", dim=2, noise_std=sigma)
        return _TrialRunner(cfg, trial_seed=seed, trial_index=0)

    def test_zero_noise_is_exact(self):
        runner = self._runner(0.0, 12)
        x_unit = np.array([0.3, 0.6])
        f = rosenbrock(runner.to_original(x_unit))
        assert runner.evaluate(x_unit) == (f, f, -f)

    def test_sample_mean_concentrates(self):
        runner = self._runner(0.3, 13)
        x_unit = np.array([0.5, 0.5])
        n = 10**5
        draws = np.array([runner.evaluate(x_unit)[1] for _ in range(n)])
        assert abs(draws.mean() - rosenbrock(runner.to_original(x_unit))) < 4 * 0.3 / np.sqrt(n)

    def test_sample_std_concentrates(self):
        runner = self._runner(0.3, 14)
        x_unit = np.array([0.5, 0.5])
        draws = np.array([runner.evaluate(x_unit)[1] for _ in range(10**5)])
        assert draws.std() == pytest.approx(0.3, rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            self._runner(-0.1, 0)


class TestTestFunctionDescriptors:
    @pytest.mark.parametrize("name", ["rosenbrock", "ackley", "levy", "gauss_mix"])
    def test_optimum_identity(self, name):
        fn = get_test_function(name, 2)
        assert fn.bounds.contains(fn.optimum_point)
        assert fn.evaluator(fn.optimum_point) == pytest.approx(fn.optimum_value, abs=1e-9)

    @pytest.mark.parametrize("name", ["rosenbrock", "ackley", "levy"])
    def test_dense_grid_finds_nothing_below_optimum(self, name):
        fn = get_test_function(name, 2)
        side = np.linspace(fn.bounds.lower[0], fn.bounds.upper[0], 100)
        grid = np.array([[a, b] for a in side for b in side])
        values = np.array([fn.evaluator(x) for x in grid])
        assert values.min() >= fn.optimum_value - 1e-9

    def test_mixture_grid_finds_nothing_above_estimate(self):
        fn = get_test_function("gauss_mix", 2)
        assert fn.maximize and fn.optimum_estimated
        side = np.linspace(-5, 5, 100)
        values = np.array([fn.evaluator(np.array([a, b])) for a in side for b in side])
        assert values.max() <= fn.optimum_value + 1e-9

    def test_mixture_build_is_shared_but_each_descriptor_is_fresh(self):
        first = get_test_function("gauss_mix", 2)
        expected = first.optimum_point.copy()
        first.optimum_point[:] = 99.0
        second = get_test_function("gauss_mix", 2)
        assert second is not first
        np.testing.assert_array_equal(second.optimum_point, expected)
        assert second.optimum_value == first.optimum_value
        x = np.array([0.3, -1.7])
        assert second.evaluator(x) == gaussian_mixture_eval(make_gaussian_mixture(0, 2), x)

    def test_boxes(self):
        assert get_test_function("rosenbrock", 3).bounds.lower[0] == -2.048
        assert get_test_function("ackley", 3).bounds.upper[0] == 5.0
        assert get_test_function("levy", 3).bounds.upper[0] == 10.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            get_test_function("branin", 2)
