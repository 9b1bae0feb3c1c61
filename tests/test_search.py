"""Sobol-sequence and acquisition-search tests.

The Sobol oracle below builds the sequence directly from primitive-polynomial
direction numbers (Gray-code construction) for the first three dimensions,
independently of the library implementation.
"""

import numpy as np
import pytest

from adaptivebo.errors import SearchFailureError, UnsupportedDimensionError
from adaptivebo.gp import Dataset, GPConfig, KernelParams, fit
from adaptivebo.search import Domain, SearchConfig, propose_next, sobol_samples

# (degree s, coefficient number a, initial direction numbers m) per dimension.
_JOE_KUO_HEAD = {
    2: (1, 0, [1]),
    3: (2, 1, [1, 3]),
}

_BITS = 32


def _direction_numbers(dim_index: int, count: int) -> list[int]:
    """Direction integers v_k scaled to 2^32 for one coordinate."""
    if dim_index == 1:
        m = [1] * count
    else:
        s, a, m_init = _JOE_KUO_HEAD[dim_index]
        m = list(m_init)
        while len(m) < count:
            k = len(m)
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
    return [m[k] << (_BITS - (k + 1)) for k in range(count)]


def sobol_oracle(dim: int, n: int) -> np.ndarray:
    """First ``n`` Sobol points (including the zero point) for dim <= 3."""
    assert dim <= 3
    v = [_direction_numbers(j + 1, _BITS) for j in range(dim)]
    points = np.zeros((n, dim))
    state = [0] * dim
    for idx in range(1, n):
        prev = idx - 1
        c = 0
        while (prev >> c) & 1:
            c += 1
        for j in range(dim):
            state[j] ^= v[j][c]
            points[idx, j] = state[j] / 2.0**_BITS
    return points


class TestSobolSamples:
    def test_pinned_one_dimensional_prefix(self):
        pts = sobol_samples(Domain(np.zeros(1), np.ones(1)), n=4, skip=1)
        np.testing.assert_array_equal(pts.ravel(), [0.5, 0.75, 0.25, 0.375])

    def test_matches_direction_number_oracle(self):
        domain = Domain(np.zeros(3), np.ones(3))
        pts = sobol_samples(domain, n=128, skip=0)
        np.testing.assert_allclose(pts, sobol_oracle(3, 128), atol=1e-15)

    def test_dyadic_stratification(self):
        # The first 2^k points fill every dyadic interval of each coordinate
        # exactly once; that balance is what makes the sequence low-discrepancy.
        for dim in (1, 2, 5):
            domain = Domain(np.zeros(dim), np.ones(dim))
            for k in (3, 5):
                pts = sobol_samples(domain, n=2**k, skip=0)
                for j in range(dim):
                    cells = np.floor(pts[:, j] * 2**k).astype(int)
                    assert sorted(cells) == list(range(2**k))

    def test_points_inside_shifted_box(self):
        domain = Domain(np.array([-3.0, 2.0]), np.array([-1.0, 7.0]))
        pts = sobol_samples(domain, n=100, skip=1)
        assert np.all(pts >= domain.lower) and np.all(pts <= domain.upper)

    def test_repeated_calls_identical(self):
        domain = Domain(np.zeros(4), np.ones(4))
        np.testing.assert_array_equal(
            sobol_samples(domain, 50, skip=1), sobol_samples(domain, 50, skip=1)
        )

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimensionError):
            sobol_samples(Domain(np.zeros(22), np.ones(22)), n=4)


class TestDomain:
    def test_requires_positive_extent(self):
        with pytest.raises(ValueError):
            Domain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_volume(self):
        assert Domain(np.array([-5.0, -5.0]), np.array([5.0, 5.0])).volume == 100.0


class TestSearchConfig:
    def test_refine_cannot_exceed_global(self):
        with pytest.raises(ValueError):
            SearchConfig(n_global=4, n_refine=5)


def _prior_gp(dim: int):
    return fit(Dataset.empty(dim), KernelParams(), GPConfig())


class TestProposeNext:
    def test_finds_interior_quadratic_maximum(self):
        center = np.array([0.31, 0.62])
        domain = Domain.unit(2)

        def acq(points):
            points = np.atleast_2d(points)
            return -np.sum((points - center) ** 2, axis=1)

        best = propose_next(_prior_gp(2), acq, domain, SearchConfig(n_global=256))
        assert np.linalg.norm(best - center) < 1e-3

    def test_never_below_best_raw_candidate(self):
        rng = np.random.default_rng(3)
        coef = rng.normal(size=3)
        domain = Domain.unit(3)

        def acq(points):
            points = np.atleast_2d(points)
            return np.sin(points @ coef * 4.0) + 0.3 * points[:, 0]

        cfg = SearchConfig(n_global=128, n_refine=3)
        best = propose_next(_prior_gp(3), acq, domain, cfg)
        raw = acq(sobol_samples(domain, cfg.n_global))
        assert float(acq(best[None, :])[0]) >= raw.max()

    def test_constant_acquisition_tie_breaks_to_first_candidate(self):
        domain = Domain.unit(2)

        def acq(points):
            return np.zeros(len(np.atleast_2d(points)))

        cfg = SearchConfig(n_global=64)
        best = propose_next(_prior_gp(2), acq, domain, cfg)
        first = sobol_samples(domain, cfg.n_global)[0]
        np.testing.assert_array_equal(best, first)

    def test_boundary_maximizer_stays_in_box(self):
        # Maximizer outside the box: the proposal must land on the boundary.
        center = np.array([2.0, 0.5])
        domain = Domain.unit(2)

        def acq(points):
            points = np.atleast_2d(points)
            return -np.sum((points - center) ** 2, axis=1)

        best = propose_next(_prior_gp(2), acq, domain, SearchConfig(n_global=128))
        assert domain.contains(best)
        assert best[0] == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        coef = rng.normal(size=2)
        domain = Domain.unit(2)

        def acq(points):
            points = np.atleast_2d(points)
            return np.cos(points @ coef * 3.0)

        a = propose_next(_prior_gp(2), acq, domain, SearchConfig(n_global=128))
        b = propose_next(_prior_gp(2), acq, domain, SearchConfig(n_global=128))
        np.testing.assert_array_equal(a, b)

    def test_all_nonfinite_raises(self):
        domain = Domain.unit(2)

        def acq(points):
            return np.full(len(np.atleast_2d(points)), np.nan)

        with pytest.raises(SearchFailureError):
            propose_next(_prior_gp(2), acq, domain, SearchConfig(n_global=32))
