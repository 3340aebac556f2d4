import math

import numpy as np
import pytest

from solit import (
    FilterSpec,
    InvalidParameterError,
    SpectralProblem,
    build_grid,
    estimate,
    simulate_data,
)
from solit.filters import filter_weight
from solit.sequence_model import estimator_weights
from conftest import bias_norms, synthetic_problem


class TestSpectralProblem:
    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(InvalidParameterError):
            SpectralProblem([1.0, 0.0], [0.0, 0.0], [0.0, 0.0])

    def test_rejects_increasing_eigenvalues(self):
        with pytest.raises(InvalidParameterError):
            SpectralProblem([0.5, 1.0], [0.0, 0.0], [0.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            SpectralProblem([1.0, 0.5], [0.0], [0.0, 0.0])

    def test_ties_allowed(self):
        p = SpectralProblem([1.0, 1.0, 0.5], [0.0] * 3, [0.0] * 3)
        assert p.n == 3


class TestSimulateData:
    def test_vanishing_noise_limit(self):
        p = synthetic_problem([1.0, 0.5, 0.25], [1.0, 2.0, 3.0])
        d = simulate_data(p, 1e-300, seed=0)
        np.testing.assert_allclose(d.y, p.data_truth, atol=1e-290)

    def test_same_seed_identical(self):
        p = synthetic_problem([1.0, 0.5], [1.0, 2.0])
        a = simulate_data(p, 0.3, seed=123)
        b = simulate_data(p, 0.3, seed=123)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        p = synthetic_problem([1.0, 0.5], [1.0, 2.0])
        assert not np.array_equal(simulate_data(p, 0.3, 1).y, simulate_data(p, 0.3, 2).y)

    def test_noise_sample_variance(self):
        n = 10_000
        lam = np.linspace(1.0, 0.5, n)
        p = synthetic_problem(lam, np.zeros(n))
        d = simulate_data(p, 0.7, seed=5)
        noise = (d.y - p.data_truth) / 0.7
        assert np.var(noise) == pytest.approx(1.0, abs=0.05)

    def test_nonpositive_sigma_rejected(self):
        p = synthetic_problem([1.0], [1.0])
        with pytest.raises(InvalidParameterError):
            simulate_data(p, 0.0, seed=0)


class TestEstimate:
    def test_cutoff_full_inversion(self):
        lam = np.array([1.0, 0.25, 0.0625])
        p = synthetic_problem(lam, [1.0, -2.0, 0.5])
        d = simulate_data(p, 1e-300, seed=0)
        fhat = estimate(p, d, FilterSpec("cutoff"), alpha=lam[-1])
        np.testing.assert_allclose(fhat, p.truth, atol=1e-290)

    def test_tikhonov_single_coordinate(self):
        p = SpectralProblem([1.0], [0.0], [0.0])
        d = simulate_data(p, 1e-300, seed=0)
        d = type(d)(y=np.array([1.0]), sigma=d.sigma, seed=d.seed)
        assert estimate(p, d, FilterSpec("tikhonov"), 1.0)[0] == pytest.approx(0.5)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        lam = np.sort(rng.uniform(0.1, 1.0, 20))[::-1]
        p = synthetic_problem(lam, rng.standard_normal(20))
        spec = FilterSpec("showalter")
        y1, y2 = rng.standard_normal(20), rng.standard_normal(20)
        d1 = simulate_data(p, 1.0, 1)
        mk = lambda y: type(d1)(y=y, sigma=1.0, seed=0)  # noqa: E731
        lhs = estimate(p, mk(y1 + y2), spec, 0.2)
        rhs = estimate(p, mk(y1), spec, 0.2) + estimate(p, mk(y2), spec, 0.2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff"])
    def test_weight_table_rows_are_per_candidate_weights(self, kind, small_heat):
        spec = FilterSpec(kind)
        alphas = build_grid(small_heat, spec, sigma=1e-3, theta=2.0).alphas
        lam = small_heat.eigenvalues
        table = estimator_weights(small_heat, spec, alphas)
        assert table.shape == (alphas.size, lam.size)
        for a, row in zip(alphas, table):
            assert np.array_equal(row, filter_weight(spec, a, lam) * np.sqrt(lam))


class TestPairwiseDistance:
    def test_noise_free_distance_matches_deterministic_bias(self):
        # on exact-forward data the empirical distance between noise-free
        # estimators equals the bias term computed from the truth directly
        lam = np.geomspace(1.0, 1e-3, 12)
        truth = np.linspace(1.0, 0.1, 12)
        p = synthetic_problem(lam, truth)
        spec = FilterSpec("tikhonov")
        d = type(simulate_data(p, 1.0, 0))(y=p.data_truth, sigma=1.0, seed=0)
        fa = estimate(p, d, spec, 0.5)
        fb = estimate(p, d, spec, 0.05)
        qd = 1.0 / (lam + 0.5) - 1.0 / (lam + 0.05)
        expected = float(np.linalg.norm(qd * lam * truth))
        assert np.linalg.norm(fa - fb) == pytest.approx(expected, rel=1e-12)


class TestBiasMonotonicity:
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_squared_bias_nonincreasing_along_grid(self, name, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec("tikhonov")
        grid = build_grid(problem, spec, sigma=1e-4, theta=2.0)
        bias_sq = bias_norms(problem, spec, grid.alphas) ** 2
        truth_sq = float(np.sum(problem.truth**2))
        # slack covers the analytic-data gap (data is not exactly the
        # discrete forward image of the truth)
        assert np.all(np.diff(bias_sq) <= 1e-11 * truth_sq)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eigenvalues", "truth", "data_truth"])
    def test_rejected(self, field, bad):
        arrays = {"eigenvalues": [1.0, 0.5, 0.25], "truth": [0.0, 1.0, 0.0], "data_truth": [0.0, 0.5, 0.0]}
        arrays[field][1] = bad
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            SpectralProblem(**arrays)
