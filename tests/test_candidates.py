import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solit import candidates
from solit import (
    ConfigurationError,
    FilterSpec,
    InvalidParameterError,
    antiderivative_problem,
    build_grid,
    line_search_variance,
    pairwise_variance_v,
    variance_V,
)
from conftest import synthetic_problem

TWO_MODE = synthetic_problem([1.0, 0.25], [0.0, 0.0])
CUTOFF = FilterSpec("cutoff")
TIKH = FilterSpec("tikhonov")


class TestVarianceFunctionals:
    def test_cutoff_top_mode_only(self):
        # brute force: cutting at 0.5 keeps lambda=1 only, contributing 1/1
        assert variance_V(TWO_MODE, CUTOFF, 0.5) == pytest.approx(1.0)

    def test_cutoff_both_modes(self):
        assert variance_V(TWO_MODE, CUTOFF, 0.2) == pytest.approx(5.0)

    def test_tikhonov_single_mode(self):
        p = synthetic_problem([1.0], [0.0])
        assert variance_V(p, TIKH, 1.0) == pytest.approx(0.25)

    def test_V_nonincreasing_in_alpha(self):
        alphas = np.geomspace(2.0, 1e-3, 40)
        for spec in (TIKH, FilterSpec("showalter"), CUTOFF):
            vals = [variance_V(TWO_MODE, spec, a) for a in alphas]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_pairwise_variance_examples(self):
        assert pairwise_variance_v(TWO_MODE, TIKH, 0.3, 0.3, 1.0) == 0.0
        # only the lambda=1/4 mode differs between cut-offs 0.5 and 0.2
        assert pairwise_variance_v(TWO_MODE, CUTOFF, 0.5, 0.2, 1.0) == pytest.approx(4.0)

    def test_pairwise_variance_symmetric_and_bounded(self):
        v_ab = pairwise_variance_v(TWO_MODE, TIKH, 0.5, 0.05, 0.7)
        v_ba = pairwise_variance_v(TWO_MODE, TIKH, 0.05, 0.5, 0.7)
        assert v_ab == v_ba
        assert v_ab <= 0.49 * variance_V(TWO_MODE, TIKH, 0.05)


class TestLineSearch:
    def test_continuum_hits_tolerance(self):
        p = synthetic_problem(np.geomspace(1.0, 1e-4, 50), np.zeros(50))
        for target in (0.5, 3.0, 40.0):
            alpha, v = line_search_variance(p, TIKH, target, tol=1e-6, bracket=(1e-4, 10.0))
            assert abs(math.log(v) - math.log(target)) <= 1e-6
            assert variance_V(p, TIKH, alpha) == pytest.approx(target, rel=1e-5)

    def test_discrete_overshoot(self):
        # V jumps 1 -> 5 across the second eigenvalue; target 3 lands on the
        # jump, so the eigenvalue whose V first exceeds the target is returned
        alpha, v = line_search_variance(TWO_MODE, CUTOFF, 3.0, tol=0.01, bracket=(0.1, 1.5))
        assert alpha == 0.25
        assert v == pytest.approx(5.0, rel=1e-12)

    def test_target_beyond_reach_clamps(self):
        # more variance than the bracket can provide: lower end returned
        alpha, v = line_search_variance(TWO_MODE, TIKH, 1e9, tol=0.01, bracket=(0.05, 1.0))
        assert alpha == 0.05
        assert v < 1e9

    def test_target_below_reach_clamps(self):
        alpha, v = line_search_variance(TWO_MODE, TIKH, 1e-9, tol=0.01, bracket=(0.05, 1.0))
        assert alpha == 1.0
        assert v > 1e-9

    def test_empty_discrete_bracket(self):
        with pytest.raises(InvalidParameterError):
            line_search_variance(TWO_MODE, CUTOFF, 2.0, tol=0.01, bracket=(0.26, 0.9))

    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff", "landweber"])
    def test_returned_v_is_variance_V_bit_for_bit(self, kind, small_heat, monkeypatch):
        spec = FilterSpec.for_spectrum(kind, small_heat.eigenvalues)
        bracket = (float(small_heat.eigenvalues[-1]), float(small_heat.eigenvalues[0]))
        v_lo, v_hi = (variance_V(small_heat, spec, a) for a in bracket)
        # a hit (for the cut-off the closest jump) and both clamps
        for target in (math.sqrt(v_lo * v_hi), 2.0 * v_lo, 0.5 * v_hi):
            alpha, v = line_search_variance(small_heat, spec, target, 1e-3, bracket)
            assert v == variance_V(small_heat, spec, alpha), target
        # a bisection that runs out of steps before it meets the tolerance
        monkeypatch.setattr(candidates, "_MAX_BISECTION_STEPS", 3)
        alpha, v = line_search_variance(small_heat, spec, math.sqrt(v_lo * v_hi), 1e-12, bracket)
        assert v == variance_V(small_heat, spec, alpha)


class TestBuildGrid:
    @pytest.mark.parametrize("kind", ["tikhonov", "showalter"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_continuous_filter_ratios(self, kind, name, small_benchmarks):
        grid = build_grid(small_benchmarks[name], FilterSpec(kind), sigma=1e-4, theta=2.0)
        assert np.all(grid.ratios >= 1.5 - 1e-9)
        assert np.all(grid.ratios <= 2.5 + 1e-9)
        assert not grid.theta2_enlarged

    def test_grid_invariants(self, small_benchmarks):
        grid = build_grid(small_benchmarks["antiderivative"], TIKH, sigma=1e-4, theta=2.0)
        assert np.all(np.diff(grid.alphas) < 0)
        assert np.all(np.diff(grid.v) > 0)
        assert grid.v[-1] >= 1.0
        assert grid.v[-2] < 1.0
        assert grid.v[0] == pytest.approx(1e-8, rel=0.5)  # v_0 ~ sigma^2

    def test_heat_cutoff_enlarges_theta2(self, small_heat):
        grid = build_grid(small_heat, CUTOFF, sigma=1e-4, theta=2.0)
        assert grid.theta2_enlarged
        assert grid.theta2 > 2.5
        assert np.all(grid.ratios <= grid.theta2 + 1e-9)
        assert np.all(grid.ratios >= grid.theta1 - 1e-9)

    def test_halving_sigma_adds_two_candidates(self, small_antiderivative):
        m1 = build_grid(small_antiderivative, TIKH, sigma=2e-4, theta=2.0).m_max
        m2 = build_grid(small_antiderivative, TIKH, sigma=1e-4, theta=2.0).m_max
        assert m2 - m1 in (1, 2, 3)  # ~ log(4)/log(theta)

    def test_hard_cap(self, small_antiderivative, monkeypatch):
        monkeypatch.setattr(candidates, "MAX_CANDIDATES", 3)
        with pytest.raises(ConfigurationError, match="hard cap of 3"):
            build_grid(small_antiderivative, TIKH, sigma=1e-4, theta=2.0)

    def test_noise_level_below_truncation_capacity(self):
        p = synthetic_problem([1.0, 0.5, 0.25], [0.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            build_grid(p, TIKH, sigma=1e-9, theta=2.0)

    @pytest.mark.parametrize(("kind", "sigma"), [("tikhonov", 2.466e-9), ("showalter", 2.0e-9), ("cutoff", 1.47e-9)])
    def test_unreachable_next_target_is_named_with_the_cap(self, kind, sigma):
        # 1/sigma^2 lies below the largest attainable V here; the check that
        # fails is that the next target theta * V_last lies above it
        with pytest.raises(ConfigurationError) as info:
            build_grid(antiderivative_problem(), FilterSpec(kind), sigma, theta=2.0)
        found = re.search(r"needs V = theta \* V_\d+ = (\S+), above the largest attainable V = (\S+);", str(info.value))
        assert found is not None, str(info.value)
        assert float(found[1]) > float(found[2])

    @pytest.mark.filterwarnings("ignore:omitted variance tail")
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["tikhonov", "showalter", "cutoff"]),
        st.floats(-3.0, 3.0),
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=1, max_size=40),
        st.floats(-6.0, -1.0),
        st.floats(1.2, 4.0),
    )
    def test_ratios_within_theta1_theta2_on_random_spectra(self, kind, log_lam1, log_gaps, log_sigma, theta):
        # decreasing spectra, ties included
        lam = np.exp(log_lam1 - np.cumsum([0.0, *log_gaps]))
        try:
            grid = build_grid(synthetic_problem(lam), FilterSpec(kind), 10.0**log_sigma, theta=theta)
        except ConfigurationError:
            return
        assert np.all(grid.ratios >= grid.theta1 * (1.0 - 1e-12))
        assert np.all(grid.ratios <= grid.theta2 * (1.0 + 1e-12))

    def test_cauchy_schwarz_lower_bound_on_grid_pairs(self, small_benchmarks):
        # v_{m1,m2} >= (sqrt(theta1)-1)^2 v_{m1} for every pair
        for name, problem in small_benchmarks.items():
            grid = build_grid(problem, TIKH, sigma=1e-4, theta=2.0)
            floor = (math.sqrt(grid.theta1) - 1.0) ** 2
            for m1 in range(grid.m_max):
                for m2 in range(m1 + 1, grid.m_max + 1):
                    v12 = pairwise_variance_v(problem, TIKH, grid.alphas[m1], grid.alphas[m2], grid.sigma)
                    assert v12 >= floor * grid.v[m1] * (1 - 1e-9), (name, m1, m2)
                    assert v12 <= grid.v[m2] * (1 + 1e-9), (name, m1, m2)

    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_cutoff_grid_matches_per_candidate_search(self, name, small_benchmarks, monkeypatch):
        # reference: evaluate V at every admissible eigenvalue one at a time
        def per_candidate_search(problem, spec, target, tol, bracket):
            lams = problem.eigenvalues
            cands = np.unique(lams[(lams >= bracket[0]) & (lams <= bracket[1])])[::-1]
            gaps = np.log([variance_V(problem, spec, a) for a in cands]) - math.log(target)
            if np.any(np.abs(gaps) <= tol):
                idx = int(np.argmin(np.abs(gaps)))
            elif np.any(gaps >= 0):
                idx = int(np.argmax(gaps >= 0))
            else:
                idx = -1
            return float(cands[idx]), variance_V(problem, spec, float(cands[idx]))

        problem = small_benchmarks[name]
        for sigma in (1e-2, 1e-3, 1e-4):
            grid = build_grid(problem, CUTOFF, sigma=sigma, theta=2.0)
            with monkeypatch.context() as m:
                m.setattr(candidates, "line_search_variance", per_candidate_search)
                ref = build_grid(problem, CUTOFF, sigma=sigma, theta=2.0)
            assert np.array_equal(grid.alphas, ref.alphas)
            assert np.array_equal(grid.v, ref.v)
            assert grid.theta2 == ref.theta2

    def test_grid_csv_columns(self, small_heat):
        grid = build_grid(small_heat, TIKH, sigma=1e-3, theta=2.0)
        lines = grid.to_csv().strip().splitlines()
        assert lines[0] == "m,alpha,v_m,ratio"
        assert len(lines) == grid.m_max + 2
        first = lines[1].split(",")
        assert first[3] == ""  # no ratio for m = 0



class TestSweepGrids:
    # a span that builds for all 12 (problem, filter) pairs at the small sizes;
    # heat/landweber stops building near 1e-8
    SIGMAS = np.geomspace(1e-2, 1e-6, 6)

    @pytest.mark.filterwarnings("ignore:omitted variance tail")
    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff", "landweber"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_each_grid_equals_a_scalar_call(self, name, kind, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec.for_spectrum(kind, problem.eigenvalues)
        # any order of the noise levels: one grid per entry, in that order
        sigmas = self.SIGMAS[[2, 0, 5, 1, 4, 3]]
        grids = build_grid(problem, spec, sigmas, theta=2.0)
        assert len(grids) == sigmas.size
        for sigma, grid in zip(sigmas, grids):
            ref = build_grid(problem, spec, float(sigma), theta=2.0)
            assert np.array_equal(grid.alphas, ref.alphas)
            assert np.array_equal(grid.v, ref.v)
            for field in ("sigma", "theta1", "theta2", "theta2_requested", "theta2_enlarged"):
                assert getattr(grid, field) == getattr(ref, field), field
            assert np.array_equal(grid.truncation_tail_ratio, ref.truncation_tail_ratio, equal_nan=True)
        deepest = grids[int(np.argmin(sigmas))]
        for grid in grids:
            assert np.array_equal(grid.alphas, deepest.alphas[: grid.alphas.size])

    def test_unreachable_smallest_sigma_raises_like_a_scalar_call(self, small_heat):
        spec = FilterSpec.for_spectrum("landweber", small_heat.eigenvalues)
        with pytest.raises(ConfigurationError):
            build_grid(small_heat, spec, 1e-8, theta=2.0)
        with pytest.raises(ConfigurationError):
            build_grid(small_heat, spec, np.array([1e-2, 1e-8]), theta=2.0)

    def test_rejects_a_nonpositive_sigma_anywhere(self, small_heat):
        for sigmas in ([1e-2, 0.0], [1e-2, -1e-3], [], [1e-2, math.nan], [1e-2, math.inf], math.inf):
            with pytest.raises(InvalidParameterError):
                build_grid(small_heat, TIKH, np.array(sigmas), theta=2.0)
