import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from solit import (
    CandidateGrid,
    FilterSpec,
    InvalidParameterError,
    build_grid,
    build_thresholds,
    critical_value_z,
    lepskii_select,
    noise_level_select,
    optimal_select,
    oracle_constants,
    oracle_select,
    pairwise_variance_v,
    price_of_adaptation,
    solit_select,
)
from solit.harness import _pairwise_distance_table
from solit.sequence_model import estimator_weights
from conftest import bias_norms, synthetic_problem


def toy_grid(v, alphas=None, theta1=1.5, theta2=2.5, sigma=1.0):
    v = np.asarray(v, dtype=float)
    if alphas is None:
        alphas = np.geomspace(1.0, 2.0 ** -(v.size - 1), v.size)
    return CandidateGrid(alphas=np.asarray(alphas, dtype=float), v=v, theta1=theta1, theta2=theta2, sigma=sigma)


def table(m_max, entries):
    t = np.zeros((m_max + 1, m_max + 1))
    for (i, j), val in entries.items():
        t[i, j] = t[j, i] = val
    return t


def solit_reference(bhat, kappa, m_max):
    for m1 in range(m_max + 1):
        if all(bhat[m1, m2] <= kappa[m1, m2] for m2 in range(m1 + 1, m_max + 1)):
            return m1
    return m_max


def lepskii_reference(bhat, grid, kappa_tune):
    mu = np.sqrt(grid.v)
    for m1 in range(grid.m_max + 1):
        if all(bhat[m1, m2] <= 4.0 * kappa_tune * mu[m2] for m2 in range(m1 + 1, grid.m_max + 1)):
            return m1
    return grid.m_max


def oracle_reference(b, v, beta, m_max):
    for m in range(m_max + 1):
        ok = True
        for m1 in range(m, m_max + 1):
            for m2 in range(m1 + 1, m_max + 1):
                if b[m1, m2] ** 2 > beta**2 * v[m1, m2]:
                    ok = False
        if ok:
            return m
    return m_max


class TestBuildThresholds:
    def test_assembled_from_verified_components(self, small_heat):
        # the row-wise table against the per-pair critical value and variance
        step = 1.0 / float(small_heat.eigenvalues[0])
        for kind in ("tikhonov", "showalter", "cutoff", "landweber"):
            spec = FilterSpec.for_spectrum(kind, small_heat.eigenvalues, landweber_step=step)
            grid = build_grid(small_heat, spec, sigma=0.1, theta=2.0)
            tt = build_thresholds(small_heat, spec, grid, beta=1.0, gamma=1.0)
            assert tt.m_max == grid.m_max > 0, kind
            x = 4.0 * np.log(grid.v[1:] / grid.v[0])  # the tail budgets 2 (1+gamma) log(v_{m+1}/v_0)
            for m1 in range(grid.m_max):
                for m2 in range(m1 + 1, grid.m_max + 1):
                    a1, a2 = grid.alphas[m1], grid.alphas[m2]
                    z = critical_value_z(small_heat, spec, a1, a2, x[m1])
                    vp = pairwise_variance_v(small_heat, spec, a1, a2, grid.sigma)
                    want = grid.sigma * z + math.sqrt(vp)
                    assert tt.kappa[m1, m2] == pytest.approx(want, rel=1e-12), (kind, m1, m2)

    @pytest.mark.filterwarnings("ignore:omitted variance tail")
    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff", "landweber"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_restricted_table_matches_a_per_sigma_rebuild(self, name, kind, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec.for_spectrum(kind, problem.eigenvalues)
        grids = build_grid(problem, spec, np.geomspace(1e-2, 1e-6, 5), theta=2.0)
        deep = build_thresholds(problem, spec, grids[-1], beta=1.5, gamma=0.5)
        for grid in grids:
            got = deep.restrict(grid)
            ref = build_thresholds(problem, spec, grid, beta=1.5, gamma=0.5)
            w = estimator_weights(problem, spec, grid.alphas)
            iu = np.triu_indices(grid.m_max + 1, k=1)
            assert got.m_max == grid.m_max and got.sigma == grid.sigma
            np.testing.assert_allclose(got.kappa[iu], ref.kappa[iu], rtol=1e-13, atol=0)
            variance = (grid.sigma * _pairwise_distance_table(w)) ** 2
            np.testing.assert_allclose(got.variance[iu], variance[iu], rtol=1e-13, atol=0)
            bias = _pairwise_distance_table(w * problem.data_truth)
            np.testing.assert_allclose(got.bias[iu], bias[iu], rtol=1e-12, atol=0)
            lower = ~np.triu(np.ones_like(got.kappa, dtype=bool), k=1)
            for table in (got.kappa, got.bias, got.variance):
                assert np.all(np.isnan(table[lower]))

    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_restricted_weights_are_a_read_only_view(self, name, kind, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec(kind)
        grids = build_grid(problem, spec, np.geomspace(1e-2, 1e-6, 4), theta=2.0)
        deep = build_thresholds(problem, spec, grids[-1])
        np.testing.assert_array_equal(deep.weights, estimator_weights(problem, spec, grids[-1].alphas))
        for grid in grids:
            got = deep.restrict(grid)
            ref = build_thresholds(problem, spec, grid)
            np.testing.assert_array_equal(got.weights, estimator_weights(problem, spec, grid.alphas))
            # W and the error tables do not depend on sigma: each is a view of
            # the deepest table's first rows, with a per-sigma rebuild's bits
            for field in ("weights", "b_sq", "wb", "w_sq"):
                view = getattr(got, field)
                assert view.tobytes() == getattr(ref, field).tobytes(), field
                assert np.shares_memory(view, getattr(deep, field)), field
                assert not view.flags.writeable, field
                with pytest.raises(ValueError):
                    view[0] = 0.0

    def test_restrict_needs_a_built_table_and_a_prefix(self, small_heat, small_antiderivative):
        spec = FilterSpec("tikhonov")
        small, large = build_grid(small_heat, spec, np.array([1e-2, 1e-4]), theta=2.0)
        tt = build_thresholds(small_heat, spec, small)
        with pytest.raises(InvalidParameterError):
            tt.restrict(large)
        # grids no longer than the table's own, but not its prefix: another
        # problem's, and the same problem's at another theta
        deep = build_thresholds(small_heat, spec, build_grid(small_heat, spec, 1e-6, theta=2.0))
        foreign = build_grid(small_antiderivative, spec, 1e-2, theta=2.0)
        other_theta = build_grid(small_heat, spec, 1e-4, theta=3.0)
        for grid in (foreign, other_theta):
            assert grid.m_max < deep.m_max
            with pytest.raises(InvalidParameterError, match="a table restricts only to a prefix of its own grid"):
                deep.restrict(grid)
        for shape_change in ({"bias": tt.bias[1:, 1:]}, {"weights": tt.weights[1:]}, {"wb": tt.wb[:, 1:]}):
            with pytest.raises(InvalidParameterError):
                dataclasses.replace(tt, **shape_change)

    def test_weak_variance_examples(self):
        # sigma^2 max_k W[m, k]^2: cutting at 0.2 keeps lambda = 1/4, where
        # lambda q^2 = 1/lambda = 4; tikhonov at alpha = lambda = 1 gives
        # lambda q^2 = 1/4, times sigma^2 = 4
        two_mode = synthetic_problem([1.0, 0.25])
        tt = build_thresholds(two_mode, FilterSpec("cutoff"), toy_grid([1.0, 5.0], alphas=[0.5, 0.2]))
        assert tt.sigma**2 * tt.w_sq[1].max() == pytest.approx(4.0)
        one_mode = synthetic_problem([1.0])
        tt = build_thresholds(one_mode, FilterSpec("tikhonov"), toy_grid([1.0], alphas=[1.0], sigma=2.0))
        assert tt.sigma**2 * tt.w_sq[0].max() == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore:omitted variance tail")
    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_weak_variance_bounded_by_sigma_sq_over_alpha(self, name, kind, small_benchmarks):
        # every row's sigma^2 max_k W[m, k]^2 <= sigma^2 / alpha_m for ordered
        # filters, since alpha q_alpha <= 1 and lambda q_alpha <= 1 (Landweber's
        # alpha q_alpha goes up to its step, 1/lambda_1, which may exceed 1)
        problem = small_benchmarks[name]
        spec = FilterSpec(kind)
        grid = build_grid(problem, spec, sigma=1e-3, theta=2.0)
        tt = build_thresholds(problem, spec, grid)
        assert tt.m_max > 0
        u = grid.sigma**2 * tt.w_sq.max(axis=1)
        assert np.all(u <= grid.sigma**2 / grid.alphas * (1 + 1e-12))

    def test_budgets_positive_and_floor(self, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, sigma=0.1, theta=2.0)
        tt = build_thresholds(small_heat, spec, grid, beta=1.5, gamma=1.0)
        assert np.all(4.0 * np.log(grid.v[1:] / grid.v[0]) > 0)
        for m1 in range(grid.m_max):
            for m2 in range(m1 + 1, grid.m_max + 1):
                vp = pairwise_variance_v(small_heat, spec, grid.alphas[m1], grid.alphas[m2], grid.sigma)
                assert tt.kappa[m1, m2] >= 1.5 * math.sqrt(vp) - 1e-15

    def test_beta_additive_structure(self, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, sigma=0.1, theta=2.0)
        t1 = build_thresholds(small_heat, spec, grid, beta=1.0, gamma=1.0)
        t2 = build_thresholds(small_heat, spec, grid, beta=2.0, gamma=1.0)
        iu = np.triu_indices(grid.m_max + 1, k=1)
        diff = t2.kappa[iu] - t1.kappa[iu]
        for (m1, m2), d in zip(zip(*iu), diff):
            vp = pairwise_variance_v(small_heat, spec, grid.alphas[m1], grid.alphas[m2], grid.sigma)
            assert d == pytest.approx(math.sqrt(vp), rel=1e-9)

    def test_gamma_monotone(self, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, sigma=0.1, theta=2.0)
        t1 = build_thresholds(small_heat, spec, grid, beta=1.0, gamma=0.5)
        t2 = build_thresholds(small_heat, spec, grid, beta=1.0, gamma=2.0)
        iu = np.triu_indices(grid.m_max + 1, k=1)
        assert np.all(t2.kappa[iu] >= t1.kappa[iu] - 1e-12)

    def test_invalid_tuning(self, small_heat):
        grid = build_grid(small_heat, FilterSpec("tikhonov"), sigma=0.1, theta=2.0)
        with pytest.raises(InvalidParameterError):
            build_thresholds(small_heat, FilterSpec("tikhonov"), grid, beta=0.0)
        with pytest.raises(InvalidParameterError):
            build_thresholds(small_heat, FilterSpec("tikhonov"), grid, gamma=0.0)


class TestSolitSelect:
    def test_all_distances_zero(self):
        kappa = table(2, {(0, 1): 0.4, (0, 2): 0.6, (1, 2): 0.2})
        assert solit_select(np.zeros((3, 3)), kappa) == 0

    def test_hand_enumerated_case(self):
        bhat = table(2, {(0, 1): 0.5, (0, 2): 0.7, (1, 2): 0.1})
        kappa = table(2, {(0, 1): 0.4, (0, 2): 0.6, (1, 2): 0.2})
        assert solit_select(bhat, kappa) == 1

    def test_vacuous_maximum_returns_last(self):
        bhat = table(2, {(0, 1): 9.0, (0, 2): 9.0, (1, 2): 9.0})
        kappa = table(2, {(0, 1): 0.1, (0, 2): 0.1, (1, 2): 0.1})
        assert solit_select(bhat, kappa) == 2

    def test_matches_reference_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m_max = int(rng.integers(1, 7))
            bhat = table(m_max, {})
            kappa = np.zeros((m_max + 1, m_max + 1))
            iu = np.triu_indices(m_max + 1, k=1)
            bhat[iu] = rng.uniform(0, 1, iu[0].size)
            bhat += bhat.T
            kappa[iu] = rng.uniform(0, 1, iu[0].size)
            assert solit_select(bhat, kappa) == solit_reference(bhat, kappa, m_max)

    def test_raising_thresholds_never_raises_index(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m_max = int(rng.integers(1, 7))
            iu = np.triu_indices(m_max + 1, k=1)
            bhat = np.zeros((m_max + 1, m_max + 1))
            bhat[iu] = rng.uniform(0, 1, iu[0].size)
            bhat += bhat.T
            kappa = np.zeros((m_max + 1, m_max + 1))
            kappa[iu] = rng.uniform(0, 1, iu[0].size)
            bigger = kappa.copy()
            bigger[iu] += rng.uniform(0, 1, iu[0].size)
            m_small = solit_select(bhat, kappa)
            m_big = solit_select(bhat, bigger)
            assert m_big <= m_small


class TestStackedSelectors:
    """A stack of tables gives, per table, the index of a single-table call."""

    @staticmethod
    @st.composite
    def stacks(draw):
        m_max = draw(st.integers(0, 6))
        k = m_max + 1
        # a coarse value set makes distances equal to their thresholds often
        values = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        bhat = draw(hnp.arrays(float, (draw(st.integers(1, 6)), k, k), elements=values))
        kappa = draw(hnp.arrays(float, (k, k), elements=values))
        v = np.cumsum(draw(hnp.arrays(float, k, elements=st.sampled_from([0.01, 0.02, 0.05]))))
        return bhat, kappa, v

    @settings(max_examples=300, deadline=None)
    @given(stacks())
    def test_stack_matches_per_matrix_calls(self, case):
        bhat, kappa, v = case
        m_max = kappa.shape[0] - 1
        # the grid of v at sigma = 0.5, built at sigma = 0.1
        grid = toy_grid(v * (0.1 / 0.5) ** 2, sigma=0.1)
        solit = solit_select(bhat, kappa)
        lepskii = lepskii_select(bhat, grid)
        assert solit.shape == lepskii.shape == (bhat.shape[0],)
        for i, table_i in enumerate(bhat):
            assert solit[i] == solit_select(table_i, kappa) == solit_reference(table_i, kappa, m_max)
            assert lepskii[i] == lepskii_select(table_i, grid)
            assert lepskii[i] == lepskii_reference(table_i, grid, 1.0)
        assert isinstance(solit_select(bhat[0], kappa), int)
        assert isinstance(lepskii_select(bhat[0], grid), int)

    def test_optimal_stack(self):
        errors = np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(optimal_select(errors), [1, 2, 0])
        assert [optimal_select(e) for e in errors] == [1, 2, 0]


class TestOracleSelect:
    def test_zero_truth(self):
        assert oracle_select(np.zeros((4, 4)), np.ones((4, 4)), beta=1.0) == 0

    def test_huge_beta(self):
        rng = np.random.default_rng(0)
        b = np.abs(rng.standard_normal((5, 5)))
        assert oracle_select(b, np.ones((5, 5)), beta=1e9) == 0

    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m_max = int(rng.integers(1, 7))
            iu = np.triu_indices(m_max + 1, k=1)
            b = np.zeros((m_max + 1, m_max + 1))
            v = np.zeros((m_max + 1, m_max + 1))
            b[iu] = rng.uniform(0, 1, iu[0].size)
            v[iu] = rng.uniform(0.01, 1, iu[0].size)
            b += b.T
            v += v.T
            beta = float(rng.uniform(0.2, 2.0))
            assert oracle_select(b, v, beta) == oracle_reference(b, v, beta, m_max)


class TestLepskiiSelect:
    def test_zero_distances(self):
        grid = toy_grid([0.25, 0.5, 1.0])
        assert lepskii_select(np.zeros((3, 3)), grid) == 0

    def test_hand_case(self):
        # bhat_01 = 5 > 4 * kappa * mu_1 = 4, so index 0 fails and 1 is vacuous
        grid = toy_grid([0.25, 1.0])
        bhat = table(1, {(0, 1): 5.0})
        assert lepskii_select(bhat, grid, kappa_tune=1.0) == 1

    def test_threshold_uses_finer_index_mu(self):
        # mu = (0.1, 1, 10): the correct thresholds at m1=0 are 4*mu_{m2} =
        # (4, 40), accepting these distances; a rule mistakenly using mu_{m1}
        # would compare against 0.4 and reject index 0
        grid = toy_grid([0.01, 1.0, 100.0], alphas=[1.0, 0.5, 0.25])
        bhat = table(2, {(0, 1): 2.0, (0, 2): 20.0, (1, 2): 1.0})
        assert lepskii_select(bhat, grid, kappa_tune=1.0) == 0

    def test_kappa_tune_floor(self):
        grid = toy_grid([0.25, 1.0])
        with pytest.raises(InvalidParameterError):
            lepskii_select(np.zeros((2, 2)), grid, kappa_tune=0.5)


class TestSimpleSelectors:
    def test_optimal_monotone_decreasing(self):
        assert optimal_select([5.0, 3.0, 1.0]) == 2

    def test_optimal_interior(self):
        assert optimal_select([3.0, 1.0, 2.0]) == 1

    def test_optimal_tie_breaks_small(self):
        assert optimal_select([1.0, 1.0]) == 0

    def test_noise_level_exact_match(self):
        grid = toy_grid([0.25, 0.5, 1.0], alphas=[0.9, 0.1, 0.01])
        assert noise_level_select(dataclasses.replace(grid, sigma=0.1)) == 1

    def test_noise_level_clamps(self):
        grid = toy_grid([0.25, 0.5, 1.0], alphas=[0.9, 0.1, 0.01])
        assert noise_level_select(dataclasses.replace(grid, sigma=1e-9)) == 2
        assert noise_level_select(dataclasses.replace(grid, sigma=50.0)) == 0

    @pytest.mark.parametrize("sigma", [0.0, math.nan, math.inf])
    def test_noise_level_rejects_nonpositive_or_nonfinite_sigma(self, sigma):
        grid = toy_grid([0.25, 0.5, 1.0], alphas=[0.9, 0.1, 0.01])
        with pytest.raises(InvalidParameterError):
            noise_level_select(dataclasses.replace(grid, sigma=sigma))


class TestOracleConstants:
    def test_c1_at_origin(self):
        grid = toy_grid([0.25, 0.5], theta1=2.0)
        c1, _ = oracle_constants(grid, 0, u_mstar=0.0, beta=1.0, gamma=1.0)
        assert c1 == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)

    def test_c2_plug_in(self):
        # beta sqrt(v) + sqrt(2 u (2(1+gamma) log(ratio) + log(1+m_max)))
        grid = toy_grid([0.04, 0.08, 0.16, 0.32], theta1=1.5)
        _, c2 = oracle_constants(grid, 0, u_mstar=0.01, beta=1.0, gamma=1.0)
        assert c2 == pytest.approx(0.2 + math.sqrt(0.02 * math.log(4.0)), rel=1e-12)

    def test_price_of_adaptation(self):
        assert price_of_adaptation(1.0, 0.0) == 1.0
        assert price_of_adaptation(0.0, 2.0) == 4.0
        assert price_of_adaptation(1.0, 1.0) == 4.0


class TestDeterministicConsistency:
    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_oracle_below_bias_floor_index(self, kind, name, small_benchmarks):
        # m* <= m** where m** is the first index whose bias crosses the
        # (sqrt(theta1)-1) beta sqrt(v_m) floor
        problem = small_benchmarks[name]
        spec = FilterSpec(kind)
        for sigma in (1e-2, 1e-4):
            grid = build_grid(problem, spec, sigma, theta=2.0)
            tt = build_thresholds(problem, spec, grid)
            m_star = oracle_select(tt.bias, tt.variance, beta=1.0)
            bias = bias_norms(problem, spec, grid.alphas)
            floor = (math.sqrt(grid.theta1) - 1.0) ** 2 * grid.v
            hits = np.nonzero(bias**2 <= floor)[0]
            m_dstar = int(hits[0]) if hits.size else grid.m_max
            assert m_star <= m_dstar, (name, kind, sigma)

    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_noise_free_solit_at_most_oracle(self, name, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec("tikhonov")
        grid = build_grid(problem, spec, sigma=1e-3, theta=2.0)
        tt = build_thresholds(problem, spec, grid, beta=1.0, gamma=1.0)
        m_hat = solit_select(tt.bias, tt.kappa)  # noise-free distances equal the biases
        m_star = oracle_select(tt.bias, tt.variance, beta=1.0)
        assert m_hat <= m_star
