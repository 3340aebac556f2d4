import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from solit import (
    FilterSpec,
    InvalidParameterError,
    build_grid,
    critical_value_z,
    cumulant_traces,
    ltz_quantile_for_weights,
    ltz_tail_quantile,
    ltz_tail_sf,
    noncentral_chi2_sf,
)
from solit.filters import filter_weight
from solit import genchi2
from solit.genchi2 import mc_sample_quadratic_form, mc_tail_quantiles
from conftest import force_cpus, synthetic_problem

CHI2_1_Q95 = 3.8414588206941285  # scipy.special.chdtri(1, 0.05)
CHI2_1_MEDIAN = 0.4549364231195724


class TestCumulantTraces:
    def test_two_weights(self):
        assert cumulant_traces([2.0, 1.0]) == (3.0, 5.0, 9.0)
        stacked = cumulant_traces([[2.0, 1.0], [1.0, 0.0]])
        assert [list(c) for c in stacked] == [[3.0, 1.0], [5.0, 1.0], [9.0, 1.0]]

    def test_single_weight(self):
        assert cumulant_traces(np.array([1.0])) == (1.0, 1.0, 1.0)

    def test_equal_weights(self):
        n, c = 7, 0.3
        assert cumulant_traces([c] * n) == pytest.approx((n * c, n * c**2, n * c**3))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            cumulant_traces([1.0, -0.1])


NON_FINITE_WEIGHTS = [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0]]


class TestNonFiniteWeightsRejected:
    @pytest.mark.parametrize("w", NON_FINITE_WEIGHTS)
    def test_cumulant_traces(self, w):
        with pytest.raises(InvalidParameterError):
            cumulant_traces(w)
        with pytest.raises(InvalidParameterError):
            cumulant_traces([[1.0, 2.0], w])

    @pytest.mark.parametrize("w", NON_FINITE_WEIGHTS)
    def test_ltz_quantile_for_weights(self, w):
        with pytest.raises(InvalidParameterError):
            ltz_quantile_for_weights(w, 0.1)
        with pytest.raises(InvalidParameterError):
            ltz_quantile_for_weights([[1.0, 2.0], w], 0.1)

    @pytest.mark.parametrize("w", NON_FINITE_WEIGHTS)
    def test_mc_tail_quantiles(self, w):
        with pytest.raises(InvalidParameterError):
            mc_tail_quantiles(w, [0.1], 1000, seed=0)


class TestNoncentralChi2:
    def test_central_table_value(self):
        # independent oracle: P(chi2_1 > x) = erfc(sqrt(x/2))
        assert noncentral_chi2_sf(1.0, 0.0, 3.841459) == pytest.approx(
            math.erfc(math.sqrt(3.841459 / 2.0)), abs=1e-12
        )
        assert noncentral_chi2_sf(1.0, 0.0, 3.841459) == pytest.approx(0.05, abs=1e-7)

    def test_nonpositive_argument(self):
        assert noncentral_chi2_sf(3.0, 1.0, 0.0) == 1.0
        assert noncentral_chi2_sf(3.0, 1.0, -5.0) == 1.0

    def test_noncentrality_continuity(self):
        for x in (0.5, 2.0, 10.0):
            assert abs(noncentral_chi2_sf(2.0, 1e-12, x) - noncentral_chi2_sf(2.0, 0.0, x)) <= 1e-10

    @pytest.mark.parametrize("l,delta,x", [(3, 2.5, 4.0), (7, 50.0, 80.0), (1.5, 0.3, 2.0), (2, 400.0, 500.0)])
    def test_against_scipy(self, l, delta, x):
        assert noncentral_chi2_sf(l, delta, x) == pytest.approx(stats.ncx2.sf(x, l, delta), rel=1e-10, abs=1e-13)

    def test_invalid_dof(self):
        with pytest.raises(InvalidParameterError):
            noncentral_chi2_sf(0.0, 1.0, 2.0)


class TestLtzTailSf:
    def test_single_weight_is_exact_chi2(self):
        c = cumulant_traces([1.0])
        for t in (0.1, 1.0, 3.841459, 10.0):
            assert ltz_tail_sf(c, t) == pytest.approx(stats.chi2.sf(t, 1), rel=1e-12)

    def test_equal_weights_exact_scaled_chi2(self):
        scale, n = 0.7, 5
        c = cumulant_traces([scale] * n)
        for t in (0.5, 1.0, 3.0, 7.0, 15.0):
            assert ltz_tail_sf(c, t) == pytest.approx(stats.chi2.sf(t / scale, n), rel=1e-12)

    def test_two_weights_vs_exact_tail(self):
        # exact oracle by conditioning: P(2 e1^2 + e2^2 > t)
        #   = E[ P(chi2_1 > (t - 2 u)) ] over u ~ chi2_1
        c = cumulant_traces([2.0, 1.0])
        t = 10.0
        from scipy import integrate

        exact = (
            integrate.quad(lambda u: stats.chi2.pdf(u, 1) * stats.chi2.sf(t - 2 * u, 1), 0, t / 2)[0]
            + stats.chi2.sf(t / 2, 1)
        )
        # the skewness/kurtosis match is only approximate for two unequal
        # weights: its error here (~3% of the tail) dwarfs the Monte Carlo
        # noise of any reasonable sample size, so the oracle is the exact
        # tail and the tolerance is the approximation's documented quality
        assert ltz_tail_sf(c, t) == pytest.approx(exact, abs=2e-3)
        rng = np.random.default_rng(0)
        n = 10**6
        z = 2.0 * rng.standard_normal(n) ** 2 + rng.standard_normal(n) ** 2
        assert ltz_tail_sf(c, t) == pytest.approx(float(np.mean(z > t)), abs=2e-3)

    def test_monotone_and_bounded(self):
        c = cumulant_traces([3.0, 1.0, 0.5, 0.1])
        ts = np.linspace(0.0, 40.0, 200)
        vals = [ltz_tail_sf(c, t) for t in ts]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_invalid_second_cumulant(self):
        with pytest.raises(InvalidParameterError):
            ltz_tail_sf((1.0, 0.0, 0.0), 1.0)


class TestLtzTailQuantile:
    def test_chi2_1_quantile(self):
        assert ltz_tail_quantile(cumulant_traces([1.0]), 0.05) == pytest.approx(CHI2_1_Q95, abs=1e-5)

    def test_parameterization_consistency(self):
        c = cumulant_traces([1.0])
        a = ltz_tail_quantile(c, 0.05)
        b = ltz_tail_quantile(c, math.exp(-math.log(20.0)))
        assert a == pytest.approx(b, rel=1e-8)

    def test_round_trip(self):
        c = cumulant_traces([2.0, 1.0, 0.25])
        for p in (0.5, 0.1, 0.01, 1e-4):
            t = ltz_tail_quantile(c, p)
            assert ltz_tail_sf(c, t) == pytest.approx(p, abs=1e-8)

    def test_far_tail_round_trip(self):
        # budgets x_m reach ~150, i.e. p ~ 1e-65: the bracket must extend
        c = cumulant_traces([1.0, 0.7, 0.3])
        p = math.exp(-150.0)
        t = ltz_tail_quantile(c, p)
        assert ltz_tail_sf(c, t) == pytest.approx(p, rel=1e-6)

    def test_invalid_probability(self):
        c = cumulant_traces([1.0])
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidParameterError):
                ltz_tail_quantile(c, p)

    def test_scale_equivariance(self):
        a = np.array([2.0, 1.0, 0.5])
        for c in (3.0, 0.1):
            q1 = ltz_quantile_for_weights(a, 0.05)
            q2 = ltz_quantile_for_weights(c * a, 0.05)
            assert q2 == pytest.approx(c * q1, rel=1e-9)

    @pytest.mark.parametrize("cumulants", [(1.0, 1.0, 0.0), (1.0, 1.0, -0.5)])
    def test_nonpositive_third_cumulant_rejected(self, cumulants):
        # c3 <= 0 cannot arise from nonnegative weights: no skewness to match
        with pytest.raises(InvalidParameterError):
            ltz_tail_quantile(cumulants, 0.1)
        with pytest.raises(InvalidParameterError):
            ltz_tail_sf(cumulants, 1.0)

    @staticmethod
    def bisection_reference(cumulants, p):
        """The t with ltz_tail_sf(t) = p by bracket doubling and bisection."""
        c1, c2, c3 = cumulants
        lo, hi = 0.0, c1 + 20.0 * math.sqrt(2.0 * c2) + 20.0 * c3 ** (1.0 / 3.0)
        while ltz_tail_sf(cumulants, hi) > p:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            if ltz_tail_sf(cumulants, mid) > p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("x", [1.0, 50.0, 160.0])
    def test_closed_form_matches_bisection(self, x, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, sigma=1e-3, theta=2.0)
        lam = small_heat.eigenvalues
        weights = [[1.0], [2.0, 1.0, 0.25], [1.0, 0.7, 0.3]]
        for m1 in (0, grid.m_max // 2, grid.m_max - 1):
            q1 = filter_weight(spec, grid.alphas[m1], lam)
            q2 = filter_weight(spec, grid.alphas[grid.m_max], lam)
            weights.append(lam * (q1 - q2) ** 2 / np.max(lam * (q1 - q2) ** 2))
        p = math.exp(-x)
        for w in weights:
            c = cumulant_traces(w)
            assert ltz_tail_quantile(c, p) == pytest.approx(self.bisection_reference(c, p), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(float, st.integers(0, 40), elements=st.floats(0.0, 1.0)),
        st.lists(st.integers(1, 1600), min_size=2, max_size=8, unique=True),
    )
    def test_sf_inverts_quantile(self, w, log_p_tenths):
        # weights on the normalized scale (largest 1); p from e^-0.1 down to e^-160
        c = cumulant_traces(np.append(w, 1.0))
        ps = np.exp(-np.sort(log_p_tenths) / 10.0)  # decreasing
        ts = ltz_tail_quantile(c, ps)
        for p, t in zip(ps, ts):
            assert ltz_tail_sf(c, t) == pytest.approx(p, rel=1e-6)
        assert np.all(np.diff(ts) > 0.0)  # strictly decreasing in p

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 8)),
            elements=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        )
    )
    def test_stack_matches_rows_and_is_monotone(self, w):
        ps = [math.exp(-160.0), math.exp(-50.0), 1e-6, 0.01, 0.5, 0.99]
        stacked = np.array([ltz_quantile_for_weights(w, p) for p in ps])
        assert stacked.shape == (len(ps), w.shape[0])
        for row, w_row in enumerate(w):
            single = [ltz_quantile_for_weights(w_row, p) for p in ps]
            assert all(isinstance(q, float) for q in single)
            np.testing.assert_allclose(stacked[:, row], single, rtol=1e-14, atol=0.0)
        assert np.all(np.diff(stacked, axis=0) <= 0.0)


class TestMcTailQuantile:
    def test_chi2_1_quantile(self):
        q = mc_tail_quantiles([1.0], [0.05], 10**6, seed=7)[0]
        assert q == pytest.approx(3.84, abs=0.03)

    def test_chi2_1_median(self):
        q = mc_tail_quantiles([1.0], [0.5], 10**6, seed=7)[0]
        assert q == pytest.approx(CHI2_1_MEDIAN, abs=0.005)

    def test_determinism(self):
        a = [1.0, 0.5]
        assert mc_tail_quantiles(a, [0.1], 2000, seed=3)[0] == mc_tail_quantiles(a, [0.1], 2000, seed=3)[0]

    def test_doubling_samples_roughly_halves_variance(self):
        qs_small, qs_big = [], []
        for s in range(100):
            qs_small.append(mc_tail_quantiles([1.0], [0.1], 4000, seed=s)[0])
            qs_big.append(mc_tail_quantiles([1.0], [0.1], 8000, seed=10_000 + s)[0])
        ratio = np.var(qs_small) / np.var(qs_big)
        assert 1.3 <= ratio <= 3.1

    def test_sample_floor(self):
        with pytest.raises(InvalidParameterError):
            mc_tail_quantiles([1.0], [0.1], 999, seed=0)

    def test_multi_tail_consistency(self):
        qs = mc_tail_quantiles([1.0, 0.5], (0.3, 0.1), 5000, seed=2)
        assert qs[0] < qs[1]


class TestMcSampler:
    def test_determinism(self):
        a = [1.0, 0.5, 0.25]
        z = mc_sample_quadratic_form(a, 5001, seed=11)
        assert np.array_equal(z, mc_sample_quadratic_form(a, 5001, seed=11))
        assert not np.array_equal(z, mc_sample_quadratic_form(a, 5001, seed=12))

    @pytest.mark.parametrize("a", [[1.0], [1.0, 1.0]])
    def test_stream_independent_of_block_size(self, a, monkeypatch):
        # unit weights make the float32 contraction exact, so the draws
        # themselves are compared bit for bit
        ref = mc_sample_quadratic_form(a, 1001, seed=9)
        for elements in (1, 5, 10, 64):
            monkeypatch.setattr(genchi2, "_BLOCK_ELEMENTS", elements)
            assert np.array_equal(mc_sample_quadratic_form(a, 1001, seed=9), ref)

    @pytest.mark.parametrize("a", [[1.0, 0.5, 0.25], [1.0, 3.0, 0.1, 2.0]])
    def test_mixed_weights_independent_of_block_size(self, a, monkeypatch):
        # the contraction may sum in another order per block size; a shifted
        # stream would move the draws by far more than float32 rounding
        ref = mc_sample_quadratic_form(a, 1001, seed=9)
        for elements in (1, 5, 10, 64):
            monkeypatch.setattr(genchi2, "_BLOCK_ELEMENTS", elements)
            np.testing.assert_allclose(mc_sample_quadratic_form(a, 1001, seed=9), ref, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize(
        ("a", "samples", "elements"),
        [
            ([1.0], 200_001, None),  # 4 blocks of 65536 rows
            ([1.0, 3.0, 0.1, 2.0, 1e-3, 0.7, 5.0], 200_001, None),  # 22 blocks of 9362 rows
            ([1.0, 0.5, 0.25], 1001, 64),  # 51 blocks of 20 rows
            ([1.0, 3.0, 0.1, 2.0], 11, 10),  # 6 blocks of 2 rows, fewer than 7 CPUs
        ],
    )
    def test_draws_independent_of_cpu_count(self, a, samples, elements, monkeypatch):
        # every worker count contracts the same blocks as the serial loop, so
        # even mixed weights give the same draws bit for bit
        if elements is not None:
            monkeypatch.setattr(genchi2, "_BLOCK_ELEMENTS", elements)
        force_cpus(monkeypatch, 1)
        ref = mc_sample_quadratic_form(a, samples, seed=2**64 - 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for cpus in (2, 3, 7):
                force_cpus(monkeypatch, cpus)
                assert np.array_equal(mc_sample_quadratic_form(a, samples, seed=2**64 - 1), ref), cpus
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 7])
    def test_one_run_of_whole_blocks_per_cpu(self, cpus, monkeypatch):
        monkeypatch.setattr(genchi2, "_BLOCK_ELEMENTS", 10)  # 4 weights: blocks of 2 rows
        force_cpus(monkeypatch, cpus)
        calls = []
        fill = genchi2._fill_blocks

        def recording(z, a32, bitgen, start, stop, rows):
            calls.append((start, stop))
            fill(z, a32, bitgen, start, stop, rows)

        monkeypatch.setattr(genchi2, "_fill_blocks", recording)
        mc_sample_quadratic_form([1.0, 3.0, 0.1, 2.0], 11, seed=3)  # 6 blocks
        calls.sort()
        assert len(calls) == min(cpus, 6)
        assert [start for start, _ in calls] == [0] + [stop for _, stop in calls[:-1]]
        assert calls[-1][1] == 11
        assert all(start % 2 == 0 for start, _ in calls)

    def test_error_in_a_later_worker_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(genchi2, "_BLOCK_ELEMENTS", 10)
        force_cpus(monkeypatch, 3)
        fill = genchi2._fill_blocks

        def failing_last(z, a32, bitgen, start, stop, rows):
            if start > 0 and stop == 11:
                raise RuntimeError("last worker failed")
            fill(z, a32, bitgen, start, stop, rows)

        monkeypatch.setattr(genchi2, "_fill_blocks", failing_last)
        with pytest.raises(RuntimeError, match="last worker failed"):
            mc_sample_quadratic_form([1.0, 3.0, 0.1, 2.0], 11, seed=3)

    def test_draws_bounded_by_cap(self):
        z = mc_sample_quadratic_form([1.0], 10**6, seed=5)
        assert z.min() >= 0.0 and z.max() <= 45.8

    def test_all_zero_words_reach_cap(self, monkeypatch):
        class ZeroWords:
            def __init__(self, seed):
                pass

            def random_raw(self, size):
                return np.zeros(size, dtype=np.uint64)

        monkeypatch.setattr(genchi2.np.random, "PCG64DXSM", ZeroWords)
        z = mc_sample_quadratic_form([1.0], 4, seed=0)
        assert np.array_equal(z[1::2], np.zeros(2))
        np.testing.assert_allclose(z[0::2], -2.0 * math.log(2.0**-33), rtol=1e-6)
        assert z.max() <= 45.8

    def test_mean_and_variance(self):
        a = np.array([2.0, 1.0, 0.5, 0.5, 0.1, 3.0, 0.02])
        n = 400_000
        z = mc_sample_quadratic_form(a, n, seed=21)
        c1, c2, _ = cumulant_traces(a)
        c4 = float(np.sum(a**4))
        # Z has cumulants k1 = sum a, k2 = 2 sum a^2 and k4 = 48 sum a^4
        assert abs(z.mean() - c1) <= 5.0 * math.sqrt(2.0 * c2 / n)
        var_se = math.sqrt((48.0 * c4 + 2.0 * (2.0 * c2) ** 2) / n)
        assert abs(z.var() - 2.0 * c2) <= 5.0 * var_se

    @pytest.mark.parametrize(("a", "dof", "seed"), [([1.0], 1, 3), ([1.0, 1.0, 1.0], 3, 4)])
    def test_kolmogorov_smirnov_against_chi2(self, a, dof, seed):
        z = mc_sample_quadratic_form(a, 200_000, seed)
        assert stats.kstest(z, "chi2", args=(dof,)).pvalue > 0.01

    def test_no_standard_normal_path(self):
        assert "standard_normal" not in inspect.getsource(genchi2)

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, "10", None])
    def test_bad_sample_count_rejected(self, samples):
        with pytest.raises(InvalidParameterError):
            mc_sample_quadratic_form([1.0, 0.5], samples, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, False])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidParameterError):
            mc_sample_quadratic_form([1.0, 0.5], 10, seed)

    def test_integral_counts_of_other_types_accepted(self):
        z = mc_sample_quadratic_form([1.0, 0.5], 10, seed=3)
        assert np.array_equal(mc_sample_quadratic_form([1.0, 0.5], np.int64(10), np.uint64(3)), z)
        assert np.array_equal(mc_sample_quadratic_form([1.0, 0.5], 10.0, 3.0), z)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def fold_reference(a, samples):
    """The largest j whose j smallest weights keep the Laurent-Massart
    deviation within _FOLD_TOL of sum a, by a loop over j."""
    x = math.log(2.0 * samples) + genchi2._FOLD_LOG_RISK
    s = np.sort(a)
    j = 0
    while j + 1 < s.size:
        folded = s[: j + 1]
        bound = 2.0 * math.sqrt(float(np.sum(folded**2)) * x) + 2.0 * x * float(folded[-1])
        if bound > genchi2._FOLD_TOL * float(np.sum(s)):
            break
        j += 1
    return j


class TestFold:
    def test_draws_move_by_at_most_the_tolerance_on_benchmark_pairs(self, monkeypatch):
        # the same float64 squares with and without the fold, on the weights
        # the quantile-mc workload draws
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import quantile_pairs

        import solit

        samples = 1000
        rng = np.random.default_rng(5)
        squares = {}
        folded_any = False
        for key, w in quantile_pairs(solit):
            keep, folded = genchi2._fold(w, samples)
            if w.size not in squares:
                squares[w.size] = rng.standard_normal((samples, w.size)) ** 2
            eps2 = squares[w.size]
            full = eps2 @ w
            moved = np.max(np.abs(eps2[:, keep] @ w[keep] + folded - full))
            assert moved <= genchi2._FOLD_TOL * np.sum(w), key
            folded_any |= not keep.all()
        assert folded_any

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(float, st.integers(1, 60), elements=st.one_of(st.just(0.0), st.floats(1e-15, 1e3))),
        st.sampled_from([1, 1000, 200_000, 10**6]),
    )
    def test_folds_the_most_smallest_weights_and_keeps_the_largest(self, a, samples):
        if not a.any():  # all zero: the sampler returns before folding
            return
        keep, folded = genchi2._fold(a, samples)
        j = int(np.count_nonzero(~keep))
        assert j == fold_reference(a, samples)
        assert a[keep].max() == a.max()
        if j:
            assert a[~keep].max() <= a[keep].min()

    def test_largest_weight_kept_under_any_tolerance(self, monkeypatch):
        monkeypatch.setattr(genchi2, "_FOLD_TOL", 1e3)  # would fold every weight
        a = np.array([1.0, 2.0, 0.5, 2.0])
        keep, folded = genchi2._fold(a, 10)
        assert keep.sum() == 1 and a[keep][0] == 2.0 and folded == 3.5

    @settings(deadline=None)
    @given(hnp.arrays(float, st.integers(1, 60), elements=st.floats(1e-15, 1e3)))
    def test_folded_constant_is_the_sum_of_the_folded_weights(self, a):
        keep, folded = genchi2._fold(np.append(a, 1e6), 200_000)
        assert folded == pytest.approx(math.fsum(np.append(a, 1e6)[~keep]), rel=1e-12, abs=0.0)

    def test_folded_constant_is_added_to_every_draw(self):
        # one kept weight of 1 draws the same squares with or without the
        # folded ones, and contracts them exactly
        tiny = [1e-12] * 50
        keep, folded = genchi2._fold(np.array([1.0] + tiny), 4001)
        assert keep.tolist() == [True] + [False] * 50 and folded > 0.0
        z = mc_sample_quadratic_form([1.0] + tiny, 4001, seed=8)
        assert np.array_equal(z, mc_sample_quadratic_form([1.0], 4001, seed=8) + folded)

    @pytest.mark.parametrize("a", [[1.0], [1.0, 1.0], [0.3] * 1000, [2.5e-300] * 7])
    def test_single_or_equal_weights_fold_nothing(self, a):
        for samples in (1, 1000, 10**6):
            keep, folded = genchi2._fold(np.array(a), samples)
            assert keep.all() and folded == 0.0

    def test_kept_weights_drawn_in_their_original_order(self, monkeypatch):
        drawn = []
        fill = genchi2._fill_blocks

        def recording(z, a32, bitgen, start, stop, rows):
            drawn.append(a32.copy())
            fill(z, a32, bitgen, start, stop, rows)

        monkeypatch.setattr(genchi2, "_fill_blocks", recording)
        force_cpus(monkeypatch, 1)
        mc_sample_quadratic_form([1e-13, 3.0, 1e-14, 0.5, 2.0, 1e-13], 1000, seed=1)
        assert drawn[0].tolist() == [3.0, 0.5, 2.0]


class TestCriticalValue:
    def test_single_active_mode_normal_point(self):
        # cut-offs at 2.0 and 1.0 on a single unit eigenvalue differ by the
        # full weight 1/lambda, so the weight vector is exactly (1,)
        p = synthetic_problem([1.0], [0.0])
        z = critical_value_z(p, FilterSpec("cutoff"), 2.0, 1.0, math.log(20.0))
        assert z == pytest.approx(1.959964, abs=1e-5)

    def test_zero_budget(self):
        p = synthetic_problem([1.0], [0.0])
        assert critical_value_z(p, FilterSpec("cutoff"), 2.0, 1.0, 0.0) == 0.0

    def test_scale_square_root(self):
        # weights scale by c -> z scales by sqrt(c)
        p1 = synthetic_problem([1.0], [0.0])
        p4 = synthetic_problem([4.0], [0.0])
        z1 = critical_value_z(p1, FilterSpec("cutoff"), 2.0, 1.0, 2.0)
        # on lambda=4 the cut-off weight jump is 1/4, giving weight 4*(1/4)^2 = 1/4
        z4 = critical_value_z(p4, FilterSpec("cutoff"), 5.0, 4.0, 2.0)
        assert z4 == pytest.approx(0.5 * z1, rel=1e-9)

    def test_identical_filters_warn(self):
        p = synthetic_problem([1.0], [0.0])
        with pytest.warns(UserWarning):
            z = critical_value_z(p, FilterSpec("cutoff"), 0.3, 0.4, 1.0)
        assert z == 0.0

    def test_identical_alphas_rejected(self):
        p = synthetic_problem([1.0], [0.0])
        with pytest.raises(InvalidParameterError):
            critical_value_z(p, FilterSpec("tikhonov"), 0.5, 0.5, 1.0)

    def test_matches_monte_carlo_on_grid_pairs(self, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, sigma=1e-3, theta=2.0)
        lam = small_heat.eigenvalues
        for m1 in (0, grid.m_max // 2, grid.m_max - 1):
            w = lam * (filter_weight(spec, grid.alphas[m1], lam) - filter_weight(spec, grid.alphas[m1 + 1], lam)) ** 2
            for x in (1.0, 2.0):
                z = critical_value_z(small_heat, spec, grid.alphas[m1], grid.alphas[m1 + 1], x)
                mc = math.sqrt(mc_tail_quantiles(w, [math.exp(-x)], 200_000, seed=m1)[0])
                assert z == pytest.approx(mc, rel=0.05)
