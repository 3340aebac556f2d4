import math
import re

import numpy as np
import pytest

from solit import (
    InvalidParameterError,
    antiderivative_problem,
    get_problem,
    gradiometry_problem,
    heat_problem,
    synthesize,
)
from solit import testproblems
from solit.testproblems import _gradiometry_modes


def gradiometry_coordinates(n, R):
    """Truth, data and basis tags (kind, k) of the gradiometry coordinates."""
    p = gradiometry_problem(n, R=R)
    _, (kinds, modes) = _gradiometry_modes(n, R)
    return p.truth, p.data_truth, list(zip(kinds.tolist(), modes.tolist()))


def anti_crime_gap(problem):
    return problem.data_truth - np.sqrt(problem.eigenvalues) * problem.truth


def hat(x):
    return np.where(x <= 0.5, x, 1.0 - x)


def antiderivative_data_fn(x):
    """The piecewise cubic g with g'' = -hat and g(0) = g(1) = 0."""
    left = -x * (4.0 * x**2 - 3.0) / 24.0
    right = (x - 1.0) * (4.0 * x**2 - 8.0 * x + 1.0) / 24.0
    return np.where(x <= 0.5, left, right)


def sine_coordinates_by_quadrature(fn, n, pieces=64, nodes=24):
    """Coordinates of ``fn`` in the basis sqrt(2) sin(k pi x), k = 1..n, by
    float64 composite Gauss-Legendre quadrature.  An even number of pieces
    puts the kink x = 1/2 on a breakpoint; many low-order pieces keep the
    rounding of the rule itself far below that of one high-order rule."""
    t, wt = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, 1.0, pieces + 1)
    half = 0.5 * np.diff(edges)[:, None]
    xs = (half * t + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    ws = (half * wt).ravel()
    k = np.arange(1, n + 1)[:, None]
    return (math.sqrt(2.0) * np.sin(k * math.pi * xs)) @ (ws * fn(xs))


class TestAntiderivative:
    def test_top_eigenvalue(self):
        p = antiderivative_problem(32)
        assert p.eigenvalues[0] == pytest.approx(math.pi**-4, rel=1e-14)

    def test_polynomial_decay(self):
        p = antiderivative_problem(64)
        k = np.arange(1, 65)
        ratio = p.eigenvalues / (math.pi**-4 * k**-4.0)
        assert np.all((ratio > 0.5) & (ratio < 2.0))

    def test_even_modes_vanish(self):
        p = antiderivative_problem(32)
        assert abs(p.truth[1]) < 1e-14  # k = 2
        assert abs(p.truth[3]) < 1e-14  # k = 4

    def test_data_truth_ratio_is_singular_value(self):
        p = antiderivative_problem(64)
        for k in range(1, 16, 2):
            ratio = p.data_truth[k - 1] / p.truth[k - 1]
            assert ratio == pytest.approx((k * math.pi) ** -2, rel=1e-8)

    def test_minimum_size(self):
        with pytest.raises(InvalidParameterError):
            antiderivative_problem(4)

    def test_builds_at_large_n(self):
        p = antiderivative_problem(100_000)
        assert p.n == 100_000
        assert p.truth[-1] == 0.0  # k = 100 000 is even
        k = 99_999  # sin(k pi / 2) = -1
        assert p.truth[k - 1] == pytest.approx(-2.0 * math.sqrt(2.0) / (k * math.pi) ** 2, rel=1e-14)


class TestGradiometry:
    def test_top_symbol_value(self):
        p = gradiometry_problem(8, R=2.0)
        # mode k=1 has lambda = 1*4*2^-6; the top of the sorted spectrum is
        # the k=2/k=3 coincidence at 0.140625
        assert 0.0625 in p.eigenvalues
        assert p.eigenvalues[0] == pytest.approx(0.140625)

    def test_sorted_nonincreasing(self):
        p = gradiometry_problem(30)
        assert np.all(np.diff(p.eigenvalues) <= 0)

    def test_printed_series_coefficient(self):
        # function-series cosine coefficient for k=1 at R=2 is
        # (4/pi) * 2 * 2^-3 = 1/pi; the stored coordinate is sqrt(pi) times it
        truth, data, tags = gradiometry_coordinates(8, 2.0)
        i = tags.index(("cos", 1))
        assert data[i] / math.sqrt(math.pi) == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_forward_symbol_reproduces_data(self):
        truth, data, tags = gradiometry_coordinates(16, 2.0)
        for k in range(1, 10, 2):
            i = tags.index(("cos", k))
            symbol = k * (k + 1) * 2.0 ** (-k - 2)
            assert data[i] == pytest.approx(symbol * truth[i], rel=1e-9)

    def test_data_series_reaches_modes_above_257(self):
        truth, data, tags = gradiometry_coordinates(300, 1.01)
        for k in (259, 299):
            i = tags.index(("cos", k))
            symbol = k * (k + 1) * 1.01 ** (-k - 2)
            assert data[i] == pytest.approx(symbol * truth[i], rel=1e-9)

    def test_sine_coordinates_zero(self):
        truth, data, tags = gradiometry_coordinates(8, 2.0)
        for i, (kind, _) in enumerate(tags):
            if kind == "sin":
                assert truth[i] == 0.0 and data[i] == 0.0

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameterError):
            gradiometry_problem(8, R=1.0)


class TestHeat:
    def test_top_eigenvalues(self):
        p = heat_problem(8, t_bar=0.1)
        assert p.eigenvalues[0] == 1.0  # invariant mode
        assert p.eigenvalues[1] == pytest.approx(math.exp(-0.2), rel=1e-14)

    def test_mode_zero_truth_vanishes(self):
        p = heat_problem(8)
        assert p.truth[0] == 0.0

    def test_level_ratio(self):
        p = heat_problem(8, t_bar=0.1)
        levels = np.unique(p.eigenvalues)[::-1]
        assert levels[2] / levels[1] == pytest.approx(math.exp(-0.6), rel=1e-12)

    def test_underflow_guard(self):
        with pytest.raises(InvalidParameterError):
            heat_problem(64, t_bar=0.1)  # exp(-819) underflows float64


class TestSevereDecaySignature:
    @pytest.mark.parametrize("name", ["gradiometry", "heat"])
    def test_log_eigenvalues_decay_at_accelerating_rate(self, name, small_benchmarks):
        # distinct eigenvalue levels of the severely ill-posed problems fall
        # faster than geometrically: successive log-ratios shrink.  The
        # gradiometry symbol rises until mode 3, so the first sorted levels
        # interleave mode 1 with the tail; the check starts below that head.
        levels = np.unique(small_benchmarks[name].eigenvalues)[::-1]
        if name == "gradiometry":
            levels = levels[3:]
        logs = np.log(levels)
        steps = np.diff(logs)  # negative
        assert np.all(steps < 0)
        assert np.all(np.diff(steps) < 1e-12)

    def test_antiderivative_is_not_accelerating(self, small_antiderivative):
        logs = np.log(small_antiderivative.eigenvalues)
        steps = np.diff(logs)
        assert np.all(np.diff(steps) > 0)  # k^-4 decay slows in log scale


class TestAntiInverseCrime:
    @pytest.mark.parametrize("name", ["gradiometry", "heat"])
    def test_gap_nonzero_but_tiny(self, name, small_benchmarks):
        p = small_benchmarks[name]
        gap = anti_crime_gap(p)
        assert np.max(np.abs(gap)) > 0.0
        assert np.linalg.norm(gap) <= 1e-6 * np.linalg.norm(p.data_truth)
        # dominant coordinates agree to 1e-6 in relative terms
        scale = np.max(np.abs(p.data_truth))
        dominant = np.abs(p.data_truth) >= 1e-6 * scale
        rel = np.abs(gap[dominant]) / np.abs(p.data_truth[dominant])
        assert np.max(rel) <= 1e-6

    @pytest.mark.parametrize("n", [64, 200])
    def test_antiderivative_closed_form_matches_quadrature(self, n):
        # the closed-form truth and data are the forward map of each other by
        # construction; an independent quadrature of the hat and of the
        # analytic data function must reproduce both
        p = antiderivative_problem(n)
        for coords, fn in ((p.truth, hat), (p.data_truth, antiderivative_data_fn)):
            quad = sine_coordinates_by_quadrature(fn, n)
            err = np.abs(coords - quad)
            assert np.max(err) <= 1e-14
            dominant = np.abs(quad) >= 1e-6 * np.max(np.abs(quad))
            assert np.max(err[dominant] / np.abs(quad[dominant])) <= 1e-8


class TestDispatchAndSynthesis:
    def test_get_problem_names(self):
        for name in ("antiderivative", "gradiometry", "heat"):
            p = get_problem(name, n=16)
            assert p.label == name
        with pytest.raises(InvalidParameterError):
            get_problem("radon")

    def test_truth_synthesis_matches_target_function(self):
        xs = np.linspace(0.05, 0.95, 7)
        p = antiderivative_problem(600)
        vals = synthesize("antiderivative", p.truth, xs, n=600)
        np.testing.assert_allclose(vals, hat(xs), atol=2e-3)

    def test_heat_truth_synthesis(self):
        xs = np.linspace(-2.5, 2.5, 9)
        p = heat_problem(40)
        vals = synthesize("heat", p.truth, xs, n=40)
        # the truncated cosine series misses ~0.016 at the kink of the tent
        np.testing.assert_allclose(vals, math.pi / 2 - np.abs(xs), atol=0.02)

    def test_synthesis_length_check(self):
        with pytest.raises(InvalidParameterError):
            synthesize("heat", [1.0, 2.0], [0.0], n=8)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError, match="unexpected keyword argument 'R'"):
            get_problem("heat", R=2.0)
        with pytest.raises(InvalidParameterError):
            synthesize("antiderivative", np.zeros(8), [0.5], n=8, t_bar=0.1)

    def test_parameter_types(self):
        # an integral float stands for an int, an int or a numpy number for a float
        heat, heat_float_n = get_problem("heat", n=12), get_problem("heat", n=12.0)
        np.testing.assert_array_equal(heat_float_n.data_truth, heat.data_truth)
        grad, grad_typed = get_problem("gradiometry", n=8), get_problem("gradiometry", n=np.int64(8), R=2)
        np.testing.assert_array_equal(grad_typed.eigenvalues, grad.eigenvalues)
        for params, message in [({"t_bar": "0.1"}, "option 't_bar' must be of type float, not '0.1'"),
                                 ({"n": 12.5}, "option 'n' must be of type int, not 12.5"),
                                 ({"n": True}, "option 'n' must be of type int, not True"),
                                 ({"t_bar": math.nan}, "option 't_bar' must be of type float, not nan")]:
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
                get_problem("heat", **params)
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
                synthesize("heat", np.zeros(25), [0.0], **params)

    @pytest.mark.parametrize("name", ["gradiometry", "heat"])
    def test_synthesis_runs_no_quadrature(self, name, monkeypatch):
        xs = np.linspace(-2.5, 2.5, 9)
        p = get_problem(name, n=12)
        expected = synthesize(name, p.truth, xs, n=12)

        def no_quadrature(*args):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(testproblems, "_project", no_quadrature)
        monkeypatch.setattr(testproblems, "_piecewise_gauss", no_quadrature)
        np.testing.assert_array_equal(synthesize(name, p.truth, xs, n=12), expected)
        with pytest.raises(AssertionError, match="quadrature"):
            get_problem(name, n=12)

    @pytest.mark.parametrize("name", ["gradiometry", "heat"])
    def test_gauss_legendre_nodes_are_cached_read_only(self, name, monkeypatch):
        testproblems._gauss_legendre.cache_clear()
        cold = get_problem(name, n=12)
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda order: calls.append(order) or leggauss(order))
        warm = get_problem(name, n=12)
        assert calls == []  # the second build reads the nodes of the first
        for field in ("eigenvalues", "truth", "data_truth"):
            np.testing.assert_array_equal(getattr(warm, field), getattr(cold, field))
        nodes, weights = testproblems._gauss_legendre(70)
        assert not (nodes.flags.writeable or weights.flags.writeable)
        want = leggauss(70)
        np.testing.assert_array_equal(nodes, want[0])
        np.testing.assert_array_equal(weights, want[1])
