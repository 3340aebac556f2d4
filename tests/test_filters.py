import math

import numpy as np
import pytest

from solit import FilterSpec, InvalidParameterError, filter_weight, validate_ordered_filter


def all_specs(lam_max=1.0):
    return [
        FilterSpec("tikhonov"),
        FilterSpec("showalter"),
        FilterSpec("cutoff"),
        FilterSpec("landweber", landweber_step=1.0 / lam_max),
    ]


class TestFilterWeight:
    def test_tikhonov_half(self):
        assert filter_weight(FilterSpec("tikhonov"), 0.5, 0.5) == 1.0

    def test_cutoff_below_threshold(self):
        assert filter_weight(FilterSpec("cutoff"), 0.1, 0.05) == 0.0

    def test_cutoff_tie_included(self):
        # closed indicator: lambda == alpha keeps the mode
        assert filter_weight(FilterSpec("cutoff"), 0.25, 0.25) == 4.0

    def test_showalter_unit(self):
        expected = -math.expm1(-1.0)  # 1 - e^{-1}
        assert filter_weight(FilterSpec("showalter"), 1.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_showalter_small_lambda_no_cancellation(self):
        # q -> 1/alpha as lambda -> 0
        q = filter_weight(FilterSpec("showalter"), 2.0, 1e-300)
        assert q == pytest.approx(0.5, rel=1e-12)
        assert filter_weight(FilterSpec("showalter"), 2.0, 0.0) == 0.5

    def test_landweber_geometric_sum(self):
        spec = FilterSpec("landweber", landweber_step=1.0)
        # alpha = 1/3 -> N = 3 iterations; q = step * sum_{j<3} (1-lam)^j
        lam = 0.25
        expected = sum((1 - lam) ** j for j in range(3))
        assert filter_weight(spec, 1.0 / 3.0, lam) == pytest.approx(expected, rel=1e-14)

    def test_nonpositive_alpha_rejected(self):
        for spec in all_specs():
            with pytest.raises(InvalidParameterError):
                filter_weight(spec, 0.0, 0.5)
            with pytest.raises(InvalidParameterError):
                filter_weight(spec, -1.0, 0.5)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_landweber_step_must_be_positive_and_finite(self, step):
        with pytest.raises(InvalidParameterError, match="relaxation step"):
            FilterSpec("landweber", landweber_step=step)
        with pytest.raises(InvalidParameterError, match="relaxation step"):
            FilterSpec.for_spectrum("landweber", [1.0, 0.5], landweber_step=step)

    def test_vectorized_matches_scalar(self):
        lam = np.array([0.0, 0.1, 0.5, 1.0])
        for spec in all_specs():
            vec = filter_weight(spec, 0.3, lam)
            scalars = [filter_weight(spec, 0.3, x) for x in lam]
            np.testing.assert_allclose(vec, scalars)


class TestOrderedFilterAxioms:
    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff", "landweber"])
    def test_axioms_on_100x100_grid(self, kind):
        lam = np.linspace(0.0, 1.0, 100)
        # reciprocal alphas make the Landweber iteration count exact
        alphas = 1.0 / np.arange(1, 101, dtype=float)
        spec = FilterSpec(kind, landweber_step=1.0) if kind == "landweber" else FilterSpec(kind)
        violations = validate_ordered_filter(spec, alphas, lam)
        assert not violations, violations

    def test_corrupted_filter_flagged(self):
        # q = 2/lambda violates lambda * q <= 1
        violations = validate_ordered_filter(
            FilterSpec("tikhonov"),
            [0.5, 0.25],
            np.array([0.5, 1.0]),
            weight_fn=lambda a, lam: 2.0 / np.asarray(lam),
        )
        assert violations
        assert any("exceeds 1" in v for v in violations)

    def test_ordering_violation_flagged(self):
        # weights increasing with alpha break the ordering axiom
        violations = validate_ordered_filter(
            FilterSpec("tikhonov"),
            [1.0, 0.5],
            np.array([0.2, 0.4]),
            weight_fn=lambda a, lam: a * np.ones_like(np.asarray(lam)),
        )
        assert any("ordering" in v for v in violations)

    def test_tikhonov_qualification(self):
        # sup over lambda of lambda * (1 - lambda q) <= alpha; the Tikhonov
        # residual 1 - lambda q is alpha / (lambda + alpha) = alpha q
        lam = np.linspace(0.0, 1.0, 500)
        for a in (1e-3, 0.05, 0.3, 1.0, 5.0):
            res = lam * a * filter_weight(FilterSpec("tikhonov"), a, lam)
            assert np.max(res) <= a + 1e-12


class TestFilterSpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            FilterSpec("wiener")

    def test_landweber_requires_step(self):
        with pytest.raises(InvalidParameterError):
            FilterSpec("landweber")

    def test_from_name(self):
        lam = np.array([1.0, 0.5])
        assert FilterSpec.for_spectrum("cutoff", lam).kind == "cutoff"
        assert FilterSpec.for_spectrum(" LandWeber ", lam, landweber_step=0.5) == FilterSpec("landweber", 0.5)


class TestForSpectrum:
    def test_landweber_step_defaults_to_inverse_largest_eigenvalue(self):
        lam = np.array([4.0, 2.0, 0.5])
        assert FilterSpec.for_spectrum("landweber", lam).landweber_step == 0.25
        assert FilterSpec.for_spectrum("landweber", lam, landweber_step=0.1).landweber_step == 0.1

    def test_other_filters_take_no_step(self):
        lam = np.array([4.0, 2.0, 0.5])
        for kind in ("tikhonov", "showalter", "cutoff"):
            assert FilterSpec.for_spectrum(kind, lam) == FilterSpec(kind)
