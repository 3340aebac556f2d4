"""Tail probabilities and quantiles of generalized chi-squared variables.

The variable of interest is Z = sum_i a_i eps_i^2 with nonnegative weights
a_i and independent standard normal eps_i.  Its upper tail is approximated by
matching skewness and kurtosis to a (possibly non-central) chi-squared
distribution.  For nonnegative weights the match is a central chi-squared,
so quantiles follow in closed form from its inverse survival function.  A
seeded Monte Carlo quantile is provided as the independent cross-check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import special

from .errors import InvalidParameterError
from .filters import FilterSpec, filter_weight
from .sequence_model import SpectralProblem

_POISSON_MASS_TOL = 1e-14


def _weights_array(w, max_ndim: int = 1) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        raise InvalidParameterError("weights must form a nonempty vector (or stack of vectors)")
    if np.any(arr < 0):
        raise InvalidParameterError("weights must be nonnegative")
    return arr


def cumulant_traces(w) -> tuple:
    """Power sums (sum a, sum a^2, sum a^3, sum a^4) of the weights: floats
    for one vector, arrays with one entry per row for a stack (r, n)."""
    a = _weights_array(w, max_ndim=2)
    a2 = a * a  # products, not a**3 and a**4: the generic power is far slower
    sums = tuple(np.sum(b, axis=-1) for b in (a, a2, a2 * a, a2 * a2))
    return tuple(float(s) for s in sums) if a.ndim == 1 else sums


def noncentral_chi2_sf(l: float, delta: float, x: float) -> float:
    """Survival function P(chi2_l(delta) > x) for l > 0 degrees of freedom and
    non-centrality delta >= 0.

    The non-central case is a Poisson(delta/2) mixture of central terms,
    truncated once the remaining Poisson mass drops below 1e-14; the central
    case reduces to the regularized upper incomplete gamma function.
    """
    if l <= 0 or not math.isfinite(l):
        raise InvalidParameterError("degrees of freedom must be positive")
    if delta < 0:
        raise InvalidParameterError("non-centrality must be nonnegative")
    if x <= 0:
        return 1.0
    if delta == 0:
        return float(special.gammaincc(l / 2.0, x / 2.0))
    rate = delta / 2.0
    # the 12-sigma window leaves a true Poisson tail far below the 1e-14
    # truncation target; the float sum of the kept weights still carries
    # ~1e-13 of gammaln/exp rounding dust, hence the looser sanity bound
    j_hi = int(math.ceil(rate + 12.0 * math.sqrt(rate + 1.0) + 60.0))
    j = np.arange(0, j_hi + 1)
    logw = j * math.log(rate) - rate - special.gammaln(j + 1.0)
    wts = np.exp(logw)
    mass = float(np.sum(wts))
    if mass < 1.0 - 1e-9:  # pragma: no cover - window is generous
        raise InvalidParameterError("Poisson mixture failed to capture enough mass")
    keep = wts > _POISSON_MASS_TOL * 1e-3
    sf = float(np.sum(wts[keep] * special.gammaincc((l + 2.0 * j[keep]) / 2.0, x / 2.0)))
    return min(max(sf, 0.0), 1.0)


def _gaussian_tail_sf(c1: float, c2: float, t: float) -> float:
    z = (t - c1) / math.sqrt(2.0 * c2)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def ltz_tail_sf(cumulants, t: float) -> float:
    """Skewness/kurtosis-matched chi-squared approximation of P(Z > t).

    With s1 = c3 / c2^{3/2} and s2 = c4 / c2^2 the matched parameters are

      if s1^2 > s2:  a = 1/(s1 - sqrt(s1^2 - s2)), delta = s1 a^3 - a^2,
                     l = a^2 - 2 delta
      else:          delta = 0, l = c2^3 / c3^2, a = 1/s1

    and P(Z > t) ~ P(chi2_l(delta) > sqrt(2) a (t - c1)/sqrt(2 c2) + l + delta).
    A vanishing third cumulant (possible only for degenerate weights) falls
    back to the Gaussian tail.
    """
    c1, c2, c3, c4 = (float(c) for c in cumulants)
    if c2 <= 0:
        raise InvalidParameterError("second cumulant trace must be positive")
    s1 = c3 / c2**1.5
    s2 = c4 / c2**2
    if c3 <= 0 or s1 < 1e-150:
        return _gaussian_tail_sf(c1, c2, t)
    if s1 * s1 > s2:
        root = math.sqrt(s1 * s1 - s2)
        a = 1.0 / (s1 - root)
        delta = s1 * a**3 - a**2
        l = a * a - 2.0 * delta
    else:
        delta = 0.0
        l = c2**3 / c3**2
        a = 1.0 / s1
    if not (math.isfinite(l) and l > 0 and math.isfinite(delta) and delta >= 0):
        return _gaussian_tail_sf(c1, c2, t)
    x = math.sqrt(2.0) * a * (t - c1) / math.sqrt(2.0 * c2) + l + delta
    return noncentral_chi2_sf(l, delta, x)


def ltz_tail_quantile(cumulants, p):
    """Upper-tail quantile: the t with ltz_tail_sf(t) = p, 0 < p < 1.

    Nonnegative weights give c3^2 <= c2 c4, i.e. s1^2 <= s2, so the matched
    distribution is the central chi-squared with l = c2^3 / c3^2 degrees of
    freedom (Liu, Tang & Zhang 2009), and

      t = c1 + (c3 / c2) (chdtri(l, p) - l).

    The non-central branch of ``ltz_tail_sf`` is reached only through
    rounding at c3^2 = c2 c4, where its delta -> 0 limit is this central
    form.  The cumulants and ``p`` may be arrays (broadcast together); a
    scalar call returns a float.  Raises when c3 <= 0 (no skewness to match)
    or the result is not finite.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InvalidParameterError("tail probability must lie strictly in (0, 1)")
    c1, c2, c3, _ = (np.asarray(c, dtype=float) for c in cumulants)
    if np.any(c2 <= 0):
        raise InvalidParameterError("second cumulant trace must be positive")
    if np.any(c3 <= 0):
        raise InvalidParameterError("third cumulant trace must be positive")
    l = c2**3 / c3**2
    t = c1 + (c3 / c2) * (special.chdtri(l, p) - l)
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("tail quantile is not finite")
    return float(t) if t.ndim == 0 else t


def ltz_quantile_for_weights(w, p: float):
    """Approximated upper-tail quantile of Z = sum a_i eps_i^2.

    ``w`` is one weight vector (the result is a float) or a stack (r, n) of
    them (the result holds one quantile per row).  Works on the normalized
    weight scale internally (quantiles are scale-equivariant), which keeps
    the fourth power sum inside float64 range for strongly amplifying weight
    vectors.  An all-zero vector has quantile 0.
    """
    a = _weights_array(w, max_ndim=2)
    rows = np.atleast_2d(a)
    amax = np.max(rows, axis=1)
    q = np.zeros(rows.shape[0])
    live = amax > 0.0
    if np.any(live):
        cumulants = cumulant_traces(rows[live] / amax[live, None])
        q[live] = amax[live] * ltz_tail_quantile(cumulants, p)
    return float(q[0]) if a.ndim == 1 else q


def mc_sample_quadratic_form(w, samples: int, seed: int) -> np.ndarray:
    """Seeded draws of Z = sum a_i eps_i^2.

    Weights below 1e-9 of the largest are dropped: their total mean mass
    shifts any quantile by a relative amount far below the Monte Carlo noise
    at the supported sample sizes.  Normals are generated in float32 (the
    per-draw rounding of eps^2 is ~1e-7 relative, again far below the MC
    noise); the draws are deterministic given the seed.
    """
    a = _weights_array(w)
    amax = float(np.max(a))
    if amax > 0:
        a = a[a > amax * 1e-9]
    if amax == 0.0:
        return np.zeros(samples)
    a32 = a.astype(np.float32)
    rng = np.random.Generator(np.random.PCG64DXSM(seed))
    z = np.empty(samples)
    chunk = max(1, int(2**23 // a.size))
    filled = 0
    while filled < samples:
        m = min(chunk, samples - filled)
        eps = rng.standard_normal((m, a.size), dtype=np.float32)
        np.square(eps, out=eps)
        z[filled : filled + m] = eps @ a32
        filled += m
    return z


def mc_tail_quantiles(w, ps, samples: int, seed: int) -> np.ndarray:
    """Empirical upper-tail quantiles at several tail probabilities from a
    single batch of seeded draws."""
    if samples < 1000:
        raise InvalidParameterError("at least 1000 Monte Carlo samples are required")
    ps = np.asarray(ps, dtype=float)
    if np.any((ps <= 0) | (ps >= 1)):
        raise InvalidParameterError("tail probabilities must lie strictly in (0, 1)")
    z = mc_sample_quadratic_form(w, samples, seed)
    return np.quantile(z, 1.0 - ps)


def critical_value_z(
    problem: SpectralProblem,
    spec: FilterSpec,
    alpha_a: float,
    alpha_b: float,
    x: float,
) -> float:
    """Critical value z(x): the e^{-x} upper-tail point of the norm of the
    pure-noise estimator difference between two candidates.

    The squared norm is a generalized chi-squared with weights
    a_i = lam_i (q_{alpha_a}(lam_i) - q_{alpha_b}(lam_i))^2, so z(x) is the
    square root of its e^{-x} tail quantile.  Identical filters on the whole
    spectrum yield z = 0 with a warning.
    """
    if x < 0:
        raise InvalidParameterError("tail exponent x must be nonnegative")
    if alpha_a == alpha_b:
        raise InvalidParameterError("critical values need two distinct candidates")
    if x == 0.0:
        return 0.0
    qa = filter_weight(spec, alpha_a, problem.eigenvalues)
    qb = filter_weight(spec, alpha_b, problem.eigenvalues)
    a = problem.eigenvalues * (qa - qb) ** 2
    amax = float(np.max(a))
    if amax == 0.0:
        warnings.warn(
            "the two candidates have identical filters on the retained spectrum; "
            "critical value is 0",
            stacklevel=2,
        )
        return 0.0
    p = math.exp(-x)
    if p == 0.0:
        raise InvalidParameterError(f"tail exponent x={x} underflows e^-x")
    return math.sqrt(ltz_quantile_for_weights(a, p))
