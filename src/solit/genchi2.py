"""Tail probabilities and quantiles of generalized chi-squared variables.

The variable of interest is Z = sum_i a_i eps_i^2 with nonnegative, finite
weights a_i and independent standard normal eps_i.  Its upper tail is
approximated by matching skewness and kurtosis to a chi-squared
distribution.  For nonnegative weights the match is a central chi-squared, so
tail probabilities and quantiles follow in closed form from its survival
function and its inverse.  ``noncentral_chi2_sf`` stays available on its own.

The independent cross-check is a seeded Monte Carlo sampler.  It only ever
needs the squares eps_i^2, and draws them in pairs by squared Box-Muller:
with R^2 = -2 ln U and theta = pi V for independent uniforms U and V,
R^2 cos^2(theta) and R^2 sin^2(theta) are two independent chi-squared(1)
variables (Box & Muller 1958, Ann. Math. Statist. 29).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special

from .errors import InvalidParameterError
from .filters import FilterSpec, filter_weight
from .sequence_model import SpectralProblem

_POISSON_MASS_TOL = 1e-14
_BLOCK_ELEMENTS = 2**16  # squared normals per Monte Carlo block


def _weights_array(w, max_ndim: int = 1) -> tuple:
    """The weights as a float array and the largest weight of each vector;
    raises unless they are finite and nonnegative."""
    arr = np.asarray(w, dtype=float)
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        raise InvalidParameterError("weights must form a nonempty vector (or stack of vectors)")
    if np.any(arr < 0):
        raise InvalidParameterError("weights must be nonnegative")
    amax = np.max(arr, axis=-1)
    # past the sign check the largest weight is NaN or inf exactly when some
    # weight is, so one reduction covers both the scale and the finiteness
    if not np.all(np.isfinite(amax)):
        raise InvalidParameterError("weights must be finite")
    return arr, amax


def _power_sums(a: np.ndarray) -> tuple:
    a2 = a * a  # products, not a**3 and a**4: the generic power is far slower
    return tuple(np.sum(b, axis=-1) for b in (a, a2, a2 * a, a2 * a2))


def cumulant_traces(w) -> tuple:
    """Power sums (sum a, sum a^2, sum a^3, sum a^4) of the weights: floats
    for one vector, arrays with one entry per row for a stack (r, n)."""
    a, _ = _weights_array(w, max_ndim=2)
    sums = _power_sums(a)
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


def ltz_tail_sf(cumulants, t: float) -> float:
    """Skewness/kurtosis-matched chi-squared approximation of P(Z > t).

    Nonnegative weights match the central chi-squared with
    l = c2^3 / c3^2 degrees of freedom (see ``ltz_tail_quantile``), so

      P(Z > t) ~ P(chi2_l > l + (t - c1) c2 / c3),

    the exact inverse of ``ltz_tail_quantile``.  Raises when c2 <= 0 or
    c3 <= 0 (no skewness to match).
    """
    c1, c2, c3, _ = (float(c) for c in cumulants)
    if not c2 > 0:
        raise InvalidParameterError("second cumulant trace must be positive")
    if not c3 > 0:
        raise InvalidParameterError("third cumulant trace must be positive")
    l = c2**3 / c3**2
    # chdtrc is NaN below 0, where the tail probability is 1
    return float(special.chdtrc(l, max(l + (t - c1) * c2 / c3, 0.0)))


def ltz_tail_quantile(cumulants, p):
    """Upper-tail quantile: the t with ltz_tail_sf(t) = p, 0 < p < 1.

    Nonnegative weights give c3^2 <= c2 c4, i.e. s1^2 <= s2, so the matched
    distribution is the central chi-squared with l = c2^3 / c3^2 degrees of
    freedom (Liu, Tang & Zhang 2009), and

      t = c1 + (c3 / c2) (chdtri(l, p) - l).

    The cumulants and ``p`` may be arrays (broadcast together); a
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
    a, amax = _weights_array(w, max_ndim=2)
    rows = np.atleast_2d(a)
    amax = np.atleast_1d(amax)
    q = np.zeros(rows.shape[0])
    live = amax > 0.0
    if np.any(live):
        cumulants = _power_sums(rows[live] / amax[live, None])
        q[live] = amax[live] * ltz_tail_quantile(cumulants, p)
    return float(q[0]) if a.ndim == 1 else q


def _fill_blocks(z: np.ndarray, a32: np.ndarray, bitgen, start: int, stop: int, rows: int) -> None:
    """Draws ``z[start:stop]`` block by block from ``bitgen``, which stands at
    word ``start * k / 2`` of the seed's stream."""
    k = a32.size
    for lo in range(start, stop, rows):
        m = min(rows, stop - lo)
        need = (m * k + 1) // 2
        words = bitgen.random_raw(need).view(np.uint32).reshape(need, 2)
        r2 = np.add(words[:, 0], np.float32(0.5), dtype=np.float32)
        r2 *= np.float32(2.0**-32)
        np.log(r2, out=r2)
        r2 *= np.float32(-2.0)
        cos2 = np.multiply(words[:, 1], np.float32(math.pi * 2.0**-32), dtype=np.float32)
        np.cos(cos2, out=cos2)
        cos2 *= cos2
        pairs = np.empty((need, 2), dtype=np.float32)
        np.multiply(r2, cos2, out=pairs[:, 0])
        np.subtract(r2, pairs[:, 0], out=pairs[:, 1])
        z[lo : lo + m] = pairs.reshape(-1)[: m * k].reshape(m, k) @ a32


def mc_sample_quadratic_form(w, samples: int, seed: int) -> np.ndarray:
    """Seeded draws of Z = sum a_i eps_i^2, deterministic given the seed.

    Weights below 1e-9 of the largest are dropped: their total mean mass
    shifts any quantile by a relative amount far below the Monte Carlo noise
    at the supported sample sizes.

    The squared normals come in squared Box-Muller pairs, one 64-bit word of
    a ``PCG64DXSM(seed)`` stream per pair.  The word's two 32-bit halves u
    and v give U = (u + 1/2) 2^-32 in (0, 1], R^2 = -2 ln U and
    theta = pi v 2^-32, and the pair is (R^2 cos^2 theta, R^2 - R^2 cos^2
    theta).  The pairs fill each (samples, kept weights) block row by row,
    and every block but the last holds an even number of squares, so the
    squared normals do not depend on the block size.  All of it runs in
    float32: each eps^2 carries about 1e-7 relative rounding, far below the
    Monte Carlo noise.  The largest possible square is -2 ln 2^-33 = 45.75;
    the chi-squared(1) mass beyond it is 1.3e-11, out of reach of any
    supported sample size.

    The blocks are split into contiguous runs, one per CPU of the process's
    affinity set (never more runs than blocks).  The first run is drawn on
    the calling thread, each other one on a worker thread whose generator is
    advanced to the run's first word, ``start * k / 2``.  The words, the
    blocks and the arithmetic are those of one serial pass, so the draws do
    not depend on the CPU count.
    """
    a, amax = _weights_array(w)
    if amax == 0.0:
        return np.zeros(samples)
    a32 = a[a > amax * 1e-9].astype(np.float32)
    k = a32.size
    rows = max(2, min(_BLOCK_ELEMENTS // k, samples + 1) & ~1)  # even, so rows * k is even
    blocks = -(-samples // rows)
    # platforms without an affinity call (macOS, Windows) keep the serial loop
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, blocks)
    edges = [min(rows * (blocks * i // workers), samples) for i in range(workers + 1)]
    z = np.empty(samples)
    # one CPU submits nothing, so no thread starts and the first run is the
    # whole serial loop
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        rest = [
            pool.submit(_fill_blocks, z, a32, np.random.PCG64DXSM(seed).advance(lo * k // 2), lo, hi, rows)
            for lo, hi in zip(edges[1:-1], edges[2:])
        ]
        _fill_blocks(z, a32, np.random.PCG64DXSM(seed), 0, edges[1], rows)
        for future in rest:
            future.result()
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
