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
variables (Box & Muller 1958, Ann. Math. Statist. 29).  It draws only the
weights that matter: the smallest ones are folded into their exact mean,
sum a_i, which is added to every draw.  By Laurent & Massart (2000, Ann.
Statist. 28, Lemma 1) the folded part sum_F a_i (eps_i^2 - 1) of one draw
exceeds 2 ||a_F||_2 sqrt(x) + 2 max(a_F) x with probability at most e^-x and
falls below -2 ||a_F||_2 sqrt(x) with probability at most e^-x; the sampler
folds as many weights as keep that deviation below ``_FOLD_TOL`` (1e-6) of
E[Z] = sum a_i, with x chosen so that no draw of a call breaks the bound
with probability above e^-14.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import special

from .errors import InvalidParameterError, typed_option
from .filters import FilterSpec, filter_weight
from .parallel import cpu_count, map_on_cpus
from .sequence_model import SpectralProblem

_POISSON_MASS_TOL = 1e-14
_BLOCK_ELEMENTS = 2**16  # squared normals per Monte Carlo block
_FOLD_TOL = 1e-6  # folded deviation allowed per draw, relative to E[Z]
_FOLD_LOG_RISK = 14.0  # some draw of a call breaks the fold bound with probability <= e^-14


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
    a2 = a * a  # products, not a**3: the generic power is far slower
    return tuple(np.sum(b, axis=-1) for b in (a, a2, a2 * a))


def cumulant_traces(w) -> tuple:
    """Power sums (sum a, sum a^2, sum a^3) of the weights, all that the
    central chi-squared match reads: floats for one vector, arrays with one
    entry per row for a stack (r, n)."""
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


def _matched_dof(c2, c3):
    """Degrees of freedom l = c2^3 / c3^2 of the central chi-squared matched to
    the traces c2 and c3, floats or arrays; raises unless all are positive."""
    if not (np.all(c2 > 0) and np.all(c3 > 0)):
        raise InvalidParameterError("second and third cumulant traces must be positive")
    return c2**3 / c3**2


def ltz_tail_sf(cumulants, t: float) -> float:
    """Skewness/kurtosis-matched chi-squared approximation of P(Z > t).

    Nonnegative weights match the central chi-squared with
    l = c2^3 / c3^2 degrees of freedom (see ``ltz_tail_quantile``), so

      P(Z > t) ~ P(chi2_l > l + (t - c1) c2 / c3),

    the exact inverse of ``ltz_tail_quantile``.  Raises when c2 <= 0 or
    c3 <= 0 (no skewness to match), or t is NaN.
    """
    if not -math.inf <= t <= math.inf:
        raise InvalidParameterError(f"tail point must be a number, not {t!r}")
    c1, c2, c3 = (float(c) for c in cumulants)
    l = _matched_dof(c2, c3)
    # chdtrc is NaN below 0, where the tail probability is 1
    return float(special.chdtrc(l, max(l + (t - c1) * c2 / c3, 0.0)))


def ltz_tail_quantile(cumulants, p):
    """Upper-tail quantile: the t with ltz_tail_sf(t) = p, 0 < p < 1.

    Nonnegative weights give c3^2 <= c2 c4, i.e. s1^2 <= s2, so the matched
    distribution is the central chi-squared with l = c2^3 / c3^2 degrees of
    freedom (Liu, Tang & Zhang 2009), whatever c4, and

      t = c1 + (c3 / c2) (chdtri(l, p) - l).

    The cumulants and ``p`` may be arrays (broadcast together); a
    scalar call returns a float.  Raises when c3 <= 0 (no skewness to match)
    or the result is not finite.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 < p) & (p < 1.0)):
        raise InvalidParameterError("tail probability must lie strictly in (0, 1)")
    c1, c2, c3 = (np.asarray(c, dtype=float) for c in cumulants)
    l = _matched_dof(c2, c3)
    t = c1 + (c3 / c2) * (special.chdtri(l, p) - l)
    if not np.all(np.isfinite(t)):
        raise InvalidParameterError("tail quantile is not finite")
    return float(t) if t.ndim == 0 else t


def ltz_quantile_for_weights(w, p: float):
    """Approximated upper-tail quantile of Z = sum a_i eps_i^2.

    ``w`` is one weight vector (the result is a float) or a stack (r, n) of
    them (the result holds one quantile per row).  Works on the normalized
    weight scale internally (quantiles are scale-equivariant), which keeps
    the third power sum inside float64 range for strongly amplifying weight
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


def _fold(a: np.ndarray, samples: int) -> tuple[np.ndarray, float]:
    """Which weights ``samples`` draws must sample, as a mask, and the sum of
    the others, the folded constant.

    The folded weights F are the j smallest, for the largest j < len(a) with
    2 ||a_F||_2 sqrt(x) + 2 max(a_F) x <= _FOLD_TOL sum a, where
    x = log(2 samples) + _FOLD_LOG_RISK.  By Laurent & Massart's bound each
    draw's folded part strays from its mean by more than that with
    probability at most 2 e^-x, so by a union bound no draw of the call does
    but with probability e^-_FOLD_LOG_RISK.  The largest weight is always
    kept; both terms grow with j, so the admissible j form a prefix.
    """
    x = math.log(2.0 * samples) + _FOLD_LOG_RISK
    order = np.argsort(a, kind="stable")
    s = a[order] / a[order[-1]]  # on the largest weight's scale, so no square overflows
    deviation = 2.0 * np.sqrt(np.cumsum(s * s) * x) + 2.0 * x * s
    j = int(np.count_nonzero(deviation[:-1] <= _FOLD_TOL * np.sum(s)))
    keep = np.ones(a.size, dtype=bool)
    keep[order[:j]] = False
    return keep, float(np.sum(a[~keep]))


def mc_sample_quadratic_form(w, samples: int, seed: int) -> np.ndarray:
    """Seeded draws of Z = sum a_i eps_i^2, deterministic given the seed.

    ``samples`` must be a positive integer and ``seed`` a nonnegative one.
    Only the weights ``_fold`` keeps are drawn, in their original order; the
    sum of the folded ones, their exact mean, is added to every draw, so the
    mean of Z is exact.  The folded part moves a draw by at most 1e-6 of
    E[Z] (see the module docstring), about the float32 rounding of the
    contraction below, and no draw breaks that bound but with probability
    e^-14.  A single weight folds nothing, nor do equal weights short of
    some 3e7 of them.

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
    affinity set (never more runs than blocks), which ``parallel.map_on_cpus``
    draws one per thread of its pool (serially for one run).  Each run's
    generator is advanced to the run's first word, ``start * k / 2``.  The
    words, the blocks and the arithmetic are those of one serial pass, so the
    draws do not depend on the CPU count.
    """
    a, amax = _weights_array(w)
    samples, seed = typed_option("samples", samples, int), typed_option("seed", seed, int)
    if amax == 0.0:
        return np.zeros(samples)
    keep, folded = _fold(a, samples)
    a32 = a[keep].astype(np.float32)
    k = a32.size
    rows = max(2, min(_BLOCK_ELEMENTS // k, samples + 1) & ~1)  # even, so rows * k is even
    blocks = -(-samples // rows)
    runs = min(cpu_count(), blocks)
    edges = [min(rows * (blocks * i // runs), samples) for i in range(runs + 1)]
    z = np.empty(samples)

    def draw(run: tuple[int, int]) -> None:
        lo, hi = run
        bitgen = np.random.PCG64DXSM(seed)
        _fill_blocks(z, a32, bitgen.advance(lo * k // 2) if lo else bitgen, lo, hi, rows)

    map_on_cpus(draw, zip(edges[:-1], edges[1:]))
    z += folded  # adds 0.0, which leaves every draw as it is, when nothing folds
    return z


def mc_tail_quantiles(w, ps, samples: int, seed: int) -> np.ndarray:
    """Empirical upper-tail quantiles at several tail probabilities from a
    single batch of seeded draws."""
    if typed_option("samples", samples, int) < 1000:
        raise InvalidParameterError(f"at least 1000 Monte Carlo samples are required, not {samples!r}")
    ps = np.asarray(ps, dtype=float)
    if not np.all((0 < ps) & (ps < 1)):
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
