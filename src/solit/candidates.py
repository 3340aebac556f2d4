"""Variance functionals and the geometric-in-variance candidate grid.

Candidates alpha_0 > ... > alpha_{m_max} are chosen so that the normalized
variance V(alpha) = sum_k lam_k q_alpha(lam_k)^2 grows by a factor close to a
tuning parameter theta from one candidate to the next, with achieved ratios
certified to lie in [theta1, theta2].  For filters with a continuous
parameter dependence a log-scale bisection hits the target ratio; for the
spectral cut-off the admissible set is the discrete eigenvalue set and the
builder takes the closest achievable jump, enlarging theta2 when the
spectrum forces an overshoot.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, typed_option
from .filters import FilterSpec, filter_weight
from .sequence_model import SpectralProblem

MAX_CANDIDATES = 10_000
_MAX_BISECTION_STEPS = 200


def variance_V(problem: SpectralProblem, spec: FilterSpec, alpha: float) -> float:
    """Normalized estimator variance V(alpha) = sum_k lam_k q_alpha(lam_k)^2."""
    q = filter_weight(spec, alpha, problem.eigenvalues)
    return float(np.sum(problem.eigenvalues * q * q))


def pairwise_variance_v(
    problem: SpectralProblem, spec: FilterSpec, alpha_a: float, alpha_b: float, sigma: float
) -> float:
    """Variance of the estimator difference,
    sigma^2 * sum_k lam_k (q_{alpha_a}(lam_k) - q_{alpha_b}(lam_k))^2.
    Symmetric in its alpha arguments."""
    if sigma < 0:
        raise InvalidParameterError("noise level must be nonnegative")
    qa = filter_weight(spec, alpha_a, problem.eigenvalues)
    qb = filter_weight(spec, alpha_b, problem.eigenvalues)
    d = qa - qb
    return float(sigma**2 * np.sum(problem.eigenvalues * d * d))


def line_search_variance(
    problem: SpectralProblem,
    spec: FilterSpec,
    target: float,
    tol: float,
    bracket: tuple[float, float],
):
    """Solve V(alpha) = target for alpha inside ``bracket`` = (alpha_lo, alpha_hi).

    Returns ``(alpha, V(alpha))``, V as ``variance_V`` gives it.  For filters
    with continuous V the bisection terminates with |log(V(alpha) / target)|
    <= tol whenever the target lies between V(alpha_hi) and V(alpha_lo).  For
    the spectral cut-off the candidates are the eigenvalues inside the
    bracket, V(lam_j) is read off the cumulative sum of 1/lam over the
    spectrum, and the largest candidate whose V meets or exceeds the target
    is returned (smallest achievable overshoot).  Targets outside the
    attainable range clamp to the corresponding bracket end.
    """
    if not 0 < target < math.inf:
        raise InvalidParameterError(f"target variance must be positive and finite, not {target!r}")
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tolerance must be positive and finite, not {tol!r}")
    a_lo, a_hi = bracket
    if not (0 < a_lo <= a_hi):
        raise InvalidParameterError(f"invalid bracket {bracket}")
    log_target = math.log(target)

    if spec.kind == "cutoff":
        lams = problem.eigenvalues
        cands = np.unique(lams[(lams >= a_lo) & (lams <= a_hi)])[::-1]
        if cands.size == 0:
            raise InvalidParameterError("no admissible cut-off parameters inside the bracket")
        # V(lam_j) sums lam q^2 = 1/lam over the eigenvalues >= lam_j, a prefix
        # of the non-increasing spectrum: one cumulative sum serves every candidate
        q = 1.0 / lams
        prefix = np.searchsorted(-lams, -cands, side="right")
        vals = np.cumsum(lams * q * q)[prefix - 1]
        gaps = np.log(vals) - log_target
        if np.any(np.abs(gaps) <= tol):
            idx = int(np.argmin(np.abs(gaps)))
        elif np.any(gaps >= 0):
            idx = int(np.argmax(gaps >= 0))  # largest alpha with V >= target
        else:
            idx = -1
        alpha = float(cands[idx])
        return alpha, variance_V(problem, spec, alpha)

    lo, hi = a_lo, a_hi
    v_lo = variance_V(problem, spec, lo)
    v_hi = variance_V(problem, spec, hi)
    if target > v_lo:
        return float(lo), v_lo
    if target < v_hi:
        return float(hi), v_hi
    for _ in range(_MAX_BISECTION_STEPS):
        mid = math.sqrt(lo * hi)
        v_mid = variance_V(problem, spec, mid)
        if v_mid <= 0:
            hi = mid
            continue
        if abs(math.log(v_mid) - log_target) <= tol:
            return float(mid), v_mid
        if v_mid > target:
            lo = mid
        else:
            hi = mid
    return float(lo), variance_V(problem, spec, lo)


@dataclass(frozen=True)
class CandidateGrid:
    """Decreasing candidates with geometrically growing variances.

    ``v`` holds v_m = sigma^2 * V(alpha_m); ratios v_m / v_{m-1} lie in
    [theta1, theta2].  ``theta2`` may exceed ``theta2_requested`` when a
    discrete admissible set forces an overshoot; ``theta2_enlarged`` is
    derived from the two, not stored.
    """

    alphas: np.ndarray
    v: np.ndarray
    theta1: float
    theta2: float
    sigma: float
    theta2_requested: float = math.nan
    truncation_tail_ratio: float = math.nan

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float).copy()
        v = np.asarray(self.v, dtype=float).copy()
        if alphas.size != v.size or alphas.size == 0:
            raise InvalidParameterError("alphas and v must be nonempty and of equal length")
        if np.any(np.diff(alphas) >= 0):
            raise InvalidParameterError("alphas must be strictly decreasing")
        if np.any(np.diff(v) <= 0):
            raise InvalidParameterError("v must be strictly increasing")
        alphas.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "v", v)

    @property
    def theta2_enlarged(self) -> bool:
        """Whether the spectrum forced theta2 past the requested bound."""
        return self.theta2 > self.theta2_requested

    @property
    def m_max(self) -> int:
        return self.alphas.size - 1

    @property
    def ratios(self) -> np.ndarray:
        """Successive variance ratios v_m / v_{m-1}, length m_max."""
        return self.v[1:] / self.v[:-1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("m,alpha,v_m,ratio\n")
        for m in range(self.alphas.size):
            ratio = "" if m == 0 else f"{self.v[m] / self.v[m - 1]:.17g}"
            buf.write(f"{m},{self.alphas[m]:.17g},{self.v[m]:.17g},{ratio}\n")
        return buf.getvalue()


def _estimate_tail_ratio(problem: SpectralProblem, alpha_min: float, v_at_min: float) -> float:
    """Crude bound on the variance mass omitted by truncation, relative to the
    retained variance at the deepest candidate.  The eigenvalue tail beyond
    lam_n is extended geometrically from the last two distinct retained
    eigenvalues (the trigonometric bases end on an equal cos/sin pair), each
    value repeated as often as lam_n is; a flat spectrum gives inf."""
    lam = problem.eigenvalues
    if lam.size < 2 or v_at_min <= 0:
        return math.nan
    above = lam[lam > lam[-1]]
    if above.size == 0:
        return math.inf
    r = lam[-1] / above[-1]
    tail_trace = np.count_nonzero(lam == lam[-1]) * lam[-1] * r / (1.0 - r)
    # q <= 1/alpha bounds each omitted term by lam / alpha^2
    return float(tail_trace / (alpha_min**2 * v_at_min))


def build_grid(
    problem: SpectralProblem,
    spec: FilterSpec,
    sigma: float | np.ndarray,
    theta: float = 2.0,
) -> CandidateGrid | list[CandidateGrid]:
    """Construct the candidate grid for noise level ``sigma``.

    The first candidate solves V(alpha_0) = 1 (so v_0 = sigma^2); each
    subsequent candidate solves log V = log theta + log V_prev by line
    search; the grid stops at the first candidate with sigma^2 V >= 1 and
    raises ``ConfigurationError`` past ``MAX_CANDIDATES`` candidates.
    theta1 = theta - (theta-1)/2 and theta2 = theta + (theta-1)/2; the
    line-search exit tolerance log(theta2/theta) keeps every achieved ratio
    inside [theta1, theta2] for continuous filters (since theta1 * theta2 <=
    theta^2).

    The candidates do not depend on sigma, only where the grid stops.  Given
    an array of noise levels, the ladder is walked once, down to the smallest,
    and one grid per noise level is returned, each the prefix that a scalar
    call would build.
    """
    sigmas = np.reshape([typed_option("sigma", s, float) for s in np.ravel(sigma).tolist()], np.shape(sigma))
    if sigmas.size == 0:
        raise InvalidParameterError("a grid needs at least one noise level")
    theta = typed_option("theta", theta, float)

    theta1 = theta - (theta - 1.0) / 2.0
    theta2_req = theta + (theta - 1.0) / 2.0
    tol = math.log(theta2_req / theta)

    lam = problem.eigenvalues
    a_floor = float(lam[-1])
    # V(alpha) <= trace / alpha^2, so V(sqrt(trace)) <= 1 anchors the upper
    # bracket end even when V(lam_1) > 1.
    a_ceil = max(float(lam[0]), math.sqrt(float(np.sum(lam)))) * 2.0
    v_cap = variance_V(problem, spec, a_floor)

    alpha0, v0 = line_search_variance(problem, spec, 1.0, tol, (a_floor, a_ceil))
    alphas = [alpha0]
    big_v = [v0]
    # theta2s[m]: the ratio bound of the grid ending at m (enlarged past theta2_req
    # when the spectrum forces an overshoot)
    theta2s = [theta2_req]
    sigma_min = float(sigmas.min())
    while sigma_min**2 * big_v[-1] < 1.0:
        if len(alphas) >= MAX_CANDIDATES:
            raise ConfigurationError(
                f"candidate grid exceeded the hard cap of {MAX_CANDIDATES} entries"
            )
        target = theta * big_v[-1]
        if target > v_cap * (1.0 - 1e-12):
            raise ConfigurationError(
                f"the grid cannot reach V = 1/sigma^2 = {1.0 / sigma_min**2:.3g} on this truncation: "
                f"candidate {len(alphas)} needs V = theta * V_{len(alphas) - 1} = {target:.3g}, "
                f"above the largest attainable V = {v_cap:.3g}; "
                "increase the truncation dimension or the noise level"
            )
        alpha_next, v_next = line_search_variance(problem, spec, target, tol, (a_floor, alphas[-1]))
        ratio = v_next / big_v[-1]
        if ratio < theta1 or alpha_next >= alphas[-1]:
            raise ConfigurationError(
                f"grid construction stalled at m={len(alphas)}: achieved ratio {ratio:.4g}"
            )
        alphas.append(alpha_next)
        big_v.append(v_next)
        theta2s.append(max(theta2s[-1], float(ratio)))

    big_v = np.asarray(big_v)
    grids = []
    for s in sigmas.ravel().tolist():
        v = s**2 * big_v
        m = int(np.argmax(v >= 1.0))
        tail_ratio = _estimate_tail_ratio(problem, alphas[m], big_v[m])
        if math.isfinite(tail_ratio) and tail_ratio > 1e-4:
            warnings.warn(
                f"omitted variance tail is ~{tail_ratio:.2g} of the retained variance "
                "at the deepest candidate; consider a larger truncation dimension",
                stacklevel=2,
            )
        grids.append(
            CandidateGrid(
                alphas=np.asarray(alphas[: m + 1]),
                v=v[: m + 1],
                theta1=theta1,
                theta2=theta2s[m],
                sigma=s,
                theta2_requested=theta2_req,
                truncation_tail_ratio=tail_ratio,
            )
        )
    return grids[0] if sigmas.ndim == 0 else grids
