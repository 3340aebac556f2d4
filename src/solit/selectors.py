"""Parameter-choice rules over a candidate grid.

All rules return an index into the grid; ties break to the smallest index.
The a-posteriori rule compares empirical estimator distances against
pairwise thresholds kappa_{m1,m2} = sigma * z_{m1,m2}(x_{m1}) + beta *
sqrt(v_{m1,m2}); the classical balancing rule uses 4 * kappa * sqrt(v_{m2})
instead; the oracle rule is the deterministic analogue built from true
biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .candidates import CandidateGrid
from .candidates import pairwise_variance_v  # noqa: F401 - perfbench's candidates.pairwise_variance_v probe
from .errors import InvalidParameterError
from .filters import FilterSpec
from .genchi2 import critical_value_z  # noqa: F401 - perfbench's genchi2.critical_value_z probe
from .genchi2 import ltz_quantile_for_weights
from .sequence_model import SpectralProblem, estimator_weights


@dataclass(frozen=True)
class ThresholdTable:
    """Pairwise tables of a grid, upper triangle (NaN elsewhere): thresholds
    kappa, noise-free biases ||(W[m1] - W[m2]) g|| and variances
    sigma^2 ||W[m1] - W[m2]||^2; tail budgets x_m = 2 (1+gamma)
    log(v_{m+1}/v_0), the tuning constants and the noise level.  A table
    built by hand may leave out the biases, variances and noise level."""

    kappa: np.ndarray
    x: np.ndarray
    beta: float
    gamma: float
    bias: np.ndarray | None = None
    variance: np.ndarray | None = None
    sigma: float = math.nan

    def __post_init__(self):
        for name in ("kappa", "x", "bias", "variance"):
            if getattr(self, name) is not None:
                table = np.asarray(getattr(self, name), dtype=float).copy()
                table.flags.writeable = False
                object.__setattr__(self, name, table)
        if self.kappa.ndim != 2 or self.kappa.shape[0] != self.kappa.shape[1]:
            raise InvalidParameterError("kappa must be a square table")
        if self.x.size != self.kappa.shape[0] - 1:
            raise InvalidParameterError("x must have one entry per non-final index")
        for table in (self.bias, self.variance):
            if table is not None and table.shape != self.kappa.shape:
                raise InvalidParameterError("bias and variance tables must have the shape of kappa")

    @property
    def m_max(self) -> int:
        return self.kappa.shape[0] - 1

    def restrict(self, grid: CandidateGrid) -> "ThresholdTable":
        """The tables of ``grid``, a prefix of the grid these were built for,
        at its own noise level: kappa is linear in sigma, the variances are
        quadratic in it and the biases do not depend on it."""
        k = grid.alphas.size
        if self.bias is None or self.variance is None or k > self.kappa.shape[0]:
            raise InvalidParameterError("only a built table restricts to a prefix grid")
        scale = grid.sigma / self.sigma
        return replace(
            self,
            kappa=scale * self.kappa[:k, :k],
            x=self.x[: k - 1],
            bias=self.bias[:k, :k],
            variance=scale**2 * self.variance[:k, :k],
            sigma=grid.sigma,
        )


def build_thresholds(
    problem: SpectralProblem,
    spec: FilterSpec,
    grid: CandidateGrid,
    beta: float = 1.0,
    gamma: float = 1.0,
) -> ThresholdTable:
    """Fill the upper-triangular pairwise tables of a grid.

    Built from the candidate weight table W one row m1 at a time: with
    d2 = (W[m1+1:] - W[m1])**2, the noise of the estimator difference is a
    generalized chi-squared with weights d2, so

      variance[m1, m2] = sigma^2 sum d2,
      kappa[m1, m2] = sigma * sqrt(q_{e^-x_m1}(d2)) + beta * sqrt(variance),
      bias[m1, m2] = sqrt(d2 @ g^2),

    with g the exact data; kappa equals sigma * critical_value_z + beta *
    sqrt(pairwise_variance_v).  The tables of every prefix of the grid follow
    by ``ThresholdTable.restrict``.
    """
    if not (0 < beta < math.inf and 0 < gamma < math.inf):
        raise InvalidParameterError("beta and gamma must be finite and positive")
    mm = grid.m_max
    x = 2.0 * (1.0 + gamma) * np.log(grid.v[1:] / grid.v[0])
    w_rows = estimator_weights(problem, spec, grid.alphas)
    g2 = problem.data_truth**2
    sigma = grid.sigma
    kappa, bias, variance = np.full((3, mm + 1, mm + 1), np.nan)
    for m1 in range(mm):
        d2 = (w_rows[m1 + 1 :] - w_rows[m1]) ** 2
        z = np.sqrt(ltz_quantile_for_weights(d2, math.exp(-x[m1])))
        variance[m1, m1 + 1 :] = sigma**2 * d2.sum(-1)
        kappa[m1, m1 + 1 :] = sigma * z + beta * np.sqrt(variance[m1, m1 + 1 :])
        bias[m1, m1 + 1 :] = np.sqrt(d2 @ g2)
    return ThresholdTable(kappa, x, beta, gamma, bias, variance, sigma)


def _first_accepted_row(bhat: np.ndarray, limits: np.ndarray) -> int | np.ndarray:
    """Smallest m1 with bhat[..., m1, m2] <= limits[m1, m2] for every m2 > m1,
    for each (k, k) matrix of a stack; the last row is vacuously accepted.
    ``limits`` broadcasts against one (k, k) matrix.
    A 2-D table gives an int, a stack an integer array of its leading shape."""
    bhat = np.asarray(bhat, dtype=float)
    k = bhat.shape[-1]
    upper = np.triu(np.ones((k, k), dtype=bool), k=1)
    accepted = np.all((bhat <= limits) | ~upper, axis=-1)
    idx = np.argmax(accepted, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def solit_select(bhat: np.ndarray, thresholds: ThresholdTable) -> int | np.ndarray:
    """Smallest m1 whose estimator stays within threshold of every finer
    candidate: max_{m2 > m1} (bhat_{m1,m2} - kappa_{m1,m2}) <= 0.  When no
    m1 < m_max qualifies the maximum over the empty set at m_max is vacuous,
    so m_max is returned.  ``bhat`` may be a stack (..., k, k) of tables, one
    per realization; the result then holds one index per table."""
    return _first_accepted_row(bhat, thresholds.kappa)


def oracle_select(b: np.ndarray, v: np.ndarray, beta: float) -> int:
    """Deterministic oracle: smallest m with b_{m1,m2}^2 <= beta^2 v_{m1,m2}
    for every pair m2 > m1 >= m; m_max if no smaller index qualifies."""
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    if b.shape != v.shape or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidParameterError("bias and variance tables must be square and matching")
    iu = np.triu_indices(b.shape[0], k=1)
    # rows m1 of the failing pairs; the oracle is the index past the last one
    failing = iu[0][~(b[iu] ** 2 <= beta**2 * v[iu])]
    return int(failing.max()) + 1 if failing.size else 0


def lepskii_select(
    bhat: np.ndarray,
    grid: CandidateGrid,
    sigma: float | None = None,
    kappa_tune: float = 1.0,
) -> int | np.ndarray:
    """Classical balancing rule: smallest m1 with
    bhat_{m1,m2} <= 4 * kappa_tune * mu_{m2} for all m2 > m1, where
    mu_k = sigma * sqrt(V(alpha_k)).  ``bhat`` may be a stack (..., k, k) of
    tables; the result then holds one index per table."""
    if not 1 <= kappa_tune < math.inf:
        raise InvalidParameterError("kappa_tune must be finite and at least 1")
    mu = np.sqrt(grid.v)
    if sigma is not None and sigma != grid.sigma:
        mu = mu * (sigma / grid.sigma)
    return _first_accepted_row(bhat, 4.0 * kappa_tune * mu)


def optimal_select(errors) -> int | np.ndarray:
    """Index of the smallest error; ties break to the smallest index.  A stack
    (..., k) of error lists gives one index per list."""
    err = np.asarray(errors, dtype=float)
    if err.size == 0:
        raise InvalidParameterError("error list must be nonempty")
    idx = np.argmin(err, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def noise_level_select(grid: CandidateGrid, sigma: float) -> int:
    """Candidate whose alpha is closest to sigma on the log scale."""
    if sigma <= 0:
        raise InvalidParameterError("noise level must be positive")
    return int(np.argmin(np.abs(np.log(grid.alphas) - math.log(sigma))))


def oracle_constants(
    grid: CandidateGrid,
    m_star: int,
    u_mstar: float,
    beta: float = 1.0,
    gamma: float = 1.0,
) -> tuple[float, float]:
    """Constants of the oracle inequality at the oracle index:

      C1 = (2 sqrt(3) / (theta1^gamma - 1)) * (v_0 / v_{m*})^{1+gamma}
      C2 = beta sqrt(v_{m*})
           + sqrt(2 u_{m*} (2 (1+gamma) log(v_{m*}/v_0) + log(1 + m_max)))
    """
    if not (0 <= m_star <= grid.m_max):
        raise InvalidParameterError("oracle index outside the grid")
    v0 = grid.v[0]
    vm = grid.v[m_star]
    c1 = 2.0 * math.sqrt(3.0) / (grid.theta1**gamma - 1.0) * (v0 / vm) ** (1.0 + gamma)
    inner = 2.0 * (1.0 + gamma) * math.log(vm / v0) + math.log(1.0 + grid.m_max)
    c2 = beta * math.sqrt(vm) + math.sqrt(2.0 * u_mstar * inner)
    return float(c1), float(c2)


def price_of_adaptation(r_mstar: float, c2: float) -> float:
    """(sqrt(R_{m*}) + C2)^2, the oracle-inequality surcharge."""
    if r_mstar < 0:
        raise InvalidParameterError("risk must be nonnegative")
    return (math.sqrt(r_mstar) + c2) ** 2
