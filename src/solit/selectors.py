"""Parameter-choice rules over a candidate grid.

All rules return an index into the grid; ties break to the smallest index.
The a-posteriori rule compares empirical estimator distances against
pairwise thresholds kappa_{m1,m2} = sigma * z_{m1,m2}(x_{m1}) + beta *
sqrt(v_{m1,m2}); the classical balancing rule uses 4 * kappa * sqrt(v_{m2})
instead; the oracle rule is the deterministic analogue built from true
biases.  ``solit_select`` and ``lepskii_select`` read whole distance tables;
``stream_select`` gives the same picks for a block of realizations from one
row of distances at a time, read from the candidate weight table W that
``build_thresholds`` keeps in its ``ThresholdTable``, and skips the rows
that the runs' adjacent-pair distances already reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import genchi2  # called through the module, which perfbench's genchi2 probes wrap
from .candidates import CandidateGrid
from .candidates import pairwise_variance_v  # noqa: F401 - perfbench's candidates.pairwise_variance_v probe
from .errors import InvalidParameterError, typed_option
from .filters import FilterSpec
from .genchi2 import critical_value_z  # noqa: F401 - perfbench's genchi2.critical_value_z probe
from .sequence_model import SpectralProblem, estimator_weights


@dataclass(frozen=True)
class ThresholdTable:
    """Every table a grid derives from its candidate weight table W[m] =
    q_{alpha_m}(lam) sqrt(lam), shape (k, n).  Pairwise, upper triangle (NaN
    elsewhere): thresholds kappa, noise-free biases ||(W[m1] - W[m2]) g|| and
    variances sigma^2 ||W[m1] - W[m2]||^2.  Per candidate, for the squared
    errors ||W[m] y - f||^2 (``errors``), with B = W g - f: the ||B_m||^2
    (``b_sq``), W * B (``wb``) and W^2 (``w_sq``), whose row maxima also give
    the weak variances sigma^2 max_k W[m, k]^2.  Also the noise level sigma
    and W itself (``weights``).  Every array is held as a read-only view, so
    neither building nor ``restrict`` copies a (k, n) table."""

    kappa: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    sigma: float
    weights: np.ndarray
    b_sq: np.ndarray
    wb: np.ndarray
    w_sq: np.ndarray

    def __post_init__(self):
        for item in fields(self):
            if item.name != "sigma":
                table = np.asarray(getattr(self, item.name), dtype=float).view()
                table.flags.writeable = False
                object.__setattr__(self, item.name, table)
        if self.weights.ndim != 2:
            raise InvalidParameterError("weights must hold one row per candidate")
        k, n = self.weights.shape
        shapes = {"kappa": (k, k), "bias": (k, k), "variance": (k, k), "b_sq": (k,), "wb": (k, n), "w_sq": (k, n)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise InvalidParameterError(f"{name} must have shape {shape} for weights of shape {(k, n)}")

    @property
    def m_max(self) -> int:
        return self.kappa.shape[0] - 1

    def restrict(self, grid: CandidateGrid) -> "ThresholdTable":
        """The tables of ``grid``, a prefix of the grid these were built for,
        at its own noise level: kappa is linear in sigma, the variances are
        quadratic in it, and they are rescaled; every other table does not
        depend on sigma and is a view of this table's first rows."""
        k = grid.alphas.size
        if k > self.kappa.shape[0]:
            raise InvalidParameterError("a table restricts only to a prefix of its own grid")
        scale = grid.sigma / self.sigma
        return replace(self, kappa=scale * self.kappa[:k, :k], variance=scale**2 * self.variance[:k, :k],
                       sigma=grid.sigma, bias=self.bias[:k, :k], weights=self.weights[:k],
                       b_sq=self.b_sq[:k], wb=self.wb[:k], w_sq=self.w_sq[:k])

    def errors(self, eps: np.ndarray) -> np.ndarray:
        """Squared errors ||W[m] y_b - f||^2, shape (block, k), of realizations
        y_b = g + sigma eps_b at this table's sigma.  With B = W g - f they are
        ||B_m||^2 + 2 sigma eps_b . (W_m B_m) + sigma^2 eps_b^2 . W_m^2: two
        GEMMs, no (block, k, n) tensor, and each term is of the order of the
        error, so no Gram-type cancellation."""
        return self.b_sq + 2.0 * self.sigma * (eps @ self.wb.T) + self.sigma**2 * (eps**2 @ self.w_sq.T)


def build_thresholds(
    problem: SpectralProblem,
    spec: FilterSpec,
    grid: CandidateGrid,
    beta: float = 1.0,
    gamma: float = 1.0,
) -> ThresholdTable:
    """Build every table of a grid from its candidate weight table W.

    The pairwise tables come one row m1 at a time: with d2 = (W[m1+1:] -
    W[m1])**2, the noise of the estimator difference is a generalized
    chi-squared with weights d2, so

      variance[m1, m2] = sigma^2 sum d2,
      kappa[m1, m2] = sigma * sqrt(q_{e^-x_m1}(d2)) + beta * sqrt(variance),
      bias[m1, m2] = sqrt(d2 @ g^2),

    with g the exact data and x_m = 2 (1+gamma) log(v_{m+1}/v_0) the tail
    budgets; kappa equals sigma * critical_value_z + beta *
    sqrt(pairwise_variance_v).  The error tables follow from B = W g - f, with
    f the truth.  The tables of every prefix of the grid follow by
    ``ThresholdTable.restrict``.
    """
    beta, gamma = typed_option("beta", beta, float), typed_option("gamma", gamma, float)
    mm = grid.m_max
    x = 2.0 * (1.0 + gamma) * np.log(grid.v[1:] / grid.v[0])
    w_rows = estimator_weights(problem, spec, grid.alphas)
    g2 = problem.data_truth**2
    sigma = grid.sigma
    kappa, bias, variance = np.full((3, mm + 1, mm + 1), np.nan)
    for m1 in range(mm):
        d2 = (w_rows[m1 + 1 :] - w_rows[m1]) ** 2
        z = np.sqrt(genchi2.ltz_quantile_for_weights(d2, math.exp(-x[m1])))
        variance[m1, m1 + 1 :] = sigma**2 * d2.sum(-1)
        kappa[m1, m1 + 1 :] = sigma * z + beta * np.sqrt(variance[m1, m1 + 1 :])
        bias[m1, m1 + 1 :] = np.sqrt(d2 @ g2)
    # the (k, n) error tables in one allocation: as separate arrays they stayed
    # on the malloc heap after a sweep and raised the peak RSS of a later sweep
    # by about 1 MiB
    wb, w_sq = np.empty((2, *w_rows.shape))
    np.multiply(w_rows, problem.data_truth, out=wb)
    wb -= problem.truth  # B = W g - f
    b_sq = np.einsum("ij,ij->i", wb, wb)
    wb *= w_rows
    np.multiply(w_rows, w_rows, out=w_sq)
    return ThresholdTable(kappa, bias, variance, sigma, w_rows, b_sq, wb, w_sq)


def solit_select(bhat: np.ndarray, kappa: np.ndarray) -> int | np.ndarray:
    """Smallest m1 whose estimator stays within threshold of every finer
    candidate: max_{m2 > m1} (bhat_{m1,m2} - kappa_{m1,m2}) <= 0, with limits
    ``kappa`` that broadcast against one (k, k) table, such as
    ``ThresholdTable.kappa``; only m2 > m1 is read.  When no m1 < m_max
    qualifies, the maximum over the empty set at m_max is vacuous, so m_max
    is returned.  ``bhat`` may be a stack (..., k, k) of tables, one per
    realization; the result then holds one index per table."""
    bhat = np.asarray(bhat, dtype=float)
    k = bhat.shape[-1]
    upper = np.triu(np.ones((k, k), dtype=bool), k=1)
    accepted = np.all((bhat <= kappa) | ~upper, axis=-1)
    idx = np.argmax(accepted, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


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


def lepskii_select(bhat: np.ndarray, grid: CandidateGrid, kappa_tune: float = 1.0) -> int | np.ndarray:
    """Classical balancing rule: smallest m1 with
    bhat_{m1,m2} <= 4 * kappa_tune * mu_{m2} for all m2 > m1, where
    mu_k = sigma * sqrt(V(alpha_k)) at the grid's noise level.  ``bhat`` may
    be a stack (..., k, k) of tables; the result then holds one index per
    table."""
    return solit_select(bhat, lepskii_limits(grid, kappa_tune))


def lepskii_limits(grid: CandidateGrid, kappa_tune: float = 1.0) -> np.ndarray:
    """The balancing rule's limits 4 * kappa_tune * mu_{m2}, one per candidate,
    with mu_k = sigma * sqrt(V(alpha_k)) = sqrt(v_k) at the grid's noise
    level."""
    return 4.0 * typed_option("kappa_tune", kappa_tune, float) * np.sqrt(grid.v)


def stream_select(
    y_sq: np.ndarray, w_rows: np.ndarray, limits: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """The first accepted row of every realization of a block, for each rule
    in ``limits``, without building the (runs, k, k) distance tables.

    Row m1 of run b holds bhat[b, m1, m2] = ||(W[m1] - W[m2]) * y_b|| for
    m2 > m1; with d2 = (W[m1+1:] - W[m1])**2 it is sqrt(y_sq @ d2.T), one
    GEMM per row against the squared data ``y_sq`` (runs, n), with the
    weight differences formed before squaring, so there is no Gram-type
    cancellation.  ``limits`` maps a rule's name to limits that broadcast
    against one (k, k) table, of which only m2 > m1 is read: ``kappa`` for
    solit, the row ``lepskii_limits`` for Lepskii.  A run's pick is the
    first m1 whose distances are all within the limits, m_max when none is,
    exactly as ``solit_select`` finds it on the full tables.

    Most rows are never formed.  One GEMM against np.diff(W)**2 first gives
    every run's adjacent distances a[b, m] = ||(W[m+1] - W[m]) * y_b||, and
    a run is screened out of row m1 under a rule when
    a[b, m1] > limit[m1, m1+1] * (1 + 8 (n+1) 2^-53).  That column of the
    full row sums the same n nonnegative products as a, so each lies within
    gamma_n = n u / (1 - n u) of the exact sum (u = 2^-53, in any order of
    summation); the margin covers both, the roundings of sqrt and of the
    product with the limit, and a screened-out run fails the full row's
    test too.  Adjacent distances outside [2^-510, 2^511], where a product
    or sum could under- or overflow, and NaN distances or limits screen
    nobody out.  A full row
    is formed, for the whole block as before, only when some pending run is
    not screened out of it under some rule, so the picks are unchanged bit
    for bit.  The walk stops as soon as every run has a pick under every
    rule.
    """
    k, n = w_rows.shape
    names = list(limits)
    picks = np.full((len(names), y_sq.shape[0]), k - 1)
    if names and k > 1:
        table = np.stack([np.broadcast_to(limits[name], (k, k)) for name in names])
        adjacent = np.sqrt(y_sq @ (np.diff(w_rows, axis=0) ** 2).T).T  # (k-1, runs)
        adjacent[~((2.0**-510 <= adjacent) & (adjacent <= 2.0**511))] = np.nan
        margin = 1.0 + 8.0 * (n + 1) * 2.0**-53
        adjacent_limits = margin * np.diagonal(table, 1, axis1=1, axis2=2).T
        # unscreened[m1, r, b]: run b may accept row m1 under rule r
        unscreened = ~(adjacent[:, None, :] > adjacent_limits[:, :, None])
        pending = np.ones(picks.shape, dtype=bool)
        for m1 in range(k - 1):
            if not (pending & unscreened[m1]).any():
                if pending.any():
                    continue
                break
            d2 = (w_rows[m1 + 1 :] - w_rows[m1]) ** 2
            bhat = np.sqrt(y_sq @ d2.T)
            accepted = pending & np.all(bhat <= table[:, None, m1, m1 + 1 :], axis=-1)
            picks[accepted] = m1
            pending &= ~accepted
    return dict(zip(names, picks))


def optimal_select(errors) -> int | np.ndarray:
    """Index of the smallest error; ties break to the smallest index.  A stack
    (..., k) of error lists gives one index per list."""
    err = np.asarray(errors, dtype=float)
    if err.size == 0:
        raise InvalidParameterError("error list must be nonempty")
    idx = np.argmin(err, axis=-1)
    return int(idx) if idx.ndim == 0 else idx


def noise_level_select(grid: CandidateGrid) -> int:
    """Candidate whose alpha is closest to the grid's sigma on the log scale."""
    if not 0 < grid.sigma < math.inf:
        raise InvalidParameterError("noise level must be positive and finite")
    return int(np.argmin(np.abs(np.log(grid.alphas) - math.log(grid.sigma))))


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
    beta, gamma = typed_option("beta", beta, float), typed_option("gamma", gamma, float)
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
