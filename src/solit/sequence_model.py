"""Sequence-space representation of the inverse problem.

A problem is stored through the eigenvalues of T*T, the coefficients of the
true solution in the eigenbasis, and the coefficients of the exact data in
the output singular basis.  All estimators live as coefficient vectors; norms
are plain Euclidean norms (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .filters import FilterSpec, filter_weight


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be one-dimensional")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralProblem:
    """Diagonalized inverse problem: eigenvalues of T*T (non-increasing,
    strictly positive), truth coefficients and exact-data coefficients of
    equal length."""

    eigenvalues: np.ndarray
    truth: np.ndarray
    data_truth: np.ndarray
    label: str = ""

    def __post_init__(self):
        lam = _frozen_array(self.eigenvalues, "eigenvalues")
        truth = _frozen_array(self.truth, "truth")
        data = _frozen_array(self.data_truth, "data_truth")
        if not (lam.size == truth.size == data.size):
            raise InvalidParameterError("eigenvalues, truth, data_truth must have equal length")
        if lam.size == 0:
            raise InvalidParameterError("problem must retain at least one coordinate")
        for name, arr in (("eigenvalues", lam), ("truth", truth), ("data_truth", data)):
            if not np.all(np.isfinite(arr)):
                raise InvalidParameterError(f"{name} must be finite")
        if np.any(lam <= 0):
            raise InvalidParameterError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) > 0):
            raise InvalidParameterError("eigenvalues must be non-increasing")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "data_truth", data)

    @property
    def n(self) -> int:
        """Truncation dimension."""
        return self.eigenvalues.size


@dataclass(frozen=True)
class DataRealization:
    """One noisy observation y_k = g_k + sigma * eps_k, reproducible from the
    seed through a counter-based generator."""

    y: np.ndarray
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_array(self.y, "y"))


def simulate_data(problem: SpectralProblem, sigma: float, seed: int) -> DataRealization:
    """Draw y = data_truth + sigma * eps with standard normal eps.

    The generator is counter-based (Philox) so a seed fully determines the
    realization.
    """
    if sigma <= 0:
        raise InvalidParameterError(f"noise level must be positive, got {sigma}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.standard_normal(problem.n)
    return DataRealization(y=problem.data_truth + sigma * eps, sigma=float(sigma), seed=int(seed))


def estimator_weights(problem: SpectralProblem, spec: FilterSpec, alphas) -> np.ndarray:
    """Candidate weight table W, shape (k, n): row m holds the coefficient
    multipliers q_{alpha_m}(lam_j) * sqrt(lam_j) of the m-th of ``alphas``."""
    lam = problem.eigenvalues
    return np.vstack([filter_weight(spec, a, lam) for a in alphas]) * np.sqrt(lam)


def estimate(problem: SpectralProblem, data: DataRealization, spec: FilterSpec, alpha: float) -> np.ndarray:
    """Filter estimator coefficients f_hat_k = q_alpha(lam_k) sqrt(lam_k) y_k."""
    y = data.y if isinstance(data, DataRealization) else np.asarray(data, dtype=float)
    if y.size != problem.n:
        raise InvalidParameterError("data length does not match the problem dimension")
    return estimator_weights(problem, spec, [alpha])[0] * y
