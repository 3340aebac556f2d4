"""Ordered spectral filters q_alpha(lambda) and validation of their axioms.

Four built-in families are provided, all with alpha * q_alpha(lambda) <= 1
and lambda * q_alpha(lambda) <= 1 on their admissible parameter sets:

  * Tikhonov:          q_alpha(lam) = 1 / (lam + alpha)
  * Showalter:         q_alpha(lam) = (1 - exp(-lam/alpha)) / lam
  * spectral cut-off:  q_alpha(lam) = (1/lam) * 1{lam >= alpha}
  * Landweber:         q_alpha(lam) = step * sum_{j<N} (1 - step*lam)^j,
                       with iteration count N = ceil(1/alpha)

The cut-off includes ties lam == alpha (closed indicator).  Landweber is
indexed by a real alpha through the iteration count N = ceil(1/alpha); the
axioms hold exactly when alpha is the reciprocal of an integer and the step
satisfies step * lam_max <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

FILTER_KINDS = ("tikhonov", "showalter", "cutoff", "landweber")

# slack of the axiom checks of validate_ordered_filter
_AXIOM_TOL = 1e-9


@dataclass(frozen=True)
class FilterSpec:
    """Which ordered filter to use.

    ``landweber_step`` is the relaxation factor (only for Landweber) and must
    satisfy step * lam_max <= 1 on the problem at hand.
    """

    kind: str
    landweber_step: float | None = None

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise InvalidParameterError(
                f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}"
            )
        if self.kind == "landweber":
            if self.landweber_step is None or not 0 < self.landweber_step < math.inf:
                raise InvalidParameterError(
                    "landweber requires a positive finite relaxation step"
                )

    @classmethod
    def for_spectrum(cls, name: str, lam, landweber_step: float | None = None) -> "FilterSpec":
        """Spec of the filter a CLI/config string names, on the spectrum
        ``lam``.  The Landweber step defaults to 1/lam_max, the largest step
        with step * lam <= 1; the other filters take no step."""
        name = name.strip().lower()
        if name == "landweber" and landweber_step is None:
            landweber_step = 1.0 / float(np.max(lam))
        return cls(kind=name, landweber_step=landweber_step if name == "landweber" else None)


def filter_weight(spec: FilterSpec, alpha: float, lam):
    """Evaluate q_alpha(lambda).

    ``lam`` may be a scalar or an array; the return type matches.
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise InvalidParameterError(f"regularization parameter must be positive, got {alpha}")
    scalar = np.isscalar(lam) or (isinstance(lam, np.ndarray) and lam.ndim == 0)
    x = np.asarray(lam, dtype=float)
    if np.any(x < 0):
        raise InvalidParameterError("eigenvalue arguments must be nonnegative")

    if spec.kind == "tikhonov":
        q = 1.0 / (x + alpha)
    elif spec.kind == "showalter":
        q = np.empty_like(x)
        pos = x > 0
        # -expm1 avoids cancellation of 1 - exp(-lam/alpha) for small lam/alpha
        q[pos] = -np.expm1(-x[pos] / alpha) / x[pos]
        q[~pos] = 1.0 / alpha
    elif spec.kind == "cutoff":
        q = np.zeros_like(x)
        keep = x >= alpha
        q[keep] = 1.0 / x[keep]
    else:  # landweber
        step = spec.landweber_step
        if np.any(step * x > 1.0 + 1e-12):
            raise InvalidParameterError(
                "landweber step violates step * lambda <= 1 on these eigenvalues"
            )
        # guard against 1/alpha landing a few ulp above an integer
        n_iter = math.ceil((1.0 / alpha) * (1.0 - 1e-12))
        q = np.empty_like(x)
        pos = x > 0
        base = np.clip(1.0 - step * x[pos], 0.0, 1.0)
        q[pos] = (1.0 - base**n_iter) / x[pos]
        q[~pos] = step * n_iter
    return float(q) if scalar else q


def validate_ordered_filter(
    spec: FilterSpec,
    alpha_samples,
    lam_samples,
    weight_fn=None,
) -> tuple[str, ...]:
    """Check the ordered-filter axioms on a finite sample grid; returns the
    violations, empty when the axioms hold.

    Checks, for every sampled (alpha, lambda): q >= 0, alpha*q <= 1,
    lambda*q <= 1, and that q is pointwise non-increasing as alpha grows,
    each up to ``_AXIOM_TOL``.
    Violations are collected rather than raised.  ``weight_fn``
    overrides the built-in weight evaluation (useful to probe a deliberately
    corrupted filter against the same axioms).
    """
    alphas = np.sort(np.asarray(alpha_samples, dtype=float))[::-1]
    lams = np.asarray(lam_samples, dtype=float)
    if weight_fn is None:
        weight_fn = lambda a, l: filter_weight(spec, a, l)  # noqa: E731

    violations: list[str] = []
    prev_q = None
    for a in alphas:
        q = np.asarray(weight_fn(a, lams), dtype=float)
        if np.any(q < -_AXIOM_TOL):
            violations.append(f"negative weight at alpha={a:g}")
        if np.any(a * q > 1.0 + _AXIOM_TOL):
            worst = float(np.max(a * q))
            violations.append(f"alpha*q = {worst:g} exceeds 1 at alpha={a:g}")
        if np.any(lams * q > 1.0 + _AXIOM_TOL):
            worst = float(np.max(lams * q))
            violations.append(f"lambda*q = {worst:g} exceeds 1 at alpha={a:g}")
        if prev_q is not None and np.any(q < prev_q - _AXIOM_TOL):
            violations.append(f"ordering violated between alpha={a:g} and the previous alpha")
        prev_q = q
    return tuple(violations)
