"""The three benchmark problems in sequence space.

Every truth vector is built from its exact coefficients:

  antiderivative  second-antiderivative operator on L2([0,1]) with Dirichlet
                  sine basis sqrt(2) sin(k pi x); lam_k = (k pi)^-4; truth is
                  the hat min(x, 1 - x), f_k = 2 sqrt(2) sin(k pi/2) / (k pi)^2.
  gradiometry     satellite gradiometry on the circle; Fourier modes k with
                  lam_k = k^2 (k+1)^2 R^(-2k-4); truth the tent pi/2 - |x|,
                  f_k = 4 / (sqrt(pi) k^2) on odd cosine modes, 0 elsewhere.
  heat            periodic backward heat source identification;
                  lam_k = exp(-2 k^2 t_bar) plus the invariant mode 0; truth
                  the same tent.

The operator is diagonal in these coordinates, so the exact data are
g_k = sqrt(lam_k) f_k; there is no discretization error for a quadrature to
expose.  The antiderivative data are built that way.  The gradiometry and heat
data are still composite Gauss-Legendre projections of their data functions:
the gradiometry potential's analytic cosine series, and the heat solution
synthesized from the exact Fourier multiplier at four times the operator's
truncation.  Their closed forms differ from the projections only by
quadrature rounding, but that moves the benchmark MSEs by up to 2e-7, while
the stored benchmark reference (perfbench/reference.json) holds them to 1e-9.
They switch to the closed form when that reference is regenerated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .sequence_model import SpectralProblem

PROBLEM_NAMES = ("antiderivative", "gradiometry", "heat")


# --------------------------------------------------------------------------
# quadrature and basis machinery
# --------------------------------------------------------------------------

def _piecewise_gauss(breakpoints, nodes_per_piece: int):
    """Composite Gauss-Legendre nodes and weights over consecutive pieces."""
    t, wt = np.polynomial.legendre.leggauss(nodes_per_piece)
    xs, ws = [], []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        xs.append(0.5 * (b - a) * t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wt)
    return np.concatenate(xs), np.concatenate(ws)


def _nodes_for_frequency(max_freq: float, piece_len: float) -> int:
    """Node count resolving oscillations up to ``max_freq`` on a piece.

    Gauss-Legendre with n nodes integrates cos(omega t) on [-1, 1] to high
    accuracy once n comfortably exceeds omega / 2; omega here is
    max_freq * piece_len / 2.
    """
    omega = max_freq * piece_len / 2.0
    return int(math.ceil(0.7 * omega)) + 64


def _basis_values(tags, xs: np.ndarray) -> np.ndarray:
    """Rows of orthonormal basis functions evaluated at ``xs``.

    Tags: ("dsin", k) is sqrt(2) sin(k pi x) on [0, 1]; ("const", 0),
    ("cos", k), ("sin", k) are the orthonormal Fourier basis on [-pi, pi].
    """
    rows = np.empty((len(tags), xs.size))
    for i, (kind, k) in enumerate(tags):
        if kind == "dsin":
            rows[i] = math.sqrt(2.0) * np.sin(k * math.pi * xs)
        elif kind == "const":
            rows[i] = 1.0 / math.sqrt(2.0 * math.pi)
        elif kind == "cos":
            rows[i] = np.cos(k * xs) / math.sqrt(math.pi)
        elif kind == "sin":
            rows[i] = np.sin(k * xs) / math.sqrt(math.pi)
        else:  # pragma: no cover
            raise InvalidParameterError(f"unknown basis tag {kind!r}")
    return rows


def _project(tags, f_vals: np.ndarray, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    return _basis_values(tags, xs) @ (ws * f_vals)


# --------------------------------------------------------------------------
# closed-form truth coefficients
# --------------------------------------------------------------------------

def _hat_coefficients(k: np.ndarray) -> np.ndarray:
    """("dsin", k) coordinates of the hat min(x, 1 - x) on [0, 1]."""
    sin_half = np.where(k % 2 == 1, 1.0 - 2.0 * (k // 2 % 2), 0.0)  # sin(k pi / 2)
    return 2.0 * math.sqrt(2.0) * sin_half / (k * math.pi) ** 2


def _tent_coefficients(k: np.ndarray) -> np.ndarray:
    """("cos", k) coordinates of the tent pi/2 - |x| on [-pi, pi]."""
    return np.where(k % 2 == 1, 4.0 / (math.sqrt(math.pi) * k**2.0), 0.0)


# --------------------------------------------------------------------------
# antiderivative problem
# --------------------------------------------------------------------------

def _build_antiderivative(n: int):
    if n < 8:
        raise InvalidParameterError("antiderivative problem needs n >= 8")
    k = np.arange(1, n + 1)
    lam = (k * math.pi) ** -4.0
    truth = _hat_coefficients(k)
    tags = [("dsin", int(kk)) for kk in k]
    return lam, truth, np.sqrt(lam) * truth, tags


def antiderivative_problem(n: int = 2000) -> SpectralProblem:
    """Mildly ill-posed benchmark with lam_k = (k pi)^-4."""
    lam, truth, data, _ = _build_antiderivative(n)
    return SpectralProblem(lam, truth, data, label="antiderivative")


# --------------------------------------------------------------------------
# gradiometry problem
# --------------------------------------------------------------------------

_GRADIOMETRY_DATA_MODES = 257  # the analytic data series runs at least this far


def _build_gradiometry(n: int, R: float):
    if n < 2:
        raise InvalidParameterError("gradiometry problem needs n >= 2")
    if R <= 1:
        raise InvalidParameterError("relative satellite radius R must exceed 1")
    ks = np.arange(1, n + 1)
    lam_by_k = ks**2 * (ks + 1.0) ** 2 * float(R) ** (-2.0 * ks - 4.0)

    data_modes = max(_GRADIOMETRY_DATA_MODES, n)
    nodes = _nodes_for_frequency(data_modes + n, math.pi)
    xs, ws = _piecewise_gauss([-math.pi, 0.0, math.pi], nodes)

    # analytic data series: g(x) = (4/pi) sum_j (1 + 1/j) R^(-j-2) cos(j x),
    # odd j <= max(257, n)
    g_vals = np.zeros_like(xs)
    for j in range(1, data_modes + 1, 2):
        g_vals += (4.0 / math.pi) * (1.0 + 1.0 / j) * R ** (-j - 2.0) * np.cos(j * xs)
    truth_cos = _tent_coefficients(ks)
    data_cos = _project([("cos", int(k)) for k in ks], g_vals, xs, ws)

    lam, truth, data, tags = [], [], [], []
    for i, k in enumerate(ks):
        lam.extend([lam_by_k[i], lam_by_k[i]])
        truth.extend([truth_cos[i], 0.0])
        data.extend([data_cos[i], 0.0])
        tags.extend([("cos", int(k)), ("sin", int(k))])
    order = np.argsort(-np.asarray(lam), kind="stable")
    lam = np.asarray(lam)[order]
    truth = np.asarray(truth)[order]
    data = np.asarray(data)[order]
    tags = [tags[i] for i in order]
    return lam, truth, data, tags


def gradiometry_problem(n: int = 129, R: float = 2.0) -> SpectralProblem:
    """Severely ill-posed gradiometry benchmark; mode 0 is excluded since the
    forward map annihilates it.  Coordinates are sorted by decreasing
    eigenvalue (the raw symbol is not monotone in the mode number)."""
    lam, truth, data, _ = _build_gradiometry(n, R)
    return SpectralProblem(lam, truth, data, label="gradiometry")


# --------------------------------------------------------------------------
# heat problem
# --------------------------------------------------------------------------

def _build_heat(n: int, t_bar: float):
    if n < 2:
        raise InvalidParameterError("heat problem needs n >= 2")
    if t_bar <= 0:
        raise InvalidParameterError("diffusion time t_bar must be positive")
    # eigenvalues underflow to exactly 0 in float64 once 2 k^2 t_bar > ~745
    if 2.0 * n**2 * t_bar > 700.0:
        raise InvalidParameterError(
            f"heat truncation n={n} underflows float64 eigenvalues; "
            f"need 2 n^2 t_bar <= 700"
        )
    data_modes = 4 * n  # finer truncation for the data than for the operator
    max_freq = data_modes + n
    nodes = _nodes_for_frequency(max_freq, math.pi)
    xs, ws = _piecewise_gauss([-math.pi, 0.0, math.pi], nodes)

    all_modes = np.arange(1, data_modes + 1)
    all_cos_tags = [("cos", j) for j in range(1, data_modes + 1)]
    truth_cos_all = _tent_coefficients(all_modes)

    # synthesize the final heat distribution from the exact Fourier multiplier
    mult = np.exp(-all_modes**2 * t_bar)
    g_vals = (mult * truth_cos_all) @ _basis_values(all_cos_tags, xs)

    tags = [("const", 0)]
    lam = [1.0]
    truth = [0.0]
    for k in range(1, n + 1):
        tags.extend([("cos", k), ("sin", k)])
        lam.extend([math.exp(-2.0 * k**2 * t_bar)] * 2)
        truth.extend([truth_cos_all[k - 1], 0.0])
    data_cos = _project([("cos", k) for k in range(1, n + 1)], g_vals, xs, ws)
    data = [0.0]
    for k in range(1, n + 1):
        data.extend([data_cos[k - 1], 0.0])
    return np.asarray(lam), np.asarray(truth), np.asarray(data), tags


def heat_problem(n: int = 48, t_bar: float = 0.1) -> SpectralProblem:
    """Severely ill-posed backward heat benchmark with lam_k = exp(-2 k^2 t_bar);
    the invariant mode 0 (lam = 1, zero-mean truth) is retained."""
    lam, truth, data, _ = _build_heat(n, t_bar)
    return SpectralProblem(lam, truth, data, label="heat")


# --------------------------------------------------------------------------
# dispatch and synthesis
# --------------------------------------------------------------------------

_BUILDERS = {
    "antiderivative": (_build_antiderivative, {"n": 2000}),
    "gradiometry": (_build_gradiometry, {"n": 129, "R": 2.0}),
    "heat": (_build_heat, {"n": 48, "t_bar": 0.1}),
}


def get_problem(name: str, **params) -> SpectralProblem:
    """Build a benchmark problem by name, with keyword overrides (n, R, t_bar)."""
    if name not in _BUILDERS:
        raise InvalidParameterError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    builder, defaults = _BUILDERS[name]
    kwargs = {**defaults, **params}
    lam, truth, data, _ = builder(**kwargs)
    return SpectralProblem(lam, truth, data, label=name)


def synthesize(name: str, coefficients, xs, **params) -> np.ndarray:
    """Evaluate a coefficient vector in the problem's physical basis at ``xs``.

    The coordinate order matches the problem built with the same parameters.
    """
    if name not in _BUILDERS:
        raise InvalidParameterError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    builder, defaults = _BUILDERS[name]
    kwargs = {**defaults, **params}
    _, _, _, tags = builder(**kwargs)
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.size != len(tags):
        raise InvalidParameterError("coefficient length does not match the problem dimension")
    return coeffs @ _basis_values(tags, np.asarray(xs, dtype=float))
