"""The three benchmark problems in sequence space.

Each problem is defined once.  ``_<name>_modes`` checks the parameters and
returns the eigenvalues and basis tags in coordinate order without any
quadrature, which is all ``synthesize`` needs; the builder ``<name>_problem``
adds truth and data.  Defaults live only in the builders' signatures, against
which ``get_problem`` and ``synthesize`` bind their keyword overrides.

  antiderivative  second-antiderivative operator on L2([0,1]) with Dirichlet
                  sine basis sqrt(2) sin(k pi x); lam_k = (k pi)^-4; truth is
                  the hat min(x, 1 - x), f_k = 2 sqrt(2) sin(k pi/2) / (k pi)^2.
  gradiometry     satellite gradiometry on the circle; Fourier modes k with
                  lam_k = k^2 (k+1)^2 R^(-2k-4); truth the tent pi/2 - |x|,
                  f_k = 4 / (sqrt(pi) k^2) on odd cosine modes, 0 elsewhere.
  heat            periodic backward heat source identification;
                  lam_k = exp(-2 k^2 t_bar) plus the invariant mode 0; truth
                  the same tent.

Every truth vector is built from its exact coefficients.  The operator is
diagonal in these coordinates, so the exact data are g_k = sqrt(lam_k) f_k,
as the antiderivative data are built.  Only the gradiometry and heat data
still use quadrature: composite Gauss-Legendre projections of the gradiometry
potential's analytic cosine series and of the heat solution synthesized from
the exact Fourier multiplier at four times the operator's truncation.  Their
closed forms differ only by quadrature rounding, but that moves the benchmark
MSEs by up to 2e-7, while the stored benchmark reference
(perfbench/reference.json) holds them to 1e-9.  They switch to the closed
form when that reference is regenerated.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InvalidParameterError
from .sequence_model import SpectralProblem


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

    ``tags`` is a pair (kinds, modes) of arrays with one entry per row:
    ("dsin", k) is sqrt(2) sin(k pi x) on [0, 1]; ("const", 0), ("cos", k),
    ("sin", k) are the orthonormal Fourier basis on [-pi, pi].
    """
    kinds, modes = tags
    rows = np.empty((len(modes), xs.size))
    for i, (kind, k) in enumerate(zip(kinds.tolist(), modes.tolist())):
        if kind == "dsin":
            rows[i] = math.sqrt(2.0) * np.sin(k * math.pi * xs)
        elif kind == "const":
            rows[i] = 1.0 / math.sqrt(2.0 * math.pi)
        elif kind == "cos":
            rows[i] = np.cos(k * xs) / math.sqrt(math.pi)
        else:  # "sin"
            rows[i] = np.sin(k * xs) / math.sqrt(math.pi)
    return rows


# the physical domain of each problem's basis
DOMAINS = {
    "antiderivative": (0.0, 1.0),
    "gradiometry": (-math.pi, math.pi),
    "heat": (-math.pi, math.pi),
}


def _cos_tags(modes: np.ndarray) -> tuple:
    return np.full(modes.size, "cos"), modes


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

def _antiderivative_modes(n: int):
    if n < 8:
        raise InvalidParameterError("antiderivative problem needs n >= 8")
    k = np.arange(1, n + 1)
    return (k * math.pi) ** -4.0, (np.full(n, "dsin"), k)


def antiderivative_problem(n: int = 2000) -> SpectralProblem:
    """Mildly ill-posed benchmark with lam_k = (k pi)^-4."""
    lam, (_, k) = _antiderivative_modes(n)
    truth = _hat_coefficients(k)
    return SpectralProblem(lam, truth, np.sqrt(lam) * truth, label="antiderivative")


# --------------------------------------------------------------------------
# gradiometry problem
# --------------------------------------------------------------------------

_GRADIOMETRY_DATA_MODES = 257  # the analytic data series runs at least this far


def _gradiometry_modes(n: int, R: float):
    """The cosine and sine of each mode k >= 1 share lam_k; coordinates are
    sorted by decreasing eigenvalue, ties kept in mode order."""
    if n < 2:
        raise InvalidParameterError("gradiometry problem needs n >= 2")
    if not R > 1:
        raise InvalidParameterError("relative satellite radius R must exceed 1")
    k = np.arange(1, n + 1)
    lam = np.repeat(k**2 * (k + 1.0) ** 2 * float(R) ** (-2.0 * k - 4.0), 2)
    order = np.argsort(-lam, kind="stable")
    return lam[order], (np.tile(["cos", "sin"], n)[order], np.repeat(k, 2)[order])


def gradiometry_problem(n: int = 129, R: float = 2.0) -> SpectralProblem:
    """Severely ill-posed gradiometry benchmark; mode 0 is excluded since the
    forward map annihilates it.  Coordinates are sorted by decreasing
    eigenvalue (the raw symbol is not monotone in the mode number)."""
    lam, (kinds, k) = _gradiometry_modes(n, R)
    data_modes = max(_GRADIOMETRY_DATA_MODES, n)
    nodes = _nodes_for_frequency(data_modes + n, math.pi)
    xs, ws = _piecewise_gauss([-math.pi, 0.0, math.pi], nodes)

    # analytic data series: g(x) = (4/pi) sum_j (1 + 1/j) R^(-j-2) cos(j x),
    # odd j <= max(257, n)
    g_vals = np.zeros_like(xs)
    for j in range(1, data_modes + 1, 2):
        g_vals += (4.0 / math.pi) * (1.0 + 1.0 / j) * R ** (-j - 2.0) * np.cos(j * xs)
    ks = np.arange(1, n + 1)
    cos = kinds == "cos"
    truth = np.where(cos, _tent_coefficients(k), 0.0)
    data = np.where(cos, _project(_cos_tags(ks), g_vals, xs, ws)[k - 1], 0.0)
    return SpectralProblem(lam, truth, data, label="gradiometry")


# --------------------------------------------------------------------------
# heat problem
# --------------------------------------------------------------------------

def _heat_modes(n: int, t_bar: float):
    """The invariant mode 0, then the cosine and sine of each mode k >= 1."""
    if n < 2:
        raise InvalidParameterError("heat problem needs n >= 2")
    if not t_bar > 0:
        raise InvalidParameterError("diffusion time t_bar must be positive")
    # eigenvalues underflow to exactly 0 in float64 once 2 k^2 t_bar > ~745
    if 2.0 * n**2 * t_bar > 700.0:
        raise InvalidParameterError(
            f"heat truncation n={n} underflows float64 eigenvalues; "
            f"need 2 n^2 t_bar <= 700"
        )
    lam = np.ones(2 * n + 1)
    # math.exp, not np.exp, whose last bits differ and would move every result
    lam[1::2] = lam[2::2] = [math.exp(-2.0 * k**2 * t_bar) for k in range(1, n + 1)]
    kinds = np.array(["const"] + ["cos", "sin"] * n)
    return lam, (kinds, (np.arange(2 * n + 1) + 1) // 2)


def heat_problem(n: int = 48, t_bar: float = 0.1) -> SpectralProblem:
    """Severely ill-posed backward heat benchmark with lam_k = exp(-2 k^2 t_bar);
    the invariant mode 0 (lam = 1, zero-mean truth) is retained."""
    lam, _ = _heat_modes(n, t_bar)
    data_modes = 4 * n  # finer truncation for the data than for the operator
    nodes = _nodes_for_frequency(data_modes + n, math.pi)
    xs, ws = _piecewise_gauss([-math.pi, 0.0, math.pi], nodes)

    # synthesize the final heat distribution from the exact Fourier multiplier
    all_modes = np.arange(1, data_modes + 1)
    truth_cos_all = _tent_coefficients(all_modes)
    mult = np.exp(-all_modes**2 * t_bar)
    g_vals = (mult * truth_cos_all) @ _basis_values(_cos_tags(all_modes), xs)

    truth, data = np.zeros((2, lam.size))
    truth[1::2] = truth_cos_all[:n]
    data[1::2] = _project(_cos_tags(all_modes[:n]), g_vals, xs, ws)
    return SpectralProblem(lam, truth, data, label="heat")


# --------------------------------------------------------------------------
# dispatch and synthesis
# --------------------------------------------------------------------------

_PROBLEMS = {
    "antiderivative": (antiderivative_problem, _antiderivative_modes),
    "gradiometry": (gradiometry_problem, _gradiometry_modes),
    "heat": (heat_problem, _heat_modes),
}
PROBLEM_NAMES = tuple(_PROBLEMS)


def _lookup(name: str, params: dict) -> tuple:
    """The builder and spectrum helper of a problem, and the keyword
    overrides bound to the builder's signature, defaults filled in."""
    if name not in _PROBLEMS:
        raise InvalidParameterError(f"unknown problem {name!r}; expected one of {PROBLEM_NAMES}")
    builder, modes = _PROBLEMS[name]
    try:
        bound = inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise InvalidParameterError(f"{name} problem: {exc}") from None
    bound.apply_defaults()
    return builder, modes, bound.arguments


def get_problem(name: str, **params) -> SpectralProblem:
    """Build a benchmark problem by name, with keyword overrides (n, R, t_bar)."""
    builder, _, kwargs = _lookup(name, params)
    return builder(**kwargs)


def synthesize(name: str, coefficients, xs, **params) -> np.ndarray:
    """Evaluate a coefficient vector in the problem's physical basis at ``xs``.

    The coordinate order matches the problem built with the same parameters.
    """
    _, modes, kwargs = _lookup(name, params)
    lam, tags = modes(**kwargs)
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.size != lam.size:
        raise InvalidParameterError("coefficient length does not match the problem dimension")
    return coeffs @ _basis_values(tags, np.asarray(xs, dtype=float))
