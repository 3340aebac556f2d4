"""Sequence-space representation of the inverse problem.

A problem is stored through the eigenvalues of T*T, the coefficients of the
true solution in the eigenbasis, and the coefficients of the exact data in
the output singular basis.  All estimators live as coefficient vectors; norms
are plain Euclidean norms (Parseval).

Noise is drawn from Philox, a keyed counter-based generator: a realization's
stream is fixed by its 128-bit key alone.  ``seed_state`` reproduces
``np.random.SeedSequence(...).generate_state`` on many entropy rows at once,
so the key that ``np.random.Philox(seed)`` derives from a seed can be computed
for a whole batch of seeds, and ``standard_normals`` fills each row from one
reused generator rekeyed per row.
"""

from __future__ import annotations

import math
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


# the hashing constants of numpy's SeedSequence (pool of four 32-bit words)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def seed_words(seed: int) -> np.ndarray:
    """The uint32 words, least significant first, that numpy splits a
    nonnegative integer seed into (one word for 0)."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return np.array(words, dtype=np.uint32)


def seed_state(entropy, n_words: int, dtype=np.uint32) -> np.ndarray:
    """Row by row ``np.random.SeedSequence(row).generate_state(n_words,
    dtype)`` for a (rows, words) matrix of uint32 entropy words.

    Rows shorter than the pool are zero padded, which is what SeedSequence's
    hashing of missing pool words amounts to; words beyond the pool are mixed
    into every pool word.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    rows, width = entropy.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> _XSHIFT)

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    n_out = n_words * (np.dtype(dtype).itemsize // 4)
    state = np.empty((rows, n_out), dtype=np.uint32)
    const = _INIT_B
    for i in range(n_out):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # as SeedSequence does: pairs of words read as little-endian uint64
    return state.astype("<u4").view("<u8").astype(dtype) if n_out > n_words else state


def standard_normals(keys: np.ndarray, n: int) -> np.ndarray:
    """Standard normals of shape (rows, n): row i is
    ``Generator(Philox(key=keys[i])).standard_normal(n)``, drawn from one
    generator whose state is reset to counter 0 and the row's key."""
    bit_generator = np.random.Philox(0)
    gen = np.random.Generator(bit_generator)
    out = np.empty((len(keys), n))
    zero = np.zeros(4, dtype=np.uint64)
    for key, row in zip(keys, out):
        # a fresh generator's state: counter 0 and an empty output buffer
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": zero, "key": key},
            "buffer": zero,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return out


def simulate_data(problem: SpectralProblem, sigma: float, seed: int) -> DataRealization:
    """Draw y = data_truth + sigma * eps with standard normal eps.

    The generator is counter-based: eps is the stream of
    ``np.random.Philox(seed)``, so a seed fully determines the realization.
    """
    if not 0 < sigma < math.inf:
        raise InvalidParameterError(f"noise level must be positive and finite, got {sigma}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be nonnegative, got {seed}")
    key = seed_state(seed_words(seed)[None, :], 2, np.uint64)
    eps = standard_normals(key, problem.n)[0]
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
