"""Shared fixtures: reduced-size benchmark problems keep the unit suites fast;
the acceptance module builds the full-size ones itself."""

import os
import threading

# one BLAS/OpenMP thread, as in perfbench: pools sized to the machine slow
# the suite many times over when another job shares the cores.  Set before
# numpy loads, since the pools are sized when the library starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from solit import (
    FilterSpec,
    SpectralProblem,
    antiderivative_problem,
    gradiometry_problem,
    heat_problem,
)
from solit.filters import filter_weight


@pytest.fixture(scope="session")
def small_antiderivative():
    return antiderivative_problem(200)


@pytest.fixture(scope="session")
def small_gradiometry():
    return gradiometry_problem(40)


@pytest.fixture(scope="session")
def small_heat():
    return heat_problem(24)


@pytest.fixture(scope="session")
def small_benchmarks(small_antiderivative, small_gradiometry, small_heat):
    return {
        "antiderivative": small_antiderivative,
        "gradiometry": small_gradiometry,
        "heat": small_heat,
    }


def force_cpus(monkeypatch, count):
    """Make the process's affinity set, which ``parallel.cpu_count`` reads,
    hold ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def record_started_threads(monkeypatch) -> list:
    """The list to which every ``threading.Thread`` started from now on is
    appended."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


def synthetic_problem(eigenvalues, truth=None, exact_forward=True, label="synthetic"):
    """Small problem with data generated by the exact forward map (useful when
    a test wants g_k = sqrt(lam_k) * truth_k to hold bitwise)."""
    lam = np.asarray(eigenvalues, dtype=float)
    if truth is None:
        truth = np.zeros_like(lam)
    truth = np.asarray(truth, dtype=float)
    data = np.sqrt(lam) * truth if exact_forward else np.zeros_like(lam)
    return SpectralProblem(lam, truth, data, label=label)


def bias_norms(problem, spec: FilterSpec, alphas) -> np.ndarray:
    """Deterministic bias ||E f_hat_alpha - truth|| per candidate."""
    lam = problem.eigenvalues
    out = []
    for a in alphas:
        mean_f = filter_weight(spec, a, lam) * np.sqrt(lam) * problem.data_truth
        out.append(float(np.linalg.norm(mean_f - problem.truth)))
    return np.asarray(out)
