"""Monte Carlo experiment runner, rate fitting and results serialization.

The noise level only decides where the candidate grid stops and scales the
pairwise tables.  So per sweep the runner walks the candidate ladder once,
down to the smallest noise level, and makes one pass over the deepest grid's
candidate pairs for the thresholds, the noise-free biases and the variances.
Every noise level takes a prefix of that grid and of those tables, with the
thresholds scaled by sigma and the variances by sigma^2; from them come the
oracle index and the oracle-inequality constants.  The runner then replays
seeded realizations in blocks of runs.  Each realization is drawn by its own
``simulate_data`` call with its own seed, so the data are bit-identical
however the runs are blocked.  Per block the runner evaluates every
candidate's squared error exactly, forms the empirical pairwise distances in
weight space (squared weight differences against squared data, one matrix
product per candidate row), and applies every requested selector to the
whole block.  Blocks are sized by a fixed element budget, so memory does not
grow with the number of runs.  Everything is reproducible from the master
seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__
from .candidates import CandidateGrid, build_grid, weak_variance_u
from .errors import InvalidParameterError
from .filters import FilterSpec
from .filters import filter_weight  # noqa: F401 - perfbench's filters.filter_weight.calls.harness probe
from .selectors import (
    build_thresholds,
    lepskii_select,
    noise_level_select,
    optimal_select,
    oracle_constants,
    oracle_select,
    price_of_adaptation,
    solit_select,
)
from .sequence_model import estimator_weights, simulate_data
from .testproblems import get_problem

SELECTOR_NAMES = ("solit", "lepskii", "oracle", "optimal", "noise-level")

# Runs are processed in blocks sized so that each per-block temporary, such as
# the (block, k, n) estimator errors, holds at most about this many float64
# values (8 MiB), whatever the number of runs.
_BLOCK_ELEMENTS = 1 << 20


@dataclass
class ExperimentConfig:
    problem: str
    filter_kind: str
    selectors: tuple[str, ...] = SELECTOR_NAMES
    theta: float = 2.0
    beta: float = 1.0
    gamma: float = 1.0
    sigma_start: float = 3e-2
    sigma_stop: float = 1e-5
    sigma_count: int = 8
    runs: int = 200
    seed: int = 42
    kappa_tune: float = 1.0
    problem_params: dict = field(default_factory=dict)
    landweber_step: float | None = None
    noise_free: bool = False

    def __post_init__(self):
        self.selectors = tuple(self.selectors)
        unknown = set(self.selectors) - set(SELECTOR_NAMES)
        if unknown:
            raise InvalidParameterError(f"unknown selectors: {sorted(unknown)}")
        if self.runs < 1:
            raise InvalidParameterError("at least one Monte Carlo run is required")
        if self.seed < 0:
            raise InvalidParameterError("seed must be nonnegative")
        # NaN and inf fail here; the ranges are checked where the values are used
        for name in ("theta", "beta", "gamma", "kappa_tune", "sigma_start"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        if not (0 < self.sigma_stop < self.sigma_start):
            raise InvalidParameterError("need sigma_start > sigma_stop > 0")
        if self.sigma_count < 1:
            raise InvalidParameterError("sigma_count must be positive")

    def sigma_grid(self) -> np.ndarray:
        """Strictly decreasing geometric noise-level grid (sigma_start alone
        when sigma_count is 1)."""
        return np.geomspace(self.sigma_start, self.sigma_stop, self.sigma_count)


@dataclass
class SelectorSummary:
    mse: float
    stderr: float
    histogram: np.ndarray  # counts of selected indices, length m_max + 1


@dataclass
class SigmaCell:
    sigma: float
    grid: CandidateGrid
    m_star: int
    r_mstar: float
    c1: float
    c2: float
    poa: float
    selectors: dict[str, SelectorSummary]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: list[SigmaCell]


def _run_seed(master: int, sigma_index: int, run_index: int) -> int:
    ss = np.random.SeedSequence((master, sigma_index, run_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _pairwise_distance_table(rows: np.ndarray) -> np.ndarray:
    """Full symmetric table of Euclidean distances between the rows of a
    (k, n) matrix.

    Built one row block at a time, ``rows[i+1:] - rows[i]``, so no (k, k, n)
    difference tensor is held.  Differences are formed directly (no Gram
    shortcut): distances far below the row norms would otherwise drown in
    cancellation.
    """
    k = rows.shape[0]
    table = np.zeros((k, k))
    for i in range(k - 1):
        diff = rows[i + 1 :] - rows[i]
        table[i, i + 1 :] = np.sqrt(np.einsum("jk,jk->j", diff, diff))
    return table + table.T


def _block_distances(y_sq: np.ndarray, w_rows: np.ndarray) -> np.ndarray:
    """Empirical distance tables of a block of realizations, upper triangle
    only (zero elsewhere): bhat[b, m1, m2] = ||(W[m1] - W[m2]) * y_b||.

    The squared distances are sum_j (W[m1,j] - W[m2,j])^2 y_bj^2, one GEMM
    per row m1.  The weight differences are formed before squaring, so there
    is no Gram-type cancellation.
    """
    k = w_rows.shape[0]
    bhat = np.zeros((y_sq.shape[0], k, k))
    for m1 in range(k - 1):
        d2 = (w_rows[m1 + 1 :] - w_rows[m1]) ** 2
        bhat[:, m1, m1 + 1 :] = np.sqrt(y_sq @ d2.T)
    return bhat


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full Monte Carlo sweep described by ``config``."""
    problem = get_problem(config.problem, **config.problem_params)
    spec = FilterSpec.for_spectrum(config.filter_kind, problem.eigenvalues, config.landweber_step)

    sigmas = config.sigma_grid()
    grids = build_grid(problem, spec, sigmas, config.theta)
    # sigmas decrease, so the last grid is the deepest and every other a prefix of it
    tables = build_thresholds(problem, spec, grids[-1], config.beta, config.gamma)
    w_all = estimator_weights(problem, spec, grids[-1].alphas)
    cells: list[SigmaCell] = []
    for si, (sigma, grid) in enumerate(zip(sigmas.tolist(), grids)):
        thresholds = tables.restrict(grid)
        mm = grid.m_max
        w_rows = w_all[: mm + 1]
        m_star = oracle_select(thresholds.bias, thresholds.variance, config.beta)
        u_star = weak_variance_u(problem, spec, grid.alphas[m_star], sigma)
        c1, c2 = oracle_constants(grid, m_star, u_star, config.beta, config.gamma)
        fixed_choices = {
            "oracle": m_star,
            "noise-level": noise_level_select(grid, sigma),
        }

        # noise-free runs all see the exact data: score it once, copy to every run
        scored = 1 if config.noise_free else config.runs
        err_sq = np.empty((scored, mm + 1))
        picks = {name: np.empty(scored, dtype=int) for name in config.selectors}
        block = max(1, _BLOCK_ELEMENTS // w_rows.size)
        for start in range(0, scored, block):
            stop = min(start + block, scored)
            runs = slice(start, stop)
            if config.noise_free:
                y = problem.data_truth[None, :]
            else:
                y = np.stack(
                    [
                        simulate_data(problem, sigma, _run_seed(config.seed, si, r)).y
                        for r in range(start, stop)
                    ]
                )
            diff = w_rows * y[:, None, :]
            diff -= problem.truth
            err_sq[runs] = np.einsum("bij,bij->bi", diff, diff)
            del diff  # freed before the distances allocate theirs
            bhat = _block_distances(y**2, w_rows)
            for name in config.selectors:
                if name == "solit":
                    picks[name][runs] = solit_select(bhat, thresholds)
                elif name == "lepskii":
                    picks[name][runs] = lepskii_select(bhat, grid, sigma, config.kappa_tune)
                elif name == "optimal":
                    picks[name][runs] = optimal_select(err_sq[runs])
                else:
                    picks[name][runs] = fixed_choices[name]
        err_sq = np.broadcast_to(err_sq, (config.runs, mm + 1))
        picks = {name: np.broadcast_to(idx, config.runs) for name, idx in picks.items()}
        every_run = np.arange(config.runs)
        sq_errors = {name: err_sq[every_run, idx] for name, idx in picks.items()}
        histograms = {
            name: np.bincount(idx, minlength=mm + 1) for name, idx in picks.items()
        }
        r_runs = err_sq[:, m_star]

        summaries = {}
        for name in config.selectors:
            vals = sq_errors[name]
            mse = math.fsum(vals) / config.runs
            stderr = (
                float(np.std(vals, ddof=1) / math.sqrt(config.runs))
                if config.runs > 1
                else 0.0
            )
            summaries[name] = SelectorSummary(
                mse=mse, stderr=stderr, histogram=histograms[name]
            )
        r_mstar = math.fsum(r_runs) / config.runs
        cells.append(
            SigmaCell(
                sigma=sigma,
                grid=grid,
                m_star=int(m_star),
                r_mstar=r_mstar,
                c1=c1,
                c2=c2,
                poa=price_of_adaptation(r_mstar, c2),
                selectors=summaries,
            )
        )
    return ExperimentResult(config=config, cells=cells)


def fit_rate(sigmas, mses, model: str) -> tuple[float, float]:
    """Least-squares slope and intercept of log MSE against log sigma
    ("poly") or against log(-log sigma) ("log")."""
    s = np.asarray(sigmas, dtype=float)
    m = np.asarray(mses, dtype=float)
    if s.size != m.size or s.size < 3:
        raise InvalidParameterError("rate fits need at least 3 matching points")
    if np.any(s <= 0) or np.any(m <= 0):
        raise InvalidParameterError("rate fits need positive sigmas and MSEs")
    if model == "poly":
        x = np.log(s)
    elif model == "log":
        if np.any(s >= 1):
            raise InvalidParameterError("log-model fits need sigma < 1")
        x = np.log(-np.log(s))
    else:
        raise InvalidParameterError(f"unknown rate model {model!r}")
    slope, intercept = np.polyfit(x, np.log(m), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class OracleInequalityRow:
    sigma: float
    mse_solit: float
    bound: float
    margin: float

    @property
    def ok(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class OracleInequalityReport:
    rows: tuple[OracleInequalityRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


def verify_oracle_inequality(result: ExperimentResult) -> OracleInequalityReport:
    """Check MSE(solit) <= C1 R_{m*} + (sqrt(R_{m*}) + C2)^2 per noise level,
    with 3 combined standard errors of Monte Carlo slack."""
    rows = []
    for cell in result.cells:
        if "solit" not in cell.selectors or "oracle" not in cell.selectors:
            raise InvalidParameterError(
                "oracle-inequality verification needs both solit and oracle rows"
            )
        sol = cell.selectors["solit"]
        orc = cell.selectors["oracle"]
        slack = 3.0 * math.sqrt(sol.stderr**2 + orc.stderr**2)
        bound = cell.c1 * cell.r_mstar + price_of_adaptation(cell.r_mstar, cell.c2) + slack
        rows.append(
            OracleInequalityRow(
                sigma=cell.sigma, mse_solit=sol.mse, bound=bound, margin=bound - sol.mse
            )
        )
    return OracleInequalityReport(rows=tuple(rows))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

RESULTS_HEADER = ["sigma", "selector", "mse", "stderr", "m_star", "R_mstar", "C1", "C2", "poa"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_results(result: ExperimentResult, path: str) -> None:
    """Write results.csv, one grid_XYZ.csv per noise level, selections.csv
    with the selected-index histograms, and meta.json echoing the config and
    the package and library versions (``read_results`` ignores those)."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for cell in result.cells:
            for name in result.config.selectors:
                s = cell.selectors[name]
                writer.writerow(
                    [
                        _fmt(cell.sigma),
                        name,
                        _fmt(s.mse),
                        _fmt(s.stderr),
                        cell.m_star,
                        _fmt(cell.r_mstar),
                        _fmt(cell.c1),
                        _fmt(cell.c2),
                        _fmt(cell.poa),
                    ]
                )
    for i, cell in enumerate(result.cells):
        with open(os.path.join(path, f"grid_{i:03d}.csv"), "w") as fh:
            fh.write(cell.grid.to_csv())
    with open(os.path.join(path, "selections.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "selector", "index", "count"])
        for cell in result.cells:
            for name in result.config.selectors:
                hist = cell.selectors[name].histogram
                for idx in np.nonzero(hist)[0]:
                    writer.writerow([_fmt(cell.sigma), name, int(idx), int(hist[idx])])
    meta = {
        "config": asdict(result.config),
        "seed": result.config.seed,
        "sigmas": [cell.sigma for cell in result.cells],
        "grids": [
            {
                "sigma": cell.grid.sigma,
                "theta1": cell.grid.theta1,
                "theta2": cell.grid.theta2,
                "theta2_requested": cell.grid.theta2_requested,
                "theta2_enlarged": cell.grid.theta2_enlarged,
                "truncation_tail_ratio": cell.grid.truncation_tail_ratio,
            }
            for cell in result.cells
        ],
        "versions": {
            "solit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, allow_nan=True)


def read_results(path: str) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a directory written by
    ``write_results``."""
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    cfg_dict = dict(meta["config"])
    cfg_dict["selectors"] = tuple(cfg_dict["selectors"])
    config = ExperimentConfig(**cfg_dict)

    grids = []
    for i, ginfo in enumerate(meta["grids"]):
        alphas, vs = [], []
        with open(os.path.join(path, f"grid_{i:03d}.csv")) as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                alphas.append(float(row["alpha"]))
                vs.append(float(row["v_m"]))
        grids.append(
            CandidateGrid(
                alphas=np.asarray(alphas),
                v=np.asarray(vs),
                theta1=ginfo["theta1"],
                theta2=ginfo["theta2"],
                sigma=ginfo["sigma"],
                theta2_requested=ginfo["theta2_requested"],
                theta2_enlarged=ginfo["theta2_enlarged"],
                truncation_tail_ratio=(
                    float("nan")
                    if ginfo["truncation_tail_ratio"] is None
                    else ginfo["truncation_tail_ratio"]
                ),
            )
        )

    cells: list[SigmaCell] = []
    by_sigma: dict[float, SigmaCell] = {}
    with open(os.path.join(path, "results.csv")) as fh:
        for row in csv.DictReader(fh):
            sig = float(row["sigma"])
            if sig not in by_sigma:
                by_sigma[sig] = SigmaCell(
                    sigma=sig,
                    grid=grids[len(cells)],
                    m_star=int(row["m_star"]),
                    r_mstar=float(row["R_mstar"]),
                    c1=float(row["C1"]),
                    c2=float(row["C2"]),
                    poa=float(row["poa"]),
                    selectors={},
                )
                cells.append(by_sigma[sig])
            cell = by_sigma[sig]
            cell.selectors[row["selector"]] = SelectorSummary(
                mse=float(row["mse"]),
                stderr=float(row["stderr"]),
                histogram=np.zeros(cell.grid.m_max + 1, dtype=int),
            )
    with open(os.path.join(path, "selections.csv")) as fh:
        for row in csv.DictReader(fh):
            hist = by_sigma[float(row["sigma"])].selectors[row["selector"]].histogram
            hist[int(row["index"])] = int(row["count"])
    return ExperimentResult(config=config, cells=cells)
