"""Monte Carlo experiment runner, rate fitting and results serialization.

The noise level only decides where the candidate grid stops and scales the
pairwise tables.  So per sweep the runner walks the candidate ladder once,
down to the smallest noise level, and makes one pass over the deepest grid's
candidate pairs for the thresholds, the noise-free biases and the variances.
Every noise level takes a prefix of that grid and of those tables, with the
thresholds scaled by sigma and the variances by sigma^2; from them come the
oracle index and the oracle-inequality constants.  The runner then replays
seeded realizations in blocks of runs.  Run r at noise level si draws the
stream of ``np.random.Philox(seed)`` with seed
``SeedSequence((master, si, r)).generate_state(1, uint64)``; Philox is keyed
and counter-based, so the keys of every run of the sweep are computed in one
vectorized pass (``sequence_model.seed_state``) and each block fills its
noise rows from one rekeyed generator.  The data are bit-identical to
per-run ``simulate_data`` draws, however the runs are blocked.  Per block the
runner evaluates every candidate's squared error from y = g + sigma * eps
through two matrix products against tables built once per sweep
(``_block_errors``).  The solit and Lepskii picks then come from one
streaming pass (``selectors.stream_select``): it walks the candidate rows m1
upward, forms one row of empirical distances for the whole block (squared
weight differences against squared data, one matrix product), gives each run
its pick at the first row within the limits, and stops once every run has
both picks, so no (runs, k, k) distance table is held.  Blocks hold
``_BLOCK_ELEMENTS // n`` runs, so memory does not grow with the number of
runs.  Everything is reproducible from the master seed.
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
    lepskii_limits,
    noise_level_select,
    optimal_select,
    oracle_constants,
    oracle_select,
    price_of_adaptation,
    stream_select,
)
from .selectors import lepskii_select, solit_select  # noqa: F401 - perfbench's selectors probes
from .sequence_model import estimator_weights, seed_state, seed_words, standard_normals
from .sequence_model import simulate_data  # noqa: F401 - perfbench's sequence_model.simulate_data probe
from .testproblems import get_problem

SELECTOR_NAMES = ("solit", "lepskii", "oracle", "optimal", "noise-level")

# Runs are processed in blocks of _BLOCK_ELEMENTS // n runs, so a block's
# temporaries do not grow with the number of runs: the (block, n) noise,
# squared noise and squared data hold at most this many float64 values
# (512 KiB) each.
_BLOCK_ELEMENTS = 1 << 16


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


def _run_keys(master: int, sigma_count: int, runs: int) -> np.ndarray:
    """Philox keys of every realization of a sweep, shape (sigma_count, runs,
    2).  Run r at noise level si draws the stream of ``np.random.Philox(seed)``
    with seed = ``SeedSequence((master, si, r)).generate_state(1, uint64)``."""
    si, r = np.divmod(np.arange(sigma_count * runs), runs)
    entropy = np.column_stack([np.tile(seed_words(master), (si.size, 1)), si, r])
    # the uint64 seed as its two uint32 words, low first, is the key's entropy
    seeds = seed_state(entropy, 2)
    return seed_state(seeds, 2, np.uint64).reshape(sigma_count, runs, 2)


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


def _block_errors(eps: np.ndarray, sigma: float, b_sq: np.ndarray, wb_rows: np.ndarray,
                  w_sq: np.ndarray) -> np.ndarray:
    """Squared errors ||W[m] * y_b - f||^2 of a block of realizations
    y_b = g + sigma * eps_b, shape (block, k).

    With B = W * g - f the error is ||B_m||^2 + 2 sigma eps_b . (W_m B_m) +
    sigma^2 eps_b^2 . W_m^2: two GEMMs against the tables ``b_sq`` (the
    ||B_m||^2), ``wb_rows`` (W * B) and ``w_sq`` (W^2), with no (block, k, n)
    tensor.  Each term is of the order of the error itself, so this is not a
    Gram-type cancellation.
    """
    return b_sq + 2.0 * sigma * (eps @ wb_rows.T) + sigma**2 * (eps**2 @ w_sq.T)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full Monte Carlo sweep described by ``config``."""
    problem = get_problem(config.problem, **config.problem_params)
    spec = FilterSpec.for_spectrum(config.filter_kind, problem.eigenvalues, config.landweber_step)

    sigmas = config.sigma_grid()
    grids = build_grid(problem, spec, sigmas, config.theta)
    # sigmas decrease, so the last grid is the deepest and every other a prefix of it
    tables = build_thresholds(problem, spec, grids[-1], config.beta, config.gamma)
    w_all = estimator_weights(problem, spec, grids[-1].alphas)
    # the tables of the squared errors (_block_errors) on the deepest grid, in
    # one allocation: as separate arrays they stayed on the malloc heap after
    # the sweep and raised the peak RSS of a later sweep by about 1 MiB
    wb_rows, w_sq = np.empty((2, *w_all.shape))
    np.multiply(w_all, problem.data_truth, out=wb_rows)
    wb_rows -= problem.truth  # B = W g - f
    b_sq = np.einsum("ij,ij->i", wb_rows, wb_rows)
    wb_rows *= w_all
    np.multiply(w_all, w_all, out=w_sq)
    # noise-free runs all see the exact data: score it once, copy to every run
    scored = 1 if config.noise_free else config.runs
    keys = None if config.noise_free else _run_keys(config.seed, sigmas.size, config.runs)
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

        limits = {}
        if "solit" in config.selectors:
            limits["solit"] = thresholds.kappa
        if "lepskii" in config.selectors:
            limits["lepskii"] = lepskii_limits(grid, sigma, config.kappa_tune)

        err_sq = np.empty((scored, mm + 1))
        picks = {name: np.empty(scored, dtype=int) for name in config.selectors}
        block = max(1, _BLOCK_ELEMENTS // problem.n)
        for start in range(0, scored, block):
            stop = min(start + block, scored)
            runs = slice(start, stop)
            if config.noise_free:
                eps = np.zeros((1, problem.n))
            else:
                eps = standard_normals(keys[si, runs], problem.n)
            err_sq[runs] = _block_errors(eps, sigma, b_sq[: mm + 1], wb_rows[: mm + 1], w_sq[: mm + 1])
            # y^2 = (g + sigma * eps)^2 in place, bit for bit
            eps *= sigma
            eps += problem.data_truth
            eps *= eps
            for name, idx in stream_select(eps, w_rows, limits).items():
                picks[name][runs] = idx
            for name in config.selectors:
                if name == "optimal":
                    picks[name][runs] = optimal_select(err_sq[runs])
                elif name in fixed_choices:
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

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESULTS_HEADER = ["sigma", "selector", "mse", "stderr", "m_star", "R_mstar", "C1", "C2", "poa"]
SELECTIONS_HEADER = ["sigma", "selector", "index", "count"]
GRID_META_KEYS = ("sigma", "theta1", "theta2", "theta2_requested", "theta2_enlarged", "truncation_tail_ratio")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_results(result: ExperimentResult, path: str) -> None:
    """Write results.csv, one grid_XYZ.csv per noise level, selections.csv
    with the selected-index histograms, and meta.json echoing the config, the
    package and library versions, the BLAS thread variables and the Monte
    Carlo block budget (``read_results`` ignores the last three)."""
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
        writer.writerow(SELECTIONS_HEADER)
        for cell in result.cells:
            for name in result.config.selectors:
                hist = cell.selectors[name].histogram
                for idx in np.nonzero(hist)[0]:
                    writer.writerow([_fmt(cell.sigma), name, int(idx), int(hist[idx])])
    meta = {
        "config": asdict(result.config),
        "seed": result.config.seed,
        "sigmas": [cell.sigma for cell in result.cells],
        "grids": [{key: getattr(cell.grid, key) for key in GRID_META_KEYS} for cell in result.cells],
        "versions": {
            "solit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        # numpy reads these once, when it loads; null when unset
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "block_elements": _BLOCK_ELEMENTS,
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, allow_nan=True)


def _csv_rows(path: str, columns) -> list[dict]:
    """The rows of a results CSV file; raises unless its header holds every
    name in ``columns``."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise InvalidParameterError(f"{path} lacks the columns {missing}")
        return list(reader)


def read_results(path: str) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a directory written by
    ``write_results``."""
    meta_path = os.path.join(path, "meta.json")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"{meta_path} is not valid JSON: {exc}") from None
    if not (isinstance(meta, dict) and isinstance(meta.get("config"), dict)
            and isinstance(meta.get("grids"), list)):
        raise InvalidParameterError(
            f"{meta_path} is not a results record: it needs a 'config' object and a 'grids' list"
        )
    cfg_dict = dict(meta["config"])
    try:
        cfg_dict["selectors"] = tuple(cfg_dict["selectors"])
        config = ExperimentConfig(**cfg_dict)
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"{meta_path} holds no valid config: {exc!r}") from None

    grids = []
    for i, ginfo in enumerate(meta["grids"]):
        if not (isinstance(ginfo, dict) and set(GRID_META_KEYS) <= ginfo.keys()):
            raise InvalidParameterError(f"{meta_path} grid entry {i} needs the keys {list(GRID_META_KEYS)}")
        rows = _csv_rows(os.path.join(path, f"grid_{i:03d}.csv"), ("alpha", "v_m"))
        grids.append(
            CandidateGrid(
                alphas=np.asarray([float(row["alpha"]) for row in rows]),
                v=np.asarray([float(row["v_m"]) for row in rows]),
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
    results_path = os.path.join(path, "results.csv")
    for row in _csv_rows(results_path, RESULTS_HEADER):
        sig = float(row["sigma"])
        if sig not in by_sigma:
            if len(cells) == len(grids):
                raise InvalidParameterError(f"{results_path} has more noise levels than {meta_path} has grids")
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
    selections_path = os.path.join(path, "selections.csv")
    for row in _csv_rows(selections_path, SELECTIONS_HEADER):
        cell = by_sigma.get(float(row["sigma"]))
        summary = cell.selectors.get(row["selector"]) if cell else None
        index = int(row["index"])
        if summary is None or not 0 <= index < summary.histogram.size:
            raise InvalidParameterError(f"{selections_path} row {dict(row)} matches no histogram of {results_path}")
        summary.histogram[index] = int(row["count"])
    return ExperimentResult(config=config, cells=cells)
