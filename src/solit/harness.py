"""Monte Carlo experiment runner, rate fitting and results serialization.

The noise level only decides where the candidate grid stops and scales the
pairwise tables.  So per sweep the runner walks the candidate ladder once,
down to the smallest noise level, and ``build_thresholds`` builds the weight
table W once on the deepest grid and every table that comes from it, in one
``ThresholdTable``: one pass over its candidate pairs for the thresholds, the
noise-free biases and the variances, and the per-candidate tables of the
squared errors.  Every noise level takes a prefix of that grid and, through
``ThresholdTable.restrict``, of those tables at its own sigma: the
thresholds scaled by sigma, the variances by sigma^2, and a read-only view of
the first rows of every other table.  The oracle index and constants, the
Lepskii limits and the squared errors read sigma from that grid and table,
and u* = sigma^2 max_k W[m*, k]^2 of the constants from the table's W^2.
The runner then replays seeded realizations in blocks of runs.  Run r at
noise level si draws the stream of ``np.random.Philox(seed)`` with seed
``SeedSequence((master, si, r)).generate_state(1, uint64)``; Philox is keyed
and counter-based, so the keys of every run of the sweep are computed in one
vectorized pass (``sequence_model.seed_state``) and each block fills its
noise rows from one rekeyed generator.  The data are bit-identical to
per-run ``simulate_data`` draws, however the runs are blocked.  Per block the
runner evaluates every candidate's squared error from y = g + sigma * eps
through two matrix products against the restricted error tables
(``ThresholdTable.errors``).  The solit and Lepskii picks then come from one
streaming pass (``selectors.stream_select``): it walks the candidate rows m1
upward, forms one row of empirical distances for the whole block (squared
weight differences against squared data, one matrix product), gives each run
its pick at the first row within the limits, and stops once every run has
both picks, so no (runs, k, k) distance table is held.  A first product
gives every run's adjacent distances ||(W[m+1] - W[m]) y||, and a row is
formed only when some pending run's adjacent distance there is not over its
limit by more than a rounding margin of 8 (n+1) 2^-53 relative; rows whose
runs would all be rejected are skipped, and the picks do not change.
Blocks hold ``_BLOCK_ELEMENTS // n`` runs, so memory does not grow with the
number of runs.  Each noise level is one cell (``score_cell`` in
``run_experiment``): it reads only the sweep's tables and writes only arrays
of its own, so ``parallel.map_on_cpus`` scores the cells on a pool of at most
one thread per CPU of the process's affinity set (serially for one CPU or one
noise level), deepest noise level (most candidates) first.  Problem, grid,
thresholds and serialization stay on the calling thread.  Everything is
reproducible from the master seed, bit for bit for any CPU count.
``read_results`` reads a written sweep back against its config and meta.json
grids, matching rows by position; derived values written beside them (poa,
theta2_enlarged) are recomputed, not read.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import platform
import typing
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__
from .candidates import CandidateGrid, build_grid
from .errors import InvalidParameterError, typed_option
from .filters import FilterSpec
from .filters import filter_weight  # noqa: F401 - perfbench's filters.filter_weight.calls.harness probe
from .parallel import cpu_count, map_on_cpus
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
from .sequence_model import seed_state, seed_words, standard_normals
from .sequence_model import simulate_data  # noqa: F401 - perfbench's sequence_model.simulate_data probe
from .testproblems import get_problem, typed_problem_params

SELECTOR_NAMES = ("solit", "lepskii", "oracle", "optimal", "noise-level")

# Runs are processed in blocks of _BLOCK_ELEMENTS // n runs, so a block's
# temporaries do not grow with the number of runs: the (block, n) noise,
# squared noise and squared data hold at most this many float64 values
# (512 KiB) each.
_BLOCK_ELEMENTS = 1 << 16


@dataclass
class ExperimentConfig:
    """One Monte Carlo sweep.  Each field must have its annotated type
    (``errors.typed_option``): an int stands for a float, an integral float for
    an int and a list of names for the tuple; numpy numbers count as Python's,
    floats are finite, a bool is only a bool, and nothing else converts.  The
    ``problem_params`` must be parameters of the problem's builder, each typed
    like its default (``testproblems.typed_problem_params``)."""

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
        for name, kind in typing.get_type_hints(ExperimentConfig).items():
            setattr(self, name, typed_option(name, getattr(self, name), kind))
        self.problem_params = typed_problem_params(self.problem, self.problem_params)
        if not self.selectors:
            raise InvalidParameterError("a sweep needs at least one selector")
        unknown = set(self.selectors) - set(SELECTOR_NAMES)
        if unknown:
            raise InvalidParameterError(f"unknown selectors: {sorted(unknown)}")
        repeated = {name for name in self.selectors if self.selectors.count(name) > 1}
        if repeated:
            raise InvalidParameterError(f"repeated selectors: {sorted(repeated)}")
        if self.runs < 1:
            raise InvalidParameterError("at least one Monte Carlo run is required")
        if self.seed < 0:
            raise InvalidParameterError("seed must be nonnegative")
        if not (0 < self.sigma_stop < self.sigma_start):
            raise InvalidParameterError("need sigma_start > sigma_stop > 0")
        if self.sigma_count < 1:
            raise InvalidParameterError("sigma_count must be positive")
        # the messages of build_grid, build_thresholds and lepskii_limits, which check them again
        if not self.theta > 1:
            raise InvalidParameterError("theta must be finite and exceed 1")
        if not (self.beta > 0 and self.gamma > 0):
            raise InvalidParameterError("beta and gamma must be finite and positive")
        if not self.kappa_tune >= 1:
            raise InvalidParameterError("kappa_tune must be finite and at least 1")

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
    """One noise level of a sweep; its sigma and price of adaptation are derived, not stored."""

    grid: CandidateGrid
    m_star: int
    r_mstar: float
    c1: float
    c2: float
    selectors: dict[str, SelectorSummary]

    @property
    def sigma(self) -> float:
        """The cell's noise level, its grid's."""
        return self.grid.sigma

    @property
    def poa(self) -> float:
        """The price of adaptation (sqrt(R_{m*}) + C2)^2."""
        return price_of_adaptation(self.r_mstar, self.c2)


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
    cancellation.  Nothing in the package calls it (the sweeps and ``solit
    reconstruct`` pick through ``selectors.stream_select``): it is the tests'
    reference and the benchmark's ``harness.pairwise_distance_table`` probe.
    """
    k = rows.shape[0]
    table = np.zeros((k, k))
    for i in range(k - 1):
        diff = rows[i + 1 :] - rows[i]
        table[i, i + 1 :] = np.sqrt(np.einsum("jk,jk->j", diff, diff))
    return table + table.T


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full Monte Carlo sweep described by ``config``."""
    problem = get_problem(config.problem, **config.problem_params)
    spec = FilterSpec.for_spectrum(config.filter_kind, problem.eigenvalues, config.landweber_step)

    sigmas = config.sigma_grid()
    grids = build_grid(problem, spec, sigmas, config.theta)
    # sigmas decrease, so the last grid is the deepest and every other a prefix of it
    tables = build_thresholds(problem, spec, grids[-1], config.beta, config.gamma)
    # noise-free runs all see the exact data: score it once, copy to every run
    scored = 1 if config.noise_free else config.runs
    keys = None if config.noise_free else _run_keys(config.seed, sigmas.size, config.runs)
    block = max(1, _BLOCK_ELEMENTS // problem.n)

    def score_cell(si: int) -> SigmaCell:
        """The cell of noise level si; it writes only arrays of its own."""
        grid = grids[si]
        sigma, thresholds = grid.sigma, tables.restrict(grid)
        mm = grid.m_max
        m_star = oracle_select(thresholds.bias, thresholds.variance, config.beta)
        u_star = sigma**2 * float(thresholds.w_sq[m_star].max())  # sigma^2 max_k lam_k q_{alpha_m*}(lam_k)^2
        c1, c2 = oracle_constants(grid, m_star, u_star, config.beta, config.gamma)
        fixed_choices = {"oracle": m_star, "noise-level": noise_level_select(grid)}

        limits = {}
        if "solit" in config.selectors:
            limits["solit"] = thresholds.kappa
        if "lepskii" in config.selectors:
            limits["lepskii"] = lepskii_limits(grid, config.kappa_tune)

        err_sq = np.empty((scored, mm + 1))
        # the oracle and noise-level picks hold for every run; the others are set per block
        picks = {name: np.full(scored, fixed_choices.get(name, 0)) for name in config.selectors}
        for start in range(0, scored, block):
            stop = min(start + block, scored)
            runs = slice(start, stop)
            if config.noise_free:
                eps = np.zeros((1, problem.n))
            else:
                eps = standard_normals(keys[si, runs], problem.n)
            err_sq[runs] = thresholds.errors(eps)
            # y^2 = (g + sigma * eps)^2 in place, bit for bit
            eps *= sigma
            eps += problem.data_truth
            eps *= eps
            for name, idx in stream_select(eps, thresholds.weights, limits).items():
                picks[name][runs] = idx
            if "optimal" in picks:
                picks["optimal"][runs] = optimal_select(err_sq[runs])
        err_sq = np.broadcast_to(err_sq, (config.runs, mm + 1))
        every_run = np.arange(config.runs)
        summaries = {}
        for name, idx in picks.items():
            idx = np.broadcast_to(idx, config.runs)
            vals = err_sq[every_run, idx]
            stderr = float(np.std(vals, ddof=1) / math.sqrt(config.runs)) if config.runs > 1 else 0.0
            summaries[name] = SelectorSummary(mse=math.fsum(vals) / config.runs, stderr=stderr,
                                              histogram=np.bincount(idx, minlength=mm + 1))
        r_mstar = math.fsum(err_sq[:, m_star]) / config.runs
        return SigmaCell(grid=grid, m_star=int(m_star), r_mstar=r_mstar, c1=c1, c2=c2, selectors=summaries)

    # the deepest noise levels have the most candidates and cost the most, so
    # they are handed out first; each cell lands in its noise level's slot
    deepest_first = range(sigmas.size - 1, -1, -1)
    cells = map_on_cpus(score_cell, deepest_first)[::-1]
    return ExperimentResult(config=config, cells=cells)


def fit_rate(sigmas, mses, model: str) -> tuple[float, float]:
    """Least-squares slope and intercept of log MSE against log sigma
    ("poly") or against log(-log sigma) ("log"); the sigmas and MSEs must be
    positive and finite."""
    s = np.asarray(sigmas, dtype=float)
    m = np.asarray(mses, dtype=float)
    if s.size != m.size or s.size < 3:
        raise InvalidParameterError("rate fits need at least 3 matching points")
    if not np.all((0 < s) & (s < math.inf) & (0 < m) & (m < math.inf)):
        raise InvalidParameterError("rate fits need positive, finite sigmas and MSEs")
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


def verify_oracle_inequality(result: ExperimentResult) -> np.ndarray:
    """One margin per noise level of MSE(solit) <= C1 R_{m*} + (sqrt(R_{m*}) + C2)^2
    with 3 combined standard errors of Monte Carlo slack, C1 R_{m*} + poa +
    3 sqrt(stderr_solit^2 + stderr_oracle^2) - MSE(solit); it holds where >= 0."""
    margins = []
    for cell in result.cells:
        if "solit" not in cell.selectors or "oracle" not in cell.selectors:
            raise InvalidParameterError("oracle-inequality verification needs both solit and oracle rows")
        sol = cell.selectors["solit"]
        orc = cell.selectors["oracle"]
        slack = 3.0 * math.sqrt(sol.stderr**2 + orc.stderr**2)
        margins.append(cell.c1 * cell.r_mstar + cell.poa + slack - sol.mse)
    return np.asarray(margins, dtype=float)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the columns of the results files and the types read_results reads them as;
# results.csv also ends in the derived poa, which is written but not read
RESULTS_COLUMNS = {"sigma": float, "selector": str, "mse": float, "stderr": float, "m_star": int,
                   "R_mstar": float, "C1": float, "C2": float}
SELECTIONS_COLUMNS = {"sigma": float, "selector": str, "index": int, "count": int}
GRID_COLUMNS = {"alpha": float, "v_m": float}
# the grid fields meta.json holds, in the order written; all but theta2_enlarged are read back
GRID_META_KEYS = ("sigma", "theta1", "theta2", "theta2_requested", "theta2_enlarged", "truncation_tail_ratio")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_results(result: ExperimentResult, path: str) -> None:
    """Write results.csv, one grid_XYZ.csv per noise level, selections.csv
    with the selected-index histograms, and meta.json echoing the config, the
    package and library versions, the BLAS thread variables, the number of
    threads that score the cells and the Monte Carlo block budget
    (``read_results`` ignores the last four)."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*RESULTS_COLUMNS, "poa"])
        for cell in result.cells:
            for name in result.config.selectors:
                s = cell.selectors[name]
                writer.writerow([_fmt(cell.sigma), name, _fmt(s.mse), _fmt(s.stderr), cell.m_star,
                                 _fmt(cell.r_mstar), _fmt(cell.c1), _fmt(cell.c2), _fmt(cell.poa)])
    for i, cell in enumerate(result.cells):
        with open(os.path.join(path, f"grid_{i:03d}.csv"), "w") as fh:
            fh.write(cell.grid.to_csv())
    with open(os.path.join(path, "selections.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SELECTIONS_COLUMNS)
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
        # the size of the pool run_experiment scores the cells on in this process
        # (1: serially); with BLAS threads of their own they oversubscribe
        "cell_threads": min(cpu_count(), result.config.sigma_count),
        "block_elements": _BLOCK_ELEMENTS,
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, allow_nan=True)


def _csv_rows(path: str, columns: dict) -> list[dict]:
    """The rows of a results CSV file, each cell of the columns in
    ``columns`` cast by that column's type; raises unless the header holds
    every column and every such cell casts, to a finite number for a float
    column."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise InvalidParameterError(f"{path} lacks the columns {missing}")
        rows = []
        for row in reader:
            parsed = {}
            for name, cast in columns.items():
                try:
                    parsed[name] = cast(row[name])
                except (TypeError, ValueError):
                    parsed[name] = None
                if parsed[name] is None or cast is float and not math.isfinite(parsed[name]):
                    raise InvalidParameterError(
                        f"{path} line {reader.line_num}: column {name!r} holds {row[name]!r}, "
                        f"not {'an integer' if cast is int else 'a finite number'}"
                    )
            rows.append(parsed)
        return rows


def _grid_meta(ginfo, where: str) -> dict:
    """The CandidateGrid fields of meta.json grid entry ``where``: the first
    four finite floats by ``errors.typed_option``'s rule, and the tail ratio
    any number, inf included (a null reads as NaN)."""
    keys = ("sigma", "theta1", "theta2", "theta2_requested", "truncation_tail_ratio")
    if not (isinstance(ginfo, dict) and set(keys) <= ginfo.keys()):
        raise InvalidParameterError(f"{where} needs the keys {list(keys)}")
    try:
        fields = {key: typed_option(key, ginfo[key], float) for key in keys[:-1]}
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{where}: {exc}") from None
    tail = math.nan if ginfo["truncation_tail_ratio"] is None else ginfo["truncation_tail_ratio"]
    if type(tail) not in (int, float):  # exactly: a bool is no number here
        raise InvalidParameterError(f"{where}: 'truncation_tail_ratio' holds {tail!r}, not a number")
    return {**fields, "truncation_tail_ratio": tail}


def read_results(path: str) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a directory written by
    ``write_results``: ``sigma_count`` grids, one results.csv row per grid and
    selector in that order (a grid's rows agreeing on m_star, R_mstar, C1 and
    C2) and histograms of ``runs`` runs each, of counts in 1..runs.  Derived
    values are not read."""
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
    missing = [name for name in typing.get_type_hints(ExperimentConfig) if name not in meta["config"]]
    if missing:
        raise InvalidParameterError(f"{meta_path} config lacks the fields {missing}")
    try:
        config = ExperimentConfig(**meta["config"])
    except (TypeError, InvalidParameterError) as exc:  # an unknown field, or a value of the wrong type
        raise InvalidParameterError(f"{meta_path} holds no valid config: {exc}") from None

    if len(meta["grids"]) != config.sigma_count:
        raise InvalidParameterError(f"{meta_path} holds {len(meta['grids'])} grids for {config.sigma_count} sigmas")
    grids = []
    for i, ginfo in enumerate(meta["grids"]):
        fields = _grid_meta(ginfo, f"{meta_path} grid entry {i}")
        rows = _csv_rows(os.path.join(path, f"grid_{i:03d}.csv"), GRID_COLUMNS)
        grids.append(CandidateGrid(alphas=np.asarray([row["alpha"] for row in rows]),
                                   v=np.asarray([row["v_m"] for row in rows]), **fields))

    results_path = os.path.join(path, "results.csv")
    rows = _csv_rows(results_path, RESULTS_COLUMNS)
    expected = [(grid.sigma, name) for grid in grids for name in config.selectors]
    found = [(row["sigma"], row["selector"]) for row in rows]
    for line, (want, got) in enumerate(itertools.zip_longest(expected, found, fillvalue="the end of the file"), 2):
        if want != got:
            raise InvalidParameterError(f"{results_path} line {line}: expected (sigma, selector) {want}, found {got}; "
                                        f"the rows go grid by grid of {meta_path}, selectors in the config's order")
    k = len(config.selectors)
    cells = []
    for i, grid in enumerate(grids):
        cell_rows = rows[i * k : (i + 1) * k]
        values = {(row["m_star"], row["R_mstar"], row["C1"], row["C2"]) for row in cell_rows}
        if len(values) > 1:
            raise InvalidParameterError(f"{results_path} lines {i * k + 2}-{i * k + k + 1}, the noise level "
                                        f"{grid.sigma!r}, disagree on m_star, R_mstar, C1 or C2")
        cells.append(SigmaCell(grid, *values.pop(), selectors={
            row["selector"]: SelectorSummary(row["mse"], row["stderr"], np.zeros(grid.m_max + 1, dtype=int))
            for row in cell_rows}))

    summaries = {(cell.sigma, name): summary for cell in cells for name, summary in cell.selectors.items()}
    selections_path = os.path.join(path, "selections.csv")
    for row in _csv_rows(selections_path, SELECTIONS_COLUMNS):
        summary = summaries.get((row["sigma"], row["selector"]))
        index = row["index"]
        if summary is None or not 0 <= index < summary.histogram.size:
            raise InvalidParameterError(f"{selections_path} row {row} matches no histogram of {results_path}")
        if not 1 <= row["count"] <= config.runs:
            raise InvalidParameterError(f"{selections_path} row {row}: count outside 1..{config.runs}")
        summary.histogram[index] = row["count"]
    for cell, name in itertools.product(cells, config.selectors):
        if (total := cell.selectors[name].histogram.sum()) != config.runs:
            raise InvalidParameterError(f"{selections_path} counts {total} runs of {name!r} at the noise level "
                                        f"{cell.sigma!r}, not the config's {config.runs}")
    return ExperimentResult(config=config, cells=cells)
