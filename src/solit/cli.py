"""Command-line harness.

Subcommands:
  simulate        run a Monte Carlo sweep and write CSV/JSON results
  rates           fit convergence-rate slopes from a results directory
  candidates      print a candidate grid as CSV
  quantile-check  compare approximated vs Monte Carlo tail quantiles
  reconstruct     synthesize one reconstruction on a physical grid

A JSON config file can supply any simulate option; explicit flags override
the file.  The only environment variable honored is SOLIT_OUT (fallback
output directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, fields

import numpy as np

from .candidates import build_grid
from .errors import ConfigurationError, InvalidParameterError, typed_option
from .filters import FilterSpec
from .genchi2 import ltz_quantile_for_weights, mc_tail_quantiles
from .harness import (
    ExperimentConfig,
    SELECTOR_NAMES,
    fit_rate,
    read_results,
    run_experiment,
    write_results,
)
from .selectors import build_thresholds, stream_select
from .sequence_model import estimate, estimator_weights, simulate_data
from .testproblems import DOMAINS, get_problem, synthesize

_QUANTILE_CHECK_TAILS = (math.exp(-1), math.exp(-2), math.exp(-4))

_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
_CONFIG_KINDS = typing.get_type_hints(ExperimentConfig)
# the sweep options default as in ExperimentConfig; the others are CLI-only
_SIM_DEFAULTS = {"problem": "antiderivative", "filter": "tikhonov", **_CONFIG_DEFAULTS,
                 "n": None, "R": None, "t_bar": None, "out": None}


def _problem_params(opts: dict) -> dict:
    return {key: opts[key] for key in ("n", "R", "t_bar") if opts.get(key) is not None}


def _problem_and_filter(args: argparse.Namespace):
    """Merged options (``_options``), problem and filter of a single-problem subcommand."""
    opts = _options(args)
    problem = get_problem(opts["problem"], **_problem_params(opts))
    return opts, problem, FilterSpec.for_spectrum(opts["filter"], problem.eigenvalues, opts["landweber_step"])


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="antiderivative | gradiometry | heat")
    p.add_argument("--filter", help="tikhonov | showalter | cutoff | landweber")
    p.add_argument("--n", type=int, help="truncation dimension override")
    p.add_argument("--R", type=float, help="gradiometry satellite radius")
    p.add_argument("--t-bar", dest="t_bar", type=float, help="heat diffusion time")
    p.add_argument("--landweber-step", dest="landweber_step", type=float)
    p.add_argument("--theta", type=float, help="variance ratio tuning parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="solit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment sweep")
    _add_problem_flags(p_sim)
    p_sim.add_argument("--config", help="JSON file with any of the simulate options")
    p_sim.add_argument("--selectors", help="comma list of " + ",".join(SELECTOR_NAMES))
    p_sim.add_argument("--beta", type=float)
    p_sim.add_argument("--gamma", type=float)
    p_sim.add_argument("--sigma-start", dest="sigma_start", type=float)
    p_sim.add_argument("--sigma-stop", dest="sigma_stop", type=float)
    p_sim.add_argument("--sigma-count", dest="sigma_count", type=int)
    p_sim.add_argument("--runs", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--kappa-tune", dest="kappa_tune", type=float)
    p_sim.add_argument("--noise-free", dest="noise_free", action="store_true", default=None)
    p_sim.add_argument("--out", help="output directory (fallback: $SOLIT_OUT, then results/)")

    p_rates = sub.add_parser("rates", help="fit rate slopes from a results directory")
    p_rates.add_argument("--in", dest="results_dir", required=True)
    p_rates.add_argument("--model", choices=("poly", "log"), required=True)

    p_cand = sub.add_parser("candidates", help="print a candidate grid as CSV")
    _add_problem_flags(p_cand)
    p_cand.add_argument("--sigma", type=float, required=True)

    p_q = sub.add_parser("quantile-check", help="approximate vs Monte Carlo quantiles")
    _add_problem_flags(p_q)
    p_q.add_argument("--sigma", type=float, required=True)
    p_q.add_argument("--mc-samples", dest="mc_samples", type=int, default=1_000_000)
    p_q.add_argument("--seed", type=int)

    p_rec = sub.add_parser("reconstruct", help="one reconstruction on a physical grid")
    _add_problem_flags(p_rec)
    p_rec.add_argument("--sigma", type=float, required=True)
    p_rec.add_argument("--seed", type=int)
    p_rec.add_argument("--points", type=int, default=256)
    p_rec.add_argument("--alpha", type=float, help="fixed candidate (default: solit choice)")
    p_rec.add_argument("--beta", type=float)
    p_rec.add_argument("--gamma", type=float)
    return parser


def _options(args: argparse.Namespace) -> dict:
    """A subcommand's options: its flags over simulate's --config file over
    the defaults, ExperimentConfig's for the sweep options."""
    opts = dict(_SIM_DEFAULTS)
    path = vars(args).get("config")
    if path:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidParameterError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise InvalidParameterError(f"config file {path} must hold a JSON object, not {loaded!r}")
        unknown = set(loaded) - set(_SIM_DEFAULTS)
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        opts.update(loaded)
    opts.update({key: value for key, value in vars(args).items() if value is not None})
    if isinstance(opts["selectors"], str):
        opts["selectors"] = [name for name in opts["selectors"].split(",") if name]
    # typed here, so that a subcommand rejects a bad flag it never reads
    # (reconstruct --alpha builds no grid); ExperimentConfig types them again
    opts.update({key: typed_option(key, opts[key], _CONFIG_KINDS[key]) for key in _CONFIG_DEFAULTS})
    return opts


def _simulate_config(opts: dict) -> ExperimentConfig:
    """The sweep of the merged simulate options; ExperimentConfig types them."""
    return ExperimentConfig(opts["problem"], opts["filter"], problem_params=_problem_params(opts),
                            **{key: opts[key] for key in _CONFIG_DEFAULTS})


def _cmd_simulate(args: argparse.Namespace) -> int:
    opts = _options(args)
    out = opts["out"] or os.environ.get("SOLIT_OUT") or "results"
    config = _simulate_config(opts)
    result = run_experiment(config)
    write_results(result, out)
    for cell in result.cells:
        parts = ", ".join(
            f"{name}={cell.selectors[name].mse:.4g}" for name in config.selectors
        )
        print(f"sigma={cell.sigma:.4g} m_max={cell.grid.m_max} m*={cell.m_star} {parts}")
    print(f"results written to {out}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    result = read_results(args.results_dir)
    sigmas = [cell.sigma for cell in result.cells]
    # every fit before any output, so a bad value leaves only the error line
    fits = {name: fit_rate(sigmas, [cell.selectors[name].mse for cell in result.cells], args.model)
            for name in result.config.selectors}
    for name, (slope, intercept) in fits.items():
        print(f"{name} slope={slope:.6g} intercept={intercept:.6g}")
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    opts, problem, spec = _problem_and_filter(args)
    grid = build_grid(problem, spec, opts["sigma"], opts["theta"])
    sys.stdout.write(grid.to_csv())
    if grid.theta2_enlarged:
        print(
            f"# theta2 enlarged to {grid.theta2:.6g} "
            f"(requested {grid.theta2_requested:.6g})",
            file=sys.stderr,
        )
    return 0


def _cmd_quantile_check(args: argparse.Namespace) -> int:
    opts, problem, spec = _problem_and_filter(args)
    grid = build_grid(problem, spec, opts["sigma"], opts["theta"])
    w_rows = estimator_weights(problem, spec, grid.alphas)
    # every row before any output, so a bad value leaves only the error line
    rows = []
    for m1 in range(grid.m_max):
        m2 = m1 + 1
        weights = (w_rows[m1] - w_rows[m2]) ** 2
        seed = int(np.random.SeedSequence((opts["seed"], m1)).generate_state(1, np.uint64)[0])
        mcs = mc_tail_quantiles(weights, _QUANTILE_CHECK_TAILS, opts["mc_samples"], seed)
        for p, mc in zip(_QUANTILE_CHECK_TAILS, mcs):
            ltz = ltz_quantile_for_weights(weights, p)
            rel = abs(ltz - mc) / mc
            rows.append(f"{m1},{m2},{p:.9g},{ltz:.9g},{mc:.9g},{rel:.4g}")
    print("m1,m2,p,ltz,mc,rel_err", *rows, sep="\n")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    opts, problem, spec = _problem_and_filter(args)
    points = typed_option("points", opts["points"], int)
    alpha = typed_option("alpha", opts.get("alpha"), float | None)
    y = simulate_data(problem, opts["sigma"], opts["seed"])
    if alpha is None:
        grid = build_grid(problem, spec, opts["sigma"], opts["theta"])
        thresholds = build_thresholds(problem, spec, grid, opts["beta"], opts["gamma"])
        # the rule and the distances of the sweeps, for one realization
        pick = stream_select(y[None] ** 2, thresholds.weights, {"solit": thresholds.kappa})["solit"][0]
        alpha = float(grid.alphas[pick])
    coeffs = estimate(problem, y, spec, alpha)
    xs = np.linspace(*DOMAINS[opts["problem"]], points)
    values = synthesize(opts["problem"], coeffs, xs, **_problem_params(opts))
    print(f"# alpha={alpha:.9g}")
    print("x,value")
    for x, v in zip(xs, values):
        print(f"{x:.9g},{v:.9g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "rates": _cmd_rates,
        "candidates": _cmd_candidates,
        "quantile-check": _cmd_quantile_check,
        "reconstruct": _cmd_reconstruct,
    }
    try:
        return handlers[args.command](args)
    except (InvalidParameterError, ConfigurationError, OSError) as exc:
        print(f"solit {args.command}: error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
