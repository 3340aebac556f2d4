"""The benchmark's workloads, built from a seed through solit's public API.

A workload is a fixed list of operations, one pass.  An operation is one
``run_experiment`` sweep (plus, in ``sweep9``, writing and reading back its
results) or one quantile-mc pair.  Each operation returns its latency and an
output, which ``check`` turns into a list of problems after the timed part.

``sweep9`` reaches every layer.  ``realizations`` is dominated by the Monte
Carlo loop, ``tables`` by the per-sweep set-up (grid and thresholds) and
``quantile-mc`` by the ``genchi2`` sampler, so a change to one of these has a
workload that shows it and one that predicts no change.

Every sweep uses the acceptance spans: antiderivative sigma in [1e-5, 3e-2],
gradiometry and heat in [1e-8, 1e-2], 8 geometric noise levels, theta=2 and
beta=gamma=1.  The seed is the sweep's master seed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from check import (
    invariant_problems,
    quantile_problems,
    reference_problems,
    roundtrip_problems,
)

REFERENCE_SEED = 42
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SPANS = {
    "antiderivative": (3e-2, 1e-5),
    "gradiometry": (1e-2, 1e-8),
    "heat": (1e-2, 1e-8),
}
ACCEPTANCE_FILTERS = ("tikhonov", "showalter", "cutoff")
ALL_FILTERS = ACCEPTANCE_FILTERS + ("landweber",)
# Known defect: at the declared span heat/landweber raises ConfigurationError
# (filter_weight rounds 1 - step*lam to 1 for step*lam < 1.1e-16, so V is
# capped below 1/sigma^2).  It joins ``tables`` once that is fixed.
TABLES_EXCLUDED = {("heat", "landweber")}

SWEEP9_RUNS = 200
REALIZATION_RUNS = {"antiderivative": 300, "gradiometry": 300}
QUANTILE_TAILS = (math.exp(-1), math.exp(-2), math.exp(-4))
QUANTILE_DRAWS = 200_000

WORKLOADS = ("sweep9", "realizations", "tables", "quantile-mc")


@dataclass
class Op:
    key: str
    run: Callable[[], tuple[float, object]]  # -> (latency in seconds, output)
    check: Callable[[object], tuple[list[str], dict]]  # -> (problems, stats)


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _sweep_op(solit, problem, filt, runs, seed, reference, out_dir=None) -> Op:
    harness = solit.harness
    start, stop = SPANS[problem]
    cfg = harness.ExperimentConfig(
        problem=problem,
        filter_kind=filt,
        theta=2.0,
        beta=1.0,
        gamma=1.0,
        sigma_start=start,
        sigma_stop=stop,
        sigma_count=8,
        runs=runs,
        seed=seed,
    )
    key = f"{problem}/{filt}/runs={runs}"
    path = None if out_dir is None else os.path.join(out_dir, key.replace("/", "_"))

    def run():
        # names are looked up on the module at call time so a tracer can wrap them
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        latency = time.perf_counter() - t0
        back = None
        if path is not None:
            harness.write_results(result, path)
            back = harness.read_results(path)
        return latency, (result, back)

    def check(output):
        result, back = output
        problems = invariant_problems(result)
        if path is not None:
            problems += roundtrip_problems(result, back)
        stats = {}
        ref = reference.get("sweeps", {}).get(key) if seed == REFERENCE_SEED else None
        if ref is not None:
            found, stats["mse_rel_err"] = reference_problems(result, ref)
            problems += found
        return problems, stats

    return Op(key, run, check)


def quantile_pairs(solit) -> list[tuple[str, np.ndarray]]:
    """Weights of every adjacent tikhonov pair on each problem's grid at its
    largest noise level: lam * (q_a - q_b)^2."""
    spec = solit.FilterSpec("tikhonov")
    pairs = []
    for problem, (sigma, _) in SPANS.items():
        prob = solit.get_problem(problem)
        grid = solit.build_grid(prob, spec, sigma, theta=2.0)
        lam = prob.eigenvalues
        for m1 in range(grid.m_max):
            qa = solit.filter_weight(spec, grid.alphas[m1], lam)
            qb = solit.filter_weight(spec, grid.alphas[m1 + 1], lam)
            pairs.append((f"{problem}/{m1}", lam * (qa - qb) ** 2))
    return pairs


def _quantile_op(solit, index, key, w, seed, reference) -> Op:
    genchi2 = solit.genchi2
    pair_seed = int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])

    def run():
        t0 = time.perf_counter()
        mc = genchi2.mc_tail_quantiles(w, QUANTILE_TAILS, QUANTILE_DRAWS, pair_seed)
        ltz = [genchi2.ltz_quantile_for_weights(w, p) for p in QUANTILE_TAILS]
        return time.perf_counter() - t0, (mc, ltz)

    def check(output):
        problems, worst = quantile_problems(*output, reference["ltz"][key])
        return problems, {"quantile_rel_err": worst}

    return Op(key, run, check)


def build(name: str, solit, seed: int, reference: dict, out_dir: str | None) -> list[Op]:
    """Operations of one pass of workload ``name``."""
    if name == "sweep9":
        return [
            _sweep_op(solit, p, f, SWEEP9_RUNS, seed, reference, out_dir)
            for p in SPANS
            for f in ACCEPTANCE_FILTERS
        ]
    if name == "realizations":
        return [
            _sweep_op(solit, p, "tikhonov", runs, seed, reference)
            for p, runs in REALIZATION_RUNS.items()
        ]
    if name == "tables":
        return [
            _sweep_op(solit, p, f, 1, seed, reference)
            for p in SPANS
            for f in ALL_FILTERS
            if (p, f) not in TABLES_EXCLUDED
        ]
    if name == "quantile-mc":
        return [
            _quantile_op(solit, i, key, w, seed, reference)
            for i, (key, w) in enumerate(quantile_pairs(solit))
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
