"""Output checks for the benchmark.

Every seed is checked against invariants of a sweep: histogram totals equal
the number of realizations, the per-run ``optimal`` rule has the smallest MSE
in every cell, and a write/read round-trip reproduces the result exactly.
For the reference seed, sweeps are also compared with the stored reference:
selected-index histograms exactly (by digest) and MSEs within ``MSE_RTOL``.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

MSE_RTOL = 1e-9
QUANTILE_CAP = 0.05
LTZ_RTOL = 1e-9


def histogram_digest(result) -> str:
    """sha256 over every cell's selected-index histograms, in selector order."""
    rows = [
        [name, [int(c) for c in cell.selectors[name].histogram]]
        for cell in result.cells
        for name in result.config.selectors
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def mse_table(result) -> list[list[float]]:
    """MSE per cell (rows) and selector (columns, in config order)."""
    return [
        [cell.selectors[name].mse for name in result.config.selectors]
        for cell in result.cells
    ]


def sweep_reference(result) -> dict:
    return {"hist_sha256": histogram_digest(result), "mse": mse_table(result)}


def invariant_problems(result) -> list[str]:
    runs = result.config.runs
    problems = []
    for cell in result.cells:
        for name, summary in cell.selectors.items():
            total = int(np.sum(summary.histogram))
            if total != runs:
                problems.append(f"sigma={cell.sigma:g} {name}: histogram total {total} != {runs} runs")
        if "optimal" in cell.selectors:
            floor = cell.selectors["optimal"].mse
            for name, summary in cell.selectors.items():
                if summary.mse < floor:
                    problems.append(f"sigma={cell.sigma:g}: MSE({name}) {summary.mse!r} < MSE(optimal) {floor!r}")
    return problems


def roundtrip_problems(result, back) -> list[str]:
    """Exact comparison of a result with what ``read_results`` gave back."""
    if back.config != result.config:
        return ["config changed in the round-trip"]
    if len(back.cells) != len(result.cells):
        return [f"{len(back.cells)} cells read back, {len(result.cells)} written"]
    problems = []
    for a, b in zip(result.cells, back.cells):
        scalars = ("sigma", "m_star", "r_mstar", "c1", "c2", "poa")
        if any(getattr(a, k) != getattr(b, k) for k in scalars):
            problems.append(f"sigma={a.sigma:g}: cell scalars differ after the round-trip")
        if not (np.array_equal(a.grid.alphas, b.grid.alphas) and np.array_equal(a.grid.v, b.grid.v)):
            problems.append(f"sigma={a.sigma:g}: grid differs after the round-trip")
        for name, s in a.selectors.items():
            t = b.selectors.get(name)
            if t is None or s.mse != t.mse or s.stderr != t.stderr or not np.array_equal(s.histogram, t.histogram):
                problems.append(f"sigma={a.sigma:g} {name}: summary differs after the round-trip")
    return problems


def reference_problems(result, ref: dict) -> tuple[list[str], float]:
    """Compare with a stored reference; returns (problems, worst relative MSE error)."""
    problems = []
    if histogram_digest(result) != ref["hist_sha256"]:
        problems.append("selected-index histograms differ from the reference")
    got = np.asarray(mse_table(result), dtype=float)
    want = np.asarray(ref["mse"], dtype=float)
    if got.shape != want.shape:
        return problems + [f"MSE table shape {got.shape} != reference {want.shape}"], float("inf")
    rel = np.abs(got - want) / np.abs(want)
    worst = float(np.max(rel))
    if not worst <= MSE_RTOL:
        problems.append(f"MSE differs from the reference by {worst:.3g} relative (tolerance {MSE_RTOL:g})")
    return problems, worst


def quantile_problems(mc, ltz, ltz_ref) -> tuple[list[str], float]:
    """Monte Carlo against LTZ quantiles of one pair, and LTZ against the
    reference (LTZ is deterministic, so this holds for every seed)."""
    mc = np.asarray(mc, dtype=float)
    ltz = np.asarray(ltz, dtype=float)
    worst = float(np.max(np.abs(ltz - mc) / mc))
    problems = []
    if not worst <= QUANTILE_CAP:
        problems.append(f"|LTZ - MC| / MC = {worst:.4f} exceeds the cap {QUANTILE_CAP}")
    drift = float(np.max(np.abs(ltz - np.asarray(ltz_ref)) / np.abs(np.asarray(ltz_ref))))
    if not drift <= LTZ_RTOL:
        problems.append(f"LTZ quantiles differ from the reference by {drift:.3g} relative")
    return problems, worst
