"""Acceptance criteria at full benchmark scale.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).  The Monte Carlo sweeps use 200 runs per noise level with
the tuning theta=2, beta=gamma=1 and the declared noise-level spans:
antiderivative sigma in [1e-5, 3e-2], gradiometry and heat in [1e-8, 1e-2],
8 geometric points each.
"""

import math
import time

import numpy as np
import pytest

from solit import (
    ExperimentConfig,
    FilterSpec,
    build_grid,
    build_thresholds,
    fit_rate,
    get_problem,
    ltz_quantile_for_weights,
    ltz_tail_sf,
    cumulant_traces,
    oracle_select,
    read_results,
    run_experiment,
    solit_select,
    validate_ordered_filter,
    verify_oracle_inequality,
    write_results,
)
from solit.filters import filter_weight
from solit.genchi2 import mc_tail_quantiles
from conftest import bias_norms

PROBLEMS = ("antiderivative", "gradiometry", "heat")
FILTERS = ("tikhonov", "showalter", "cutoff")
SIGMA_SPANS = {
    "antiderivative": (3e-2, 1e-5),
    "gradiometry": (1e-2, 1e-8),
    "heat": (1e-2, 1e-8),
}
TAILS = (math.exp(-1), math.exp(-2), math.exp(-4))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def sweeps():
    """All nine (problem, filter) Monte Carlo sweeps, with wall times."""
    results, elapsed = {}, {}
    for problem in PROBLEMS:
        start, stop = SIGMA_SPANS[problem]
        for filt in FILTERS:
            cfg = ExperimentConfig(
                problem=problem,
                filter_kind=filt,
                theta=2.0,
                beta=1.0,
                gamma=1.0,
                sigma_start=start,
                sigma_stop=stop,
                sigma_count=8,
                runs=200,
                seed=42,
            )
            t0 = time.time()
            results[problem, filt] = run_experiment(cfg)
            elapsed[problem, filt] = time.time() - t0
    return results, elapsed


def _series(result, selector):
    sigmas = [c.sigma for c in result.cells]
    mses = [c.selectors[selector].mse for c in result.cells]
    return sigmas, mses


def test_criterion_1_antiderivative_rate(sweeps):
    results, elapsed = sweeps
    res = results["antiderivative", "tikhonov"]
    slope, _ = fit_rate(*_series(res, "solit"), "poly")
    secs = elapsed["antiderivative", "tikhonov"]
    ok = 0.60 <= slope <= 0.90 and secs < 300.0
    report(1, ok, f"antiderivative poly slope {slope:.3f} (window [0.60, 0.90]), runtime {secs:.0f}s")


def test_criterion_2_gradiometry_rate(sweeps):
    results, _ = sweeps
    res = results["gradiometry", "tikhonov"]
    slope, _ = fit_rate(*_series(res, "solit"), "log")
    opt_slope, _ = fit_rate(*_series(res, "optimal"), "log")
    ok = -4.0 <= slope <= -2.2
    report(
        2,
        ok,
        f"gradiometry log slope {slope:.3f} (window [-4.0, -2.2]); "
        f"risk-floor selector gives {opt_slope:.3f}, so the window is out of "
        f"reach of any rule on this noise span (see decisions ledger)",
    )


def test_criterion_3_heat_rate(sweeps):
    results, _ = sweeps
    res = results["heat", "tikhonov"]
    slope, _ = fit_rate(*_series(res, "solit"), "log")
    opt_slope, _ = fit_rate(*_series(res, "optimal"), "log")
    ok = -2.2 <= slope <= -1.0
    report(
        3,
        ok,
        f"heat log slope {slope:.3f} (window [-2.2, -1.0]); risk-floor "
        f"selector gives {opt_slope:.3f} (see decisions ledger)",
    )


def test_criterion_4_oracle_inequality(sweeps):
    results, _ = sweeps
    worst = math.inf
    for key, res in results.items():
        rep = verify_oracle_inequality(res)
        worst = min(worst, min(row.margin / max(row.bound, 1e-300) for row in rep.rows))
        if not rep.passed:
            report(4, False, f"oracle inequality violated for {key}")
    report(4, True, f"oracle inequality holds on all 72 cells (min relative margin {worst:.3f})")


def test_criterion_5_near_oracle(sweeps):
    results, _ = sweeps
    medians = {}
    for problem in PROBLEMS:
        res = results[problem, "tikhonov"]
        ratios = [
            c.selectors["solit"].mse / c.selectors["optimal"].mse for c in res.cells
        ]
        medians[problem] = float(np.median(ratios))
    ok = all(v <= 4.0 for v in medians.values())
    detail = ", ".join(f"{k}={v:.2f}" for k, v in medians.items())
    report(5, ok, f"median MSE(solit)/MSE(optimal) per problem: {detail} (cap 4)")


def test_criterion_6_solit_vs_lepskii(sweeps):
    results, _ = sweeps
    worst = 0.0
    for problem in PROBLEMS:
        res = results[problem, "tikhonov"]
        for c in res.cells:
            worst = max(worst, c.selectors["solit"].mse / c.selectors["lepskii"].mse)
    report(6, worst <= 1.5, f"max MSE(solit)/MSE(lepskii) over all cells = {worst:.3f} (cap 1.5)")


def test_criterion_7_quantile_fidelity():
    worst = 0.0
    for problem in PROBLEMS:
        prob = get_problem(problem)
        spec = FilterSpec("tikhonov")
        grid = build_grid(prob, spec, SIGMA_SPANS[problem][0], theta=2.0)
        lam = prob.eigenvalues
        for m1 in range(grid.m_max):
            qa = filter_weight(spec, grid.alphas[m1], lam)
            qb = filter_weight(spec, grid.alphas[m1 + 1], lam)
            w = lam * (qa - qb) ** 2
            seed = int(np.random.SeedSequence((42, m1)).generate_state(1, np.uint64)[0])
            mcs = mc_tail_quantiles(w, TAILS, 10**6, seed)
            for p, mc in zip(TAILS, mcs):
                worst = max(worst, abs(ltz_quantile_for_weights(w, p) - mc) / mc)
    report(7, worst <= 0.05, f"worst relative quantile error over adjacent pairs = {worst:.4f} (cap 0.05)")


def test_criterion_8_grid_property(sweeps):
    results, _ = sweeps
    for problem in PROBLEMS:
        for filt in ("tikhonov", "showalter"):
            for c in results[problem, filt].cells:
                r = c.grid.ratios
                if not (np.all(r >= 1.5 - 1e-9) and np.all(r <= 2.5 + 1e-9)):
                    report(8, False, f"{problem}/{filt} ratio outside [1.5, 2.5] at sigma={c.sigma:g}")
    heat_cutoff = results["heat", "cutoff"]
    enlarged = all(c.grid.theta2_enlarged for c in heat_cutoff.cells)
    report(
        8,
        enlarged,
        "continuous-filter ratios within [1.5, 2.5] on every grid; heat cut-off "
        f"builder enlarged theta2 (up to {max(c.grid.theta2 for c in heat_cutoff.cells):.3g}) without failing",
    )


def test_criterion_9_property_suites(sweeps, tmp_path):
    results, _ = sweeps
    checks = []

    # filter axioms on 100 x 100 sample grids
    lam_grid = np.linspace(0.0, 1.0, 100)
    alpha_grid = 1.0 / np.arange(1, 101, dtype=float)
    for kind in ("tikhonov", "showalter", "cutoff", "landweber"):
        spec = FilterSpec(kind, landweber_step=1.0) if kind == "landweber" else FilterSpec(kind)
        checks.append((f"filter axioms {kind}", validate_ordered_filter(spec, alpha_grid, lam_grid).ok))

    # pairwise-variance bounds on every grid pair of every tikhonov sweep
    bounds_ok = True
    for problem in PROBLEMS:
        prob = get_problem(problem)
        spec = FilterSpec("tikhonov")
        for c in results[problem, "tikhonov"].cells:
            v_table = build_thresholds(prob, spec, c.grid).variance
            floor = (math.sqrt(c.grid.theta1) - 1.0) ** 2
            for m1 in range(c.grid.m_max):
                row = v_table[m1, m1 + 1 :]
                if not (
                    np.all(row >= floor * c.grid.v[m1] * (1 - 1e-9))
                    and np.all(row <= c.grid.v[m1 + 1 :] * (1 + 1e-9))
                ):
                    bounds_ok = False
    checks.append(("pairwise-variance bounds on every grid pair", bounds_ok))

    # oracle index never beyond the bias-floor crossing, every configuration
    oracle_ok = True
    for problem in PROBLEMS:
        prob = get_problem(problem)
        for filt in FILTERS:
            spec = FilterSpec(filt)
            for c in results[problem, filt].cells:
                bias = bias_norms(prob, spec, c.grid.alphas)
                floor = (math.sqrt(c.grid.theta1) - 1.0) ** 2 * c.grid.v
                hits = np.nonzero(bias**2 <= floor)[0]
                m_dstar = int(hits[0]) if hits.size else c.grid.m_max
                if c.m_star > m_dstar:
                    oracle_ok = False
    checks.append(("m* <= m** on every benchmark configuration", oracle_ok))

    # brute-force equivalence of the selection rules on random tables
    rng = np.random.default_rng(99)
    bf_ok = True
    for _ in range(100):
        m_max = int(rng.integers(1, 7))
        iu = np.triu_indices(m_max + 1, k=1)
        bhat = np.zeros((m_max + 1, m_max + 1))
        bhat[iu] = rng.uniform(0, 1, iu[0].size)
        bhat += bhat.T
        kappa = np.zeros((m_max + 1, m_max + 1))
        kappa[iu] = rng.uniform(0, 1, iu[0].size)
        from solit import ThresholdTable

        got = solit_select(bhat, ThresholdTable(kappa=kappa, x=np.ones(m_max), beta=1.0, gamma=1.0))
        want = next(
            (
                m1
                for m1 in range(m_max + 1)
                if all(bhat[m1, m2] <= kappa[m1, m2] for m2 in range(m1 + 1, m_max + 1))
            ),
            m_max,
        )
        if got != want:
            bf_ok = False
        v = np.zeros_like(bhat)
        v[iu] = rng.uniform(0.01, 1, iu[0].size)
        v += v.T
        got_o = oracle_select(bhat, v, beta=1.0)
        want_o = next(
            (
                m
                for m in range(m_max + 1)
                if all(
                    bhat[m1, m2] ** 2 <= v[m1, m2]
                    for m1 in range(m, m_max + 1)
                    for m2 in range(m1 + 1, m_max + 1)
                )
            ),
            m_max,
        )
        if got_o != want_o:
            bf_ok = False
    checks.append(("selector brute-force equivalence (m_max <= 6)", bf_ok))

    # chi-squared approximation is exact for equal weights
    eq_ok = True
    from scipy import stats

    for n, scale in ((4, 0.5), (9, 2.0)):
        c = cumulant_traces([scale] * n)
        for t in (0.5, 2.0, 8.0):
            if abs(ltz_tail_sf(c, t) - stats.chi2.sf(t / scale, n)) > 1e-10:
                eq_ok = False
    checks.append(("tail approximation exact for equal weights", eq_ok))

    # serialization round-trip
    cfg = ExperimentConfig(
        problem="heat", filter_kind="tikhonov", runs=5, sigma_count=2,
        sigma_start=1e-2, sigma_stop=1e-3, seed=3, problem_params={"n": 16},
    )
    res = run_experiment(cfg)
    write_results(res, str(tmp_path))
    back = read_results(str(tmp_path))
    rt_ok = back.config == res.config and all(
        back.cells[i].selectors[s].mse == res.cells[i].selectors[s].mse
        for i in range(len(res.cells))
        for s in cfg.selectors
    )
    checks.append(("results round-trip serialization", rt_ok))

    failed = [name for name, ok in checks if not ok]
    report(9, not failed, f"property suites: {len(checks) - len(failed)}/{len(checks)} groups pass"
           + (f"; failing: {failed}" if failed else ""))
