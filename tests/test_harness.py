import copy
import csv
import dataclasses
import itertools
import json
import math
import os
import platform
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import solit
from solit import (
    CandidateGrid,
    ExperimentConfig,
    FilterSpec,
    InvalidParameterError,
    ThresholdTable,
    build_grid,
    build_thresholds,
    fit_rate,
    get_problem,
    read_results,
    run_experiment,
    simulate_data,
    verify_oracle_inequality,
    write_results,
)
from solit import candidates, genchi2, harness, selectors
from solit.harness import (
    _pairwise_distance_table,
    _run_keys,
)
from solit.selectors import (
    lepskii_limits,
    lepskii_select,
    noise_level_select,
    optimal_select,
    oracle_constants,
    oracle_select,
    price_of_adaptation,
    solit_select,
    stream_select,
)
from solit.cli import main as cli_main
from solit.filters import filter_weight
from solit.genchi2 import mc_sample_quadratic_form, mc_tail_quantiles
from solit.sequence_model import estimator_weights
from conftest import bias_norms, force_cpus, record_started_threads

SMALL = dict(problem="antiderivative", filter_kind="tikhonov", runs=8, sigma_count=3,
             sigma_start=1e-2, sigma_stop=1e-3, seed=11, problem_params={"n": 64})


class TestFitRate:
    def test_poly_exact(self):
        s = np.geomspace(1e-1, 1e-4, 6)
        assert fit_rate(s, s**0.75, "poly")[0] == pytest.approx(0.75, abs=1e-12)

    def test_log_exact(self):
        s = np.geomspace(1e-2, 1e-8, 6)
        mse = (-np.log(s)) ** -3.0
        assert fit_rate(s, mse, "log")[0] == pytest.approx(-3.0, abs=1e-12)

    def test_intercept(self):
        s = np.geomspace(1e-1, 1e-5, 5)
        slope, intercept = fit_rate(s, 7.0 * s**1.5, "poly")
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_rate([0.1, 0.01], [1.0, 2.0], "poly")
        with pytest.raises(InvalidParameterError):
            fit_rate([0.1, 0.01, -1.0], [1.0, 2.0, 3.0], "poly")
        with pytest.raises(InvalidParameterError):
            fit_rate([0.1, 0.01, 0.001], [1.0, 2.0, 3.0], "cubic")
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                fit_rate([0.1, 0.01, bad], [1.0, 2.0, 3.0], "poly")
            with pytest.raises(InvalidParameterError):
                fit_rate([0.1, 0.01, 0.001], [1.0, bad, 3.0], "log")


class TestOutOfRangeTuningRejected:
    """Each bad value of an option gets one message (``errors.typed_option``)
    from ExperimentConfig and from every function that takes the option."""

    @pytest.mark.parametrize(
        "name, value",
        [("theta", math.nan), ("theta", math.inf), ("theta", 1.0), ("theta", True), ("beta", math.nan),
         ("beta", math.inf), ("beta", -1.0), ("beta", True), ("gamma", math.nan), ("gamma", math.inf),
         ("gamma", 0.0), ("kappa_tune", math.nan), ("kappa_tune", math.inf), ("kappa_tune", 0.5),
         ("kappa_tune", True), ("sigma_start", math.inf), ("sigma_stop", math.nan), ("sigma_stop", 0.0),
         ("sigma", 0.0), ("sigma", math.nan), ("sigma", True), ("seed", -1), ("seed", 2.5), ("seed", True),
         ("runs", 0), ("sigma_count", 0), ("samples", 0), ("samples", None), ("mc_samples", 999),
         ("mc_samples", None), ("landweber_step", 0.0), ("landweber_step", True)],
    )
    def test_config_and_every_function_that_takes_the_value(self, name, value, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, 1e-3)
        w = np.array([1.0, 0.5])
        uses = {
            "theta": [lambda: build_grid(small_heat, spec, 1e-3, theta=value)],
            "beta": [lambda: build_thresholds(small_heat, spec, grid, beta=value),
                     lambda: oracle_constants(grid, 1, 1e-6, value, 1.0)],
            "gamma": [lambda: build_thresholds(small_heat, spec, grid, gamma=value),
                      lambda: oracle_constants(grid, 1, 1e-6, 1.0, value)],
            "kappa_tune": [lambda: lepskii_limits(grid, value),
                           lambda: lepskii_select(np.zeros((grid.m_max + 1,) * 2), grid, kappa_tune=value)],
            "sigma": [lambda: simulate_data(small_heat, value, 3), lambda: build_grid(small_heat, spec, value)],
            "seed": [lambda: simulate_data(small_heat, 1e-3, value), lambda: mc_sample_quadratic_form(w, 10, value),
                     lambda: mc_tail_quantiles(w, [0.5], 1000, value)],
            "samples": [lambda: mc_sample_quadratic_form(w, value, 7)],
            "mc_samples": [lambda: mc_tail_quantiles(w, [0.5], value, 7)],
            "landweber_step": [lambda: FilterSpec("landweber", landweber_step=value)],
        }.get(name, [])
        if name in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            uses.append(lambda: ExperimentConfig(problem="heat", filter_kind="tikhonov", **{name: value}))
        assert grid.m_max >= 1 and uses
        messages = set()
        for use in uses:
            with pytest.raises(InvalidParameterError) as caught:
                use()
            messages.add(str(caught.value))
        assert len(messages) == 1, messages
        assert re.fullmatch(rf"option '{name}' must be (of type \w+|>=? \d+), not {re.escape(repr(value))}",
                            messages.pop())

    @pytest.mark.parametrize(
        "commands",
        [[["quantile-check", "--sigma", "1e-2", "--seed", "-3"], ["reconstruct", "--sigma", "1e-2", "--seed", "-3"],
          ["simulate", "--seed", "-3"]],
         [["reconstruct", "--sigma", "1e-2", "--beta", "nan"], ["simulate", "--beta", "nan"]],
         [["candidates", "--sigma", "0"], ["quantile-check", "--sigma", "0"], ["reconstruct", "--sigma", "0"]]],
        ids=["seed", "beta", "sigma"],
    )
    def test_every_subcommand_gives_one_message(self, commands, tmp_path, capsys):
        messages = set()
        for argv in commands:
            out = ["--out", str(tmp_path)] if argv[0] == "simulate" else []
            assert cli_main(argv + ["--problem", "heat", "--n", "24"] + out) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            messages.add(err.split(": error: ", 1)[1])
        assert len(messages) == 1, messages


class TestOptionTypes:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_every_field_is_type_checked(self, name):
        # a field without a type the gate checks would let any value through
        kwargs = {"problem": "heat", "filter_kind": "tikhonov", name: object()}
        with pytest.raises(InvalidParameterError, match=f"^option '{name}' must be of type "):
            ExperimentConfig(**kwargs)

    def test_accepted_conversions(self):
        cfg = ExperimentConfig(problem="heat", filter_kind="tikhonov", selectors=["solit"], theta=3,
                               sigma_count=4.0, runs=np.int64(5), seed=2**70 + 3, beta=np.float32(0.5),
                               landweber_step=1, noise_free=True)
        assert cfg.selectors == ("solit",)
        assert cfg.theta == 3.0 and type(cfg.theta) is float
        assert cfg.sigma_count == 4 and type(cfg.sigma_count) is int
        assert cfg.runs == 5 and type(cfg.runs) is int
        assert cfg.seed == 2**70 + 3
        assert cfg.beta == 0.5 and type(cfg.beta) is float
        assert cfg.landweber_step == 1.0 and type(cfg.landweber_step) is float
        assert cfg.noise_free is True

    def test_large_seed_round_trips_exactly(self, tmp_path):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 2, "sigma_count": 1, "seed": 2**70 + 3}))
        write_results(res, str(tmp_path))
        assert read_results(str(tmp_path)).config.seed == 2**70 + 3

    def test_record_needs_every_field(self, tmp_path):
        write_results(run_experiment(ExperimentConfig(**{**SMALL, "runs": 2})), str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta["config"]["runs"], meta["config"]["seed"]
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidParameterError, match=r"config lacks the fields \['runs', 'seed'\]$"):
            read_results(str(tmp_path))


class TestRunExperiment:
    def test_determinism(self):
        a = run_experiment(ExperimentConfig(**SMALL))
        b = run_experiment(ExperimentConfig(**SMALL))
        for ca, cb in zip(a.cells, b.cells):
            for name in a.config.selectors:
                assert ca.selectors[name].mse == cb.selectors[name].mse
                np.testing.assert_array_equal(ca.selectors[name].histogram, cb.selectors[name].histogram)
            assert ca.r_mstar == cb.r_mstar

    def test_huge_noise_selects_coarsest(self):
        # noise dominating the signal: the whole grid is within noise of the
        # coarsest candidate, so the rule stays at index 0
        cfg = ExperimentConfig(problem="antiderivative", filter_kind="tikhonov", runs=1,
                               sigma_count=1, sigma_start=0.3, sigma_stop=0.1, seed=1,
                               problem_params={"n": 64})
        res = run_experiment(cfg)
        cell = res.cells[0]
        assert cell.grid.m_max >= 2
        assert cell.selectors["solit"].histogram[0] == 1
        assert np.all(cell.selectors["solit"].histogram[1:] == 0)

    def test_single_candidate_grid_degenerate(self):
        # sigma so large that v_0 >= 1 already: one candidate, every rule at 0
        cfg = ExperimentConfig(problem="antiderivative", filter_kind="tikhonov", runs=1,
                               sigma_count=1, sigma_start=10.0, sigma_stop=1.0, seed=1,
                               problem_params={"n": 64})
        res = run_experiment(cfg)
        cell = res.cells[0]
        assert cell.grid.m_max == 0
        for name in cfg.selectors:
            assert cell.selectors[name].histogram[0] == 1

    def test_noise_free_errors_hit_bias_floor(self):
        cfg = ExperimentConfig(**{**SMALL, "runs": 2, "noise_free": True})
        res = run_experiment(cfg)
        from solit import get_problem
        problem = get_problem("antiderivative", n=64)
        spec = FilterSpec("tikhonov")
        for cell in res.cells:
            bias_sq = bias_norms(problem, spec, cell.grid.alphas) ** 2
            assert cell.selectors["optimal"].mse == pytest.approx(np.min(bias_sq), rel=1e-10)
            for name in cfg.selectors:
                idx = int(np.argmax(cell.selectors[name].histogram))
                assert cell.selectors[name].mse == pytest.approx(bias_sq[idx], rel=1e-10)

    @pytest.mark.parametrize("noise_free", [False, True])
    def test_a_selector_subset_scores_like_the_full_sweep(self, noise_free, tmp_path):
        # a reordered subset without solit: each selector's summary is the
        # five-selector sweep's, bit for bit, and the rows keep the config's order
        subset = ("noise-level", "lepskii", "optimal")
        full = run_experiment(ExperimentConfig(**SMALL, noise_free=noise_free))
        part = run_experiment(ExperimentConfig(**SMALL, noise_free=noise_free, selectors=subset))
        for cf, cp in zip(full.cells, part.cells):
            assert list(cp.selectors) == list(subset)
            assert (cp.m_star, cp.r_mstar, cp.c1, cp.c2) == (cf.m_star, cf.r_mstar, cf.c1, cf.c2)
            for name in subset:
                a, b = cf.selectors[name], cp.selectors[name]
                assert (b.mse, b.stderr) == (a.mse, a.stderr), name
                assert b.histogram.tobytes() == a.histogram.tobytes(), name
        write_results(part, str(tmp_path))
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = [(float(row["sigma"]), row["selector"]) for row in csv.DictReader(fh)]
        assert rows == [(cell.sigma, name) for cell in part.cells for name in subset]
        with open(tmp_path / "selections.csv", newline="") as fh:
            blocks = [key for key, _ in itertools.groupby((float(row["sigma"]), row["selector"])
                                                          for row in csv.DictReader(fh))]
        assert blocks == rows

    def test_optimal_dominates_every_selector(self):
        # optimal is the per-run argmin, so its MSE is a pathwise lower bound
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 30}))
        for cell in res.cells:
            best = cell.selectors["optimal"].mse
            for name in res.config.selectors:
                assert best <= cell.selectors[name].mse * (1 + 1e-12)

    def test_oracle_row_is_risk_at_m_star(self):
        res = run_experiment(ExperimentConfig(**SMALL))
        for cell in res.cells:
            assert cell.selectors["oracle"].mse == cell.r_mstar
            assert cell.selectors["oracle"].histogram[cell.m_star] == res.config.runs

    @pytest.mark.parametrize("kind", ["tikhonov", "showalter", "cutoff", "landweber"])
    def test_c2_takes_the_weak_variance_at_m_star(self, kind):
        # u* = sigma^2 max_k lam_k q_{alpha_m*}(lam_k)^2 from the filter itself;
        # the sweep reads it from the table's W^2
        res = run_experiment(ExperimentConfig(**{**SMALL, "filter_kind": kind}))
        problem = get_problem("antiderivative", n=64)
        spec = FilterSpec.for_spectrum(kind, problem.eigenvalues)
        lam = problem.eigenvalues
        for cell in res.cells:
            q = filter_weight(spec, cell.grid.alphas[cell.m_star], lam)
            u = cell.sigma**2 * float(np.max(lam * q * q))
            _, c2 = oracle_constants(cell.grid, cell.m_star, u, res.config.beta, res.config.gamma)
            assert cell.c2 == pytest.approx(c2, rel=1e-15, abs=0), cell.sigma

    def test_m_star_from_deterministic_tables(self):
        res = run_experiment(ExperimentConfig(**SMALL))
        from solit import get_problem
        problem = get_problem("antiderivative", n=64)
        spec = FilterSpec("tikhonov")
        for cell in res.cells:
            tt = build_thresholds(problem, spec, cell.grid)
            assert cell.m_star == oracle_select(tt.bias, tt.variance, beta=1.0)

    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff"])
    def test_one_ladder_walk_and_one_pair_pass_per_sweep(self, kind, monkeypatch):
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in [
            (harness, "build_grid"),
            (harness, "build_thresholds"),
            (candidates, "line_search_variance"),
            (genchi2, "ltz_quantile_for_weights"),
            (harness, "_pairwise_distance_table"),
        ]:
            count(module, name)
        # the weight table, wherever a module of the sweep holds the name
        for module in (candidates, harness, selectors):
            if hasattr(module, "estimator_weights"):
                count(module, "estimator_weights")
        res = run_experiment(ExperimentConfig(**{**SMALL, "filter_kind": kind, "sigma_count": 5}))
        deepest = res.cells[-1].grid
        assert calls["build_grid"] == 1
        assert calls["build_thresholds"] == 1
        assert calls["estimator_weights"] == 1
        # one line search per candidate of the deepest grid, one quantile per row
        assert calls["line_search_variance"] == deepest.m_max + 1
        assert calls["ltz_quantile_for_weights"] == deepest.m_max
        assert "_pairwise_distance_table" not in calls

    def test_selector_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(**{**SMALL, "selectors": ("solit", "akaike")})

    def test_sigma_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(**{**SMALL, "sigma_start": 1e-3, "sigma_stop": 1e-2})


def full_tensor_distance_table(w_rows, y):
    """Distance table ||(W[m1] - W[m2]) * y|| through the full (k, k, n)
    difference tensor.  The weight rows are subtracted before they meet the
    data, as ``stream_select`` does, so rows that nearly agree do not cancel
    in W[m1] * y - W[m2] * y."""
    diff = (w_rows[:, None, :] - w_rows[None, :, :]) * y
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def run_seed(master, sigma_index, run_index):
    """The seed of run ``run_index`` at noise level ``sigma_index``."""
    ss = np.random.SeedSequence((master, sigma_index, run_index))
    return int(ss.generate_state(1, np.uint64)[0])


def per_run_reference(config):
    """The Monte Carlo loop one realization at a time: the full distance tensor
    and one call of each selector per run.  Returns, per noise level, the
    selectors' MSEs, standard errors, histograms and R_{m*}."""
    problem = get_problem(config.problem, **config.problem_params)
    spec = FilterSpec.for_spectrum(config.filter_kind, problem.eigenvalues)
    cells = []
    for si, sigma in enumerate(config.sigma_grid()):
        sigma = float(sigma)
        grid = build_grid(problem, spec, sigma, config.theta)
        thresholds = build_thresholds(problem, spec, grid, config.beta, config.gamma)
        lam = problem.eigenvalues
        w_rows = np.vstack([filter_weight(spec, a, lam) * np.sqrt(lam) for a in grid.alphas])
        m_star = oracle_select(thresholds.bias, thresholds.variance, config.beta)
        fixed = {"oracle": m_star, "noise-level": noise_level_select(grid)}
        errors = {name: [] for name in config.selectors}
        hists = {name: np.zeros(grid.m_max + 1, dtype=int) for name in config.selectors}
        r_runs = []
        for r in range(config.runs):
            if config.noise_free:
                y = problem.data_truth
            else:
                eps = np.random.Generator(np.random.Philox(run_seed(config.seed, si, r))).standard_normal(problem.n)
                y = problem.data_truth + sigma * eps
            f_rows = w_rows * y
            bhat = full_tensor_distance_table(w_rows, y)
            diff = f_rows - problem.truth
            err_sq = np.einsum("ij,ij->i", diff, diff)
            for name in config.selectors:
                if name == "solit":
                    idx = solit_select(bhat, thresholds.kappa)
                elif name == "lepskii":
                    idx = lepskii_select(bhat, grid, config.kappa_tune)
                elif name == "optimal":
                    idx = optimal_select(err_sq)
                else:
                    idx = fixed[name]
                errors[name].append(err_sq[idx])
                hists[name][idx] += 1
            r_runs.append(err_sq[m_star])
        mses = {name: math.fsum(vals) / config.runs for name, vals in errors.items()}
        stderrs = {
            name: float(np.std(vals, ddof=1) / math.sqrt(config.runs))
            for name, vals in errors.items()
        }
        cells.append((mses, stderrs, hists, math.fsum(r_runs) / config.runs))
    return cells


class TestPairwiseDistanceTable:
    def test_random_rows_match_full_tensor(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 17):
            for n in (1, 7, 300):
                rows = rng.standard_normal((k, n)) * rng.uniform(1e-6, 1e3, (k, 1))
                assert np.array_equal(
                    _pairwise_distance_table(rows), full_tensor_distance_table(rows, 1.0)
                )

    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_grid_weight_rows_match_full_tensor(self, name, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec("tikhonov")
        grid = build_grid(problem, spec, sigma=1e-4, theta=2.0)
        w_rows = estimator_weights(problem, spec, grid.alphas)
        for rows in (w_rows, w_rows * problem.data_truth):
            assert np.array_equal(
                _pairwise_distance_table(rows), full_tensor_distance_table(rows, 1.0)
            )

    def test_single_row(self):
        table = _pairwise_distance_table(np.ones((1, 4)))
        assert np.array_equal(table, np.zeros((1, 1)))


class TestBlockedRuns:
    @pytest.mark.parametrize(
        "seed,noise_free",
        [(5, False), (6, False), (7, False), (2**40 + 5, False), (2**64 + 1, False), (5, True)],
    )
    @pytest.mark.parametrize("problem,n", [("heat", 24), ("gradiometry", 40)])
    def test_matches_per_run_loop(self, problem, n, seed, noise_free, monkeypatch):
        cfg = ExperimentConfig(problem=problem, filter_kind="tikhonov", runs=23, sigma_count=3,
                               sigma_start=1e-2, sigma_stop=1e-6, seed=seed,
                               problem_params={"n": n}, noise_free=noise_free)
        reference = per_run_reference(cfg)
        # the default budget holds all runs in one block; a small one splits
        # them into several, the last one short
        for block_elements in (harness._BLOCK_ELEMENTS, 5 * n):
            monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", block_elements)
            res = run_experiment(cfg)
            for cell, (mses, stderrs, hists, r_mstar) in zip(res.cells, reference):
                assert cell.r_mstar == pytest.approx(r_mstar, rel=1e-12)
                for name in cfg.selectors:
                    got = cell.selectors[name]
                    np.testing.assert_array_equal(got.histogram, hists[name])
                    assert got.mse == pytest.approx(mses[name], rel=1e-12)
                    assert got.stderr == pytest.approx(stderrs[name], rel=1e-12, abs=1e-12 * mses[name])

    @pytest.mark.parametrize("seed", [3, 2**32 + 7, 2**64 + 1])
    def test_realizations_are_per_run_simulate_data_draws(self, seed, monkeypatch):
        cfg = ExperimentConfig(problem="heat", filter_kind="tikhonov", runs=9, sigma_count=2,
                               sigma_start=1e-2, sigma_stop=1e-4, seed=seed, problem_params={"n": 24})
        problem = get_problem("heat", n=24)
        seen = []

        errors = ThresholdTable.errors

        def spy(table, eps):
            seen.append((table.sigma, eps.copy()))
            return errors(table, eps)

        monkeypatch.setattr(ThresholdTable, "errors", spy)
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 200)
        run_experiment(cfg)
        by_sigma = {}
        for sigma, eps in seen:
            by_sigma.setdefault(sigma, []).append(eps)
        assert len(by_sigma) == 2
        for si, sigma in enumerate(cfg.sigma_grid().tolist()):
            ys = problem.data_truth + sigma * np.vstack(by_sigma[sigma])
            assert len(ys) == cfg.runs
            for r, y in enumerate(ys):
                np.testing.assert_array_equal(y, simulate_data(problem, sigma, run_seed(seed, si, r)))

    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_block_errors_match_elementwise_formula(self, name, kind, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec(kind)
        for sigma in (1e-2, 1e-4, 1e-6):
            grid = build_grid(problem, spec, sigma=sigma, theta=2.0)
            w_rows = estimator_weights(problem, spec, grid.alphas)
            eps = np.random.default_rng(17).standard_normal((30, problem.n))
            got = build_thresholds(problem, spec, grid).errors(eps)
            diff = w_rows * (problem.data_truth + sigma * eps)[:, None, :] - problem.truth
            want = np.einsum("bij,bij->bi", diff, diff)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(optimal_select(got), optimal_select(want))

    @pytest.mark.parametrize(("sigma_count", "cpus"), [(1, 1), (8, 2)])
    def test_peak_memory_does_not_grow_with_runs(self, sigma_count, cpus, monkeypatch):
        # the problem is built outside the measurement, so the peak is the cells' own
        problem = get_problem("antiderivative", n=2000)
        monkeypatch.setattr(harness, "get_problem", lambda *args, **kwargs: problem)
        force_cpus(monkeypatch, cpus)
        peaks = {}
        for runs in (40, 400):
            cfg = ExperimentConfig(problem="antiderivative", filter_kind="tikhonov", runs=runs,
                                   sigma_count=sigma_count, sigma_start=1e-3, sigma_stop=1e-4, seed=1)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] <= 1.25 * peaks[40], peaks


class RowCounter(np.ndarray):
    """Squared data that record the width of every matrix product formed
    against them: ``stream_select``'s screen against np.diff(W)**2 (width
    k - 1) comes first, then one product per full distance row m1 (width
    k - 1 - m1)."""

    widths = []

    def __matmul__(self, other):
        RowCounter.widths.append(other.shape[1])
        return np.asarray(self) @ other


def formed_rows(k):
    """The full rows m1 formed since ``RowCounter.widths`` was cleared, after
    checking that the screen came first."""
    if not RowCounter.widths:
        return []
    screen, *rows = RowCounter.widths
    assert screen == k - 1
    return [k - 1 - width for width in rows]


def stream_and_tables(w_rows, ys, limits):
    """The streaming picks of a block of data ``ys``, the full rows it
    formed, and the block's full (runs, k, k) distance tables."""
    RowCounter.widths = []
    picks = stream_select((ys**2).view(RowCounter), w_rows, limits)
    tables = np.stack([full_tensor_distance_table(w_rows, y) for y in ys])
    return picks, formed_rows(w_rows.shape[0]), tables


def row_tables(w_rows, y_sq):
    """The (runs, k, k) distance tables of a block with the bits of
    ``stream_select``'s full rows: row m1 is one product of the whole block's
    squared data with (W[m1+1:] - W[m1])**2, as the walk forms it."""
    k = w_rows.shape[0]
    tables = np.zeros((y_sq.shape[0], k, k))
    for m1 in range(k - 1):
        tables[:, m1, m1 + 1 :] = np.sqrt(y_sq @ ((w_rows[m1 + 1 :] - w_rows[m1]) ** 2).T)
    return tables


class TestStreamSelect:
    """The streaming pass gives the picks of the rules on the full tables."""

    @pytest.mark.parametrize(
        "k,n,runs,near_equal",
        [(1, 5, 3, False), (2, 7, 4, False), (6, 30, 17, False), (12, 50, 40, False), (12, 50, 40, True)],
        ids=["1-5-3", "2-7-4", "6-30-17", "12-50-40", "12-50-40-near-equal"],
    )
    def test_random_blocks(self, k, n, runs, near_equal):
        rng = np.random.default_rng(k * 100 + n)
        w_rows = rng.uniform(0, 1, (k, n))
        if near_equal:
            # every row within 1e-3 of row 0, where W[m1] * y - W[m2] * y would cancel
            w_rows = w_rows[0] + 1e-3 * (w_rows - w_rows[0])
        ys = rng.standard_normal((runs, n))
        probe = np.stack([full_tensor_distance_table(w_rows, y) for y in ys])
        # limits at the distances' median put picks all over the grid
        kappa = np.full((k, k), np.nan)
        iu = np.triu_indices(k, 1)
        kappa[iu] = np.median(probe[:, iu[0], iu[1]], axis=0) * rng.uniform(0.8, 1.6, iu[0].size)
        # the grid of v = geomspace(1, 4^k) at sigma = 0.5, built at sigma = 0.05
        grid = CandidateGrid(alphas=np.geomspace(1.0, 1e-3, k), v=np.geomspace(1.0, 4.0**k, k) * (0.05 / 0.5) ** 2,
                             theta1=1.5, theta2=5.0, sigma=0.05)
        lepskii = lepskii_limits(grid)
        picks, _, tables = stream_and_tables(w_rows, ys, {"solit": kappa, "lepskii": lepskii})
        np.testing.assert_array_equal(picks["solit"], solit_select(tables, kappa))
        np.testing.assert_array_equal(picks["lepskii"], lepskii_select(tables, grid))
        if k > 2:
            assert len(set(picks["solit"].tolist())) > 1

    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff"])
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_real_grid_blocks(self, name, kind, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec(kind)
        for sigma in (1e-2, 1e-4, 1e-6):
            grid = build_grid(problem, spec, sigma=sigma, theta=2.0)
            thresholds = build_thresholds(problem, spec, grid)
            w_rows = estimator_weights(problem, spec, grid.alphas)
            ys = np.stack([simulate_data(problem, sigma, seed) for seed in range(12)])
            limits = {"solit": thresholds.kappa, "lepskii": lepskii_limits(grid, 1.5)}
            picks, _, tables = stream_and_tables(w_rows, ys, limits)
            np.testing.assert_array_equal(picks["solit"], solit_select(tables, thresholds.kappa))
            np.testing.assert_array_equal(picks["lepskii"], lepskii_select(tables, grid, 1.5))

    def test_every_run_accepting_at_row_0_stops_after_one_row(self):
        rng = np.random.default_rng(1)
        w_rows = rng.uniform(0, 1, (8, 20))
        ys = rng.standard_normal((6, 20))
        kappa = np.full((8, 8), np.inf)
        picks, rows, tables = stream_and_tables(w_rows, ys, {"solit": kappa, "lepskii": np.full(8, np.inf)})
        assert rows == [0]
        np.testing.assert_array_equal(picks["solit"], np.zeros(6))
        np.testing.assert_array_equal(picks["lepskii"], np.zeros(6))
        np.testing.assert_array_equal(solit_select(tables, kappa), np.zeros(6))

    def test_zero_limits_give_m_max(self):
        rng = np.random.default_rng(2)
        w_rows = rng.uniform(0, 1, (7, 20))
        ys = rng.standard_normal((5, 20))
        kappa = np.zeros((7, 7))
        picks, rows, tables = stream_and_tables(w_rows, ys, {"solit": kappa, "lepskii": np.zeros(7)})
        assert rows == []  # every adjacent distance is over its zero limit
        np.testing.assert_array_equal(picks["solit"], np.full(5, 6))
        np.testing.assert_array_equal(picks["lepskii"], np.full(5, 6))
        np.testing.assert_array_equal(solit_select(tables, kappa), np.full(5, 6))

    def test_a_single_run_needing_the_last_row(self):
        rng = np.random.default_rng(3)
        k = 7
        w_rows = rng.uniform(0, 1, (k, 20))
        ys = rng.uniform(1, 1.4, (6, 20)) * rng.choice([-1.0, 1.0], (6, 20))
        ys[4] = 10.0 * ys[0]  # its distances are 10 times those of run 0
        probe = np.stack([full_tensor_distance_table(w_rows, y) for y in ys])
        # every other run is within the limits at row 0; run 4 is outside them
        # on every row but the last
        kappa = np.max(np.delete(probe, 4, axis=0), axis=0)
        kappa[k - 2, k - 1] = np.inf
        picks, rows, tables = stream_and_tables(w_rows, ys, {"solit": kappa})
        # row 0, where the other runs accept, and the last row; in between, run
        # 4's adjacent distances are 10 times over their limits
        assert rows == [0, k - 2]
        np.testing.assert_array_equal(picks["solit"], [0, 0, 0, 0, k - 2, 0])
        np.testing.assert_array_equal(picks["solit"], solit_select(tables, kappa))

    def test_one_rule_alone(self, small_heat):
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, sigma=1e-3, theta=2.0)
        thresholds = build_thresholds(small_heat, spec, grid)
        w_rows = estimator_weights(small_heat, spec, grid.alphas)
        ys = np.stack([simulate_data(small_heat, 1e-3, seed) for seed in range(9)])
        both, _, tables = stream_and_tables(
            w_rows, ys, {"solit": thresholds.kappa, "lepskii": lepskii_limits(grid)})
        solit_only, solit_rows, _ = stream_and_tables(w_rows, ys, {"solit": thresholds.kappa})
        lepskii_only, lepskii_rows, _ = stream_and_tables(w_rows, ys, {"lepskii": lepskii_limits(grid)})
        assert set(solit_only) == {"solit"} and set(lepskii_only) == {"lepskii"}
        np.testing.assert_array_equal(solit_only["solit"], solit_select(tables, thresholds.kappa))
        np.testing.assert_array_equal(lepskii_only["lepskii"], lepskii_select(tables, grid))
        np.testing.assert_array_equal(solit_only["solit"], both["solit"])
        np.testing.assert_array_equal(lepskii_only["lepskii"], both["lepskii"])
        # each walk forms the row of every pick of its own rule, and no row
        # past the last one
        for picks, rows in ((solit_only["solit"], solit_rows), (lepskii_only["lepskii"], lepskii_rows)):
            assert set(picks.tolist()) - {grid.m_max} <= set(rows) <= set(range(picks.max() + 1))

    def test_no_rule_forms_no_row(self):
        RowCounter.widths = []
        assert stream_select(np.ones((3, 4)).view(RowCounter), np.eye(4), {}) == {}
        assert RowCounter.widths == []


class TestStreamScreen:
    """The adjacent-pair screen of ``stream_select`` skips rows, never picks."""

    @pytest.mark.parametrize("nudge", ["equal", "next-above", "next-below", "plus-nu", "minus-nu"])
    def test_limit_at_a_full_row_distance(self, nudge):
        k, n = 8, 300
        m1 = k - 2
        nu = n * 2.0**-53
        for seed in range(10):
            # one run, as solit reconstruct streams it: the screen can only skip
            # a row when every pending run is screened out of it.  The last row
            # is a one-column product, which BLAS may round differently from
            # the screen's (with OpenBLAS the screen is the larger in 5 of these 10)
            rng = np.random.default_rng(seed)
            w_rows = rng.uniform(0, 1, (k, n))
            ys = rng.standard_normal((1, n))
            tables = row_tables(w_rows, ys**2)
            value = tables[0, m1, m1 + 1]
            limit = {"equal": value, "next-above": np.nextafter(value, np.inf),
                     "next-below": np.nextafter(value, 0.0), "plus-nu": value * (1 + nu),
                     "minus-nu": value * (1 - nu)}[nudge]
            # the rows before m1 are over their zero limits, so the run picks m1
            # when its last distance is within the limit and m_max otherwise
            kappa = np.zeros((k, k))
            kappa[m1, m1 + 1] = limit
            # Lepskii's limits 4 kappa_tune mu_{m2} are one row, which
            # lepskii_select compares through solit_select as well
            lepskii = np.zeros(k)
            lepskii[m1 + 1] = limit
            want = {"solit": solit_select(tables, kappa), "lepskii": solit_select(tables, lepskii)}
            np.testing.assert_array_equal(want["solit"], [m1 if value <= limit else k - 1])
            for limits in ({"solit": kappa, "lepskii": lepskii}, {"solit": kappa}, {"lepskii": lepskii}):
                RowCounter.widths = []
                picks = stream_select((ys**2).view(RowCounter), w_rows, limits)
                for name in limits:
                    np.testing.assert_array_equal(picks[name], want[name])
                # a run within the rounding margin of its limit is not screened out
                assert formed_rows(k) == [m1]

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 10),
        n=st.integers(1, 40),
        runs=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        weight_scale=st.floats(-30.0, 30.0),
        limit_scale=st.floats(-1.0, 1.0),
    )
    def test_random_blocks_and_limit_scales(self, k, n, runs, seed, weight_scale, limit_scale):
        # the reference tables hold the unscreened walk's own bits: the
        # full-tensor tables differ from them by rounding, most where rows
        # nearly cancel, and a limit within that rounding would flip a pick
        rng = np.random.default_rng(seed)
        w_rows = rng.uniform(0, 1, (k, n)) * 10.0**weight_scale
        ys = rng.standard_normal((runs, n))
        tables = row_tables(w_rows, ys**2)
        iu = np.triu_indices(k, 1)
        # limits about the median distance, shifted by up to ten times either way
        scale = np.median(tables[:, iu[0], iu[1]]) * 10.0**limit_scale if k > 1 else 1.0
        kappa = np.full((k, k), np.nan)
        kappa[iu] = scale * rng.uniform(0.3, 3.0, iu[0].size)
        v = np.cumsum(rng.uniform(0.1, 1.0, k))  # the variances at sigma = 1
        sigma = scale * rng.uniform(0.3, 3.0) / (4.0 * np.sqrt(v[-1]))
        grid = CandidateGrid(alphas=np.geomspace(1.0, 1e-3, k), v=v * sigma**2, theta1=1.5, theta2=5.0, sigma=sigma)
        picks = stream_select(ys**2, w_rows, {"solit": kappa, "lepskii": lepskii_limits(grid)})
        np.testing.assert_array_equal(picks["solit"], solit_select(tables, kappa))
        np.testing.assert_array_equal(picks["lepskii"], lepskii_select(tables, grid))

    @pytest.mark.parametrize("scale,bad", [(1e-157, None), (1e156, None), (1.0, np.nan), (1.0, np.inf)],
                             ids=["underflow", "overflow", "nan", "inf"])
    def test_distances_outside_the_screens_range_are_not_screened(self, scale, bad):
        rng = np.random.default_rng(4)
        k = 6
        w_rows = rng.uniform(0, 1, (k, 20)) * scale
        ys = rng.standard_normal((4, 20))
        if bad is not None:
            ys[:, 3] = bad
        RowCounter.widths = []
        picks = stream_select((ys**2).view(RowCounter), w_rows, {"solit": np.zeros((k, k))})
        # no adjacent distance is trusted, so every row is formed and rejects every run
        assert formed_rows(k) == list(range(k - 1))
        np.testing.assert_array_equal(picks["solit"], np.full(4, k - 1))
        tables = row_tables(w_rows, ys**2)
        np.testing.assert_array_equal(picks["solit"], solit_select(tables, np.zeros((k, k))))

    def test_real_gradiometry_block_forms_fewer_rows_than_it_walks(self):
        problem = get_problem("gradiometry")
        spec = FilterSpec("tikhonov")
        sigma = 1e-6
        grid = build_grid(problem, spec, sigma=sigma, theta=2.0)
        thresholds = build_thresholds(problem, spec, grid)
        ys = np.stack([simulate_data(problem, sigma, seed) for seed in range(64)])
        limits = {"solit": thresholds.kappa, "lepskii": lepskii_limits(grid)}
        picks, rows, _ = stream_and_tables(thresholds.weights, ys, limits)
        tables = row_tables(thresholds.weights, ys**2)
        np.testing.assert_array_equal(picks["solit"], solit_select(tables, thresholds.kappa))
        np.testing.assert_array_equal(picks["lepskii"], lepskii_select(tables, grid))
        walked = min(max(p.max() for p in picks.values()) + 1, grid.m_max)
        assert len(rows) < walked / 2, (rows, walked)


class TestBlockSize:
    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff"])
    @pytest.mark.parametrize("problem,n", [("antiderivative", 200), ("gradiometry", 40), ("heat", 24)])
    def test_picks_do_not_depend_on_the_block_size(self, problem, n, kind, monkeypatch):
        cfg = ExperimentConfig(problem=problem, filter_kind=kind, runs=25, sigma_count=3,
                               sigma_start=1e-2, sigma_stop=1e-6, seed=8, problem_params={"n": n})
        results = []
        # blocks of 2 runs (the last one short), then every run in one block
        for block_elements in (2 * n, cfg.runs * n):
            monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", block_elements)
            results.append(run_experiment(cfg))
        small, whole = results
        for a, b in zip(small.cells, whole.cells):
            assert a.r_mstar == pytest.approx(b.r_mstar, rel=1e-14)
            for name in cfg.selectors:
                np.testing.assert_array_equal(a.selectors[name].histogram, b.selectors[name].histogram)
                assert a.selectors[name].mse == pytest.approx(b.selectors[name].mse, rel=1e-14)


def plain(value):
    """``value`` with every dataclass, array and float taken apart into
    dicts, lists and ``float.hex`` strings, so that ``==`` compares two
    results field by field and bit for bit (NaN included)."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return plain(value.tolist())
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value.hex() if isinstance(value, float) else value


class TestThreadedCells:
    # blocks of 4 runs, 11 runs: two whole blocks and a short one per cell
    MULTI_BLOCK = dict(problem="antiderivative", filter_kind="tikhonov", runs=11, sigma_count=5,
                       sigma_start=1e-2, sigma_stop=1e-5, seed=2**64 + 1, problem_params={"n": 200})
    NOISE_FREE = dict(problem="heat", filter_kind="cutoff", runs=3, sigma_count=4, sigma_start=1e-2,
                      sigma_stop=1e-6, seed=5, problem_params={"n": 24}, noise_free=True)

    @pytest.mark.parametrize("sweep", [MULTI_BLOCK, NOISE_FREE], ids=["multi-block", "noise-free"])
    def test_result_independent_of_cpu_count(self, sweep, monkeypatch):
        monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 4 * 200)
        cfg = ExperimentConfig(**sweep)
        started = record_started_threads(monkeypatch)
        force_cpus(monkeypatch, 1)
        serial = plain(run_experiment(cfg))
        assert started == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for cpus in (2, 3, 16):
                force_cpus(monkeypatch, cpus)
                del started[:]
                assert plain(run_experiment(cfg)) == serial, cpus
                # a pool of min(cpus, sigma_count) threads; it starts one only while none is idle
                assert 0 < len(started) <= min(cpus, cfg.sigma_count)
                assert not any(thread.is_alive() for thread in started)
        finally:
            sys.setswitchinterval(interval)

    def test_one_noise_level_starts_no_thread(self, monkeypatch):
        started = record_started_threads(monkeypatch)
        force_cpus(monkeypatch, 16)
        res = run_experiment(ExperimentConfig(**{**self.MULTI_BLOCK, "sigma_count": 1}))
        assert started == [] and len(res.cells) == 1

    def test_cells_deepest_first(self, monkeypatch):
        force_cpus(monkeypatch, 1)
        order = []
        select = harness.stream_select

        def recording(y_sq, w_rows, limits):
            order.append(w_rows.shape[0])
            return select(y_sq, w_rows, limits)

        monkeypatch.setattr(harness, "stream_select", recording)
        res = run_experiment(ExperimentConfig(**self.MULTI_BLOCK))
        assert order == [cell.grid.m_max + 1 for cell in reversed(res.cells)]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_error_at_one_noise_level_reaches_the_caller(self, cpus, monkeypatch):
        cfg = ExperimentConfig(**self.MULTI_BLOCK)
        sizes = [cell.grid.m_max + 1 for cell in run_experiment(cfg).cells]
        failing = sizes[2]
        assert sizes.count(failing) == 1
        select = harness.stream_select

        def failing_select(y_sq, w_rows, limits):
            if w_rows.shape[0] == failing:
                raise RuntimeError("noise level 2 failed")
            return select(y_sq, w_rows, limits)

        monkeypatch.setattr(harness, "stream_select", failing_select)
        started = record_started_threads(monkeypatch)
        force_cpus(monkeypatch, cpus)
        with pytest.raises(RuntimeError, match="noise level 2 failed"):
            run_experiment(cfg)
        assert len(started) <= cpus and bool(started) == (cpus > 1)
        assert not any(thread.is_alive() for thread in started)


class TestRunKeys:
    @settings(max_examples=100, deadline=None)
    @given(
        master=st.one_of(st.integers(0, 2**32), st.integers(0, 2**200)),
        sigma_count=st.integers(1, 3),
        runs=st.integers(1, 4),
    )
    def test_keys_of_numpy_seed_sequences(self, master, sigma_count, runs):
        keys = _run_keys(master, sigma_count, runs)
        assert keys.shape == (sigma_count, runs, 2) and keys.dtype == np.uint64
        for si in range(sigma_count):
            for r in range(runs):
                seed = run_seed(master, si, r)
                want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
                np.testing.assert_array_equal(keys[si, r], want)

    @pytest.mark.parametrize("master", [0, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1, 2**64 + 1,
                                        2**70 + 3, 2**200 + 9])
    def test_keys_are_those_of_philox_seeded_per_run(self, master):
        keys = _run_keys(master, 2, 3)
        for si in range(2):
            for r in range(3):
                want = np.random.Philox(run_seed(master, si, r)).state["state"]["key"]
                np.testing.assert_array_equal(keys[si, r], want)


class TestVerifyOracleInequality:
    def test_completed_run_passes(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 20}))
        margins = verify_oracle_inequality(res)
        assert margins.shape == (len(res.cells),)
        assert np.all(margins >= 0)

    def test_inflated_mse_flagged(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 20}))
        bad = copy.deepcopy(res)
        bad.cells[0].selectors["solit"].mse *= 1e6
        margins = verify_oracle_inequality(bad)
        assert not np.all(margins >= 0)
        assert not margins[0] >= 0

    def test_infinite_constant_sentinel(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 5}))
        inflated = copy.deepcopy(res)
        for cell in inflated.cells:
            cell.c2 = math.inf
            cell.selectors["solit"].mse *= 1e9
        assert np.all(verify_oracle_inequality(inflated) >= 0)

    def test_requires_both_rows(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "selectors": ("solit", "optimal")}))
        with pytest.raises(InvalidParameterError):
            verify_oracle_inequality(res)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        res = run_experiment(ExperimentConfig(**SMALL))
        write_results(res, str(tmp_path))
        back = read_results(str(tmp_path))
        assert back.config == res.config
        assert len(back.cells) == len(res.cells)
        for ca, cb in zip(res.cells, back.cells):
            assert cb.sigma == ca.sigma
            assert cb.m_star == ca.m_star
            assert cb.r_mstar == ca.r_mstar
            assert cb.c1 == ca.c1
            assert cb.c2 == ca.c2
            assert cb.poa == ca.poa
            np.testing.assert_array_equal(cb.grid.alphas, ca.grid.alphas)
            np.testing.assert_array_equal(cb.grid.v, ca.grid.v)
            for name in res.config.selectors:
                assert cb.selectors[name].mse == ca.selectors[name].mse
                assert cb.selectors[name].stderr == ca.selectors[name].stderr
                np.testing.assert_array_equal(
                    cb.selectors[name].histogram, ca.selectors[name].histogram
                )
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["versions"] == {
            "solit": solit.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }

    def test_derived_values_are_recomputed_on_reading(self, tmp_path):
        res = run_experiment(ExperimentConfig(**SMALL))
        write_results(res, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        for entry in meta["grids"]:
            assert entry["theta2"] == entry["theta2_requested"] == 2.5
            entry["theta2_enlarged"] = True
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row["poa"] = "12345"
        with open(tmp_path / "results.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        back = read_results(str(tmp_path))
        for ca, cb in zip(res.cells, back.cells):
            assert not cb.grid.theta2_enlarged
            assert cb.poa == ca.poa == price_of_adaptation(ca.r_mstar, ca.c2)

    def test_blas_and_block_settings_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        res = run_experiment(ExperimentConfig(**{**SMALL, "sigma_count": 2}))
        write_results(res, str(tmp_path))
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": None,
        }
        assert meta["block_elements"] == harness._BLOCK_ELEMENTS
        # the cell threads of the writing process: min(CPUs, noise levels)
        for cpus, threads in ((1, 1), (16, 2)):
            force_cpus(monkeypatch, cpus)
            write_results(res, str(tmp_path))
            assert json.loads((tmp_path / "meta.json").read_text())["cell_threads"] == threads
        back = read_results(str(tmp_path))
        assert back.config == res.config
        for ca, cb in zip(res.cells, back.cells):
            for name in res.config.selectors:
                assert cb.selectors[name].mse == ca.selectors[name].mse

    def test_row_count(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL, "sigma_count": 2, "selectors": ("solit", "optimal")})
        res = run_experiment(cfg)
        write_results(res, str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,selector,mse,stderr,m_star,R_mstar,C1,C2,poa"
        assert len(lines) == 1 + 2 * 2

    def test_empty_selector_list_rejected(self):
        # a sweep without selectors would write no results.csv row, and lose every cell's values
        with pytest.raises(InvalidParameterError, match="a sweep needs at least one selector"):
            ExperimentConfig(**{**SMALL, "selectors": ()})

    def test_grid_sidecar_per_sigma(self, tmp_path):
        res = run_experiment(ExperimentConfig(**SMALL))
        write_results(res, str(tmp_path))
        for i in range(len(res.cells)):
            assert (tmp_path / f"grid_{i:03d}.csv").exists()
        assert (tmp_path / "meta.json").exists()
