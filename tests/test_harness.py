import copy
import json
import math
import platform
import tracemalloc

import numpy as np
import pytest
import scipy

import solit
from solit import (
    ExperimentConfig,
    FilterSpec,
    InvalidParameterError,
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
from solit import candidates, harness, selectors
from solit.harness import (
    _block_distances,
    _pairwise_distance_table,
    _run_seed,
)
from solit.selectors import (
    lepskii_select,
    noise_level_select,
    optimal_select,
    oracle_select,
    solit_select,
)
from solit.filters import filter_weight
from solit.sequence_model import estimator_weights
from conftest import bias_norms

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


class TestNonFiniteTuningRejected:
    @pytest.mark.parametrize(
        "name, value",
        [("theta", math.nan), ("theta", math.inf), ("beta", math.nan), ("beta", math.inf),
         ("gamma", math.nan), ("gamma", math.inf), ("kappa_tune", math.nan),
         ("kappa_tune", math.inf), ("sigma_start", math.inf), ("sigma_stop", math.nan),
         ("seed", -1)],
    )
    def test_config_and_the_function_that_uses_the_value(self, name, value, small_heat):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(problem="heat", filter_kind="tikhonov", **{name: value})
        spec = FilterSpec("tikhonov")
        grid = build_grid(small_heat, spec, 1e-3)
        uses = {
            "theta": lambda: build_grid(small_heat, spec, 1e-3, theta=value),
            "beta": lambda: build_thresholds(small_heat, spec, grid, beta=value),
            "gamma": lambda: build_thresholds(small_heat, spec, grid, gamma=value),
            "kappa_tune": lambda: lepskii_select(np.zeros((grid.m_max + 1,) * 2), grid, kappa_tune=value),
            "seed": lambda: simulate_data(small_heat, 1e-3, value),
        }
        if name in uses:
            with pytest.raises(InvalidParameterError):
                uses[name]()


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
            (harness, "estimator_weights"),
            (selectors, "estimator_weights"),
            (candidates, "line_search_variance"),
            (selectors, "ltz_quantile_for_weights"),
            (harness, "_pairwise_distance_table"),
        ]:
            count(module, name)
        res = run_experiment(ExperimentConfig(**{**SMALL, "filter_kind": kind, "sigma_count": 5}))
        deepest = res.cells[-1].grid
        assert calls["build_grid"] == 1
        assert calls["build_thresholds"] == 1
        assert calls["estimator_weights"] <= 2
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


def full_tensor_distance_table(rows):
    """Distance table through the full (k, k, n) difference tensor."""
    diff = rows[:, None, :] - rows[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def per_run_reference(config):
    """The Monte Carlo loop one realization at a time: the full distance tensor
    and one call of each selector per run.  Returns, per noise level, the
    selectors' MSEs, standard errors, histograms and R_{m*}."""
    problem = get_problem(config.problem, **config.problem_params)
    spec = FilterSpec.from_name(config.filter_kind)
    cells = []
    for si, sigma in enumerate(config.sigma_grid()):
        sigma = float(sigma)
        grid = build_grid(problem, spec, sigma, config.theta)
        thresholds = build_thresholds(problem, spec, grid, config.beta, config.gamma)
        lam = problem.eigenvalues
        w_rows = np.vstack([filter_weight(spec, a, lam) * np.sqrt(lam) for a in grid.alphas])
        m_star = oracle_select(thresholds.bias, thresholds.variance, config.beta)
        fixed = {"oracle": m_star, "noise-level": noise_level_select(grid, sigma)}
        errors = {name: [] for name in config.selectors}
        hists = {name: np.zeros(grid.m_max + 1, dtype=int) for name in config.selectors}
        r_runs = []
        for r in range(config.runs):
            if config.noise_free:
                y = problem.data_truth
            else:
                y = simulate_data(problem, sigma, _run_seed(config.seed, si, r)).y
            f_rows = w_rows * y
            bhat = full_tensor_distance_table(f_rows)
            diff = f_rows - problem.truth
            err_sq = np.einsum("ij,ij->i", diff, diff)
            for name in config.selectors:
                if name == "solit":
                    idx = solit_select(bhat, thresholds)
                elif name == "lepskii":
                    idx = lepskii_select(bhat, grid, sigma, config.kappa_tune)
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
                    _pairwise_distance_table(rows), full_tensor_distance_table(rows)
                )

    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_grid_weight_rows_match_full_tensor(self, name, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec("tikhonov")
        grid = build_grid(problem, spec, sigma=1e-4, theta=2.0)
        w_rows = estimator_weights(problem, spec, grid.alphas)
        for rows in (w_rows, w_rows * problem.data_truth):
            assert np.array_equal(
                _pairwise_distance_table(rows), full_tensor_distance_table(rows)
            )

    def test_single_row(self):
        table = _pairwise_distance_table(np.ones((1, 4)))
        assert np.array_equal(table, np.zeros((1, 1)))


class TestBlockedRuns:
    @pytest.mark.parametrize("name", ["antiderivative", "gradiometry", "heat"])
    def test_block_distances_match_difference_formula(self, name, small_benchmarks):
        problem = small_benchmarks[name]
        spec = FilterSpec("tikhonov")
        grid = build_grid(problem, spec, sigma=1e-4, theta=2.0)
        w_rows = estimator_weights(problem, spec, grid.alphas)
        ys = np.stack([simulate_data(problem, 1e-4, seed).y for seed in range(4)])
        bhat = _block_distances(ys**2, w_rows)
        upper = np.triu(np.ones(bhat.shape[1:], dtype=bool), k=1)
        for table, y in zip(bhat, ys):
            want = full_tensor_distance_table(w_rows * y)
            np.testing.assert_allclose(table[upper], want[upper], rtol=1e-12, atol=0)
            assert np.all(table[~upper] == 0)

    @pytest.mark.parametrize("seed,noise_free", [(5, False), (6, False), (7, False), (5, True)])
    @pytest.mark.parametrize("problem,n", [("heat", 24), ("gradiometry", 40)])
    def test_matches_per_run_loop(self, problem, n, seed, noise_free, monkeypatch):
        cfg = ExperimentConfig(problem=problem, filter_kind="tikhonov", runs=23, sigma_count=3,
                               sigma_start=1e-2, sigma_stop=1e-6, seed=seed,
                               problem_params={"n": n}, noise_free=noise_free)
        reference = per_run_reference(cfg)
        # the default budget holds all runs in one block; a small one splits
        # them into several, the last one short
        for block_elements in (harness._BLOCK_ELEMENTS, 2000):
            monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", block_elements)
            res = run_experiment(cfg)
            for cell, (mses, stderrs, hists, r_mstar) in zip(res.cells, reference):
                assert cell.r_mstar == pytest.approx(r_mstar, rel=1e-12)
                for name in cfg.selectors:
                    got = cell.selectors[name]
                    np.testing.assert_array_equal(got.histogram, hists[name])
                    assert got.mse == pytest.approx(mses[name], rel=1e-12)
                    assert got.stderr == pytest.approx(stderrs[name], rel=1e-12, abs=1e-12 * mses[name])

    def test_peak_memory_does_not_grow_with_runs(self, monkeypatch):
        # the problem is built outside the measurement, so the peak is the cell's own
        problem = get_problem("antiderivative", n=2000)
        monkeypatch.setattr(harness, "get_problem", lambda *args, **kwargs: problem)
        peaks = {}
        for runs in (40, 400):
            cfg = ExperimentConfig(problem="antiderivative", filter_kind="tikhonov", runs=runs,
                                   sigma_count=1, sigma_start=1e-3, sigma_stop=1e-4, seed=1)
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] <= 1.25 * peaks[40], peaks


class TestVerifyOracleInequality:
    def test_completed_run_passes(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 20}))
        report = verify_oracle_inequality(res)
        assert report.passed
        assert all(row.margin >= 0 for row in report.rows)

    def test_inflated_mse_flagged(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 20}))
        bad = copy.deepcopy(res)
        bad.cells[0].selectors["solit"].mse *= 1e6
        report = verify_oracle_inequality(bad)
        assert not report.passed
        assert not report.rows[0].ok

    def test_infinite_constant_sentinel(self):
        res = run_experiment(ExperimentConfig(**{**SMALL, "runs": 5}))
        inflated = copy.deepcopy(res)
        for cell in inflated.cells:
            cell.c2 = math.inf
            cell.selectors["solit"].mse *= 1e9
        assert verify_oracle_inequality(inflated).passed

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

    def test_row_count(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL, "sigma_count": 2, "selectors": ("solit", "optimal")})
        res = run_experiment(cfg)
        write_results(res, str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,selector,mse,stderr,m_star,R_mstar,C1,C2,poa"
        assert len(lines) == 1 + 2 * 2

    def test_empty_selector_list_header_only(self, tmp_path):
        cfg = ExperimentConfig(**{**SMALL, "selectors": ()})
        res = run_experiment(cfg)
        write_results(res, str(tmp_path))
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert lines == ["sigma,selector,mse,stderr,m_star,R_mstar,C1,C2,poa"]

    def test_grid_sidecar_per_sigma(self, tmp_path):
        res = run_experiment(ExperimentConfig(**SMALL))
        write_results(res, str(tmp_path))
        for i in range(len(res.cells)):
            assert (tmp_path / f"grid_{i:03d}.csv").exists()
        assert (tmp_path / "meta.json").exists()
