import csv
import functools
import json
import math
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from solit import ExperimentConfig, FilterSpec, InvalidParameterError, build_grid, run_experiment, testproblems
from solit.cli import _options, _simulate_config, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCandidatesCommand:
    def test_grid_csv(self, capsys):
        code, out = run_cli(
            capsys, "candidates", "--problem", "heat", "--n", "16",
            "--filter", "tikhonov", "--sigma", "1e-3", "--theta", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,alpha,v_m,ratio"
        ratios = [float(r.split(",")[3]) for r in lines[2:]]
        assert all(1.5 <= r <= 2.5 for r in ratios)


class TestSimulateAndRates:
    def test_simulate_writes_results(self, tmp_path, capsys):
        out_dir = tmp_path / "res"
        code, out = run_cli(
            capsys, "simulate", "--problem", "antiderivative", "--n", "64",
            "--filter", "tikhonov", "--runs", "4", "--sigma-start", "1e-2",
            "--sigma-stop", "1e-3", "--sigma-count", "3", "--seed", "7",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "meta.json").exists()
        assert (out_dir / "grid_000.csv").exists()

        code, out = run_cli(capsys, "rates", "--in", str(out_dir), "--model", "poly")
        assert code == 0
        assert any(line.startswith("solit slope=") for line in out.splitlines())

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {
            "problem": "antiderivative", "filter": "tikhonov", "n": 64,
            "runs": 3, "sigma_start": 1e-2, "sigma_stop": 1e-3,
            "sigma_count": 2, "seed": 1, "out": str(tmp_path / "from_config"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        override = tmp_path / "cli_wins"
        code, _ = run_cli(capsys, "simulate", "--config", str(cfg_path), "--out", str(override))
        assert code == 0
        assert override.exists()
        assert not (tmp_path / "from_config").exists()

    def test_env_var_output_dir(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("SOLIT_OUT", str(target))
        cfg = {
            "problem": "antiderivative", "filter": "tikhonov", "n": 64,
            "runs": 2, "sigma_start": 1e-2, "sigma_stop": 1e-3,
            "sigma_count": 2, "seed": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _ = run_cli(capsys, "simulate", "--config", str(cfg_path))
        assert code == 0
        assert (target / "results.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"problem": "heat", "bogus": 1}))
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys: ['bogus']" in err


class TestQuantileCheckCommand:
    def test_csv_shape_and_tolerance(self, capsys):
        code, out = run_cli(
            capsys, "quantile-check", "--problem", "heat", "--n", "12",
            "--filter", "tikhonov", "--sigma", "1e-2", "--mc-samples", "200000",
            "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m1,m2,p,ltz,mc,rel_err"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) % 3 == 0  # three tail probabilities per pair
        assert all(float(r[5]) < 0.1 for r in rows)


class TestReconstructCommand:
    def test_fixed_alpha_output(self, capsys):
        code, out = run_cli(
            capsys, "reconstruct", "--problem", "antiderivative", "--n", "64",
            "--filter", "tikhonov", "--sigma", "1e-4", "--alpha", "1e-4",
            "--points", "33", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x,value"
        assert len(lines) == 2 + 33
        xs = np.array([float(r.split(",")[0]) for r in lines[2:]])
        vals = np.array([float(r.split(",")[1]) for r in lines[2:]])
        # low-noise reconstruction resembles the hat function (a scrambled
        # coordinate order would miss by an order of magnitude)
        hat = np.where(xs <= 0.5, xs, 1 - xs)
        assert np.max(np.abs(vals - hat)) < 0.1

    def test_solit_choice_reported(self, capsys):
        code, out = run_cli(
            capsys, "reconstruct", "--problem", "heat", "--n", "12",
            "--filter", "tikhonov", "--sigma", "1e-2", "--points", "17",
        )
        assert code == 0
        assert out.startswith("# alpha=")

    def test_builds_the_problem_once(self, capsys, monkeypatch):
        builder, modes = testproblems._PROBLEMS["heat"]
        calls = []

        @functools.wraps(builder)
        def counting(*args, **kwargs):
            calls.append(kwargs)
            return builder(*args, **kwargs)

        monkeypatch.setitem(testproblems._PROBLEMS, "heat", (counting, modes))
        code, out = run_cli(
            capsys, "reconstruct", "--problem", "heat", "--n", "12",
            "--filter", "tikhonov", "--sigma", "1e-2", "--points", "5",
        )
        assert code == 0
        assert calls == [{"n": 12, "t_bar": 0.1}]
        xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[2:]]
        assert xs[0] == pytest.approx(-math.pi) and xs[-1] == pytest.approx(math.pi)

    # noise levels at which the 16 runs do not all pick the same candidate
    @pytest.mark.parametrize(
        "problem,n,kind,sigma",
        [("antiderivative", 64, "tikhonov", 1e-2), ("antiderivative", 64, "cutoff", 1e-4),
         ("gradiometry", 40, "tikhonov", 1e-2), ("gradiometry", 40, "cutoff", 1e-3),
         ("heat", 24, "tikhonov", 1e-4), ("heat", 24, "cutoff", 1e-3)],
    )
    def test_picks_of_the_sweep(self, problem, n, kind, sigma, capsys):
        # run r of a one-sigma sweep draws simulate_data(problem, sigma, seed_r);
        # reconstruct with --seed seed_r picks from the same realization
        cfg = ExperimentConfig(problem=problem, filter_kind=kind, selectors=("solit",), runs=16,
                               sigma_count=1, sigma_start=sigma, sigma_stop=sigma / 10, seed=3,
                               problem_params={"n": n})
        cell, = run_experiment(cfg).cells
        alphas = build_grid(testproblems.get_problem(problem, n=n), FilterSpec(kind), sigma).alphas
        np.testing.assert_array_equal(alphas, cell.grid.alphas)
        picks = []
        for r in range(cfg.runs):
            seed = int(np.random.SeedSequence((cfg.seed, 0, r)).generate_state(1, np.uint64)[0])
            code, out = run_cli(capsys, "reconstruct", "--problem", problem, "--n", str(n), "--filter", kind,
                                "--sigma", repr(sigma), "--seed", str(seed), "--points", "1")
            assert code == 0
            alpha = float(out.splitlines()[0].removeprefix("# alpha="))
            picks.append(int(np.argmin(np.abs(np.log(alphas / alpha)))))
            assert alphas[picks[-1]] == pytest.approx(alpha, rel=1e-8)
        np.testing.assert_array_equal(np.bincount(picks, minlength=alphas.size),
                                      cell.selectors["solit"].histogram)
        assert len(set(picks)) > 1


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("candidates", "--problem", "nope", "--sigma", "1e-3"),  # InvalidParameterError
            ("candidates", "--problem", "heat", "--n", "24", "--filter", "landweber",
             "--sigma", "1e-8"),  # ConfigurationError: V cannot reach 1/sigma^2
            ("candidates", "--problem", "heat", "--R", "2", "--sigma", "1e-3"),
            ("candidates", "--problem", "antiderivative", "--t-bar", "0.1", "--sigma", "1e-3"),
            ("simulate", "--seed", "-1"),
            ("simulate", "--selectors", "solit,solit"),  # a selector named twice
            ("simulate", "--problem", "heat", "--n", "12", "--selectors", ""),  # no selector
            ("quantile-check", "--problem", "heat", "--n", "12", "--sigma", "1e-2", "--seed", "-1"),
            # too few samples, found after the grid is built: no CSV header either
            ("quantile-check", "--problem", "heat", "--n", "12", "--sigma", "1e-2", "--mc-samples", "10"),
            ("reconstruct", "--problem", "heat", "--n", "12", "--sigma", "1e-2", "--seed", "-1"),
            ("reconstruct", "--problem", "heat", "--n", "12", "--sigma", "1e-2", "--points", "-1"),
            ("simulate", "--config", "{tmp}/missing.json"),  # OSError
            ("rates", "--in", "{tmp}/missing", "--model", "poly"),  # OSError
            ("simulate", "--config", "{tmp}/invalid.json"),  # JSON decode error
            ("rates", "--in", "{tmp}/results", "--model", "poly"),  # meta.json not valid JSON
            ("rates", "--in", "{tmp}/empty", "--model", "poly"),  # meta.json {}
            ("rates", "--in", "{tmp}/list", "--model", "poly"),  # meta.json [1]
            ("rates", "--in", "{tmp}/no-grids", "--model", "poly"),  # meta.json without grids
            ("rates", "--in", "{tmp}/no-selectors", "--model", "poly"),  # config without selectors
            ("rates", "--in", "{tmp}/unknown-key", "--model", "poly"),  # config with an unknown key
            ("rates", "--in", "{tmp}/no-runs-seed", "--model", "poly"),  # config without runs and seed
            ("reconstruct", "--problem", "heat", "--n", "12", "--sigma", "nan", "--alpha", "1e-3"),
            ("reconstruct", "--problem", "heat", "--n", "12", "--sigma", "inf"),
            ("candidates", "--problem", "heat", "--n", "12", "--sigma", "inf"),
            ("candidates", "--problem", "heat", "--n", "12", "--sigma", "nan"),
            ("simulate", "--problem", "heat", "--n", "12", "--filter", "landweber",
             "--landweber-step", "nan"),
        ],
    )
    def test_one_line_and_exit_code_2(self, argv, capsys, tmp_path):
        (tmp_path / "invalid.json").write_text("{not json")
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "meta.json").write_text("{x")
        config = asdict(ExperimentConfig(problem="heat", filter_kind="tikhonov"))
        records = {
            "empty": {},
            "list": [1],
            "no-grids": {"config": config},
            "no-selectors": {"config": {"problem": "heat", "filter_kind": "tikhonov"}, "grids": []},
            "unknown-key": {"config": {**config, "bogus": 1}, "grids": []},
            "no-runs-seed": {"config": {k: v for k, v in config.items() if k not in ("runs", "seed")},
                             "grids": []},
        }
        for name, record in records.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "meta.json").write_text(json.dumps(record))
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"solit {argv[0]}: error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("samples", ["0", "500"])
def test_too_few_mc_samples_give_one_message(samples, capsys):
    argv = ["quantile-check", "--problem", "heat", "--n", "12", "--sigma", "1e-2", "--mc-samples", samples]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solit quantile-check: error: option 'mc_samples' must be >= 1000, not {samples}\n"


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (("--beta", "nan", "--theta", "-4"), "option 'theta' must be > 1, not -4.0"),
        (("--beta", "nan"), "option 'beta' must be of type float, not nan"),
        (("--gamma", "0"), "option 'gamma' must be > 0, not 0.0"),
        (("--landweber-step", "inf"), "option 'landweber_step' must be of type float, not inf"),
        (("--points", "0"), "option 'points' must be >= 1, not 0"),
        (("--alpha", "0"), "option 'alpha' must be > 0, not 0.0"),
        (("--alpha", "-1"), "option 'alpha' must be > 0, not -1.0"),
        (("--alpha", "nan"), "option 'alpha' must be of type float, not nan"),
    ],
    ids=["beta-and-theta", "beta", "gamma", "landweber-step", "points", "alpha-0", "alpha-negative", "alpha-nan"],
)
def test_reconstruct_at_a_fixed_alpha_checks_every_flag(flags, message, capsys):
    # --alpha skips the grid and the thresholds, which read theta, beta and
    # gamma; a second --alpha in the flags replaces the first
    argv = ["reconstruct", "--problem", "heat", "--n", "24", "--filter", "tikhonov", "--sigma", "1e-3",
            "--alpha", "1e-3", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solit reconstruct: error: {message}\n"


@pytest.mark.parametrize(
    ("config", "message"),
    [
        ({"runs": "abc"}, "option 'runs' must be of type int, not 'abc'"),
        ({"theta": "x"}, "option 'theta' must be of type float, not 'x'"),
        ({"n": "many"}, "option 'n' must be of type int, not 'many'"),
        ({"selectors": 5}, "option 'selectors' must be of type list of names, not 5"),
        ({"selectors": ["solit", 1]}, "option 'selectors' must be"),
        ({"selectors": ["solit", "lepskii", "solit"]}, "repeated selectors: ['solit']"),
        ({"selectors": []}, "a sweep needs at least one selector"),
        ([1, 2], "must hold a JSON object, not [1, 2]"),
        ({"n": 2.7}, "option 'n' must be of type int, not 2.7"),
        ({"t_bar": "0.1", "problem": "heat"}, "option 't_bar' must be of type float, not '0.1'"),
        ({"theta": 1}, "option 'theta' must be > 1, not 1"),
        ({"beta": -1}, "option 'beta' must be > 0, not -1"),
        ({"gamma": 0}, "option 'gamma' must be > 0, not 0"),
        ({"kappa_tune": 0.5}, "option 'kappa_tune' must be >= 1, not 0.5"),
    ],
    ids=["runs", "theta", "n", "selectors-number", "selectors-mixed", "selectors-repeated", "selectors-empty", "list",
         "n-fraction", "t-bar-string", "theta-one", "beta-negative", "gamma-zero", "kappa-tune-below-one"],
)
def test_bad_config_values_are_one_line_errors(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solit simulate: error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# wrong option types, each with the one-line message that every entry point
# reading a config gives: ExperimentConfig, simulate --config and rates --in
BAD_OPTIONS = [
    ({"noise_free": "false"}, "option 'noise_free' must be of type bool, not 'false'"),
    ({"noise_free": "no"}, "option 'noise_free' must be of type bool, not 'no'"),
    ({"noise_free": 1}, "option 'noise_free' must be of type bool, not 1"),
    ({"runs": 2.7}, "option 'runs' must be of type int, not 2.7"),
    ({"runs": "abc"}, "option 'runs' must be of type int, not 'abc'"),
    ({"seed": True}, "option 'seed' must be of type int, not True"),
    ({"sigma_count": "4"}, "option 'sigma_count' must be of type int, not '4'"),
    ({"theta": "x"}, "option 'theta' must be of type float, not 'x'"),
    ({"beta": None}, "option 'beta' must be of type float, not None"),
    ({"gamma": math.nan}, "option 'gamma' must be of type float, not nan"),
    ({"kappa_tune": math.inf}, "option 'kappa_tune' must be of type float, not inf"),
    ({"sigma_start": [0.1]}, "option 'sigma_start' must be of type float, not [0.1]"),
    ({"landweber_step": "0.5"}, "option 'landweber_step' must be of type float, not '0.5'"),
    ({"selectors": 5}, "option 'selectors' must be of type list of names, not 5"),
    ({"selectors": ["solit", 1]}, "option 'selectors' must be of type list of names, not ['solit', 1]"),
    ({"problem": 3}, "option 'problem' must be of type str, not 3"),
]


@pytest.fixture(scope="module")
def small_results(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("small") / "res"
    assert main(["simulate", "--problem", "heat", "--n", "12", "--runs", "2", "--sigma-start", "1e-2",
                 "--sigma-stop", "1e-3", "--sigma-count", "3", "--out", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("entry", ["config", "simulate", "rates"])
@pytest.mark.parametrize(("bad", "message"), BAD_OPTIONS, ids=[repr(bad) for bad, _ in BAD_OPTIONS])
def test_bad_option_types_give_one_message_at_every_entry(entry, bad, message, small_results, tmp_path, capsys):
    if entry == "config":
        with pytest.raises(InvalidParameterError) as info:
            ExperimentConfig(**{"problem": "heat", "filter_kind": "tikhonov", **bad})
        assert str(info.value) == message
        return
    if entry == "simulate":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
        prefix = "solit simulate: error: "
    else:
        shutil.copytree(small_results, tmp_path / "res")
        meta_path = tmp_path / "res" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"].update(bad)
        meta_path.write_text(json.dumps(meta))
        argv = ["rates", "--in", str(tmp_path / "res"), "--model", "poly"]
        prefix = f"solit rates: error: {meta_path} holds no valid config: "
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == prefix + message + "\n"


# problem parameters of the wrong type or unknown to the heat problem, with
# the one-line message every entry point reading a config gives
BAD_PROBLEM_PARAMS = [
    ({"n": "many"}, "option 'n' must be of type int, not 'many'"),
    ({"n": 12.5}, "option 'n' must be of type int, not 12.5"),
    ({"t_bar": "0.1"}, "option 't_bar' must be of type float, not '0.1'"),
    ({"R": 3.0}, "heat problem: got an unexpected keyword argument 'R'"),
]


@pytest.mark.parametrize("entry", ["config", "simulate", "rates"])
@pytest.mark.parametrize(("bad", "message"), BAD_PROBLEM_PARAMS, ids=[repr(bad) for bad, _ in BAD_PROBLEM_PARAMS])
def test_bad_problem_params_give_one_message_at_every_entry(entry, bad, message, small_results, tmp_path, capsys):
    if entry == "config":
        with pytest.raises(InvalidParameterError) as info:
            ExperimentConfig(problem="heat", filter_kind="tikhonov", problem_params=bad)
        assert str(info.value) == message
        return
    if entry == "simulate":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problem": "heat", **bad}))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]
        prefix = "solit simulate: error: "
    else:
        shutil.copytree(small_results, tmp_path / "res")
        meta_path = tmp_path / "res" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["problem_params"] = bad
        meta_path.write_text(json.dumps(meta))
        argv = ["rates", "--in", str(tmp_path / "res"), "--model", "poly"]
        prefix = f"solit rates: error: {meta_path} holds no valid config: "
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == prefix + message + "\n"


def test_problem_params_recorded_as_typed_and_only_as_given(small_results, tmp_path):
    config = ExperimentConfig(problem="heat", filter_kind="tikhonov", problem_params={"n": np.int64(12)})
    assert config.problem_params == {"n": 12} and type(config.problem_params["n"]) is int
    assert ExperimentConfig(problem="heat", filter_kind="tikhonov").problem_params == {}
    # the record written by `simulate --n 12` holds only the given key, as an int
    meta = json.loads((small_results / "meta.json").read_text())
    assert meta["config"]["problem_params"] == {"n": 12}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem": "heat", "n": 12.0, "t_bar": 1, "runs": 2, "sigma_count": 1}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    recorded = json.loads((tmp_path / "out" / "meta.json").read_text())["config"]["problem_params"]
    assert recorded == {"n": 12, "t_bar": 1.0}
    assert [type(value) for value in recorded.values()] == [int, float]


def _drop_column(path, column):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, [name for name in rows[0] if name != column])
        writer.writeheader()
        writer.writerows({name: value for name, value in row.items() if name != column} for row in rows)


def _append_row(path, row):
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerow(row)


def _extra_noise_level(path):
    with open(path, newline="") as fh:
        first = next(csv.DictReader(fh))
    _append_row(path, ["1", *list(first.values())[1:]])


def _replace_noise_level(directory, old, new):
    """Write noise level ``new`` for ``old`` in results.csv and selections.csv,
    whose first column is the noise level."""
    for name in ("results.csv", "selections.csv"):
        path = directory / name
        path.write_text(path.read_text().replace(f"\n{old},", f"\n{new},"))


def _set_cell(path, line, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[line - 2][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _drop_rows(path, drop):
    """Rewrite a CSV file without the rows for which ``drop(row)`` holds."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [row for row in reader if not drop(row)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, reader.fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _drop_from_both(directory, drop):
    for name in ("results.csv", "selections.csv"):
        _drop_rows(directory / name, drop)


def _drop_last_noise_level(directory):
    with open(directory / "results.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]["sigma"]
    _drop_from_both(directory, lambda row: row["sigma"] == last)


def _drop_last_grid(path):
    meta = json.loads(path.read_text())
    meta["grids"].pop()
    path.write_text(json.dumps(meta))


def _set_grid_value(path, entry, key, value):
    meta = json.loads(path.read_text())
    meta["grids"][entry][key] = value
    path.write_text(json.dumps(meta))


def _set_config_value(path, key, value):
    meta = json.loads(path.read_text())
    meta["config"][key] = value
    path.write_text(json.dumps(meta))


def _negative_count_beside_a_raised_one(path):
    """Raise the first selections.csv row's count by 7 and put a row counting
    -7 runs at a free index of the same histogram before it, so the counts
    still sum to the runs."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    first = rows[0]
    used = {int(row["index"]) for row in rows if (row["sigma"], row["selector"]) == (first["sigma"], first["selector"])}
    free = min(set(range(len(used) + 1)) - used)
    rows[:1] = [{**first, "index": str(free), "count": "-7"}, {**first, "count": str(int(first["count"]) + 7)}]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, reader.fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _empty_grid_entries(path):
    meta = json.loads(path.read_text())
    meta["grids"] = [{} for _ in meta["grids"]]
    path.write_text(json.dumps(meta))


class TestIncompleteResults:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("complete") / "res"
        argv = ["simulate", "--problem", "antiderivative", "--n", "64", "--filter", "tikhonov",
                "--runs", "4", "--sigma-start", "1e-2", "--sigma-stop", "1e-3", "--sigma-count", "8",
                "--seed", "7", "--out", str(out_dir)]
        assert main(argv) == 0
        assert main(["rates", "--in", str(out_dir), "--model", "poly"]) == 0
        return out_dir

    @pytest.mark.parametrize(
        ("damage", "message"),
        [
            (lambda d: _empty_grid_entries(d / "meta.json"), "grid entry 0 needs the keys"),
            (lambda d: _drop_column(d / "grid_001.csv", "v_m"), "grid_001.csv lacks the columns ['v_m']"),
            (lambda d: _drop_column(d / "results.csv", "C2"), "results.csv lacks the columns ['C2']"),
            (lambda d: _drop_column(d / "selections.csv", "count"),
             "selections.csv lacks the columns ['count']"),
            (lambda d: _extra_noise_level(d / "results.csv"),
             "results.csv line 42: expected (sigma, selector) the end of the file, found (1.0, 'solit')"),
            (lambda d: _drop_last_noise_level(d),
             "results.csv line 37: expected (sigma, selector) (0.001, 'solit'), found the end of the file"),
            (lambda d: _drop_from_both(d, lambda row: row["selector"] == "optimal"),
             "results.csv line 5: expected (sigma, selector) (0.01, 'optimal'), found (0.01, 'noise-level')"),
            (lambda d: _set_cell(d / "results.csv", 3, "m_star", "99"),
             "results.csv lines 2-6, the noise level 0.01, disagree on m_star, R_mstar, C1 or C2"),
            (lambda d: _drop_rows(d / "selections.csv",
                                  lambda row: row["sigma"] == "0.01" and row["selector"] == "solit"),
             "selections.csv counts 0 runs of 'solit' at the noise level 0.01, not the config's 4"),
            (lambda d: _drop_last_grid(d / "meta.json"), "meta.json holds 7 grids for 8 sigmas"),
            (lambda d: _append_row(d / "selections.csv", ["0.01", "bogus", "0", "1"]), "matches no histogram"),
            (lambda d: _append_row(d / "selections.csv", ["0.01", "solit", "99", "1"]), "matches no histogram"),
            (lambda d: _replace_noise_level(d, "0.01", "0.02"),
             "results.csv line 2: expected (sigma, selector) (0.01, 'solit'), found (0.02, 'solit')"),
            (lambda d: _set_cell(d / "results.csv", 3, "mse", "abc"),
             "results.csv line 3: column 'mse' holds 'abc', not a finite number"),
            (lambda d: _set_cell(d / "results.csv", 3, "mse", "nan"),
             "results.csv line 3: column 'mse' holds 'nan', not a finite number"),
            (lambda d: _set_cell(d / "results.csv", 2, "sigma", "inf"),
             "results.csv line 2: column 'sigma' holds 'inf', not a finite number"),
            (lambda d: _set_cell(d / "results.csv", 2, "m_star", "1.5"),
             "results.csv line 2: column 'm_star' holds '1.5', not an integer"),
            (lambda d: _set_cell(d / "results.csv", 4, "sigma", ""),
             "results.csv line 4: column 'sigma' holds '', not a finite number"),
            (lambda d: _set_cell(d / "selections.csv", 2, "count", "x"),
             "selections.csv line 2: column 'count' holds 'x', not an integer"),
            (lambda d: _set_cell(d / "selections.csv", 3, "index", "first"),
             "selections.csv line 3: column 'index' holds 'first', not an integer"),
            (lambda d: _set_cell(d / "grid_002.csv", 3, "alpha", "abc"),
             "grid_002.csv line 3: column 'alpha' holds 'abc', not a finite number"),
            (lambda d: _set_cell(d / "grid_000.csv", 2, "v_m", "big"),
             "grid_000.csv line 2: column 'v_m' holds 'big', not a finite number"),
            (lambda d: _set_cell(d / "grid_001.csv", 3, "v_m", "nan"),
             "grid_001.csv line 3: column 'v_m' holds 'nan', not a finite number"),
            (lambda d: _set_grid_value(d / "meta.json", 1, "theta1", "x"),
             "grid entry 1: option 'theta1' must be of type float, not 'x'"),
            (lambda d: _set_grid_value(d / "meta.json", 1, "theta1", math.nan),
             "grid entry 1: option 'theta1' must be of type float, not nan"),
            (lambda d: _set_grid_value(d / "meta.json", 0, "sigma", [0.01]),
             "grid entry 0: option 'sigma' must be of type float, not [0.01]"),
            (lambda d: _set_grid_value(d / "meta.json", 2, "theta2", True),
             "grid entry 2: option 'theta2' must be of type float, not True"),
            (lambda d: _set_grid_value(d / "meta.json", 2, "theta2", math.inf),
             "grid entry 2: option 'theta2' must be of type float, not inf"),
            (lambda d: _set_grid_value(d / "meta.json", 0, "truncation_tail_ratio", "small"),
             "grid entry 0: 'truncation_tail_ratio' holds 'small', not a number"),
            (lambda d: _set_cell(d / "selections.csv", 2, "count", str(2**70)),
             f"'count': {2**70}}}: count outside 1..4"),
            (lambda d: _set_cell(d / "selections.csv", 2, "count", "0"), "'count': 0}: count outside 1..4"),
            (lambda d: _negative_count_beside_a_raised_one(d / "selections.csv"),
             "'count': -7}: count outside 1..4"),
            (lambda d: _set_config_value(d / "meta.json", "beta", -1),
             "meta.json holds no valid config: option 'beta' must be > 0, not -1"),
            (lambda d: _set_config_value(d / "meta.json", "kappa_tune", 0.25),
             "meta.json holds no valid config: option 'kappa_tune' must be >= 1, not 0.25"),
        ],
        ids=["meta-grids", "grid-csv", "results-csv", "selections-csv", "extra-sigma", "missing-last-sigma",
             "missing-selector", "cell-values-disagree", "missing-histogram", "fewer-grids", "unknown-selector",
             "index-out-of-range", "sigma-not-the-grids", "results-mse", "results-mse-nan", "results-sigma-inf",
             "results-m-star", "results-sigma", "selections-count", "selections-index", "grid-alpha", "grid-v",
             "grid-v-nan", "meta-theta1", "meta-theta1-nan", "meta-sigma", "meta-theta2-bool", "meta-theta2-inf",
             "meta-tail-ratio", "selections-count-huge", "selections-count-zero", "selections-count-negative",
             "config-beta-negative", "config-kappa-tune-below-one"],
    )
    def test_one_line_and_exit_code_2(self, written, tmp_path, capsys, damage, message):
        broken = tmp_path / "res"
        shutil.copytree(written, broken)
        damage(broken)
        capsys.readouterr()
        assert main(["rates", "--in", str(broken), "--model", "poly"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solit rates: error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestSimulateDefaults:
    def test_flag_free_simulate_uses_the_config_defaults(self):
        args = build_parser().parse_args(["simulate"])
        config = _simulate_config(_options(args))
        assert config == ExperimentConfig(problem="antiderivative", filter_kind="tikhonov")

    @pytest.mark.parametrize("command", ["reconstruct", "quantile-check"])
    def test_flag_free_seed_and_budget_are_the_config_defaults(self, command):
        opts = _options(build_parser().parse_args([command, "--sigma", "1e-3"]))
        default = ExperimentConfig(problem="antiderivative", filter_kind="tikhonov")
        assert opts["seed"] == default.seed
        if command == "reconstruct":
            assert (opts["beta"], opts["gamma"]) == (default.beta, default.gamma)

    def test_flags_and_config_values_are_typed(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"selectors": "solit,oracle", "theta": 3, "sigma_count": 4.0}))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_path), "--runs", "5"])
        config = _simulate_config(_options(args))
        assert config.selectors == ("solit", "oracle")
        assert config.theta == 3.0 and isinstance(config.theta, float)
        assert config.sigma_count == 4 and isinstance(config.sigma_count, int)
        assert config.runs == 5
