import csv
import functools
import json
import math
import shutil

import numpy as np
import pytest

from solit import ExperimentConfig, testproblems
from solit.cli import _merge_simulate_options, _simulate_config, build_parser, main


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
            ("quantile-check", "--problem", "heat", "--n", "12", "--sigma", "1e-2", "--seed", "-1"),
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
        config = {"problem": "heat", "filter_kind": "tikhonov", "selectors": []}
        records = {
            "empty": {},
            "list": [1],
            "no-grids": {"config": config},
            "no-selectors": {"config": {"problem": "heat", "filter_kind": "tikhonov"}, "grids": []},
            "unknown-key": {"config": {**config, "bogus": 1}, "grids": []},
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


def _empty_grid_entries(path):
    meta = json.loads(path.read_text())
    meta["grids"] = [{} for _ in meta["grids"]]
    path.write_text(json.dumps(meta))


class TestIncompleteResults:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("complete") / "res"
        argv = ["simulate", "--problem", "antiderivative", "--n", "64", "--filter", "tikhonov",
                "--runs", "4", "--sigma-start", "1e-2", "--sigma-stop", "1e-3", "--sigma-count", "3",
                "--seed", "7", "--out", str(out_dir)]
        assert main(argv) == 0
        assert main(["rates", "--in", str(out_dir), "--model", "poly"]) == 0
        return out_dir

    @pytest.mark.parametrize(
        ("damage", "message"),
        [
            (lambda d: _empty_grid_entries(d / "meta.json"), "grid entry 0 needs the keys"),
            (lambda d: _drop_column(d / "grid_001.csv", "v_m"), "grid_001.csv lacks the columns ['v_m']"),
            (lambda d: _drop_column(d / "results.csv", "poa"), "results.csv lacks the columns ['poa']"),
            (lambda d: _drop_column(d / "selections.csv", "count"),
             "selections.csv lacks the columns ['count']"),
            (lambda d: _extra_noise_level(d / "results.csv"), "more noise levels than"),
            (lambda d: _append_row(d / "selections.csv", ["0.01", "bogus", "0", "1"]), "matches no histogram"),
            (lambda d: _append_row(d / "selections.csv", ["0.01", "solit", "99", "1"]), "matches no histogram"),
        ],
        ids=["meta-grids", "grid-csv", "results-csv", "selections-csv", "extra-sigma", "unknown-selector",
             "index-out-of-range"],
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
        config = _simulate_config(_merge_simulate_options(args))
        assert config == ExperimentConfig(problem="antiderivative", filter_kind="tikhonov")

    def test_flags_and_config_values_are_typed(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"selectors": "solit,oracle", "theta": 3, "sigma_count": 4.0}))
        args = build_parser().parse_args(["simulate", "--config", str(cfg_path), "--runs", "5"])
        config = _simulate_config(_merge_simulate_options(args))
        assert config.selectors == ("solit", "oracle")
        assert config.theta == 3.0 and isinstance(config.theta, float)
        assert config.sigma_count == 4 and isinstance(config.sigma_count, int)
        assert config.runs == 5
