import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import copsurv as cs
from copsurv.censoring import impute_smc
from copsurv.cli import main
from copsurv.copulas import ClaytonFamily
from copsurv.dataio import load_csv, write_rows


def run(*args):
    return main([str(a) for a in args])


def read_meta(outdir):
    return json.loads((Path(outdir) / "run_meta.json").read_text())


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


@pytest.fixture
def sim_csv(tmp_path):
    assert run("simulate", "--seed", 11, "--n", 40,
               "--output-dir", tmp_path / "sim") == 0
    return tmp_path / "sim" / "data.csv"


@pytest.fixture
def mild_csv(tmp_path):
    """Lightly censored data whose posterior medians sit well inside the
    default grid."""
    assert run("simulate", "--seed", 4, "--n", 50, "--rate-c", 0.25,
               "--output-dir", tmp_path / "mild") == 0
    return tmp_path / "mild" / "data.csv"


class TestSimulate:
    def test_schema_roundtrip(self, sim_csv):
        data = load_csv(sim_csv)
        assert data.n == 40
        direct = cs.simulate_censored_exponential(40, 1.0, 2.0, seed=11)
        assert_allclose(data.times, direct.times)
        assert np.array_equal(data.status, direct.status)

    def test_deterministic(self, tmp_path):
        for name in ("a", "b"):
            assert run("simulate", "--seed", 3, "--n", 10,
                       "--output-dir", tmp_path / name) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


class TestFit:
    def test_smoke_matches_library(self, sim_csv, tmp_path):
        out = tmp_path / "fit"
        assert run("fit", "--seed", 11, "--input", sim_csv,
                   "--bandwidth", 1.0, "--n-particles", 200,
                   "--output-dir", out) == 0
        meta = read_meta(out)
        data = cs.permute(cs.standardize(load_csv(sim_csv)), 11)
        direct = impute_smc(data, ClaytonFamily(1.0), n_particles=200, seed=11)
        assert meta["log_marginal_likelihood"] == direct.log_z

    def test_fully_observed_diagnostics(self, tmp_path):
        data = cs.simulate_censored_exponential(20, 1.0, 1e-9, seed=2)
        path = tmp_path / "obs.csv"
        write_rows(path, ["time", "status"], zip(data.times, data.status))
        out = tmp_path / "fit"
        assert run("fit", "--seed", 1, "--input", path, "--bandwidth", 1.0,
                   "--n-particles", 64, "--output-dir", out) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _step, ess, _unique, resampled = row.split(",")
            assert float(ess) == pytest.approx(64.0, rel=1e-9)
            assert resampled == "0"

    def test_rerun_byte_identical(self, sim_csv, tmp_path):
        for name in ("f1", "f2"):
            assert run("fit", "--seed", 11, "--input", sim_csv,
                       "--bandwidth", 1.0, "--n-particles", 100,
                       "--output-dir", tmp_path / name) == 0
        assert dir_bytes(tmp_path / "f1") == dir_bytes(tmp_path / "f2")


class TestPosterior:
    def test_outputs_and_survival_at_origin(self, mild_csv, tmp_path):
        out = tmp_path / "post"
        assert run("posterior", "--seed", 7, "--input", mild_csv,
                   "--bandwidth", 1.0, "--n-particles", 100, "--n-extra", 200,
                   "--grid-size", 40, "--output-dir", out) == 0
        lines = (out / "survival_summary.csv").read_text().strip().splitlines()
        header, first = lines[0], lines[1]
        assert header == "time,mean,q2.5,q97.5"
        time0, mean0, lo0, hi0 = first.split(",")
        assert float(time0) == 0.0
        assert mean0 == "1.0"
        for name in ("density_summary.csv", "medians.csv", "w1_trace.csv",
                     "cdf_draws.csv", "diagnostics.csv", "run_meta.json"):
            assert (out / name).exists()

    def test_band_contains_mean(self, mild_csv, tmp_path):
        out = tmp_path / "post"
        assert run("posterior", "--seed", 7, "--input", mild_csv,
                   "--bandwidth", 1.0, "--n-particles", 150, "--n-extra", 300,
                   "--grid-size", 149, "--output-dir", out) == 0
        rows = np.loadtxt(out / "survival_summary.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape[0] == 149
        assert np.all(rows[:, 2] <= rows[:, 1] + 1e-12)
        assert np.all(rows[:, 1] <= rows[:, 3] + 1e-12)

    def test_zero_forward_steps_band_is_ensemble_spread(self, mild_csv, tmp_path):
        out = tmp_path / "post0"
        assert run("posterior", "--seed", 7, "--input", mild_csv,
                   "--bandwidth", 1.0, "--n-particles", 100, "--n-extra", 0,
                   "--grid-size", 30, "--output-dir", out) == 0
        rows = np.loadtxt(out / "w1_trace.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 2] == 0.0)

    def test_medians_row_count(self, mild_csv, tmp_path):
        out = tmp_path / "post"
        assert run("posterior", "--seed", 7, "--input", mild_csv,
                   "--bandwidth", 1.0, "--n-particles", 128, "--n-extra", 100,
                   "--grid-size", 30, "--output-dir", out) == 0
        lines = (out / "medians.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 128

    def test_rerun_byte_identical(self, mild_csv, tmp_path):
        for name in ("p1", "p2"):
            assert run("posterior", "--seed", 7, "--input", mild_csv,
                       "--bandwidth", 1.0, "--n-particles", 64,
                       "--n-extra", 100, "--grid-size", 25,
                       "--output-dir", tmp_path / name) == 0
        assert dir_bytes(tmp_path / "p1") == dir_bytes(tmp_path / "p2")


@pytest.fixture
def reg_csv(tmp_path):
    """Censored times with one covariate column, `thick`."""
    rng = np.random.default_rng(5)
    n = 60
    x = rng.normal(2.0, 1.0, size=n)
    y = np.exp(0.3 * (x - 2.0)) * rng.exponential(1.0, n)
    c = rng.exponential(2.0, n)
    path = tmp_path / "reg.csv"
    write_rows(path, ["time", "status", "thick"],
               zip(np.minimum(y, c), (y < c).astype(int), x))
    return path


class TestRegress:
    def test_three_targets_three_files(self, reg_csv, tmp_path):
        out = tmp_path / "reg"
        assert run("regress", "--seed", 3, "--input", reg_csv,
                   "--covariate-cols", "thick", "--family", "gaussian",
                   "--bandwidth", 0.6, "--rho-x", 0.7,
                   "--x-target", 1.5, "--x-target", 3.0, "--x-target", 4.0,
                   "--n-particles", 100, "--output-dir", out) == 0
        for idx in range(3):
            assert (out / f"conditional_x{idx}.csv").exists()

    def test_heldout_evaluation(self, reg_csv, tmp_path):
        out = tmp_path / "reg"
        assert run("regress", "--seed", 3, "--input", reg_csv,
                   "--covariate-cols", "thick", "--family", "gaussian",
                   "--bandwidth", 0.6, "--rho-x", 0.7, "--test-split", 0.5,
                   "--n-particles", 100, "--output-dir", out) == 0
        meta = read_meta(out)
        assert np.isfinite(meta["heldout_mean_log_lik"])

    def test_constant_covariate_matches_unconditional(self, tmp_path):
        """With a constant covariate and the degenerate rho_x = 0, the
        conditional pipeline reproduces the no-covariate pipeline byte for
        byte."""
        data = cs.simulate_censored_exponential(40, 1.0, 0.5, seed=9)
        path = tmp_path / "const.csv"
        write_rows(path, ["time", "status", "z"],
                   zip(data.times, data.status, np.full(data.n, 3.7)))
        out_cond = tmp_path / "cond"
        assert run("regress", "--seed", 2, "--input", path,
                   "--covariate-cols", "z", "--family", "clayton",
                   "--bandwidth", 1.0, "--rho-x", 0.0, "--x-target", 3.7,
                   "--n-particles", 100, "--grid-size", 30,
                   "--output-dir", out_cond) == 0
        out_plain = tmp_path / "plain"
        assert run("fit", "--seed", 2, "--input", path, "--bandwidth", 1.0,
                   "--n-particles", 100, "--grid-size", 30,
                   "--output-dir", out_plain) == 0
        assert ((out_cond / "conditional_x0.csv").read_bytes()
                == (out_plain / "predictive.csv").read_bytes())
        assert ((out_cond / "diagnostics.csv").read_bytes()
                == (out_plain / "diagnostics.csv").read_bytes())


class TestDoob:
    def test_row_count_and_ks(self, sim_csv, tmp_path):
        out = tmp_path / "doob"
        assert run("doob", "--seed", 11, "--input", sim_csv,
                   "--n-particles", 400, "--n-extra", 400,
                   "--output-dir", out) == 0
        lines = (out / "doob_samples.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 400
        meta = read_meta(out)
        assert 0.0 <= meta["ks_statistic"] <= 1.0
        quantiles = np.loadtxt(out / "doob_exact_quantiles.csv", delimiter=",",
                               skiprows=1)
        assert np.all(np.diff(quantiles[:, 1]) > 0)


class TestTuneCommand:
    def test_table_and_best(self, sim_csv, tmp_path):
        out = tmp_path / "tune"
        assert run("tune", "--seed", 11, "--input", sim_csv,
                   "--bandwidth-grid", "0.8,1.0,1.2", "--tune-particles", 100,
                   "--output-dir", out) == 0
        rows = (out / "tune_table.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3
        meta = read_meta(out)
        assert meta["best_bandwidth"] in (0.8, 1.0, 1.2)


class TestConfigAndErrors:
    def test_missing_seed_is_config_error(self, sim_csv, capsys):
        code = run("fit", "--input", sim_csv, "--bandwidth", 1.0)
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_missing_input_is_data_error(self, tmp_path):
        code = run("fit", "--seed", 1, "--input", tmp_path / "nope.csv",
                   "--bandwidth", 1.0, "--output-dir", tmp_path)
        assert code == 3

    @pytest.mark.parametrize("command, flag, value", [
        ("fit", "--n-particles", 1),
        ("fit", "--tune-particles", 1),
        ("fit", "--ess-frac", 2),
        ("fit", "--ess-frac", -0.1),
        ("fit", "--ess-frac", "nan"),
        ("fit", "--grid-size", 1),
        ("fit", "--grid-max", 0),
        ("posterior", "--n-extra", -1),
        ("posterior", "--trace-chains", -5),
        ("regress", "--test-split", 0),
        ("regress", "--test-split", 1),
        ("regress", "--n-extra", -1),
        ("regress", "--rho-x", 1.0),
        ("regress", "--rho-x-grid", "0.3,1.5"),
        ("tune", "--rho-x-grid", "0.3,-0.1"),
        ("doob", "--n-particles", 1),
        ("doob", "--n-extra", -1),
        ("doob", "--ess-frac", 1.5),
        ("tune", "--tune-particles", 1),
        ("fit", "--family", "frank"),
        ("tune", "--family", "frank"),
        # a bandwidth out of its family's range
        ("fit", "--bandwidth", -1),
        ("fit --family gaussian", "--bandwidth", 1.5),
        ("tune", "--bandwidth-grid", "0,1"),
        ("regress --family gaussian --rho-x 0.5 --x-target 1",
         "--bandwidth", 2),
    ])
    def test_out_of_range_value_fails_before_input_is_read(
            self, tmp_path, capsys, command, flag, value):
        # `command` is the subcommand and any options the value needs;
        # the input file does not exist, so reading it first would exit 3
        subcommand, *options = command.split()
        args = [subcommand, *options, "--seed", 1,
                "--input", tmp_path / "nope.csv",
                flag, value, "--output-dir", tmp_path / "out"]
        if subcommand == "regress":
            args += ["--covariate-cols", "x"]
        assert run(*args) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert flag in err["message"]
        assert not (tmp_path / "out").exists()

    def test_bad_rho_x_grid_fails_before_any_cell_is_scored(
            self, reg_csv, tmp_path, monkeypatch):
        def score(*args, **kwargs):
            raise AssertionError("a grid cell was scored")

        monkeypatch.setattr("copsurv.tune.impute_smc", score)
        out = tmp_path / "out"
        assert run("tune", "--seed", 1, "--input", reg_csv,
                   "--covariate-cols", "thick", "--rho-x-grid", "0.3,1.5",
                   "--output-dir", out) == 2
        assert not out.exists()

    def test_degenerate_run_exit_code(self, tmp_path):
        # the conjugate pipeline works on raw times, so an absurd
        # censoring time kills every particle's weight
        path = tmp_path / "bad.csv"
        write_rows(path, ["time", "status"], [(0.5, 1), (1e14, 0)])
        code = run("doob", "--seed", 1, "--input", path, "--a0", 1.0,
                   "--n-particles", 16, "--n-extra", 10,
                   "--output-dir", tmp_path / "o")
        assert code == 4

    def test_time_standardization_defuses_extreme_censoring(self, tmp_path):
        # the copula pipeline rescales times first, which keeps the same
        # record set well-conditioned
        path = tmp_path / "bad.csv"
        write_rows(path, ["time", "status"], [(0.5, 1), (1e14, 0)])
        code = run("fit", "--seed", 1, "--input", path, "--bandwidth", 1.0,
                   "--n-particles", 16, "--output-dir", tmp_path / "o")
        assert code == 0

    def test_config_file_flags_win(self, sim_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"input={sim_csv}\nbandwidth=0.8\nn-particles=64\nseed=11\n"
        )
        out_file = tmp_path / "from_file"
        assert run("fit", "--config", config, "--output-dir", out_file) == 0
        assert read_meta(out_file)["config"]["bandwidth"] == 0.8
        out_flag = tmp_path / "flag_wins"
        assert run("fit", "--config", config, "--bandwidth", 1.2,
                   "--output-dir", out_flag) == 0
        assert read_meta(out_flag)["config"]["bandwidth"] == 1.2

    def test_unknown_config_key(self, sim_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        assert run("fit", "--config", config, "--seed", 1, "--input", sim_csv,
                   "--bandwidth", 1.0, "--output-dir", tmp_path) == 2


class TestUnitRoundTrip:
    def test_prescaled_input_gives_rescaled_outputs(self, tmp_path):
        """Feeding times already on the standardized scale must reproduce
        the raw-input run once both are expressed in original units."""
        raw = cs.simulate_censored_exponential(30, 1.0, 1e-9, seed=6)
        theta_hat = raw.n_observed / raw.times.sum()
        paths = {}
        for name, times in (("raw", raw.times),
                            ("scaled", raw.times * theta_hat)):
            path = tmp_path / f"{name}.csv"
            write_rows(path, ["time", "status"], zip(times, raw.status))
            out = tmp_path / f"out_{name}"
            assert run("fit", "--seed", 2, "--input", path,
                       "--bandwidth", 1.0, "--n-particles", 32,
                       "--grid-size", 40, "--output-dir", out) == 0
            paths[name] = out
        a = np.loadtxt(paths["raw"] / "predictive.csv", delimiter=",",
                       skiprows=1)
        b = np.loadtxt(paths["scaled"] / "predictive.csv", delimiter=",",
                       skiprows=1)
        # pre-scaled outputs are on the scaled clock: map them back
        assert_allclose(b[:, 0] / theta_hat, a[:, 0], rtol=1e-10)
        assert_allclose(b[:, 1] * theta_hat, a[:, 1], rtol=1e-10, atol=1e-300)
        assert_allclose(b[:, 2:], a[:, 2:], rtol=1e-10, atol=1e-15)
