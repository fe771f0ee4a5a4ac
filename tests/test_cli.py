import inspect
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import copsurv as cs
from copsurv import copulas, dataio, rng, shards, tune
from copsurv.censoring import DEFAULT_ESS_FRAC, impute_smc
from copsurv.cli import (
    SUBCOMMANDS,
    _write_doob_tables,
    _write_posterior_summaries,
    main,
)
from copsurv.copulas import DEFAULT_RHO_GRID, ClaytonFamily
from copsurv.dataio import load_csv
from copsurv.errors import DegeneracyError
from copsurv.parametric import (
    ConjugateModel,
    conjugate_smc,
    doob_demo,
    ig_posterior_quantile,
)
from copsurv.tune import DEFAULT_TUNE_PARTICLES

from conftest import write_cells


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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_run(self, tmp_path, seed):
        assert run("simulate", "--seed", seed, "--n", 10,
                   "--output-dir", tmp_path / "out") == 0
        assert load_csv(tmp_path / "out" / "data.csv").n == 10


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
        write_cells(path, ["time", "status"], zip(data.times, data.status))
        out = tmp_path / "fit"
        assert run("fit", "--seed", 1, "--input", path, "--bandwidth", 1.0,
                   "--n-particles", 64, "--output-dir", out) == 0
        rows = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _step, ess, _unique, resampled = row.split(",")
            assert float(ess) == pytest.approx(64.0, rel=1e-9)
            assert resampled == "0"

    def test_every_tuning_cell_degenerate_exits_4(self, sim_csv, tmp_path,
                                                  monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise DegeneracyError("all particle weights vanished")

        monkeypatch.setattr(tune, "impute_smc", degenerate)
        out = tmp_path / "fit"
        assert run("fit", "--seed", 11, "--input", sim_csv,
                   "--bandwidth-grid", "0.5,0.9", "--output-dir", out) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "degeneracy",
                                   "message": "every grid cell degenerated"}
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("grid", [None, "0.8,1.2"])
    def test_kernel_elements_follow_the_formula(self, sim_csv, tmp_path,
                                                monkeypatch, grid):
        """Every element a fit absorbs passes the kernel seam, and their
        count is the pipeline's formula, exact on any host: per SMC pass
        of B particles over n records, B n(n-1)/2 survival elements and
        B times the observed records after each record, summed, with a
        density; per start row on the G grid points, B G n of each.  A
        tuning grid adds one pass of `--tune-particles` per cell."""
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: 1)
        seen = {True: 0, False: 0}
        kernel = copulas.clayton_density_and_partial

        def counted(s, v, a, **kwargs):
            seen[kwargs.get("density", True)] += np.size(s)
            return kernel(s, v, a, **kwargs)

        monkeypatch.setattr(copulas, "clayton_density_and_partial", counted)
        out = tmp_path / "fit"
        args = ["fit", "--seed", 11, "--input", sim_csv, "--grid-size", 20,
                "--n-particles", 64, "--tune-particles", 16]
        args += ["--bandwidth", 1.0] if grid is None else [
            "--bandwidth-grid", grid]
        assert run(*args, "--output-dir", out) == 0
        status = cs.permute(cs.standardize(load_csv(sim_csv)), 11).status
        n = status.size
        g = len((out / "predictive.csv").read_text().splitlines()) - 1
        passes = 64 + (0 if grid is None else 2 * 16)
        observed_after = int(np.sum(np.arange(n) * status))
        start_rows = 64 * g * n
        assert seen[True] + seen[False] == (passes * n * (n - 1) // 2
                                            + start_rows)
        assert seen[True] == passes * observed_after + start_rows

    def test_rerun_byte_identical(self, sim_csv, tmp_path):
        for name in ("f1", "f2"):
            assert run("fit", "--seed", 11, "--input", sim_csv,
                       "--bandwidth", 1.0, "--n-particles", 100,
                       "--output-dir", tmp_path / name) == 0
        assert dir_bytes(tmp_path / "f1") == dir_bytes(tmp_path / "f2")

    def test_byte_order_mark_changes_no_output(self, sim_csv, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark (Excel's "CSV UTF-8")
        fits to the same bytes as the file without one."""
        args = ("fit", "--seed", 11, "--input", sim_csv, "--bandwidth", 1.0,
                "--n-particles", 100, "--output-dir")
        assert run(*args, tmp_path / "plain") == 0
        sim_csv.write_bytes(b"\xef\xbb\xbf" + sim_csv.read_bytes())
        assert run(*args, tmp_path / "bom") == 0
        assert dir_bytes(tmp_path / "plain") == dir_bytes(tmp_path / "bom")


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

    def test_tuned_on_the_clayton_grid_with_no_traced_chain(self, mild_csv,
                                                            tmp_path):
        out = tmp_path / "post"
        grid = ",".join(repr(float(b)) for b in ClaytonFamily.tuning_grid)
        assert run("posterior", "--seed", 1, "--input", mild_csv,
                   "--bandwidth-grid", grid, "--trace-chains", 0,
                   "--tune-particles", 20, "--n-particles", 50,
                   "--n-extra", 10, "--grid-size", 20,
                   "--output-dir", out) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([
            "survival_summary.csv", "density_summary.csv", "medians.csv",
            "w1_trace.csv", "cdf_draws.csv", "diagnostics.csv",
            "run_meta.json"])
        assert (out / "w1_trace.csv").read_bytes() == b"chain,step,w1\r\n"

    def test_failed_writer_shard_exits_1_with_one_json_line(
            self, mild_csv, tmp_path, monkeypatch, capsys):
        # a value's repr fails only in a forked shard, first in that of
        # survival_summary.csv, the first table written
        parent = os.getpid()

        def fails_in_workers(value):
            if os.getpid() != parent:
                raise RuntimeError("repr failure in a worker")
            return repr(value)

        monkeypatch.setattr(dataio, "repr", fails_in_workers, raising=False)
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: 2)
        out = tmp_path / "post"
        assert run("posterior", "--seed", 7, "--input", mild_csv,
                   "--bandwidth", 1.0, "--n-particles", 64, "--n-extra", 20,
                   "--grid-size", 30, "--output-dir", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "error",
            "message": "the worker for survival_summary.csv rows 15:30 exited "
                       "with status 1: RuntimeError: repr failure in a worker"}
        assert not (out / "survival_summary.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    @staticmethod
    def _censored_run(tmp_path, rate_c, seed):
        # n = 40, B = 64, 100 forward steps, 30 points on the default grid
        sim = tmp_path / "sim"
        assert run("simulate", "--seed", seed, "--n", 40, "--rate-c", rate_c,
                   "--output-dir", sim) == 0
        out = tmp_path / "post"
        code = run("posterior", "--seed", seed, "--input", sim / "data.csv",
                   "--bandwidth", 0.9, "--n-particles", 64, "--n-extra", 100,
                   "--grid-size", 30, "--output-dir", out)
        return code, out

    def test_censored_medians_of_negligible_weight_exit_0(self, tmp_path):
        # simulate seed 4, n 40: 4 of 64 chains end below 1/2 at the top
        code, out = self._censored_run(tmp_path, 2.0, 4)
        assert code == 0
        medians = np.loadtxt(out / "medians.csv", delimiter=",", skiprows=1)
        assert (out / "medians.csv").read_bytes().startswith(
            b"median,weight,censored\r\n")
        censored = medians[:, 2] == 1
        top = np.loadtxt(out / "survival_summary.csv", delimiter=",",
                         skiprows=1)[-1, 0]
        assert censored.sum() == 4
        assert_allclose(medians[censored, 0], top, rtol=1e-12)
        assert np.all(medians[~censored, 0] < top)
        meta = read_meta(out)
        assert meta["censored_medians"] == 4
        assert meta["censored_weight"] == pytest.approx(
            medians[censored, 1].sum(), rel=1e-12)
        assert 0 < meta["censored_weight"] < 0.025

    def test_censored_weight_above_limit_exits_2_before_writing(
            self, tmp_path, capsys):
        # simulate seed 5, n 40, rate-c 4: 6 censored chains hold 0.128
        code, out = self._censored_run(tmp_path, 4.0, 5)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "6 of 64 chains, 0.128 of the weight" in err["message"]
        assert "--grid-max" in err["message"]
        assert list(out.iterdir()) == []

    def test_rerun_byte_identical(self, mild_csv, tmp_path):
        for name in ("p1", "p2"):
            assert run("posterior", "--seed", 7, "--input", mild_csv,
                       "--bandwidth", 1.0, "--n-particles", 64,
                       "--n-extra", 100, "--grid-size", 25,
                       "--output-dir", tmp_path / name) == 0
        assert dir_bytes(tmp_path / "p1") == dir_bytes(tmp_path / "p2")

    def test_w1_trace_writes_the_bytes_of_the_tuple_path(self, tmp_path):
        data = cs.permute(cs.standardize(
            cs.simulate_censored_exponential(30, 1.0, 2.0, seed=3)), 3)
        ensemble = impute_smc(data, ClaytonFamily(1.0), n_particles=16, seed=3)
        grid = cs.GridSpec(np.geomspace(0.01, 8.0, 12))
        draws = cs.martingale_posterior(ensemble, 40, grid, seed=2,
                                        trace_chains=3)
        scale = 1.7
        _write_posterior_summaries(tmp_path, draws, scale)
        write_cells(tmp_path / "tuples.csv", ["chain", "step", "w1"],
                    [(j, t, value / scale)
                     for j, trajectory in enumerate(draws.w1_trace)
                     for t, value in enumerate(trajectory)])
        written = (tmp_path / "w1_trace.csv").read_bytes()
        assert written.count(b"\r\n") == 1 + 3 * 41
        assert written == (tmp_path / "tuples.csv").read_bytes()

    def test_failed_row_worker_exits_1_with_one_json_line(
            self, mild_csv, tmp_path, monkeypatch, capsys):
        # the kernel fails only in forked row workers
        parent = os.getpid()
        kernel = copulas.clayton_density_and_partial

        def fails_in_workers(u, v, a, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("kernel failure in a worker")
            return kernel(u, v, a, **kwargs)

        monkeypatch.setattr(copulas, "clayton_density_and_partial",
                            fails_in_workers)
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: 2)
        assert run("posterior", "--seed", 7, "--input", mild_csv,
                   "--bandwidth", 1.0, "--n-particles", 64, "--n-extra", 20,
                   "--grid-size", 25, "--output-dir", tmp_path / "p") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "error",
            "message": "the worker for rows 32:64 exited with status 1: "
                       "RuntimeError: kernel failure in a worker"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def reg_csv(tmp_path):
    """Censored times with one covariate column, `thick`."""
    rng = np.random.default_rng(5)
    n = 60
    x = rng.normal(2.0, 1.0, size=n)
    y = np.exp(0.3 * (x - 2.0)) * rng.exponential(1.0, n)
    c = rng.exponential(2.0, n)
    path = tmp_path / "reg.csv"
    write_cells(path, ["time", "status", "thick"],
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

    def test_split_permutation_names_the_training_rows_of_the_csv(
            self, reg_csv, tmp_path):
        out = tmp_path / "reg"
        assert run("regress", "--seed", 3, "--input", reg_csv,
                   "--covariate-cols", "thick", "--bandwidth", 0.9,
                   "--rho-x", 0.5, "--test-split", 0.3,
                   "--n-particles", 40, "--output-dir", out) == 0
        meta = read_meta(out)
        raw = load_csv(reg_csv)
        perm = meta["permutation"]
        assert len(perm) == len(set(perm)) == raw.n - round(0.3 * raw.n)
        assert min(perm) >= 0 and max(perm) < raw.n
        # the training scale is estimated from exactly these CSV rows
        train = raw.times[perm]
        assert meta["scale_factor"] == pytest.approx(
            np.sum(raw.status[perm]) / train.sum(), rel=1e-12)

    def test_censored_medians_per_target(self, reg_csv, tmp_path):
        args = ["regress", "--seed", 3, "--input", reg_csv,
                "--covariate-cols", "thick", "--family", "gaussian",
                "--bandwidth", 0.6, "--rho-x", 0.7, "--x-target", 1.5,
                "--x-target", 3.0, "--n-extra", 20, "--n-particles", 40,
                "--grid-size", 20]
        out = tmp_path / "reg"
        assert run(*args, "--output-dir", out) == 0
        meta = read_meta(out)
        assert len(meta["censored_medians"]) == len(meta["censored_weight"]) == 2
        for idx in range(2):
            table = np.loadtxt(out / f"posterior_x{idx}_medians.csv",
                               delimiter=",", skiprows=1)
            assert table[:, 2].sum() == meta["censored_medians"][idx]
        # a grid top far below the data censors every chain of the first
        # target: the run stops before any file is written
        short = tmp_path / "short"
        assert run(*args, "--grid-max", 1e-3, "--output-dir", short) == 2
        assert list(short.iterdir()) == []

    def test_constant_covariate_matches_unconditional(self, tmp_path):
        """With a constant covariate and the degenerate rho_x = 0, the
        conditional pipeline reproduces the no-covariate pipeline byte for
        byte."""
        data = cs.simulate_censored_exponential(40, 1.0, 0.5, seed=9)
        path = tmp_path / "const.csv"
        write_cells(path, ["time", "status", "z"],
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

    def test_tables_write_the_bytes_of_the_tuple_path(self, tmp_path):
        data = cs.permute(cs.simulate_censored_exponential(30, 1.0, 2.0,
                                                           seed=3), 3)
        result = doob_demo(ConjugateModel(1.5), data, 50, 40, seed=2)
        _write_doob_tables(tmp_path, result)
        qs = np.linspace(0.005, 0.995, 199)
        tuples = {
            "doob_samples.csv": (["theta_bar", "weight"],
                                 list(zip(result.theta_bar,
                                          result.ensemble.weights))),
            "doob_exact_quantiles.csv": (
                ["q", "theta"],
                list(zip(qs, ig_posterior_quantile(result.posterior, qs)))),
        }
        for name, (header, rows) in tuples.items():
            write_cells(tmp_path / "tuples.csv", header, rows)
            written = (tmp_path / name).read_bytes()
            assert written.count(b"\r\n") == 1 + len(rows)
            assert written == (tmp_path / "tuples.csv").read_bytes(), name

    def test_failed_chain_worker_exits_1_with_one_json_line(
            self, sim_csv, tmp_path, monkeypatch, capsys):
        # the forward uniforms fail only in the forked chain worker
        parent = os.getpid()
        uniforms = rng.uniforms

        def fails_in_workers(seed, tag, *args):
            if tag == rng.STREAM_FORWARD and os.getpid() != parent:
                raise RuntimeError("uniforms failure in a worker")
            return uniforms(seed, tag, *args)

        monkeypatch.setattr(rng, "uniforms", fails_in_workers)
        monkeypatch.setattr(shards, "_worker_count",
                            lambda n_items, min_items: 2)
        assert run("doob", "--seed", 11, "--input", sim_csv,
                   "--n-particles", 64, "--n-extra", 20,
                   "--output-dir", tmp_path / "d") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "error",
            "message": "the worker for chains 32:64 exited with status 1: "
                       "RuntimeError: uniforms failure in a worker"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestTuneCommand:
    def test_table_and_best(self, sim_csv, tmp_path, capsys):
        out = tmp_path / "tune"
        assert run("tune", "--seed", 11, "--input", sim_csv,
                   "--bandwidth-grid", "0.8,1.0,1.2", "--tune-particles", 100,
                   "--output-dir", out) == 0
        rows = (out / "tune_table.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3
        meta = read_meta(out)
        assert meta["best_bandwidth"] in (0.8, 1.0, 1.2)
        assert capsys.readouterr().out == (
            f"selected bandwidth {meta['best_bandwidth']!r} "
            f"(score {meta['best_score']!r})\n")

    def test_covariates_tune_rho_x_on_the_default_grid(self, reg_csv,
                                                       tmp_path, capsys):
        # without --rho-x-grid, rho_x is tuned as `regress` tunes it
        out = tmp_path / "tune"
        assert run("tune", "--seed", 3, "--input", reg_csv,
                   "--covariate-cols", "thick", "--bandwidth-grid", "0.8,1.2",
                   "--tune-particles", 30, "--output-dir", out) == 0
        table = np.loadtxt(out / "tune_table.csv", delimiter=",", skiprows=1)
        assert table.shape == (2 * len(DEFAULT_RHO_GRID), 4)
        assert set(table[:, 1]) == set(DEFAULT_RHO_GRID)
        meta = read_meta(out)
        assert meta["best_rho_x"] in DEFAULT_RHO_GRID
        # the stdout line names the tuned rho_x next to the bandwidth
        assert capsys.readouterr().out == (
            f"selected bandwidth {meta['best_bandwidth']!r}, "
            f"rho_x {meta['best_rho_x']!r} (score {meta['best_score']!r})\n")

    def test_tune_particle_defaults_are_the_tuning_default(self):
        """Every --tune-particles option defaults to the particle count
        `grid_search` takes when none is given."""
        defaults = {command: opt.default
                    for command, opts in SUBCOMMANDS.items()
                    for opt in opts if opt.name == "tune-particles"}
        assert defaults.keys() == {"fit", "posterior", "regress", "tune"}
        assert set(defaults.values()) == {DEFAULT_TUNE_PARTICLES}

    def test_ess_frac_defaults_are_the_sampler_default(self):
        """Every --ess-frac option, and every sampler that takes an
        ess_frac, defaults to the one resampling threshold."""
        defaults = {command: opt.default
                    for command, opts in SUBCOMMANDS.items()
                    for opt in opts if opt.name == "ess-frac"}
        assert defaults.keys() == {"fit", "posterior", "regress", "doob"}
        for sampler in (impute_smc, conjugate_smc, doob_demo):
            params = inspect.signature(sampler).parameters
            defaults[sampler.__name__] = params["ess_frac"].default
        assert set(defaults.values()) == {DEFAULT_ESS_FRAC}


def readme_experiment_commands():
    """The `copsurv` command lines of README's "Experiments" section, in
    order, as argument lists without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Experiments", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("copsurv ")]


class TestExperiments:
    # README's lines at tiny sizes: each size option added after the
    # line's own, and with argparse the last value wins
    SIZES = {"doob": ["--n-particles", 100, "--n-extra", 20],
             "posterior": ["--tune-particles", 20, "--n-particles", 50,
                           "--n-extra", 10, "--grid-size", 20]}

    def test_readme_lists_the_experiment_commands(self):
        assert [args[0] for args in readme_experiment_commands()] == [
            "simulate", "doob", "posterior"]

    def test_readme_experiment_lines_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # the pipeline line reads the quick-start's data/data.csv
        assert run("simulate", "--seed", 1, "--n", 30,
                   "--output-dir", "data") == 0
        for args in readme_experiment_commands():
            assert run(*args, *self.SIZES.get(args[0], [])) == 0, args
        assert (tmp_path / "doob" / "doob_samples.csv").exists()
        assert (tmp_path / "pipeline" / "w1_trace.csv").read_bytes() == (
            b"chain,step,w1\r\n")


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
        ("doob", "--a0", -1),
        ("doob", "--a0", 0),
        ("doob", "--b0", 0),
        ("tune", "--tune-particles", 1),
        ("fit", "--family", "frank"),
        ("tune", "--family", "frank"),
        # a bandwidth out of its family's range
        ("fit", "--bandwidth", -1),
        ("fit --family gaussian", "--bandwidth", 1.5),
        ("tune", "--bandwidth-grid", "0,1"),
        ("regress --family gaussian --rho-x 0.5 --x-target 1",
         "--bandwidth", 2),
        # options that contradict each other
        ("regress", "--x-target", "1,2"),
        ("regress --x-target 1", "--x-target", "0.5,1"),
        ("tune", "--rho-x-grid", "0.3"),
        # a pinned value together with its grid
        ("fit --bandwidth 0.9", "--bandwidth-grid", "0.5,0.7"),
        ("posterior --bandwidth-grid 0.5,0.7", "--bandwidth", 0.9),
        ("regress --x-target 1 --rho-x 0.5", "--rho-x-grid", "0.3,0.6"),
        ("regress --test-split 0.3 --bandwidth 0.9 --rho-x 0.5 "
         "--rho-x-grid 0.3", "--bandwidth-grid", "0.5,0.7"),
        # an empty comma list
        ("fit", "--bandwidth-grid", ","),
        ("posterior", "--bandwidth-grid", ","),
        ("tune", "--bandwidth-grid", ","),
        ("regress --test-split 0.3", "--rho-x-grid", ","),
        ("regress --test-split 0.3", "--bandwidth-grid", ","),
        ("regress", "--x-target", ","),
        ("regress --test-split 0.3", "--covariate-cols", ""),
        # an option without the option it needs
        ("regress --test-split 0.3", "--n-extra", 50),
        # a float that is not finite
        ("regress", "--x-target", "nan"),
        ("posterior", "--grid-max", "inf"),
        ("fit", "--bandwidth", "inf"),
        # a seed outside the 64 bits that key the streams
        ("fit", "--seed", -1),
        ("fit", "--seed", 2**64),
        ("doob", "--seed", -1),
        ("tune", "--seed", 2**64),
        # what argparse itself rejects: an unknown flag, a value that
        # reads as a flag, a value of the wrong type
        ("fit", "--bogus", 1),
        ("regress", "--x-target", "-1,1"),
        ("fit", "--n-particles", "abc"),
    ])
    def test_out_of_range_value_fails_before_input_is_read(
            self, tmp_path, capsys, command, flag, value):
        # `command` is the subcommand and any options the value needs;
        # the input file does not exist, so reading it first would exit 3
        subcommand, *options = command.split()
        if subcommand == "regress":  # a row's own flag overrides this
            options += ["--covariate-cols", "x"]
        args = [subcommand, *options, "--seed", 1,
                "--input", tmp_path / "nope.csv",
                flag, value, "--output-dir", tmp_path / "out"]
        assert run(*args) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert flag in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output_dir", ["taken", "taken/sub"])
    def test_unusable_output_dir_is_config_error(self, tmp_path, capsys,
                                                 output_dir):
        """An output directory that is a file, or lies under one, is one
        JSON config line, not a traceback."""
        (tmp_path / "taken").write_text("")
        assert run("simulate", "--seed", 1, "--n", 10,
                   "--output-dir", tmp_path / output_dir) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "--output-dir" in err["message"]

    @pytest.mark.parametrize("flag, value", [
        ("--seed", -3), ("--seed", 2**64), ("--n", 0), ("--rate-y", 0),
        ("--rate-c", -1)])
    def test_simulate_value_out_of_range_is_config_error(self, tmp_path,
                                                         capsys, flag, value):
        # with argparse the last value of a repeated flag wins
        assert run("simulate", "--seed", 1, "--n", 10, flag, value,
                   "--output-dir", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert flag in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["", "nodir/x.csv", ".", ".."])
    def test_simulate_out_name_must_be_a_file_name(self, tmp_path, capsys,
                                                   name):
        """An empty --out-name or one with a directory part exits 2 with
        one JSON config line, before the output directory is made."""
        assert run("simulate", "--seed", 1, "--n", 5, "--out-name", name,
                   "--output-dir", tmp_path / "out") == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert "--out-name" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_regress_without_target_or_split_fails_before_input_is_read(
            self, tmp_path, capsys):
        assert run("regress", "--seed", 1, "--input", tmp_path / "nope.csv",
                   "--covariate-cols", "x",
                   "--output-dir", tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"
        assert "--x-target" in err["message"]
        assert "--test-split" in err["message"]
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
        write_cells(path, ["time", "status"], [(0.5, 1), (1e14, 0)])
        code = run("doob", "--seed", 1, "--input", path, "--a0", 1.0,
                   "--n-particles", 16, "--n-extra", 10,
                   "--output-dir", tmp_path / "o")
        assert code == 4

    def test_degeneracy_names_the_input_row(self, tmp_path, capsys):
        """The record that kills every weight is the second of the
        permuted order, and the message names its CSV row too."""
        path = tmp_path / "bad.csv"
        path.write_text("time,status\n1e300,0\n1.0,1\n0.5,1\n")
        assert run("doob", "--seed", 16, "--input", path, "--a0", 1.0,
                   "--n-particles", 100, "--n-extra", 10,
                   "--output-dir", tmp_path / "o") == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "degeneracy"
        assert err["message"].endswith("at record 2 (input row 1)")

    def test_time_standardization_defuses_extreme_censoring(self, tmp_path):
        # the copula pipeline rescales times first, which keeps the same
        # record set well-conditioned
        path = tmp_path / "bad.csv"
        write_cells(path, ["time", "status"], [(0.5, 1), (1e14, 0)])
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

    @pytest.mark.parametrize("command, line", [
        ("fit --seed 1", "n-particles=abc"),
        ("fit", "seed=1.5"),
        ("fit --seed 1", "bandwidth-grid=0.5,x"),
        ("regress --seed 1 --covariate-cols x", "x-target=1;a"),
    ])
    def test_config_value_of_the_wrong_type_fails_before_input_is_read(
            self, tmp_path, capsys, command, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n")
        subcommand, *options = command.split()
        assert run(subcommand, *options, "--config", config,
                   "--input", tmp_path / "nope.csv",
                   "--output-dir", tmp_path / "out") == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert f"--{line.split('=')[0]}" in err["message"]
        assert str(config) in err["message"]
        assert not (tmp_path / "out").exists()

    def test_config_file_with_byte_order_mark(self, sim_csv, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bandwidth=0.8\nn-particles=64\n",
                          encoding="utf-8-sig")
        assert run("fit", "--config", config, "--seed", 11, "--input",
                   sim_csv, "--output-dir", tmp_path / "out") == 0
        assert read_meta(tmp_path / "out")["config"]["bandwidth"] == 0.8

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
            write_cells(path, ["time", "status"], zip(times, raw.status))
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
