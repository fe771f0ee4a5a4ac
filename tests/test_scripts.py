"""Runs of the experiment scripts at tiny sizes: each must exit 0 and
write its files, and a script that repeats a CLI pipeline must write the
CLI's bytes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import copsurv as cs
from copsurv.cli import SUBCOMMANDS, main
from copsurv.dataio import write_rows
from copsurv.tune import DEFAULT_TUNE_PARTICLES

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_same_files(out, cli_out, names):
    """`out` holds exactly `names`, each byte-equal to the CLI's file."""
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).read_bytes() == (cli_out / name).read_bytes(), name


def run_cli(*args):
    assert main([str(a) for a in args]) == 0


@pytest.fixture
def data_csv(tmp_path):
    data = cs.simulate_censored_exponential(30, 1.0, 2.0, seed=7)
    path = tmp_path / "data.csv"
    write_rows(path, ["time", "status"], zip(data.times, data.status))
    return path


def test_survival_pipeline(data_csv, tmp_path):
    # the script tunes the bandwidth on the Clayton grid and traces no
    # chain: `posterior` given that grid and --trace-chains 0
    sizes = ["--n-extra", 10, "--grid-size", 20, "--grid-max", 100]
    out = tmp_path / "pipeline"
    run_script("survival_pipeline.py", data_csv, "--seed", 1,
               "--particles", 50, *sizes, "--out", out, cwd=tmp_path)
    cli_out = tmp_path / "cli"
    grid = ",".join(repr(float(b)) for b in cs.ClaytonFamily.tuning_grid)
    run_cli("posterior", "--seed", 1, "--input", data_csv,
            "--bandwidth-grid", grid, "--trace-chains", 0,
            "--n-particles", 50, *sizes, "--output-dir", cli_out)
    assert_same_files(out, cli_out, [
        "survival_summary.csv", "density_summary.csv", "medians.csv",
        "w1_trace.csv", "cdf_draws.csv", "diagnostics.csv"])


def test_doob_consistency(tmp_path):
    # the script simulates in memory what `simulate` writes to a file
    sizes = ["--n-extra", 50]
    out = tmp_path / "doob"
    run_script("doob_consistency.py", "--seed", 106, "--n", 20,
               "--particles", 200, *sizes, "--out", out, cwd=tmp_path)
    run_cli("simulate", "--seed", 106, "--n", 20,
            "--output-dir", tmp_path / "sim")
    cli_out = tmp_path / "cli"
    run_cli("doob", "--seed", 106, "--input", tmp_path / "sim" / "data.csv",
            "--n-particles", 200, *sizes, "--output-dir", cli_out)
    assert_same_files(out, cli_out, [
        "doob_samples.csv", "doob_exact_quantiles.csv", "diagnostics.csv"])


def test_ordering_ess(tmp_path):
    stdout = run_script("ordering_ess.py", "--seeds", 2, "--n", 20,
                        "--particles", 100, cwd=tmp_path)
    assert "median ESS" in stdout


@pytest.mark.parametrize("script, option, command, cli_option", [
    ("doob_consistency.py", "particles", "doob", "n-particles"),
    ("doob_consistency.py", "n-extra", "doob", "n-extra"),
    ("survival_pipeline.py", "particles", "posterior", "n-particles"),
    ("survival_pipeline.py", "n-extra", "posterior", "n-extra"),
    ("ordering_ess.py", "particles", "doob", "n-particles"),
])
def test_size_defaults_are_those_of_the_cli(script, option, command,
                                            cli_option):
    spec = importlib.util.spec_from_file_location(
        Path(script).stem, ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    default = module.build_parser().get_default(option.replace("-", "_"))
    cli_defaults = {opt.name: opt.default for opt in SUBCOMMANDS[command]}
    assert default == cli_defaults[cli_option]


def test_tune_particle_defaults_are_the_tuning_default():
    """Every --tune-particles option defaults to the particle count a
    `TuneGrid` takes when none is given, as survival_pipeline.py does."""
    defaults = {command: opt.default for command, opts in SUBCOMMANDS.items()
                for opt in opts if opt.name == "tune-particles"}
    assert defaults.keys() == {"fit", "posterior", "regress", "tune"}
    assert set(defaults.values()) == {DEFAULT_TUNE_PARTICLES}
