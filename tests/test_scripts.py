"""Smoke runs of the experiment scripts at tiny sizes: each must exit 0
and write its files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import copsurv as cs
from copsurv.dataio import write_rows

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


def assert_written(out, names):
    for name in names:
        path = out / name
        assert path.is_file() and path.stat().st_size > 0, name


@pytest.fixture
def data_csv(tmp_path):
    data = cs.simulate_censored_exponential(30, 1.0, 2.0, seed=7)
    path = tmp_path / "data.csv"
    write_rows(path, ["time", "status"], zip(data.times, data.status))
    return path


def test_survival_pipeline(data_csv, tmp_path):
    out = tmp_path / "pipeline"
    run_script("survival_pipeline.py", data_csv, "--seed", 1,
               "--particles", 50, "--n-extra", 10, "--grid-size", 20,
               "--grid-max", 100, "--out", out, cwd=tmp_path)
    assert_written(out, ["survival_summary.csv", "medians.csv",
                         "diagnostics.csv"])


def test_doob_consistency(tmp_path):
    out = tmp_path / "doob"
    run_script("doob_consistency.py", "--n", 20, "--particles", 200,
               "--n-extra", 50, "--out", out, cwd=tmp_path)
    assert_written(out, ["doob_samples.csv", "doob_exact_quantiles.csv",
                         "diagnostics.csv"])


def test_ordering_ess(tmp_path):
    stdout = run_script("ordering_ess.py", "--seeds", 2, "--n", 20,
                        "--particles", 100, cwd=tmp_path)
    assert "median ESS" in stdout
