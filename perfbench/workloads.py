"""Seeded inputs, CLI invocations and output checks for each workload.

Everything here is the benchmark's own code: inputs are drawn with numpy
from the workload seed, the program only ever sees the written CSV, and
the checks read the files the program wrote and compare them with
references computed here (closed forms, scipy), never with copsurv.
This module must not import copsurv: the set-up probe times that import
separately.

Workloads and why each was chosen:

* posterior -- the README `posterior` pipeline on the standard test-bed
  (Exp(1) event times censored by Exp(2)).  The martingale posterior
  (Fong & Lehmann 2022; Fong, Holmes & Walker 2023) is the largest part:
  the Clayton kernel on (B x G)-element arrays in the start rows and the
  forward pass, plus the W1 trace every step.  SMC is small; no tuning.
* tune_fit -- `fit` with a bandwidth grid on a larger test-bed.  SMC
  imputation and the grid search do all the work: many kernel calls on
  B-element arrays, bound by per-call overhead.  No forward pass, so this
  is the control for forward-pass changes.
* regress -- `regress --family gaussian` with one covariate of known
  conditional hazard: the Gaussian kernel (ndtri/ndtr), per-chain
  covariate weights with bootstrap picks, start rows computed twice per
  target, held-out scoring and a larger share of CSV writing.
* oracle -- `doob` under the exact conjugate model: the shared SMC loop
  and a forward loop with no copula kernel, so it is the control for
  every kernel change, and it carries an exact reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

# Generating model of the standard test-bed.
RATE_Y = 1.0
RATE_C = 2.0
# Regression model: T | x ~ Exp(exp(BETA * x)), x ~ N(0, 1), censoring
# Exp(RATE_C_REGRESS).
BETA = 0.5
RATE_C_REGRESS = 1.0
X_TARGETS = (-1.0, 0.0, 1.0)

# Output checks: a run whose outputs fail one of these counts as failed.
# The oracle tolerances are those of acceptance criteria 1 and 2.  The
# survival-error limits are gross-error limits, several times the largest
# error seen over many seeds at these sizes.
ORACLE_KS_TOL = 0.05
ORACLE_LOGZ_REL_TOL = 0.01
SURV_SUP_ERR_TOL = {"posterior": 0.35, "tune_fit": 0.35, "regress": 0.4}
HELDOUT_LL_SLACK = 2.0  # nats below the generating model's mean log-lik


@dataclass(frozen=True)
class Sizes:
    n: int
    particles: int
    n_extra: int = 0
    grid_size: int = 100
    tune_particles: int = 0


FULL = {
    "posterior": Sizes(n=100, particles=2000, n_extra=200, grid_size=149),
    "tune_fit": Sizes(n=100, particles=2000, tune_particles=1000),
    "regress": Sizes(n=120, particles=500, n_extra=150),
    "oracle": Sizes(n=200, particles=20000, n_extra=2000),
}

# A few seconds for all four together; used by the self-tests.
TINY = {
    "posterior": Sizes(n=20, particles=100, n_extra=20, grid_size=40),
    "tune_fit": Sizes(n=20, particles=100, tune_particles=60),
    "regress": Sizes(n=30, particles=60, n_extra=10, grid_size=30),
    "oracle": Sizes(n=40, particles=2000, n_extra=1000),
}

WORKLOAD_TAGS = {"posterior": 1, "tune_fit": 2, "regress": 3, "oracle": 4}
BANDWIDTH_GRID = "0.5,0.7,0.9,1.1,1.3"


@dataclass
class Inputs:
    """One workload's generated data and what the checks need of it."""

    times: np.ndarray
    status: np.ndarray
    covariate: np.ndarray | None = None
    columns: tuple = ("time", "status")

    @property
    def max_time(self) -> float:
        return float(self.times.max())


@dataclass
class CheckResult:
    metrics: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def make_inputs(workload: str, seed: int, sizes: Sizes) -> Inputs:
    """Draw the workload's dataset from its seed (same seed, same data)."""
    gen = np.random.default_rng([WORKLOAD_TAGS[workload], seed])
    n = sizes.n
    if workload == "regress":
        x = gen.standard_normal(n)
        y = gen.exponential(1.0 / np.exp(BETA * x))
        c = gen.exponential(1.0 / RATE_C_REGRESS, n)
        return Inputs(times=np.minimum(y, c), status=(y < c).astype(int),
                      covariate=x, columns=("time", "status", "x"))
    y = gen.exponential(1.0 / RATE_Y, n)
    c = gen.exponential(1.0 / RATE_C, n)
    return Inputs(times=np.minimum(y, c), status=(y < c).astype(int))


def write_inputs(inputs: Inputs, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(inputs.columns)
        cols = [inputs.times, inputs.status]
        if inputs.covariate is not None:
            cols.append(inputs.covariate)
        for row in zip(*cols):
            writer.writerow([repr(float(row[0])), int(row[1]),
                             *(repr(float(v)) for v in row[2:])])


def grid_max(inputs: Inputs) -> float:
    """A grid top far past the data: the default (1.5x the largest time)
    aborts `posterior` (see `chains_below_half`)."""
    return 1000.0 * inputs.max_time


def argv(workload: str, sizes: Sizes, inputs: Inputs, input_path: str,
         out_dir: str, seed: int) -> list:
    """The CLI arguments of one invocation."""
    common = ["--seed", str(seed), "--input", input_path,
              "--output-dir", out_dir, "--n-particles", str(sizes.particles)]
    if workload == "posterior":
        return ["posterior", *common, "--bandwidth", "0.9",
                "--grid-size", str(sizes.grid_size),
                "--n-extra", str(sizes.n_extra),
                "--grid-max", repr(grid_max(inputs))]
    if workload == "tune_fit":
        return ["fit", *common, "--bandwidth-grid", BANDWIDTH_GRID,
                "--tune-particles", str(sizes.tune_particles),
                "--grid-size", str(sizes.grid_size)]
    if workload == "regress":
        targets = []
        for x in X_TARGETS:
            targets += ["--x-target", repr(x)]
        return ["regress", *common, "--family", "gaussian",
                "--bandwidth", "0.5", "--rho-x", "0.5",
                "--covariate-cols", "x", *targets, "--test-split", "0.3",
                "--n-extra", str(sizes.n_extra),
                "--grid-size", str(sizes.grid_size),
                "--grid-max", repr(grid_max(inputs))]
    if workload == "oracle":
        return ["doob", *common, "--n-extra", str(sizes.n_extra)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------

def read_table(path: Path):
    """(header, float matrix) of a numeric CSV written by the program."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.shape[1] != len(rows[0]) or not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: ragged or non-finite table")
    return rows[0], data


def output_digests(out_dir: Path) -> dict:
    """sha256 of every file the invocation wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# Accuracy metrics (pure functions, unit-tested)
# ---------------------------------------------------------------------------

def surv_sup_err(times, survival, truth, t_max) -> float:
    """sup over grid points in (0, t_max] of |survival - truth|."""
    times = np.asarray(times, dtype=float)
    inside = (times > 0) & (times <= t_max)
    if not inside.any():
        raise ValueError("no grid point inside the data range")
    return float(np.max(np.abs(np.asarray(survival)[inside] - truth[inside])))


def band_cov(times, lo, hi, truth, t_max) -> float:
    """Share of grid points in (0, t_max] whose band [lo, hi] holds truth."""
    times = np.asarray(times, dtype=float)
    inside = (times > 0) & (times <= t_max)
    if not inside.any():
        raise ValueError("no grid point inside the data range")
    held = (np.asarray(lo) <= truth) & (truth <= np.asarray(hi))
    return float(np.mean(held[inside]))


def weighted_ks(values, weights, cdf) -> float:
    """Kolmogorov-Smirnov distance between a weighted sample and a CDF."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    cum = np.cumsum(np.asarray(weights, dtype=float)[order])
    cum /= cum[-1]
    exact = cdf(v)
    before = np.concatenate([[0.0], cum[:-1]])
    return float(max(np.max(np.abs(cum - exact)),
                     np.max(np.abs(before - exact))))


def conjugate_log_marginal(a0, b0, n_observed, total_time) -> float:
    """Closed-form log marginal of censored exponential data under an
    IG(a0, b0) prior on the mean."""
    return float(special.gammaln(a0 + n_observed) - special.gammaln(a0)
                 + a0 * math.log(b0)
                 - (a0 + n_observed) * math.log(b0 + total_time))


def chains_below_half(cdf_grid, cdf_rows, weights, top):
    """(count, weight) of chains whose CDF, interpolated at `top`, is
    below 1/2: the chains that abort a run on the default grid."""
    at_top = np.array([np.interp(top, cdf_grid, row) for row in cdf_rows])
    below = at_top < 0.5
    return int(below.sum()), float(np.sum(np.asarray(weights)[below]))


def exp_mean_log_lik(times, status, rates) -> float:
    """Mean log-likelihood of censored records under Exp(rates)."""
    times = np.asarray(times, dtype=float)
    log_surv = -rates * times
    return float(np.mean(np.where(np.asarray(status) == 1,
                                  np.log(rates) + log_surv, log_surv)))


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------

def _curve_errors(result, tables, inputs, truth_fn):
    """Sup error of each table's survival column and, for tables with a
    95% band, its coverage; flags columns that are not survival curves.
    `tables` holds (path, survival column, covariate target or None)."""
    errs, covs = [], []
    for path, column, x in tables:
        header, data = read_table(path)
        t = data[:, 0]
        truth = truth_fn(t, x)
        surv = data[:, header.index(column)]
        if (np.any(np.diff(surv) > 1e-12) or surv.min() < -1e-12
                or surv.max() > 1 + 1e-12):
            result.failures.append(f"{path.name}: {column} is not a "
                                   "non-increasing curve in [0, 1]")
        errs.append(surv_sup_err(t, surv, truth, inputs.max_time))
        if "q2.5" in header:
            covs.append(band_cov(t, data[:, header.index("q2.5")],
                                 data[:, header.index("q97.5")], truth,
                                 inputs.max_time))
    return errs, covs


def _sup_err_check(result, workload, errs):
    result.metrics["surv_sup_err"] = max(errs)
    if max(errs) > SURV_SUP_ERR_TOL[workload]:
        result.failures.append(f"surv_sup_err {max(errs):.4f} above "
                               f"{SURV_SUP_ERR_TOL[workload]}")


def _default_top_check(result, cdf_draw_files, inputs):
    count, weight = 0, 0.0
    for path in cdf_draw_files:
        header, data = read_table(path)
        grid = np.array([float(h) for h in header[1:]])
        c, w = chains_below_half(grid, data[:, 1:], data[:, 0],
                                 1.5 * inputs.max_time)
        count += c
        weight += w
    result.metrics["chains_below_half_at_default_top.count"] = count
    result.metrics["chains_below_half_at_default_top.weight"] = weight


def _w1_chains_written(result, w1_files):
    result.metrics["w1_chains_written"] = sum(
        len(np.unique(read_table(path)[1][:, 0])) for path in w1_files)


def _exp_truth(t, x):
    return np.exp(-RATE_Y * t)


def _regress_truth(t, x):
    return np.exp(-np.exp(BETA * x) * t)


def check_outputs(workload: str, out_dir: Path, inputs: Inputs) -> CheckResult:
    """Compute the accuracy metrics from the written files and collect
    every failed check."""
    result = CheckResult()
    if workload == "posterior":
        errs, covs = _curve_errors(
            result, [(out_dir / "survival_summary.csv", "mean", None)],
            inputs, _exp_truth)
        _sup_err_check(result, workload, errs)
        result.metrics["band_cov"] = covs[0]
        _default_top_check(result, [out_dir / "cdf_draws.csv"], inputs)
        _w1_chains_written(result, [out_dir / "w1_trace.csv"])
    elif workload == "tune_fit":
        errs, _ = _curve_errors(
            result, [(out_dir / "predictive.csv", "survival", None)],
            inputs, _exp_truth)
        _sup_err_check(result, workload, errs)
    elif workload == "regress":
        targets = list(enumerate(X_TARGETS))
        errs, _ = _curve_errors(
            result, [(out_dir / f"conditional_x{i}.csv", "survival", x)
                     for i, x in targets], inputs, _regress_truth)
        _sup_err_check(result, workload, errs)
        _, covs = _curve_errors(
            result, [(out_dir / f"posterior_x{i}_survival_summary.csv", "mean", x)
                     for i, x in targets], inputs, _regress_truth)
        result.metrics["band_cov"] = float(np.mean(covs))
        _default_top_check(result, [out_dir / f"posterior_x{i}_cdf_draws.csv"
                                    for i, _ in targets], inputs)
        _w1_chains_written(result, [out_dir / f"posterior_x{i}_w1_trace.csv"
                                    for i, _ in targets])
        header, data = read_table(out_dir / "heldout.csv")
        heldout = float(data[0, header.index("mean_log_lik")])
        result.metrics["heldout_ll"] = heldout
        reference = exp_mean_log_lik(inputs.times, inputs.status,
                                     np.exp(BETA * inputs.covariate))
        if heldout < reference - HELDOUT_LL_SLACK:
            result.failures.append(f"heldout_ll {heldout:.4f} more than "
                                   f"{HELDOUT_LL_SLACK} below {reference:.4f}")
    elif workload == "oracle":
        _oracle_checks(result, out_dir, inputs)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return result


def _oracle_checks(result, out_dir, inputs):
    from scipy import stats  # slow to import; only this check needs it

    meta = json.loads((out_dir / "run_meta.json").read_text(encoding="utf-8"))
    a0, b0 = float(meta["a0"]), float(meta["config"]["b0"])
    k = int(inputs.status.sum())
    total = float(inputs.times.sum())
    a_n, b_n = a0 + k, b0 + total
    header, data = read_table(out_dir / "doob_samples.csv")
    theta, weights = data[:, 0], data[:, 1]
    ks = weighted_ks(theta, weights,
                     lambda t: stats.invgamma.cdf(t, a_n, scale=b_n))
    exact = conjugate_log_marginal(a0, b0, k, total)
    logz_err = abs(float(meta["log_marginal_likelihood"]) - exact)
    result.metrics["oracle_ks"] = ks
    result.metrics["oracle_logz_err"] = logz_err
    if ks > ORACLE_KS_TOL:
        result.failures.append(f"oracle_ks {ks:.4f} above {ORACLE_KS_TOL}")
    if logz_err > ORACLE_LOGZ_REL_TOL * abs(exact):
        result.failures.append(f"oracle_logz_err {logz_err:.3g} above "
                               f"{ORACLE_LOGZ_REL_TOL:.0%} of |{exact:.4f}|")
