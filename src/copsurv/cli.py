"""Command-line pipelines with seed-reproducible, plot-ready CSV outputs.

Subcommands: simulate, fit, posterior, regress, doob, tune.  Every run is
a pure function of (config, input files): outputs are byte-identical on
rerun, carry no timestamps, and a sidecar `run_meta.json` records the
resolved configuration (seed, permutation, selected hyperparameters,
summary statistics) so the run can be reproduced exactly.

No plotting here: the CSVs are designed to be consumed by any external
plotter.  Exit codes: 0 success, 2 config error, 3 data error,
4 weight degeneracy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, parametric, resampling, tune
from .censoring import diagnostic_rows, impute_smc
from .copulas import DEFAULT_RHO_GRID, FAMILIES, make_family
from .errors import (
    ConfigurationError,
    CopsurvError,
    DataError,
    DegeneracyError,
    GridCoverageError,
    TuningError,
)
from .resampling import weighted_mean, weighted_quantiles

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERACY = 4


# ---------------------------------------------------------------------------
# Option plumbing: flags win over --config file entries, which win over
# built-in defaults.
# ---------------------------------------------------------------------------

def _comma_floats(text):
    return tuple(float(v) for v in str(text).split(",") if v != "")


def _comma_names(text):
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


# Range checks, as (predicate, what the value must be); `_resolve`
# applies them before any input is read, to every element of a comma list.
AT_LEAST_2 = (lambda v: v >= 2, "at least 2")
NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
POSITIVE = (lambda v: v > 0, "positive")
IN_CLOSED_UNIT = (lambda v: 0 <= v <= 1, "in [0, 1]")
IN_OPEN_UNIT = (lambda v: 0 < v < 1, "in (0, 1)")
IN_HALF_OPEN_UNIT = (lambda v: 0 <= v < 1, "in [0, 1)")
COPULA_FAMILY = (lambda v: v in FAMILIES, " or ".join(FAMILIES))

# Chains whose whole W1 trajectory is written: `posterior --trace-chains`
# defaults to it, and `regress`, which has no such option, uses it.
DEFAULT_TRACE_CHAINS = 20


class Opt:
    def __init__(self, name, type, default=None, help="", required=False,
                 repeatable=False, bounds=None):
        self.name = name
        self.type = type
        self.default = default
        self.help = help
        self.required = required
        self.repeatable = repeatable
        self.bounds = bounds

    @property
    def dest(self):
        return self.name.replace("-", "_")


COMMON_OPTS = [
    Opt("seed", int, required=True, help="master seed (mandatory; no wall-clock default)"),
    Opt("output-dir", str, default=".", help="directory for all output files"),
]

FIT_CORE_OPTS = [
    Opt("input", str, required=True, help="input CSV path"),
    Opt("time-col", str, default="time"),
    Opt("status-col", str, default="status"),
    Opt("family", str, default="clayton", bounds=COPULA_FAMILY,
        help=f"copula kernel: {COPULA_FAMILY[1]}"),
    Opt("bandwidth", float, help="fixed kernel bandwidth (a, or rho for gaussian)"),
    Opt("bandwidth-grid", _comma_floats,
        help="comma list; triggers marginal-likelihood tuning"),
    Opt("n-particles", int, default=2000, bounds=AT_LEAST_2),
    Opt("ess-frac", float, default=0.5, bounds=IN_CLOSED_UNIT,
        help="resample when ESS < ess_frac * n_particles; 0 disables"),
    Opt("tune-particles", int, default=1000, bounds=AT_LEAST_2),
    Opt("grid-size", int, default=100, bounds=AT_LEAST_2),
    Opt("grid-max", float, bounds=POSITIVE,
        help="grid upper end in input units (default 1.5x max time)"),
]

SUBCOMMANDS = {
    "simulate": [
        Opt("n", int, required=True),
        Opt("rate-y", float, default=1.0),
        Opt("rate-c", float, default=2.0),
        Opt("out-name", str, default="data.csv"),
    ],
    "fit": FIT_CORE_OPTS,
    "posterior": FIT_CORE_OPTS + [
        Opt("n-extra", int, default=2000, bounds=NONNEGATIVE),
        Opt("trace-chains", int, default=DEFAULT_TRACE_CHAINS,
            bounds=NONNEGATIVE,
            help="chains whose full W1 trajectory is written"),
    ],
    "regress": FIT_CORE_OPTS + [
        Opt("covariate-cols", _comma_names, required=True),
        Opt("x-target", _comma_floats, repeatable=True,
            help="covariate vector (comma list); repeatable"),
        Opt("rho-x", float, bounds=IN_HALF_OPEN_UNIT,
            help="fixed covariate-kernel correlation"),
        Opt("rho-x-grid", _comma_floats, bounds=IN_HALF_OPEN_UNIT),
        Opt("test-split", float, bounds=IN_OPEN_UNIT,
            help="held-out fraction; censored test records score log survival mass"),
        Opt("n-extra", int, bounds=NONNEGATIVE,
            help="if set, full posterior bands per x-target"),
    ],
    "doob": [
        Opt("input", str, required=True),
        Opt("time-col", str, default="time"),
        Opt("status-col", str, default="status"),
        Opt("a0", float, help="prior shape; tuned by marginal likelihood if omitted"),
        Opt("b0", float, default=1.0),
        Opt("n-particles", int, default=2000, bounds=AT_LEAST_2),
        Opt("n-extra", int, default=2000, bounds=NONNEGATIVE),
        Opt("ess-frac", float, default=0.5, bounds=IN_CLOSED_UNIT),
    ],
    "tune": [
        Opt("input", str, required=True),
        Opt("time-col", str, default="time"),
        Opt("status-col", str, default="status"),
        Opt("family", str, default="clayton", bounds=COPULA_FAMILY),
        Opt("bandwidth-grid", _comma_floats),
        Opt("rho-x-grid", _comma_floats, bounds=IN_HALF_OPEN_UNIT),
        Opt("covariate-cols", _comma_names, default=()),
        Opt("tune-particles", int, default=1000, bounds=AT_LEAST_2),
    ],
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="copsurv",
        description="Predictive survival analysis with copula updates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key=value file; explicit flags win")
        for opt in COMMON_OPTS + opts:
            kwargs = dict(type=opt.type, default=None, help=opt.help)
            if opt.repeatable:
                kwargs["action"] = "append"
            p.add_argument(f"--{opt.name}", **kwargs)
    return parser


def _read_config_file(path):
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path} line {line_no}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args, opts):
    """Merge flag values, config-file values, and defaults, and check
    each value against its option's range and each bandwidth against
    its family's."""
    file_values = _read_config_file(args.config) if args.config else {}
    known = {opt.name: opt for opt in opts}
    for key in file_values:
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
    resolved = {}
    for opt in opts:
        value = getattr(args, opt.dest)
        if value is None and opt.name in file_values:
            raw = file_values[opt.name]
            if opt.repeatable:
                value = [opt.type(part) for part in raw.split(";")]
            else:
                value = opt.type(raw)
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigurationError(f"--{opt.name} is required")
        if value is not None and opt.bounds is not None:
            in_range, rule = opt.bounds
            items = value if isinstance(value, tuple) else (value,)
            if not all(in_range(v) for v in items):
                raise ConfigurationError(
                    f"--{opt.name} must be {rule}, got {value!r}")
        resolved[opt.dest] = value
    # a bandwidth's range depends on the family, which checks it
    for name in ("bandwidth", "bandwidth-grid"):
        value = resolved.get(name.replace("-", "_"))
        if value is None:
            continue
        try:
            for b in value if isinstance(value, tuple) else (value,):
                make_family(resolved["family"], b)
        except ConfigurationError as exc:
            raise ConfigurationError(f"--{name}: {exc}") from None
    return resolved


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _resolve_family(cfg, data):
    """Fixed bandwidth, or grid tuning when a grid was supplied."""
    kind = cfg["family"]
    if cfg.get("bandwidth_grid"):
        grid = tune.TuneGrid(bandwidths=cfg["bandwidth_grid"],
                             n_particles=cfg["tune_particles"],
                             seed=cfg["seed"])
        tuned = tune.grid_search(data, kind, grid)
        return tuned.family, tuned
    bandwidth = cfg.get("bandwidth")
    if bandwidth is None:
        bandwidth = FAMILIES[kind].default_bandwidth
    return make_family(kind, bandwidth), None


def _resolve_regress_family(cfg, data):
    """Joint (bandwidth, rho_x) selection for the conditional model:
    anything not pinned by a flag is tuned on its grid (defaults per
    family)."""
    kind = cfg["family"]
    bandwidth = cfg.get("bandwidth")
    rho_x = cfg.get("rho_x")
    if bandwidth is not None and rho_x is not None:
        return make_family(kind, bandwidth), rho_x, None
    bandwidths = cfg.get("bandwidth_grid") or (
        (bandwidth,) if bandwidth is not None else FAMILIES[kind].tuning_grid
    )
    rho_x_values = cfg.get("rho_x_grid") or (
        (rho_x,) if rho_x is not None else DEFAULT_RHO_GRID
    )
    grid = tune.TuneGrid(bandwidths=bandwidths, rho_x_values=rho_x_values,
                         n_particles=cfg["tune_particles"], seed=cfg["seed"])
    tuned = tune.grid_search(data, kind, grid)
    return tuned.family, tuned.rho_x, tuned


def _eval_grid(cfg, data, family):
    if cfg.get("grid_max") is None:
        return resampling.default_grid(data, cfg["grid_size"],
                                       family.grid_from_zero)
    top = cfg["grid_max"] * data.scale_factor  # to standardized units
    return resampling.log_grid(top, cfg["grid_size"], family.grid_from_zero)


def _write_meta(outdir, command, cfg, extra):
    # output-dir is an execution detail, not result config: with it
    # excluded, reruns into fresh directories stay byte-identical.
    meta = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in cfg.items()
                   if k != "output_dir"},
        **{k: _jsonable(v) for k, v in extra.items()},
    }
    path = outdir / "run_meta.json"
    path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _fit_meta(ensemble, data, family, rho_x, tuned):
    """The `run_meta.json` entries common to fit, posterior and regress."""
    meta = {
        "log_marginal_likelihood": ensemble.log_z,
        "final_ess": ensemble.final_ess,
        "permutation": data.perm,
        "scale_factor": data.scale_factor,
        "family": family.kind,
        "bandwidth": family.bandwidth,
        "rho_x": rho_x,
    }
    if tuned is not None:
        meta["tuned_score"] = tuned.score
    return meta


def _point_predictive(ensemble, grid, x_target=None):
    """Importance-weighted mixture (density, cdf) of the fit on the grid."""
    dens_rows, cdf_rows = resampling.ensemble_grid_rows(ensemble, grid,
                                                        x_target)
    w = ensemble.weights
    return weighted_mean(dens_rows, w), weighted_mean(cdf_rows, w)


def _write_predictive(path, grid, density, cdf, scale):
    """A point predictive on the grid, in input units."""
    dataio.write_rows(
        path,
        ["time", "density", "cdf", "survival"],
        zip(dataio.unscale_times(grid.points, scale),
            dataio.unscale_density(density, scale), cdf, 1.0 - cdf),
    )


def _write_diagnostics(outdir, ensemble, name="diagnostics.csv"):
    dataio.write_rows(
        outdir / name,
        ["step", "ess", "unique_particles", "resampled"],
        diagnostic_rows(ensemble.ess_trace, ensemble.unique_trace,
                        ensemble.resample_steps),
    )


def _prepared_dataset(cfg, covariate_cols=()):
    raw = dataio.load_csv(cfg["input"], cfg["time_col"], cfg["status_col"],
                          covariate_cols)
    std = dataio.standardize(raw)
    return dataio.permute(std, cfg["seed"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, outdir):
    data = dataio.simulate_censored_exponential(
        cfg["n"], cfg["rate_y"], cfg["rate_c"], cfg["seed"]
    )
    dataio.write_rows(outdir / cfg["out_name"], ["time", "status"],
                      zip(data.times, data.status))
    _write_meta(outdir, "simulate", cfg, {
        "censoring_fraction": data.censoring_fraction,
    })
    return 0


def _run_fit(cfg):
    data = _prepared_dataset(cfg)
    family, tuned = _resolve_family(cfg, data)
    ensemble = impute_smc(data, family, n_particles=cfg["n_particles"],
                          ess_frac=cfg["ess_frac"], seed=cfg["seed"])
    return data, family, tuned, ensemble


def cmd_fit(cfg, outdir):
    data, family, tuned, ensemble = _run_fit(cfg)
    grid = _eval_grid(cfg, data, family)
    density, cdf = _point_predictive(ensemble, grid)
    _write_predictive(outdir / "predictive.csv", grid, density, cdf,
                      data.scale_factor)
    _write_diagnostics(outdir, ensemble)
    _write_meta(outdir, "fit", cfg, {
        **_fit_meta(ensemble, data, family, None, tuned),
        "resample_steps": [s + 1 for s in ensemble.resample_steps],
    })
    print(f"log marginal likelihood: {ensemble.log_z!r}")
    return 0


def _write_posterior_summaries(outdir, draws, scale, prefix=""):
    grid_orig = dataio.unscale_times(draws.grid.points, scale)
    w = draws.weights
    surv = 1.0 - draws.cdf_draws
    surv_q = weighted_quantiles(surv, w, [0.025, 0.975])
    dataio.write_rows(
        outdir / f"{prefix}survival_summary.csv",
        ["time", "mean", "q2.5", "q97.5"],
        zip(grid_orig, weighted_mean(surv, w), surv_q[0], surv_q[1]),
    )
    dens = dataio.unscale_density(draws.density_draws, scale)
    dens_q = weighted_quantiles(dens, w, [0.025, 0.975])
    dataio.write_rows(
        outdir / f"{prefix}density_summary.csv",
        ["time", "mean", "q2.5", "q97.5"],
        zip(grid_orig, weighted_mean(dens, w), dens_q[0], dens_q[1]),
    )
    dataio.write_rows(
        outdir / f"{prefix}medians.csv",
        ["median", "weight"],
        zip(dataio.unscale_times(draws.medians, scale), w),
    )
    rows = []
    for j, trajectory in enumerate(draws.w1_trace):
        for t, value in enumerate(trajectory):
            rows.append((j, t, value / scale))
    dataio.write_rows(outdir / f"{prefix}w1_trace.csv",
                      ["chain", "step", "w1"], rows)
    dataio.write_rows(
        outdir / f"{prefix}cdf_draws.csv",
        ["weight"] + [repr(float(t)) for t in grid_orig],
        (np.column_stack([w, draws.cdf_draws])),
    )


def cmd_posterior(cfg, outdir):
    data, family, tuned, ensemble = _run_fit(cfg)
    grid = _eval_grid(cfg, data, family)
    draws = resampling.martingale_posterior(
        ensemble, cfg["n_extra"], grid, seed=cfg["seed"],
        trace_chains=cfg["trace_chains"])
    _write_posterior_summaries(outdir, draws, data.scale_factor)
    _write_diagnostics(outdir, ensemble)
    _write_meta(outdir, "posterior", cfg,
                _fit_meta(ensemble, data, family, None, tuned))
    return 0


def _split_dataset(raw, frac, seed):
    """Random train/test split before any scaling; test inherits the
    training standardization."""
    n = raw.n
    n_test = int(round(frac * n))
    if not 0 < n_test < n:
        raise ConfigurationError("test split leaves an empty side")
    order = np.random.default_rng(seed + 1).permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    def subset(idx):
        return dataio.SurvivalDataset(
            times=raw.times[idx], status=raw.status[idx],
            covariates=None if raw.covariates is None else raw.covariates[idx],
        )
    return subset(train_idx), subset(test_idx)


def _apply_train_scaling(test, train):
    times = test.times * train.scale_factor
    covariates = test.covariates
    if covariates is not None and train.covariate_shift_scale is not None:
        mean = train.covariate_shift_scale[:, 0]
        sd = train.covariate_shift_scale[:, 1]
        covariates = (covariates - mean) / sd
    return dataio.SurvivalDataset(times=times, status=test.status,
                                  covariates=covariates,
                                  scale_factor=train.scale_factor)


def cmd_regress(cfg, outdir):
    cols = cfg["covariate_cols"]
    raw = dataio.load_csv(cfg["input"], cfg["time_col"], cfg["status_col"], cols)
    targets = cfg.get("x_target") or []
    if not targets and cfg.get("test_split") is None:
        raise ConfigurationError("regress needs --x-target or --test-split")
    for x in targets:
        if len(x) != len(cols):
            raise ConfigurationError(
                f"x-target dimension {len(x)} != covariate count {len(cols)}"
            )

    test = None
    if cfg.get("test_split") is not None:
        raw, test = _split_dataset(raw, cfg["test_split"], cfg["seed"])
    train = dataio.permute(dataio.standardize(raw), cfg["seed"])

    family, rho_x, tuned = _resolve_regress_family(cfg, train)
    ensemble = impute_smc(train, family, rho_x=rho_x,
                          n_particles=cfg["n_particles"],
                          ess_frac=cfg["ess_frac"], seed=cfg["seed"])
    grid = _eval_grid(cfg, train, family)
    scale = train.scale_factor
    shift = train.covariate_shift_scale

    for idx, x_orig in enumerate(targets):
        x = np.asarray(x_orig, dtype=float)
        if shift is not None:
            x = (x - shift[:, 0]) / shift[:, 1]
        draws = None
        if cfg.get("n_extra") is not None:
            # the draws carry the fitted predictive of their start rows
            draws = resampling.martingale_posterior(
                ensemble, cfg["n_extra"], grid, x_target=x, seed=cfg["seed"],
                trace_chains=DEFAULT_TRACE_CHAINS)
            density, cdf = draws.predictive_density, draws.predictive_cdf
        else:
            density, cdf = _point_predictive(ensemble, grid, x)
        _write_predictive(outdir / f"conditional_x{idx}.csv", grid, density,
                          cdf, scale)
        if draws is not None:
            _write_posterior_summaries(outdir, draws, scale,
                                       prefix=f"posterior_x{idx}_")

    extra = _fit_meta(ensemble, train, family, rho_x, tuned)
    if test is not None:
        scaled_test = _apply_train_scaling(test, train)
        heldout = resampling.heldout_mean_log_lik(ensemble, scaled_test)
        extra["heldout_mean_log_lik"] = heldout
        dataio.write_rows(outdir / "heldout.csv",
                          ["n_test", "mean_log_lik"],
                          [(scaled_test.n, heldout)])
        print(f"held-out mean log-likelihood: {heldout!r}")
    _write_diagnostics(outdir, ensemble)
    _write_meta(outdir, "regress", cfg, extra)
    return 0


def cmd_doob(cfg, outdir):
    raw = dataio.load_csv(cfg["input"], cfg["time_col"], cfg["status_col"])
    data = dataio.permute(raw, cfg["seed"])
    a0 = cfg.get("a0")
    if a0 is None:
        a0 = parametric.tune_a0(data, b0=cfg["b0"])
    model = parametric.ConjugateModel(a0=a0, b0=cfg["b0"])
    result = parametric.doob_demo(model, data, cfg["n_particles"],
                                  cfg["n_extra"], seed=cfg["seed"],
                                  ess_frac=cfg["ess_frac"])
    dataio.write_rows(outdir / "doob_samples.csv", ["theta_bar", "weight"],
                      zip(result.theta_bar, result.weights))
    qs = np.linspace(0.005, 0.995, 199)
    dataio.write_rows(
        outdir / "doob_exact_quantiles.csv",
        ["q", "theta"],
        zip(qs, parametric.ig_posterior_quantile(result.state, qs)),
    )
    _write_diagnostics(outdir, result.ensemble)
    ks = result.ks_statistic
    _write_meta(outdir, "doob", cfg, {
        "a0": a0,
        "ks_statistic": ks,
        "posterior_a_n": result.state.a_n,
        "posterior_b_n": result.state.b_n,
        "log_marginal_likelihood": result.ensemble.log_z,
        "final_ess": result.ensemble.final_ess,
        "permutation": data.perm,
    })
    print(f"KS(theta_bar, exact posterior) = {ks!r}")
    return 0


def cmd_tune(cfg, outdir):
    cols = cfg["covariate_cols"]
    data = _prepared_dataset(cfg, cols)
    kind = cfg["family"]
    bandwidths = cfg.get("bandwidth_grid") or FAMILIES[kind].tuning_grid
    grid = tune.TuneGrid(bandwidths=bandwidths,
                         rho_x_values=cfg.get("rho_x_grid"),
                         n_particles=cfg["tune_particles"], seed=cfg["seed"])
    result = tune.grid_search(data, kind, grid)
    dataio.write_rows(
        outdir / "tune_table.csv",
        ["bandwidth", "rho_x", "score", "final_ess"],
        [(c.bandwidth, "" if c.rho_x is None else c.rho_x, c.score, c.final_ess)
         for c in result.table],
    )
    _write_meta(outdir, "tune", cfg, {
        "best_bandwidth": result.bandwidth,
        "best_rho_x": result.rho_x,
        "best_score": result.score,
        "permutation": data.perm,
    })
    print(f"selected bandwidth {result.bandwidth!r} (score {result.score!r})")
    return 0


HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "posterior": cmd_posterior,
    "regress": cmd_regress,
    "doob": cmd_doob,
    "tune": cmd_tune,
}


def _fail(category, message, code):
    print(json.dumps({"error": category, "message": str(message)}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    opts = COMMON_OPTS + SUBCOMMANDS[args.command]
    try:
        cfg = _resolve(args, opts)
        outdir = Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        return HANDLERS[args.command](cfg, outdir)
    except GridCoverageError as exc:
        return _fail("config", f"{exc} (see --grid-max)", EXIT_CONFIG)
    except ConfigurationError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)
    except (DegeneracyError, TuningError) as exc:
        return _fail("degeneracy", exc, EXIT_DEGENERACY)
    except CopsurvError as exc:
        return _fail("error", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
