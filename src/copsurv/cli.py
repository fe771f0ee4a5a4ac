"""Command-line pipelines with seed-reproducible, plot-ready CSV outputs.

Subcommands: simulate, fit, posterior, regress, doob, tune.  Every run is
a pure function of (config, input files): outputs are byte-identical on
rerun, carry no timestamps, and a sidecar `run_meta.json` records the
resolved configuration (seed, permutation, selected hyperparameters,
summary statistics) so the run can be reproduced exactly.

No plotting here: the CSVs are designed to be consumed by any external
plotter.  This module owns every output schema: each file's header is
spelled once, in the command or shared writer that writes it.  Exit
codes: 0 success, 2 config error (also: censored medians holding
MAX_CENSORED_WEIGHT of the posterior weight), 3 data error, 4 weight
degeneracy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, parametric, resampling, tune
from .censoring import DEFAULT_ESS_FRAC, DEFAULT_N_PARTICLES, impute_smc
from .copulas import DEFAULT_RHO_GRID, FAMILIES, make_family
from .errors import ConfigurationError, CopsurvError, DataError, DegeneracyError
from .resampling import weighted_mean, weighted_quantiles

__all__ = ["main"]

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
# A name for a file in --output-dir: no directory part, and not "" or a
# name of a directory.
FILE_NAME = (lambda v: v not in ("", ".", "..")
             and not any(sep and sep in v for sep in (os.sep, os.altsep)),
             "a file name without a directory part")
# `rng.stream` keys on the seed's low 64 bits, so a seed of 2**64 would
# reuse seed 0's streams.
SEED_RANGE = (lambda v: 0 <= v < 2**64, "in [0, 2**64)")

# Chains whose whole W1 trajectory is written: `posterior --trace-chains`
# defaults to it, and `regress`, which has no such option, uses it.
DEFAULT_TRACE_CHAINS = 20
# A run stops when the chains whose median is censored at the grid top
# hold this much of the weight: the 97.5% median quantile can then fall
# on them.
MAX_CENSORED_WEIGHT = 0.025


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
    Opt("seed", int, required=True, bounds=SEED_RANGE,
        help="master seed (mandatory; no wall-clock default)"),
    Opt("output-dir", str, default=".", help="directory for all output files"),
]

INPUT_OPTS = [
    Opt("input", str, required=True, help="input CSV path"),
    Opt("time-col", str, default="time"),
    Opt("status-col", str, default="status"),
]

# Options of more than one subcommand, each defined once.
FAMILY = Opt("family", str, default="clayton", bounds=COPULA_FAMILY,
             help=f"copula kernel: {COPULA_FAMILY[1]}")
BANDWIDTH_GRID = Opt("bandwidth-grid", _comma_floats,
                     help="comma list; triggers marginal-likelihood tuning")
N_PARTICLES = Opt("n-particles", int, default=DEFAULT_N_PARTICLES,
                  bounds=AT_LEAST_2)
ESS_FRAC = Opt("ess-frac", float, default=DEFAULT_ESS_FRAC,
               bounds=IN_CLOSED_UNIT,
               help="resample when ESS < ess_frac * n_particles; 0 disables")
TUNE_PARTICLES = Opt("tune-particles", int,
                     default=tune.DEFAULT_TUNE_PARTICLES, bounds=AT_LEAST_2)
N_EXTRA = Opt("n-extra", int, default=resampling.DEFAULT_N_EXTRA,
              bounds=NONNEGATIVE)
RHO_X_GRID = Opt("rho-x-grid", _comma_floats, bounds=IN_HALF_OPEN_UNIT)

FIT_CORE_OPTS = INPUT_OPTS + [
    FAMILY,
    Opt("bandwidth", float, help="fixed kernel bandwidth (a, or rho for gaussian)"),
    BANDWIDTH_GRID,
    N_PARTICLES,
    ESS_FRAC,
    TUNE_PARTICLES,
    Opt("grid-size", int, default=100, bounds=AT_LEAST_2),
    Opt("grid-max", float, bounds=POSITIVE,
        help="grid upper end in input units (default 1.5x max time)"),
]

SUBCOMMANDS = {
    "simulate": [
        Opt("n", int, required=True, bounds=POSITIVE),
        Opt("rate-y", float, default=1.0, bounds=POSITIVE),
        Opt("rate-c", float, default=2.0, bounds=POSITIVE),
        Opt("out-name", str, default="data.csv", bounds=FILE_NAME),
    ],
    "fit": FIT_CORE_OPTS,
    "posterior": FIT_CORE_OPTS + [
        N_EXTRA,
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
        RHO_X_GRID,
        Opt("test-split", float, bounds=IN_OPEN_UNIT,
            help="held-out fraction; censored test records score log survival mass"),
        Opt("n-extra", int, bounds=NONNEGATIVE,
            help="if set, full posterior bands per x-target"),
    ],
    "doob": INPUT_OPTS + [
        Opt("a0", float, bounds=POSITIVE,
            help="prior shape; tuned by marginal likelihood if omitted"),
        Opt("b0", float, default=1.0, bounds=POSITIVE),
        N_PARTICLES,
        N_EXTRA,
        ESS_FRAC,
    ],
    "tune": INPUT_OPTS + [
        FAMILY,
        BANDWIDTH_GRID,
        RHO_X_GRID,
        Opt("covariate-cols", _comma_names, default=()),
        TUNE_PARTICLES,
    ],
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are configuration errors, so
    they print the JSON error line; subparsers inherit the class."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser():
    parser = _Parser(
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
        text = Path(path).read_text(encoding="utf-8-sig")
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
    each value against its option's range (a comma list must be
    nonempty, and every float finite), each bandwidth against its
    family's, and the options that need or exclude each other."""
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
            try:
                value = ([opt.type(part) for part in raw.split(";")]
                         if opt.repeatable else opt.type(raw))
            except ValueError:
                raise ConfigurationError(
                    f"--{opt.name} in {args.config}: invalid value {raw!r}"
                ) from None
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigurationError(f"--{opt.name} is required")
        lists = value if opt.repeatable else [value]
        if opt.type is _comma_floats and value is not None and not all(lists):
            raise ConfigurationError(f"--{opt.name} needs at least one value")
        if (opt.type in (float, _comma_floats) and value is not None
                and not all(np.isfinite(item).all() for item in lists)):
            raise ConfigurationError(f"--{opt.name} must be finite, got {value!r}")
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
    for name in ("bandwidth", "rho-x"):
        key = name.replace("-", "_")
        if resolved.get(key) is not None and resolved.get(f"{key}_grid"):
            raise ConfigurationError(
                f"--{name} pins the value that --{name}-grid would tune; "
                "give one of them")
    cols = resolved.get("covariate_cols")
    if resolved.get("rho_x_grid") and not cols:
        raise ConfigurationError("--rho-x-grid needs --covariate-cols")
    if "x_target" in resolved:  # regress
        targets = resolved["x_target"] or []
        if not targets and resolved["test_split"] is None:
            raise ConfigurationError("regress needs --x-target or --test-split")
        if not targets and resolved["n_extra"] is not None:
            raise ConfigurationError("--n-extra needs --x-target: the "
                                     "posterior is drawn per target")
        for x in targets:
            if len(x) != len(cols):
                raise ConfigurationError(f"--x-target dimension {len(x)} "
                                         f"!= covariate count {len(cols)}")
        if not cols:
            raise ConfigurationError("--covariate-cols needs at least one name")
    return resolved


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------

def _select_family(cfg, data, tune_by_default):
    """(family, rho_x, tuned) of a run.  A hyperparameter is pinned by
    its flag or searched on its grid flag; with neither, it is tuned on
    its default grid when `tune_by_default`, or else takes its family's
    default.  rho_x exists only with covariates.  `tuned` is the grid
    search result, None when nothing was searched."""
    kind = cfg["family"]
    family = FAMILIES[kind]

    def axis(name, default_grid, default):
        # (values, searched) of one hyperparameter
        pinned, grid = cfg.get(name), cfg.get(f"{name}_grid")
        if grid or (pinned is None and tune_by_default):
            return grid or default_grid, True
        return (default if pinned is None else pinned,), False

    bandwidths, searched = axis("bandwidth", family.tuning_grid,
                                family.default_bandwidth)
    rho_x_values = None
    if cfg.get("covariate_cols"):
        rho_x_values, rho_searched = axis("rho_x", DEFAULT_RHO_GRID, None)
        searched = searched or rho_searched
    if not searched:
        rho_x = None if rho_x_values is None else rho_x_values[0]
        return make_family(kind, bandwidths[0]), rho_x, None
    tuned = tune.grid_search(data, kind, bandwidths, rho_x_values,
                             cfg["tune_particles"], cfg["seed"])
    return tuned.family, tuned.rho_x, tuned


def _write_meta(outdir, command, cfg, extra):
    # output-dir is an execution detail, not result config: with it
    # excluded, reruns into fresh directories stay byte-identical.
    meta = {
        "command": command,
        "config": {k: v for k, v in cfg.items() if k != "output_dir"},
        **extra,
    }
    (outdir / "run_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2,
                   default=lambda o: o.tolist()) + "\n", encoding="utf-8")


def _run_fit(cfg, data, tune_by_default=False):
    """(ensemble, grid, meta) of the fit on `data`: its particles, its
    evaluation grid, and the `run_meta.json` entries common to fit,
    posterior and regress."""
    family, rho_x, tuned = _select_family(cfg, data, tune_by_default)
    ensemble = impute_smc(data, family, rho_x=rho_x,
                          n_particles=cfg["n_particles"],
                          ess_frac=cfg["ess_frac"], seed=cfg["seed"])
    grid = resampling.default_grid(data, cfg["grid_size"],
                                   family.grid_from_zero, cfg["grid_max"])
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
    return ensemble, grid, meta


def _point_predictive(ensemble, grid, x_target=None):
    """Importance-weighted mixture (density, survival) of the fit on the
    grid."""
    dens_rows, surv_rows = resampling.ensemble_grid_rows(ensemble, grid,
                                                         x_target)
    w = ensemble.weights
    return weighted_mean(dens_rows, w), weighted_mean(surv_rows, w)


# ---------------------------------------------------------------------------
# Output tables of more than one command, each schema spelled once.
# ---------------------------------------------------------------------------

def _write_predictive(path, grid, density, survival, scale):
    """A point predictive on the grid, in input units."""
    dataio.write_table(
        path,
        ["time", "density", "cdf", "survival"],
        [grid.points / scale, density * scale, 1.0 - survival, survival],
    )


def _write_diagnostics(outdir, ensemble):
    """`diagnostics.csv`: one row per record of an SMC pass, 1-based,
    with its ESS, unique ancestries and whether it resampled."""
    steps = np.arange(len(ensemble.ess_trace))
    dataio.write_table(
        outdir / "diagnostics.csv",
        ["step", "ess", "unique_particles", "resampled"],
        [steps + 1, ensemble.ess_trace, ensemble.unique_trace,
         np.isin(steps, ensemble.resample_steps)],
    )


def _write_posterior_summaries(outdir, draws, scale, prefix=""):
    """The martingale-posterior tables of `draws`, in input units given
    the time `scale`: survival and density bands, medians, the W1 trace
    and the CDF draws, each file name led by `prefix`."""
    grid_orig = draws.grid.points / scale
    w = draws.weights
    for name, values in (
            ("survival", draws.survival_draws),
            ("density", draws.density_draws * scale)):
        q = weighted_quantiles(values, w, [0.025, 0.975])
        dataio.write_table(outdir / f"{prefix}{name}_summary.csv",
                           ["time", "mean", "q2.5", "q97.5"],
                           [grid_orig, weighted_mean(values, w), *q])
    dataio.write_table(
        outdir / f"{prefix}medians.csv",
        ["median", "weight", "censored"],
        [draws.medians / scale, w, draws.censored],
    )
    # one (chain, step, w1) row per value
    chain, step = np.indices(draws.w1_trace.shape)
    dataio.write_table(outdir / f"{prefix}w1_trace.csv",
                       ["chain", "step", "w1"],
                       [chain.ravel(), step.ravel(),
                        (draws.w1_trace / scale).ravel()])
    # each draw's weight, then its CDF 1 - S
    dataio.write_table(outdir / f"{prefix}cdf_draws.csv",
                       ["weight"] + [repr(float(t)) for t in grid_orig],
                       [w, 1.0 - draws.survival_draws])


def _write_doob_tables(outdir, result):
    """A conjugate Doob run's weighted limiting posterior means, the
    exact posterior's quantiles, and its SMC diagnostics."""
    dataio.write_table(outdir / "doob_samples.csv", ["theta_bar", "weight"],
                       [result.theta_bar, result.ensemble.weights])
    qs = np.linspace(0.005, 0.995, 199)
    dataio.write_table(
        outdir / "doob_exact_quantiles.csv",
        ["q", "theta"],
        [qs, parametric.ig_posterior_quantile(result.posterior, qs)],
    )
    _write_diagnostics(outdir, result.ensemble)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _prepared_dataset(cfg, covariate_cols=()):
    raw = dataio.load_csv(cfg["input"], cfg["time_col"], cfg["status_col"],
                          covariate_cols)
    return dataio.permute(dataio.standardize(raw), cfg["seed"])


def cmd_simulate(cfg, outdir):
    data = dataio.simulate_censored_exponential(
        cfg["n"], cfg["rate_y"], cfg["rate_c"], cfg["seed"]
    )
    dataio.write_table(outdir / cfg["out_name"], ["time", "status"],
                       [data.times, data.status])
    _write_meta(outdir, "simulate", cfg, {
        "censoring_fraction": data.censoring_fraction,
    })
    return 0


def cmd_fit(cfg, outdir):
    data = _prepared_dataset(cfg)
    ensemble, grid, meta = _run_fit(cfg, data)
    density, survival = _point_predictive(ensemble, grid)
    _write_predictive(outdir / "predictive.csv", grid, density, survival,
                      data.scale_factor)
    _write_diagnostics(outdir, ensemble)
    _write_meta(outdir, "fit", cfg, {
        **meta, "resample_steps": [s + 1 for s in ensemble.resample_steps]})
    print(f"log marginal likelihood: {ensemble.log_z!r}")
    return 0


def _censored_medians(draws):
    """(count, weight) of the chains of `draws` whose median is censored;
    raises the --grid-max hint from MAX_CENSORED_WEIGHT on."""
    count = int(draws.censored.sum())
    weight = float(draws.weights[draws.censored].sum())
    if weight >= MAX_CENSORED_WEIGHT:
        raise ConfigurationError(
            f"the CDF of {count} of {draws.n_draws} chains, {weight:.3g} of "
            "the weight, stays below 0.5 up to the grid top; extend the "
            "grid upper end (see --grid-max)")
    return count, weight


def cmd_posterior(cfg, outdir):
    data = _prepared_dataset(cfg)
    ensemble, grid, meta = _run_fit(cfg, data)
    draws = resampling.martingale_posterior(
        ensemble, cfg["n_extra"], grid, seed=cfg["seed"],
        trace_chains=cfg["trace_chains"])
    meta["censored_medians"], meta["censored_weight"] = _censored_medians(draws)
    _write_posterior_summaries(outdir, draws, data.scale_factor)
    _write_diagnostics(outdir, ensemble)
    _write_meta(outdir, "posterior", cfg, meta)
    return 0


def _split_dataset(raw, frac, seed):
    """Random (train, test) split before any scaling; test inherits the
    training standardization, and each side's `perm` names CSV rows."""
    n = raw.n
    n_test = int(round(frac * n))
    if not 0 < n_test < n:
        raise ConfigurationError("test split leaves an empty side")
    order = np.random.default_rng(seed + 1).permutation(n)
    return dataio.take(raw, order[n_test:]), dataio.take(raw, order[:n_test])


def cmd_regress(cfg, outdir):
    cols = cfg["covariate_cols"]
    raw = dataio.load_csv(cfg["input"], cfg["time_col"], cfg["status_col"], cols)
    targets = cfg.get("x_target") or []
    test = None
    if cfg.get("test_split") is not None:
        raw, test = _split_dataset(raw, cfg["test_split"], cfg["seed"])
    train = dataio.permute(dataio.standardize(raw), cfg["seed"])
    ensemble, grid, extra = _run_fit(cfg, train, tune_by_default=True)
    scale = train.scale_factor
    if targets:  # z-scored as the training covariates were
        targets = dataio.standardize(dataio.SurvivalDataset(
            np.ones(len(targets)), np.ones(len(targets)), targets),
            like=train).covariates

    # every target's draws are checked before any file is written
    draws = []
    if cfg["n_extra"] is not None:
        draws = [resampling.martingale_posterior(
            ensemble, cfg["n_extra"], grid, x_target=x, seed=cfg["seed"],
            trace_chains=DEFAULT_TRACE_CHAINS) for x in targets]
    censored = [_censored_medians(d) for d in draws]
    for idx, x in enumerate(targets):
        if draws:
            # the draws carry the fitted predictive of their start rows
            density = draws[idx].predictive_density
            survival = draws[idx].predictive_survival
            _write_posterior_summaries(outdir, draws[idx], scale,
                                       prefix=f"posterior_x{idx}_")
        else:
            density, survival = _point_predictive(ensemble, grid, x)
        _write_predictive(outdir / f"conditional_x{idx}.csv", grid, density,
                          survival, scale)

    if draws:
        extra["censored_medians"] = [count for count, _ in censored]
        extra["censored_weight"] = [weight for _, weight in censored]
    if test is not None:
        scaled_test = dataio.standardize(test, like=train)
        heldout = resampling.heldout_mean_log_lik(ensemble, scaled_test)
        extra["heldout_mean_log_lik"] = heldout
        dataio.write_table(outdir / "heldout.csv",
                           ["n_test", "mean_log_lik"],
                           [[scaled_test.n], [heldout]])
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
    _write_doob_tables(outdir, result)
    ks = result.ks_statistic
    _write_meta(outdir, "doob", cfg, {
        "a0": a0,
        "ks_statistic": ks,
        "posterior_a_n": result.posterior.a0,
        "posterior_b_n": result.posterior.b0,
        "log_marginal_likelihood": result.ensemble.log_z,
        "final_ess": result.ensemble.final_ess,
        "permutation": data.perm,
    })
    print(f"KS(theta_bar, exact posterior) = {ks!r}")
    return 0


def cmd_tune(cfg, outdir):
    data = _prepared_dataset(cfg, cfg["covariate_cols"])
    _, _, result = _select_family(cfg, data, tune_by_default=True)
    bandwidth, rho_x, score, final_ess = zip(*result.table)
    dataio.write_table(
        outdir / "tune_table.csv",
        ["bandwidth", "rho_x", "score", "final_ess"],
        [bandwidth, ["" if r is None else repr(r) for r in rho_x], score,
         final_ess],
    )
    _write_meta(outdir, "tune", cfg, {
        "best_bandwidth": result.bandwidth,
        "best_rho_x": result.rho_x,
        "best_score": result.score,
        "permutation": data.perm,
    })
    rho_x = "" if result.rho_x is None else f", rho_x {result.rho_x!r}"
    print(f"selected bandwidth {result.bandwidth!r}{rho_x} "
          f"(score {result.score!r})")
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
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args, COMMON_OPTS + SUBCOMMANDS[args.command])
        outdir = Path(cfg["output_dir"])
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"--output-dir {outdir}: {exc.strerror}") from None
        return HANDLERS[args.command](cfg, outdir)
    except ConfigurationError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)
    except DegeneracyError as exc:
        return _fail("degeneracy", exc, EXIT_DEGENERACY)
    except CopsurvError as exc:
        return _fail("error", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
