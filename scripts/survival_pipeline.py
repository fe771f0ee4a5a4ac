"""Full nonparametric pipeline on a user-supplied survival CSV.

Standardize, permute, select the kernel bandwidth by marginal likelihood,
impute censored records, and draw the martingale posterior of the survival
curve and median.  Equivalent to `copsurv tune` + `copsurv posterior`, but
shows the library API so the stages can be recombined.

Example (PBC-style file with columns time,status):
    python scripts/survival_pipeline.py data.csv --seed 1 --out results/
"""

import argparse
from pathlib import Path

import copsurv as cs
from copsurv.censoring import diagnostic_rows
from copsurv.dataio import unscale_times, write_rows
from copsurv.resampling import (
    default_grid,
    log_grid,
    martingale_posterior,
    weighted_mean,
    weighted_quantiles,
)
from copsurv.tune import TuneGrid, grid_search


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--particles", type=int, default=2000)
    ap.add_argument("--n-extra", type=int, default=2000)
    ap.add_argument("--grid-size", type=int, default=149)
    ap.add_argument("--grid-max", type=float, default=None,
                    help="grid top in input time units (default 1.5x max)")
    ap.add_argument("--out", type=Path, default=Path("pipeline_out"))
    args = ap.parse_args()

    data = cs.permute(cs.standardize(cs.load_csv(args.input)), args.seed)
    print(f"n={data.n}, censored fraction {data.censoring_fraction:.2f}, "
          f"time scale factor {data.scale_factor:.4g}")

    tuned = grid_search(
        data, "clayton",
        TuneGrid(bandwidths=cs.ClaytonFamily.tuning_grid, n_particles=1000,
                 seed=args.seed),
    )
    print(f"selected bandwidth {tuned.bandwidth:g} "
          f"(log marginal {tuned.score:.2f})")

    ensemble = cs.impute_smc(data, tuned.family, n_particles=args.particles,
                             seed=args.seed)
    print(f"final ESS {ensemble.final_ess:.0f}, "
          f"{len(ensemble.resample_steps)} resampling events")

    if args.grid_max is not None:
        grid = log_grid(args.grid_max * data.scale_factor, args.grid_size)
    else:
        grid = default_grid(data, args.grid_size)
    draws = martingale_posterior(ensemble, args.n_extra, grid, seed=args.seed)

    survival = 1.0 - draws.cdf_draws
    mean = weighted_mean(survival, draws.weights)
    bands = weighted_quantiles(survival, draws.weights, [0.025, 0.975])
    args.out.mkdir(parents=True, exist_ok=True)
    write_rows(args.out / "survival_summary.csv",
               ["time", "mean", "q2.5", "q97.5"],
               zip(unscale_times(grid.points, data.scale_factor),
                   mean, bands[0], bands[1]))
    write_rows(args.out / "medians.csv", ["median", "weight"],
               zip(unscale_times(draws.medians, data.scale_factor),
                   draws.weights))
    write_rows(args.out / "diagnostics.csv",
               ["step", "ess", "unique_particles", "resampled"],
               diagnostic_rows(ensemble.ess_trace, ensemble.unique_trace,
                               ensemble.resample_steps))
    med = weighted_mean(draws.medians, draws.weights)
    print(f"posterior mean of median survival time: "
          f"{unscale_times(med, data.scale_factor):.4g} (input units)")
    print(f"wrote {args.out}/")


if __name__ == "__main__":
    main()
