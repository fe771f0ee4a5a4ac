"""Full nonparametric pipeline on a user-supplied survival CSV.

Standardize, permute, select the kernel bandwidth by marginal likelihood,
impute censored records, and draw the martingale posterior of the survival
curve and median.  It writes, through the CLI's writers, the files of
`copsurv posterior --bandwidth-grid <ClaytonFamily.tuning_grid>
--trace-chains 0` (all but run_meta.json), byte for byte, but shows the
library API so the stages can be recombined.

Example (PBC-style file with columns time,status):
    python scripts/survival_pipeline.py data.csv --seed 1 --out results/
"""

import argparse
from pathlib import Path

import copsurv as cs
from copsurv.censoring import DEFAULT_N_PARTICLES
from copsurv.cli import write_diagnostics, write_posterior_summaries
from copsurv.dataio import unscale_times
from copsurv.resampling import (
    DEFAULT_N_EXTRA,
    default_grid,
    martingale_posterior,
    weighted_quantiles,
)
from copsurv.tune import TuneGrid, grid_search


def build_parser():
    """The options; --particles and --n-extra default to those of
    `copsurv posterior`."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--particles", type=int, default=DEFAULT_N_PARTICLES)
    ap.add_argument("--n-extra", type=int, default=DEFAULT_N_EXTRA)
    ap.add_argument("--grid-size", type=int, default=149)
    ap.add_argument("--grid-max", type=float, default=None,
                    help="grid top in input time units (default 1.5x max)")
    ap.add_argument("--out", type=Path, default=Path("pipeline_out"))
    return ap


def main():
    args = build_parser().parse_args()

    data = cs.permute(cs.standardize(cs.load_csv(args.input)), args.seed)
    print(f"n={data.n}, censored fraction {data.censoring_fraction:.2f}, "
          f"time scale factor {data.scale_factor:.4g}")

    tuned = grid_search(
        data, "clayton",
        TuneGrid(bandwidths=cs.ClaytonFamily.tuning_grid, seed=args.seed),
    )
    print(f"selected bandwidth {tuned.bandwidth:g} "
          f"(log marginal {tuned.score:.2f})")

    ensemble = cs.impute_smc(data, tuned.family, n_particles=args.particles,
                             seed=args.seed)
    print(f"final ESS {ensemble.final_ess:.0f}, "
          f"{len(ensemble.resample_steps)} resampling events")

    grid = default_grid(data, args.grid_size, top=args.grid_max)
    draws = martingale_posterior(ensemble, args.n_extra, grid, seed=args.seed)

    args.out.mkdir(parents=True, exist_ok=True)
    write_posterior_summaries(args.out, draws, data.scale_factor)
    write_diagnostics(args.out, ensemble)
    lo, med, hi = unscale_times(
        weighted_quantiles(draws.medians, draws.weights, [0.025, 0.5, 0.975]),
        data.scale_factor)
    print(f"median survival time: posterior median {med:.4g}, "
          f"95% interval {lo:.4g} to {hi:.4g} (input units)")
    print(f"wrote {args.out}/")


if __name__ == "__main__":
    main()
