"""Parametric consistency experiment: martingale posterior vs exact posterior.

Simulates exponential survival data with exponential censoring, fits the
conjugate exponential/inverse-gamma model, imputes censored records with
the sequential sampler, extends each particle with a long synthetic
future, and compares the weighted sample of limiting posterior means
against the exact inverse-gamma posterior.

Writes doob_samples.csv, doob_exact_quantiles.csv, diagnostics.csv.
"""

import argparse
from pathlib import Path

import copsurv as cs
from copsurv.censoring import DEFAULT_N_PARTICLES
from copsurv.cli import write_doob_tables
from copsurv.parametric import ConjugateModel, doob_demo, tune_a0
from copsurv.resampling import DEFAULT_N_EXTRA


def build_parser():
    """The options; --particles and --n-extra default to those of
    `copsurv doob`."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=106)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--rate-y", type=float, default=1.0)
    ap.add_argument("--rate-c", type=float, default=2.0)
    ap.add_argument("--particles", type=int, default=DEFAULT_N_PARTICLES)
    ap.add_argument("--n-extra", type=int, default=DEFAULT_N_EXTRA)
    ap.add_argument("--out", type=Path, default=Path("doob_out"))
    return ap


def main():
    args = build_parser().parse_args()

    data = cs.simulate_censored_exponential(args.n, args.rate_y, args.rate_c,
                                            seed=args.seed)
    data = cs.permute(data, args.seed)
    print(f"n={data.n}, censored fraction {data.censoring_fraction:.2f}")

    a0 = tune_a0(data, b0=1.0)
    print(f"marginal-likelihood choice of a0: {a0:.3f}")
    model = ConjugateModel(a0=a0, b0=1.0)

    result = doob_demo(model, data, args.particles, args.n_extra,
                       seed=args.seed)
    print(f"resampling events at steps {result.ensemble.resample_steps}, "
          f"final ESS {result.ensemble.final_ess:.0f}")
    print(f"KS(weighted theta_bar, exact IG posterior) = {result.ks_statistic:.4f}")

    args.out.mkdir(parents=True, exist_ok=True)
    write_doob_tables(args.out, result)
    print(f"wrote {args.out}/")


if __name__ == "__main__":
    main()
