"""Exact conjugate model: exponential sampling with an inverse-gamma prior.

The sampling density is parametrized by its mean, f(y) = exp(-y/theta)/theta,
with prior IG(a0, b0).  Right-censoring is non-informative, so the posterior
after k observed events and total recorded time T (observed plus censoring
times) is IG(a0 + k, b0 + T), the posterior predictive is Lomax(a_n, b_n),
and the marginal likelihood is available in closed form.  This model serves
as the exact oracle for the sampling machinery: the imputation sampler run
with this predictive must reproduce the known posterior, and the limit of
the posterior mean along an imputed future population must be distributed
as a posterior draw.

The forward chains of that check are independent given the imputed
particles: chain j's step-t uniform is element j of stream (seed, t).  So
`doob_demo` runs them in contiguous shards of chains, one per CPU the
process may use (`shards.run_shards`), each drawing only its own chains'
elements, and the shard count moves no output bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammainccinv, gammaln

from . import rng, shards
from .censoring import (DEFAULT_ESS_FRAC, DEFAULT_N_PARTICLES, SmcPass,
                        run_smc_loop)
from .copulas import lomax
from .dataio import SurvivalDataset
from .errors import ConfigurationError

__all__ = [
    "ConjugateModel",
    "posterior_update",
    "exact_log_marginal",
    "tune_a0",
    "ig_posterior_cdf",
    "ig_posterior_quantile",
    "ConjugateEnsemble",
    "conjugate_smc",
    "DoobResult",
    "doob_demo",
    "weighted_ks",
]

# Chains per forked shard of doob's forward loop, at least.  A shard costs
# a fork and a few numpy calls per step whatever its size: on a 2-core VM,
# 2000 steps over two shards ran slower than over one at 1000 chains, broke
# even at 2000, and took 0.74 of the time at 20 000.
DOOB_SHARD_CHAINS = 4096


@dataclass(frozen=True)
class ConjugateModel:
    """IG(a0, b0) on the exponential mean: the prior, or, by conjugacy,
    the posterior that `posterior_update` returns."""

    a0: float
    b0: float = 1.0

    def __post_init__(self):
        if not (self.a0 > 0 and self.b0 > 0):
            raise ConfigurationError("hyperparameters must be positive")


def posterior_update(model: ConjugateModel, data: SurvivalDataset) -> ConjugateModel:
    """a_n = a0 + (observed count), b_n = b0 + (sum of all recorded times)."""
    return ConjugateModel(a0=model.a0 + data.n_observed,
                          b0=model.b0 + float(data.times.sum()))


def exact_log_marginal(model: ConjugateModel, data: SurvivalDataset) -> float:
    """Closed-form log marginal likelihood of the mixed observed/censored
    record set."""
    k = data.n_observed
    total = float(data.times.sum())
    return float(
        gammaln(k + model.a0)
        - gammaln(model.a0)
        + model.a0 * np.log(model.b0)
        - (k + model.a0) * np.log(model.b0 + total)
    )


def tune_a0(data: SurvivalDataset, b0: float = 1.0) -> float:
    """Maximize the exact log marginal over a0 by golden-section search.

    The objective is concave in a0 (digamma differences are decreasing),
    so the derivative-free bracket shrink over [0.1, 100] converges to
    the global optimum to 1e-4 absolute.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi, tol = 0.1, 100.0, 1e-4

    def score(a0):
        return exact_log_marginal(ConjugateModel(a0=a0, b0=b0), data)

    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = score(x1), score(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = score(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = score(x2)
    return float(0.5 * (lo + hi))


def ig_posterior_cdf(posterior: ConjugateModel, theta):
    """CDF of IG(a_n, b_n) at theta, an array of theta's shape:
    P(Theta <= t) = Q(a_n, b_n / t)."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    pos = theta > 0
    out[pos] = gammaincc(posterior.a0, posterior.b0 / theta[pos])
    return out


def ig_posterior_quantile(posterior: ConjugateModel, q):
    """Quantiles of IG(a_n, b_n): theta_q = b_n / Q^-1(a_n, q)."""
    q = np.asarray(q, dtype=float)
    return posterior.b0 / gammainccinv(posterior.a0, q)


# ---------------------------------------------------------------------------
# Conjugate particle engine (same SMC loop as the copula sampler)
# ---------------------------------------------------------------------------

def _absorb_lomax_draw(a, b, u):
    """Absorb the Lomax(a, b) inverse-CDF draw y = b((1-u)^(-1/a) - 1) at
    uniforms u into the per-particle b, in place (b += y), and return the
    count a + 1 that every particle shares."""
    b += b * np.expm1(-np.log1p(-u) / a)
    return a + 1.0


class _ConjugateEngine:
    """Lomax posterior predictive state: the shape a, which every record
    raises by 1 in every particle and so is one float, and the
    per-particle scale b.

    `eval_at` returns the Lomax (pdf, survival).  Censored absorption
    inverts the drawn v through the particle's own current predictive
    CDF, so the imputed time always exceeds the censoring time pathwise.
    """

    def __init__(self, model: ConjugateModel, n_particles: int):
        self.a = float(model.a0)
        self.b = np.full(n_particles, float(model.b0))

    def eval_at(self, t):
        return lomax(t, self.a, self.b)

    def absorb_record(self, t, v, observed):
        if observed:
            self.a += 1.0
            self.b += t
        else:
            self.a = _absorb_lomax_draw(self.a, self.b, v)

    def select(self, idx):
        self.b = self.b[idx]


@dataclass
class ConjugateEnsemble(SmcPass):
    """Weighted conjugate-posterior particles after the imputation pass.

    Particle j's posterior is IG(a, b[j]): `a`, a0 plus the number of
    records, is the same for every particle, and `b` sums b0, the
    observed times and the particle's own imputed times for the censored
    records, which are kept nowhere else.
    """

    a: float
    b: np.ndarray  # (B,)


def conjugate_smc(model: ConjugateModel, data: SurvivalDataset,
                  n_particles: int = DEFAULT_N_PARTICLES,
                  ess_frac: float = DEFAULT_ESS_FRAC,
                  seed: int = 0) -> ConjugateEnsemble:
    """Run the censored-data sampler with the exact conjugate predictive."""
    engine = _ConjugateEngine(model, n_particles)
    result = run_smc_loop(engine, data, n_particles, ess_frac, seed)
    return ConjugateEnsemble(a=engine.a, b=engine.b, **vars(result))


# ---------------------------------------------------------------------------
# Posterior-mean limit demonstration
# ---------------------------------------------------------------------------

@dataclass
class DoobResult:
    theta_bar: np.ndarray  # (B,) posterior-mean draws at the horizon
    ensemble: ConjugateEnsemble  # weighted by ensemble.weights
    posterior: ConjugateModel  # exact posterior for comparison

    @property
    def ks_statistic(self) -> float:
        return weighted_ks(self.theta_bar, self.ensemble.weights,
                           lambda t: ig_posterior_cdf(self.posterior, t))


def doob_demo(model: ConjugateModel, data: SurvivalDataset, n_particles: int,
              n_extra: int, seed: int = 0,
              ess_frac: float = DEFAULT_ESS_FRAC) -> DoobResult:
    """Impute censored records, then extend each particle with n_extra
    future draws from its running Lomax predictive and record the
    posterior mean b_N / (a_N - 1).

    The weighted sample of these means targets the exact IG(a_n, b_n)
    posterior; `ks_statistic` measures the discrepancy.
    """
    if n_extra < 0:
        raise ConfigurationError("n_extra must be nonnegative")
    # every record adds 1 to every particle's a, so each a_n is a0 + n
    if n_extra == 0 and model.a0 + data.n <= 1:
        raise ConfigurationError("posterior mean needs a_n > 1; increase n_extra")
    ensemble = conjugate_smc(model, data, n_particles, ess_frac, seed)

    def run(chains, out):
        a, b = ensemble.a, ensemble.b[chains].copy()
        for step in range(n_extra):
            u = rng.uniforms(seed, rng.STREAM_FORWARD, step, b.size,
                             chains.start)
            a = _absorb_lomax_draw(a, b, u)
        out["theta_bar"][chains] = b / (a - 1.0)

    out = shards.run_shards(n_particles, DOOB_SHARD_CHAINS,
                            {"theta_bar": (n_particles,)}, run, "chains")
    return DoobResult(theta_bar=out["theta_bar"], ensemble=ensemble,
                      posterior=posterior_update(model, data))


def weighted_ks(values, weights, cdf_fn) -> float:
    """Kolmogorov-Smirnov distance between a weighted sample and a CDF."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values)
    sorted_vals = values[order]
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    exact = np.asarray(cdf_fn(sorted_vals), dtype=float)
    upper = np.abs(cum - exact)
    lower = np.abs(np.concatenate([[0.0], cum[:-1]]) - exact)
    return float(np.maximum(upper, lower).max())
