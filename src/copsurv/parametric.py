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
from .censoring import DEFAULT_N_PARTICLES, SmcPass, run_smc_loop
from .copulas import lomax
from .dataio import SurvivalDataset
from .errors import ConfigurationError

__all__ = [
    "ConjugateModel",
    "ConjugateState",
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
    a0: float
    b0: float = 1.0

    def __post_init__(self):
        if not (self.a0 > 0 and self.b0 > 0):
            raise ConfigurationError("hyperparameters must be positive")


@dataclass(frozen=True)
class ConjugateState:
    a_n: float
    b_n: float

    def __post_init__(self):
        if not (self.a_n > 0 and self.b_n > 0):
            raise ConfigurationError("state parameters must be positive")

    @property
    def mean(self) -> float:
        """Posterior mean b_n / (a_n - 1); requires a_n > 1."""
        if not self.a_n > 1:
            raise ConfigurationError("posterior mean needs a_n > 1")
        return self.b_n / (self.a_n - 1.0)


def posterior_update(model: ConjugateModel, data: SurvivalDataset) -> ConjugateState:
    """a_n = a0 + (observed count), b_n = b0 + (sum of all recorded times)."""
    return ConjugateState(
        a_n=model.a0 + data.n_observed,
        b_n=model.b0 + float(data.times.sum()),
    )


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


def tune_a0(data: SurvivalDataset, b0: float = 1.0,
            bounds: tuple = (0.1, 100.0), tol: float = 1e-4) -> float:
    """Maximize the exact log marginal over a0 by golden-section search.

    The objective is concave in a0 (digamma differences are decreasing),
    so the derivative-free bracket shrink converges to the global optimum
    to `tol` absolute.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = bounds

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


def ig_posterior_cdf(state: ConjugateState, theta):
    """CDF of IG(a_n, b_n) at theta: P(Theta <= t) = Q(a_n, b_n / t)."""
    arr = np.asarray(theta, dtype=float)
    flat = np.atleast_1d(arr)
    out = np.zeros_like(flat)
    pos = flat > 0
    out[pos] = gammaincc(state.a_n, state.b_n / flat[pos])
    return float(out[0]) if arr.ndim == 0 else out


def ig_posterior_quantile(state: ConjugateState, q):
    """Quantiles of IG(a_n, b_n): theta_q = b_n / Q^-1(a_n, q)."""
    q = np.asarray(q, dtype=float)
    return state.b_n / gammainccinv(state.a_n, q)


# ---------------------------------------------------------------------------
# Conjugate particle engine (same SMC loop as the copula sampler)
# ---------------------------------------------------------------------------

def _absorb_lomax_draw(a, b, u):
    """Absorb the Lomax(a, b) inverse-CDF draw y = b((1-u)^(-1/a) - 1) at
    uniforms u into the per-particle state, in place: a += 1, b += y."""
    y = b * np.expm1(-np.log1p(-u) / a)
    a += 1.0
    b += y


class _ConjugateEngine:
    """Per-particle (a, b) state under the Lomax posterior predictive.

    `eval_at` returns the Lomax (pdf, survival).  Censored absorption
    inverts the drawn u through the particle's own current predictive
    CDF, so the imputed time always exceeds the censoring time pathwise.
    """

    def __init__(self, model: ConjugateModel, n_particles: int):
        self.a = np.full(n_particles, float(model.a0))
        self.b = np.full(n_particles, float(model.b0))

    def eval_at(self, t):
        return lomax(t, self.a, self.b)

    def absorb_observed(self, t, surv):
        self.a += 1.0
        self.b += t

    def absorb_censored(self, u):
        _absorb_lomax_draw(self.a, self.b, u)

    def select(self, idx):
        self.a = self.a[idx]
        self.b = self.b[idx]


@dataclass
class ConjugateEnsemble(SmcPass):
    """Weighted conjugate-posterior particles after the imputation pass.

    Particle j's posterior is IG(a[j], b[j]): `a` counts a0 plus every
    record, and `b` sums b0, the observed times and the particle's own
    imputed times for the censored records, which are kept nowhere else.
    """

    model: ConjugateModel
    a: np.ndarray  # (B,)
    b: np.ndarray  # (B,)


def conjugate_smc(model: ConjugateModel, data: SurvivalDataset,
                  n_particles: int = DEFAULT_N_PARTICLES,
                  ess_frac: float = 0.5,
                  seed: int = 0) -> ConjugateEnsemble:
    """Run the censored-data sampler with the exact conjugate predictive."""
    engine = _ConjugateEngine(model, n_particles)
    result = run_smc_loop(engine, data.times, data.status, n_particles,
                          ess_frac, seed)
    return ConjugateEnsemble(model=model, a=engine.a, b=engine.b,
                             **vars(result))


# ---------------------------------------------------------------------------
# Posterior-mean limit demonstration
# ---------------------------------------------------------------------------

@dataclass
class DoobResult:
    theta_bar: np.ndarray  # (B,) posterior-mean draws at the horizon
    weights: np.ndarray  # (B,) normalized importance weights
    ensemble: ConjugateEnsemble
    state: ConjugateState  # exact posterior for comparison

    @property
    def ks_statistic(self) -> float:
        return weighted_ks(self.theta_bar, self.weights,
                           lambda t: ig_posterior_cdf(self.state, t))


def doob_demo(model: ConjugateModel, data: SurvivalDataset, n_particles: int,
              n_extra: int, seed: int = 0,
              ess_frac: float = 0.5) -> DoobResult:
    """Impute censored records, then extend each particle with n_extra
    future draws from its running Lomax predictive and record the
    posterior mean b_N / (a_N - 1).

    The weighted sample of these means targets the exact IG(a_n, b_n)
    posterior; `ks_statistic` measures the discrepancy.
    """
    if n_extra < 0:
        raise ConfigurationError("n_extra must be nonnegative")
    ensemble = conjugate_smc(model, data, n_particles, ess_frac, seed)
    if n_extra == 0 and np.any(ensemble.a <= 1):
        raise ConfigurationError("posterior mean needs a_n > 1; increase n_extra")

    def run(chains, out):
        a = ensemble.a[chains].copy()
        b = ensemble.b[chains].copy()
        for step in range(n_extra):
            u = rng.uniforms(seed, rng.STREAM_FORWARD, step, a.size,
                             chains.start)
            _absorb_lomax_draw(a, b, u)
        out["theta_bar"][chains] = b / (a - 1.0)

    out = shards.run_shards(n_particles, DOOB_SHARD_CHAINS,
                            {"theta_bar": (n_particles,)}, run, "chains")
    return DoobResult(
        theta_bar=out["theta_bar"],
        weights=ensemble.weights,
        ensemble=ensemble,
        state=posterior_update(model, data),
    )


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
