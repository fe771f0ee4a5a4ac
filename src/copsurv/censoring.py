"""Sequential importance sampling over censored records, with SMC resampling.

The sampler walks the dataset in its stored order keeping B particles.  An
observed record multiplies each particle's weight by its current predictive
density there and absorbs the propagation value; a right-censored record
draws its propagation value V ~ Uniform(P(c), 1) in CDF space per
particle, as V = 1 - S(c)(1 - U) from the predictive survival S(c) =
1 - P(c) and a uniform U, multiplies the weight by S(c), and absorbs V.
Whenever the effective sample size of the weights drops below
`ess_frac * B`, the ensemble is systematically resampled and weights
reset to uniform.

Weights are accumulated in log space (products of hundreds of densities
underflow otherwise).  The running marginal-likelihood estimate is the sum
over resampling segments of log-mean unnormalized weight, which reduces to
a single log-mean when no resampling fires.  With no censored record
every particle carries the same history, so one particle suffices: its
estimate is the prequential log-likelihood sum(log p_{i-1}(y_i)), exact,
and it is how the tuning grid scores fully observed data.

The loop computes both propagation values and is generic over a small
particle-state "engine" (evaluate, absorb a record, select) so that the
exact conjugate predictive (see `parametric`) runs through the identical
code path as the copula predictive; both ensembles extend `SmcPass` with
their own particle state.  The engine's state is the only copy of each
particle's history: a censored record's draw lives on only as the value
the engine absorbed, and resampling re-indexes that state and the
ancestry, nothing else.  The copula engine is a
`predictive.RunningPredictive` whose points are the records still to
come, at their own times: besides that history it carries the running
predictive survival of every pending record (one row each) under every
particle (one column each), and the density only of the pending
observed records, the only ones whose density the pass reads.  Its
rows are the observed records in record order, then the censored ones
in reverse, so the next record is the first row or the last: evaluating
it reads that row, and absorbing it steps to the contiguous slab of the
other rows and updates them, in blocks of whole records, with the
weight that the running predictive computes once per record from its
count and the records' covariates; resampling gathers the columns.  The
recursion costs one survival-kernel evaluation per (pending record,
particle, absorbed record), and the density's share of it only at the
pending observed records, not a kernel call per pair of records.  All
randomness comes from counter-based streams keyed by (seed, stream,
record index), so a pass is a pure function of (data, particle count,
seed) and reruns bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import copulas, rng
from .copulas import CopulaFamily
from .dataio import SurvivalDataset
from .errors import ConfigurationError, DegeneracyError
from .predictive import RunningPredictive

__all__ = [
    "SmcPass",
    "ParticleEnsemble",
    "impute_smc",
    "ess_from_log_weights",
    "systematic_indices",
    "DEFAULT_N_PARTICLES",
    "DEFAULT_ESS_FRAC",
]

# Particles of an SMC pass, and so chains of a posterior, by default.
DEFAULT_N_PARTICLES = 2000
# A pass resamples when the ESS falls below this fraction of its particles.
DEFAULT_ESS_FRAC = 0.5


# ---------------------------------------------------------------------------
# Weight diagnostics and resampling primitives
# ---------------------------------------------------------------------------

def ess_from_log_weights(log_weights) -> float:
    """Effective sample size (sum w)^2 / sum w^2 of the weights
    w = exp(lw - max lw), max-shifted for stability: exactly B for equal
    weights and 1 when a single weight carries all the mass."""
    lw = np.asarray(log_weights, dtype=float)
    m = np.max(lw)
    if not np.isfinite(m):
        raise DegeneracyError("all weights are zero")
    w = np.exp(lw - m)
    total = w.sum()
    return float(total * total / np.sum(w * w))


def systematic_indices(weights, offset: float) -> np.ndarray:
    """Ancestor indices from one uniform offset and stride 1/B.

    Expected offspring count of particle j is B * w_j; uniform weights
    reproduce every particle exactly once.  The running sums are used as
    they round: a position above the last one finds no sum above it, and
    the clip gives it the last particle.
    """
    w = np.asarray(weights, dtype=float)
    b = w.size
    positions = (offset + np.arange(b)) / b
    cumulative = np.cumsum(w)
    return np.searchsorted(cumulative, positions, side="right").clip(0, b - 1)


# ---------------------------------------------------------------------------
# Pass results
# ---------------------------------------------------------------------------

@dataclass
class SmcPass:
    """Weights and traces of one SMC pass over the records.

    Traces are per processed record: the ESS of the weights after the
    record's update, and the number of distinct surviving ancestries.
    The particles themselves are the engine's state, kept by the
    ensembles that extend this class.
    """

    log_weights: np.ndarray  # (B,)
    log_z: float
    ess_trace: np.ndarray  # (n,)
    unique_trace: np.ndarray  # (n,)
    resample_steps: list

    @property
    def n_particles(self) -> int:
        return self.log_weights.size

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights - logsumexp(self.log_weights))

    @property
    def final_ess(self) -> float:
        return ess_from_log_weights(self.log_weights)


@dataclass
class ParticleEnsemble(SmcPass):
    """Weighted copula particle system after one full pass over the data.

    `v_matrix[i, j]` is particle j's propagation value for record i, so a
    column is one fitted predictive: a single fit is a one-column
    ensemble with unit weight.  For a censored record the value is the
    particle's draw above P(c), as drawn (`absorb` clamps what it takes).
    """

    family: CopulaFamily
    rho_x: float | None
    covariates: np.ndarray | None
    v_matrix: np.ndarray  # (n, B)


# ---------------------------------------------------------------------------
# Generic SMC loop
# ---------------------------------------------------------------------------

def run_smc_loop(engine, data: SurvivalDataset, n_particles: int,
                 ess_frac: float, seed: int) -> SmcPass:
    """Drive an engine through the records of `data` with IS weighting
    and ESS-triggered systematic resampling.

    The engine contract, with every array of shape (B,): eval_at(t) ->
    (density, survival), the predictive at the next record's time t given
    the records absorbed so far (the density may be None when the record
    is censored: the loop reads it only for an observed one);
    absorb_record(t, v, observed) takes that record, at time t, with
    each particle's propagation value v in CDF space: P(t) = 1 - S(t)
    when `observed`, else its draw above P(c) = 1 - S(c); select(idx)
    re-indexes the particle state by ancestor indices.  A particle whose
    survival at a censoring time is at most CLAMP_EPS is dead: its weight
    is zero.  Records are visited in order, each evaluated once and then
    absorbed, so an engine counts them itself, and may return the
    predictive of the records to come as a view: the loop only reads
    what eval_at returns.

    One particle is enough when no record is censored (the pass is then
    deterministic); imputing a censored record needs at least two.
    """
    if n_particles < 1:
        raise ConfigurationError("need at least 1 particle")
    times, status = data.times, data.status
    if n_particles < 2 and np.any(status == 0):
        raise ConfigurationError(
            "need at least 2 particles to impute censored records")
    if not 0.0 <= ess_frac <= 1.0:
        raise ConfigurationError("ess_frac must lie in [0, 1]")
    b = n_particles
    n = len(times)
    log_w = np.zeros(b)
    log_z = 0.0
    ancestry = np.arange(b)
    unique = b
    ess_trace = np.empty(n)
    unique_trace = np.empty(n, dtype=int)
    resample_steps: list = []

    for i in range(n):
        t = float(times[i])
        dens, surv = engine.eval_at(t)
        observed = status[i] == 1
        if observed:
            with np.errstate(divide="ignore"):
                log_w += np.log(dens)
            v = 1.0 - surv
        else:
            dead = surv <= copulas.CLAMP_EPS
            unif = rng.uniforms(seed, rng.STREAM_IMPUTE, i, b)
            v = 1.0 - surv * (1.0 - unif)
            # keep draws strictly above P(c) and strictly below 1; dead
            # particles get a finite placeholder (their weight is zero)
            v = np.maximum(v, np.nextafter(1.0 - surv, 1.0))
            v = np.minimum(v, 1.0 - 1e-12)
            v = np.where(dead, 1.0 - 1e-12, v)
            with np.errstate(divide="ignore"):
                log_w += np.where(dead, -np.inf, np.log(surv))
        engine.absorb_record(t, v, observed)
        if not np.isfinite(np.max(log_w)):
            row = i if data.perm is None else data.perm[i]
            raise DegeneracyError(f"all {b} particle weights vanished at "
                                  f"record {i + 1} (input row {row + 1})")
        ess_trace[i] = ess_from_log_weights(log_w)
        if ess_trace[i] < ess_frac * b:
            log_mass = logsumexp(log_w)
            log_z += log_mass - np.log(b)
            shifted = np.exp(log_w - log_mass)
            offset = float(rng.uniforms(seed, rng.STREAM_RESAMPLE, i, 1)[0])
            idx = systematic_indices(shifted, offset)
            engine.select(idx)
            ancestry = ancestry[idx]
            unique = np.unique(ancestry).size
            log_w = np.zeros(b)
            resample_steps.append(i)
        unique_trace[i] = unique
    log_z += logsumexp(log_w) - np.log(b)
    return SmcPass(log_weights=log_w, log_z=float(log_z),
                   ess_trace=ess_trace, unique_trace=unique_trace,
                   resample_steps=resample_steps)


# ---------------------------------------------------------------------------
# Copula particle engine
# ---------------------------------------------------------------------------

class _CopulaEngine(RunningPredictive):
    """Vectorized particle state for the copula predictive: per-particle
    propagation values `v`, one row per record as drawn, and the running
    predictive whose points are the records still to come, at their own
    times and covariate rows.

    The pass reads a record's density only if it is observed (`status`
    1), so only those points carry one: the points are the observed
    records in record order, then the censored records in reverse record
    order, and the leading rows, one per pending observed record, carry
    the density.  The next record is then row 0 when observed and the
    last row when censored: evaluating it reads that row (no density for
    a censored record), and absorbing it steps to the contiguous slab of
    the other rows (a view, so nothing is copied) and updates them: one
    sweep over the pending records per record, not a re-propagation of
    every record through the whole absorbed history.
    """

    def __init__(self, family, rho_x, covariates, times, status,
                 n_particles):
        observed = np.flatnonzero(status == 1)
        order = np.concatenate([observed, np.flatnonzero(status == 0)[::-1]])
        super().__init__(family, times[order], n_particles, rho_x,
                         None if covariates is None else covariates[order],
                         n_density=observed.size)
        self.status = status
        self.v = np.empty((len(times), n_particles))

    def eval_at(self, t):
        # t is the next record's time: row 0 if observed, else the last
        if self.status[self.n_absorbed] == 1:
            return self.dens[0], self.surv[0]
        return None, self.surv[-1]

    def absorb_record(self, t, v, observed):
        self.v[self.n_absorbed] = v
        row, rest = (0, slice(1, None)) if observed else (-1, slice(-1))
        self.surv = self.surv[rest]
        if observed:
            self.dens = self.dens[rest]
        x = self.x_points
        if x is not None:
            x, self.x_points = x[row], x[rest]
        self.absorb(v, x)

    def select(self, idx):
        # np.take gathers the columns into a C-contiguous array (fancy
        # indexing on the last axis would return a Fortran-ordered one)
        self.v[:self.n_absorbed] = self.v[:self.n_absorbed, idx]
        self.dens = np.take(self.dens, idx, axis=1)
        self.surv = np.take(self.surv, idx, axis=1)


def impute_smc(data: SurvivalDataset, family: CopulaFamily,
               rho_x: float | None = None,
               n_particles: int = DEFAULT_N_PARTICLES,
               ess_frac: float = DEFAULT_ESS_FRAC,
               seed: int = 0) -> ParticleEnsemble:
    """Impute right-censored records under the copula predictive.

    Processes records in the dataset's stored order.  Returns the full
    weighted ensemble with per-record ESS / unique-ancestry traces, the
    resampling step indices, and the accumulated marginal-likelihood
    estimate.
    """
    if rho_x is not None and data.covariates is None:
        raise ConfigurationError("rho_x given but the dataset has no covariates")
    engine = _CopulaEngine(family, rho_x, data.covariates, data.times,
                           data.status, n_particles)
    result = run_smc_loop(engine, data, n_particles, ess_frac, seed)
    return ParticleEnsemble(family=family, rho_x=rho_x,
                            covariates=data.covariates, v_matrix=engine.v,
                            **vars(result))
