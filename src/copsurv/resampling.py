"""Forward predictive resampling and martingale-posterior construction.

A posterior draw of the unknown distribution is produced by extending a
fitted predictive with a long synthetic future: at forward step t the value
P(Y_new) is itself uniform, so one uniform draw u per step updates the
grid-evaluated (density, survival) rows directly through the copula
recursion, no inverse CDF needed.  The final survival row is the draw of
the limiting distribution; functionals (survival curve, density, median)
are read off the grid.  The rows hold the survival S = 1 - F, the state
of the recursion (`predictive`); only `cdf_draws.csv` (`cli`) writes
1 - S.  Starting the chains from the particles of a censored-data
imputation run and carrying their weights gives the weighted posterior
sample.

Convergence is tracked by the Wasserstein-1 distance between the running
and starting rows, computed on the survival since |dS| = |dF|, which
settles to a constant as the future grows (Fong, Holmes & Walker 2023).
It is computed only where it is read: the whole trajectory of the first
`trace_chains` chains; the other chains compute none.

Chains are independent: chain j's step-t uniform is element j of one
counter-based stream, and with covariates its step-t bootstrap pick
reads element t * B + j of the pick stream, so a chain's draw does not
depend on how many other chains run, or where.  `_run_rows` splits the
chains into contiguous shards, one per CPU the process may use, and runs
each shard in its own forked process (`shards.run_shards`).  A shard's
chains are the columns of its own `predictive.RunningPredictive` on the
grid, which weighs every record it absorbs: the start rows absorb the
fitted records into it, each with its own covariates, and each forward
step absorbs one synthetic record through the same `absorb`, in place,
with each chain's picked covariate row.  The shard then copies its
chains, one row each, into the shared anonymous mappings of the (B, G)
outputs.  Each shard reads only its own chains' elements of a step's
uniforms and picks from the counter; the recursion and W1 are chain by
chain, so the shard count moves no output bit.

The forward pass carries its rows in the family's `pass_dtype`, as the
SMC pass does (`censoring`), rounded once from the start rows at its
first step: float32 for the Clayton family (above
`copulas.CLAYTON_FLOAT32_MIN_BANDWIDTH`), float64 for the Gaussian one,
whose kernel gains nothing from float32.  The start rows, held-out
scoring, the chains' weights and the W1 sums stay float64, and a pass
of no step returns the start rows themselves.  A float32 survival draw
lies within about 1e-5 of the float64 recursion's on the same uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, shards
from .censoring import ParticleEnsemble
from .dataio import SurvivalDataset
from .errors import ConfigurationError
from .predictive import RunningPredictive

__all__ = [
    "GridSpec",
    "log_grid",
    "default_grid",
    "PosteriorDraws",
    "martingale_posterior",
    "median_from_survival",
    "weighted_mean",
    "weighted_quantiles",
    "ensemble_grid_rows",
    "heldout_mean_log_lik",
    "DEFAULT_N_EXTRA",
]

DEFAULT_N_EXTRA = 2000
# Fewest elements (particles x points) a row shard runs: a smaller run
# stays in fewer processes, where a fork would cost more than it saves.
ROW_SHARD_ELEMS = 8192
# Rows of `weighted_mean`'s products held at once.  Its (B, G + 1)
# temporaries, once freed, raised glibc's dynamic mmap threshold above
# the (B, G) arrays that followed, which then stayed on the heap: 3 MiB
# more peak memory in the benchmark's `posterior` call.
MEAN_CHUNK_ROWS = 256


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing evaluation times, at least two, starting >= 0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigurationError("grid needs at least two points")
        if pts[0] < 0 or np.any(np.diff(pts) <= 0):
            raise ConfigurationError("grid must be strictly increasing from >= 0")


def log_grid(top: float, size: int = 100, include_zero: bool = True) -> GridSpec:
    """`size` points ending at `top`, log-spaced from top * 1e-4.

    `include_zero` makes the origin the first point (skip it for the
    log-normal base, whose density lives on the open half-line); at
    size 2 the grid is then [0, top].
    """
    pts = np.geomspace(top * 1e-4, top, size - 1 if include_zero else size)
    pts[-1:] = top  # np.geomspace puts a lone point at its start
    return GridSpec(np.concatenate([[0.0], pts]) if include_zero else pts)


def default_grid(data: SurvivalDataset, size: int = 100,
                 include_zero: bool = True, top=None) -> GridSpec:
    """`log_grid` of `data`'s standardized times out to `top`, given in
    input units, or by default to 1.5x the largest recorded time."""
    top = (1.5 * float(data.times.max()) if top is None
           else top * data.scale_factor)
    return log_grid(top, size, include_zero)


def _pick_weights(n_pool: int, n_chains: int, seed: int) -> np.ndarray:
    """Each chain's cumulated Bayesian-bootstrap weights over n_pool rows,
    (n_chains, n_pool), one Dirichlet(1, ..., 1) row per chain, ending at 1."""
    weights = rng.dirichlet_uniform(seed, rng.STREAM_BOOTSTRAP_DIR,
                                    (n_chains, n_pool))
    cumulative = np.cumsum(weights, axis=1)
    cumulative[:, -1] = 1.0
    return cumulative


def _step_picks(cumulative: np.ndarray, seed: int, step: int,
                rows: slice) -> np.ndarray:
    """Pool indices of chains `rows`' step-`step` picks, given every chain's
    `_pick_weights`: chain j's pick counts its weights at or below element
    step * B + j of the pick stream, read from the counter.  The last
    weight, 1, exceeds every uniform, so a pick is at most n_pool - 1."""
    u = rng.uniforms(seed, rng.STREAM_BOOTSTRAP_PICK, 0, rows.stop - rows.start,
                     step * cumulative.shape[0] + rows.start)
    return np.count_nonzero(cumulative[rows] <= u[:, None], axis=1)


def _w1_rows(a, b, points):
    """Wasserstein-1 distance between CDF rows a and b (..., G) on the
    grid `points`, or equally between their survival rows: the
    trapezoidal L1 distance along the last axis."""
    return np.trapezoid(np.abs(a - b), points, axis=-1)


def median_from_survival(surv_rows, grid: GridSpec):
    """Grid time where each survival row (..., G) falls to one half,
    linearly interpolated: an array, or a float for one row.

    A survival that stays above one half on the whole grid gives the grid
    top: its median is right-censored there, the "median not reached" of
    survival practice (Brookmeyer & Crowley 1982).
    """
    surv = np.asarray(surv_rows, dtype=float)
    pts = grid.points
    if surv.shape[-1:] != pts.shape:
        raise ValueError("rows must match the grid size")
    hit = surv <= 0.5
    j = np.maximum(hit.argmax(axis=-1), 1)  # the first crossing, if any
    s0, s1 = (np.take_along_axis(surv, k[..., None], -1)[..., 0]
              for k in (j - 1, j))
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = pts[j - 1] + (s0 - 0.5) * (pts[j] - pts[j - 1]) / (s0 - s1)
    med = np.where(hit[..., 0], pts[0], np.where(hit.any(-1), mid, pts[-1]))
    return float(med) if med.ndim == 0 else med


@dataclass
class PosteriorDraws:
    """Weighted martingale-posterior sample of grid-evaluated functionals.

    Each chain's draw is its final (survival, density) row on the grid.
    `w1_trace[j, t]` is chain j's Wasserstein-1 distance from its starting
    row after t forward steps, for the first min(trace_chains, B) chains.
    `predictive_density` and `predictive_survival` are the weighted means
    of the starting rows: the fitted predictive on the grid, before any
    forward step.  `censored[j]` flags a chain whose survival stays above
    one half on the grid: its median is the grid top.
    """

    grid: GridSpec
    survival_draws: np.ndarray  # (B, G)
    density_draws: np.ndarray  # (B, G)
    medians: np.ndarray  # (B,)
    censored: np.ndarray  # (B,), bool
    weights: np.ndarray  # (B,), normalized
    w1_trace: np.ndarray  # (min(trace_chains, B), n_extra + 1)
    predictive_density: np.ndarray  # (G,)
    predictive_survival: np.ndarray  # (G,)

    @property
    def n_draws(self) -> int:
        return self.survival_draws.shape[0]


def weighted_mean(values, weights):
    """Weighted average of the rows of a (n, g) array, normalized by the
    weight sum.

    The weight sum is accumulated through the same reduction as the
    numerator (a ones column ride-along), so a column of exact ones
    averages to exactly 1.0: a survival curve pinned at the origin stays
    pinned.  The rows are reduced `MEAN_CHUNK_ROWS` at a time, each chunk
    led by the sums so far: numpy reduces axis 0 row after row, so the
    bits are those of one reduction over all rows, and no temporary is
    the size of `values`.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    n, g = v.shape
    work = np.empty((min(n, MEAN_CHUNK_ROWS) + 1, g + 1))
    sums = None
    for lo in range(0, n, MEAN_CHUNK_ROWS):
        k = min(MEAN_CHUNK_ROWS, n - lo)
        part = work[1:k + 1]
        part[:, :g] = v[lo:lo + k]
        part[:, g] = 1.0
        part *= w[lo:lo + k, None]
        if sums is not None:
            work[0] = sums
            part = work[:k + 1]
        sums = part.sum(axis=0)
    return sums[:-1] / sums[-1]


def weighted_quantiles(values, weights, qs):
    """Weighted quantiles along axis 0 of `values` ((B,) or (B, G))."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    single_col = values.ndim == 1
    vals = values[:, None] if single_col else values
    out = np.empty((qs.size, vals.shape[1]))
    for g in range(vals.shape[1]):
        order = np.argsort(vals[:, g])
        v = vals[order, g]
        cw = np.cumsum(weights[order])
        cw /= cw[-1]
        out[:, g] = np.interp(qs, cw, v)
    return out[:, 0] if single_col else out


# ---------------------------------------------------------------------------
# Vectorized forward core, run over row shards
# ---------------------------------------------------------------------------

def _start_rows(ensemble: ParticleEnsemble, running, rows):
    """Absorb every particle's fitted history, each record with its own
    covariates, into `running`, whose rows are the particles `rows` (a
    slice of 0..B-1)."""
    x = ensemble.covariates
    for j, v in enumerate(ensemble.v_matrix):
        running.absorb(v[rows], None if x is None else x[j])


def _forward(ensemble: ParticleEnsemble, running, rows, points, n_extra,
             seed, start, trace):
    """Absorb n_extra synthetic records into `running`, whose columns are
    the chains `rows`, one per step and one value per chain, and write
    into `trace` the Wasserstein-1 trajectories on the grid `points`, from
    their starting rows `start` (one row per chain), of the traced chains:
    the leading columns of `running`, if any.  Each step takes one W1 call
    over the traced chains, and a chain that is not traced pays for none.

    Chain j's step-t value is element j of stream (seed, t), as drawn
    (`absorb` clamps it), and each step draws only the elements of
    `rows`; with covariates, the step-t record of chain j carries the
    covariates of its step-t bootstrap pick, whatever the shard or block
    size.  The first step rounds the rows to the family's `pass_dtype`;
    each W1 is summed in float64, from those rows less the float64
    `start`.
    """
    x = ensemble.covariates
    n_rows = running.surv.shape[1]
    n_traced = trace.shape[0]
    if ensemble.rho_x is not None:
        cumulative = _pick_weights(x.shape[0], ensemble.n_particles, seed)
    if n_extra:
        running.round_to(ensemble.family.pass_dtype)
    for t in range(n_extra):
        picked = None
        if ensemble.rho_x is not None:
            picked = x[_step_picks(cumulative, seed, t, rows)]
        running.absorb(rng.uniforms(seed, rng.STREAM_FORWARD, t, n_rows,
                                    rows.start), picked)
        if n_traced:
            # the traced columns, copied as rows, so each chain's terms
            # sum along a contiguous last axis whatever layout numpy
            # picks: the bits of np.trapezoid on the chain's own row
            trace[:, t + 1] = _w1_rows(
                np.ascontiguousarray(running.surv[:, :n_traced].T),
                start[:n_traced], points)


def _run_rows(ensemble: ParticleEnsemble, points, x_target, forward=None):
    """The running predictive at `points` after every particle's absorbed
    history: a dict with "dens" and "surv" (the survival) of shape
    (B, points).  With `forward = (n_extra, seed, trace_chains)` the rows
    then run the forward pass: "dens" and "surv" are the final rows,
    "start_dens" and "start_surv" the starting ones, and "trace" the
    `w1_trace` of `PosteriorDraws`.  The rows run in `shards.run_shards`
    row shards of at least `ROW_SHARD_ELEMS` elements each, every array
    in its own mapping; a shard runs a (points, rows) running predictive
    of its own, takes the W1 of its traced chains from its columns, and
    copies it, transposed, into its rows.  (A shard's columns of one
    shared (points, B) array would be strided blocks, and ran slower than
    either layout.)
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    b, g = ensemble.n_particles, points.size
    shapes = {"dens": (b, g), "surv": (b, g)}
    if forward is not None:
        n_extra, seed, trace_chains = forward
        shapes.update(start_dens=(b, g), start_surv=(b, g),
                      trace=(min(trace_chains, b), n_extra + 1))

    def run(rows, out):
        running = RunningPredictive(ensemble.family, points,
                                    rows.stop - rows.start, ensemble.rho_x,
                                    x_target)
        _start_rows(ensemble, running, rows)
        if forward is not None:
            out["start_dens"][rows] = running.dens.T
            out["start_surv"][rows] = running.surv.T
            _forward(ensemble, running, rows, points, n_extra, seed,
                     out["start_surv"][rows], out["trace"][rows])
        out["dens"][rows] = running.dens.T
        out["surv"][rows] = running.surv.T

    return shards.run_shards(b, max(1, ROW_SHARD_ELEMS // g), shapes, run,
                             "rows")


def ensemble_grid_rows(ensemble: ParticleEnsemble, grid: GridSpec,
                       x_target=None):
    """Per-particle (density, survival) rows of the fitted predictive on
    the grid, shape (B, G) each; the importance-weighted mixture of these
    is the point predictive."""
    _check_target(ensemble.rho_x, x_target)
    out = _run_rows(ensemble, grid.points, x_target)
    return out["dens"], out["surv"]


def heldout_mean_log_lik(ensemble: ParticleEnsemble, test) -> float:
    """Mean held-out predictive score under the weighted mixture: observed
    records contribute log density, censored records log survival mass.

    `test` must already be on the training scale (times multiplied by the
    training scale factor, covariates z-scored with training statistics).
    All records are evaluated in one propagation, each at its own time
    and covariate row.
    """
    out = _run_rows(ensemble, test.times, test.covariates)
    w = ensemble.weights
    mass = np.where(test.status == 1, weighted_mean(out["dens"], w),
                    weighted_mean(out["surv"], w))
    # summed in record order, as a running total sums (np.sum is pairwise)
    return float(np.add.accumulate(np.log(mass))[-1] / test.n)


def _check_target(rho_x, x_target):
    if (x_target is not None) and rho_x is None:
        raise ConfigurationError("fit has no covariate structure; drop x_target")
    if (x_target is None) and rho_x is not None:
        raise ConfigurationError("this fit conditions on covariates; pass x_target")


def martingale_posterior(ensemble: ParticleEnsemble, n_extra: int,
                         grid: GridSpec, x_target=None, seed: int = 0,
                         trace_chains: int = 0) -> PosteriorDraws:
    """Posterior draws: one forward chain per particle, carrying its
    normalized weight.

    Chains are driven by counter-based streams, so the result is
    bit-identical for a given (seed, ensemble), and a chain's draw does
    not depend on how many other chains run.  The first `trace_chains`
    chains keep their whole W1 trajectory (`w1_trace`); no other chain
    computes a W1.
    """
    _check_target(ensemble.rho_x, x_target)
    if n_extra < 0:
        raise ConfigurationError("n_extra must be nonnegative")
    weights = ensemble.weights
    out = _run_rows(ensemble, grid.points, x_target,
                    (n_extra, seed, trace_chains))
    surv = out["surv"]
    return PosteriorDraws(
        grid=grid,
        survival_draws=surv,
        density_draws=out["dens"],
        medians=median_from_survival(surv, grid),
        censored=~np.any(surv <= 0.5, axis=1),
        weights=weights,
        w1_trace=out["trace"],
        predictive_density=weighted_mean(out["start_dens"], weights),
        predictive_survival=weighted_mean(out["start_surv"], weights),
    )
