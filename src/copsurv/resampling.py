"""Forward predictive resampling and martingale-posterior construction.

A posterior draw of the unknown distribution is produced by extending a
fitted predictive with a long synthetic future: at forward step t the value
P(Y_new) is itself uniform, so one uniform draw u per step updates the
grid-evaluated (density, cdf) rows directly through the copula recursion,
no inverse CDF needed.  The final CDF row is the draw of the limiting
distribution; functionals (survival curve, density, median) are read off
the grid.  Starting the chains from the particles of a censored-data
imputation run and carrying their weights gives the weighted posterior
sample.

Convergence is tracked by the Wasserstein-1 distance between the running
and starting CDF rows, which settles to a constant as the future grows
(Fong, Holmes & Walker 2023).  It is computed only where it is read: the
whole trajectory of the first `trace_chains` chains, and every chain's
last `W1_TAIL_STEPS` steps.

Chains are conceptually independent; the implementation vectorizes
them, drawing chain j's step-t uniform as element j of one counter-based
stream, so a chain's draw does not depend on how many other chains run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import copulas, rng
from .censoring import ParticleEnsemble
from .copulas import alpha_regression, alpha_schedule
from .dataio import SurvivalDataset
from .errors import ConfigurationError, GridCoverageError
from .predictive import block_rows, propagate, row_blocks, step_weights, update

__all__ = [
    "GridSpec",
    "log_grid",
    "default_grid",
    "PosteriorDraws",
    "martingale_posterior",
    "median_from_cdf",
    "wasserstein1",
    "weighted_mean",
    "weighted_quantiles",
    "ensemble_grid_rows",
    "heldout_mean_log_lik",
    "DEFAULT_N_EXTRA",
    "DEFAULT_N_EXTRA_REGRESSION",
    "W1_TAIL_STEPS",
]

DEFAULT_N_EXTRA = 2000
DEFAULT_N_EXTRA_REGRESSION = 10000
# Forward steps at the end of every chain whose W1 is kept (`w1_tail`).
W1_TAIL_STEPS = 100


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

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])


def log_grid(top: float, size: int = 100, include_zero: bool = True) -> GridSpec:
    """`size` points log-spaced from top * 1e-4 to `top`.

    `include_zero` makes the origin the first point (skip it for the
    log-normal base, whose density lives on the open half-line).
    """
    if include_zero:
        pts = np.concatenate([[0.0], np.geomspace(top * 1e-4, top, size - 1)])
    else:
        pts = np.geomspace(top * 1e-4, top, size)
    return GridSpec(points=pts)


def default_grid(data: SurvivalDataset, size: int = 100,
                 include_zero: bool = True) -> GridSpec:
    """`log_grid` out to 1.5x the largest recorded time."""
    return log_grid(1.5 * float(data.times.max()), size, include_zero)


def _bootstrap_picks(pool: np.ndarray, n_chains: int, n_steps: int,
                     chunk: int, seed: int):
    """Yield (steps, n_chains) pool indices, `chunk` steps at a time; one
    Dirichlet weight vector per chain, then per-step categorical picks,
    all from keyed streams.  The picks do not depend on `chunk`: the
    chunks are consecutive draws of one stream."""
    n = pool.shape[0]
    weights = rng.dirichlet_uniform(seed, rng.STREAM_BOOTSTRAP_DIR,
                                    (n_chains, n))
    cumulative = np.cumsum(weights, axis=1)
    cumulative[:, -1] = 1.0
    draws = rng.stream(seed, rng.STREAM_BOOTSTRAP_PICK)
    for t0 in range(0, n_steps, chunk):
        u = draws.random((min(chunk, n_steps - t0), n_chains))
        picks = np.empty(u.shape, dtype=np.int64)
        for j in range(n_chains):
            picks[:, j] = np.searchsorted(cumulative[j], u[:, j], side="right")
        yield picks.clip(0, n - 1)


def wasserstein1(cdf_a, cdf_b, grid: GridSpec):
    """Trapezoidal L1 distance between two CDF rows on the grid.

    Rows may be stacked (..., grid size); the distance is computed along
    the last axis.
    """
    a = np.asarray(cdf_a, dtype=float)
    b = np.asarray(cdf_b, dtype=float)
    if a.shape[-1] != grid.points.size or b.shape[-1] != grid.points.size:
        raise ValueError("rows must match the grid size")
    shape = np.broadcast_shapes(a.shape, b.shape)
    return _w1_rows(a, b, np.diff(grid.points), np.empty(shape),
                    np.empty(shape[:-1] + (shape[-1] - 1,)))


def _w1_rows(a, b, dx, gap, terms):
    """`wasserstein1` of rows a and b given dx = np.diff(grid.points),
    with its temporaries in `gap` (the shape of a - b) and `terms` (one
    column less, C-contiguous).  The arithmetic is np.trapezoid's,
    (dx * (y[1:] + y[:-1]) / 2).sum() on y = |a - b|, so the bits match
    np.trapezoid(np.abs(a - b), grid.points, axis=-1)."""
    np.subtract(a, b, out=gap)
    np.abs(gap, out=gap)
    np.add(gap[..., 1:], gap[..., :-1], out=terms)
    terms *= dx
    terms /= 2.0
    return terms.sum(axis=-1)


def median_from_cdf(cdf_row, grid: GridSpec) -> float:
    """Grid time where the CDF crosses one half, linearly interpolated."""
    cdf = np.asarray(cdf_row, dtype=float)
    pts = grid.points
    if cdf.shape != pts.shape:
        raise ValueError("row must match the grid size")
    if cdf[0] >= 0.5:
        return float(pts[0])
    hits = np.nonzero(cdf >= 0.5)[0]
    if hits.size == 0:
        raise GridCoverageError(
            "CDF never reaches 0.5 on the grid; extend the grid upper end"
        )
    j = int(hits[0])
    c0, c1 = cdf[j - 1], cdf[j]
    return float(pts[j - 1] + (0.5 - c0) * (pts[j] - pts[j - 1]) / (c1 - c0))


@dataclass
class PosteriorDraws:
    """Weighted martingale-posterior sample of grid-evaluated functionals.

    `w1_trace[j, t]` is chain j's Wasserstein-1 distance from its starting
    CDF after t forward steps, for the first k = min(trace_chains, B)
    chains.  `w1_tail[j, s]` is that distance for every chain j over the
    last min(n_extra, W1_TAIL_STEPS) + 1 steps, so its last column is
    step n_extra, and `w1_trace[:, -w1_tail.shape[1]:]` equals
    `w1_tail[:k]`.  `predictive_density` and `predictive_cdf` are the
    weighted means of the starting rows: the fitted predictive on the
    grid, before any forward step.
    """

    grid: GridSpec
    cdf_draws: np.ndarray  # (B, G)
    density_draws: np.ndarray  # (B, G)
    medians: np.ndarray  # (B,)
    weights: np.ndarray  # (B,), normalized
    w1_trace: np.ndarray  # (min(trace_chains, B), n_extra + 1)
    w1_tail: np.ndarray  # (B, min(n_extra, W1_TAIL_STEPS) + 1)
    predictive_density: np.ndarray  # (G,)
    predictive_cdf: np.ndarray  # (G,)

    @property
    def n_draws(self) -> int:
        return self.cdf_draws.shape[0]

    def posterior_mean_cdf(self) -> np.ndarray:
        return weighted_mean(self.cdf_draws, self.weights)

    def posterior_mean_density(self) -> np.ndarray:
        return weighted_mean(self.density_draws, self.weights)


def weighted_mean(values, weights):
    """Weighted average along axis 0, normalized by the weight sum.

    The weight sum is accumulated through the same reduction as the
    numerator (a ones column ride-along), so a column of exact ones
    averages to exactly 1.0: a survival curve pinned at the origin stays
    pinned.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    single = v.ndim == 1
    vv = v[:, None] if single else v
    aug = np.concatenate([vv, np.ones((vv.shape[0], 1))], axis=1)
    sums = (w[:, None] * aug).sum(axis=0)
    out = sums[:-1] / sums[-1]
    return float(out[0]) if single else out


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
# Vectorized forward core
# ---------------------------------------------------------------------------

def _start_rows(ensemble: ParticleEnsemble, points, x_target):
    """Propagate the base (density, cdf) values at `points` through the
    absorbed history of every particle: returns (B, len(points)) arrays.

    `x_target` is None, one covariate vector, or one covariate row per
    point ((len(points), d)).  Chains run in blocks of rows with all n
    steps inside, so every temporary fits one block.  With one covariate
    row per point, the points go in blocks of `block_rows(n)` too, so
    their (steps, points) weight table and its covariate temporaries
    stay bounded instead of growing with n times the number of points.
    """
    n_steps, n_chains = ensemble.v_matrix.shape
    points = np.atleast_1d(np.asarray(points, dtype=float))
    pdf0, cdf0 = ensemble.family.base_at(points)
    per_point = ensemble.rho_x is not None and np.ndim(x_target) == 2
    columns = (row_blocks(0, points.size, n_steps) if per_point
               else [slice(None)])
    dens = np.empty((n_chains, points.size))
    u = np.empty((n_chains, points.size))
    for col in columns:
        # step j's weight: a scalar, or a row of one weight per point
        x = x_target[col] if per_point else x_target
        alphas = step_weights(n_steps, x, ensemble.covariates,
                              ensemble.rho_x).T
        for blk in row_blocks(0, n_chains, pdf0[col].size):
            dens[blk, col], u[blk, col] = propagate(
                pdf0[col], cdf0[col], ensemble.v_matrix[:, blk, None],
                alphas, ensemble.family.joint)
    return dens, u


def _forward(ensemble: ParticleEnsemble, dens, u, n_extra, grid, seed,
             x_target, trace_chains):
    """Advance every chain n_extra steps, overwriting the rows in place;
    returns the Wasserstein-1 distances from the starting rows that are
    read: (trace, tail), the whole trajectory of the first
    min(trace_chains, B) chains and every chain's last
    min(n_extra, W1_TAIL_STEPS) + 1 steps (see `PosteriorDraws`).  No
    other step pays for a W1.

    Steps go in chunks: each chunk draws its uniforms (and, with
    covariates, its per-chain weights) for all chains into buffers of
    `chunk` steps, then runs every block of chains through the chunk's
    steps, so a block stays in cache and no buffer spans all n_extra
    steps.  `chunk` is chosen so that a block's (steps, chains) slice of
    a buffer fits one block.  Chain j's step-t uniform is still element
    j of stream (seed, t), whatever the block and chunk sizes.
    """
    joint = ensemble.family.joint
    rho_x = ensemble.rho_x
    n_chains, g = u.shape
    start = u.copy()
    n_traced = min(trace_chains, n_chains)
    trace = np.zeros((n_traced, n_extra + 1))
    tail = np.zeros((n_chains, min(n_extra, W1_TAIL_STEPS) + 1))
    tail_start = n_extra + 1 - tail.shape[1]  # step of tail column 0
    dx = np.diff(grid.points)
    rows = block_rows(g)
    gap = np.empty((min(rows, n_chains), g))
    terms = np.empty((gap.shape[0], g - 1))
    chunk = block_rows(rows)
    if rho_x is not None:
        picks = _bootstrap_picks(ensemble.covariates, n_chains, n_extra,
                                 chunk, seed)
    for t0 in range(0, n_extra, chunk):
        steps = range(t0, min(t0 + chunk, n_extra))
        v = np.stack([rng.uniforms(seed, rng.STREAM_FORWARD, t, n_chains)
                      for t in steps])
        v = np.clip(v, copulas.CLAMP_EPS, 1.0 - copulas.CLAMP_EPS)
        step_index = ensemble.n_records + 1 + np.arange(t0, steps.stop)
        alpha = alpha_schedule(step_index)[:, None]
        if rho_x is not None:
            alpha = alpha_regression(alpha, x_target,
                                     ensemble.covariates[next(picks)], rho_x)
        alpha = np.broadcast_to(alpha, v.shape)
        for blk in row_blocks(0, n_chains, g):
            d, c, c0 = dens[blk], u[blk], start[blk]
            # leading rows of this block whose whole trajectory is read
            traced = max(0, min(blk.stop, n_traced) - blk.start)
            for k, t in enumerate(steps):
                d, c = update(d, c, v[k, blk, None], alpha[k, blk, None],
                              joint)
                in_tail = t + 1 >= tail_start
                r = c.shape[0] if in_tail else traced
                if r:
                    w1 = _w1_rows(c[:r], c0[:r], dx, gap[:r], terms[:r])
                    trace[blk.start:blk.start + traced, t + 1] = w1[:traced]
                    if in_tail:
                        tail[blk, t + 1 - tail_start] = w1
            dens[blk], u[blk] = d, c
    return trace, tail


def ensemble_grid_rows(ensemble: ParticleEnsemble, grid: GridSpec,
                       x_target=None):
    """Per-particle (density, cdf) rows of the fitted predictive on the
    grid, shape (B, G) each; the importance-weighted mixture of these is
    the point predictive."""
    _check_target(ensemble.rho_x, x_target)
    return _start_rows(ensemble, grid.points, x_target)


def heldout_mean_log_lik(ensemble: ParticleEnsemble, test) -> float:
    """Mean held-out predictive score under the weighted mixture: observed
    records contribute log density, censored records log survival mass.

    `test` must already be on the training scale (times multiplied by the
    training scale factor, covariates z-scored with training statistics).
    All records are evaluated in one propagation, each at its own time
    and covariate row.
    """
    x = test.covariates if ensemble.rho_x is not None else None
    dens, cdf = _start_rows(ensemble, test.times, x)
    w = ensemble.weights
    total = 0.0
    for i in range(test.n):
        if test.status[i] == 1:
            total += np.log(weighted_mean(dens[:, i], w))
        else:
            total += np.log(weighted_mean(1.0 - cdf[:, i], w))
    return float(total / test.n)


def _check_target(rho_x, x_target):
    if (x_target is not None) and rho_x is None:
        raise ConfigurationError("fit has no covariate structure; drop x_target")
    if (x_target is None) and rho_x is not None:
        raise ConfigurationError("this fit conditions on covariates; pass x_target")


def martingale_posterior(ensemble: ParticleEnsemble, n_extra: int | None,
                         grid: GridSpec, x_target=None, seed: int = 0,
                         trace_chains: int = 0) -> PosteriorDraws:
    """Posterior draws: one forward chain per particle, carrying its
    normalized weight.

    `n_extra = None` picks the standard horizon (2000 without covariates,
    10000 with).  Chains are driven by counter-based streams, so the
    result is bit-identical for a given (seed, ensemble), and a chain's
    draw does not depend on how many other chains run.  The first
    `trace_chains` chains keep their whole W1 trajectory (`w1_trace`);
    every chain keeps its last W1_TAIL_STEPS steps (`w1_tail`).
    """
    _check_target(ensemble.rho_x, x_target)
    if n_extra is None:
        n_extra = (DEFAULT_N_EXTRA_REGRESSION if ensemble.rho_x is not None
                   else DEFAULT_N_EXTRA)
    if n_extra < 0:
        raise ConfigurationError("n_extra must be nonnegative")
    weights = ensemble.weights
    dens, u = _start_rows(ensemble, grid.points, x_target)
    predictive_density = weighted_mean(dens, weights)
    predictive_cdf = weighted_mean(u, weights)
    trace, tail = _forward(ensemble, dens, u, n_extra, grid, seed, x_target,
                           trace_chains)
    medians = np.array([median_from_cdf(u[j], grid) for j in range(u.shape[0])])
    return PosteriorDraws(
        grid=grid,
        cdf_draws=u,
        density_draws=dens,
        medians=medians,
        weights=weights,
        w1_trace=trace,
        w1_tail=tail,
        predictive_density=predictive_density,
        predictive_cdf=predictive_cdf,
    )
