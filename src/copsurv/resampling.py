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
and starting CDF rows, which settles to a constant as the future grows.

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
from .distributions import base_cdf, base_pdf
from .errors import ConfigurationError, GridCoverageError
from .predictive import propagate, step_weights, update

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
    "ensemble_eval",
    "heldout_mean_log_lik",
    "DEFAULT_N_EXTRA",
    "DEFAULT_N_EXTRA_REGRESSION",
]

DEFAULT_N_EXTRA = 2000
DEFAULT_N_EXTRA_REGRESSION = 10000


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
                     seed: int) -> np.ndarray:
    """(n_steps, n_chains) pool indices; one Dirichlet weight vector per
    chain, then per-step categorical picks, all from keyed streams."""
    n = pool.shape[0]
    weights = rng.dirichlet_uniform(seed, rng.STREAM_BOOTSTRAP_DIR,
                                    (n_chains, n))
    cumulative = np.cumsum(weights, axis=1)
    cumulative[:, -1] = 1.0
    u = rng.stream(seed, rng.STREAM_BOOTSTRAP_PICK).random((n_steps, n_chains))
    picks = np.empty((n_steps, n_chains), dtype=np.int64)
    for j in range(n_chains):
        picks[:, j] = np.searchsorted(cumulative[j], u[:, j], side="right")
    return picks.clip(0, n - 1)


def wasserstein1(cdf_a, cdf_b, grid: GridSpec):
    """Trapezoidal L1 distance between two CDF rows on the grid.

    Rows may be stacked (..., grid size); the distance is computed along
    the last axis.
    """
    a = np.asarray(cdf_a, dtype=float)
    b = np.asarray(cdf_b, dtype=float)
    if a.shape[-1] != grid.points.size or b.shape[-1] != grid.points.size:
        raise ValueError("rows must match the grid size")
    return np.trapezoid(np.abs(a - b), grid.points, axis=-1)


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
    CDF after t forward steps.
    """

    grid: GridSpec
    cdf_draws: np.ndarray  # (B, G)
    density_draws: np.ndarray  # (B, G)
    medians: np.ndarray  # (B,)
    weights: np.ndarray  # (B,), normalized
    w1_trace: np.ndarray  # (B, n_extra + 1)

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
    absorbed history of every particle: returns (B, len(points)) arrays."""
    base = copulas.default_base(ensemble.family)
    n_steps, n_chains = ensemble.v_matrix.shape
    points = np.atleast_1d(np.asarray(points, dtype=float))
    dens = np.tile(np.asarray(base_pdf(points, base), dtype=float),
                   (n_chains, 1))
    u = np.tile(np.asarray(base_cdf(points, base), dtype=float),
                (n_chains, 1))
    return propagate(dens, u, ensemble.v_matrix[:, :, None],
                     step_weights(n_steps, x_target, ensemble.covariates,
                                  ensemble.rho_x),
                     copulas.family_joint(ensemble.family))


def _forward(ensemble: ParticleEnsemble, dens, u, n_extra, grid, seed,
             x_target):
    """Advance every chain n_extra steps; mutates and returns the rows
    plus the per-chain Wasserstein-1 trajectory."""
    joint_fn = copulas.family_joint(ensemble.family)
    rho_x = ensemble.rho_x
    n_chains = dens.shape[0]
    start = u.copy()
    w1 = np.zeros((n_chains, n_extra + 1))
    if rho_x is not None and n_extra > 0:
        picks = _bootstrap_picks(ensemble.covariates, n_chains, n_extra, seed)
    for t in range(n_extra):
        step_index = ensemble.n_records + t + 1
        alpha = float(alpha_schedule(step_index))
        if rho_x is not None:
            x_drawn = ensemble.covariates[picks[t]]
            alpha = alpha_regression(alpha, x_target, x_drawn, rho_x)[:, None]
        v = rng.uniforms(seed, rng.STREAM_FORWARD, t, n_chains)
        v = np.clip(v, copulas.CLAMP_EPS, 1.0 - copulas.CLAMP_EPS)[:, None]
        dens, u = update(dens, u, v, alpha, joint_fn)
        w1[:, t + 1] = wasserstein1(u, start, grid)
    return dens, u, w1


def ensemble_grid_rows(ensemble: ParticleEnsemble, grid: GridSpec,
                       x_target=None):
    """Per-particle (density, cdf) rows of the fitted predictive on the
    grid, shape (B, G) each; the importance-weighted mixture of these is
    the point predictive."""
    _check_target(ensemble.rho_x, x_target)
    return _start_rows(ensemble, grid.points, x_target)


def ensemble_eval(ensemble: ParticleEnsemble, y: float, x_target=None):
    """Per-particle (density, cdf) of the fitted predictive at one time,
    shape (B,) each."""
    _check_target(ensemble.rho_x, x_target)
    dens, u = _start_rows(ensemble, [y], x_target)
    return dens[:, 0], u[:, 0]


def heldout_mean_log_lik(ensemble: ParticleEnsemble, test) -> float:
    """Mean held-out predictive score under the weighted mixture: observed
    records contribute log density, censored records log survival mass.

    `test` must already be on the training scale (times multiplied by the
    training scale factor, covariates z-scored with training statistics).
    """
    w = ensemble.weights
    total = 0.0
    for i in range(test.n):
        x = test.covariates[i] if ensemble.rho_x is not None else None
        dens, cdf = ensemble_eval(ensemble, float(test.times[i]), x)
        if test.status[i] == 1:
            total += np.log(weighted_mean(dens, w))
        else:
            total += np.log(weighted_mean(1.0 - cdf, w))
    return float(total / test.n)


def _check_target(rho_x, x_target):
    if (x_target is not None) and rho_x is None:
        raise ConfigurationError("fit has no covariate structure; drop x_target")
    if (x_target is None) and rho_x is not None:
        raise ConfigurationError("this fit conditions on covariates; pass x_target")


def martingale_posterior(ensemble: ParticleEnsemble, n_extra: int | None,
                         grid: GridSpec, x_target=None,
                         seed: int = 0) -> PosteriorDraws:
    """Posterior draws: one forward chain per particle, carrying its
    normalized weight.

    `n_extra = None` picks the standard horizon (2000 without covariates,
    10000 with).  Chains are driven by counter-based streams, so the
    result is bit-identical for a given (seed, ensemble), and a chain's
    draw does not depend on how many other chains run.
    """
    _check_target(ensemble.rho_x, x_target)
    if n_extra is None:
        n_extra = (DEFAULT_N_EXTRA_REGRESSION if ensemble.rho_x is not None
                   else DEFAULT_N_EXTRA)
    if n_extra < 0:
        raise ConfigurationError("n_extra must be nonnegative")
    dens, u = _start_rows(ensemble, grid.points, x_target)
    dens, u, w1 = _forward(ensemble, dens, u, n_extra, grid, seed, x_target)
    medians = np.array([median_from_cdf(u[j], grid) for j in range(u.shape[0])])
    return PosteriorDraws(
        grid=grid,
        cdf_draws=u,
        density_draws=dens,
        medians=medians,
        weights=ensemble.weights,
        w1_trace=w1,
    )
