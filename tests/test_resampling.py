import dataclasses
import os
import signal
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import copsurv as cs
from copsurv import copulas, predictive, rng, shards, tune
from copsurv.censoring import impute_smc
from copsurv.copulas import (
    ClaytonFamily,
    GaussianFamily,
    alpha_regression,
    alpha_schedule,
)
from copsurv.errors import ConfigurationError, CopsurvError
from copsurv.parametric import ConjugateModel, doob_demo
from copsurv.resampling import (
    GridSpec,
    _pick_weights,
    _run_rows,
    _step_picks,
    _w1_rows,
    default_grid,
    ensemble_grid_rows,
    log_grid,
    martingale_posterior,
    median_from_survival,
    weighted_mean,
    weighted_quantiles,
)
from copsurv.tune import grid_search

from conftest import make_dataset

FAMILY = ClaytonFamily(1.0)


def column(ensemble, j):
    """Particle j as a fit of its own: a one-column ensemble, unit weight."""
    return dataclasses.replace(ensemble, v_matrix=ensemble.v_matrix[:, [j]],
                               log_weights=np.zeros(1))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(np.array([1.0]))
        with pytest.raises(ConfigurationError):
            GridSpec(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            GridSpec(np.array([-1.0, 1.0]))

    def test_default_grid_covers_data(self, uncensored_exp50):
        grid = default_grid(uncensored_exp50, 100)
        assert grid.points.size == 100
        assert grid.points[0] == 0.0
        assert_allclose(grid.points[-1], 1.5 * uncensored_exp50.times.max())
        # a top in input units lands on the data's standardized scale
        top = default_grid(uncensored_exp50, 100, top=4.0).points[-1]
        assert_allclose(top, 4.0 * uncensored_exp50.scale_factor, rtol=1e-15)

    @pytest.mark.parametrize("include_zero", [True, False])
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_log_grid_ends_at_top(self, size, include_zero):
        """Every size ends at the top, two points from the origin too:
        np.geomspace puts a lone point at its start."""
        points = log_grid(7.5, size, include_zero).points
        assert points.size == size
        assert points[-1] == 7.5
        assert (points[0] == 0.0) == include_zero


class TestWasserstein:
    def test_identical_rows_zero(self):
        points = np.linspace(0, 3, 301)
        row = np.linspace(0, 1, 301)
        assert _w1_rows(row, row, points) == 0.0

    def test_step_translation(self):
        points = np.arange(0.0, 3.0, 0.01)
        a = (points >= 1.0).astype(float)
        b = (points >= 1.5).astype(float)
        assert abs(_w1_rows(a, b, points) - 0.5) <= 0.01

    def test_symmetry(self):
        points = np.linspace(0, 5, 64)
        rng = np.random.default_rng(0)
        a = np.sort(rng.random(64))
        b = np.sort(rng.random(64))
        assert _w1_rows(a, b, points) == _w1_rows(b, a, points)


class TestMedianFromSurvival:
    @staticmethod
    def median(surv, grid):
        """The median of one row, after checking its censored flag
        against the row's own ½-crossing."""
        med, censored = median_from_survival(surv, grid)
        assert censored == ~np.any(np.asarray(surv) <= 0.5, axis=-1)
        return med

    def test_exact_grid_point(self):
        grid = GridSpec(np.array([0.0, 1.0, 2.0]))
        assert self.median(np.array([1.0, 0.5, 0.0]), grid) == 1.0

    def test_interpolation(self):
        grid = GridSpec(np.array([0.0, 1.0, 2.0, 3.0]))
        surv = np.array([1.0, 0.75, 0.25, 0.0])
        assert self.median(surv, grid) == 1.5

    def test_refinement_oracle(self):
        from copsurv.copulas import lomax

        coarse = GridSpec(np.linspace(0.0, 6.0, 40))
        fine = GridSpec(np.linspace(0.0, 6.0, 400))
        m_coarse = self.median(lomax(coarse.points, 1.4, 1.0)[1], coarse)
        m_fine = self.median(lomax(fine.points, 1.4, 1.0)[1], fine)
        cell = coarse.points[1] - coarse.points[0]
        assert abs(m_coarse - m_fine) < cell

    def test_crossing_in_the_first_interval(self):
        """S falls from 1 to 0.4 between the first two points: the median
        interpolates there, at 5/6, not in a later interval."""
        grid = GridSpec(np.array([0.0, 1.0, 2.0]))
        surv = np.array([1.0, 0.4, 0.2])
        assert self.median(surv, grid) == pytest.approx(5 / 6, rel=1e-15)

    def test_median_not_reached_is_the_grid_top(self):
        grid = GridSpec(np.array([0.0, 1.0, 2.0]))
        assert self.median(np.array([1.0, 0.9, 0.8]), grid) == 2.0

    def test_stacked_rows_match_the_row_by_row_rule(self):
        """Rows that cross inside the grid, exactly at one half, at the
        first point or never: a (2, 3, G) stack gives, bit for bit, the
        median of the rule written out for one row, and flags as censored
        the rows that never reach one half."""
        grid = GridSpec(np.geomspace(0.01, 8.0, 9))
        pts = grid.points

        def one_row(surv):
            if surv[0] <= 0.5:
                return pts[0]
            hits = np.nonzero(surv <= 0.5)[0]
            if hits.size == 0:
                return pts[-1]
            j = hits[0]
            s0, s1 = surv[j - 1], surv[j]
            return pts[j - 1] + (s0 - 0.5) * (pts[j] - pts[j - 1]) / (s0 - s1)

        draws = np.random.default_rng(2)
        surv = np.sort(draws.uniform(0.0, 1.0, (6, 9)), axis=1)[:, ::-1]
        surv[1] = np.linspace(1.0, 0.0, 9)
        surv[2] = np.linspace(0.5, 0.1, 9)
        surv[3] = np.linspace(1.0, 0.6, 9)
        surv[4, 5:] = 0.5
        surv[4, :5] = np.linspace(1.0, 0.8, 5)
        stacked, censored = median_from_survival(surv.reshape(2, 3, 9), grid)
        assert stacked.shape == censored.shape == (2, 3)
        assert np.array_equal(stacked.ravel(), [one_row(row) for row in surv])
        assert list(stacked.ravel()[1:5]) == [pts[4], pts[0], pts[-1], pts[5]]
        assert np.array_equal(censored.ravel(), ~np.any(surv <= 0.5, axis=-1))


class TestBootstrapCovariate:
    def test_single_row_pool(self):
        pool = np.array([[3.0, 1.0]])
        cumulative = _pick_weights(1, 5, seed=0)
        picks = np.stack([_step_picks(cumulative, 0, t, slice(0, 5))
                          for t in range(4)])
        assert np.array_equal(pool[picks], np.broadcast_to(pool[0], (4, 5, 2)))

    def test_chain_weights_sum_to_one(self):
        from copsurv.rng import STREAM_BOOTSTRAP_DIR, dirichlet_uniform

        w = dirichlet_uniform(5, STREAM_BOOTSTRAP_DIR, (100, 7))
        assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(w >= 0)

    def test_marginal_uniformity(self):
        cumulative = _pick_weights(4, 100_000, seed=3)
        picks = _step_picks(cumulative, 3, 0, slice(0, 100_000))
        freq = np.bincount(picks, minlength=4) / 100_000
        assert np.all(np.abs(freq - 0.25) < 0.02)

    def test_last_weight_rounded_down_still_bounds_every_pick(
            self, monkeypatch):
        """Ten weights of 0.1 cumulate to 0.9999999999999999, the largest
        uniform: the last cumulated weight is set to 1, so that uniform
        still picks the last row, not index n_pool."""
        n_pool, n_chains = 10, 3
        assert np.cumsum(np.full(n_pool, 0.1))[-1] == np.nextafter(1.0, 0.0)
        monkeypatch.setattr(rng, "dirichlet_uniform",
                            lambda seed, tag, shape: np.full(shape, 0.1))
        monkeypatch.setattr(rng, "uniforms",
                            lambda seed, tag, step, count, start=0:
                            np.full(count, np.nextafter(1.0, 0.0)))
        cumulative = _pick_weights(n_pool, n_chains, seed=0)
        picks = _step_picks(cumulative, 0, 0, slice(0, n_chains))
        assert np.array_equal(picks, [n_pool - 1] * n_chains)

    @pytest.mark.parametrize("rows", [slice(0, 12), slice(3, 12),
                                      slice(5, 6)])
    def test_shard_picks_are_the_slice_of_the_whole_stream(self, rows):
        """A shard's step-t picks, read from the counter, equal its chains'
        per-chain searchsorted picks over one (steps, B) draw of the whole
        pick stream."""
        n_chains, n_pool, n_steps, seed = 12, 9, 6, 2
        whole = reference_picks(seed, n_chains, n_pool, n_steps)
        cumulative = _pick_weights(n_pool, n_chains, seed)
        for t in range(n_steps):
            assert np.array_equal(_step_picks(cumulative, seed, t, rows),
                                  whole[t, rows])


@pytest.fixture
def uncensored_fit(uncensored_exp50):
    """The sequential fit of the uncensored sample, as one column."""
    return column(impute_smc(uncensored_exp50, FAMILY, n_particles=2, seed=0), 0)


class TestPredictiveResample:
    def test_zero_steps_identity(self, uncensored_fit):
        grid = GridSpec(np.linspace(0.0, 4.0, 25))
        out = martingale_posterior(uncensored_fit, 0, grid, seed=1,
                                   trace_chains=1)
        dens, surv = ensemble_grid_rows(uncensored_fit, grid)
        assert np.array_equal(out.survival_draws, surv)
        assert np.array_equal(out.density_draws, dens)
        assert out.w1_trace.shape == (1, 1)
        assert np.all(out.w1_trace == 0.0)

    def test_rows_stay_monotone_probabilities(self, uncensored_fit):
        grid = GridSpec(np.linspace(0.0, 4.0, 25))
        out = martingale_posterior(uncensored_fit, 2000, grid, seed=99)
        surv, dens = out.survival_draws[0], out.density_draws[0]
        assert np.all(np.diff(surv) <= 0)
        assert np.all((surv >= 0) & (surv <= 1))
        assert np.all(dens >= 0)

    def test_deterministic_in_seed(self, uncensored_fit):
        grid = GridSpec(np.linspace(0.0, 4.0, 10))
        a = martingale_posterior(uncensored_fit, 50, grid, seed=7)
        b = martingale_posterior(uncensored_fit, 50, grid, seed=7)
        c = martingale_posterior(uncensored_fit, 50, grid, seed=8)
        assert np.array_equal(a.survival_draws, b.survival_draws)
        assert not np.array_equal(a.survival_draws, c.survival_draws)


def buffer_bytes(arrays):
    """Bytes of the distinct buffers (mappings or owning arrays) behind
    `arrays`."""
    roots = {}
    for array in arrays:
        while isinstance(array, np.ndarray) and array.base is not None:
            array = array.base
        roots[id(array)] = array
    return sum(memoryview(root).nbytes for root in roots.values())


class TestMartingalePosterior:
    def test_draws_hold_only_the_arrays_they_expose(self, censored_exp50):
        """Every array of a draw owns its memory or its own mapping: the
        start rows and the other shared arrays of the forward pass are
        released with the call."""
        ensemble = impute_smc(cs.standardize(censored_exp50), FAMILY,
                              n_particles=64, seed=5)
        grid = GridSpec(np.geomspace(0.01, 8.0, 40))
        draws = martingale_posterior(ensemble, 50, grid, seed=2,
                                     trace_chains=5)
        arrays = [value for value in vars(draws).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 8
        assert buffer_bytes(arrays) == sum(a.nbytes for a in arrays)

    def test_uncensored_reduces_to_plain_chains(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=32, seed=3)
        grid = GridSpec(np.linspace(0.0, 4.0, 12))
        draws = martingale_posterior(ensemble, 100, grid, seed=3)
        assert_allclose(draws.weights, 1.0 / 32, rtol=1e-12)
        # chain 0 must equal a single-fit forward run with the same seed
        single = martingale_posterior(column(ensemble, 0), 100, grid, seed=3)
        assert np.array_equal(draws.survival_draws[0],
                              single.survival_draws[0])

    def test_forward_mean_preserves_start(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=500, seed=3)
        grid = GridSpec(np.linspace(0.0, 4.0, 10))
        draws = martingale_posterior(ensemble, 500, grid, seed=11)
        _, start = ensemble_grid_rows(ensemble, grid)
        mean = draws.survival_draws.mean(axis=0)
        se = (draws.survival_draws.std(axis=0, ddof=1)
              / np.sqrt(draws.weights.size))
        gap = np.abs(mean - start[0])
        assert np.all(gap <= 3 * np.maximum(se, 1e-12))

    def test_weighted_mean_matches_is_estimate(self, censored_exp50):
        data = cs.standardize(censored_exp50)
        ensemble = impute_smc(data, FAMILY, n_particles=400, seed=5)
        # heavy censoring pushes some chains' medians far right: use a
        # wide log-spaced grid so every draw's median stays on-grid
        grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.1, 60.0, 9)]))
        draws = martingale_posterior(ensemble, 400, grid, seed=6)
        _, start_rows = ensemble_grid_rows(ensemble, grid)
        is_estimate = weighted_mean(start_rows, ensemble.weights)
        mean_n = weighted_mean(draws.survival_draws, draws.weights)
        w = draws.weights / draws.weights.sum()
        diff = draws.survival_draws - start_rows
        se = np.sqrt(np.sum((w[:, None] * diff) ** 2, axis=0))
        assert np.all(np.abs(mean_n - is_estimate) <= 3 * np.maximum(se, 1e-12))

    def test_determinism_and_seed_sensitivity(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=16, seed=3)
        grid = GridSpec(np.linspace(0.0, 4.0, 6))
        d1 = martingale_posterior(ensemble, 40, grid, seed=4, trace_chains=16)
        d2 = martingale_posterior(ensemble, 40, grid, seed=4, trace_chains=16)
        assert np.array_equal(d1.survival_draws, d2.survival_draws)
        assert np.array_equal(d1.medians, d2.medians)
        assert d1.w1_trace.shape == (16, 41)
        assert np.array_equal(d1.w1_trace, d2.w1_trace)
        d3 = martingale_posterior(ensemble, 40, grid, seed=8)
        assert not np.array_equal(d1.survival_draws, d3.survival_draws)

    def test_medians_within_grid(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=32, seed=3)
        grid = GridSpec(np.linspace(0.0, 6.0, 30))
        draws = martingale_posterior(ensemble, 200, grid, seed=4)
        assert np.all((draws.medians >= 0) & (draws.medians <= 6.0))

    def test_censored_chains_are_the_ones_below_half_at_the_top(
            self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=32, seed=3)
        # a grid top near the data's median censors some chains, not all
        grid = GridSpec(np.linspace(0.0, 0.75, 20))
        draws = martingale_posterior(ensemble, 50, grid, seed=4)
        below = draws.survival_draws[:, -1] > 0.5
        assert 0 < below.sum() < 32
        assert np.array_equal(draws.censored, below)
        assert np.all(draws.medians[below] == 0.75)
        assert np.all(draws.medians[~below] < 0.75)

    def test_covariate_chains_run(self):
        rng = np.random.default_rng(2)
        n = 30
        x = rng.normal(size=(n, 1))
        y = np.exp(0.4 * x[:, 0]) * rng.exponential(1.0, n)
        s = (rng.random(n) > 0.3).astype(int)
        data = cs.permute(cs.standardize(make_dataset(y, s, covariates=x)), 1)
        ensemble = impute_smc(data, GaussianFamily(0.5), rho_x=0.6,
                              n_particles=64, seed=2)
        grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 8.0, 24)]))
        draws = martingale_posterior(ensemble, 150, grid,
                                     x_target=np.array([0.5]), seed=2)
        assert np.all(np.diff(draws.survival_draws, axis=1) <= 1e-12)
        with pytest.raises(ConfigurationError):
            martingale_posterior(ensemble, 10, grid, seed=2)  # missing target


def martingale_gap_z(seed):
    """Largest |gap/se| over the grid of the weighted mean increment of
    the survival, final row minus start row, over the chains of a forward
    pass: the README data (`simulate --seed 1 --n 200`, a third
    censored), Clayton 0.9, B = 500, G = 60, n_extra = 300.  The
    martingale posterior keeps every chain's expected increment at zero
    (Fong, Holmes & Walker 2023), so the gap is Monte Carlo noise."""
    data = cs.permute(cs.standardize(
        cs.simulate_censored_exponential(200, 1.0, 2.0, seed=1)), 1)
    grid = default_grid(data, 60)
    ensemble = impute_smc(data, ClaytonFamily(0.9), n_particles=500,
                          seed=seed)
    # the start rows of the forward pass, through their own call
    _, start = ensemble_grid_rows(ensemble, grid)
    draws = martingale_posterior(ensemble, 300, grid, seed=seed)
    w = draws.weights
    inc = draws.survival_draws - start
    gap = w @ inc
    se = np.sqrt(np.sum(w[:, None] ** 2 * (inc - gap) ** 2, axis=0))
    moved = se > 0  # the origin, where every survival is exactly 1
    return float(np.max(np.abs(gap[moved] / se[moved])))


# Over seeds 0..19 honest forward passes scored 0.30 to 2.33, the same
# on the CDF state and on the survival; over seeds 0..7 a forward stream
# bent to v^1.1 scored 20.3 to 26.6.
MARTINGALE_Z_MAX = 4.0


class TestMartingaleGuard:
    """Criterion 5 checks the unweighted mean on uncensored data; this
    guard checks the weighted one on censored data, where a bias in the
    imputation or forward step would show."""

    def test_honest_forward_pass_keeps_the_gap_small(self):
        assert martingale_gap_z(3) < MARTINGALE_Z_MAX

    def test_bent_forward_stream_trips_the_guard(self, monkeypatch):
        uniforms = rng.uniforms

        def bent(seed, tag, step, count, start=0):
            u = uniforms(seed, tag, step, count, start)
            return u ** 1.1 if tag == rng.STREAM_FORWARD else u

        monkeypatch.setattr(rng, "uniforms", bent)
        assert martingale_gap_z(3) > MARTINGALE_Z_MAX


class TestEnsembleEval:
    def test_matches_grid_rows(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=16, seed=3)
        grid = GridSpec(np.array([0.5, 1.5]))
        dens_rows, surv_rows = ensemble_grid_rows(ensemble, grid)
        out = _run_rows(ensemble, [1.5], None)
        dens, surv = out["dens"], out["surv"]
        assert np.array_equal(dens[:, 0], dens_rows[:, 1])
        assert np.array_equal(surv[:, 0], surv_rows[:, 1])


class TestWeightedHelpers:
    def test_weighted_quantiles_unweighted_case(self):
        values = np.arange(1.0, 101.0)
        w = np.full(100, 0.01)
        qs = weighted_quantiles(values[:, None], w, [0.5])
        assert qs.shape == (1, 1) and 49.0 <= qs[0, 0] <= 52.0

    def test_weighted_mean_constant_exact(self):
        w = np.random.default_rng(1).random(999)
        assert weighted_mean(np.ones((999, 1)), w)[0] == 1.0

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 2000])
    def test_weighted_mean_is_one_reduction(self, rows):
        """The mean has the bits of one reduction over all rows with the
        ones column alongside, at row counts around 256 and well above."""
        draws = np.random.default_rng(rows)
        values = draws.random((rows, 7))
        values[:, 0] = 1.0
        w = draws.random(rows)
        aug = np.concatenate([values, np.ones((rows, 1))], axis=1)
        sums = (w[:, None] * aug).sum(axis=0)
        got = weighted_mean(values, w)
        assert np.array_equal(got, sums[:-1] / sums[-1])
        assert got[0] == 1.0
        assert weighted_mean(values[:, 3:4], w)[0] == got[3]


def reference_grid_rows(ensemble, points, x_target):
    """The recursion on (density, survival) written out step by step, one
    scalar weight per step, each value clipped to [CLAMP_EPS,
    1 - CLAMP_EPS]: the reference that `_run_rows` must reproduce."""
    family = ensemble.family
    n_steps, n_chains = ensemble.v_matrix.shape
    pdf0, surv0 = family.base_at(points)
    dens = np.tile(pdf0, (n_chains, 1))
    surv = np.tile(surv0, (n_chains, 1))
    for j in range(n_steps):
        alpha = float(alpha_schedule(j + 1))
        if ensemble.rho_x is not None:
            alpha = alpha_regression(alpha, x_target, ensemble.covariates[j],
                                     ensemble.rho_x)
        v = np.clip(ensemble.v_matrix[j], copulas.CLAMP_EPS,
                    1.0 - copulas.CLAMP_EPS)[:, None]
        d, tail = family.joint(surv, v)
        dens = dens * ((1.0 - alpha) + alpha * d)
        surv = (1.0 - alpha) * surv + alpha * tail
    return dens, surv


def reference_picks(seed, n_chains, n_pool, n_steps):
    """(n_steps, n_chains) bootstrap picks: chain j's are a searchsorted of
    its cumulative Dirichlet weights at column j of one (n_steps,
    n_chains) draw of the whole pick stream."""
    weights = rng.dirichlet_uniform(seed, rng.STREAM_BOOTSTRAP_DIR,
                                    (n_chains, n_pool))
    cumulative = np.cumsum(weights, axis=1)
    cumulative[:, -1] = 1.0
    draws = rng.stream(seed, rng.STREAM_BOOTSTRAP_PICK).random(
        (n_steps, n_chains))
    return np.stack([np.searchsorted(cumulative[j], draws[:, j], side="right")
                     for j in range(n_chains)], axis=1)


def reference_forward(ensemble, grid, x_target, n_extra, seed):
    """The forward pass written out step by step over all chains at once:
    every step draws its whole stream of uniforms, and with covariates
    takes each chain's pick from `reference_picks`.  The rows run in the
    family's `pass_dtype`, rounded from the start rows at the first
    step; in float32 each step's kept weight c = 1 - alpha is rounded
    and the weight is 1 - c, so the two sum to exactly 1.  (dens,
    survival) after n_extra steps: the reference that
    `martingale_posterior` must reproduce."""
    n, b = ensemble.v_matrix.shape
    dens, surv = reference_grid_rows(ensemble, grid.points, x_target)
    dtype = ensemble.family.pass_dtype
    if n_extra:
        dens, surv = dens.astype(dtype), surv.astype(dtype)
    if ensemble.rho_x is not None:
        pool = ensemble.covariates
        picks = reference_picks(seed, b, pool.shape[0], n_extra)
    for t in range(n_extra):
        v = np.clip(rng.uniforms(seed, rng.STREAM_FORWARD, t, b),
                    copulas.CLAMP_EPS, 1.0 - copulas.CLAMP_EPS)[:, None]
        alpha = np.asarray(alpha_schedule(n + 1 + t))
        if ensemble.rho_x is not None:
            alpha = alpha_regression(alpha, x_target, pool[picks[t]],
                                     ensemble.rho_x)[:, None]
        keep = (1.0 - alpha).astype(dtype)
        alpha = alpha if dtype == np.float64 else 1 - keep
        d, tail = ensemble.family.joint(surv, v)
        dens = dens * (keep + alpha * d)
        surv = keep * surv + alpha * tail
    return dens, surv


@pytest.fixture
def clayton_case(censored_exp50):
    ensemble = impute_smc(censored_exp50, FAMILY, n_particles=64, seed=5)
    grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 8.0, 15)]))
    return ensemble, grid, None


def covariate_data():
    rng = np.random.default_rng(4)
    n = 30
    x = rng.normal(size=(n, 1))
    y = np.exp(0.4 * x[:, 0]) * rng.exponential(1.0, n)
    s = (rng.random(n) > 0.3).astype(int)
    return cs.permute(cs.standardize(make_dataset(y, s, covariates=x)), 4)


@pytest.fixture
def gaussian_case():
    ensemble = impute_smc(covariate_data(), GaussianFamily(0.5), rho_x=0.6,
                          n_particles=48, seed=4)
    grid = GridSpec(np.geomspace(0.01, 8.0, 15))
    return ensemble, grid, np.array([-1.3])


@pytest.fixture
def clayton_covariate_case():
    """A Clayton fit with one covariate, whose forward pass runs in
    float32 with one weight per chain."""
    ensemble = impute_smc(covariate_data(), FAMILY, rho_x=0.6,
                          n_particles=48, seed=4)
    grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 8.0, 15)]))
    return ensemble, grid, np.array([-1.3])


@pytest.mark.parametrize("case", ["clayton_case", "gaussian_case",
                                  "clayton_covariate_case"])
class TestOneFitIsOneColumn:
    def test_column_fit_matches_grid_row(self, case, request):
        ensemble, grid, x = request.getfixturevalue(case)
        dens_rows, surv_rows = ensemble_grid_rows(ensemble, grid, x)
        for j in (0, 7, ensemble.n_particles - 1):
            dens, surv = ensemble_grid_rows(column(ensemble, j), grid, x)
            assert np.array_equal(dens[0], dens_rows[j])
            assert np.array_equal(surv[0], surv_rows[j])

    def test_propagate_matches_reference_loop(self, case, request):
        ensemble, grid, x = request.getfixturevalue(case)
        ref_dens, ref_surv = reference_grid_rows(ensemble, grid.points, x)
        out = _run_rows(ensemble, grid.points, x)
        dens, surv = out["dens"], out["surv"]
        assert np.array_equal(dens, ref_dens)
        assert np.array_equal(surv, ref_surv)
        if x is None:
            return
        # one covariate row per point, each point against its own reference
        rows = x + np.linspace(-1.0, 1.0, grid.points.size)[:, None]
        out = _run_rows(ensemble, grid.points, rows)
        dens, surv = out["dens"], out["surv"]
        for k, point in enumerate(grid.points):
            ref_dens, ref_surv = reference_grid_rows(ensemble, [point],
                                                     rows[k])
            assert np.array_equal(dens[:, k], ref_dens[:, 0])
            assert np.array_equal(surv[:, k], ref_surv[:, 0])
        with pytest.raises(ValueError, match="covariate dimension mismatch"):
            _run_rows(ensemble, grid.points, np.zeros(2))

    def test_forward_pass_matches_reference_loop(self, case, request):
        ensemble, grid, x = request.getfixturevalue(case)
        draws = martingale_posterior(ensemble, 40, grid, x, seed=9)
        ref_dens, ref_surv = reference_forward(ensemble, grid, x, 40, 9)
        assert np.array_equal(draws.survival_draws, ref_surv)
        assert np.array_equal(draws.density_draws, ref_dens)


def separately_rounded(alpha, dtype):
    """alpha and 1 - alpha each rounded to `dtype` on its own: the rule
    that `predictive._weights` replaces."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return alpha.astype(dtype), (1.0 - alpha).astype(dtype)


def forward_in_each_rule(ensemble, grid, x_target, n_extra, seed):
    """The forward pass of `ensemble` three ways on the same uniforms: in
    float32 ("float32"), in float32 with separately rounded weights
    ("separate") and in float64 ("float64"), this last with the float32
    bound raised above every bandwidth.  The first 20 chains are
    traced."""
    def run():
        return martingale_posterior(ensemble, n_extra, grid, x_target,
                                    seed=seed, trace_chains=20)

    runs = {"float32": run()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictive, "_weights", separately_rounded)
        runs["separate"] = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(copulas, "CLAYTON_FLOAT32_MIN_BANDWIDTH", np.inf)
        runs["float64"] = run()
    return runs


def float32_changes(runs):
    """(largest |dS|, largest relative density change, largest relative
    change of the traced chains' final W1) of the float32 pass against
    the float64 one."""
    f32, f64 = runs["float32"], runs["float64"]
    d_surv = np.abs(f32.survival_draws - f64.survival_draws).max()
    d_dens = np.max(np.abs(f32.density_draws / f64.density_draws - 1.0))
    w1_32, w1_64 = f32.w1_trace[:, -1], f64.w1_trace[:, -1]
    return d_surv, d_dens, np.max(np.abs(w1_32 / w1_64 - 1.0))


# Bounds on the float32 forward pass against the float64 one.  Over
# seeds 1-8 of `benchmark_size_runs`, |dS| reached 1.76e-6, the
# relative density change 5.84e-6, the relative final W1 change of 20
# traced chains 5.4e-5 and the weighted mean increment's change 2.9e-8
# (2.94e-7 to 2.97e-7 with separately rounded weights).  Over forward
# seeds 3-6 of the covariate case they reached 1.25e-6, 1.25e-5 and
# 1.8e-5.
MAX_SURV_CHANGE = 1e-5
MAX_DENSITY_CHANGE = 5e-5
MAX_W1_CHANGE = 3e-4
MAX_MEAN_INCREMENT_CHANGE = 1e-7


@pytest.fixture(scope="module")
def benchmark_size_runs():
    """`forward_in_each_rule` on the benchmark's `posterior` sizes of
    n = 100 records (a third censored) and 200 forward steps, at
    B = 4000 chains on a 30-point default grid, with each chain's start
    rows."""
    data = cs.permute(cs.standardize(
        cs.simulate_censored_exponential(100, 1.0, 2.0, seed=1)), 1)
    ensemble = impute_smc(data, ClaytonFamily(0.9), n_particles=4000, seed=1)
    grid = default_grid(data, 30)
    runs = forward_in_each_rule(ensemble, grid, None, 200, 1)
    return runs, ensemble_grid_rows(ensemble, grid)[1]


class TestFloat32Forward:
    """A Clayton forward pass carries its rows in float32; the start rows,
    the weights and the W1 sums stay float64.  These tests bound what that
    moves against the float64 recursion on the same uniforms."""

    def test_float32_pass_tracks_float64(self, benchmark_size_runs):
        runs, _ = benchmark_size_runs
        assert ClaytonFamily(0.9).pass_dtype == np.float32
        assert not np.array_equal(runs["float32"].survival_draws,
                                  runs["float64"].survival_draws)
        d_surv, d_dens, d_w1 = float32_changes(runs)
        assert d_surv <= MAX_SURV_CHANGE
        assert d_dens <= MAX_DENSITY_CHANGE
        assert d_w1 <= MAX_W1_CHANGE

    def test_origin_stays_exactly_one(self, benchmark_size_runs):
        runs, _ = benchmark_size_runs
        assert np.all(runs["float32"].survival_draws[:, 0] == 1.0)

    def test_weights_summing_to_one_keep_the_mean_increment(
            self, benchmark_size_runs):
        """The weighted mean increment of the survival, final row minus
        start row, is the martingale guard's gap.  Weights that sum to
        exactly 1 in float32 keep it within MAX_MEAN_INCREMENT_CHANGE of
        float64's; rounding the weight and its complement each on its own
        moves every chain the same way and pushes it outside."""
        runs, start = benchmark_size_runs
        weights = runs["float64"].weights

        def gap(rule):
            return weights @ (runs[rule].survival_draws - start)

        exact = np.abs(gap("float32") - gap("float64")).max()
        separate = np.abs(gap("separate") - gap("float64")).max()
        assert exact <= MAX_MEAN_INCREMENT_CHANGE < separate

    def test_covariate_pass_tracks_float64(self, clayton_covariate_case):
        """The Clayton pass with one weight per chain: the same bounds."""
        runs = forward_in_each_rule(*clayton_covariate_case, 200, 3)
        d_surv, d_dens, d_w1 = float32_changes(runs)
        assert d_surv <= MAX_SURV_CHANGE
        assert d_dens <= MAX_DENSITY_CHANGE
        assert d_w1 <= MAX_W1_CHANGE
        assert np.all(runs["float32"].survival_draws[:, 0] == 1.0)

    def test_bandwidth_below_the_bound_runs_in_float64(self, censored_exp50):
        """0.35 lies just below the float32 bound, about 0.3505: its pass
        keeps the float64 recursion's bits."""
        bound = copulas.CLAYTON_FLOAT32_MIN_BANDWIDTH
        below, above = np.nextafter(bound, 0.0), np.nextafter(bound, 1.0)
        assert ClaytonFamily(below).pass_dtype == np.float64
        assert ClaytonFamily(above).pass_dtype == np.float32
        family = ClaytonFamily(0.35)
        assert family.pass_dtype == np.float64
        ensemble = impute_smc(censored_exp50, family, n_particles=64, seed=5)
        grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 8.0, 15)]))
        draws = martingale_posterior(ensemble, 40, grid, seed=9)
        ref_dens, ref_surv = reference_forward(ensemble, grid, None, 40, 9)
        assert ref_surv.dtype == np.float64
        assert np.array_equal(draws.survival_draws, ref_surv)
        assert np.array_equal(draws.density_draws, ref_dens)

    def test_chains_stay_non_increasing_at_readme_size(self):
        """The README data and horizon (n = 200, 2000 forward steps) on a
        400-point default grid: every chain's survival is non-increasing.
        Over seeds 1-3 at 100 chains the smallest step was 1.1e-6, about
        18 float32 spacings near 1."""
        data = cs.permute(cs.standardize(
            cs.simulate_censored_exponential(200, 1.0, 2.0, seed=1)), 1)
        ensemble = impute_smc(data, ClaytonFamily(0.9), n_particles=100,
                              seed=2)
        draws = martingale_posterior(ensemble, 2000, default_grid(data, 400),
                                     seed=2)
        assert np.all(np.diff(draws.survival_draws, axis=1) <= 0.0)


def shard_call(kind, request):
    """(call, module, name, in_shard, items) of a call that runs `kind`
    in two shards: the call, the function `module.name` that its shards
    run, a test of that function's arguments that is true only inside a
    shard, and the second shard's items."""
    if kind == "rows":
        ensemble, grid, _ = request.getfixturevalue("clayton_case")
        return (lambda: martingale_posterior(ensemble, 20, grid, seed=1),
                copulas, "clayton_density_and_partial", lambda args: True,
                "rows 32:64")
    data = request.getfixturevalue("censored_exp50")
    if kind == "chains":
        # the SMC pass draws its uniforms from other streams
        return (lambda: doob_demo(ConjugateModel(1.5), data, 64, 20, seed=1),
                rng, "uniforms", lambda args: args[1] == rng.STREAM_FORWARD,
                "chains 32:64")
    return (lambda: grid_search(cs.standardize(data), "clayton",
                                (0.6, 0.8, 1.0, 1.2), n_particles=32, seed=1),
            tune, "impute_smc", lambda args: True, "cells 2:4")


def check_a_failure_fails_the_call(kind, request, monkeypatch, in_parent,
                                   raised, expected, match):
    call, module, name, in_shard, _ = shard_call(kind, request)
    parent = os.getpid()
    original = getattr(module, name)
    fork = os.fork
    forked = []

    def failing(*args, **kwargs):
        if in_shard(args) and (os.getpid() == parent) == in_parent:
            raise raised("failure in a shard")
        return original(*args, **kwargs)

    def counted_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(module, name, failing)
    monkeypatch.setattr(shards, "_worker_count",
                        lambda n_items, min_items: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    with pytest.raises(expected, match=match):
        call()
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def check_an_interrupt_during_the_join_ends_the_workers(kind, request,
                                                        monkeypatch):
    call, module, name, in_shard, _ = shard_call(kind, request)
    parent = os.getpid()
    original = getattr(module, name)

    def slow_in_workers(*args, **kwargs):
        if in_shard(args) and os.getpid() != parent:
            time.sleep(60)
            raise RuntimeError("a worker that was not ended")
        return original(*args, **kwargs)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, slow_in_workers)
    monkeypatch.setattr(shards, "_worker_count",
                        lambda n_items, min_items: 2)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        # this process finishes its shard, then waits for the worker
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRowWorkers:
    """The rows, doob's forward chains and the tuning grid's cells run in
    forked workers: a failure in any of them fails the call, and no
    worker outlives it."""

    @pytest.mark.parametrize("in_parent, raised, expected, match", [
        (False, RuntimeError, CopsurvError,
         "the worker for rows 32:64 exited with status 1"),
        (True, KeyboardInterrupt, KeyboardInterrupt, None),
    ])
    def test_a_failure_fails_the_call_and_reaps_every_worker(
            self, request, monkeypatch, in_parent, raised, expected,
            match):
        check_a_failure_fails_the_call("rows", request, monkeypatch,
                                       in_parent, raised, expected, match)

    def test_an_interrupt_during_the_join_ends_the_workers(
            self, request, monkeypatch):
        check_an_interrupt_during_the_join_ends_the_workers(
            "rows", request, monkeypatch)

    @pytest.mark.parametrize("kind", ["chains", "cells"])
    @pytest.mark.parametrize("in_parent, raised, expected", [
        (False, RuntimeError, CopsurvError),
        (True, KeyboardInterrupt, KeyboardInterrupt),
    ])
    def test_a_failed_chain_or_cell_shard_fails_the_call(
            self, kind, request, monkeypatch, in_parent, raised, expected):
        items = shard_call(kind, request)[4]
        match = (f"the worker for {items} exited with status 1"
                 if expected is CopsurvError else None)
        check_a_failure_fails_the_call(kind, request, monkeypatch, in_parent,
                                       raised, expected, match)

    @pytest.mark.parametrize("kind", ["chains", "cells"])
    def test_an_interrupt_while_joining_chain_or_cell_workers_ends_them(
            self, kind, request, monkeypatch):
        check_an_interrupt_during_the_join_ends_the_workers(
            kind, request, monkeypatch)
