import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import copsurv as cs
from copsurv.censoring import impute_smc
from copsurv.copulas import (
    ClaytonFamily,
    GaussianFamily,
    alpha_regression,
    alpha_schedule,
)
from copsurv.errors import ConfigurationError, GridCoverageError
from copsurv.predictive import propagate, step_weights
from copsurv.resampling import (
    GridSpec,
    _bootstrap_picks,
    _start_rows,
    default_grid,
    ensemble_grid_rows,
    martingale_posterior,
    median_from_cdf,
    wasserstein1,
    weighted_mean,
    weighted_quantiles,
)

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


class TestWasserstein:
    def test_identical_rows_zero(self):
        grid = GridSpec(np.linspace(0, 3, 301))
        row = np.linspace(0, 1, 301)
        assert wasserstein1(row, row, grid) == 0.0

    def test_step_translation(self):
        grid = GridSpec(np.arange(0.0, 3.0, 0.01))
        a = (grid.points >= 1.0).astype(float)
        b = (grid.points >= 1.5).astype(float)
        assert abs(wasserstein1(a, b, grid) - 0.5) <= 0.01

    def test_symmetry(self):
        grid = GridSpec(np.linspace(0, 5, 64))
        rng = np.random.default_rng(0)
        a = np.sort(rng.random(64))
        b = np.sort(rng.random(64))
        assert wasserstein1(a, b, grid) == wasserstein1(b, a, grid)


class TestMedianFromCdf:
    def test_exact_grid_point(self):
        grid = GridSpec(np.array([0.0, 1.0, 2.0]))
        assert median_from_cdf(np.array([0.0, 0.5, 1.0]), grid) == 1.0

    def test_interpolation(self):
        grid = GridSpec(np.array([0.0, 1.0, 2.0, 3.0]))
        assert median_from_cdf(np.array([0.0, 0.25, 0.75, 1.0]), grid) == 1.5

    def test_refinement_oracle(self):
        from copsurv.distributions import LomaxParams, lomax_cdf

        params = LomaxParams(1.4, 1.0)
        coarse = GridSpec(np.linspace(0.0, 6.0, 40))
        fine = GridSpec(np.linspace(0.0, 6.0, 400))
        m_coarse = median_from_cdf(lomax_cdf(coarse.points, params), coarse)
        m_fine = median_from_cdf(lomax_cdf(fine.points, params), fine)
        cell = coarse.points[1] - coarse.points[0]
        assert abs(m_coarse - m_fine) < cell

    def test_coverage_error(self):
        grid = GridSpec(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(GridCoverageError):
            median_from_cdf(np.array([0.0, 0.1, 0.2]), grid)


class TestBootstrapCovariate:
    def test_single_row_pool(self):
        pool = np.array([[3.0, 1.0]])
        picks = np.concatenate(list(_bootstrap_picks(pool, n_chains=5, n_steps=4,
                                                     chunk=3, seed=0)))
        assert np.array_equal(pool[picks], np.broadcast_to(pool[0], (4, 5, 2)))

    def test_chain_weights_sum_to_one(self):
        from copsurv.rng import STREAM_BOOTSTRAP_DIR, dirichlet_uniform

        w = dirichlet_uniform(5, STREAM_BOOTSTRAP_DIR, (100, 7))
        assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(w >= 0)

    def test_marginal_uniformity(self):
        pool = np.arange(4.0)[:, None]
        picks = next(_bootstrap_picks(pool, n_chains=100_000, n_steps=1,
                                      chunk=1, seed=3))
        freq = np.bincount(picks[0], minlength=4) / 100_000
        assert np.all(np.abs(freq - 0.25) < 0.02)


@pytest.fixture
def uncensored_fit(uncensored_exp50):
    """The sequential fit of the uncensored sample, as one column."""
    return column(impute_smc(uncensored_exp50, FAMILY, n_particles=2, seed=0), 0)


class TestPredictiveResample:
    def test_zero_steps_identity(self, uncensored_fit):
        grid = GridSpec(np.linspace(0.0, 4.0, 25))
        out = martingale_posterior(uncensored_fit, 0, grid, seed=1,
                                   trace_chains=1)
        dens, cdf = ensemble_grid_rows(uncensored_fit, grid)
        assert np.array_equal(out.cdf_draws, cdf)
        assert np.array_equal(out.density_draws, dens)
        assert out.w1_trace.shape == out.w1_tail.shape == (1, 1)
        assert np.all(out.w1_trace == 0.0)
        assert np.all(out.w1_tail == 0.0)

    def test_rows_stay_monotone_probabilities(self, uncensored_fit):
        grid = GridSpec(np.linspace(0.0, 4.0, 25))
        out = martingale_posterior(uncensored_fit, 2000, grid, seed=99)
        cdf, dens = out.cdf_draws[0], out.density_draws[0]
        assert np.all(np.diff(cdf) >= 0)
        assert np.all((cdf >= 0) & (cdf <= 1))
        assert np.all(dens >= 0)

    def test_deterministic_in_seed(self, uncensored_fit):
        grid = GridSpec(np.linspace(0.0, 4.0, 10))
        a = martingale_posterior(uncensored_fit, 50, grid, seed=7)
        b = martingale_posterior(uncensored_fit, 50, grid, seed=7)
        c = martingale_posterior(uncensored_fit, 50, grid, seed=8)
        assert np.array_equal(a.cdf_draws, b.cdf_draws)
        assert not np.array_equal(a.cdf_draws, c.cdf_draws)


class TestMartingalePosterior:
    def test_uncensored_reduces_to_plain_chains(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=32, seed=3)
        grid = GridSpec(np.linspace(0.0, 4.0, 12))
        draws = martingale_posterior(ensemble, 100, grid, seed=3)
        assert_allclose(draws.weights, 1.0 / 32, rtol=1e-12)
        # chain 0 must equal a single-fit forward run with the same seed
        single = martingale_posterior(column(ensemble, 0), 100, grid, seed=3)
        assert np.array_equal(draws.cdf_draws[0], single.cdf_draws[0])

    def test_forward_mean_preserves_start(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=500, seed=3)
        grid = GridSpec(np.linspace(0.0, 4.0, 10))
        draws = martingale_posterior(ensemble, 500, grid, seed=11)
        _, start = ensemble_grid_rows(ensemble, grid)
        mean = draws.cdf_draws.mean(axis=0)
        se = draws.cdf_draws.std(axis=0, ddof=1) / np.sqrt(draws.n_draws)
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
        mean_n = weighted_mean(draws.cdf_draws, draws.weights)
        w = draws.weights / draws.weights.sum()
        diff = draws.cdf_draws - start_rows
        se = np.sqrt(np.sum((w[:, None] * diff) ** 2, axis=0))
        assert np.all(np.abs(mean_n - is_estimate) <= 3 * np.maximum(se, 1e-12))

    def test_determinism_and_seed_sensitivity(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=16, seed=3)
        grid = GridSpec(np.linspace(0.0, 4.0, 6))
        d1 = martingale_posterior(ensemble, 40, grid, seed=4, trace_chains=16)
        d2 = martingale_posterior(ensemble, 40, grid, seed=4, trace_chains=16)
        assert np.array_equal(d1.cdf_draws, d2.cdf_draws)
        assert np.array_equal(d1.medians, d2.medians)
        assert d1.w1_trace.shape == d1.w1_tail.shape == (16, 41)
        assert np.array_equal(d1.w1_trace, d2.w1_trace)
        assert np.array_equal(d1.w1_tail, d2.w1_tail)
        d3 = martingale_posterior(ensemble, 40, grid, seed=8)
        assert not np.array_equal(d1.cdf_draws, d3.cdf_draws)

    def test_medians_within_grid(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=32, seed=3)
        grid = GridSpec(np.linspace(0.0, 6.0, 30))
        draws = martingale_posterior(ensemble, 200, grid, seed=4)
        assert np.all((draws.medians >= 0) & (draws.medians <= 6.0))

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
        assert np.all(np.diff(draws.cdf_draws, axis=1) >= -1e-12)
        with pytest.raises(ConfigurationError):
            martingale_posterior(ensemble, 10, grid, seed=2)  # missing target


class TestEnsembleEval:
    def test_matches_grid_rows(self, uncensored_exp50):
        ensemble = impute_smc(uncensored_exp50, FAMILY, n_particles=16, seed=3)
        grid = GridSpec(np.array([0.5, 1.5]))
        dens_rows, cdf_rows = ensemble_grid_rows(ensemble, grid)
        dens, cdf = _start_rows(ensemble, [1.5], None)
        assert np.array_equal(dens[:, 0], dens_rows[:, 1])
        assert np.array_equal(cdf[:, 0], cdf_rows[:, 1])


class TestWeightedHelpers:
    def test_weighted_quantiles_unweighted_case(self):
        values = np.arange(1.0, 101.0)
        w = np.full(100, 0.01)
        qs = weighted_quantiles(values, w, [0.5])
        assert 49.0 <= qs[0] <= 52.0

    def test_weighted_mean_constant_exact(self):
        w = np.random.default_rng(1).random(999)
        assert weighted_mean(np.ones(999), w) == 1.0


def reference_grid_rows(ensemble, points, x_target):
    """The recursion written out step by step, one scalar weight per step:
    the reference that `propagate` with `step_weights` must reproduce."""
    family = ensemble.family
    n_steps, n_chains = ensemble.v_matrix.shape
    pdf0, cdf0 = family.base_at(points)
    dens = np.tile(pdf0, (n_chains, 1))
    u = np.tile(cdf0, (n_chains, 1))
    for j in range(n_steps):
        alpha = float(alpha_schedule(j + 1))
        if ensemble.rho_x is not None:
            alpha = alpha_regression(alpha, x_target, ensemble.covariates[j],
                                     ensemble.rho_x)
        v = ensemble.v_matrix[j][:, None]
        d, i_part = family.joint(u, v)
        dens = dens * ((1.0 - alpha) + alpha * d)
        u = (1.0 - alpha) * u + alpha * i_part
    return dens, u


@pytest.fixture
def clayton_case(censored_exp50):
    ensemble = impute_smc(censored_exp50, FAMILY, n_particles=64, seed=5)
    grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 8.0, 15)]))
    return ensemble, grid, None


@pytest.fixture
def gaussian_case():
    rng = np.random.default_rng(4)
    n = 30
    x = rng.normal(size=(n, 1))
    y = np.exp(0.4 * x[:, 0]) * rng.exponential(1.0, n)
    s = (rng.random(n) > 0.3).astype(int)
    data = cs.permute(cs.standardize(make_dataset(y, s, covariates=x)), 4)
    ensemble = impute_smc(data, GaussianFamily(0.5), rho_x=0.6,
                          n_particles=48, seed=4)
    grid = GridSpec(np.geomspace(0.01, 8.0, 15))
    return ensemble, grid, np.array([-1.3])


@pytest.mark.parametrize("case", ["clayton_case", "gaussian_case"])
class TestOneFitIsOneColumn:
    def test_column_fit_matches_grid_row(self, case, request):
        ensemble, grid, x = request.getfixturevalue(case)
        dens_rows, cdf_rows = ensemble_grid_rows(ensemble, grid, x)
        for j in (0, 7, ensemble.n_particles - 1):
            dens, cdf = ensemble_grid_rows(column(ensemble, j), grid, x)
            assert np.array_equal(dens[0], dens_rows[j])
            assert np.array_equal(cdf[0], cdf_rows[j])

    def test_propagate_matches_reference_loop(self, case, request):
        ensemble, grid, x = request.getfixturevalue(case)
        ref_dens, ref_cdf = reference_grid_rows(ensemble, grid.points, x)
        n_steps, n_chains = ensemble.v_matrix.shape
        pdf0, cdf0 = ensemble.family.base_at(grid.points)
        dens, cdf = propagate(
            np.tile(pdf0, (n_chains, 1)),
            np.tile(cdf0, (n_chains, 1)),
            ensemble.v_matrix[:, :, None],
            step_weights(n_steps, x, ensemble.covariates, ensemble.rho_x),
            ensemble.family.joint,
        )
        assert np.array_equal(dens, ref_dens)
        assert np.array_equal(cdf, ref_cdf)
