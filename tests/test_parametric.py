import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import lomax as scipy_lomax

import copsurv as cs
from copsurv.copulas import lomax
from copsurv.errors import ConfigurationError
from copsurv.parametric import (
    ConjugateModel,
    ConjugateState,
    conjugate_smc,
    doob_demo,
    exact_log_marginal,
    ig_posterior_cdf,
    ig_posterior_quantile,
    posterior_update,
    tune_a0,
    weighted_ks,
)

from conftest import make_dataset


def ig_pdf(theta, a, b):
    return np.exp(a * np.log(b) - gammaln(a) - (a + 1) * np.log(theta) - b / theta)


class TestPosteriorUpdate:
    def test_worked_example(self):
        data = make_dataset([1.0, 2.0, 3.0], [1, 1, 0])
        state = posterior_update(ConjugateModel(1.2, 1.0), data)
        assert_allclose(state.a_n, 3.2)
        assert_allclose(state.b_n, 7.0)

    def test_order_invariance(self):
        model = ConjugateModel(0.8, 2.0)
        data = make_dataset([0.5, 1.5, 2.5, 3.5], [1, 0, 0, 1])
        shuffled = cs.permute(data, 3)
        s1, s2 = posterior_update(model, data), posterior_update(model, shuffled)
        assert s1 == s2


class TestPosteriorPredictive:
    """The posterior predictive of state IG(a_n, b_n) is Lomax(a_n, b_n)."""

    def test_unit_state(self):
        state = ConjugateState(1.0, 1.0)
        assert lomax(0.0, state.a_n, state.b_n)[0] == 1.0

    def test_mean_matches_quadrature(self):
        state = ConjugateState(3.0, 2.0)
        mean, _ = quad(lambda y: y * lomax(y, state.a_n, state.b_n)[0], 0,
                       np.inf)
        assert_allclose(mean, state.b_n / (state.a_n - 1.0), rtol=1e-8)

    def test_survival_monotone_and_invertible(self):
        state = ConjugateState(2.2, 1.7)
        grid = np.linspace(0.0, 20.0, 200)
        vals = lomax(grid, state.a_n, state.b_n)[1]
        assert np.all(np.diff(vals) <= 0)
        s = lomax(1.3, state.a_n, state.b_n)[1]
        assert_allclose(scipy_lomax.isf(s, c=state.a_n, scale=state.b_n),
                        1.3, rtol=1e-10)


class TestExactLogMarginal:
    def test_single_observed_is_prior_predictive(self):
        t = 1.7
        data = make_dataset([t], [1])
        got = exact_log_marginal(ConjugateModel(1.0, 1.0), data)
        assert_allclose(got, np.log(1.0 / (1.0 + t) ** 2), rtol=1e-12)

    def test_single_censored_is_prior_survival(self):
        c = 2.3
        data = make_dataset([c], [0])
        got = exact_log_marginal(ConjugateModel(1.0, 1.0), data)
        assert_allclose(got, np.log(1.0 / (1.0 + c)), rtol=1e-12)

    def test_mixed_against_quadrature(self):
        model = ConjugateModel(1.4, 0.9)
        times = np.array([0.8, 1.9, 1.1])
        status = np.array([1, 0, 1])
        data = make_dataset(times, status)

        def integrand(theta):
            lik = 1.0
            for t, d in zip(times, status):
                f = np.exp(-t / theta) / theta
                s = np.exp(-t / theta)
                lik *= f if d == 1 else s
            return lik * ig_pdf(theta, model.a0, model.b0)

        z, _ = quad(integrand, 0, np.inf, limit=400)
        assert_allclose(exact_log_marginal(model, data), np.log(z), rtol=1e-6)

    def test_chain_rule_composition(self):
        model = ConjugateModel(1.1, 1.3)
        d1 = make_dataset([0.4, 2.2], [1, 0])
        d2 = make_dataset([1.0, 0.6, 3.0], [0, 1, 1])
        both = make_dataset(np.concatenate([d1.times, d2.times]),
                            np.concatenate([d1.status, d2.status]))
        state1 = posterior_update(model, d1)
        updated = ConjugateModel(a0=state1.a_n, b0=state1.b_n)
        assert_allclose(
            exact_log_marginal(model, both),
            exact_log_marginal(model, d1) + exact_log_marginal(updated, d2),
            rtol=1e-12,
        )


class TestTuneA0:
    def test_beats_bracket_endpoints(self, censored_exp50):
        a0 = tune_a0(censored_exp50)
        best = exact_log_marginal(ConjugateModel(a0, 1.0), censored_exp50)
        assert best >= exact_log_marginal(ConjugateModel(0.1, 1.0), censored_exp50)
        assert best >= exact_log_marginal(ConjugateModel(100.0, 1.0), censored_exp50)

    def test_matches_dense_grid_argmax(self, censored_exp50):
        grid = np.linspace(0.1, 100.0, 10_000)
        scores = [exact_log_marginal(ConjugateModel(a, 1.0), censored_exp50)
                  for a in grid]
        argmax = grid[int(np.argmax(scores))]
        a0 = tune_a0(censored_exp50)
        assert abs(a0 - argmax) <= (grid[1] - grid[0])

    def test_finite_positive(self, censored_exp50):
        a0 = tune_a0(censored_exp50)
        assert np.isfinite(a0) and 0.1 <= a0 <= 100.0


class TestIgPosterior:
    def test_cdf_quantile_roundtrip(self):
        state = ConjugateState(5.0, 4.0)
        qs = np.array([0.05, 0.5, 0.95])
        thetas = ig_posterior_quantile(state, qs)
        assert_allclose(ig_posterior_cdf(state, thetas), qs, rtol=1e-10)

    def test_cdf_matches_quadrature(self):
        state = ConjugateState(3.5, 2.0)
        mass, _ = quad(lambda t: ig_pdf(t, state.a_n, state.b_n), 0, 1.0)
        assert_allclose(ig_posterior_cdf(state, 1.0), mass, rtol=1e-8)


class TestConjugateSmc:
    def test_micro_instance_marginal(self):
        data = make_dataset([1.0, 1.5, 2.0], [1, 0, 1])
        model = ConjugateModel(1.2, 1.0)
        ensemble = conjugate_smc(model, data, n_particles=100_000, seed=42)
        exact = exact_log_marginal(model, data)
        assert_allclose(ensemble.log_z, exact, rtol=0.01)

    def test_imputed_posterior_matches_truncated_lomax(self):
        """The weighted imputed sample for a mid-sequence censored record
        must match the closed-form truncated posterior predictive given
        all other records."""
        y1, c, y3 = 1.0, 1.5, 2.0
        data = make_dataset([y1, c, y3], [1, 0, 1])
        model = ConjugateModel(1.2, 1.0)
        ensemble = conjugate_smc(model, data, n_particles=10_000, seed=7)
        # b sums b0, the observed times and the particle's imputed time
        draws = ensemble.b - (model.b0 + y1 + y3)
        state = posterior_update(model, make_dataset([y1, y3], [1, 1]))
        s_c = lomax(c, state.a_n, state.b_n)[1]

        def oracle_cdf(y):
            s_y = lomax(np.maximum(y, c), state.a_n, state.b_n)[1]
            return (s_c - s_y) / s_c

        ks = weighted_ks(draws, ensemble.weights, oracle_cdf)
        assert ks <= 0.05

    def test_imputed_times_exceed_censoring(self, censored_exp50):
        # without resampling particles keep their identity, and the draws
        # are keyed by record index, so the growth of b between the prefix
        # runs before and through a censored record is its imputed time
        model = ConjugateModel(1.2, 1.0)
        data = censored_exp50

        def b_through(k):
            if k == 0:
                return np.full(64, model.b0)
            prefix = make_dataset(data.times[:k], data.status[:k])
            return conjugate_smc(model, prefix, n_particles=64, ess_frac=0.0,
                                 seed=3).b

        censored_idx = np.nonzero(data.status == 0)[0]
        assert censored_idx.size > 0
        for idx in censored_idx:
            values = b_through(idx + 1) - b_through(idx)
            assert np.all(values > data.times[idx])


class TestDoobDemo:
    def test_no_censoring_no_forward_collapses(self, uncensored_exp50):
        model = ConjugateModel(1.5, 1.0)
        result = doob_demo(model, uncensored_exp50, n_particles=32, n_extra=0,
                           seed=2)
        state = posterior_update(model, uncensored_exp50)
        assert_allclose(result.theta_bar, state.mean, rtol=1e-12)
        assert_allclose(result.weights, 1.0 / 32, rtol=1e-12)

    def test_trajectories_converge(self, censored_exp50):
        model = ConjugateModel(tune_a0(censored_exp50), 1.0)
        # chain j's step-t uniform is element j of stream (seed, t), so the
        # 1900-step run's theta_bar is step 1900 of the 2000-step run's
        # chains
        early, late = (doob_demo(model, censored_exp50, n_particles=64,
                                 n_extra=n_extra, seed=5).theta_bar
                       for n_extra in (1900, 2000))
        # the per-step relative drift is O(1/N), so the 100-step change
        # has sd about 0.005 here; the typical chain sits well under 1e-2
        rel_change = np.abs(late - early) / late
        assert np.median(rel_change) < 1e-2
        assert np.all(rel_change < 5e-2)

    def test_ks_small_config(self, censored_exp50):
        model = ConjugateModel(tune_a0(censored_exp50), 1.0)
        result = doob_demo(model, censored_exp50, n_particles=800,
                           n_extra=800, seed=17)
        assert result.ks_statistic <= 0.10

    def test_ks_censor_free_reflects_resampling_noise_only(self, uncensored_exp50):
        model = ConjugateModel(tune_a0(uncensored_exp50), 1.0)
        result = doob_demo(model, uncensored_exp50, n_particles=2000,
                           n_extra=2000, seed=23)
        assert result.ks_statistic <= 0.05
        assert result.ensemble.final_ess == 2000.0

    def test_negative_n_extra_rejected(self, censored_exp50):
        with pytest.raises(ConfigurationError):
            doob_demo(ConjugateModel(1.0), censored_exp50, 16, -1, seed=0)


class TestWeightedKs:
    def test_exact_sample_from_cdf(self):
        rng = np.random.default_rng(10)
        n = 200_000
        sample = rng.standard_normal(n)
        from scipy.special import ndtr

        ks = weighted_ks(sample, np.full(n, 1.0 / n), ndtr)
        assert ks < 0.005

    def test_detects_shift(self):
        rng = np.random.default_rng(10)
        sample = rng.standard_normal(5000) + 0.5
        from scipy.special import ndtr

        ks = weighted_ks(sample, np.full(5000, 1.0 / 5000), ndtr)
        assert ks > 0.15


class TestSimulationRegime:
    def test_censoring_fraction_band(self):
        # fixed seeds: deterministic; the analytic rate is 2/3
        fractions = [
            cs.simulate_censored_exponential(50, 1.0, 2.0, seed=s).censoring_fraction
            for s in (101, 102, 103, 104, 105, 106, 107, 108, 109, 110)
        ]
        assert all(0.55 <= f <= 0.80 for f in fractions)

    def test_mean_fraction_matches_analytic(self):
        fractions = [
            cs.simulate_censored_exponential(50, 1.0, 2.0, seed=s).censoring_fraction
            for s in range(1000)
        ]
        assert abs(np.mean(fractions) - 2.0 / 3.0) < 0.02
