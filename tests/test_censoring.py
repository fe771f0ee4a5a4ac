import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import copsurv as cs
from copsurv.censoring import (
    diagnostic_rows,
    ess,
    ess_from_log_weights,
    impute_smc,
    run_smc_loop,
    systematic_indices,
)
from copsurv.copulas import (
    CLAMP_EPS,
    ClaytonFamily,
    GaussianFamily,
    alpha_regression,
    alpha_schedule,
    clayton_density_and_partial,
    lomax,
)
from copsurv.errors import ConfigurationError, DegeneracyError
from copsurv.resampling import (
    GridSpec,
    _run_rows,
    ensemble_grid_rows,
    weighted_mean,
)

from conftest import make_dataset

FAMILY = ClaytonFamily(1.0)


def _rows(ensemble):
    return diagnostic_rows(ensemble.ess_trace, ensemble.unique_trace,
                           ensemble.resample_steps)


class TestEss:
    def test_uniform_weights_exact(self):
        assert ess(np.ones(2000)) == 2000.0

    def test_single_positive_weight(self):
        w = np.zeros(50)
        w[7] = 3.0
        assert ess(w) == 1.0

    def test_direct_formula(self):
        assert_allclose(ess([0.5, 0.25, 0.25]), 1.0 / (0.25 + 0.0625 + 0.0625))

    def test_all_zero_degenerate(self):
        with pytest.raises(DegeneracyError):
            ess(np.zeros(5))

    def test_log_weights_shift_invariant(self):
        lw = np.array([-1000.0, -1001.0, -999.5])
        assert_allclose(ess_from_log_weights(lw), ess_from_log_weights(lw + 500))


class TestSystematicResample:
    def test_uniform_weights_identity(self):
        b = 64
        idx = systematic_indices(np.full(b, 1.0 / b), offset=0.37)
        assert np.array_equal(idx, np.arange(b))

    def test_degenerate_weight_vector(self):
        w = np.zeros(10)
        w[0] = 1.0
        idx = systematic_indices(w, offset=0.9)
        assert np.all(idx == 0)

    def test_offspring_counts_unbiased(self):
        rng = np.random.default_rng(8)
        b = 6
        w = rng.random(b)
        w /= w.sum()
        reps = 100_000
        counts = np.zeros(b)
        offsets = np.random.default_rng(9).random(reps)
        for off in offsets:
            idx = systematic_indices(w, off)
            counts += np.bincount(idx, minlength=b)
        assert_allclose(counts / reps, b * w, rtol=0.01)

    def test_final_resample_resets_weights(self, censored_exp50):
        # ess_frac = 1 resamples after the last record too
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=64,
                              ess_frac=1.0, seed=1)
        assert ensemble.resample_steps[-1] == censored_exp50.n - 1
        assert np.all(ensemble.log_weights == 0.0)
        assert ensemble.final_ess == 64.0
        assert ensemble.v_matrix.shape == (censored_exp50.n, 64)


def _assert_collapses_to_prequential(data, family, rho_x=None):
    b = 100
    ensemble = impute_smc(data, family, rho_x=rho_x, n_particles=b, seed=3)
    assert_allclose(ensemble.ess_trace, b, rtol=1e-12)
    assert ensemble.resample_steps == []
    # one particle scores fully observed data exactly; B particles add
    # log(B) inside logsumexp and take it away again
    preq = impute_smc(data, family, rho_x=rho_x, n_particles=1, seed=3).log_z
    assert abs(ensemble.log_z - preq) < 1e-12
    # all particles identical
    assert np.all(ensemble.v_matrix == ensemble.v_matrix[:, :1])


class TestFullyObservedCollapse:
    def test_ess_b_no_resample_logz_equals_prequential(self, uncensored_exp50):
        _assert_collapses_to_prequential(uncensored_exp50, FAMILY)

    @pytest.mark.parametrize("family", [FAMILY, GaussianFamily(0.5)],
                             ids=["clayton", "gaussian"])
    def test_covariate_logz_equals_prequential(self, family):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 1))
        y = np.exp(0.5 * x[:, 0]) * rng.exponential(1.0, 40)
        data = cs.standardize(make_dataset(y, np.ones(40), covariates=x))
        _assert_collapses_to_prequential(data, family, rho_x=0.6)


class TestSingleCensoredRecord:
    def test_common_weight_and_support(self):
        c = 0.8
        data = make_dataset([c], [0])
        ensemble = impute_smc(data, FAMILY, n_particles=256, seed=5)
        s0c = float(lomax(c, 1.0, 1.0)[1])
        assert_allclose(ensemble.log_z, np.log(s0c), rtol=1e-12)
        assert ensemble.final_ess == 256.0
        assert np.all(ensemble.v_matrix[0] > 1.0 - s0c)
        assert np.all(ensemble.v_matrix[0] < 1.0)


class TestQuadratureOracle:
    def test_marginal_likelihood_censored_then_observed(self):
        """Independent 1-D quadrature of the IS identity on the copula
        path: Z = int_{P0(c)}^1 p_1^{(u)}(y2) du for records (censored at
        c, then observed y2)."""
        a = 1.0
        c, y2 = 0.6, 1.1
        p0c = 1.0 - float(lomax(c, a, 1.0)[1])
        alpha1 = float(alpha_schedule(1))

        def integrand(u):
            pdf, surv = lomax(y2, a, 1.0)
            d, _ = clayton_density_and_partial(float(surv), u, a)
            return (1 - alpha1 + alpha1 * d) * float(pdf)

        z_exact, _ = quad(integrand, p0c, 1.0, limit=200)

        data = make_dataset([c, y2], [0, 1])
        ensemble = impute_smc(data, FAMILY, n_particles=40_000, seed=11)
        z_smc = np.exp(ensemble.log_z)
        assert_allclose(z_smc, z_exact, rtol=0.02)

    def test_observed_then_censored_is_deterministic(self):
        """With the censored record last, the estimate is exact: Z =
        p_0(y1) S_1(c)."""
        a = 1.0
        y1, c = 0.9, 1.3
        data = make_dataset([y1, c], [1, 0])
        ensemble = impute_smc(data, FAMILY, n_particles=128, seed=2)
        pdf1, s1 = lomax(y1, a, 1.0)
        s0c = float(lomax(c, a, 1.0)[1])
        alpha1 = float(alpha_schedule(1))
        _, tail = clayton_density_and_partial(s0c, 1.0 - float(s1), a)
        s1c = (1 - alpha1) * s0c + alpha1 * tail
        expected = np.log(pdf1) + np.log(s1c)
        assert_allclose(ensemble.log_z, expected, rtol=1e-12)


class TestResamplingBehaviour:
    def test_fires_exactly_below_threshold(self, censored_exp50):
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=200, seed=4)
        b = 200
        for step, ess_val, _unique, resampled in _rows(ensemble):
            assert resampled == (ess_val < 0.5 * b)

    def test_ess_frac_one_resamples_when_below_b(self, censored_exp50):
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=50,
                              ess_frac=1.0, seed=4)
        for step, ess_val, _unique, resampled in _rows(ensemble):
            assert resampled == (ess_val < 50.0)
        assert len(ensemble.resample_steps) > 0

    def test_ess_frac_zero_never_resamples(self, censored_exp50):
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=50,
                              ess_frac=0.0, seed=4)
        assert ensemble.resample_steps == []
        # the loop's ESS is the checked one's, bit for bit
        assert ensemble.ess_trace[-1] == ess_from_log_weights(
            ensemble.log_weights)

    def test_bit_reproducible(self, censored_exp50):
        e1 = impute_smc(censored_exp50, FAMILY, n_particles=128, seed=9)
        e2 = impute_smc(censored_exp50, FAMILY, n_particles=128, seed=9)
        assert np.array_equal(e1.v_matrix, e2.v_matrix)
        assert np.array_equal(e1.log_weights, e2.log_weights)
        assert np.array_equal(e1.ess_trace, e2.ess_trace)
        assert e1.resample_steps == e2.resample_steps
        assert e1.log_z == e2.log_z

    def test_unique_trace_drops_only_at_resampling(self, censored_exp50):
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=100, seed=4)
        unique = ensemble.unique_trace
        fired = set(ensemble.resample_steps)
        for i in range(1, len(unique)):
            if i not in fired:
                assert unique[i] == unique[i - 1]


class ReferenceEngine:
    """The copula SMC engine written out: the whole (B, n) running
    (density, survival) state of every record at its own time, record i's
    clipped value absorbed into columns i+1.. by `family.joint`,
    `alpha_schedule` and `alpha_regression`.  It counts its records
    itself."""

    def __init__(self, family, rho_x, covariates, times, n_particles):
        pdf, surv = family.base_at(times)
        self.dens = np.tile(pdf, (n_particles, 1))
        self.surv = np.tile(surv, (n_particles, 1))
        self.family, self.rho_x, self.x = family, rho_x, covariates
        self.v = np.empty((len(times), n_particles))
        self.i = 0

    def eval_at(self, t):
        return self.dens[:, self.i], self.surv[:, self.i]

    def absorb_observed(self, t, surv):
        self.absorb_censored(1.0 - surv)

    def absorb_censored(self, u):
        i, rest = self.i, slice(self.i + 1, None)
        v = self.v[i] = np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
        alpha = float(alpha_schedule(i + 1))
        if self.rho_x is not None:
            alpha = alpha_regression(alpha, self.x[rest], self.x[i],
                                     self.rho_x)
        d, tail = self.family.joint(self.surv[:, rest], v[:, None])
        self.dens[:, rest] = self.dens[:, rest] * ((1.0 - alpha) + alpha * d)
        self.surv[:, rest] = (1.0 - alpha) * self.surv[:, rest] + alpha * tail
        self.i += 1

    def select(self, idx):
        self.v, self.dens = self.v[:, idx], self.dens[idx]
        self.surv = self.surv[idx]


def two_covariate_data(n, seed):
    draws = np.random.default_rng(seed)
    x = draws.normal(size=(n, 2))
    y = np.exp(0.4 * x[:, 0] - 0.3 * x[:, 1]) * draws.exponential(1.0, n)
    s = (draws.random(n) > 0.3).astype(int)
    return cs.permute(cs.standardize(make_dataset(y, s, covariates=x)), seed)


@pytest.mark.parametrize("case", ["clayton", "gaussian"])
def test_resampling_pass_matches_the_written_out_engine(censored_exp50, case):
    """A pass that resamples, driven by `run_smc_loop` through the written
    out engine, gives `impute_smc`'s weights, traces and clipped
    propagation values bit for bit: Clayton without covariates, and
    Gaussian with two covariates and rho_x."""
    if case == "clayton":
        data, family, rho_x = censored_exp50, ClaytonFamily(1.0), None
    else:
        data, family, rho_x = two_covariate_data(30, 4), GaussianFamily(0.5), 0.6
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64,
                     ess_frac=0.95, seed=5)
    assert ens.resample_steps
    engine = ReferenceEngine(family, rho_x, data.covariates, data.times, 64)
    ref = run_smc_loop(engine, data.times, data.status, 64, 0.95, 5)
    assert np.array_equal(ref.log_weights, ens.log_weights)
    assert ref.log_z == ens.log_z
    assert np.array_equal(ref.ess_trace, ens.ess_trace)
    assert np.array_equal(ref.unique_trace, ens.unique_trace)
    assert ref.resample_steps == ens.resample_steps
    assert np.array_equal(
        engine.v, np.clip(ens.v_matrix, CLAMP_EPS, 1.0 - CLAMP_EPS))


class TestImputedDraws:
    def test_strictly_exceed_censoring_cdf(self, censored_exp50):
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=64, seed=13)
        # replay: rebuild each particle's P_{i-1}(c_i) = 1 - S_{i-1}(c_i)
        # from its own column
        censored_idx = np.nonzero(censored_exp50.status == 0)[0]
        for j in (0, 17, 51):
            for rec_idx in censored_idx:
                head = dataclasses.replace(
                    ensemble, v_matrix=ensemble.v_matrix[:rec_idx, [j]],
                    log_weights=np.zeros(1))
                surv_at_c = _run_rows(head, [censored_exp50.times[rec_idx]],
                                      None)["surv"]
                assert ensemble.v_matrix[rec_idx, j] > 1.0 - surv_at_c[0, 0]

    def test_particle_views_consistent(self, censored_exp50):
        ensemble = impute_smc(censored_exp50, FAMILY, n_particles=16, seed=13)
        assert ensemble.n_particles == 16
        assert ensemble.n_records == censored_exp50.n


def kaplan_meier(times, status, points):
    """Product-limit survival estimate (Kaplan & Meier 1958) at `points`."""
    event_times = np.unique(times[status == 1])
    surv = np.empty(event_times.size)
    s = 1.0
    for k, t in enumerate(event_times):
        at_risk = np.sum(times >= t)
        deaths = np.sum((times == t) & (status == 1))
        s *= 1.0 - deaths / at_risk
        surv[k] = s
    idx = np.searchsorted(event_times, points, side="right")
    return np.concatenate([[1.0], surv])[idx]


def test_posterior_mean_survival_tracks_kaplan_meier():
    """By the martingale property the point predictive S_n = 1 - P_n is
    the posterior-mean survival; on 200 records with a third censored it
    should sit near the product-limit estimate (20 seeds gave at most
    0.047)."""
    raw = cs.simulate_censored_exponential(200, 1.0, 0.5, seed=0)
    data = cs.permute(cs.standardize(raw), 0)
    ensemble = impute_smc(data, ClaytonFamily(0.9), n_particles=500, seed=0)
    top = np.quantile(data.times[data.status == 1], 0.8)
    points = np.linspace(0.0, top, 60)
    _, surv_rows = ensemble_grid_rows(ensemble, GridSpec(points))
    survival = weighted_mean(surv_rows, ensemble.weights)
    km = kaplan_meier(data.times, data.status, points)
    assert np.max(np.abs(survival - km)) <= 0.08


class TestDegeneracy:
    def test_all_dead_raises_with_diagnostics(self):
        data = make_dataset([1e14, 1.0], [0, 1])
        with pytest.raises(DegeneracyError) as err:
            impute_smc(data, FAMILY, n_particles=16, seed=0)
        assert err.value.diagnostics == []

    def test_partial_death_is_soft(self):
        # one censored record at a survivable point keeps the run alive
        data = make_dataset([0.5, 2.0, 1.0], [1, 0, 1])
        ensemble = impute_smc(data, FAMILY, n_particles=32, seed=0)
        assert np.isfinite(ensemble.log_z)

    def test_needs_two_particles(self, censored_exp50):
        with pytest.raises(ConfigurationError):
            impute_smc(censored_exp50, FAMILY, n_particles=1, seed=0)


class TestMarginalInvariance:
    def test_logz_insensitive_to_ess_frac(self):
        """The estimator stays unbiased with and without resampling;
        compare both to the analytic value on the conjugate micro
        instance (tight Monte Carlo tolerance at this size)."""
        from copsurv.parametric import (
            ConjugateModel,
            conjugate_smc,
            exact_log_marginal,
        )
        data = make_dataset([1.0, 1.5, 2.0, 0.7, 2.4], [1, 0, 1, 0, 1])
        model = ConjugateModel(a0=1.2, b0=1.0)
        exact = exact_log_marginal(model, data)
        never = conjugate_smc(model, data, n_particles=100_000, ess_frac=0.0,
                              seed=31).log_z
        half = conjugate_smc(model, data, n_particles=100_000, ess_frac=0.5,
                             seed=32).log_z
        assert_allclose(never, exact, rtol=0.01)
        assert_allclose(half, exact, rtol=0.01)
