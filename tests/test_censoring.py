import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import copsurv as cs
from copsurv import censoring
from copsurv.censoring import (
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
    """(step, ess, unique, resampled) per record, as diagnostics.csv
    writes them."""
    fired = set(ensemble.resample_steps)
    return [(i + 1, ess, unique, i in fired) for i, (ess, unique)
            in enumerate(zip(ensemble.ess_trace, ensemble.unique_trace))]


class TestEss:
    def test_uniform_weights_exact(self):
        assert ess_from_log_weights(np.zeros(2000)) == 2000.0

    def test_single_finite_weight(self):
        lw = np.full(50, -np.inf)
        lw[7] = np.log(3.0)
        assert ess_from_log_weights(lw) == 1.0

    def test_direct_formula(self):
        w = np.array([0.5, 0.25, 0.25])
        assert_allclose(ess_from_log_weights(np.log(w)),
                        1.0 / (0.25 + 0.0625 + 0.0625))

    def test_all_zero_degenerate(self):
        with np.errstate(divide="ignore"):
            lw = np.log(np.zeros(5))
        with pytest.raises(DegeneracyError):
            ess_from_log_weights(lw)

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

    def test_last_sum_rounded_below_a_position_picks_the_last_particle(self):
        """Ten weights of 0.1 sum to 1 - 2^-53, and an offset just below 1
        puts the last position at 1.0, above every running sum: the clip
        gives it the last particle."""
        w = np.full(10, 0.1)
        offset = np.nextafter(1.0, 0.0)
        assert np.cumsum(w)[-1] < 1.0
        assert (offset + 9) / 10 == 1.0
        idx = systematic_indices(w, offset)
        assert idx[-1] == 9
        assert np.array_equal(idx, [0, 2, 2, 4, 5, 6, 7, 8, 9, 9])

    def test_sums_rounded_above_one_never_pick_a_zero_weight(self):
        """Here the sum of the first five weights rounds above 1 and the
        last weight is 0, and the last position is 1.0.  The running sums
        stay sorted, so that position goes to particle 4; pinning the last
        sum to 1 would leave them unsorted and hand it to particle 5."""
        w = np.array([0.27670425415157746, 0.10673114276353252,
                      0.0726387303062863, 0.3288447931136854,
                      0.21508107966491843, 0.0])
        offset = np.nextafter(1.0, 0.0)
        assert np.cumsum(w)[-2] > 1.0
        assert (offset + 5) / 6 == 1.0
        idx = systematic_indices(w, offset)
        assert np.array_equal(idx, [0, 1, 3, 3, 4, 4])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_smc_pass_needs_no_top_guard(self, censored_exp50, monkeypatch,
                                         seed):
        """A pass that resamples after every record but the first (whose
        weights are all equal) has the bits of one whose resampler pins
        the last running sum to 1."""
        def pinned(weights, offset):
            b = weights.size
            cumulative = np.cumsum(weights)
            cumulative[-1] = 1.0
            positions = (offset + np.arange(b)) / b
            return np.searchsorted(cumulative, positions,
                                   side="right").clip(0, b - 1)

        def run():
            return impute_smc(censored_exp50, FAMILY, n_particles=64,
                              ess_frac=1.0, seed=seed)

        ensemble = run()
        monkeypatch.setattr(censoring, "systematic_indices", pinned)
        reference = run()
        assert len(ensemble.resample_steps) == censored_exp50.n - 1
        for name, value in vars(reference).items():
            assert np.array_equal(getattr(ensemble, name), value), name

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

    def test_marginal_likelihood_is_unbiased_through_resampling(self):
        """exp(log_z) is unbiased for Z at any particle count, adaptive
        resampling included (Whiteley, Lee & Heine 2016).  Records
        (censored at c, observed y2, observed y3), B = 4 and ess_frac = 1:
        every pass resamples at y2 and at y3, and the mean of exp(log_z)
        over 200 seeds matches the quadrature Z = int_{P0(c)}^1
        p_1^{(u)}(y2) p_2^{(u, v2)}(y3) du, v2 = P_1^{(u)}(y2).  Over 20
        disjoint blocks of 200 seeds the relative error had sd 0.011 and
        at most 0.022; dividing each event's mass by B - 1, not B, moves
        the mean by (4/3)^2 (+78%)."""
        a = 1.0
        c, y2, y3 = 0.6, 1.1, 0.4
        alpha1, alpha2 = (float(alpha_schedule(k)) for k in (1, 2))

        def step(pdf, surv, v, alpha):
            d, tail = clayton_density_and_partial(surv, v, a)
            return pdf * (1 - alpha + alpha * d), (1 - alpha) * surv + alpha * tail

        def integrand(u):
            p2, s2 = step(*lomax(y2, a, 1.0), u, alpha1)
            p3, _ = step(*step(*lomax(y3, a, 1.0), u, alpha1), 1.0 - s2,
                         alpha2)
            return float(p2) * float(p3)

        p0c = 1.0 - float(lomax(c, a, 1.0)[1])
        z_exact, _ = quad(integrand, p0c, 1.0, limit=200)

        data = make_dataset([c, y2, y3], [0, 1, 1])
        passes = [impute_smc(data, FAMILY, n_particles=4, ess_frac=1.0,
                             seed=seed) for seed in range(200)]
        assert all(e.resample_steps == [1, 2] for e in passes)
        z_mean = np.mean([np.exp(e.log_z) for e in passes])
        assert_allclose(z_mean, z_exact, rtol=0.05)

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
    itself.  Its particle-major layout is the transpose of the engine's
    point-major one, so a bitwise match checks the layout too."""

    def __init__(self, family, rho_x, covariates, times, n_particles):
        pdf, surv = family.base_at(times)
        self.dens = np.tile(pdf, (n_particles, 1))
        self.surv = np.tile(surv, (n_particles, 1))
        self.family, self.rho_x, self.x = family, rho_x, covariates
        self.v = np.empty((len(times), n_particles))
        self.i = 0

    def eval_at(self, t):
        return self.dens[:, self.i], self.surv[:, self.i]

    def absorb_record(self, t, u, observed):
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


def reference_case(case, censored_exp50):
    """(data, family, rho_x) of a pass checked against ReferenceEngine."""
    if case == "clayton":
        return censored_exp50, ClaytonFamily(1.0), None
    if case == "all_censored":
        return (make_dataset(censored_exp50.times,
                             np.zeros(censored_exp50.n, dtype=int)),
                ClaytonFamily(1.0), None)
    data = two_covariate_data(30, 4)
    if case == "all_observed":
        data = dataclasses.replace(data, status=np.ones(data.n, dtype=int))
    return data, GaussianFamily(0.5), 0.6


@pytest.mark.parametrize("case", ["clayton", "gaussian", "all_censored",
                                  "all_observed"])
def test_resampling_pass_matches_the_written_out_engine(censored_exp50, case):
    """A pass driven by `run_smc_loop` through the written out engine,
    which carries a density at every pending record, gives
    `impute_smc`'s weights, traces and clipped propagation values bit
    for bit: Clayton without covariates on mixed and on all-censored
    records, and Gaussian with two covariates and rho_x on mixed and on
    all-observed records.  Every pass but the all-observed one (whose
    particles share one history) resamples."""
    data, family, rho_x = reference_case(case, censored_exp50)
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64,
                     ess_frac=0.95, seed=5)
    assert bool(ens.resample_steps) == (case != "all_observed")
    engine = ReferenceEngine(family, rho_x, data.covariates, data.times, 64)
    ref = run_smc_loop(engine, data, 64, 0.95, 5)
    assert np.array_equal(ref.log_weights, ens.log_weights)
    assert ref.log_z == ens.log_z
    assert np.array_equal(ref.ess_trace, ens.ess_trace)
    assert np.array_equal(ref.unique_trace, ens.unique_trace)
    assert ref.resample_steps == ens.resample_steps
    assert np.array_equal(
        engine.v, np.clip(ens.v_matrix, CLAMP_EPS, 1.0 - CLAMP_EPS))


@pytest.mark.parametrize("case", ["clayton", "gaussian", "all_censored",
                                  "all_observed"])
def test_engine_holds_a_density_row_per_pending_observed_record(
        censored_exp50, case):
    """Before each record, the engine's running predictive has one
    survival row per pending record and one density row per pending
    observed record, and it evaluates no density for a censored one."""
    data, family, rho_x = reference_case(case, censored_exp50)
    engine = censoring._CopulaEngine(family, rho_x, data.covariates,
                                     data.times, data.status, 16)
    eval_at, seen = engine.eval_at, []

    def checked(t):
        pending = data.status[engine.n_absorbed:]
        assert engine.dens.shape == (np.sum(pending == 1), 16)
        assert engine.surv.shape == (pending.size, 16)
        dens, surv = eval_at(t)
        assert (dens is None) == (pending[0] == 0)
        seen.append(engine.n_absorbed)
        return dens, surv

    engine.eval_at = checked
    run_smc_loop(engine, data, 16, 0.5, 3)
    assert seen == list(range(data.n))
    assert engine.dens.shape[0] == engine.surv.shape[0] == 0


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
        assert ensemble.v_matrix.shape[0] == censored_exp50.n


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
    def test_all_dead_raises_naming_the_record(self):
        data = make_dataset([1e14, 1.0], [0, 1])
        with pytest.raises(DegeneracyError,
                           match=r"vanished at record 1 \(input row 1\)$"):
            impute_smc(data, FAMILY, n_particles=16, seed=0)

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
