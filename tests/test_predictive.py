import dataclasses

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import lomax

from copsurv.censoring import impute_smc
from copsurv.copulas import (
    CLAMP_EPS,
    ClaytonFamily,
    GaussianFamily,
    alpha_schedule,
    clayton_density_and_partial,
)
from copsurv.errors import ConfigurationError
from copsurv.predictive import RunningPredictive
from copsurv.resampling import (
    GridSpec,
    _run_rows,
    ensemble_grid_rows,
    martingale_posterior,
    weighted_mean,
)

from conftest import make_dataset


def fit(data, family, rho_x=None):
    """Sequential fit of fully observed data: a one-particle pass."""
    return impute_smc(data, family, rho_x=rho_x, n_particles=1, seed=0)


def rows(ensemble, points, x=None):
    """Row 0 (density, survival) of the fit at increasing times."""
    dens, surv = ensemble_grid_rows(ensemble, GridSpec(points), x)
    return dens[0], surv[0]


def at(ensemble, y, x=None):
    """Row 0 (density, survival) of the fit at one time."""
    out = _run_rows(ensemble, [y], x)
    return out["dens"][0, 0], out["surv"][0, 0]


# -- independent scalar oracle: the plain-formula recursion, no log space --

def oracle_clayton_density(u, v, a):
    num = (1 - u) ** (-(a + 1) / a) * (1 - v) ** (-(a + 1) / a)
    den = ((1 - u) ** (-1 / a) + (1 - v) ** (-1 / a) - 1) ** (a + 2)
    return (a + 1) / a * num / den


def oracle_clayton_partial(u, v, a):
    den = ((1 - u) ** (-1 / a) + (1 - v) ** (-1 / a) - 1) ** (a + 1)
    return 1 - (1 - v) ** (-(a + 1) / a) / den


def oracle_running_cdf(y, previous, a):
    """Running CDF of y after absorbing `previous` in order, rebuilt with
    the plain formulas."""
    u = 1.0 - float(ClaytonFamily(a).base_at(y)[1])
    for k, y_prev in enumerate(previous, start=1):
        alpha_k = (2 - 1 / k) / (k + 1)
        v_k = oracle_running_cdf(y_prev, previous[: k - 1], a)
        u = (1 - alpha_k) * u + alpha_k * oracle_clayton_partial(u, v_k, a)
    return u


def oracle_two_step(y_grid, y1, y2, a, values=None):
    """Hand evaluation of the density/CDF recursion applied twice, with
    the propagation values `values`, or those of the plain-formula
    running CDF when None."""
    family = ClaytonFamily(a)
    dens = [float(family.base_at(y)[0]) for y in y_grid]
    u = [1.0 - float(family.base_at(y)[1]) for y in y_grid]
    observations = [y1, y2]
    for i, y_obs in enumerate(observations, start=1):
        alpha = (2 - 1 / i) / (i + 1)
        v_i = (oracle_running_cdf(y_obs, observations[: i - 1], a)
               if values is None else values[i - 1])
        dens = [d * (1 - alpha + alpha * oracle_clayton_density(uu, v_i, a))
                for d, uu in zip(dens, u)]
        u = [(1 - alpha) * uu + alpha * oracle_clayton_partial(uu, v_i, a)
             for uu in u]
    return np.array(dens), np.array(u)


class TestAbsorbEvaluate:
    def test_empty_fit_is_base_measure(self):
        empty = fit(make_dataset([0.4], [1]), ClaytonFamily(1.2))
        empty = dataclasses.replace(empty, v_matrix=empty.v_matrix[:0])
        dens, surv = at(empty, 0.7)
        base_pdf, base_surv = ClaytonFamily(1.2).base_at(0.7)
        assert dens == base_pdf
        assert surv == base_surv

    def test_single_absorb_density_formula(self):
        a = 2.0
        y1 = float(lomax.ppf(0.5, c=a, scale=1.0))
        one = fit(make_dataset([y1], [1]), ClaytonFamily(a))
        alpha1 = float(alpha_schedule(1))
        density, _ = clayton_density_and_partial(0.5, 0.5, a)
        base_pdf = ClaytonFamily(a).base_at(y1)[0]
        expected = (1 - alpha1 + alpha1 * density) * base_pdf
        assert_allclose(at(one, y1)[0], expected, rtol=1e-12)

    def test_single_absorb_survival_formula(self):
        a = 1.5
        median = float(lomax.ppf(0.5, c=a, scale=1.0))
        one = fit(make_dataset([median], [1]), ClaytonFamily(a))
        alpha1 = float(alpha_schedule(1))
        _, tail = clayton_density_and_partial(0.5, 0.5, a)
        expected = (1 - alpha1) * 0.5 + alpha1 * tail
        assert_allclose(at(one, median)[1], expected, rtol=1e-12)

    def test_survival_approaches_zero(self):
        data = make_dataset([0.5, 1.2, 0.9], [1, 1, 1])
        assert at(fit(data, ClaytonFamily(1.0)), 1e12)[1] <= 1e-6

    def test_two_absorbs_match_hand_recursion(self):
        """A fit whose pass runs in float64 (a = 0.35, below the float32
        bound) gives the hand recursion's grid rows."""
        a = 0.35
        y1, y2 = 0.6, 1.7
        data = make_dataset([y1, y2], [1, 1])
        grid = np.array([0.3, 1.0, 2.5])
        dens, surv = rows(fit(data, ClaytonFamily(a)), grid)
        dens_oracle, cdf_oracle = oracle_two_step(grid, y1, y2, a)
        assert_allclose(dens, dens_oracle, rtol=1e-10)
        assert_allclose(surv, 1.0 - cdf_oracle, rtol=1e-10)

    def test_two_absorbs_of_a_float32_pass_match_hand_recursion(self):
        """A fit whose pass runs in float32 draws its propagation values
        from float32 rows; its float64 grid rows are the hand recursion's
        on those values, and the values lie within float32 rounding of
        the plain-formula running CDF."""
        a = 1.3
        y1, y2 = 0.6, 1.7
        data = make_dataset([y1, y2], [1, 1])
        grid = np.array([0.3, 1.0, 2.5])
        fitted = fit(data, ClaytonFamily(a))
        values = fitted.v_matrix[:, 0]
        dens, surv = rows(fitted, grid)
        dens_oracle, cdf_oracle = oracle_two_step(grid, y1, y2, a, values)
        assert_allclose(dens, dens_oracle, rtol=1e-10)
        assert_allclose(surv, 1.0 - cdf_oracle, rtol=1e-10)
        exact = [oracle_running_cdf(y1, [], a),
                 oracle_running_cdf(y2, [y1], a)]
        assert_allclose(values, exact, rtol=4 * np.finfo(np.float32).eps)

    @pytest.mark.parametrize("family", [ClaytonFamily(0.9),
                                        GaussianFamily(0.6)],
                             ids=["clayton", "gaussian"])
    def test_absorb_clamps_the_values_it_takes(self, family):
        """The running predictive clamps what it absorbs: v = 0 and v = 1
        give the bits of CLAMP_EPS and 1 - CLAMP_EPS, in either order."""
        points = np.geomspace(0.01, 8.0, 12)

        def absorbed(values):
            running = RunningPredictive(family, points, 2)
            for v in values:
                running.absorb(np.array(v))
            return running.dens, running.surv

        raw = absorbed([[0.0, 1.0], [1.0, 0.0]])
        clamped = absorbed([[CLAMP_EPS, 1.0 - CLAMP_EPS],
                            [1.0 - CLAMP_EPS, CLAMP_EPS]])
        assert np.array_equal(raw[0], clamped[0])
        assert np.array_equal(raw[1], clamped[1])


def mp_running_survival(y, values, a):
    """The Clayton running survival at time y after absorbing `values`,
    in mpmath at 50 digits: S <- (1 - a_k) S + a_k (1 - I) with
    1 - I = (r/t)^(a+1), r = S^(1/a), q = (1 - v)^(1/a), t = q + r(1 - q).
    Every survival it passes through stays above the kernel's clamp, so
    the clamp need not be modelled."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        surv = (1 + mpmath.mpf(float(y))) ** -a
        for k, v in enumerate(values, start=1):
            assert surv > CLAMP_EPS
            alpha = (2 - mpmath.mpf(1) / k) / (k + 1)
            r = surv ** (1 / a)
            q = (1 - mpmath.mpf(float(v))) ** (1 / a)
            tail = (r / (q + r * (1 - q))) ** (a + 1)
            surv = (1 - alpha) * surv + alpha * tail
        return surv


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_upper_tail_survival_matches_mpmath(a):
    """Where the running survival lies between 1e-9 and 1e-8, above the
    1e-10 clamp, it agrees with a 50-digit recursion to 1e-10 relative:
    the state is the survival, not 1 - CDF, whose 1e-16 absolute error
    is 1e-8 to 1e-7 relative there."""
    values = [0.3, 0.8, 0.55, 0.95, 0.1, 0.7]
    # base survivals from 2e-9 to 1e-6: the six records lower the upper
    # tail about tenfold
    times = np.geomspace(2e-9, 1e-6, 40) ** (-1.0 / a) - 1.0
    running = RunningPredictive(ClaytonFamily(a), times, 1)
    for v in values:
        running.absorb(np.array([v]))
    exact = np.array([float(mp_running_survival(y, values, a))
                      for y in times])
    read = (exact >= 1e-9) & (exact <= 1e-8)
    assert read.sum() >= 5
    assert_allclose(running.surv[read, 0], exact[read], rtol=1e-10)


class TestFitUncensored:
    def test_single_point_vseq(self):
        data = make_dataset([0.8], [1])
        vseq = fit(data, ClaytonFamily(1.1)).v_matrix[:, 0]
        assert vseq.size == 1
        assert_allclose(vseq[0], 1.0 - ClaytonFamily(1.1).base_at(0.8)[1])

    def test_identical_points_second_v_is_updated_cdf(self):
        """In a float64 pass (a = 0.35, below the float32 bound)."""
        a = 0.35
        y = 0.9
        data = make_dataset([y, y], [1, 1])
        vseq = fit(data, ClaytonFamily(a)).v_matrix[:, 0]
        v1 = 1.0 - float(ClaytonFamily(a).base_at(y)[1])
        alpha1 = float(alpha_schedule(1))
        v2_expected = (1 - alpha1) * v1 + alpha1 * oracle_clayton_partial(v1, v1, a)
        assert_allclose(vseq, [v1, v2_expected], rtol=1e-12)

    def test_identical_points_in_a_float32_pass(self):
        """In a float32 pass the second value is one minus the updated
        survival, the base survival held in float32 and updated there,
        with weights that sum to exactly 1 in float32."""
        a = 1.0
        y = 0.9
        data = make_dataset([y, y], [1, 1])
        vseq = fit(data, ClaytonFamily(a)).v_matrix[:, 0]
        s0 = np.float32(ClaytonFamily(a).base_at(y)[1])
        v1 = 1.0 - float(s0)
        keep = np.float32(1.0 - float(alpha_schedule(1)))
        _, tail = clayton_density_and_partial(np.array([s0]), v1, a)
        s1 = keep * s0 + (1 - keep) * tail[0]
        assert s1.dtype == np.float32
        assert_allclose(vseq, [v1, 1.0 - float(s1)], rtol=1e-12)

    def test_deterministic(self, uncensored_exp50):
        f1 = fit(uncensored_exp50, ClaytonFamily(0.8))
        f2 = fit(uncensored_exp50, ClaytonFamily(0.8))
        assert np.array_equal(f1.v_matrix[:, 0], f2.v_matrix[:, 0])


def pass_density(ensemble, y):
    """Row 0's density at one time after the fit's absorbed history, in
    the dtype of the fit's SMC pass: the density that pass reads at a
    record at y."""
    family = ensemble.family
    running = RunningPredictive(family, [y], 1, dtype=family.pass_dtype)
    for v in ensemble.v_matrix[:, :1]:
        running.absorb(v)
    return float(running.dens[0, 0])


class TestPrequential:
    """A one-particle pass over fully observed data scores it exactly,
    without Monte Carlo error: log_z is the prequential sum(log
    p_{i-1}(y_i)) of the densities the pass holds, in float64 below the
    float32 bound and in float32 above it."""

    @pytest.mark.parametrize("a", [0.35, 0.9], ids=["float64", "float32"])
    def test_single_point(self, a):
        data = make_dataset([1.4], [1])
        family = ClaytonFamily(a)
        got = fit(data, family).log_z
        pdf = np.asarray(family.base_at(1.4)[0]).astype(family.pass_dtype)
        assert got == np.log(float(pdf))

    @pytest.mark.parametrize("a", [0.35, 1.0], ids=["float64", "float32"])
    def test_additivity(self, uncensored_exp50, a):
        """In float64 the last record's term is the start rows' density
        there; in either dtype, the density a running predictive in the
        pass's dtype holds there."""
        family = ClaytonFamily(a)
        data = uncensored_exp50
        head = make_dataset(data.times[:-1], data.status[:-1])
        full = fit(data, family).log_z
        head_fit = fit(head, family)
        last_term = float(np.log(pass_density(head_fit, data.times[-1])))
        assert full == head_fit.log_z + last_term
        if family.pass_dtype == np.float64:
            assert last_term == float(np.log(at(head_fit, data.times[-1])[0]))

    def test_finite_and_reproducible(self, uncensored_exp50):
        v1 = fit(uncensored_exp50, ClaytonFamily(1.2)).log_z
        v2 = fit(uncensored_exp50, ClaytonFamily(1.2)).log_z
        assert np.isfinite(v1) and v1 == v2


class TestDensityProperties:
    def test_density_normalizes(self, uncensored_exp50):
        head = make_dataset(uncensored_exp50.times[:20],
                            uncensored_exp50.status[:20])
        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e5, 4000)])
        dens, _ = rows(fit(head, ClaytonFamily(1.0)), grid)
        mass = np.trapezoid(dens, grid)
        assert_allclose(mass, 1.0, atol=1e-3)

    def test_survival_monotone_density_nonnegative(self, uncensored_exp50):
        grid = np.geomspace(1e-3, 50, 300)
        dens, surv = rows(fit(uncensored_exp50, ClaytonFamily(0.7)), grid)
        assert np.all(np.diff(surv) <= 0)
        assert np.all(dens >= 0)

    def test_survival_density_finite_difference(self, uncensored_exp50):
        one = fit(uncensored_exp50, ClaytonFamily(1.1))
        for y in np.linspace(0.2, 3.0, 10):
            h = 1e-5 * max(1.0, y)
            dens, surv = rows(one, [y - h, y, y + h])
            assert_allclose((surv[0] - surv[2]) / (2 * h), dens[1], rtol=1e-3)

    def test_martingale_unbiasedness(self, uncensored_exp50):
        # absorbing one draw from the current predictive leaves the
        # survival unchanged in expectation
        head = make_dataset(uncensored_exp50.times[:15],
                            uncensored_exp50.status[:15])
        one = fit(head, ClaytonFamily(1.0))
        grid = np.array([0.3, 0.7, 1.2, 2.0, 3.5])
        _, before = rows(one, grid)
        draws = np.random.default_rng(77).random(10_000)
        # column k: the fitted history, then draw k as record 16
        history = np.vstack([np.repeat(one.v_matrix[:, [0]], draws.size, axis=1),
                             draws[None, :]])
        extended = dataclasses.replace(one, v_matrix=history,
                                       log_weights=np.zeros(draws.size))
        _, after = ensemble_grid_rows(extended, GridSpec(grid))
        mc_mean = after.mean(axis=0)
        mc_se = after.std(axis=0, ddof=1) / np.sqrt(draws.size)
        assert np.all(np.abs(mc_mean - before) <= 3 * mc_se)


class TestConditionalVariant:
    def test_rho_x_zero_degenerates_to_plain(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 2))
        data = make_dataset(rng.exponential(1.0, 25), np.ones(25), covariates=x)
        fam = GaussianFamily(0.6)
        grid = np.geomspace(0.05, 5.0, 40)
        x0 = np.array([0.2, -1.0])
        d_plain, _ = rows(fit(data, fam), grid)
        d_cond, _ = rows(fit(data, fam, rho_x=0.0), grid, x=x0)
        assert np.array_equal(d_cond, d_plain)
        # with a third of the records censored: the SMC pass and the
        # martingale posterior under x0 equal the plain run bit for bit
        censored = dataclasses.replace(
            data, status=(rng.random(25) < 0.7).astype(int))
        plain = impute_smc(censored, fam, n_particles=40, seed=5)
        cond = impute_smc(censored, fam, rho_x=0.0, n_particles=40, seed=5)
        assert plain.log_z == cond.log_z
        assert np.array_equal(plain.v_matrix, cond.v_matrix)
        assert np.array_equal(plain.log_weights, cond.log_weights)
        spec = GridSpec(grid)
        post_plain = martingale_posterior(plain, 60, spec, seed=5,
                                          trace_chains=3)
        post_cond = martingale_posterior(cond, 60, spec, x_target=x0, seed=5,
                                         trace_chains=3)
        for field in ("survival_draws", "density_draws", "medians",
                      "w1_trace"):
            assert np.array_equal(getattr(post_plain, field),
                                  getattr(post_cond, field)), field

    def test_conditional_density_depends_on_x(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 1))
        y = np.exp(0.8 * x[:, 0]) * rng.exponential(1.0, 25)
        data = make_dataset(y, np.ones(25), covariates=x)
        cond = fit(data, GaussianFamily(0.6), rho_x=0.8)
        grid = np.geomspace(0.05, 5.0, 40)
        lo, _ = rows(cond, grid, x=np.array([-1.5]))
        hi, _ = rows(cond, grid, x=np.array([1.5]))
        assert np.max(np.abs(lo - hi)) > 1e-3

    @staticmethod
    def _two_groups(other_seed):
        """40 records in a fixed order alternating x = +3 and x = -3:
        group +3 about half censored, group -3 fully observed with times
        drawn from `other_seed`."""
        rng = np.random.default_rng(11)
        y, c = rng.exponential(1.0, 20), rng.exponential(1.0, 20)
        times = np.empty(40)
        times[0::2] = np.minimum(y, c)
        times[1::2] = np.random.default_rng(other_seed).exponential(1.0, 20)
        status = np.ones(40, dtype=int)
        status[0::2] = y <= c
        x = np.tile([[3.0], [-3.0]], (20, 1))
        return make_dataset(times, status, covariates=x)

    def _at_plus_3(self, data, rho_x):
        """Point predictive (density, survival) and posterior survival
        draws at x = +3 of an unresampled fit kept in record order."""
        ens = impute_smc(data, ClaytonFamily(0.9), rho_x=rho_x,
                         n_particles=300, ess_frac=0.0, seed=2)
        spec = GridSpec(np.geomspace(0.01, 5.0, 30))
        x_target = np.array([3.0])
        point = [weighted_mean(r, ens.weights)
                 for r in ensemble_grid_rows(ens, spec, x_target)]
        draws = martingale_posterior(ens, 100, spec, x_target=x_target,
                                     seed=2)
        return np.concatenate(point), draws.survival_draws

    def test_far_group_decouples(self):
        """At rho_x = 0.9 a record at x = -3 weighs below e^-80 at +3, and
        a fully observed group's weight factor is the same for every
        particle: redrawing group -3's times moves nothing at +3."""
        first, second = self._two_groups(21), self._two_groups(22)
        assert 5 <= np.count_nonzero(first.status == 0) <= 15
        assert not np.array_equal(first.times, second.times)
        point_1, draws_1 = self._at_plus_3(first, 0.9)
        point_2, draws_2 = self._at_plus_3(second, 0.9)
        assert np.max(np.abs(point_1 - point_2)) <= 1e-12
        assert np.max(np.abs(draws_1 - draws_2)) <= 1e-12
        # control: at rho_x = 0.1 the groups share their strength
        point_1, _ = self._at_plus_3(first, 0.1)
        point_2, _ = self._at_plus_3(second, 0.1)
        assert np.max(np.abs(point_1 - point_2)) > 1e-3

    def test_missing_x_rejected(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 1))
        data = make_dataset(rng.exponential(1.0, 10), np.ones(10), covariates=x)
        cond = fit(data, GaussianFamily(0.5), rho_x=0.5)
        with pytest.raises(ConfigurationError):
            ensemble_grid_rows(cond, GridSpec([0.5, 1.0]))
