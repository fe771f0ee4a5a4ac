import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import lognorm, lomax

from copsurv.copulas import ClaytonFamily, GaussianFamily
from copsurv.distributions import (
    LogNormalBaseParams,
    LomaxParams,
    lognormal_base_cdf,
    lognormal_base_pdf,
    lomax_cdf,
    lomax_pdf,
)
from copsurv.errors import ConfigurationError


class TestLomax:
    def test_pdf_at_zero_is_shape_over_scale(self):
        assert lomax_pdf(0.0, LomaxParams(2.0, 1.0)) == 2.0

    def test_pdf_unit_params(self):
        assert lomax_pdf(1.0, LomaxParams(1.0, 1.0)) == 0.25

    def test_pdf_integrates_to_one(self):
        p = LomaxParams(1.2, 1.0)
        mass, _ = quad(lambda y: lomax_pdf(y, p), 0, np.inf)
        assert_allclose(mass, 1.0, atol=1e-6)

    def test_cdf_values(self):
        assert lomax_cdf(0.0, LomaxParams(3.0, 2.0)) == 0.0
        assert_allclose(lomax_cdf(1.0, LomaxParams(1.0, 1.0)), 0.5, rtol=1e-15)

    def test_inverse_is_tight(self):
        # scipy's Lomax quantile function inverts the CDF
        p = LomaxParams(1.2, 1.0)
        ys = np.geomspace(1e-3, 1e3, 50)
        assert_allclose(lomax.ppf(lomax_cdf(ys, p), c=1.2, scale=1.0), ys,
                        rtol=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lomax_pdf(-0.1, LomaxParams(1.0, 1.0))

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            LomaxParams(-1.0, 1.0)

    @given(st.floats(1e-3, 1e3), st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, y, a, b):
        p = LomaxParams(a, b)
        u = lomax_cdf(y, p)
        # identity only testable while the CDF is representable below 1
        assume(u < 1.0 - 1e-8)
        assert_allclose(lomax.ppf(u, c=a, scale=b), y, rtol=1e-7)

    def test_array_params_broadcast(self):
        p = LomaxParams(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert_allclose(lomax_pdf(0.0, p), [1.0, 2.0])


class TestLogNormalBase:
    def test_median_at_one(self):
        assert_allclose(lognormal_base_cdf(1.0, LogNormalBaseParams(0.5)), 0.5)

    def test_pdf_integrates_to_one(self):
        p = LogNormalBaseParams(0.6)
        mass, _ = quad(lambda y: lognormal_base_pdf(y, p), 1e-12, np.inf)
        assert_allclose(mass, 1.0, atol=1e-6)

    def test_nonpositive_rejected_for_pdf(self):
        with pytest.raises(ValueError):
            lognormal_base_pdf(0.0, LogNormalBaseParams(0.5))

    def test_rho_range_enforced(self):
        with pytest.raises(ConfigurationError):
            LogNormalBaseParams(1.0)

    @given(st.floats(1e-3, 1e3), st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_cdf_matches_scipy(self, y, rho):
        p = LogNormalBaseParams(rho)
        expected = lognorm(s=p.log_sd).cdf(y)
        assert_allclose(lognormal_base_cdf(y, p), expected, rtol=1e-12,
                        atol=1e-300)


@pytest.mark.parametrize(
    "pdf, cdf, params",
    [
        (lomax_pdf, lomax_cdf, LomaxParams(1.3, 0.8)),
        (lognormal_base_pdf, lognormal_base_cdf, LogNormalBaseParams(0.4)),
    ],
)
def test_pdf_cdf_consistency(pdf, cdf, params):
    ys = np.geomspace(1e-2, 50.0, 25)
    for y in ys:
        h = 1e-5 * max(1.0, y)
        numeric = (cdf(y + h, params) - cdf(y - h, params)) / (2 * h)
        assert_allclose(numeric, pdf(y, params), rtol=1e-4)


@pytest.mark.parametrize(
    "cdf, params",
    [
        (lomax_cdf, LomaxParams(0.7, 1.0)),
        (lognormal_base_cdf, LogNormalBaseParams(0.7)),
    ],
)
def test_cdf_monotone(cdf, params):
    grid = np.linspace(0.01, 30.0, 400)
    vals = np.array([cdf(y, params) for y in grid])
    assert np.all(np.diff(vals) >= 0)


def test_base_dispatch_matches_families():
    lom = LomaxParams(1.5, 1.0)
    logn = LogNormalBaseParams(0.5)
    assert ClaytonFamily(1.5).base_at(1.0)[0] == lomax_pdf(1.0, lom)
    assert GaussianFamily(0.5).base_at(1.0)[1] == lognormal_base_cdf(1.0, logn)
    # grids may include the origin: the log-normal density limit is 0
    assert GaussianFamily(0.5).base_at(0.0)[0] == 0.0
    pdf, cdf = GaussianFamily(0.5).base_at(np.array([0.0, 1.0]))
    assert pdf[0] == 0.0
    assert_allclose(pdf[1], lognormal_base_pdf(1.0, logn))
    assert cdf[0] == lognormal_base_cdf(0.0, logn)
    with pytest.raises(ValueError):
        GaussianFamily(0.5).base_at(-1.0)
