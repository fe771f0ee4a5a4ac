"""The base measures against scipy: `copulas.lomax`, which serves the
Clayton family's Lomax(a, 1) base and the conjugate predictive, and the
Gaussian family's log-normal(0, 1/(1-rho)) base."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import lognorm
from scipy.stats import lomax as scipy_lomax

from copsurv.copulas import ClaytonFamily, GaussianFamily, lomax
from copsurv.errors import ConfigurationError
from copsurv.parametric import ConjugateModel


def lomax_pdf(y, a, b):
    return lomax(y, a, b)[0]


def lomax_sf(y, a, b):
    return lomax(y, a, b)[1]


class TestLomax:
    def test_pdf_at_zero_is_shape_over_scale(self):
        assert lomax_pdf(0.0, 2.0, 1.0) == 2.0

    def test_pdf_unit_params(self):
        assert lomax_pdf(1.0, 1.0, 1.0) == 0.25

    def test_pdf_integrates_to_one(self):
        mass, _ = quad(lambda y: lomax_pdf(y, 1.2, 1.0), 0, np.inf)
        assert_allclose(mass, 1.0, atol=1e-6)

    def test_survival_values(self):
        assert lomax_sf(0.0, 3.0, 2.0) == 1.0
        assert_allclose(lomax_sf(1.0, 1.0, 1.0), 0.5, rtol=1e-15)

    def test_inverse_is_tight(self):
        # scipy's Lomax inverse survival function inverts the survival
        ys = np.geomspace(1e-3, 1e3, 50)
        assert_allclose(scipy_lomax.isf(lomax_sf(ys, 1.2, 1.0), c=1.2,
                                        scale=1.0), ys, rtol=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lomax(-0.1, 1.0, 1.0)
        for family in (ClaytonFamily(1.0), GaussianFamily(0.5)):
            with pytest.raises(ValueError):
                family.base_at(-0.1)

    def test_invalid_params_rejected(self):
        # the conjugate model checks the (a0, b0) its predictive starts at
        with pytest.raises(ConfigurationError):
            ConjugateModel(-1.0)
        with pytest.raises(ConfigurationError):
            ConjugateModel(1.0, 0.0)

    @given(st.floats(1e-3, 1e3), st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, y, a, b):
        s = lomax_sf(y, a, b)
        # identity only testable while the survival is representable
        assume(s > 1e-300)
        assert_allclose(scipy_lomax.isf(s, c=a, scale=b), y, rtol=1e-7)

    def test_array_params_broadcast(self):
        assert_allclose(lomax_pdf(0.0, np.array([1.0, 2.0]),
                                  np.array([1.0, 1.0])), [1.0, 2.0])


class TestLogNormalBase:
    def test_median_at_one(self):
        assert_allclose(GaussianFamily(0.5).base_at(1.0)[1], 0.5)

    def test_pdf_integrates_to_one(self):
        base = GaussianFamily(0.6)
        mass, _ = quad(lambda y: base.base_at(y)[0], 1e-12, np.inf)
        assert_allclose(mass, 1.0, atol=1e-6)

    @given(st.floats(1e-3, 1e3), st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_survival_matches_scipy(self, y, rho):
        expected = lognorm(s=1.0 / np.sqrt(1.0 - rho)).sf(y)
        assert_allclose(GaussianFamily(rho).base_at(y)[1], expected,
                        rtol=1e-12, atol=1e-300)


BASES = [
    pytest.param(lambda y: lomax(y, 1.3, 0.8), id="lomax"),
    pytest.param(lambda y: lomax(y, 0.7, 1.0), id="clayton-base"),
    pytest.param(GaussianFamily(0.4).base_at, id="lognormal-0.4"),
    pytest.param(GaussianFamily(0.7).base_at, id="lognormal-0.7"),
]


@pytest.mark.parametrize("base", BASES)
def test_pdf_survival_consistency(base):
    ys = np.geomspace(1e-2, 50.0, 25)
    for y in ys:
        h = 1e-5 * max(1.0, y)
        numeric = (base(y - h)[1] - base(y + h)[1]) / (2 * h)
        assert_allclose(numeric, base(y)[0], rtol=1e-4)


@pytest.mark.parametrize("base", BASES)
def test_survival_monotone(base):
    grid = np.linspace(0.01, 30.0, 400)
    vals = np.array([base(y)[1] for y in grid])
    assert np.all(np.diff(vals) <= 0)


def test_base_dispatch_matches_families():
    assert ClaytonFamily(1.5).base_at(1.0)[0] == lomax_pdf(1.0, 1.5, 1.0)
    assert ClaytonFamily(1.5).base_at(1.0)[1] == lomax_sf(1.0, 1.5, 1.0)
    # grids may include the origin: the log-normal density limit is 0
    assert GaussianFamily(0.5).base_at(0.0)[0] == 0.0
    pdf, surv = GaussianFamily(0.5).base_at(np.array([0.0, 1.0]))
    assert pdf[0] == 0.0
    assert_allclose(pdf[1], lognorm(s=np.sqrt(2.0)).pdf(1.0), rtol=1e-14)
    assert surv[0] == 1.0
