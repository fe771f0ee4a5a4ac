import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal, norm

from copsurv import cli
from copsurv.copulas import (
    CLAMP_EPS,
    FAMILIES,
    ClaytonFamily,
    GaussianFamily,
    KernelScratch,
    alpha_regression,
    alpha_schedule,
    lomax,
    make_family,
)
from copsurv.copulas import _clamp_upper, _log_clayton_s
from copsurv.copulas import clayton_density_and_partial as clayton
from copsurv.copulas import gaussian_density_and_partial as gaussian
from copsurv.errors import ConfigurationError
from copsurv.resampling import log_grid

probs = st.floats(0.01, 0.99)
bandwidths = st.floats(0.2, 3.0)

# Kernel inputs with the exact ends and the clamp edge, at bandwidths down
# to 0.02, where (1-u)^(-1/a) pushes float64 to its limits near u = 1.
EDGE_PROBS = [0.0, 1.0, 1.0 - CLAMP_EPS, 1.0 - 2 * CLAMP_EPS, 0.5, 1e-17,
              5e-324]
kernel_probs = st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0))
kernel_bandwidths = st.one_of(st.floats(0.02, 0.1), st.floats(0.02, 5.0))


def reference_clayton(u, v, a):
    """The log-space kernel as written before its passes were fused into
    in-place steps, kept as the reference for bitwise equality."""
    def clamp_upper(p):
        return np.clip(np.asarray(p, dtype=float), 0.0, 1.0 - CLAMP_EPS)

    u = np.asarray(u, dtype=float)
    gu = -np.log1p(-clamp_upper(u)) / a
    gv = -np.log1p(-clamp_upper(v)) / a
    m = np.maximum(gu, gv)
    log_s = m + np.log(1.0 + np.exp(-np.abs(gu - gv)) - np.exp(-m))
    density = ((a + 1.0) / a) * np.exp((a + 1.0) * (gu + gv) - (a + 2.0) * log_s)
    inner = -np.expm1((a + 1.0) * (gv - log_s))
    partial = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, inner))
    return density, partial


def assert_matches_reference(u, v, a):
    got, want = clayton(u, v, a), reference_clayton(u, v, a)
    for name, g, w in zip(("density", "partial"), got, want):
        assert np.shape(g) == np.shape(w), name
        assert np.array_equal(g, w), (name, a)


class TestClayton:
    def test_origin_identity_exact(self):
        for a in (0.5, 1.0, 2.0, 3.7):
            density, partial = clayton(0.0, 0.0, a)
            assert density == (a + 1.0) / a
            assert partial == 0.0

    def test_symmetry_spot(self):
        assert_allclose(clayton(0.3, 0.7, 1.1)[0], clayton(0.7, 0.3, 1.1)[0],
                        rtol=1e-14)

    def test_marginal_uniformity(self):
        mass, _ = quad(lambda u: clayton(u, 0.4, 1.2)[0], 0, 1, limit=200)
        assert_allclose(mass, 1.0, atol=1e-6)

    def test_partial_endpoints_exact(self):
        assert clayton(0.0, 0.3, 0.8)[1] == 0.0
        assert clayton(1.0, 0.3, 0.8)[1] == 1.0

    def test_partial_matches_density_derivative(self):
        u, v, a = 0.5, 0.3, 0.8
        h = 1e-6
        numeric = (clayton(u + h, v, a)[1] - clayton(u - h, v, a)[1]) / (2 * h)
        assert_allclose(numeric, clayton(u, v, a)[0], rtol=1e-4)

    def test_small_bandwidth_stays_finite(self):
        density, partial = clayton(np.array([1e-9, 0.5, 1 - 1e-9]), 0.999, 0.06)
        assert np.all(np.isfinite(density))
        assert np.all(np.isfinite(partial))

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            clayton(0.5, 0.5, 0.0)

    @given(probs, probs, bandwidths)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, u, v, a):
        assert_allclose(clayton(u, v, a)[0], clayton(v, u, a)[0], rtol=1e-12)

    @given(probs, bandwidths)
    @settings(max_examples=100, deadline=None)
    def test_partial_monotone_in_u(self, v, a):
        us = np.linspace(0.0, 1.0, 101)
        vals = clayton(us, v, a)[1]
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0


    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                    min_size=1, max_size=64),
           st.floats(0.05, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_log_s_matches_two_exp_form_bitwise(self, pairs, a):
        # _log_clayton_s writes the shifted exp(gu - m) + exp(gv - m) as
        # 1 + exp(-|gu - gv|); clamp ends and u = v are always included
        top = 1.0 - 1e-10
        edges = [(0.0, 0.0), (0.0, top), (top, 0.0), (top, top), (1.0, 0.3),
                 (0.3, 1.0), (0.3, 0.3)]
        u, v = np.array(pairs + edges).T
        gu = -np.log1p(-_clamp_upper(u)) / a
        gv = -np.log1p(-_clamp_upper(v)) / a
        m = np.maximum(gu, gv)
        two_exp = m + np.log(np.exp(gu - m) + np.exp(gv - m) - np.exp(-m))
        out, work = np.empty(u.shape), (np.empty(u.shape), np.empty(u.shape))
        assert np.array_equal(_log_clayton_s(gu, gv, out, work), two_exp)


class TestClaytonMatchesReference:
    """The in-place kernel equals the reference bit for bit, in the three
    layouts the recursion calls it with: scalars (the prequential score),
    a (G,) grid row against a (rows, 1) column of propagation values (the
    first start-row step) and (rows, B) running values against a (B,)
    row (the SMC pass)."""

    @given(st.data(), kernel_bandwidths,
           st.sampled_from(["scalar", "grid_vs_rows", "rows_vs_particles"]))
    @settings(max_examples=300, deadline=None)
    def test_bitwise(self, data, a, layout):
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 9))

        def draw(shape):
            n = int(np.prod(shape))
            cells = data.draw(st.lists(kernel_probs, min_size=n, max_size=n))
            return np.array(cells, dtype=float).reshape(shape)

        if layout == "scalar":
            u, v = data.draw(kernel_probs), data.draw(kernel_probs)
        elif layout == "grid_vs_rows":
            u, v = draw((cols,)), draw((rows, 1))
        else:
            u, v = draw((rows, cols)), draw((cols,))
        assert_matches_reference(u, v, a)

    @pytest.mark.parametrize("a", [0.02, 0.05, 0.09, 0.5, 1.0, 5.0])
    def test_every_edge_pair(self, a):
        edges = np.array(EDGE_PROBS)
        assert_matches_reference(edges, edges[:, None], a)
        assert_matches_reference(edges[:, None], edges, a)


# The two kernels and their helpers as written before the kernels took a
# KernelScratch set, copied statement for statement (names changed,
# argument checks and most docstrings left out): they allocate every
# array they use.  The reference for bitwise equality.

def alloc_clamp_upper(u):
    # Clayton formulas are regular at u = 0, so only the upper end needs
    # protection; negative inputs are treated as the origin.
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0 - CLAMP_EPS)


def alloc_clamp(u):
    return np.clip(np.asarray(u, dtype=float), CLAMP_EPS, 1.0 - CLAMP_EPS)


def alloc_log_clayton_s(gu, gv, out, work):
    m, e = work
    np.maximum(gu, gv, out=m)
    np.minimum(gu, gv, out=out)
    out -= m
    np.exp(out, out=out)
    out += 1.0
    np.negative(m, out=e)
    np.exp(e, out=e)
    out -= e
    np.log(out, out=out)
    out += m
    return out


def alloc_gaussian_log_density_z(zu, zv, rho: float):
    """log c_rho as a function of the normal scores."""
    r2 = rho * rho
    return -0.5 * np.log1p(-r2) - (r2 * (zu * zu + zv * zv) - 2.0 * rho * zu * zv) / (
        2.0 * (1.0 - r2)
    )


def alloc_clayton_g(p, a: float):
    """-log(1-p)/a of the upper-clamped p, as a new array."""
    g = np.asarray(alloc_clamp_upper(p))  # clip returns a fresh array
    np.negative(g, out=g)
    np.log1p(g, out=g)
    g /= -a
    return g


def alloc_clayton(u, v, a: float):
    u = np.asarray(u, dtype=float)
    gu = alloc_clayton_g(u, a)
    gv = alloc_clayton_g(v, a)
    shape = np.broadcast_shapes(gu.shape, gv.shape)
    density, partial, log_s = np.empty(shape), np.empty(shape), np.empty(shape)
    alloc_log_clayton_s(gu, gv, log_s, (density, partial))
    # log_s >= gv always, so the exponent is <= 0 and the partial in [0, 1].
    np.subtract(gv, log_s, out=partial)
    partial *= a + 1.0
    np.expm1(partial, out=partial)
    np.negative(partial, out=partial)
    np.copyto(partial, 0.0, where=u <= 0.0)
    np.copyto(partial, 1.0, where=u >= 1.0)
    np.add(gu, gv, out=density)
    density *= a + 1.0
    log_s *= a + 2.0
    density -= log_s
    np.exp(density, out=density)
    density *= (a + 1.0) / a
    return density, partial


def alloc_gaussian(u, v, rho: float):
    u = np.asarray(u, dtype=float)
    zu = ndtri(alloc_clamp(u))
    zv = ndtri(alloc_clamp(v))
    density = np.exp(alloc_gaussian_log_density_z(zu, zv, rho))
    inner = ndtr((zu - rho * zv) / np.sqrt(1.0 - rho * rho))
    partial = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, inner))
    return density, partial


# u at the exact ends, the clamp edges, a subnormal-scale value and the
# float64 just below 1; v adds three interior values.
SCRATCH_U = [0.0, 1.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1e-300, 1.0 - 2.0**-53]
SCRATCH_V = SCRATCH_U + [0.3, 0.5, 0.7]


def nan_scratch(shape, v_shape, n_block):
    """Views of a scratch set larger than the call needs, every float
    pre-filled with NaN and the mask with True."""
    flat = KernelScratch.flat(2 * math.prod(shape) + 3,
                              2 * math.prod(v_shape) + 1, n_block)
    for array in flat.block + flat.small:
        array.fill(np.nan)
    flat.mask.fill(True)
    return flat.view(shape, v_shape)


@pytest.mark.parametrize("kernel, reference, params, family", [
    (clayton, alloc_clayton, (0.05, 0.9, 5.0), ClaytonFamily),
    (gaussian, alloc_gaussian, (0.1, 0.9), GaussianFamily),
])
def test_scratch_kernels_match_the_allocating_ones_bitwise(kernel, reference,
                                                           params, family):
    """Each row of u holds every SCRATCH_U value against one (r, 1) v: the
    kernel returns the allocating kernel's bits with `out=None` and in a
    NaN-filled scratch set, where its results are the first two arrays."""
    v = np.array(SCRATCH_V)[:, None]
    u = np.tile(SCRATCH_U, (v.shape[0], 1))
    for param in params:
        want = reference(u, v, param)
        for out in (None, nan_scratch(u.shape, v.shape,
                                      family.scratch_blocks)):
            got = kernel(u, v, param, out=out)
            if out is not None:
                assert got[0] is out.block[0] and got[1] is out.block[1]
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert g.tobytes() == np.ascontiguousarray(w).tobytes(), param


class TestGaussian:
    def test_independence_exact(self):
        u, v = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 7))
        assert np.all(gaussian(u, v, 0.0)[0] == 1.0)

    def test_partial_at_independence(self):
        assert_allclose(gaussian(0.37, 0.8, 0.0)[1], 0.37, rtol=1e-12)

    def test_partial_matches_density_derivative(self):
        u, v, rho = 0.6, 0.2, 0.7
        h = 1e-6
        numeric = (gaussian(u + h, v, rho)[1] - gaussian(u - h, v, rho)[1]) / (2 * h)
        assert_allclose(numeric, gaussian(u, v, rho)[0], rtol=1e-4)

    def test_marginal_uniformity(self):
        mass, _ = quad(lambda u: gaussian(u, 0.4, 0.6)[0], 0, 1, limit=200)
        assert_allclose(mass, 1.0, atol=1e-6)

    def test_rho_out_of_range(self):
        with pytest.raises(ConfigurationError):
            gaussian(0.5, 0.5, 1.0)

    def test_partial_endpoints(self):
        assert gaussian(0.0, 0.4, 0.7)[1] == 0.0
        assert gaussian(1.0, 0.4, 0.7)[1] == 1.0

    @given(probs, probs, st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, u, v, rho):
        assert_allclose(gaussian(u, v, rho)[0], gaussian(v, u, rho)[0],
                        rtol=1e-10)


@pytest.mark.parametrize("v", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize(
    "kernel",
    [lambda u, v: clayton(u, v, 0.9), lambda u, v: gaussian(u, v, 0.55)],
    ids=["clayton", "gaussian"],
)
def test_uniform_marginals_at_fixed_v(kernel, v):
    mass, _ = quad(lambda u: kernel(u, v)[0], 0, 1, limit=200)
    assert_allclose(mass, 1.0, atol=1e-5)


@pytest.mark.parametrize(
    "kernel",
    [lambda u, v: clayton(u, v, 1.4), lambda u, v: gaussian(u, v, 0.45)],
    ids=["clayton", "gaussian"],
)
def test_density_partial_consistency_grid(kernel):
    h = 1e-6
    for u in (0.2, 0.5, 0.8):
        for v in (0.15, 0.5, 0.85):
            numeric = (kernel(u + h, v)[1] - kernel(u - h, v)[1]) / (2 * h)
            assert_allclose(numeric, kernel(u, v)[0], rtol=1e-4)


class TestAlphaSchedule:
    def test_first_values(self):
        assert alpha_schedule(1) == 0.5
        assert alpha_schedule(2) == 0.5

    def test_asymptotics(self):
        i = 10**6
        assert 1.9999 <= i * alpha_schedule(i) <= 2.0001

    def test_decreasing_from_two(self):
        idx = np.arange(2, 500)
        assert np.all(np.diff(alpha_schedule(idx)) < 0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            alpha_schedule(0)


class TestAlphaRegression:
    def test_empty_covariates_passthrough(self):
        assert alpha_regression(0.37, np.empty(0), np.empty(0), 0.8) == 0.37

    def test_rho_zero_passthrough(self):
        assert alpha_regression(0.37, np.array([1.2]), np.array([-0.5]), 0.0) == 0.37

    def test_matches_direct_bivariate_normal_density(self):
        # oracle: K = N2(0, 0; rho) / {N(0) N(1)} evaluated directly
        rho = 0.8
        z = np.zeros(2)
        k = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).pdf(z)
        k /= norm.pdf(0.0) ** 2
        expected = 0.5 * k / (0.5 + 0.5 * k)
        got = alpha_regression(0.5, np.array([0.0]), np.array([0.0]), rho)
        assert_allclose(got, expected, rtol=1e-9)
        assert_allclose(got, 0.625, rtol=1e-12)  # K = 1/sqrt(1-0.64) = 5/3

    def test_row_matrix_gives_vector(self):
        out = alpha_regression(0.4, np.array([0.1, -0.2]),
                               np.array([[0.1, -0.2], [1.0, 1.0]]), 0.5)
        assert out.shape == (2,)
        assert np.all((out > 0) & (out < 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            alpha_regression(0.5, np.array([1.0]), np.array([[1.0, 2.0]]), 0.5)

    @given(st.floats(0.01, 0.99), st.floats(-3, 3), st.floats(-3, 3),
           st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_stays_in_unit_interval(self, alpha, x, xp, rho_x):
        out = alpha_regression(alpha, np.array([x]), np.array([xp]), rho_x)
        assert 0.0 < out < 1.0


# The base measures' formulas written out operation by operation (the
# Lomax one with its log1p twice): `lomax` and the families' `base_at`
# must reproduce their bits.
def reference_lomax(y, a, b):
    y = np.asarray(y, dtype=float)
    pdf = (a / b) * np.exp(-(a + 1.0) * np.log1p(y / b))
    return pdf, -np.expm1(-a * np.log1p(y / b))


def reference_lognormal(y, rho):
    y = np.asarray(y, dtype=float)
    s = 1.0 / np.sqrt(1.0 - rho)
    cdf = ndtr(np.where(y > 0, np.log(np.maximum(y, 1e-300)) / s, -np.inf))
    pdf = np.zeros(y.shape)
    pos = y > 0
    z = np.log(y[pos]) / s
    pdf[pos] = np.exp(-0.5 * z * z) / (y[pos] * s * np.sqrt(2.0 * np.pi))
    return pdf, cdf


def test_base_measures_match_the_reference_bit_for_bit():
    # Lomax(a, 1) with the Clayton kernel, log-normal(0, 1/(1-rho)) with
    # the Gaussian one, Lomax(a, b) per particle for the conjugate model
    rng = np.random.default_rng(3)
    ends = [0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e300]
    y = np.concatenate([ends, rng.exponential(2.0, 2000 - len(ends))])

    def same(got, want):
        return all(np.array_equal(g, w) for g, w in zip(got, want))

    for a in np.linspace(0.02, 5.0, 50):
        assert same(ClaytonFamily(a).base_at(y), reference_lomax(y, a, 1.0))
    for rho in np.linspace(0.02, 0.98, 50):
        assert same(GaussianFamily(rho).base_at(y),
                    reference_lognormal(y, rho))
    a = rng.uniform(0.02, 5.0, y.size)
    b = rng.uniform(0.1, 50.0, y.size)
    assert same(lomax(y, a, b), reference_lomax(y, a, b))
    for t in (0.0, 5e-324, 0.3, 1e300):
        assert same(lomax(t, a, b), reference_lomax(t, a, b))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_table(kind):
    cls = FAMILIES[kind]
    assert cls.kind == kind
    for bandwidth in (cls.default_bandwidth, *cls.tuning_grid):
        assert make_family(kind, bandwidth).bandwidth == bandwidth
    grid = log_grid(5.0, 50, cls.grid_from_zero)
    pdf, cdf = cls(cls.default_bandwidth).base_at(grid.points)
    assert np.all(np.isfinite(pdf) & (pdf >= 0))
    assert np.all((cdf >= 0) & (cdf <= 1))


def test_cli_family_bound_is_the_table():
    family_opts = [opt for opts in cli.SUBCOMMANDS.values() for opt in opts
                   if opt.name == "family"]
    assert family_opts
    for opt in family_opts:
        in_range, _ = opt.bounds
        assert all(in_range(kind) for kind in FAMILIES)
        assert not any(in_range(kind) for kind in ("frank", "Clayton", ""))
    with pytest.raises(ConfigurationError):
        make_family("frank", 1.0)


def test_family_validation():
    with pytest.raises(ConfigurationError):
        ClaytonFamily(0.0)
    for bandwidth in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            ClaytonFamily(bandwidth)
    with pytest.raises(ConfigurationError):
        GaussianFamily(1.0)
