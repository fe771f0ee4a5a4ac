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
    CLAYTON_FLOAT32_MIN_BANDWIDTH,
    CLAYTON_LOG_FLOOR,
    FAMILIES,
    ClaytonFamily,
    GaussianFamily,
    KernelScratch,
    alpha_regression,
    alpha_schedule,
    lomax,
    make_family,
)
from copsurv.copulas import clayton_density_and_partial as clayton
from copsurv.copulas import gaussian_density_and_partial as gaussian
from copsurv.errors import ConfigurationError
from copsurv.resampling import log_grid

probs = st.floats(0.01, 0.99)
bandwidths = st.floats(0.2, 3.0)

# The kernels take the survival s = 1 - u and return (density, 1 - I).

# ---------------------------------------------------------------------------
# The u-space kernels, the reference: they took the CDF value u and
# returned (density, I), with these helpers, as written before the state
# of the recursion became the survival (argument checks and most
# docstrings left out).
# ---------------------------------------------------------------------------

def clamp_upper(u):
    # Clayton formulas are regular at u = 0, so only the upper end needs
    # protection; negative inputs are treated as the origin.
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0 - CLAMP_EPS)


def clamp(u):
    return np.clip(np.asarray(u, dtype=float), CLAMP_EPS, 1.0 - CLAMP_EPS)


def clayton_g(p, a: float):
    """-log(1-p)/a of the upper-clamped p."""
    return -np.log1p(-clamp_upper(p)) / a


def log_clayton_s(gu, gv):
    """log{(1-u)^(-1/a) + (1-v)^(-1/a) - 1} from the g = -log(1-u)/a
    terms, shifted by m = max(gu, gv): one of exp(gu - m) and
    exp(gv - m) is 1 and the other exp(-|gu - gv|)."""
    m = np.maximum(gu, gv)
    return m + np.log(1.0 + np.exp(-np.abs(gu - gv)) - np.exp(-m))


def u_clayton(u, v, a: float):
    """(d_a(u, v), I_a(u, v)), and the complement 1 - I_a from the same
    exponent, exp((a+1)(gv - log s)), which keeps its relative precision
    where I_a is near 1."""
    u = np.asarray(u, dtype=float)
    gu, gv = clayton_g(u, a), clayton_g(v, a)
    log_s = log_clayton_s(gu, gv)
    density = ((a + 1.0) / a) * np.exp((a + 1.0) * (gu + gv)
                                       - (a + 2.0) * log_s)
    exponent = (a + 1.0) * (gv - log_s)
    partial = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0,
                                               -np.expm1(exponent)))
    tail = np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0,
                                            np.exp(exponent)))
    return density, partial, tail


def u_gaussian(u, v, rho: float):
    """(c_rho(u, v), H_rho(u, v)) and the complement 1 - H_rho =
    Phi(-x) of H_rho = Phi(x)."""
    u = np.asarray(u, dtype=float)
    zu, zv = ndtri(clamp(u)), ndtri(clamp(v))
    r2 = rho * rho
    density = np.exp(-0.5 * np.log1p(-r2) - (r2 * (zu * zu + zv * zv)
                                             - 2.0 * rho * zu * zv)
                     / (2.0 * (1.0 - r2)))
    x = (zu - rho * zv) / np.sqrt(1.0 - rho * rho)
    partial = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, ndtr(x)))
    tail = np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0, ndtr(-x)))
    return density, partial, tail


# ---------------------------------------------------------------------------
# Equivalence gates: the survival kernels against the u-space ones
# ---------------------------------------------------------------------------

# The smallest survival whose complement u = 1 - s is exact and still
# inside the u-space clamp: both kernels clamp from here on, the u-space
# one at u = 1 - CLAMP_EPS (rounded), the survival one at s = CLAMP_EPS.
EPS_PAIR = 1.0 - (1.0 - CLAMP_EPS)
# CDF values at the exact ends, the clamp edges (on either side), one
# half, and values with no exact complement (dropped by `pairs`).
EDGE_PROBS = [0.0, 1.0, EPS_PAIR, 1.0 - EPS_PAIR, CLAMP_EPS,
              1.0 - CLAMP_EPS, 1.0 - 2 * CLAMP_EPS, 0.5, 1e-17, 5e-324]
kernel_probs = st.one_of(
    st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0),
    st.floats(-10.0, -1e-3).map(lambda e: 10.0 ** e),
    st.floats(-10.0, -1e-3).map(lambda e: 1.0 - 10.0 ** e))
# down to 0.02, and below the bandwidth where rows are shifted
kernel_bandwidths = st.one_of(
    st.floats(0.02, -math.log(CLAMP_EPS) / CLAYTON_LOG_FLOOR),
    st.floats(0.02, 5.0))
FLOAT_EPS = np.finfo(float).eps


def pairs(us):
    """(u, s) for the CDF values `us` whose survival s = 1 - u has u as
    its exact complement, 1 - s == u: both kernels then see one point."""
    u = np.asarray(us, dtype=float)
    s = 1.0 - u
    keep = 1.0 - s == u
    return u[keep], s[keep]


def conditioning(s, v, a):
    """The relative float64 error both Clayton kernels carry through
    their exponents, about eps (a+2)(1 + (|log s| + |log(1 - v)|)/a).
    Against 50-digit mpmath, either kernel errs in F by up to 4e-15 at
    a = 5 and 1e-13 at a = 0.02, so a flat 1e-15 would fail the u-space
    kernel itself."""
    log_s = np.abs(np.log(np.maximum(s, CLAMP_EPS)))
    log_q = np.abs(np.log1p(-np.clip(v, 0.0, 1.0 - CLAMP_EPS)))
    return 4.0 * FLOAT_EPS * (a + 2.0) * (1.0 + (log_s + log_q) / a)


def assert_equivalent(u, s, v, family, param):
    """On exact complement pairs, the survival kernel equals the u-space
    one: 1e-12 relative on the density and on 1 - I, 1e-15 absolute on
    the CDF 1 - (1 - I), each widened for Clayton by `conditioning`.
    Inside the clamp range only; at s = 0 and s = 1, 1 - I is exact."""
    kernel, reference = ((clayton, u_clayton) if family == "clayton"
                         else (gaussian, u_gaussian))
    density, tail = kernel(s, v, param)
    ref_density, ref_partial, ref_tail = reference(u, v, param)
    shape = np.broadcast_shapes(np.shape(s), np.shape(v))
    assert np.shape(density) == np.shape(tail) == shape
    s_b = np.broadcast_to(s, shape)
    ends = (s_b <= 0.0) | (s_b >= 1.0)
    assert np.array_equal(tail[ends], ref_tail[ends])
    assert np.all(1.0 - tail[ends] == ref_partial[ends])
    top = 1.0 if family == "clayton" else 1.0 - EPS_PAIR
    inside = (s_b >= EPS_PAIR) & (s_b <= top)
    widen = (conditioning(s_b, np.broadcast_to(v, shape), param)
             if family == "clayton" else 0.0)
    widen = np.broadcast_to(widen, shape)[inside]
    d, d_ref = density[inside], ref_density[inside]
    normal = np.abs(d_ref) > 1e-290  # below, relative error is moot
    assert np.all(np.abs(d - d_ref)[normal]
                  <= (1e-12 + widen[normal]) * d_ref[normal])
    assert np.all(np.abs(d - d_ref)[~normal] <= 1e-290)
    t, t_ref = tail[inside], ref_tail[inside]
    assert np.all(np.abs(t - t_ref) <= (1e-12 + widen) * t_ref + 1e-300)
    assert np.all(np.abs((1.0 - t) - ref_partial[inside])
                  <= 1e-15 + widen * t_ref)


class TestKernelsMatchTheUSpaceKernels:
    """The three layouts the recursion calls the kernels with: scalars
    (the prequential score), a (G,) grid row against a (rows, 1) column
    of propagation values (the start rows, the forward pass) and
    (rows, B) running values against a (B,) row."""

    @given(st.data(), st.sampled_from(["clayton", "gaussian"]),
           st.sampled_from(["scalar", "grid_vs_rows", "rows_vs_particles"]))
    @settings(max_examples=400, deadline=None)
    def test_within_bounds(self, data, family, layout):
        param = (data.draw(kernel_bandwidths) if family == "clayton"
                 else data.draw(st.floats(1e-6, 1.0 - 1e-6)))
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 9))

        def draw(n):
            cells = data.draw(st.lists(kernel_probs, min_size=n, max_size=n))
            return np.array(cells, dtype=float)

        if layout == "scalar":
            u, s = pairs([data.draw(kernel_probs)])
            if u.size == 0:
                return
            u, s, v = u[0], s[0], data.draw(kernel_probs)
        elif layout == "grid_vs_rows":
            u, s = pairs(draw(cols))
            v = draw(rows)[:, None]
        else:
            # the pairs kept, as whole rows of `cols`
            u, s = pairs(draw(rows * cols))
            keep = u.size - u.size % cols
            u, s = u[:keep].reshape(-1, cols), s[:keep].reshape(-1, cols)
            v = draw(cols)
        assert_equivalent(u, s, v, family, param)

    @pytest.mark.parametrize("a", [0.02, 0.03, 0.05, 0.09, 0.5, 1.0, 5.0])
    def test_clayton_every_edge_pair(self, a):
        u, s = pairs(EDGE_PROBS)
        v = np.array(EDGE_PROBS)
        assert_equivalent(u, s, v[:, None], "clayton", a)
        assert_equivalent(u[:, None], s[:, None], v, "clayton", a)

    @pytest.mark.parametrize("rho", [1e-6, 0.1, 0.5, 0.9, 0.999999])
    def test_gaussian_every_edge_pair(self, rho):
        u, s = pairs(EDGE_PROBS)
        v = np.array(EDGE_PROBS)
        assert_equivalent(u, s, v[:, None], "gaussian", rho)
        assert_equivalent(u[:, None], s[:, None], v, "gaussian", rho)

    @pytest.mark.parametrize("kernel, param", [
        (clayton, 0.02), (clayton, 0.9), (gaussian, 0.5)])
    def test_below_the_clamp_the_kernel_holds_its_clamp_value(self, kernel,
                                                              param):
        """Where the u-space kernel clamps u at 1 - CLAMP_EPS, the
        survival one clamps s at CLAMP_EPS (and the Gaussian one also s
        at 1 - CLAMP_EPS): a smaller survival takes the value at the
        clamp, except 1 - I = 0 at s = 0."""
        v = np.array([1e-10, 0.3, 0.9, 1.0 - 1e-9])[:, None]
        low = np.array([CLAMP_EPS, 5e-11, 1e-200, 5e-324])
        density, tail = kernel(low, v, param)
        assert np.array_equal(density, np.repeat(density[:, :1], 4, axis=1))
        assert np.array_equal(tail, np.repeat(tail[:, :1], 4, axis=1))
        zero_density, zero_tail = kernel(0.0, v, param)
        assert np.array_equal(zero_density, density[:, :1])
        assert np.all(zero_tail == 0.0)
        if kernel is gaussian:
            density, tail = kernel(np.array([1.0 - CLAMP_EPS, 1.0 - 1e-12]),
                                   v, param)
            assert np.array_equal(density[:, 0], density[:, 1])


def test_rows_past_the_log_floor_match_the_u_space_kernel():
    """At a = 0.02 a row whose log q = log(1 - v)/a falls below
    -CLAYTON_LOG_FLOOR is shifted; on either side of that v the kernel
    matches the u-space kernel, down to survivals where both q and
    s^(1/a) underflow float64."""
    a = 0.02
    v_edge = -math.expm1(-CLAYTON_LOG_FLOOR * a)
    v = np.array([np.nextafter(v_edge, 0.0), v_edge,
                  np.nextafter(v_edge, 1.0), 1.0 - 1e-9])[:, None]
    u, s = pairs(1.0 - np.geomspace(1.0, EPS_PAIR, 200))
    assert_equivalent(u, s, v, "clayton", a)
    density, tail = clayton(s, v, a)
    assert np.all(np.isfinite(density) & np.isfinite(tail))
    # the survival 1 stays exact in shifted rows too
    assert np.all(clayton(1.0, v, a)[1] == 1.0)


def test_u_space_reference_log_s_matches_the_two_exp_form():
    """The reference's shifted log s equals the two-exp form it stands
    for, within rounding."""
    us = np.concatenate([np.linspace(0.0, 1.0 - CLAMP_EPS, 41), EDGE_PROBS])
    for a in (0.05, 0.5, 1.0, 5.0):
        gu, gv = clayton_g(us, a), clayton_g(us, a)[:, None]
        m = np.maximum(gu, gv)
        two_exp = m + np.log(np.exp(gu - m) + np.exp(gv - m) - np.exp(-m))
        assert_allclose(log_clayton_s(gu, gv), two_exp, rtol=1e-15,
                        atol=1e-15)


class TestClayton:
    def test_origin_identity_exact(self):
        # the time origin, u = 0, is s = 1
        for a in (0.5, 1.0, 2.0, 3.7):
            density, tail = clayton(1.0, 0.0, a)
            assert density == (a + 1.0) / a
            assert tail == 1.0

    def test_symmetry_spot(self):
        # c(u, v) = c(v, u): at s = 1 - u and v, and at s = 1 - v and u
        assert_allclose(clayton(0.7, 0.7, 1.1)[0], clayton(0.3, 0.3, 1.1)[0],
                        rtol=1e-14)

    def test_marginal_uniformity(self):
        mass, _ = quad(lambda s: clayton(s, 0.4, 1.2)[0], 0, 1, limit=200)
        assert_allclose(mass, 1.0, atol=1e-6)

    def test_partial_endpoints_exact(self):
        assert clayton(1.0, 0.3, 0.8)[1] == 1.0
        assert clayton(0.0, 0.3, 0.8)[1] == 0.0

    def test_partial_matches_density_derivative(self):
        s, v, a = 0.5, 0.3, 0.8
        h = 1e-6
        numeric = (clayton(s + h, v, a)[1] - clayton(s - h, v, a)[1]) / (2 * h)
        assert_allclose(numeric, clayton(s, v, a)[0], rtol=1e-4)

    def test_small_bandwidth_stays_finite(self):
        density, tail = clayton(np.array([1e-9, 0.5, 1 - 1e-9]), 0.999, 0.06)
        assert np.all(np.isfinite(density))
        assert np.all(np.isfinite(tail))

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            clayton(0.5, 0.5, 0.0)

    @given(probs, probs, bandwidths)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, u, v, a):
        assert_allclose(clayton(1.0 - u, v, a)[0], clayton(1.0 - v, u, a)[0],
                        rtol=1e-12)

    @given(probs, bandwidths)
    @settings(max_examples=100, deadline=None)
    def test_partial_monotone_in_s(self, v, a):
        ss = np.linspace(0.0, 1.0, 101)
        vals = clayton(ss, v, a)[1]
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0


# s at the exact ends, the clamp edges, a subnormal-scale value and the
# float64 just below 1; v adds three interior values.
SCRATCH_S = [0.0, 1.0, CLAMP_EPS, 1.0 - CLAMP_EPS, 1e-300, 1.0 - 2.0**-53]
SCRATCH_V = SCRATCH_S + [0.3, 0.5, 0.7]


def nan_scratch(shape, v_shape):
    """Views of a scratch set larger than the call needs, every float
    pre-filled with NaN and the mask with True."""
    flat = KernelScratch.flat(2 * math.prod(shape) + 3,
                              2 * math.prod(v_shape) + 1)
    for array in flat.block + flat.small:
        array.fill(np.nan)
    flat.mask.fill(True)
    return flat.view(shape, v_shape)


@pytest.mark.parametrize("kernel, params", [
    (clayton, (0.02, 0.05, 0.9, 5.0)),
    (gaussian, (0.1, 0.9)),
])
def test_scratch_kernels_read_nothing_left_in_their_scratch(kernel, params):
    """Each row of s holds every SCRATCH_S value against one (r, 1) v: a
    call in a NaN-filled scratch set returns the bits of a call with
    `out=None`, in its first two arrays."""
    v = np.array(SCRATCH_V)[:, None]
    s = np.tile(SCRATCH_S, (v.shape[0], 1))
    for param in params:
        want = kernel(s, v, param)
        out = nan_scratch(s.shape, v.shape)
        got = kernel(s, v, param, out=out)
        assert got[0] is out.block[0] and got[1] is out.block[1]
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert not np.any(np.isnan(w))
            assert g.tobytes() == w.tobytes(), param


# s and v at the clamp edges, where the density's exponent peaks, and
# inside; a v of 1 - CLAMP_EPS rounds to 1 in float32.
FLOAT32_S = [0.0, CLAMP_EPS, 2 * CLAMP_EPS, 1e-6, 0.3, 1.0 - 1e-7, 1.0]
FLOAT32_V = [0.0, CLAMP_EPS, 0.3, 0.5, 1.0 - 1e-6, 1.0 - 2 * CLAMP_EPS,
             1.0 - CLAMP_EPS, 1.0]


class TestFloat32Clayton:
    """The kernel computes in the dtype of s (of its scratch set), with the
    terms of v taken in float64 and rounded."""

    def grid(self):
        v = np.array(FLOAT32_V)[:, None]
        return np.tile(FLOAT32_S, (v.shape[0], 1)), v

    @pytest.mark.parametrize("a", [
        np.nextafter(CLAYTON_FLOAT32_MIN_BANDWIDTH, 1.0), 0.36, 0.9, 5.0])
    def test_float32_kernel_tracks_float64_above_the_bound(self, a):
        s, v = self.grid()
        d32, tail32 = clayton(s.astype(np.float32), v, a)
        d64, tail64 = clayton(s, v, a)
        assert d32.dtype == tail32.dtype == np.float32
        assert np.all(np.isfinite(d32))
        assert_allclose(d32, d64, rtol=1e-4)
        assert_allclose(tail32, tail64, rtol=0, atol=1e-5)
        # q + (1 - q) == 1 in float32 too: the origin maps to 1 exactly
        assert np.all(tail32[:, -1] == 1.0) and np.all(tail32[:, 0] == 0.0)

    def test_a_numpy_bandwidth_keeps_float32_loops(self):
        """The tuning grid's bandwidths are numpy.float64 values, which
        are not weak scalars (NEP 50): the kernel gives the bits of a
        Python float, the loops of the array's dtype."""
        s, v = self.grid()
        a = ClaytonFamily.tuning_grid[4]
        assert isinstance(a, np.float64)
        s32 = s.astype(np.float32)
        for got, want in zip(clayton(s32, v, a), clayton(s32, v, float(a))):
            assert got.tobytes() == want.tobytes()

    def test_float32_density_overflows_below_the_bound(self):
        """At a = 0.34 the density's exponent passes float32's range at
        the clamp edges: the bound is needed, and about 1.5% above where
        overflow begins."""
        s, v = self.grid()
        with np.errstate(over="ignore", invalid="ignore"):
            d32, _ = clayton(s.astype(np.float32), v, 0.34)
        assert not np.all(np.isfinite(d32))
        assert 0.34 < CLAYTON_FLOAT32_MIN_BANDWIDTH < 0.36
        assert ClaytonFamily(0.34).pass_dtype == np.float64
        assert GaussianFamily(0.9).pass_dtype == np.float64


class TestSurvivalOnlyCalls:
    """A call without the density, or in blocks of s with v's terms
    computed once by the family's `row_terms` (as
    `RunningPredictive.absorb` makes them), gives the bits of the full
    call's 1 - I, in either dtype: the shifted Clayton rows (a = 0.02)
    and the pins at s <= 0 and s >= 1 included."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("family", [
        ClaytonFamily(0.02), ClaytonFamily(0.9), ClaytonFamily(5.0),
        GaussianFamily(0.1), GaussianFamily(0.9)])
    def test_tail_bits_of_the_full_call(self, family, dtype):
        v = np.array(SCRATCH_V)[None, :]
        s = np.repeat(np.array(SCRATCH_S + [0.3, 0.7])[:, None], v.size,
                      axis=1).astype(dtype)
        # float32 under- and overflows at a = 0.02: the bits still agree
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            density, tail = family.joint(s, v)
            alone = family.joint(s, v, density=False)
            flat = KernelScratch.flat(s.size, v.size, dtype)
            terms = family.row_terms(v, flat.view(v.shape, v.shape))
            for lo in range(0, s.shape[0], 3):
                rows = s[lo:lo + 3]
                out = flat.view(rows.shape, v.shape)
                got = family.joint(rows, v, out=out, density=False,
                                   terms=terms)
                assert got[0] is None
                assert got[1].tobytes() == tail[lo:lo + 3].tobytes()
                got = family.joint(rows, v, out=out, terms=terms)
                assert got[0].tobytes() == density[lo:lo + 3].tobytes()
                assert got[1].tobytes() == tail[lo:lo + 3].tobytes()
        assert alone[0] is None
        assert alone[1].dtype == tail.dtype == dtype
        assert alone[1].tobytes() == tail.tobytes()
        assert np.all(alone[1][s <= 0.0] == 0.0)
        assert np.all(alone[1][s >= 1.0] == 1.0)


class TestGaussian:
    def test_independence_exact(self):
        s, v = np.meshgrid(np.linspace(0.05, 0.95, 7),
                           np.linspace(0.05, 0.95, 7))
        assert np.all(gaussian(s, v, 0.0)[0] == 1.0)

    def test_partial_at_independence(self):
        assert_allclose(gaussian(0.37, 0.8, 0.0)[1], 0.37, rtol=1e-12)

    def test_partial_matches_density_derivative(self):
        s, v, rho = 0.6, 0.2, 0.7
        h = 1e-6
        numeric = (gaussian(s + h, v, rho)[1]
                   - gaussian(s - h, v, rho)[1]) / (2 * h)
        assert_allclose(numeric, gaussian(s, v, rho)[0], rtol=1e-4)

    def test_marginal_uniformity(self):
        mass, _ = quad(lambda s: gaussian(s, 0.4, 0.6)[0], 0, 1, limit=200)
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
        assert_allclose(gaussian(1.0 - u, v, rho)[0],
                        gaussian(1.0 - v, u, rho)[0], rtol=1e-10)


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


# The base measures' (pdf, survival) formulas written out operation by
# operation (the Lomax one with its log1p twice): `lomax` and the
# families' `base_at` must reproduce their bits.
def reference_lomax(y, a, b):
    y = np.asarray(y, dtype=float)
    pdf = (a / b) * np.exp(-(a + 1.0) * np.log1p(y / b))
    return pdf, np.exp(-a * np.log1p(y / b))


def reference_lognormal(y, rho):
    y = np.asarray(y, dtype=float)
    s = 1.0 / np.sqrt(1.0 - rho)
    surv = ndtr(np.where(y > 0, -np.log(np.maximum(y, 1e-300)) / s, np.inf))
    pdf = np.zeros(y.shape)
    pos = y > 0
    z = np.log(y[pos]) / s
    pdf[pos] = np.exp(-0.5 * z * z) / (y[pos] * s * np.sqrt(2.0 * np.pi))
    return pdf, surv


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
    pdf, surv = cls(cls.default_bandwidth).base_at(grid.points)
    assert np.all(np.isfinite(pdf) & (pdf >= 0))
    assert np.all((surv >= 0) & (surv <= 1))


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
