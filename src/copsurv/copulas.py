"""Bivariate copula kernels and the mixing-weight schedules.

Two families drive the sequential predictive update: the Clayton-mixture
kernel d_a / I_a on positive-support data and the Gaussian kernel
c_rho / H_rho paired with the log-normal base.  The state of the
recursion is the predictive survival S = 1 - F (see `predictive`), so
each family's kernel takes S and the propagation value v (a CDF value,
as drawn) and returns the copula density together with the complement
of its partial integral in u = 1 - S,

    1 - I(u, v) = 1 - int_0^u density(u', v) du',

which is what propagates the predictive survival.

`ClaytonFamily` and `GaussianFamily` are the only code that knows a
family: its bandwidth, kernel (`joint`), base measure (`base_at`, whose
(pdf, survival) formulas each family holds) and defaults; `FAMILIES`
maps each `kind` name to its class.  `lomax` evaluates the Clayton
family's Lomax(a, 1) base and also the conjugate model's Lomax(a_n, b_n)
predictive (`parametric`).  `joint` looks its kernel up in this module's
globals at each call, so a wrapper put there (perfbench's tracer) sees
every kernel call, with (s, v, parameter) as its positional arguments.
A call can leave the density out (`density=False`, for points whose
density nothing reads) and take the terms of v from the family's
`row_terms` (`terms=`, computed once for many blocks of s under one v);
either way 1 - I keeps its bits.

Numerics: the Clayton kernel is evaluated in log space on S.  Its u-space
form needs (1 - u)^(-1/a), which overflows for small bandwidths as
u -> 1, and 1 - u itself, which keeps only about 1e-16 absolute
precision; on S it needs S^(1/a) = exp(log S / a) <= 1, with no
cancellation, so a survival near 0 keeps its relative precision, and
that upper tail is the part survival analysis reads.  Probability
arguments are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before use (only the
lower end of S for the Clayton formulas, which are regular at S = 1),
except that 1 - I maps S = 0 and S = 1 to exactly 0 and 1 (the analytic
limits), which keeps a survival pinned at 1 on the time origin, and so a
CDF pinned at 0, through arbitrarily many updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError

__all__ = [
    "CLAMP_EPS",
    "ClaytonFamily",
    "GaussianFamily",
    "CopulaFamily",
    "KernelScratch",
    "FAMILIES",
    "DEFAULT_RHO_GRID",
    "make_family",
    "lomax",
    "clayton_density_and_partial",
    "gaussian_density_and_partial",
    "alpha_schedule",
    "alpha_regression",
]

# Single global clamping constant so density and partial stay consistent.
CLAMP_EPS = 1e-10

# Standard search grid for a correlation: the Gaussian kernel's rho and
# the covariate kernel's rho_x, 0.1..0.9 step 0.1.
DEFAULT_RHO_GRID = tuple(np.round(np.arange(0.1, 0.91, 0.1), 10))

# Block-shaped scratch arrays of a kernel call (`KernelScratch.block`):
# each kernel's two results and one work array.
SCRATCH_BLOCKS = 3
# exp(-CLAYTON_LOG_FLOOR) is a normal float64, far from underflow; see
# `clayton_density_and_partial`.
CLAYTON_LOG_FLOOR = 600.0
# The Clayton density's exponent reaches -(a+1) log(CLAMP_EPS) / a, which
# stays below log of float32's largest value only above this bandwidth
# (about 0.3505): 87.0 at a = 0.36, 90.7 at 0.34.  `ClaytonFamily` runs
# its forward pass in float32 only above it.
CLAYTON_FLOAT32_MIN_BANDWIDTH = -math.log(CLAMP_EPS) / (
    math.log(np.finfo(np.float32).max) + math.log(CLAMP_EPS))


def _times(y):
    """y as a float array, after checking that no time is negative."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("time values must be nonnegative")
    return y


def lomax(y, a, b):
    """(pdf, survival) of Lomax(a, b), density (a/b) (1 + y/b)^-(a+1) and
    survival (1 + y/b)^-a, at times y >= 0; y < 0 raises ValueError.  a
    and b may be arrays that broadcast against y."""
    log1p_y = np.log1p(_times(y) / b)
    return (a / b) * np.exp(-(a + 1.0) * log1p_y), np.exp(-a * log1p_y)


@dataclass(frozen=True)
class ClaytonFamily:
    """Clayton-mixture kernel with the Lomax(a, 1) base; smaller
    bandwidth = sharper updates.

    Any positive finite bandwidth is accepted; below about 0.038 the
    kernel's S^(1/a) and (1-v)^(1/a) terms can leave float64's range,
    and it shifts the rows that need it (`_clayton_row_terms`).  The
    forward pass runs in float32 above CLAYTON_FLOAT32_MIN_BANDWIDTH,
    where no exponent of the kernel leaves float32's range, and in
    float64 below it (`forward_dtype`).
    """

    bandwidth: float  # a > 0

    kind = "clayton"
    default_bandwidth = 1.0
    tuning_grid = tuple(np.round(np.arange(0.5, 1.51, 0.1), 10))
    grid_from_zero = True

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise ConfigurationError(
                f"bandwidth must be positive and finite, got {self.bandwidth}")

    @property
    def forward_dtype(self):
        """The dtype of the forward pass's rows (`resampling`)."""
        return (np.float32 if self.bandwidth > CLAYTON_FLOAT32_MIN_BANDWIDTH
                else np.float64)

    def joint(self, s, v, out=None, density=True, terms=None):
        """(density, 1 - partial) of the kernel at survival s, for the
        update recursion, in the `KernelScratch` set `out` (a new one
        when None); the density is None when not `density`.  `terms` are
        v's `row_terms`, computed here when None."""
        return clayton_density_and_partial(s, v, self.bandwidth, out=out,
                                           density=density, terms=terms)

    def row_terms(self, v, out):
        """The kernel's terms of v (`_clayton_row_terms`), in the `small`
        arrays of the `KernelScratch` set `out` and the dtype of its block
        arrays: one computation serves every block of a record."""
        return _clayton_row_terms(v, float(self.bandwidth),
                                  out.block[0].dtype, *out.small)

    def base_at(self, y):
        """(pdf, survival) of the base measure at times y."""
        return lomax(y, self.bandwidth, 1.0)


@dataclass(frozen=True)
class GaussianFamily:
    """Gaussian kernel with the log-normal(0, 1/(1-rho)) base; larger
    rho = sharper updates."""

    bandwidth: float  # the correlation rho, in (0, 1)

    kind = "gaussian"
    default_bandwidth = 0.5
    tuning_grid = DEFAULT_RHO_GRID
    grid_from_zero = False
    # scipy's ndtri and ndtr compute in double whatever their input, so a
    # float32 state would save the kernel nothing
    forward_dtype = np.float64

    def __post_init__(self):
        if not 0.0 < self.bandwidth < 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1), got {self.bandwidth}")

    def joint(self, s, v, out=None, density=True, terms=None):
        """(density, 1 - partial) of the kernel at survival s, for the
        update recursion, in the `KernelScratch` set `out` (a new one
        when None); the density is None when not `density`.  `terms` are
        v's `row_terms`, computed here when None."""
        return gaussian_density_and_partial(s, v, self.bandwidth, out=out,
                                            density=density, terms=terms)

    def row_terms(self, v, out):
        """The kernel's term of v, -Phi^-1 of v clamped, in the first of
        the `small` arrays of the `KernelScratch` set `out`: one
        computation serves every block of a record."""
        return _gaussian_row_terms(v, out.small[0])

    def base_at(self, y):
        """(pdf, survival) of the base measure at times y >= 0, log-normal
        with log-scale sd s = 1/sqrt(1 - rho): the survival is ndtr(-z),
        z = log(y) / s, exactly 1 at y = 0.  The pdf takes its continuous
        limit 0 at y = 0, so evaluation grids may start at the origin;
        y < 0 raises ValueError."""
        y = _times(y)
        s = 1.0 / np.sqrt(1.0 - self.bandwidth)
        surv = ndtr(np.where(y > 0, -np.log(np.maximum(y, 1e-300)) / s,
                             np.inf))
        pdf = np.zeros(y.shape)
        pos = y > 0
        z = np.log(y[pos]) / s
        pdf[pos] = np.exp(-0.5 * z * z) / (y[pos] * s * np.sqrt(2.0 * np.pi))
        return pdf, surv


CopulaFamily = ClaytonFamily | GaussianFamily


def _clamp(p, out):
    return np.clip(np.asarray(p, dtype=float), CLAMP_EPS, 1.0 - CLAMP_EPS,
                   out=out)


class KernelScratch(NamedTuple):
    """The work arrays of one kernel call, which also hold its results:
    `block`, SCRATCH_BLOCKS arrays of the broadcast shape of (s, v), the
    same set for both kernels, in the dtype the kernel computes in (that
    of s); `small`, three float64 arrays of v's shape; `mask`, a bool
    array of the broadcast shape.

    `flat` makes one-dimensional arrays that a caller keeps across calls
    (`predictive.RunningPredictive` holds one set), and `view` gives a
    call its arrays as C-contiguous views of their leading elements.
    """

    block: tuple
    small: tuple
    mask: np.ndarray

    @classmethod
    def flat(cls, size: int, v_size: int,
             dtype=np.float64) -> "KernelScratch":
        """A set for calls of up to `size` elements of `dtype`, with v of
        up to `v_size`."""
        return cls(tuple(np.empty(size, dtype)
                         for _ in range(SCRATCH_BLOCKS)),
                   tuple(np.empty(v_size) for _ in range(3)),
                   np.empty(size, dtype=bool))

    def view(self, shape, v_shape) -> "KernelScratch":
        """The set for one call: `block` and `mask` of `shape`, `small`
        of `v_shape`."""
        n, m = math.prod(shape), math.prod(v_shape)
        return KernelScratch(tuple(a[:n].reshape(shape) for a in self.block),
                             tuple(a[:m].reshape(v_shape) for a in self.small),
                             self.mask[:n].reshape(shape))


def _scratch_for(s, v, out):
    """`out`, or a new scratch set of the shapes of a call on (s, v), in
    s's dtype (float64 unless s is float32)."""
    if out is None:
        shape = np.broadcast_shapes(np.shape(s), np.shape(v))
        dtype = np.promote_types(np.asarray(s).dtype, np.float32)
        out = KernelScratch.flat(math.prod(shape), np.size(v), dtype).view(
            shape, np.shape(v))
    return out


def _pin_ends(tail, s, mask):
    """Set a partial's complement 1 - I to its analytic limits, 0 at
    s <= 0 and 1 at s >= 1, through the bool scratch `mask`."""
    np.less_equal(s, 0.0, out=mask)
    np.copyto(tail, 0.0, where=mask)
    np.greater_equal(s, 1.0, out=mask)
    np.copyto(tail, 1.0, where=mask)


def _gaussian_log_density_z(zu, zv, rho: float, out=None, work=None):
    """log c_rho as a function of the normal scores,

        -log(1 - rho^2)/2 - (rho^2 (zu^2 + zv^2) - 2 rho zu zv) / (2 (1 - rho^2)),

    written into `out`, of the broadcast shape of zu and zv; `work` is a
    scratch pair of zv's shape and of the broadcast shape.  Either is
    allocated when None.  The steps are those of the formula, reordered
    only by commutation, so the bits are the same.
    """
    shape = np.broadcast_shapes(np.shape(zu), np.shape(zv))
    if out is None:
        out = np.empty(shape)
    if work is None:
        work = np.empty(np.shape(zv)), np.empty(shape)
    zv2, cross = work
    r2 = rho * rho
    np.multiply(zu, zu, out=out)
    np.multiply(zv, zv, out=zv2)
    out += zv2
    out *= r2
    np.multiply(zu, 2.0 * rho, out=cross)
    cross *= zv
    out -= cross
    out /= 2.0 * (1.0 - r2)
    np.subtract(-0.5 * np.log1p(-r2), out, out=out)
    return out


def _check_rho(rho: float):
    if not 0.0 <= rho < 1.0:
        raise ConfigurationError(f"rho must lie in [0, 1), got {rho}")


def _gaussian_row_terms(v, zn):
    """The Gaussian kernel's term of v, zn = -Phi^-1(v) with v clamped to
    [CLAMP_EPS, 1 - CLAMP_EPS], computed in the float64 array zn."""
    ndtri(_clamp(v, zn), out=zn)
    return np.negative(zn, out=zn)


def _clayton_row_terms(v, a: float, dtype, q, one_minus_q, factor):
    """The Clayton kernel's terms of v at v's shape, in `dtype`: q =
    (1 - v)^(1/a) (v clipped to [0, 1 - CLAMP_EPS]), 1 - q and the
    density's factor ((a+1)/a) q.  Returns the row shift m, or None when
    the bandwidth lets no row need one, and the three terms.

    The terms are computed in float64 in the scratch arrays q,
    one_minus_q and factor, then rounded to `dtype` (a float32 v would
    round 1 - CLAMP_EPS to 1); without a shift, 1 - q is formed in
    `dtype` from the rounded q, so q + (1 - q) == 1 holds there too.  In
    float64 the scratch arrays are the terms.

    A row whose log q = log(1 - v)/a falls below -CLAYTON_LOG_FLOOR is
    shifted by m = log q + CLAYTON_LOG_FLOOR (m = 0 in the other rows),
    so t never underflows: the kernel carries q e^-m, t e^-m and
    min(e^(L-m), e^700) in place of q, t and e^L, and the factor becomes
    ((a+1)/a) q e^(-(a+1) m).  The cap acts only where e^L (1 - q)
    exceeds q by far more than float64 resolves; the kernel then pins
    1 - I to 1 at s >= 1, which a shifted row no longer gives exactly.
    """
    np.clip(v, 0.0, 1.0 - CLAMP_EPS, out=q)
    np.subtract(1.0, q, out=q)
    np.log(q, out=q)
    q /= a
    shift = None
    if a * CLAYTON_LOG_FLOOR >= -math.log(CLAMP_EPS):
        np.exp(q, out=q)
        np.multiply(q, (a + 1.0) / a, out=factor)
        q = q.astype(dtype, copy=False)
        np.subtract(1.0, q, out=one_minus_q)
    else:
        shift = np.minimum(q + CLAYTON_LOG_FLOOR, 0.0)
        np.exp(q, out=one_minus_q)
        np.subtract(1.0, one_minus_q, out=one_minus_q)
        q -= shift
        np.exp(q, out=q)
        np.exp(-a * shift, out=factor)
        factor *= q
        factor *= (a + 1.0) / a
    return shift, tuple(term.astype(dtype, copy=False)
                        for term in (q, one_minus_q, factor))


def clayton_density_and_partial(s, v, a: float, out=None, density=True,
                                terms=None):
    """(d_a, 1 - I_a) at survival s = 1 - u and propagation value v.

    With L = log(max(s, CLAMP_EPS)) / a, q = (1 - v)^(1/a) (v clipped to
    [0, 1 - CLAMP_EPS]) and t = q + e^L (1 - q),

        1 - I_a = exp((a+1) (L - log t)),
        d_a     = ((a+1)/a) q exp(L - (a+2) log t).

    q + (1 - q) == 1 holds exactly in the dtype the kernel computes in,
    so s = 1 (the time origin) gives 1 - I_a = 1 and d_a = ((a+1)/a) q
    exactly, and a survival of 1 stays 1 through any number of updates;
    s <= 0 gives 1 - I_a = 0.

    Range: e^L and q both lie in [CLAMP_EPS^(1/a), 1], and t >= q.  Only
    a bandwidth below -log(CLAMP_EPS) / CLAYTON_LOG_FLOOR (about 0.038)
    lets q fall below exp(-CLAYTON_LOG_FLOOR), where t could underflow;
    `_clayton_row_terms` then shifts those rows.  log t >= L, so the
    density's exponent is at most -(a+1) L <= -(a+1) log(CLAMP_EPS) / a:
    float32 holds it above CLAYTON_FLOAT32_MIN_BANDWIDTH.

    The kernel computes in the dtype of its scratch set's block arrays:
    `out`, or a new set in s's dtype when None.  Its scalars are Python
    floats, which take that dtype (NEP 50), and the terms of v are
    computed in float64 at v's shape and then rounded to it.  The kernel
    is bound by array passes and by its fixed cost per call (numpy
    dispatch, about 2 us a ufunc call and 30 us a kernel call on one
    CPU), not by its transcendentals, so it makes few calls and runs
    every step in place in that set.  The two results are its first two
    block arrays.

    Called with `density` false, it computes 1 - I_a alone, in the same
    bits, and returns None for the density: points whose density
    nothing reads skip the density's four passes.  `terms` are v's terms as
    `_clayton_row_terms` returns them for this bandwidth and the set's
    dtype (`ClaytonFamily.row_terms`), so that a caller with many blocks
    of s under one v computes them once; when None they are computed
    here, in the set's `small` arrays.
    """
    if not a > 0:
        raise ConfigurationError(f"bandwidth must be positive, got {a}")
    a = float(a)
    out = _scratch_for(s, v, out)
    dens, tail, log_r = out.block
    if terms is None:
        terms = _clayton_row_terms(v, a, dens.dtype, *out.small)
    shift, (q, one_minus_q, factor) = terms
    np.maximum(s, CLAMP_EPS, out=log_r)
    np.log(log_r, out=log_r)
    log_r /= a
    if shift is not None:
        log_r -= shift
        np.minimum(log_r, 700.0, out=log_r)
    # log t into `tail`
    np.exp(log_r, out=tail)
    tail *= one_minus_q
    tail += q
    np.log(tail, out=tail)
    if density:
        np.multiply(tail, a + 2.0, out=dens)
        np.subtract(log_r, dens, out=dens)
        np.exp(dens, out=dens)
        dens *= factor
    else:
        dens = None
    # log t >= L, so the exponent is <= 0 and 1 - I_a in [0, 1].
    np.subtract(log_r, tail, out=tail)
    tail *= a + 1.0
    np.exp(tail, out=tail)
    if shift is None:  # s = 1 gives 1 - I_a = 1 exactly (see above)
        np.less_equal(s, 0.0, out=out.mask)
        np.copyto(tail, 0.0, where=out.mask)
    else:
        _pin_ends(tail, s, out.mask)
    return dens, tail


def gaussian_density_and_partial(s, v, rho: float, out=None, density=True,
                                 terms=None):
    """(c_rho, 1 - H_rho) at survival s = 1 - u and propagation value v,
    from one pair of normal scores.

    Phi^-1(u) = -Phi^-1(s), and c_rho is even in the pair of scores, so
    with zs = Phi^-1(s) and zn = -Phi^-1(v),

        1 - H_rho = Phi({zs - rho zn} / sqrt(1 - rho^2)),

    the u-space formula of H_rho on (zs, zn).  rho = 0 gives the
    independence copula (density exactly 1).  Probabilities are clamped
    to [CLAMP_EPS, 1 - CLAMP_EPS], and 1 - H_rho is pinned to 0 at s <= 0
    and to 1 at s >= 1.  Runs in place in a `KernelScratch` set like
    `clayton_density_and_partial`, and takes its `density` and `terms`
    (here zn, `GaussianFamily.row_terms`) the same way: without the
    density it skips the log-density and its exp.
    """
    _check_rho(rho)
    out = _scratch_for(s, v, out)
    dens, tail, zs = out.block
    work = out.small[1]
    zn = _gaussian_row_terms(v, out.small[0]) if terms is None else terms
    ndtri(_clamp(s, zs), out=zs)
    if density:
        _gaussian_log_density_z(zs, zn, rho, dens, (work, tail))
        np.exp(dens, out=dens)
    else:
        dens = None
    np.multiply(zn, rho, out=work)
    np.subtract(zs, work, out=tail)
    tail /= np.sqrt(1.0 - rho * rho)
    ndtr(tail, out=tail)
    _pin_ends(tail, s, out.mask)
    return dens, tail


# ---------------------------------------------------------------------------
# Mixing-weight schedules
# ---------------------------------------------------------------------------

def alpha_schedule(i):
    """Update weight for the i-th absorbed observation: (2 - 1/i) / (i + 1).

    O(1/i), which drives the update toward the independence copula and
    gives a consistent estimator.
    """
    i = np.asarray(i, dtype=float)
    if np.any(i < 1):
        raise ValueError("observation index starts at 1")
    return (2.0 - 1.0 / i) / (i + 1.0)


def alpha_regression(alpha_i, x, x_prime, rho_x: float):
    """Covariate-weighted update weight alpha_i(x, x').

    K is the product over covariate dimensions of the Gaussian copula
    density at (Phi(x_j), Phi(x'_j)); the normal scores are then the raw
    (pre-standardized) covariates themselves, so K is computed from them
    directly.  Returns alpha_i K / (1 - alpha_i + alpha_i K), in (0, 1)
    whenever alpha_i is.  rho_x = 0 returns alpha_i unchanged.

    The last axis of `x` and `x_prime` is the covariate dimension; leading
    axes stack row vectors and broadcast against each other and against
    `alpha_i`, giving one weight per pair.  Two single vectors give a
    float.
    """
    _check_rho(rho_x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(x_prime, dtype=float))
    if x.shape[-1] != xp.shape[-1]:
        raise ValueError(
            f"covariate dimension mismatch: {x.shape[-1]} vs {xp.shape[-1]}"
        )
    if x.shape[-1] == 0 or rho_x == 0.0:
        # K = 1: the weight is unchanged (independence limit).
        shape = np.broadcast_shapes(np.shape(alpha_i), x.shape[:-1],
                                    xp.shape[:-1])
        out = np.full(shape, alpha_i, dtype=float)
    else:
        k = np.exp(_gaussian_log_density_z(x, xp, rho_x).sum(axis=-1))
        out = alpha_i * k / (1.0 - alpha_i + alpha_i * k)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Family table
# ---------------------------------------------------------------------------

FAMILIES = {cls.kind: cls for cls in (ClaytonFamily, GaussianFamily)}


def make_family(kind: str, bandwidth: float) -> CopulaFamily:
    """The family named `kind`, a key of FAMILIES, at `bandwidth`: a for
    the Clayton kernel and rho for the Gaussian one."""
    if kind not in FAMILIES:
        raise ConfigurationError(f"unknown copula family {kind!r}")
    return FAMILIES[kind](bandwidth)
