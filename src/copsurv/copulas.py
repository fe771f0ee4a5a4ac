"""Bivariate copula kernels and the mixing-weight schedules.

Two families drive the sequential predictive update: the Clayton-mixture
kernel d_a / I_a on positive-support data and the Gaussian kernel
c_rho / H_rho paired with the log-normal base.  Each family's kernel
returns the copula density together with its partial integral in u,

    I(u, v) = int_0^u density(u', v) du',

which is what propagates the predictive CDF.

`ClaytonFamily` and `GaussianFamily` are the only code that knows a
family: its bandwidth, kernel (`joint`), base measure (`base_at`) and
defaults; `FAMILIES` maps each `kind` name to its class.  `joint` looks
its kernel up in this module's globals at each call, so a wrapper put
there (perfbench's tracer) sees every kernel call.

Numerics: the Clayton kernel is evaluated in log space, since
(1 - u)^(-1/a) explodes for small bandwidths as u -> 1.  Probability
arguments are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before use, except
that the partials map exact-0 and exact-1 inputs to exactly 0 and 1 (the
analytic limits), which keeps a CDF pinned at 0 on the time origin
through arbitrarily many updates.  The Clayton formulas are regular at
u = 0, so only their upper end is clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .distributions import (
    LogNormalBaseParams,
    LomaxParams,
    lognormal_base_cdf,
    lognormal_base_pdf,
    lomax_cdf,
    lomax_pdf,
)
from .errors import ConfigurationError

__all__ = [
    "CLAMP_EPS",
    "ClaytonFamily",
    "GaussianFamily",
    "CopulaFamily",
    "FAMILIES",
    "DEFAULT_RHO_GRID",
    "make_family",
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


@dataclass(frozen=True)
class ClaytonFamily:
    """Clayton-mixture kernel with the Lomax(a, 1) base; smaller
    bandwidth = sharper updates.

    Any positive bandwidth is accepted; below roughly 0.05 the kernel's
    (1-u)^(-1/a) terms push float64 to its limits near u = 1.
    """

    bandwidth: float  # a > 0

    kind = "clayton"
    default_bandwidth = 1.0
    tuning_grid = tuple(np.round(np.arange(0.5, 1.51, 0.1), 10))
    grid_from_zero = True

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth}")

    def joint(self, u, v):
        """(density, partial) of the kernel, for the update recursion."""
        return clayton_density_and_partial(u, v, self.bandwidth)

    def base_at(self, y):
        """(pdf, cdf) of the base measure at times y."""
        base = LomaxParams(shape=self.bandwidth, scale=1.0)
        return lomax_pdf(y, base), lomax_cdf(y, base)


@dataclass(frozen=True)
class GaussianFamily:
    """Gaussian kernel with the log-normal(0, 1/(1-rho)) base; larger
    rho = sharper updates."""

    bandwidth: float  # the correlation rho, in (0, 1)

    kind = "gaussian"
    default_bandwidth = 0.5
    tuning_grid = DEFAULT_RHO_GRID
    grid_from_zero = False

    def __post_init__(self):
        if not 0.0 < self.bandwidth < 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1), got {self.bandwidth}")

    def joint(self, u, v):
        """(density, partial) of the kernel, for the update recursion."""
        return gaussian_density_and_partial(u, v, self.bandwidth)

    def base_at(self, y):
        """(pdf, cdf) of the base measure at times y >= 0.  The pdf takes
        its continuous limit 0 at y = 0, so evaluation grids may start at
        the origin; y < 0 raises ValueError."""
        base = LogNormalBaseParams(self.bandwidth)
        y = np.asarray(y, dtype=float)
        cdf = lognormal_base_cdf(y, base)
        pdf = np.zeros(y.shape)
        pos = y > 0
        pdf[pos] = lognormal_base_pdf(y[pos], base)
        return pdf, cdf


CopulaFamily = ClaytonFamily | GaussianFamily


def _clamp_upper(u):
    # Clayton formulas are regular at u = 0, so only the upper end needs
    # protection; negative inputs are treated as the origin.
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0 - CLAMP_EPS)


def _clamp(u):
    return np.clip(np.asarray(u, dtype=float), CLAMP_EPS, 1.0 - CLAMP_EPS)


def _log_clayton_s(gu, gv, out, work):
    """log{(1-u)^(-1/a) + (1-v)^(-1/a) - 1} from g = -log(1-u)/a terms,
    written into `out`; `work` is a pair of scratch arrays.  All three
    have the broadcast shape of gu and gv.

    Shifted by m = max(gu, gv): one of exp(gu - m) and exp(gv - m) is
    exp(0) = 1 and the other is exp(-|gu - gv|), bit for bit, and
    -|gu - gv| is min(gu, gv) - m, also bit for bit.
    """
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


def _gaussian_log_density_z(zu, zv, rho: float):
    """log c_rho as a function of the normal scores."""
    r2 = rho * rho
    return -0.5 * np.log1p(-r2) - (r2 * (zu * zu + zv * zv) - 2.0 * rho * zu * zv) / (
        2.0 * (1.0 - r2)
    )


def _check_rho(rho: float):
    if not 0.0 <= rho < 1.0:
        raise ConfigurationError(f"rho must lie in [0, 1), got {rho}")


def _clayton_g(p, a: float):
    """-log(1-p)/a of the upper-clamped p, as a new array."""
    g = np.asarray(_clamp_upper(p))  # clip returns a fresh array
    np.negative(g, out=g)
    np.log1p(g, out=g)
    g /= -a
    return g


def clayton_density_and_partial(u, v, a: float):
    """(d_a(u, v), I_a(u, v)) from one set of log transforms.

    d_a equals (a+1)/a exactly at the origin; I_a(u, v) =
    1 - (1-v)^(-(a+1)/a) / s^(a+1) maps u = 0 -> 0 and u = 1 -> 1.

    The kernel is bound by array passes, not by its transcendentals, so
    every step after the g transforms runs in place in three arrays of
    the broadcast shape: the two results and log s.
    """
    if not a > 0:
        raise ConfigurationError(f"bandwidth must be positive, got {a}")
    u = np.asarray(u, dtype=float)
    gu = _clayton_g(u, a)
    gv = _clayton_g(v, a)
    shape = np.broadcast_shapes(gu.shape, gv.shape)
    density, partial, log_s = np.empty(shape), np.empty(shape), np.empty(shape)
    _log_clayton_s(gu, gv, log_s, (density, partial))
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


def gaussian_density_and_partial(u, v, rho: float):
    """(c_rho(u, v), H_rho(u, v)) from one pair of normal scores.

    H_rho(u, v) = Phi({Phi^-1(u) - rho Phi^-1(v)} / sqrt(1 - rho^2)); rho = 0
    gives the independence copula (density exactly 1).
    """
    _check_rho(rho)
    u = np.asarray(u, dtype=float)
    zu = ndtri(_clamp(u))
    zv = ndtri(_clamp(v))
    density = np.exp(_gaussian_log_density_z(zu, zv, rho))
    inner = ndtr((zu - rho * zv) / np.sqrt(1.0 - rho * rho))
    partial = np.where(u <= 0.0, 0.0, np.where(u >= 1.0, 1.0, inner))
    return density, partial


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
