"""Closed-form distributions backing the predictive updates.

Only the two families the method actually needs: Lomax (Pareto II) as the
base measure and conjugate posterior predictive on the positive reals, and
the heavy log-normal base for the Gaussian-kernel variant.

Parameter containers accept scalars or numpy arrays, so the same formulas
serve both a single fitted state and a whole particle ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError

__all__ = [
    "LomaxParams",
    "LogNormalBaseParams",
    "lomax_pdf",
    "lomax_cdf",
    "lognormal_base_pdf",
    "lognormal_base_cdf",
    "base_pdf",
    "base_cdf",
]


@dataclass(frozen=True)
class LomaxParams:
    """Lomax(a, b): density (a/b) (1 + y/b)^-(a+1) on y >= 0."""

    shape: float | np.ndarray  # a > 0
    scale: float | np.ndarray = 1.0  # b > 0, in time units

    def __post_init__(self):
        if not np.all(np.asarray(self.shape) > 0):
            raise ConfigurationError("Lomax shape must be positive")
        if not np.all(np.asarray(self.scale) > 0):
            raise ConfigurationError("Lomax scale must be positive")


@dataclass(frozen=True)
class LogNormalBaseParams:
    """Log-normal base with log-scale mean 0 and variance 1/(1 - rho)."""

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie in (0, 1), got {self.rho}")

    @property
    def log_sd(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.rho)


def _check_nonneg(y):
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("time values must be nonnegative")
    return y


# ---------------------------------------------------------------------------
# Lomax
# ---------------------------------------------------------------------------

def lomax_pdf(y, p: LomaxParams):
    y = _check_nonneg(y)
    a, b = p.shape, p.scale
    return (a / b) * np.exp(-(a + 1.0) * np.log1p(y / b))


def lomax_cdf(y, p: LomaxParams):
    y = _check_nonneg(y)
    a, b = p.shape, p.scale
    return -np.expm1(-a * np.log1p(y / b))


# ---------------------------------------------------------------------------
# Log-normal base measure
# ---------------------------------------------------------------------------

def lognormal_base_pdf(y, p: LogNormalBaseParams):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("log-normal density requires y > 0")
    s = p.log_sd
    z = np.log(y) / s
    return np.exp(-0.5 * z * z) / (y * s * np.sqrt(2.0 * np.pi))


def lognormal_base_cdf(y, p: LogNormalBaseParams):
    y = _check_nonneg(y)
    z = np.where(y > 0, np.log(np.maximum(y, 1e-300)) / p.log_sd, -np.inf)
    return ndtr(z)


# ---------------------------------------------------------------------------
# Base-measure dispatch used by the predictive recursion
# ---------------------------------------------------------------------------

BaseMeasure = LomaxParams | LogNormalBaseParams


def base_pdf(y, base: BaseMeasure):
    """Base density, taking the continuous limit 0 at y = 0 for the
    log-normal family so evaluation grids may start at the origin."""
    if isinstance(base, LomaxParams):
        return lomax_pdf(y, base)
    arr = _check_nonneg(y)
    flat = np.atleast_1d(arr)
    out = np.zeros_like(flat)
    pos = flat > 0
    if pos.any():
        out[pos] = lognormal_base_pdf(flat[pos], base)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def base_cdf(y, base: BaseMeasure):
    if isinstance(base, LomaxParams):
        return lomax_cdf(y, base)
    return lognormal_base_cdf(y, base)

