"""Sequential copula predictive state.

The running predictive after absorbing i observations is determined by the
base measure and the sequence of propagation values v_j = P_{j-1}(y_j),
one per absorbed datum; raw times never enter the recursion.  Density and
CDF at a point y are recovered jointly in one O(i) sweep,

    dens <- dens * [1 - a_j + a_j * density(u, v_j)]
    u    <- (1 - a_j) * u + a_j * partial(u, v_j)

starting from the base measure's (pdf, cdf) at y, where a_j is the update
weight for step j (covariate-modulated in the regression variant).
`update` is the only implementation of this step and `propagate` the only
loop over an absorbed history: the sequential fit, censored-data
imputation and forward predictive resampling all run through them, the
latter two simply supplying u values drawn in CDF space.  `step_weights`
gives the weights a_1..a_n of an absorbed history.

`PredictiveFit` is immutable; `absorb` returns an extended copy, and
evaluation is pure, so fits can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import copulas
from .copulas import CopulaFamily, alpha_regression, alpha_schedule, check_family_base
from .dataio import SurvivalDataset
from .distributions import base_cdf, base_pdf
from .errors import ConfigurationError

__all__ = ["EvalPoint", "PredictiveFit", "new_fit", "absorb", "evaluate",
           "fit_uncensored", "prequential_log_lik", "update", "propagate",
           "step_weights"]


class EvalPoint(NamedTuple):
    density: float | np.ndarray
    cdf: float | np.ndarray


@dataclass(frozen=True)
class PredictiveFit:
    family: CopulaFamily
    base: object  # LomaxParams | LogNormalBaseParams, matched to family
    vseq: np.ndarray  # propagation values in (0, 1), one per absorbed datum
    xseq: np.ndarray | None = None  # covariate rows, parallel to vseq
    rho_x: float | None = None
    perm: np.ndarray | None = None  # ordering applied to the source data

    def __post_init__(self):
        check_family_base(self.family, self.base)
        v = np.asarray(self.vseq, dtype=float)
        object.__setattr__(self, "vseq", v)
        if np.any((v <= 0) | (v >= 1)):
            raise ConfigurationError("propagation values must lie in (0, 1)")
        if (self.xseq is None) != (self.rho_x is None):
            raise ConfigurationError("covariate sequence and rho_x come together")
        if self.xseq is not None:
            x = np.atleast_2d(np.asarray(self.xseq, dtype=float))
            if v.size and x.shape[0] != v.size:
                raise ConfigurationError("one covariate row per propagation value")
            object.__setattr__(self, "xseq", x)

    @property
    def n(self) -> int:
        return self.vseq.size


def new_fit(family: CopulaFamily, base=None, rho_x: float | None = None,
            perm: np.ndarray | None = None) -> PredictiveFit:
    """Empty predictive state; base defaults to the family's match."""
    if base is None:
        base = copulas.default_base(family)
    xseq = np.empty((0, 0)) if rho_x is not None else None
    return PredictiveFit(family=family, base=base, vseq=np.empty(0),
                         xseq=xseq, rho_x=rho_x, perm=perm)


def update(dens, u, v, alpha, joint):
    """One step of the recursion: absorb propagation value(s) v with
    weight alpha into the running (density, cdf); shapes broadcast."""
    d, i_part = joint(u, v)
    return dens * ((1.0 - alpha) + alpha * d), (1.0 - alpha) * u + alpha * i_part


def propagate(dens, u, v_rows, alphas, joint):
    """Run `update` over an absorbed history, one (v row, alpha) per step."""
    for v, alpha in zip(v_rows, alphas):
        dens, u = update(dens, u, v, alpha, joint)
    return dens, u


def step_weights(n: int, x_eval, xseq, rho_x) -> np.ndarray:
    """Update weights a_1..a_n for evaluating at covariate x_eval; with
    rho_x set, step j is weighted by its covariate row xseq[j]."""
    alphas = alpha_schedule(np.arange(1, n + 1))
    if rho_x is None:
        return alphas
    return np.array([alpha_regression(a, x_eval, xseq[j], rho_x)
                     for j, a in enumerate(alphas)])


def evaluate(fit: PredictiveFit, y, x=None) -> EvalPoint:
    """Predictive (density, cdf) at y; y may be a scalar or array.

    Cost is linear in the number of absorbed observations.
    """
    if x is not None and fit.rho_x is None:
        raise ConfigurationError("fit has no covariate structure; drop x")
    if x is None and fit.rho_x is not None:
        raise ConfigurationError("this fit conditions on covariates; pass x")
    dens, u = propagate(base_pdf(y, fit.base), base_cdf(y, fit.base),
                        fit.vseq, step_weights(fit.n, x, fit.xseq, fit.rho_x),
                        copulas.family_joint(fit.family))
    return EvalPoint(density=dens, cdf=u)


def absorb(fit: PredictiveFit, u_new: float, x_new=None) -> PredictiveFit:
    """Extend the state with one propagation value (and covariate row)."""
    if not 0.0 < u_new < 1.0:
        raise ConfigurationError(f"u must lie strictly in (0, 1), got {u_new}")
    if (x_new is not None) != (fit.rho_x is not None):
        raise ConfigurationError(
            "covariate supplied iff the fit was built with rho_x"
        )
    vseq = np.append(fit.vseq, u_new)
    xseq = fit.xseq
    if x_new is not None:
        row = np.atleast_1d(np.asarray(x_new, dtype=float))
        xseq = row[None, :] if fit.xseq.size == 0 else np.vstack([fit.xseq, row])
    return PredictiveFit(family=fit.family, base=fit.base, vseq=vseq,
                         xseq=xseq, rho_x=fit.rho_x, perm=fit.perm)


def _check_uncensored(data: SurvivalDataset):
    if np.any(data.status == 0):
        raise ConfigurationError(
            "dataset has censored records; use the imputation sampler"
        )


def _fit_and_log_lik(data: SurvivalDataset, family: CopulaFamily, base, rho_x):
    """Sequential fit of fully observed data, O(n^2) via one vectorized
    update of all points' running (density, cdf) per absorbed datum."""
    _check_uncensored(data)
    if base is None:
        base = copulas.default_base(family)
    use_cov = rho_x is not None
    if use_cov and data.covariates is None:
        raise ConfigurationError("rho_x given but the dataset has no covariates")
    joint_fn = copulas.family_joint(family)

    times = data.times
    n = data.n
    dens = np.asarray(base_pdf(times, base), dtype=float)
    u = np.asarray(base_cdf(times, base), dtype=float)
    vseq = np.empty(n)
    log_lik = 0.0
    for j in range(n):
        vseq[j] = u[j]
        log_lik += float(np.log(dens[j]))
        alpha = float(alpha_schedule(j + 1))
        if use_cov:
            alpha = alpha_regression(alpha, data.covariates[j], data.covariates,
                                     rho_x)
        v = np.clip(vseq[j], copulas.CLAMP_EPS, 1.0 - copulas.CLAMP_EPS)
        dens, u = update(dens, u, v, alpha, joint_fn)
    vclip = np.clip(vseq, copulas.CLAMP_EPS, 1.0 - copulas.CLAMP_EPS)
    fit = PredictiveFit(family=family, base=base, vseq=vclip,
                        xseq=data.covariates if use_cov else None,
                        rho_x=rho_x, perm=data.perm)
    return fit, log_lik


def fit_uncensored(data: SurvivalDataset, family: CopulaFamily, base=None,
                   rho_x: float | None = None) -> PredictiveFit:
    """Fit the predictive to fully observed data in the dataset's order."""
    fit, _ = _fit_and_log_lik(data, family, base, rho_x)
    return fit


def prequential_log_lik(data: SurvivalDataset, family: CopulaFamily, base=None,
                        rho_x: float | None = None) -> float:
    """One-step-ahead predictive score sum(log p_{i-1}(y_i)) under the
    dataset's fixed ordering."""
    _, log_lik = _fit_and_log_lik(data, family, base, rho_x)
    return log_lik
