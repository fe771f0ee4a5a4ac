"""Copula-based predictive inference for right-censored survival data.

Workflow: load or simulate a dataset (`dataio`), standardize and permute
it, impute censored records with the sequential importance sampler
(`censoring`), then draw survival curves, densities, and medians from the
martingale posterior by forward predictive resampling (`resampling`).
The conjugate exponential/inverse-gamma model (`parametric`) provides an
exact oracle for the whole pipeline, and `tune` selects kernel
hyperparameters by marginal likelihood.
"""

from .censoring import (
    ParticleEnsemble,
    ess,
    impute_smc,
)
from .copulas import (
    ClaytonFamily,
    CopulaFamily,
    GaussianFamily,
    alpha_regression,
    alpha_schedule,
)
from .dataio import (
    SurvivalDataset,
    load_csv,
    permute,
    simulate_censored_exponential,
    standardize,
)
from .errors import (
    ConfigurationError,
    CopsurvError,
    DataError,
    DegeneracyError,
    TuningError,
)
from .parametric import (
    ConjugateModel,
    ConjugateState,
    conjugate_smc,
    doob_demo,
    exact_log_marginal,
    posterior_update,
    tune_a0,
)
from .resampling import (
    GridSpec,
    PosteriorDraws,
    default_grid,
    martingale_posterior,
    median_from_survival,
    wasserstein1,
)
from .tune import TuneGrid, TuneResult, grid_search

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
