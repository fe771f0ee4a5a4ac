"""Grid search for the copula hyperparameters.

The score of a cell is the imputation sampler's marginal-likelihood
estimate of the data under that cell's kernel.  When nothing is censored
the sampler runs one particle, and the score is the prequential
log-likelihood, without Monte Carlo error (deterministic), computed in
the pass's dtype as any other score is: float32 for a Clayton cell above
the float32 bound (`censoring`).  All cells share one seed (common
random numbers), which strips most of the Monte Carlo noise out of the
argmax comparison.  Ties break toward the smallest bandwidth.

The cells are independent, so they are scored in contiguous shards of
cells, one per CPU the process may use (`shards.run_shards`): each shard
writes (score, final ESS) per cell, or (-inf, 0) for a cell whose
weights degenerate, and the table is built in grid order afterwards, so
the shard count moves neither the table nor the argmax.  Every cell's
configuration is checked before the first one is scored, so a
configuration error is raised here, not in a worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import shards
from .censoring import impute_smc
from .copulas import CopulaFamily, make_family
from .dataio import SurvivalDataset
from .errors import ConfigurationError, DegeneracyError

__all__ = ["TuneCell", "TuneResult", "grid_search", "DEFAULT_TUNE_PARTICLES"]

# Particles of the imputation run that scores a cell with censored data.
DEFAULT_TUNE_PARTICLES = 1000


class TuneCell(NamedTuple):
    bandwidth: float
    rho_x: float | None
    score: float
    final_ess: float


@dataclass(frozen=True)
class TuneResult:
    family: CopulaFamily
    rho_x: float | None
    score: float
    table: list

    @property
    def bandwidth(self) -> float:
        return self.family.bandwidth


def grid_search(data: SurvivalDataset, family_kind: str, bandwidths,
                rho_x_values=None, n_particles: int = DEFAULT_TUNE_PARTICLES,
                seed: int = 0) -> TuneResult:
    """Score every (bandwidth, rho_x) cell and return the argmax with the
    full table.  A bandwidth is the kernel's a, or rho for the Gaussian
    kernel; rho_x_values=None searches no covariate kernel.

    Raises DegeneracyError if every cell degenerates: no cell has a
    finite score to select.
    """
    # every cell is checked before any is scored or any worker forked
    bandwidths = [float(v) for v in bandwidths]
    if not bandwidths:
        raise ConfigurationError("bandwidth grid is empty")
    rho_x_grid = [None]
    if rho_x_values is not None:
        rho_x_grid = [float(v) for v in rho_x_values]
        if not rho_x_grid:
            raise ConfigurationError("rho_x grid is empty")
        if not all(0.0 <= v < 1.0 for v in rho_x_grid):
            raise ConfigurationError(
                f"rho_x values must lie in [0, 1), got {tuple(rho_x_grid)}")
        if data.covariates is None:
            raise ConfigurationError("rho_x grid given but the dataset has "
                                     "no covariates")
    # fully observed data is scored by one particle, without Monte Carlo
    # error
    n_particles = n_particles if np.any(data.status == 0) else 1
    cells = [(bandwidth, make_family(family_kind, bandwidth), rho_x)
             for bandwidth in sorted(bandwidths) for rho_x in rho_x_grid]

    def run(shard, out):
        for k in range(shard.start, shard.stop):
            _, family, rho_x = cells[k]
            try:
                ensemble = impute_smc(data, family, rho_x=rho_x,
                                      n_particles=n_particles, seed=seed)
            except DegeneracyError:
                out["cells"][k] = (-np.inf, 0.0)
                continue
            out["cells"][k] = (ensemble.log_z, ensemble.final_ess)

    scores = shards.run_shards(len(cells), 1, {"cells": (len(cells), 2)},
                               run, "cells")["cells"]
    table = [TuneCell(bandwidth, rho_x, float(score), float(final_ess))
             for (bandwidth, _, rho_x), (score, final_ess)
             in zip(cells, scores)]
    finite = [cell for cell in table if np.isfinite(cell.score)]
    if not finite:
        raise DegeneracyError("every grid cell degenerated")
    # the first maximum in grid order: ties go to the smallest bandwidth
    best = max(finite, key=lambda cell: cell.score)
    return TuneResult(
        family=make_family(family_kind, best.bandwidth),
        rho_x=best.rho_x,
        score=best.score,
        table=table,
    )
