"""Grid search for the copula hyperparameters.

The score of a cell is the imputation sampler's marginal-likelihood
estimate of the data under that cell's kernel.  When nothing is censored
the sampler runs one particle, and the score is the exact prequential
log-likelihood (deterministic).  All cells share one seed (common random
numbers), which strips most of the Monte Carlo noise out of the argmax
comparison.  Ties break toward the smallest bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .censoring import impute_smc
from .copulas import CopulaFamily, make_family
from .dataio import SurvivalDataset
from .errors import ConfigurationError, DegeneracyError, TuningError

__all__ = ["TuneGrid", "TuneCell", "TuneResult", "grid_search"]


@dataclass(frozen=True)
class TuneGrid:
    bandwidths: tuple  # kernel bandwidth a, or rho for the Gaussian kernel
    rho_x_values: tuple | None = None  # covariate kernel grid (regression)
    n_particles: int = 1000
    seed: int = 0

    def __post_init__(self):
        bw = tuple(float(v) for v in self.bandwidths)
        if not bw:
            raise ConfigurationError("bandwidth grid is empty")
        object.__setattr__(self, "bandwidths", bw)
        if self.rho_x_values is not None:
            object.__setattr__(
                self, "rho_x_values", tuple(float(v) for v in self.rho_x_values)
            )


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


def grid_search(data: SurvivalDataset, family_kind: str,
                grid: TuneGrid) -> TuneResult:
    """Score every grid cell and return the argmax with the full table.

    Raises TuningError (carrying the table) if every cell degenerates.
    """
    # fully observed data is scored exactly by one particle
    n_particles = grid.n_particles if np.any(data.status == 0) else 1
    rho_x_grid = grid.rho_x_values if grid.rho_x_values is not None else (None,)
    # every cell's family is checked before the first one is scored
    families = [(bandwidth, make_family(family_kind, bandwidth))
                for bandwidth in sorted(grid.bandwidths)]
    table: list = []
    best = None
    for bandwidth, family in families:
        for rho_x in rho_x_grid:
            try:
                ensemble = impute_smc(data, family, rho_x=rho_x,
                                      n_particles=n_particles, seed=grid.seed)
            except DegeneracyError:
                table.append(TuneCell(bandwidth, rho_x, -np.inf, 0.0))
                continue
            cell = TuneCell(bandwidth, rho_x, ensemble.log_z,
                            ensemble.final_ess)
            table.append(cell)
            if np.isfinite(cell.score) and (best is None
                                            or cell.score > best.score):
                best = cell
    if best is None:
        raise TuningError("every grid cell degenerated", table=table)
    return TuneResult(
        family=make_family(family_kind, best.bandwidth),
        rho_x=best.rho_x,
        score=best.score,
        table=table,
    )
