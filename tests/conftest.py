import csv

import numpy as np
import pytest

import copsurv as cs


@pytest.fixture
def uncensored_exp50():
    """50 exponential(1) observations, standardized and permuted."""
    data = cs.simulate_censored_exponential(50, 1.0, 1e-12, seed=21)
    assert data.n_observed == 50
    return cs.permute(cs.standardize(data), 21)


@pytest.fixture
def censored_exp50():
    """The simulated regime: Exp(1) survival, Exp(2) censoring, n = 50."""
    data = cs.simulate_censored_exponential(50, 1.0, 2.0, seed=106)
    return cs.permute(data, 106)


def make_dataset(times, status, covariates=None):
    return cs.SurvivalDataset(
        times=np.asarray(times, dtype=float),
        status=np.asarray(status, dtype=int),
        covariates=covariates,
    )


def write_cells(path, header, rows):
    """The per-cell CSV reference for `dataio.write_table`: each row
    through `csv.writer`, a bool as 1 or 0, a float as the repr of its
    float64 value and any other value as its str."""
    def text(value):
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([text(v) for v in row] for row in rows)
