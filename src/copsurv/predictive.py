"""Sequential copula predictive recursion.

The running predictive after absorbing i observations is determined by the
family's base measure and the sequence of propagation values
v_j = P_{j-1}(y_j), one per absorbed datum; raw times never enter the
recursion.  Density and CDF at a point y are recovered jointly in one O(i)
sweep,

    dens <- dens * [1 - a_j + a_j * density(u, v_j)]
    u    <- (1 - a_j) * u + a_j * partial(u, v_j)

starting from the base measure's (pdf, cdf) at y, where a_j is the update
weight for step j (covariate-modulated in the regression variant).
`update` is the only implementation of this step, and
`RunningPredictive` the only evaluator of a fitted predictive at points:
the SMC pass (which also gives the prequential score of fully observed
data, see `censoring`), the start rows and held-out scoring run through
it, and forward predictive resampling runs `update` on u values drawn in
CDF space.

Every propagation over many rows (the running predictive's points and
the forward pass's chains) runs in blocks of whole rows from
`row_blocks`, sized so that each temporary the recursion allocates holds
at most `BLOCK_ELEMS` float64 values (64 KiB).  That keeps temporaries
below glibc's 128 KiB mmap threshold: larger ones are mapped and
page-faulted in afresh on every call, which costs more than the
arithmetic.  The recursion is elementwise, so blocking changes no
output bit.
"""

from __future__ import annotations

import numpy as np

from .copulas import alpha_regression, alpha_schedule

__all__ = ["update", "RunningPredictive"]

# Elements per propagation block: 64 KiB of float64 per temporary.
BLOCK_ELEMS = 8192


def block_rows(row_elems: int) -> int:
    """Rows of `row_elems` elements that fit one block (at least one)."""
    return max(1, BLOCK_ELEMS // max(1, row_elems))


def row_blocks(start: int, stop: int, row_elems: int) -> list:
    """Slices covering rows start..stop-1, `block_rows(row_elems)` rows
    each (the last may be shorter)."""
    step = block_rows(row_elems)
    return [slice(lo, min(lo + step, stop)) for lo in range(start, stop, step)]


def update(dens, u, v, alpha, joint):
    """One step of the recursion: absorb propagation value(s) v with
    weight alpha into the running (density, cdf); shapes broadcast."""
    d, i_part = joint(u, v)
    return dens * ((1.0 - alpha) + alpha * d), (1.0 - alpha) * u + alpha * i_part


class RunningPredictive:
    """The running predictive at points `times`, one column per particle:
    `dens` and `u` have shape (points, B), row k starting at the base
    measure at times[k].  Absorbing record j weights it by a_{j+1}; with
    covariates, by `alpha_regression` of the point's row `row_x[k]` as
    the evaluation point and `record_x[j]` as the absorbed record (in
    that argument order: swapping them moves the last bit), computed per
    block of rows, so no (points, records) table is held.
    """

    def __init__(self, family, rho_x, times, row_x, record_x, n_particles):
        self.joint = family.joint
        self.rho_x = rho_x
        self.row_x = row_x
        self.record_x = record_x
        pdf0, cdf0 = family.base_at(times)
        self.dens = np.tile(pdf0[:, None], n_particles)
        self.u = np.tile(cdf0[:, None], n_particles)

    def absorb(self, j, v, lo=0):
        """Take record j's propagation values v (B,) into rows lo.."""
        a = alpha_schedule(j + 1)
        rows, b = self.u.shape
        for blk in row_blocks(lo, rows, b):
            alpha = a
            if self.rho_x is not None:
                alpha = alpha_regression(a, self.row_x[blk], self.record_x[j],
                                         self.rho_x)[:, None]
            self.dens[blk], self.u[blk] = update(
                self.dens[blk], self.u[blk], v, alpha, self.joint)
