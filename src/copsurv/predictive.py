"""Sequential copula predictive recursion, carried on the survival.

The running predictive after absorbing i observations is determined by the
family's base measure and the sequence of propagation values
v_j = P_{j-1}(y_j), one per absorbed datum (a CDF value, as drawn); raw
times never enter the recursion.  Its state at a point y is the density
and the survival S = 1 - P(y), recovered jointly in one O(i) sweep,

    dens <- dens * [1 - a_j + a_j * density(S, v_j)]
    S    <- (1 - a_j) * S + a_j * (1 - partial)(S, v_j)

starting from the base measure's (pdf, survival) at y, where a_j is the
update weight for step j (covariate-modulated in the regression variant)
and the kernel returns the copula density and the complement 1 - I of
its partial (`copulas`).  This is the CDF recursion u <- (1 - a_j) u +
a_j I(u, v_j) subtracted from 1, so it holds the same predictive; on S
the upper tail, where S is small, keeps its relative precision, and a
survival of exactly 1 at the time origin stays exactly 1.
`RunningPredictive.absorb` runs this step, in place, for every point a
running predictive holds; no other code computes a_j, clamps v_j to
[CLAMP_EPS, 1 - CLAMP_EPS] or picks the points a record updates.  It
counts the records it absorbs and knows its points' covariates, and it
holds one row per particle and one column per point.
The SMC pass (also the prequential score of fully observed data, see
`censoring`) runs one over the records still to come; the start rows,
held-out scoring and forward predictive resampling, with synthetic
records drawn in CDF space, run one over their own points.

Every absorption runs in blocks of whole particle rows from
`row_blocks`, of at most `BLOCK_ELEMS` elements each, and the kernel
works in place in one `copulas.KernelScratch` set that the running
predictive owns: each block gets contiguous views of its leading
elements, so the recursion allocates no block-shaped array after
construction.  The fixed cost of a kernel call (numpy dispatch, tens of
microseconds) is paid per block, so blocks are as large as the cache
allows: at 32768 elements an array is 256 KiB, and a block's five
live arrays (the two running rows and the kernel's three scratch
arrays) fit a 2 MiB per-core L2 cache.  On a 2-vCPU Xeon host with
2 MiB of L2 per core, one-CPU seconds of the benchmark's `posterior`
call (median over three rounds of the best of three calls) measured
3.25, 3.00, 2.88, 2.89 and 3.26 at 8k, 16k, 32k, 64k and 128k elements
per block, with the kernel on the CDF.  The recursion is elementwise,
so blocking changes no output bit.
"""

from __future__ import annotations

import numpy as np

from .copulas import (CLAMP_EPS, KernelScratch, alpha_regression,
                      alpha_schedule)

__all__ = ["RunningPredictive"]

# Elements per propagation block: 256 KiB of float64 per scratch array.
BLOCK_ELEMS = 32768


def block_rows(row_elems: int) -> int:
    """Rows of `row_elems` elements that fit one block (at least one)."""
    return max(1, BLOCK_ELEMS // max(1, row_elems))


def row_blocks(stop: int, row_elems: int) -> list:
    """Slices covering rows 0..stop-1, `block_rows(row_elems)` rows each
    (the last may be shorter)."""
    step = block_rows(row_elems)
    return [slice(lo, min(lo + step, stop)) for lo in range(0, stop, step)]


class RunningPredictive:
    """The running predictive at points `times`, one row per particle, in
    the caller's (B, points) arrays `dens` and `surv` (a worker's rows of
    a shared array): density and survival, set here to the base measure
    at times[k] in column k.
    The k-th record it absorbs has weight `alpha_schedule(k)`, read from
    a table grown as needed, modulated when `rho_x` is set by
    `alpha_regression` between the points' covariates `x_points` (None,
    one shared vector, or one row per point) and the record's.  The
    kernel's scratch set holds the family's `scratch_blocks` arrays,
    sized for the largest block an absorption can take.
    """

    def __init__(self, family, times, dens, surv, rho_x=None,
                 x_points=None):
        self.joint = family.joint
        self.dens, self.surv = dens, surv
        dens[:], surv[:] = family.base_at(times)
        self.rho_x, self.x_points = rho_x, x_points
        self.n_absorbed, self.alphas = 0, np.empty(0)
        b, points = surv.shape
        self.scratch = KernelScratch.flat(
            min(b * points, max(BLOCK_ELEMS, points)), min(b, BLOCK_ELEMS),
            family.scratch_blocks)

    def absorb(self, v, x_record=None):
        """Take the next record, with propagation values v (B,), clamped
        here to [CLAMP_EPS, 1 - CLAMP_EPS], and covariates `x_record` (one
        vector, or one row per particle, (B, d), for one weight per
        particle), into every point, in the recursion's bits: its steps
        only commute the products and sums of the formula."""
        k = self.n_absorbed = self.n_absorbed + 1
        if k > self.alphas.size:
            self.alphas = alpha_schedule(np.arange(1, 2 * k + 1))
        alpha = self.alphas[k - 1]
        if self.rho_x is not None:
            alpha = alpha_regression(alpha, self.x_points, x_record,
                                     self.rho_x)
            if np.ndim(x_record) == 2:
                alpha = alpha[:, None]
        if self.surv.size == 0:  # e.g. the SMC pass's last record
            return
        v = np.clip(v, CLAMP_EPS, 1.0 - CLAMP_EPS)[:, None]
        for blk in row_blocks(*self.surv.shape):
            a = alpha[blk] if np.ndim(alpha) == 2 else alpha
            dens, surv = self.dens[blk], self.surv[blk]
            d, tail = self.joint(surv, v[blk], out=self.scratch.view(
                surv.shape, v[blk].shape))
            d *= a
            d += 1.0 - a
            dens *= d
            tail *= a
            surv *= 1.0 - a
            surv += tail
