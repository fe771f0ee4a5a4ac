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
allows: at 32768 elements an array is 256 KiB, and a block's roughly
seven live arrays (the running rows and the kernel's scratch) fit a
2 MiB per-core L2 cache.  On a 2-vCPU Xeon host with 2 MiB of L2 per
core, one-CPU seconds of the benchmark's `posterior` call (median over
three rounds of the best of three calls) measured 3.25, 3.00, 2.88, 2.89
and 3.26 at 8k, 16k, 32k, 64k and 128k elements per block.  The
recursion is elementwise, so blocking changes no output bit.
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
    the caller's (B, points) arrays `dens` and `u` (a worker's rows of a
    shared array), set here to the base measure at times[k] in column k.
    The k-th record it absorbs has weight `alpha_schedule(k)`, read from
    a table grown as needed, modulated when `rho_x` is set by
    `alpha_regression` between the points' covariates `x_points` (None,
    one shared vector, or one row per point) and the record's.  The
    kernel's scratch set holds the family's `scratch_blocks` arrays,
    sized for the largest block an absorption can take.
    """

    def __init__(self, family, times, dens, u, rho_x=None, x_points=None):
        self.joint = family.joint
        self.dens, self.u = dens, u
        dens[:], u[:] = family.base_at(times)
        self.rho_x, self.x_points = rho_x, x_points
        self.n_absorbed, self.alphas = 0, np.empty(0)
        b, points = u.shape
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
        if self.u.size == 0:  # e.g. the SMC pass's last record
            return
        v = np.clip(v, CLAMP_EPS, 1.0 - CLAMP_EPS)[:, None]
        for blk in row_blocks(*self.u.shape):
            a = alpha[blk] if np.ndim(alpha) == 2 else alpha
            dens, u = self.dens[blk], self.u[blk]
            d, i_part = self.joint(u, v[blk], out=self.scratch.view(
                u.shape, v[blk].shape))
            d *= a
            d += 1.0 - a
            dens *= d
            i_part *= a
            u *= 1.0 - a
            u += i_part
