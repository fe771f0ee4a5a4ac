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
holds one row per point and one column per particle, in C-contiguous
arrays of its own: float64, or the dtype `round_to` gives them (the
float32 forward pass of the Clayton family, `resampling`), which the
update and the kernel then compute in.
The SMC pass (also the prequential score of fully observed data, see
`censoring`) runs one over the records still to come, with a density
only at the observed ones (`n_density`): the rest take the kernel's
survival-only call.  The start rows, held-out scoring and forward
predictive resampling, with synthetic records drawn in CDF space, run
one over their own points, every one with a density.

A record's propagation value enters the kernel through terms of v alone
(the Clayton kernel's q, 1 - q and factor, the Gaussian kernel's normal
score), which `absorb` computes once per record, from the family's
`row_terms`, and hands to the kernel call of every block.

Every absorption runs in blocks of whole points, `BLOCK_ELEMS // B`
points (at least one) of at most `BLOCK_ELEMS` elements each, so a
block is a contiguous slab; v and per-particle weights broadcast along
it as (1, B) rows, and per-point weights as (points, 1) columns.  The
kernel works in place in one `copulas.KernelScratch` set that the
running predictive owns: each block gets contiguous views of its leading
elements, so the recursion allocates no block-shaped array after
construction.  The fixed cost of a kernel call (numpy dispatch: on one
CPU of a 2-vCPU Xeon host, about 2 us a ufunc call and 30 to 45 us a
kernel call) is paid per block, so blocks are as large as the cache
allows: at 32768 elements an array is 256 KiB, and a block's five live
arrays (the two running rows and the kernel's three scratch arrays) fit
a 2 MiB per-core L2 cache.  On that host, one-CPU calls of the
benchmark's `posterior` at 8k, 16k, 32k, 64k and 128k elements per
block did not differ beyond the shared host's noise (fastest of 15
calls: 1.73, 1.58, 1.48, 1.60 and 1.88 s).  The recursion is
elementwise, so blocking changes no output bit.
"""

from __future__ import annotations

import numpy as np

from .copulas import (CLAMP_EPS, KernelScratch, alpha_regression,
                      alpha_schedule)

__all__ = ["RunningPredictive"]

# Elements per propagation block: 256 KiB of float64 per scratch array.
BLOCK_ELEMS = 32768


class RunningPredictive:
    """The running predictive at points `times` under `n_particles`
    particles (or chains): survival in a C-contiguous (points,
    n_particles) array `surv`, and density in a (n_density, n_particles)
    array `dens` for the leading `n_density` points (every point when
    None), both allocated here and set to the base measure at times[k] in
    row k.  A point past `n_density` carries no density: absorbing a
    record computes none there.
    The k-th record it absorbs has weight `alpha_schedule(k)`, modulated
    when `rho_x` is set by `alpha_regression` between the points'
    covariates `x_points` (None, one shared vector, or one row per point)
    and the record's.  It absorbs in blocks of `block` whole points, the
    most that fit `BLOCK_ELEMS` elements (at least one); the kernel's
    scratch set, the same three block arrays for either family, is sized
    for the largest block an absorption can take.  The rows start in
    float64; `round_to` moves them to another dtype, and the update and
    the kernel follow the rows' dtype.
    """

    def __init__(self, family, times, n_particles, rho_x=None,
                 x_points=None, n_density=None):
        self.joint, self.row_terms = family.joint, family.row_terms
        pdf, surv = family.base_at(times)
        pdf = pdf[:n_density]
        self.dens = np.empty((pdf.size, n_particles))
        self.surv = np.empty((surv.size, n_particles))
        self.dens[:], self.surv[:] = pdf[:, None], surv[:, None]
        self.rho_x, self.x_points = rho_x, x_points
        self.n_absorbed = 0
        self.block = max(1, BLOCK_ELEMS // max(1, n_particles))
        self._allocate_scratch()

    def _allocate_scratch(self):
        points, b = self.surv.shape
        self.scratch = KernelScratch.flat(min(points, self.block) * b, b,
                                          self.surv.dtype)

    def round_to(self, dtype):
        """Carry the rows in `dtype` from here on, rounded once from the
        current rows, with a kernel scratch set in that dtype; nothing
        changes when they are in it already."""
        if self.surv.dtype != dtype:
            self.dens = self.dens.astype(dtype)
            self.surv = self.surv.astype(dtype)
            self._allocate_scratch()

    def absorb(self, v, x_record=None):
        """Take the next record, with propagation values v (B,), clamped
        here to [CLAMP_EPS, 1 - CLAMP_EPS], and covariates `x_record` (one
        vector, or one row per particle, (B, d), for one weight per
        particle), into every point, in the recursion's bits: its steps
        only commute the products and sums of the formula, in the rows'
        dtype (`_weights`).  The kernel's terms of v are computed once,
        for every block; the points without a density take the kernel's
        survival-only call, and their update skips the density's three
        passes."""
        self.n_absorbed += 1
        alpha = alpha_schedule(self.n_absorbed)
        per_point = False
        if self.rho_x is not None:
            alpha = alpha_regression(alpha, self.x_points, x_record,
                                     self.rho_x)
            if np.ndim(x_record) == 2:  # one weight per particle: a row
                alpha = alpha[None, :]
            elif np.ndim(alpha) == 1:  # one weight per point: a column
                alpha, per_point = alpha[:, None], True
        alpha, keep = _weights(alpha, self.surv.dtype)
        v = np.clip(v, CLAMP_EPS, 1.0 - CLAMP_EPS)[None, :]
        terms = self.row_terms(v, self.scratch.view(v.shape, v.shape))
        n_density, n_points = self.dens.shape[0], self.surv.shape[0]
        for density, start, stop in ((True, 0, n_density),
                                     (False, n_density, n_points)):
            for lo in range(start, stop, self.block):
                blk = slice(lo, min(lo + self.block, stop))
                a, c = (alpha[blk], keep[blk]) if per_point else (alpha, keep)
                surv = self.surv[blk]
                d, tail = self.joint(surv, v, out=self.scratch.view(
                    surv.shape, v.shape), density=density, terms=terms)
                if density:
                    d *= a
                    d += c
                    self.dens[blk] *= d
                tail *= a
                surv *= c
                surv += tail


def _weights(alpha, dtype):
    """The record's weight alpha and the kept weight c = 1 - alpha, as
    numpy values of `dtype` (scalars for a scalar weight), for an update
    in that dtype.

    c is rounded from its float64 value, and alpha is moved by what that
    rounding moved c, the other way, before its own rounding.  In float64
    nothing moves: the pair is (alpha, 1 - alpha) as computed.  In
    float32 alpha becomes exactly 1 - c wherever the schedule puts it
    (Sterbenz's lemma: c >= 1/2, and alpha is far above float32's spacing
    near 1), and a covariate weight above 1/2 comes within half a spacing
    of it; either way float32 rounds alpha + c to exactly 1.  So a
    survival of 1 stays 1, and no chain drifts by the rounding of a
    weight that every chain shares, as rounding alpha and 1 - alpha each
    on its own would make them.  Both are typed: a numpy.float64 is not a
    weak scalar (NEP 50), and it would run the update in float64 loops.
    """
    alpha = np.float64(alpha)  # a scalar stays scalar: cheaper than 0-d
    keep = 1.0 - alpha
    rounded = keep.astype(dtype, copy=False)
    return (alpha + (keep - rounded)).astype(dtype, copy=False), rounded
