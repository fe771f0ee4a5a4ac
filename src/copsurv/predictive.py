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
`update` is the only implementation of this step, and it runs in place
on the running state; `RunningPredictive.absorb` is its only caller.  A
running predictive holds one row per particle and one column per point.
The SMC pass (which also gives the prequential score of fully observed
data, see `censoring`), the start rows and held-out scoring absorb the
fitted records through it, and forward predictive resampling absorbs
its synthetic records, drawn in CDF space, through the same object.

Every absorption runs in blocks of whole particle rows from
`row_blocks`, sized so that each temporary the recursion allocates holds
at most `BLOCK_ELEMS` float64 values (64 KiB).  That keeps temporaries
below glibc's 128 KiB mmap threshold: larger ones are mapped and
page-faulted in afresh on every call, which costs more than the
arithmetic.  The recursion is elementwise, so blocking changes no
output bit.
"""

from __future__ import annotations

import numpy as np

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
    """One step of the recursion, in place: absorb propagation value(s) v
    with weight alpha into the running (density, cdf); shapes broadcast
    to those of dens and u.  The products and sums are those of
    dens * ((1 - alpha) + alpha * d) and (1 - alpha) * u + alpha * I,
    reordered only by commutation, so the bits are the same."""
    d, i_part = joint(u, v)
    d *= alpha
    d += 1.0 - alpha
    dens *= d
    i_part *= alpha
    u *= 1.0 - alpha
    u += i_part


class RunningPredictive:
    """The running predictive at points `times`, one row per particle, in
    the caller's (B, points) arrays `dens` and `u` (a worker's rows of a
    shared array), set here to the base measure at times[k] in column k.
    The caller supplies each absorbed record's weight, because only it
    knows which covariates are the evaluation points and which belong to
    the record.
    """

    def __init__(self, family, times, dens, u):
        self.joint = family.joint
        self.dens, self.u = dens, u
        dens[:], u[:] = family.base_at(times)

    def absorb(self, v, alpha, lo=0):
        """Take one record's propagation values v (B,) into columns lo..
        with weight alpha: a scalar, one weight per column
        (points - lo,), or one weight per particle (B, 1)."""
        b, points = self.u.shape
        if lo == points:
            return
        per_particle = np.ndim(alpha) == 2
        for blk in row_blocks(0, b, points - lo):
            update(self.dens[blk, lo:], self.u[blk, lo:], v[blk, None],
                   alpha[blk] if per_particle else alpha, self.joint)
