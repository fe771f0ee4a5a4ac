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
`update` is the only implementation of this step: the SMC pass (which
also gives the prequential score of fully observed data, see
`censoring`), the start rows and forward predictive resampling all run
through it, the latter supplying u values drawn in CDF space.
`propagate` runs it over an absorbed history, and `step_weights` gives
the weights a_1..a_n of that history.

Every propagation over many rows (the SMC pass's pending records, the
start rows and the forward pass over chains) runs in blocks of whole
rows from `row_blocks`, sized so that each temporary the recursion
allocates holds at most `BLOCK_ELEMS` float64 values (64 KiB).  That
keeps temporaries below glibc's 128 KiB mmap threshold: larger ones are
mapped and page-faulted in afresh on every call, which costs more than
the arithmetic.  The recursion is elementwise, so blocking changes no
output bit.
"""

from __future__ import annotations

import numpy as np

from .copulas import alpha_regression, alpha_schedule

__all__ = ["update", "propagate", "step_weights"]

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


def propagate(dens, u, v_rows, alphas, joint):
    """Run `update` over an absorbed history, one (v row, alpha) per step."""
    for v, alpha in zip(v_rows, alphas):
        dens, u = update(dens, u, v, alpha, joint)
    return dens, u


def step_weights(n: int, x_eval, xseq, rho_x) -> np.ndarray:
    """Update weights a_1..a_n for evaluating at covariate x_eval; with
    rho_x set, step j is weighted by its covariate row xseq[j].

    `x_eval` may stack K evaluation rows, shape (K, d), giving a (K, n)
    matrix: row k holds the weights for evaluating at x_eval[k].  The
    evaluation point stays `alpha_regression`'s first covariate argument
    and the absorbed record its second; swapping them moves the last bit.
    """
    alphas = alpha_schedule(np.arange(1, n + 1))
    if rho_x is None:
        return alphas
    x = np.asarray(x_eval, dtype=float)
    return alpha_regression(alphas, x[..., None, :], xseq[:n], rho_x)
