"""Counter-based random streams for reproducible parallel simulation.

Every stochastic step of the samplers draws from a Philox generator keyed
by (master seed, stream tag, step index); within a stream the counter
enumerates particles/chains.  A draw therefore depends only on those three
integers and its position in the stream, so runs are bit-reproducible and
a chain's draw does not depend on how many other chains run.  A shard of
chains reads its own elements straight from the counter (`uniforms` with
`start`), so it neither draws nor pays for the other shards' elements.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# Stream tags. Keep distinct per consumer so streams never overlap.
STREAM_IMPUTE = 1        # uniforms for censored-record proposals
STREAM_RESAMPLE = 2      # single offset per systematic-resampling event
STREAM_FORWARD = 3       # uniforms driving predictive resampling
STREAM_BOOTSTRAP_DIR = 4  # Dirichlet weights for covariate bootstrap
STREAM_BOOTSTRAP_PICK = 5  # categorical picks for covariate bootstrap

_MASK64 = (1 << 64) - 1
_MASK24 = (1 << 24) - 1


def stream(seed: int, tag: int, step: int = 0, counter: int = 0) -> Generator:
    """Independent generator for (seed, tag, step), started `counter`
    Philox blocks of four 64-bit outputs in.

    The 128-bit Philox key packs the masked master seed in the high word
    and (tag, step) in the low word, so distinct triples give distinct
    streams.
    """
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    key = ((seed & _MASK64) << 64) | ((tag & _MASK24) << 40) | (step & ((1 << 40) - 1))
    return Generator(Philox(key=key, counter=counter))


def uniforms(seed: int, tag: int, step: int, count: int,
             start: int = 0) -> np.ndarray:
    """Elements start..start+count-1 of the uniforms in [0, 1) of the
    (seed, tag, step) stream.

    Each uniform takes one 64-bit Philox output and each counter value
    gives four, so the draw starts at counter start // 4 and drops the
    first start % 4 values: a shard of chains pays only for its own
    elements, and gets the bits of the same slice of the whole draw.
    """
    draws = stream(seed, tag, step, start // 4)
    if start % 4:
        draws.random(start % 4)
    return draws.random(count)


def dirichlet_uniform(seed: int, tag: int, shape: tuple[int, int]) -> np.ndarray:
    """Rows of Dirichlet(1, ..., 1) weights, shape (chains, pool size).

    Built from exponential spacings (-log U) of stream uniforms so the
    result is a pure function of the key, independent of numpy's gamma
    sampler internals.
    """
    b, n = shape
    u = stream(seed, tag).random((b, n))
    e = -np.log1p(-u)
    e = np.maximum(e, 1e-300)  # guard the 2^-53 event u == 0
    return e / e.sum(axis=1, keepdims=True)
