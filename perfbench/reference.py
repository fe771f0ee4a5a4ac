"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same call can take up to 2x longer for minutes at a time
(other tenants, not this process: user time grows, system time does not).
Timing this loop next to every call and dividing gives a call time in
units of the loop, which cancels most of that swing.  The loop mixes the
kinds of work the workloads do: interpreter bytecode, numpy calls on small
arrays (per-call overhead), the Clayton-kernel expression on a 2000x149
array (per-element cost), scipy's ndtri/ndtr (the Gaussian kernel),
Philox uniforms with expm1/log1p and fancy indexing on 20000-element
arrays (the conjugate oracle).  It is the benchmark's own code and never
touches copsurv.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri


def _clayton_like(u, v):
    g = -np.log1p(-u) / 0.9
    h = -np.log1p(-v) / 0.9
    m = np.maximum(g, h)
    s = m + np.log(np.exp(g - m) + np.exp(h - m) - np.exp(-m))
    return np.exp(1.9 * (g + h) - 2.9 * s)


class ReferenceLoop:
    def __init__(self):
        gen = np.random.default_rng(0)
        self.big = (gen.random((2000, 149)), gen.random((2000, 1)))
        self.small = (gen.random(1800), gen.random(1800))
        self.gauss = (gen.random((500, 100)), gen.random((500, 1)))
        self.order = gen.permutation(20000)

    def seconds(self) -> float:
        """Wall time of one pass (0.2-0.35 s on one 2.1 GHz Xeon VM core)."""
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(150_000):
            acc += i * 3 % 7
            table[i % 100] = acc
        for _ in range(800):
            _clayton_like(*self.small)
        for _ in range(5):
            _clayton_like(*self.big)
        u, v = self.gauss
        for _ in range(5):
            ndtr((ndtri(u) - 0.5 * ndtri(v)) / 0.866)
        a = np.full(20000, 3.0)
        for step in range(150):
            w = Generator(Philox(key=step)).random(20000)
            a = (a + np.expm1(-np.log1p(-w) / a))[self.order]
        return time.perf_counter() - t0
