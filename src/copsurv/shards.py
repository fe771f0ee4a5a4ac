"""Fork/join over contiguous shards of independent items.

The start rows and forward pass (`resampling`), doob's forward chains
(`parametric`) and the tuning grid's cells (`tune`) are loops whose items
read nothing from one another.  `run_shards` splits such a loop into one
contiguous shard of items per CPU the process may use, runs the first
shard in the calling process and each other one in a forked child, and
joins them once, at the end.  The shards write their results into float64
arrays that live in shared anonymous memory mappings, one mapping per
array, so a caller that keeps some of the arrays keeps only their memory
alive; no file or `/dev/shm` segment is made.  Every caller draws an
item's random numbers by the item's index, so the shard count moves no
output bit.

Children are forked, not spawned, so they inherit the caller's state
without pickling; they leave only through `os._exit`, running no exit
handler and flushing no inherited buffer.
"""

from __future__ import annotations

import math
import mmap
import os
import signal

import numpy as np

from .errors import CopsurvError

__all__ = ["run_shards"]


def _worker_count(n_items: int, min_items: int) -> int:
    """One process per CPU this process may use, at most one per
    `min_items` items, and one without `os.fork`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items // min_items))


def _shared(shape) -> np.ndarray:
    """A float64 array of `shape` in its own shared anonymous mapping; an
    empty one needs no mapping (and the system allows none)."""
    size = math.prod(shape)
    if size == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size)).reshape(shape)


def run_shards(n_items: int, min_items: int, shapes: dict, run,
               label: str) -> dict:
    """Run `run(shard, out)` over contiguous shards (slices) of the items
    0..n_items-1 and return `out`: float64 arrays of `shapes` (a dict of
    name -> shape) into which each shard writes its part.

    The shard count is `_worker_count(n_items, min_items)`.  An error or
    interrupt in this process, or while it waits, ends and reaps every
    child still running before it propagates; a child that fails makes
    this call raise CopsurvError, naming the child's items ("the worker
    for `label` lo:hi").
    """
    out = {name: _shared(shape) for name, shape in shapes.items()}
    n_workers = _worker_count(n_items, min_items)
    edges = [n_items * k // n_workers for k in range(n_workers + 1)]
    shards = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    children, codes = {}, {}
    try:
        for shard in shards[1:]:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    run(shard, out)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = shard
        run(shards[0], out)
        for pid in children:
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        # an error or interrupt here ends the children still running
        for pid in children.keys() - codes.keys():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for pid, code in codes.items():
        if code:
            raise CopsurvError(f"the worker for {label} {children[pid].start}:"
                               f"{children[pid].stop} exited with status {code}")
    return out
