"""Fork/join over contiguous shards of independent items.

The start rows and forward pass (`resampling`), doob's forward chains
(`parametric`), the tuning grid's cells (`tune`) and the formatting of a
CSV table's rows (`dataio.write_table`) are loops whose items read
nothing from one another.  `run_shards` splits such a loop into one
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
handler and flushing no inherited buffer.  A child whose shard raises
writes "{type}: {message}" of the exception, cut to `CAUSE_BYTES` bytes
of UTF-8, into its own slot of one more shared mapping, so the error this
process raises names the cause.
"""

from __future__ import annotations

import math
import mmap
import os
import signal

import numpy as np

from .errors import CopsurvError

__all__ = ["run_shards"]

# Bytes of a failed child's cause that reach the caller's error.
CAUSE_BYTES = 512


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
    this call raise CopsurvError, naming the child's items and the
    exception it raised ("the worker for `label` lo:hi exited with status
    1: RuntimeError: ...").
    """
    out = {name: _shared(shape) for name, shape in shapes.items()}
    n_workers = _worker_count(n_items, min_items)
    edges = [n_items * k // n_workers for k in range(n_workers + 1)]
    shards = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    causes = mmap.mmap(-1, CAUSE_BYTES * n_workers)
    children, codes = {}, {}
    try:
        for k, shard in enumerate(shards[1:], start=1):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    run(shard, out)
                    status = 0
                except Exception as exc:
                    causes.seek(CAUSE_BYTES * k)
                    causes.write(f"{type(exc).__name__}: {exc}".encode(
                        errors="replace")[:CAUSE_BYTES])
                finally:
                    os._exit(status)
            children[pid] = k, shard
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
            k, shard = children[pid]
            cause = causes[CAUSE_BYTES * k:CAUSE_BYTES * (k + 1)].rstrip(
                b"\0").decode(errors="ignore")
            raise CopsurvError(
                f"the worker for {label} {shard.start}:{shard.stop} exited "
                f"with status {code}" + (f": {cause}" if cause else ""))
    return out
