"""Spans around calls into copsurv's modules, recorded from outside.

`Tracer.install` replaces every public function of the layer modules by a
timing wrapper, in every module namespace that binds it: `cli` and `tune`
bind `impute_smc` by name, `predictive`, `censoring` and `resampling`
bind `alpha_regression`, `parametric` binds `run_smc_loop`, and the fused
kernels are reached through `copulas` module globals.  One wrapper serves
all bindings of a function, so its spans share one name.  `uninstall`
puts the originals back, so untraced invocations run unwrapped code.

A span is (name, start, end, parent); spans live in flat arrays in memory
and are written out once, when the benchmark ends.  A few wrappers also
read counts off arguments and results (kernel elements, SMC passes, rows
written), so that ratios are taken where the work happens.
"""

from __future__ import annotations

import inspect
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "dataio", "tune", "censoring", "copulas", "resampling",
          "rng", "parametric")
# Modules whose namespaces may bind a layer function.  `predictive` is
# not a layer (no workload reaches it) but it binds `alpha_regression`.
NAMESPACES = LAYERS + ("predictive",)

# Kernel functions: name -> (family, number of output arrays).
KERNELS = {
    "clayton_density": ("clayton", 1),
    "clayton_partial": ("clayton", 1),
    "clayton_density_and_partial": ("clayton", 2),
    "gaussian_density": ("gaussian", 1),
    "gaussian_partial": ("gaussian", 1),
    "gaussian_density_and_partial": ("gaussian", 2),
}
SUMMARY_FUNCTIONS = ("resampling.weighted_mean",
                     "resampling.weighted_quantiles",
                     "resampling.median_from_cdf")


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.

    `parent[i]` is the index of span i's parent, or -1 for a root.
    Children lie inside their parent's interval, so the self times of all
    spans sum to the total duration of the roots.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


class Tracer:
    """Span recorder plus the counters read off wrapped calls."""

    def __init__(self):
        self.names: list[str] = []  # name id -> "layer.function"
        self._name_ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.invocation = array("i")
        self.counters: dict = defaultdict(float)  # of the last install
        self._stack = [-1]
        self._patches: list = []
        self._current = 0

    # -- installing ---------------------------------------------------------

    def install(self, package, invocation: int) -> None:
        """Wrap the public functions of every layer module of `package`;
        spans and counters until `uninstall` belong to `invocation`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._current = invocation
        self.counters = defaultdict(float)
        wrappers = {}
        namespaces = [package] + [getattr(package, name) for name in NAMESPACES]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                owner = getattr(value, "__module__", "") or ""
                layer = owner.rpartition(".")[2]
                if (attr.startswith("_") or layer not in LAYERS
                        or not owner.startswith(package.__name__ + ".")
                        or not inspect.isfunction(value)):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(namespace, attr, wrappers[value])
                self._patches.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def _wrap(self, fn, qualname):
        name_id = self._name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        observe = self._observer(qualname)
        count_rows = qualname == "dataio.write_rows"
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end, invocation = self.start, self.end, self.invocation
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            invocation.append(self._current)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            if count_rows:
                args = (*args[:2], self._count_rows(args[2]), *args[3:])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- counters read off calls ----------------------------------------------

    def _observer(self, qualname):
        layer, _, func = qualname.partition(".")
        counters = self.counters
        if layer == "copulas" and func in KERNELS:
            family, n_out = KERNELS[func]

            def kernel(args, kwargs, result):
                u, v = args[0], args[1]
                elems = math.prod(np.broadcast_shapes(np.shape(u), np.shape(v)))
                counters[f"{family}.elems"] += elems
                counters[f"{family}.bytes"] += 8 * (np.size(u) + np.size(v)
                                                    + n_out * elems)
            return kernel
        if qualname == "censoring.run_smc_loop":
            def smc(args, kwargs, result):
                lw = np.asarray(result.log_weights)
                b = lw.size
                w = np.exp(lw - lw.max())
                counters["smc.passes"] += 1
                counters["smc.records"] += len(result.ess_trace)
                counters["smc.resample_events"] += len(result.resample_steps)
                counters["smc.dead_particles"] += int(np.isneginf(lw).sum())
                counters["smc.final_ess_frac_sum"] += w.sum() ** 2 / np.sum(w * w) / b
                counters["smc.unique_frac_sum"] += result.unique_trace[-1] / b
            return smc
        if qualname == "tune.grid_search":
            def grid(args, kwargs, result):
                counters["tune.cells"] += len(result.table)
                counters["tune.cells_ok"] += sum(np.isfinite(c.score)
                                                 for c in result.table)
            return grid
        if qualname == "resampling.martingale_posterior":
            def posterior(args, kwargs, result):
                counters["w1.chains_computed"] += result.w1_trace.shape[0]
                counters["w1.trace_bytes"] += result.w1_trace.nbytes
            return posterior
        if qualname == "dataio.write_rows":
            def written(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                counters["dataio.bytes_written"] += os.path.getsize(path)
            return written
        return None

    def _count_rows(self, rows):
        """Yield `rows`, counting them; write_rows (always called with
        positional rows) consumes its argument exactly once."""
        for row in rows:
            self.counters["dataio.rows"] += 1
            yield row

    # -- reading spans --------------------------------------------------------

    def arrays(self):
        """Copies of (name id, parent, start, end, invocation) per span; a
        copy keeps the growable buffers free of exported views."""
        return (np.array(self.name_of, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end),
                np.array(self.invocation, dtype=np.int32))

    def span_summary(self, invocation: int) -> dict:
        """Per function name: calls, inclusive seconds and self seconds of
        one invocation's spans."""
        name_of, parent, start, end, inv = self.arrays()
        rows = np.nonzero(inv == invocation)[0]
        if rows.size == 0:
            return {}
        # Parent indices are global; spans of one invocation are contiguous.
        base = rows[0]
        local_parent = np.where(parent[rows] >= 0, parent[rows] - base, -1)
        own = self_times(start[rows], end[rows], local_parent)
        duration = end[rows] - start[rows]
        out = {}
        for name_id in np.unique(name_of[rows]):
            mask = name_of[rows] == name_id
            out[self.names[name_id]] = {
                "calls": int(mask.sum()),
                "s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def save(self, path) -> None:
        """Write every span with its name table (numpy .npz)."""
        name_of, parent, start, end, inv = self.arrays()
        np.savez(path, names=np.array(self.names), name=name_of,
                 parent=parent, start=start, end=end, invocation=inv)
