"""Dataset ingestion, standardization, ordering, and simulation.

A `SurvivalDataset` is an ordered sequence of (time, status) records with
optional covariate rows.  Status 1 means the event time was observed,
status 0 means it is right-censored at the recorded time.  Standardization
metadata (`scale_factor`, per-column covariate shift/scale) is carried on
the dataset so every downstream output can be mapped back to the original
units (a time divides by `scale_factor`, a density multiplies by it);
`standardize(data, like=train)` puts held-out records or covariate
targets on a training split's scale without estimating anything.

Outputs are CSVs with shortest-roundtrip float reprs, written by one
writer, `write_table`, from the table's columns; it formats the rows in
row shards on every CPU (`shards.run_shards`).
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import shards
from .errors import ConfigurationError, DataError

__all__ = [
    "SurvivalDataset",
    "load_csv",
    "standardize",
    "take",
    "permute",
    "simulate_censored_exponential",
    "write_table",
]

# Bytes a value takes in a `write_table` row slot: the longest float repr
# has 24 characters ("-2.2250738585072014e-308"), an int64 at most 20, and
# a comma, or the CR of the row's CRLF, follows each value; the LF is the
# slot's last byte.
VALUE_SLOT_BYTES = 25
# Fewest float values a `write_table` shard formats.  On a 2-vCPU Xeon
# VM a float's repr took about 0.5 us, and forking a process of the
# benchmark `posterior` call's size (about 100 MiB) took 2.6-2.9 ms, the
# time of about 6000 reprs: a smaller shard saves less than its fork
# costs.  An int or str value (about 0.1 us) is not counted: the
# `w1_trace.csv` of that call, 4020 floats beside two int columns, took
# 3.7-5.6 ms in one process and 9-11 ms in two.
MATRIX_SHARD_VALUES = 6000


@dataclass(frozen=True)
class SurvivalDataset:
    times: np.ndarray  # positive reals, shape (n,)
    status: np.ndarray  # 1 observed / 0 right-censored, shape (n,)
    covariates: np.ndarray | None = None  # shape (n, d)
    scale_factor: float = 1.0  # total factor applied to raw times
    covariate_shift_scale: np.ndarray | None = None  # shape (d, 2): (mean, sd)
    perm: np.ndarray | None = None  # perm[i] = original index of record i

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        status = np.asarray(self.status, dtype=int)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "status", status)
        if times.ndim != 1 or status.shape != times.shape:
            raise DataError("times and status must be equal-length vectors")
        if times.size == 0:
            raise DataError("dataset is empty")
        if not np.all((times > 0) & np.isfinite(times)):
            raise DataError("all times must be positive and finite")
        if not np.all((status == 0) | (status == 1)):
            raise DataError("status must be 0 (censored) or 1 (observed)")
        if self.covariates is not None:
            cov = np.atleast_2d(np.asarray(self.covariates, dtype=float))
            if cov.shape[0] != times.size:
                raise DataError("covariate matrix must have one row per record")
            if not np.all(np.isfinite(cov)):
                raise DataError("covariate values must be finite")
            object.__setattr__(self, "covariates", cov)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def n_observed(self) -> int:
        return int(self.status.sum())

    @property
    def censoring_fraction(self) -> float:
        return 1.0 - self.n_observed / self.n


def load_csv(path, time_col="time", status_col="status", covariate_cols=()):
    """Read a dataset from a comma-separated file with a header row.

    Required columns: `time_col` (positive finite decimal) and
    `status_col` (0/1).  Covariate columns are optional and selected by
    name; their values must be finite.  Parse failures report the
    offending row number (1-based, excluding the header).
    """
    covariate_cols = list(covariate_cols)
    times, status, rows = [], [], []
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        for col in [time_col, status_col, *covariate_cols]:
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing column {col!r}")
        for i, record in enumerate(reader, start=1):
            try:
                t = float(record[time_col])
            except (TypeError, ValueError):
                raise DataError(f"{path} row {i}: unparsable time {record[time_col]!r}")
            if not 0 < t < math.inf:
                raise DataError(f"{path} row {i}: time must be positive and "
                                f"finite, got {t}")
            s = (record[status_col] or "").strip()
            if s not in ("0", "1"):
                raise DataError(f"{path} row {i}: status must be 0 or 1, got {s!r}")
            try:
                row = [float(record[c]) for c in covariate_cols]
            except (TypeError, ValueError):
                raise DataError(f"{path} row {i}: unparsable covariate value")
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path} row {i}: covariate values must be "
                                f"finite, got {row}")
            rows.append(row)
            times.append(t)
            status.append(int(s))
    if not times:
        raise DataError(f"{path}: no data rows")
    covariates = np.asarray(rows) if covariate_cols else None
    return SurvivalDataset(np.asarray(times), np.asarray(status), covariates)


def standardize(data: SurvivalDataset,
                like: SurvivalDataset | None = None) -> SurvivalDataset:
    """Rescale times so the exponential-rate MLE equals one exactly.

    Times are multiplied by theta_hat = (number observed) / (sum of all
    recorded times); the factor is recorded in `scale_factor` so outputs
    can be reported in original units.  Covariates are z-scored per
    column (constant columns get sd 1), with the (mean, sd) pairs
    recorded for back-transformation.

    Given `like`, a standardized training split in the same input units,
    nothing is estimated: `like`'s factor and (mean, sd) pairs are
    applied, so held-out records need no observed event.
    """
    covariates = data.covariates
    if like is None:
        k = data.n_observed
        if k < 1:
            raise DataError("standardization needs at least one observed event")
        theta_hat = k / float(data.times.sum())
        shift_scale = data.covariate_shift_scale
        if covariates is not None:
            sd = covariates.std(axis=0)
            shift_scale = np.column_stack([covariates.mean(axis=0),
                                           np.where(sd > 0, sd, 1.0)])
    else:
        theta_hat = like.scale_factor
        shift_scale = like.covariate_shift_scale
    if covariates is not None and shift_scale is not None:
        covariates = (covariates - shift_scale[:, 0]) / shift_scale[:, 1]
    return replace(
        data,
        times=data.times * theta_hat,
        covariates=covariates,
        scale_factor=data.scale_factor * theta_hat,
        covariate_shift_scale=shift_scale,
    )


def take(data: SurvivalDataset, rows) -> SurvivalDataset:
    """The records `rows` of `data`, in that order; `perm` keeps naming
    the input rows they came from."""
    return replace(
        data,
        times=data.times[rows],
        status=data.status[rows],
        covariates=None if data.covariates is None else data.covariates[rows],
        perm=rows if data.perm is None else data.perm[rows],
    )


def permute(data: SurvivalDataset, seed: int) -> SurvivalDataset:
    """Uniform random reordering of the records, seed-reproducible."""
    return take(data, np.random.default_rng(seed).permutation(data.n))


def simulate_censored_exponential(n, rate_y=1.0, rate_c=2.0, seed=0) -> SurvivalDataset:
    """Exponential survival times censored by independent exponential times.

    Records min(y, c) with status 1 when y < c.  The analytic censoring
    probability is rate_c / (rate_y + rate_c).
    """
    if n < 1:
        raise ConfigurationError("n must be at least 1")
    if not (rate_y > 0 and rate_c > 0):
        raise ConfigurationError("rates must be positive")
    rng = np.random.default_rng(seed)
    y = rng.exponential(1.0 / rate_y, size=n)
    c = rng.exponential(1.0 / rate_c, size=n)
    times = np.minimum(y, c)
    # guard the measure-zero exact ties / zero draws
    times = np.maximum(times, 1e-300)
    return SurvivalDataset(times=times, status=(y < c).astype(int))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _cells(column):
    """An iterator over the text of each row of `column`: a float's
    repr, another value's str (a bool is viewed as its 1 or 0), and a
    2-D column's row of values joined by commas."""
    text = repr if column.dtype.kind == "f" else str
    if column.ndim == 1:
        return map(text, column.tolist())
    return (",".join(map(text, row)) for row in column.tolist())


def write_table(path, header, columns) -> None:
    """Write `columns` as a CSV under `header`: a column is a 1-D
    sequence of one value per row (float, int, bool or str), or a 2-D
    float array that stands for several adjacent columns.  A float is
    written as its shortest-roundtrip repr, a bool as 1 or 0 and any
    other value as its str, which must need no CSV quoting.  Columns of
    unequal length, or a row longer than its slot (below), raise
    ValueError.

    The rows are formatted in `shards.run_shards` row shards of at least
    MATRIX_SHARD_VALUES float values, one shard per CPU: a shard writes
    each of its rows into the row's fixed-width slot of VALUE_SLOT_BYTES
    bytes per value plus one, in one shared mapping, and its byte count
    into another.  This process then writes the header (through
    `csv.writer`) and the rows, in order.  A failed shard raises
    CopsurvError naming the file's rows it held, before the file is
    opened.
    """
    columns = [c.view(np.uint8) if c.dtype == bool else c
               for c in map(np.asarray, columns)]
    n_rows = len(columns[0])
    if any(len(c) != n_rows for c in columns):
        raise ValueError("the columns of a table differ in length")
    row_values = [math.prod(c.shape[1:]) for c in columns]
    width = VALUE_SLOT_BYTES * sum(row_values) + 1
    row_floats = sum(k for k, c in zip(row_values, columns)
                     if c.dtype.kind == "f")

    def fill(shard, out):
        slots, counts = memoryview(out["slots"]).cast("B"), out["counts"]
        rows = zip(*(_cells(c[shard]) for c in columns))
        for i, row in enumerate(rows, start=shard.start):
            line = (",".join(row) + "\r\n").encode()
            if len(line) > width:
                raise ValueError(f"row {i} does not fit its {width}-byte slot")
            slots[i * width:i * width + len(line)] = line
            counts[i] = len(line)

    # the slots are float64 words (what run_shards maps), used as bytes
    out = shards.run_shards(
        n_rows, max(1, MATRIX_SHARD_VALUES // max(1, row_floats)),
        {"slots": (-(-n_rows * width // 8),), "counts": (n_rows,)}, fill,
        f"{os.path.basename(path)} rows")
    head = io.StringIO()
    csv.writer(head).writerow(header)
    slots = memoryview(out["slots"]).cast("B")
    with open(path, "wb") as handle:
        handle.write(head.getvalue().encode())
        for i, count in enumerate(out["counts"].astype(int).tolist()):
            handle.write(slots[i * width:i * width + count])
