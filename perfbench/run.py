"""copsurv benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a copsurv checkout; the package is imported from its
`src/` directory (nothing needs building).  The run

1. takes the set-up time several times, each in a fresh interpreter
   (`probe.py`: import copsurv, draw and write the input), and reports the
   median as `setup_s`;
2. draws the workload's input CSV from the seed, then calls
   `copsurv.cli.main` on it again and again for S seconds, timing each
   call and a fixed reference loop between calls (`reference.py`),
   checking the call's output files against references computed here,
   and requiring every repeat to write byte-identical files;
3. prints a readable report, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (tracing off).  With
--trace 1 the calls alternate between untraced and traced, and the
metrics are the per-layer ones taken from the traced calls, plus the
tracing overhead.  Everything a run writes goes to
`.perfbench_work/<workload>/` under the current directory: the run
record (machine, metrics, sha256 of every output file) and, when traced,
the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# numpy and the modules that import it (workloads, tracing, copsurv) are
# imported inside functions: the BLAS thread cap must be set first.
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("posterior", "tune_fit", "regress", "oracle")

# name -> unit of what a run reports end to end; BENCHMARK.json bounds
# setup_s, wall_ref and peak_rss_mb.  wall_ref is the median call time over
# the reference loop timed around it (reference.py): the raw call time
# swung by up to 2x for minutes on a shared host, which no bound of at
# most 25% survives.  wall_s, the fastest raw call, is reported alongside.
# The accuracy figures vary with the seed by more than any usable bound,
# so they are checked against tolerances (a miss fails the call), printed
# in the report and reported in the traced run.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "wall_s": "s",
              "peak_rss_mb": "MiB"}
ACCURACY = {"surv_sup_err": "prob", "band_cov": "frac", "heldout_ll": "nats",
            "oracle_ks": "prob", "oracle_logz_err": "nats"}


def cap_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at the usable core count (or lower, if the
    environment already asks for fewer); must run before numpy is
    imported."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_ENV:
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in BLAS_ENV:
        os.environ[var] = str(cap)


def setup_sample(root: Path, workload: str, seed: int, out_csv: Path,
                 sizes_name: str) -> float:
    """One set-up time from a fresh interpreter (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed),
         str(out_csv), sizes_name],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["import_s"] + sample["inputs_s"]


def layer_metrics(summary: dict, counters: dict, wall: float,
                  checked: dict) -> dict:
    """Per-layer metrics of one traced invocation (values only)."""
    import tracing

    def total(names, key):
        return float(sum(summary.get(n, {}).get(key, 0.0) for n in names))

    m = {}
    for family in ("clayton", "gaussian"):
        names = [f"copulas.{k}" for k, (f, _) in tracing.KERNELS.items()
                 if f == family]
        calls, secs = total(names, "calls"), total(names, "s")
        elems = counters.get(f"{family}.elems", 0.0)
        m[f"copulas.{family}.calls"] = calls
        m[f"copulas.{family}.elems"] = elems
        m[f"copulas.{family}.elems_per_call"] = elems / calls if calls else 0.0
        m[f"copulas.{family}.s"] = secs
        m[f"copulas.{family}.ns_per_elem"] = 1e9 * secs / elems if elems else 0.0
        m[f"copulas.{family}.mb_moved_computed"] = (
            counters.get(f"{family}.bytes", 0.0) / 1e6)
    for key in ("calls", "s"):
        m[f"copulas.alpha_regression.{key}"] = total(
            ["copulas.alpha_regression"], key)

    for key in ("s", "self_s"):
        m[f"censoring.impute_smc.{key}"] = total(["censoring.impute_smc"], key)
    passes = counters.get("smc.passes", 0.0)
    m["censoring.records"] = counters.get("smc.records", 0.0)
    m["censoring.resample_events"] = counters.get("smc.resample_events", 0.0)
    m["censoring.final_ess_frac"] = (
        counters.get("smc.final_ess_frac_sum", 0.0) / passes if passes else 0.0)
    m["censoring.unique_frac"] = (
        counters.get("smc.unique_frac_sum", 0.0) / passes if passes else 0.0)
    m["censoring.dead_particles"] = counters.get("smc.dead_particles", 0.0)

    cells = counters.get("tune.cells", 0.0)
    m["tune.grid_search.s"] = total(["tune.grid_search"], "s")
    m["tune.cells"] = cells
    m["tune.cells_ok_frac"] = counters.get("tune.cells_ok", 0.0) / cells if cells else 0.0

    for key in ("s", "self_s"):
        m[f"resampling.martingale_posterior.{key}"] = total(
            ["resampling.martingale_posterior"], key)
    m["resampling.ensemble_grid_rows.s"] = total(
        ["resampling.ensemble_grid_rows"], "s")
    for key in ("calls", "s"):
        m[f"resampling.wasserstein1.{key}"] = total(["resampling.wasserstein1"], key)
    computed = counters.get("w1.chains_computed", 0.0)
    m["resampling.w1_used_frac"] = (
        checked.get("w1_chains_written", 0) / computed if computed else 0.0)
    m["resampling.w1_trace_mb"] = counters.get("w1.trace_bytes", 0.0) / 1e6
    m["resampling.summaries.s"] = total(tracing.SUMMARY_FUNCTIONS, "s")
    m["resampling.heldout.s"] = total(["resampling.heldout_mean_log_lik"], "s")
    for key in ("count", "weight"):
        m[f"resampling.chains_below_half_at_default_top.{key}"] = float(
            checked.get(f"chains_below_half_at_default_top.{key}", 0.0))

    for key in ("calls", "s"):
        m[f"rng.uniforms.{key}"] = total(["rng.uniforms"], key)
    m["parametric.conjugate_smc.s"] = total(["parametric.conjugate_smc"], "s")
    m["parametric.doob_demo.self_s"] = total(["parametric.doob_demo"], "self_s")
    m["parametric.tune_a0.s"] = total(["parametric.tune_a0"], "s")
    m["dataio.load_csv.s"] = total(["dataio.load_csv"], "s")
    m["dataio.write_rows.s"] = total(["dataio.write_rows"], "s")
    m["dataio.write_rows.rows"] = counters.get("dataio.rows", 0.0)
    m["dataio.bytes_written"] = counters.get("dataio.bytes_written", 0.0)

    self_sum = 0.0
    for layer in tracing.LAYERS:
        own = total([n for n in summary if n.startswith(layer + ".")], "self_s")
        m[f"{layer}.self_s"] = own
        self_sum += own
    m["trace.wall_s"] = wall
    m["trace.self_sum_frac"] = self_sum / wall
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, work: Path, sizes_name: str = "full",
        probes: int = SETUP_PROBES) -> dict:
    """Set up, run and check one workload; returns the full run record."""
    import numpy as np
    import scipy

    import workloads
    from reference import ReferenceLoop

    sizes = getattr(workloads, sizes_name.upper())[workload]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = [setup_sample(root, workload, seed, work / f"probe{k}.csv",
                          sizes_name)
             for k in range(probes)]

    import copsurv
    import copsurv.cli as cli

    if not Path(copsurv.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"copsurv imported from {copsurv.__file__}, "
                           f"not from {root / 'src'}")
    inputs = workloads.make_inputs(workload, seed, sizes)
    input_csv = work / "input.csv"
    workloads.write_inputs(inputs, input_csv)

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    calls = []  # {"traced", "wall_s", "ref_s", "ok"} per call, in order
    failures = []
    reference = ReferenceLoop()
    ref_before = reference.seconds()
    first = None  # (digests, accuracy metrics) of the first good call
    layer_rows = []
    begin = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        out = work / f"out{i}"
        args = workloads.argv(workload, sizes, inputs,
                              os.path.relpath(input_csv), os.path.relpath(out),
                              seed)
        err = io.StringIO()
        if traced:
            tracer.install(copsurv, i)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = cli.main(args)
        except (Exception, SystemExit) as exc:  # a crash is a failed call
            rc = repr(exc)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        problems = [] if rc == 0 else [f"exit {rc}: {err.getvalue().strip()}"]
        checked = None
        if not problems:
            try:
                checked = workloads.check_outputs(workload, out, inputs)
                digests = workloads.output_digests(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            else:
                problems += checked.failures
                if first is None:
                    first = (digests, checked.metrics)
                elif digests != first[0]:
                    problems.append("output files differ from the first call")
        if problems:
            failures.append({"invocation": i, "problems": problems})
        ref_after = reference.seconds()
        calls.append({"traced": traced, "wall_s": wall, "ok": not problems,
                      "ref_s": 0.5 * (ref_before + ref_after)})
        ref_before = ref_after
        if traced:
            layer_rows.append(layer_metrics(
                tracer.span_summary(i), tracer.counters, wall,
                checked.metrics if checked else {}))
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        # Stop at the call that ends nearest the deadline.
        if (time.perf_counter() - begin + 0.5 * wall >= seconds
                and i >= (2 if trace else 1)):
            break

    digests, accuracy = first if first else ({}, {})
    # A failed call's time says nothing about the work; it counts only when
    # no call succeeded (the result is then marked incorrect anyway).
    plain = ([c for c in calls if not c["traced"] and c["ok"]]
             or [c for c in calls if not c["traced"]])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get(BLAS_ENV[0], "unset"),
        },
        "sizes": vars(sizes),
        "attempted": i,
        "failed": len(failures),
        "failures": failures,
        "setup_samples_s": setup,
        "calls": calls,
        "outputs_sha256": digests,
        "outputs_sha256_combined": hashlib.sha256(
            json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(c["wall_s"] / c["ref_s"] for c in plain),
            "wall_s": min(c["wall_s"] for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_frac": len(failures) / i,
            **{k: accuracy[k] for k in ACCURACY if k in accuracy},
        },
    }
    if trace:
        per_layer = {k: statistics.median(row[k] for row in layer_rows)
                     for k in layer_rows[0]}
        # Each traced call against the untraced call just before it, so
        # that both see the machine in the same state.
        per_layer["trace.overhead_frac"] = statistics.median(
            calls[k + 1]["wall_s"] / calls[k]["wall_s"]
            for k in range(0, len(calls) - 1, 2)) - 1.0
        for k in ACCURACY:
            per_layer[f"output.{k}"] = float(accuracy.get(k, 0.0))
        per_layer["output.fail_frac"] = len(failures) / i
        record["per_layer"] = per_layer
        tracer.save(work / "spans.npz")
    (work / "run_record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The final JSON object: the metrics BENCHMARK.json names, in order."""
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record[key]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[key]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record: dict) -> list:
    """Readable lines printed before the result."""
    m = record["machine"]
    lines = [
        f"# perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}",
        f"# machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"scipy={m['scipy']} blas_threads={m['blas_threads']}",
        f"# calls: {record['attempted']} attempted, {record['failed']} failed",
    ]
    units = {**END_TO_END, **ACCURACY, "fail_frac": "frac"}
    for name, value in record["end_to_end"].items():
        lines.append(f"#   {name} = {value:.6g} {units[name]}")
    lines.append(f"# outputs sha256 (combined): {record['outputs_sha256_combined']}")
    for failure in record["failures"]:
        lines.append(f"# FAILED call {failure['invocation']}: "
                     + "; ".join(failure["problems"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "copsurv" / "__init__.py").is_file():
        print(f"perfbench: no src/copsurv under {root}; run from the root "
              "of a copsurv checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    cap_blas_threads()
    sys.path.insert(0, str(root / "src"))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 root, root / ".perfbench_work" / args.workload)
    for line in report(record):
        print(line)
    if record["trace"]:
        for name, value in record["per_layer"].items():
            print(f"#   {name} = {value:.6g}")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
