"""Self-tests of the benchmark: accuracy and span helpers on hand-made
inputs, the wrapping of copsurv's namespaces, and a tiny smoke run of
every workload.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_surv_sup_err_uses_points_inside_the_data_range():
    times = np.array([0.0, 0.5, 1.0, 2.0])
    surv = np.array([1.0, 0.6, 0.4, 0.5])
    truth = np.exp(-times)
    expected = max(abs(0.6 - math.exp(-0.5)), abs(0.4 - math.exp(-1.0)))
    assert workloads.surv_sup_err(times, surv, truth, 1.0) == pytest.approx(expected)


def test_band_cov_counts_points_whose_band_holds_the_truth():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    truth = np.array([1.0, 0.5, 0.4, 0.3, 0.2])
    lo = np.array([1.0, 0.4, 0.45, 0.3, 0.0])
    hi = np.array([1.0, 0.6, 0.5, 0.3, 0.1])
    # t = 0 is outside (0, t_max]; of t = 1, 2, 3 the bands hold 0.5 and 0.3.
    assert workloads.band_cov(times, lo, hi, truth, 3.0) == pytest.approx(2 / 3)


def test_weighted_ks_matches_scipy_on_an_expanded_sample():
    values = np.array([3.0, 1.0, 2.0])
    weights = np.array([1.0, 2.0, 1.0])
    cdf = stats.uniform(0.0, 4.0).cdf
    expected = stats.kstest([1.0, 1.0, 2.0, 3.0], cdf).statistic
    assert workloads.weighted_ks(values, weights, cdf) == pytest.approx(expected)


def test_conjugate_log_marginal_matches_numerical_integration():
    a0, b0, k, total = 2.5, 1.5, 3, 4.2

    def integrand(theta):
        prior = stats.invgamma.pdf(theta, a0, scale=b0)
        return prior * theta ** (-k) * math.exp(-total / theta)

    value, _ = integrate.quad(integrand, 0.0, np.inf)
    assert workloads.conjugate_log_marginal(a0, b0, k, total) == pytest.approx(
        math.log(value), rel=1e-8)


def test_chains_below_half_interpolates_at_the_top():
    grid = np.array([0.0, 1.0, 2.0])
    rows = np.array([[0.0, 0.3, 0.6], [0.0, 0.1, 0.4]])
    weights = np.array([0.25, 0.75])
    assert workloads.chains_below_half(grid, rows, weights, 1.5) == (2, 1.0)
    assert workloads.chains_below_half(grid, rows, weights, 2.0) == (1, 0.75)


def test_exp_mean_log_lik_scores_censored_records_by_survival():
    value = workloads.exp_mean_log_lik([1.0, 2.0], [1, 0], np.array([1.0, 1.0]))
    assert value == pytest.approx((-1.0 - 2.0) / 2)


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    own = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 4.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_tracer_wraps_every_binding_and_restores_them():
    import copsurv
    from copsurv import censoring, cli, copulas, parametric, resampling, tune

    originals = (cli.impute_smc, tune.impute_smc, censoring.impute_smc,
                 resampling.alpha_regression, parametric.run_smc_loop)
    data = copsurv.simulate_censored_exponential(8, 1.0, 2.0, seed=3)
    tracer = tracing.Tracer()
    tracer.install(copsurv, invocation=7)
    try:
        assert cli.impute_smc is tune.impute_smc is censoring.impute_smc
        assert cli.impute_smc is not originals[0]
        assert resampling.alpha_regression.__wrapped__ is originals[3]
        assert parametric.run_smc_loop.__wrapped__ is originals[4]
        tune.impute_smc(data, copulas.ClaytonFamily(0.9), n_particles=16, seed=1)
    finally:
        tracer.uninstall()
    assert (cli.impute_smc, tune.impute_smc, censoring.impute_smc,
            resampling.alpha_regression, parametric.run_smc_loop) == originals

    summary = tracer.span_summary(7)
    assert summary["censoring.impute_smc"]["calls"] == 1
    assert summary["censoring.run_smc_loop"]["calls"] == 1
    # Kernel calls reached through copulas globals are inside the SMC span.
    kernel = summary["copulas.clayton_density_and_partial"]
    assert kernel["calls"] > 0
    assert kernel["s"] <= summary["censoring.run_smc_loop"]["s"]
    assert tracer.counters["smc.records"] == 8
    assert tracer.counters["clayton.elems"] == 16 * kernel["calls"]
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(summary["censoring.impute_smc"]["s"])


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(workload, trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = bench.run(workload, seed=5, seconds=0.0, trace=trace, root=ROOT,
                       work=tmp_path / workload, sizes_name="tiny", probes=1)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] == (2 if trace else 1)
    line = bench.result_line(record, spec)
    key = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in spec[key]]
    for metric in line["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace:
        assert (tmp_path / workload / "spans.npz").is_file()
        assert line["metrics"]["trace.self_sum_frac"]["value"] == pytest.approx(1.0, abs=0.01)
    else:
        assert line["metrics"]["wall_ref"]["value"] > 0
    assert record["outputs_sha256"]
