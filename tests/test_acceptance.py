"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured statistic and runtime.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 needs
user-supplied public datasets and is skipped (with instructions) unless
the COPSURV_PBC_CSV / COPSURV_MELANOMA_CSV environment variables point at
them; it reports pass/warn without failing the suite.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import copsurv as cs
from copsurv import predictive, shards
from copsurv.censoring import impute_smc
from copsurv.cli import main as cli_main
from copsurv.copulas import (
    ClaytonFamily,
    clayton_density_and_partial,
    gaussian_density_and_partial,
)
from copsurv.dataio import take
from copsurv.parametric import (
    ConjugateModel,
    conjugate_smc,
    doob_demo,
    exact_log_marginal,
    tune_a0,
)
from copsurv.resampling import (
    GridSpec,
    ensemble_grid_rows,
    heldout_mean_log_lik,
    martingale_posterior,
)
from copsurv.tune import grid_search

SIM_SEED = 106  # simulated regime draw with censoring fraction in-band
# Criterion 8 reads every chain's W1 over the last this many forward steps.
CONVERGENCE_STEPS = 100


def report(criterion, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion}] {status} - {detail} ({elapsed:.1f}s)")
    assert passed, f"criterion {criterion}: {detail}"


def simulated_regime(seed=SIM_SEED, n=50):
    data = cs.simulate_censored_exponential(n, 1.0, 2.0, seed=seed)
    return cs.permute(data, seed)


@pytest.fixture(scope="module")
def unbiasedness_run():
    """Shared by criteria 5 and 8: 2000 forward chains over 2000 steps,
    every one traced."""
    start = time.time()
    data = cs.simulate_censored_exponential(50, 1.0, 1e-12, seed=21)
    data = cs.permute(cs.standardize(data), 21)
    ensemble = impute_smc(data, ClaytonFamily(1.0), n_particles=2000, seed=5)
    grid = GridSpec(np.linspace(0.0, 4.0, 10))
    draws = martingale_posterior(ensemble, 2000, grid, seed=5,
                                 trace_chains=2000)
    _, start_rows = ensemble_grid_rows(ensemble, grid)
    return dict(draws=draws, start=start_rows[0], grid=grid,
                elapsed=time.time() - start)


def test_criterion_1_doob_consistency():
    start = time.time()
    data = simulated_regime()
    assert 0.55 <= data.censoring_fraction <= 0.80
    model = ConjugateModel(a0=tune_a0(data), b0=1.0)
    result = doob_demo(model, data, n_particles=2000, n_extra=2000, seed=99)
    ks = result.ks_statistic
    elapsed = time.time() - start
    report(1, ks <= 0.05 and elapsed < 60.0,
           f"weighted KS(theta_bar, exact IG posterior) = {ks:.4f} "
           f"(tolerance 0.05)", elapsed)


def test_criterion_2_conjugate_marginal_oracle():
    start = time.time()
    data = cs.SurvivalDataset(times=np.array([1.0, 1.5, 2.0]),
                              status=np.array([1, 0, 1]))
    model = ConjugateModel(a0=1.2, b0=1.0)
    exact = exact_log_marginal(model, data)
    estimate = conjugate_smc(model, data, n_particles=100_000, seed=42).log_z
    rel = abs(estimate - exact) / abs(exact)
    elapsed = time.time() - start
    report(2, rel <= 0.01 and elapsed < 10.0,
           f"SMC log-marginal {estimate:.6f} vs exact {exact:.6f}, "
           f"rel err {rel:.2e} (tolerance 1e-2)", elapsed)


def test_criterion_3_copula_kernel_identities():
    """The kernels take the survival s = 1 - u and return (density,
    1 - partial): d(1 - I)/ds is the density, and the density integrates
    to one over s."""
    start = time.time()
    ok = True
    def clayton(s, v):
        return clayton_density_and_partial(s, v, 1.1)

    def gaussian(s, v):
        return gaussian_density_and_partial(s, v, 0.6)

    for a in (0.5, 0.8, 1.2, 2.0, 3.0):
        # the origin: u = 0 is s = 1
        density, tail = clayton_density_and_partial(1.0, 0.0, a)
        ok &= density == (a + 1.0) / a and tail == 1.0
    sv = np.linspace(0.1, 0.9, 5)
    ss, vv = np.meshgrid(sv, sv)
    ok &= bool(np.all(gaussian_density_and_partial(ss, vv, 0.0)[0] == 1.0))
    h = 1e-6
    for s in sv:
        for v in sv:
            num_c = (clayton(s + h, v)[1] - clayton(s - h, v)[1]) / (2 * h)
            num_g = (gaussian(s + h, v)[1] - gaussian(s - h, v)[1]) / (2 * h)
            ok &= abs(num_c / clayton(s, v)[0] - 1.0) < 1e-4
            ok &= abs(num_g / gaussian(s, v)[0] - 1.0) < 1e-4
    from scipy.integrate import quad

    for v in (0.2, 0.5, 0.8):
        mass_c, _ = quad(lambda x: clayton(x, v)[0], 0, 1, limit=200)
        mass_g, _ = quad(lambda x: gaussian(x, v)[0], 0, 1, limit=200)
        ok &= abs(mass_c - 1.0) < 1e-5 and abs(mass_g - 1.0) < 1e-5
    # the survival at the time origin stays exactly 1 (the CDF exactly 0)
    # through 2000 Clayton updates at values across (0, 1)
    points = np.array([0.0, 0.5, 2.0])
    running = predictive.RunningPredictive(ClaytonFamily(0.9), points, 50)
    draws = np.random.default_rng(3)
    for _ in range(2000):
        running.absorb(draws.random(50))
    ok &= bool(np.all(running.surv[0] == 1.0))
    ok &= bool(np.all(1.0 - running.surv[0] == 0.0))
    elapsed = time.time() - start
    report(3, ok and elapsed < 5.0,
           "origin identity exact, independence exact, 25-point "
           "finite-difference and marginal-mass checks, survival 1 at the "
           "origin after 2000 updates", elapsed)


def test_criterion_4_predictive_normalization():
    start = time.time()
    data = cs.simulate_censored_exponential(50, 1.0, 1e-12, seed=21)
    data = cs.permute(cs.standardize(data), 21)
    tuned = grid_search(data, "clayton", ClaytonFamily.tuning_grid, seed=0)
    # uncensored: every particle carries the same sequential fit
    fit = impute_smc(data, tuned.family, n_particles=2, seed=0)
    grid = GridSpec(np.concatenate([[0.0], np.geomspace(1e-8, 1e5, 4000)]))
    density, _ = ensemble_grid_rows(fit, grid)
    mass = float(np.trapezoid(density[0], grid.points))
    elapsed = time.time() - start
    report(4, 0.999 <= mass <= 1.001 and elapsed < 5.0,
           f"bandwidth {tuned.bandwidth:g} from the default grid, "
           f"integral of p_n = {mass:.6f} (window [0.999, 1.001])", elapsed)


def test_criterion_5_martingale_unbiasedness(unbiasedness_run):
    run = unbiasedness_run
    draws, start_row = run["draws"], run["start"]
    mean = draws.survival_draws.mean(axis=0)
    se = draws.survival_draws.std(axis=0, ddof=1) / np.sqrt(draws.weights.size)
    gap = np.abs(mean - start_row)
    ok = bool(np.all(gap <= 3 * np.maximum(se, 1e-12)))
    worst = float(np.max(gap / np.maximum(se, 1e-12)))
    report(5, ok and run["elapsed"] < 60.0,
           f"mean S_N vs S_n over 2000 chains at 10 grid points, "
           f"worst |z| = {worst:.2f} (limit 3)", run["elapsed"])


def test_criterion_6_degenerate_censoring_collapse():
    start = time.time()
    data = cs.simulate_censored_exponential(50, 1.0, 1e-12, seed=21)
    data = cs.permute(cs.standardize(data), 21)
    b = 500
    ensemble = impute_smc(data, ClaytonFamily(1.0), n_particles=b, seed=5)
    # one particle scores fully observed data exactly
    preq = impute_smc(data, ClaytonFamily(1.0), n_particles=1, seed=5).log_z
    gap = abs(ensemble.log_z - preq)
    ess_ok = bool(np.allclose(ensemble.ess_trace, b, rtol=1e-12))
    elapsed = time.time() - start
    report(6, ess_ok and not ensemble.resample_steps and gap < 1e-12
           and elapsed < 5.0,
           f"ESS = B at every step, zero resample events, "
           f"|logZ - prequential| = {gap:.2e} (tolerance 1e-12)", elapsed)


def test_criterion_7_ordering_effect():
    start = time.time()
    random_ess, ordered_ess = [], []
    for s in range(10):
        data = cs.simulate_censored_exponential(50, 1.0, 2.0, seed=1000 + s)
        model = ConjugateModel(a0=1.2, b0=1.0)
        shuffled = cs.permute(data, 2000 + s)
        # observed records first, each group in its simulated order
        order = np.argsort(1 - data.status, kind="stable")
        fronted = cs.SurvivalDataset(data.times[order], data.status[order])
        random_ess.append(
            conjugate_smc(model, shuffled, 2000, ess_frac=0.0, seed=s).final_ess
        )
        ordered_ess.append(
            conjugate_smc(model, fronted, 2000, ess_frac=0.0, seed=s).final_ess
        )
    ratio = float(np.median(random_ess) / np.median(ordered_ess))
    elapsed = time.time() - start
    report(7, ratio > 5.0 and elapsed < 120.0,
           f"median final ESS: random {np.median(random_ess):.0f} vs "
           f"observed-first {np.median(ordered_ess):.0f}, ratio {ratio:.1f} "
           f"(required > 5)", elapsed)


def test_criterion_8_convergence_diagnostic(unbiasedness_run):
    run = unbiasedness_run
    draws, grid = run["draws"], run["grid"]
    window = draws.w1_trace[:, -(CONVERGENCE_STEPS + 1):]
    increments = np.abs(np.diff(window, axis=1))
    span = grid.points[-1] - grid.points[0]
    frac = float(np.mean((increments < 1e-3 * span).all(axis=1)))
    report(8, frac >= 0.95,
           f"{frac:.1%} of chains have every last-{CONVERGENCE_STEPS}-step W1 "
           f"increment below 1e-3 of the grid span (required 95%)",
           run["elapsed"])


def _split_heldout(raw, seed):
    order = np.random.default_rng(seed).permutation(raw.n)
    half = raw.n // 2
    return take(raw, order[half:]), take(raw, order[:half])


def _heldout_over_splits(raw, family_kind, bandwidths, rho_x_values, n_splits=10):
    scores = []
    for split in range(n_splits):
        train_raw, test_raw = _split_heldout(raw, seed=split)
        train = cs.permute(cs.standardize(train_raw), split)
        rho_grid = rho_x_values if train.covariates is not None else None
        tuned = grid_search(train, family_kind, bandwidths, rho_grid,
                            n_particles=500, seed=split)
        ensemble = impute_smc(train, tuned.family, rho_x=tuned.rho_x,
                              n_particles=1000, seed=split)
        scores.append(heldout_mean_log_lik(
            ensemble, cs.standardize(test_raw, like=train)))
    return float(np.mean(scores)), float(np.std(scores, ddof=1) / np.sqrt(n_splits))


def test_criterion_9_conditional_real_data():
    """Informational: requires user-supplied public datasets."""
    pbc_path = os.environ.get("COPSURV_PBC_CSV")
    mel_path = os.environ.get("COPSURV_MELANOMA_CSV")
    if not pbc_path and not mel_path:
        pytest.skip(
            "set COPSURV_PBC_CSV (columns time,status,trt) and/or "
            "COPSURV_MELANOMA_CSV (columns time,status,thickness) to run "
            "the real-data comparisons"
        )
    start = time.time()
    messages = []
    if pbc_path:
        full = cs.load_csv(pbc_path, covariate_cols=["trt"])
        for arm, reference in ((1, -0.44), (2, -0.39)):
            mask = full.covariates[:, 0] == arm
            arm_data = cs.SurvivalDataset(times=full.times[mask],
                                          status=full.status[mask])
            mean, se = _heldout_over_splits(
                arm_data, "clayton", tuple(np.arange(1.1, 1.51, 0.1)), None)
            band = 3 * 0.02
            verdict = "pass" if abs(mean - reference) <= band + 3 * se else "warn"
            messages.append(
                f"pbc arm {arm}: heldout {mean:.3f} (se {se:.3f}) vs "
                f"reported {reference} -> {verdict}"
            )
    if mel_path:
        raw = cs.load_csv(mel_path, covariate_cols=["thickness"])
        mean, se = _heldout_over_splits(
            raw, "gaussian", tuple(np.arange(0.5, 0.91, 0.1)),
            tuple(np.arange(0.5, 0.91, 0.1)))
        band = 3 * 0.03
        verdict = "pass" if abs(mean - (-0.22)) <= band + 3 * se else "warn"
        messages.append(
            f"melanoma: heldout {mean:.3f} (se {se:.3f}) vs reported -0.22 "
            f"-> {verdict}"
        )
    elapsed = time.time() - start
    # informational: report but never fail
    print(f"\n[criterion 9] INFO - {'; '.join(messages)} ({elapsed:.1f}s)")


def test_criterion_10_process_determinism(tmp_path, monkeypatch):
    """The same doob and posterior configs, each run in this process, in a
    fresh interpreter with a different hash seed pinned to one CPU (so one
    worker process), in this process with one-row propagation blocks, and
    in this process with two row workers, write byte-identical
    directories."""
    start = time.time()
    sim_dir = tmp_path / "sim"
    assert cli_main(["simulate", "--seed", str(SIM_SEED), "--n", "50",
                     "--output-dir", str(sim_dir)]) == 0
    data = str(sim_dir / "data.csv")
    configs = {
        "doob": ["doob", "--seed", "99", "--input", data,
                 "--n-particles", "2000", "--n-extra", "2000"],
        "posterior": ["posterior", "--seed", "99", "--input", data,
                      "--bandwidth", "0.9", "--n-particles", "200",
                      "--n-extra", "50", "--grid-max", "1000"],
    }
    src = str(Path(cs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    identical = True
    for name, args in configs.items():
        runs = [tmp_path / name / kind
                for kind in ("in_process", "fresh", "one_row", "two_workers")]
        assert cli_main(args + ["--output-dir", str(runs[0])]) == 0
        subprocess.run([sys.executable, "-m", "copsurv.cli", *args,
                        "--output-dir", str(runs[1])],
                       env=env, check=True, capture_output=True,
                       preexec_fn=pin_to_one_cpu)
        with monkeypatch.context() as patch:
            patch.setattr(predictive, "BLOCK_ELEMS", 1)
            assert cli_main(args + ["--output-dir", str(runs[2])]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(shards, "_worker_count",
                          lambda n_items, min_items: 2)
            assert cli_main(args + ["--output-dir", str(runs[3])]) == 0
        outputs = [{p.name: p.read_bytes() for p in sorted(out.iterdir())}
                   for out in runs]
        identical &= all(out == outputs[0] for out in outputs[1:])
    elapsed = time.time() - start
    report(10, identical and elapsed < 120.0,
           "doob and posterior outputs byte-identical in-process, in a fresh "
           "interpreter (PYTHONHASHSEED=12345) on one CPU, at one-row blocks "
           "and with two row workers",
           elapsed)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
