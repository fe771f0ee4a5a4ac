"""Blocked and sharded propagation changes no output bit, and an SMC pass
pays for the copula recursion per element.

The running predictive holds one row per point and one column per
particle, and every propagation runs in blocks of whole points sized by
`predictive.BLOCK_ELEMS`; the start rows and the forward pass run in
chain shards, one per worker process.  Each pipeline stage below is run
at one point per block, at a few points per block (partial last blocks)
and with the whole array as one block, each at 1, 2 and 3 workers, and
the results are compared with `np.array_equal`.  That includes the W1
trajectories of the traced chains.  Doob's forward chains and the
tuning grid's cells run in shards through the same runner, and are
compared at 1, 2 and 3 workers too.
"""

import tracemalloc

import numpy as np
import pytest

import copsurv as cs
from copsurv import (censoring, copulas, parametric, predictive, resampling,
                     rng, shards, tune)
from copsurv.censoring import impute_smc
from copsurv.copulas import ClaytonFamily, GaussianFamily
from copsurv.errors import DegeneracyError
from copsurv.resampling import (
    GridSpec,
    _run_rows,
    ensemble_grid_rows,
    heldout_mean_log_lik,
    martingale_posterior,
    weighted_mean,
)

from conftest import make_dataset

ONE_ROW = 1
# 7 points of 64 particles, so every stage cuts a few points per block
# and ends on a partial one: the SMC pass's pending records, with
# per-point covariate weights in the Gaussian case; the 16 grid points
# (7 + 7 + 2 at one shard, 14 + 2 in 32-chain shards); and the 30 or 50
# held-out records.
FEW_ROWS = 448
WHOLE = 10**12
# Worker counts: 64 chains split at 32, and at 21 and 42.
WORKERS = (1, 2, 3)
# Traced chains: 40 straddles the shard edges at 32 and 21.
TRACE_CHAINS = 40
N_EXTRA = (30, 130)  # forward horizons


def covariate_data(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    y = np.exp(0.4 * x[:, 0]) * rng.exponential(1.0, n)
    s = (rng.random(n) > 0.3).astype(int)
    return cs.permute(cs.standardize(make_dataset(y, s, covariates=x)), seed)


@pytest.fixture(params=["clayton", "gaussian"])
def case(request, censored_exp50):
    """(data, family, rho_x, x_target, grid) of a Clayton fit without
    covariates and a Gaussian fit with one covariate."""
    if request.param == "clayton":
        grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 8.0, 15)]))
        return censored_exp50, ClaytonFamily(1.0), None, None, grid
    grid = GridSpec(np.geomspace(0.01, 8.0, 16))
    return (covariate_data(30, 4), GaussianFamily(0.5), 0.6,
            np.array([-1.3]), grid)


def at_workers(monkeypatch, workers):
    """Run every shard loop in `workers` shards, whatever its size."""
    monkeypatch.setattr(shards, "_worker_count",
                        lambda n_items, min_items: workers)


def run_stages(case, block_elems, monkeypatch):
    """Every stage's output at this block size, checked equal at each
    worker count."""
    data, family, rho_x, x_target, grid = case
    monkeypatch.setattr(predictive, "BLOCK_ELEMS", block_elems)
    # ess_frac 0.95 makes the pass resample, so the engine's select runs
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64,
                     ess_frac=0.95, seed=5)
    assert ens.resample_steps
    stages = {
        "v_matrix": ens.v_matrix, "log_weights": ens.log_weights,
        "log_z": ens.log_z, "ess_trace": ens.ess_trace,
        "unique_trace": ens.unique_trace,
        "resample_steps": ens.resample_steps,
    }
    sharded = []
    for workers in WORKERS:
        at_workers(monkeypatch, workers)
        sharded.append(row_stages(ens, data, x_target, grid))
    for workers, other in zip(WORKERS[1:], sharded[1:]):
        for name, value in sharded[0].items():
            assert np.array_equal(other[name], value), (workers, name)
    return {**stages, **sharded[0]}


def row_stages(ens, data, x_target, grid):
    """The outputs of the stages that run the rows in workers."""
    start = ensemble_grid_rows(ens, grid, x_target)
    stages = {"start_density": start[0], "start_survival": start[1],
              "heldout": heldout_mean_log_lik(ens, data)}
    for n_extra in N_EXTRA:
        draws = martingale_posterior(ens, n_extra, grid, x_target, seed=7,
                                     trace_chains=TRACE_CHAINS)
        check_w1_trace(draws, start[1], n_extra)
        for name in ("survival_draws", "density_draws", "medians",
                     "w1_trace", "predictive_density",
                     "predictive_survival"):
            stages[f"{name}@{n_extra}"] = getattr(draws, name)
    return stages


def check_w1_trace(draws, start_surv, n_extra):
    """The traced chains' trajectories start at 0 and end at np.trapezoid
    of their final survival rows, bit for bit (W1 is computed on the
    survival: |dS| = |dF|)."""
    assert draws.w1_trace.shape == (TRACE_CHAINS, n_extra + 1)
    traced = slice(TRACE_CHAINS)
    final = np.trapezoid(
        np.abs(draws.survival_draws[traced] - start_surv[traced]),
        draws.grid.points, axis=-1)
    assert np.array_equal(draws.w1_trace[:, -1], final)
    assert np.all(draws.w1_trace[:, 0] == 0.0)


@pytest.mark.parametrize("workers", WORKERS)
def test_w1_trace_is_trapezoid_at_every_step(case, monkeypatch, workers):
    """Every chain traced, at each worker count: column t of the trace is
    np.trapezoid of the chains' step-t survival rows against their start
    rows, bit for bit.  A chain's forward draws depend only on (seed,
    step, chain), so a run of horizon t ends on the rows at step t of a
    longer run."""
    data, family, rho_x, x_target, grid = case
    at_workers(monkeypatch, workers)
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64, seed=5)
    long = martingale_posterior(ens, 30, grid, x_target, seed=7,
                                trace_chains=ens.n_particles)
    start = ensemble_grid_rows(ens, grid, x_target)[1]
    for t in (1, 2, 17, 30):
        rows = martingale_posterior(ens, t, grid, x_target,
                                    seed=7).survival_draws
        expected = np.trapezoid(np.abs(rows - start), grid.points, axis=-1)
        assert np.array_equal(long.w1_trace[:, t], expected), t


def test_block_size_changes_no_bit(case, monkeypatch):
    whole = run_stages(case, WHOLE, monkeypatch)
    for block_elems in (ONE_ROW, FEW_ROWS):
        blocked = run_stages(case, block_elems, monkeypatch)
        for name, value in whole.items():
            assert np.array_equal(blocked[name], value), (block_elems, name)


def test_heldout_matches_per_record_evaluation(case):
    """The one-pass held-out score equals scoring each record through its
    own propagation, bit for bit."""
    data, family, rho_x, _, _ = case
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64, seed=5)
    total = 0.0
    for i in range(data.n):
        x = data.covariates[i] if rho_x is not None else None
        out = _run_rows(ens, [data.times[i]], x)
        mass = out["dens"] if data.status[i] == 1 else out["surv"]
        total += np.log(weighted_mean(mass, ens.weights)[0])
    assert heldout_mean_log_lik(ens, data) == float(total / data.n)


def test_running_state_matches_repropagation(case):
    """Without resampling, each particle's log weight is the sum over
    records of its predictive score at the record, given the records
    before it; re-propagating each record through that prefix reproduces
    the running-state pass bit for bit."""
    data, family, rho_x, _, _ = case
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64,
                     ess_frac=0.0, seed=5)
    log_w = np.zeros(ens.n_particles)
    for i in range(data.n):
        head = cs.ParticleEnsemble(**{**vars(ens),
                                      "v_matrix": ens.v_matrix[:i]})
        x = data.covariates[i] if rho_x is not None else None
        out = _run_rows(head, [data.times[i]], x)
        dens, surv = out["dens"][:, 0], out["surv"][:, 0]
        with np.errstate(divide="ignore"):
            if data.status[i] == 1:
                log_w += np.log(dens)
            else:
                dead = surv <= copulas.CLAMP_EPS
                log_w += np.where(dead, -np.inf, np.log(surv))
    assert np.array_equal(log_w, ens.log_weights)


def test_smc_pass_calls_the_kernel_once_per_record(monkeypatch):
    """When n * B fits one block, absorbing a record is at most one kernel
    call with a density, over its pending observed records, and one
    without, over its pending censored ones; re-propagating each record
    through the absorbed history would take n(n-1)/2 calls."""
    data = cs.permute(cs.simulate_censored_exponential(20, 1.0, 2.0, seed=3),
                      3)
    assert data.n * 8 <= predictive.BLOCK_ELEMS
    calls = {True: [], False: []}
    kernel = copulas.clayton_density_and_partial

    def counted(u, v, a, **kwargs):
        calls[kwargs.get("density", True)].append(np.size(u))
        return kernel(u, v, a, **kwargs)

    monkeypatch.setattr(copulas, "clayton_density_and_partial", counted)
    impute_smc(data, ClaytonFamily(0.9), n_particles=8, seed=1)
    assert len(calls[True]) <= data.n
    assert len(calls[False]) <= data.n


def pin_one_worker(monkeypatch):
    """tracemalloc sees neither a worker process nor the shared mapping
    of the rows, so a memory test runs its rows in this process."""
    at_workers(monkeypatch, 1)


@pytest.mark.parametrize("family", [ClaytonFamily(0.9), GaussianFamily(0.6)])
def test_absorb_allocates_no_block_array(family):
    """The recursion runs its kernel in the running predictive's scratch
    set: a sweep over four blocks' worth of points of a shared covariate
    target, absorbing a record of one covariate vector (a scalar weight)
    and one of a covariate row per particle (per-particle weights), peaks
    below one block-shaped float64 array.  (What it does allocate is
    numpy's ufunc buffer, of np.getbufsize() values, and the clamped
    values; a strided operand would add one such buffer each.)"""
    points = 64
    b = 4 * predictive.BLOCK_ELEMS // points
    running = predictive.RunningPredictive(
        family, np.geomspace(0.01, 8.0, points), b, rho_x=0.6,
        x_points=np.array([0.3, -1.2]))
    draws = np.random.default_rng(3)
    v = draws.uniform(0.01, 0.99, b)
    per_particle = draws.normal(size=(b, 2))
    tracemalloc.start()
    try:
        running.absorb(v, np.array([0.5, 0.1]))
        _, scalar_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        running.absorb(v, per_particle)
        _, per_particle_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scalar_peak < 8 * predictive.BLOCK_ELEMS
    assert per_particle_peak < 8 * predictive.BLOCK_ELEMS


@pytest.mark.parametrize("family", [ClaytonFamily(0.9), GaussianFamily(0.6)])
def test_smc_engine_absorbs_a_record_without_a_block_array(family):
    """The SMC engine steps to the contiguous slab of the records after
    the one it absorbs: absorbing its third record, two rows into its
    state, peaks below one block-shaped float64 array.  (A sweep over
    strided column views would add one ufunc buffer per strided
    operand.)"""
    points = 64
    b = 4 * predictive.BLOCK_ELEMS // points
    times = np.geomspace(0.01, 8.0, points)
    engine = censoring._CopulaEngine(family, None, None, times,
                                     np.ones(points, dtype=int), b)
    v = np.random.default_rng(3).uniform(0.01, 0.99, b)
    for t in times[:2]:
        engine.absorb_record(t, v, True)
    tracemalloc.start()
    try:
        engine.absorb_record(times[2], v, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * predictive.BLOCK_ELEMS


def test_smc_pass_hands_the_kernel_contiguous_survival_blocks(case,
                                                              monkeypatch):
    """Every survival block the SMC pass hands the kernel is C-contiguous:
    the pending records are a slab of whole rows of the point-major state,
    also after `select` has gathered its columns (ess_frac 0.95 makes the
    pass resample)."""
    data, family, rho_x, _, _ = case
    monkeypatch.setattr(predictive, "BLOCK_ELEMS", FEW_ROWS)
    contiguous = []

    def checking(kernel):
        def wrapper(s, v, param, **kwargs):
            contiguous.append(s.flags.c_contiguous)
            return kernel(s, v, param, **kwargs)
        return wrapper

    for name in ("clayton_density_and_partial",
                 "gaussian_density_and_partial"):
        monkeypatch.setattr(copulas, name, checking(getattr(copulas, name)))
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64,
                     ess_frac=0.95, seed=5)
    assert ens.resample_steps
    assert len(contiguous) > data.n and all(contiguous)


@pytest.mark.parametrize("block_elems", [FEW_ROWS, WHOLE])
def test_every_absorbed_element_passes_the_kernel_seam(case, monkeypatch,
                                                       block_elems):
    """The recursion reaches its kernel through the `copulas` module
    global, so a wrapper put there (perfbench's tracer counts kernel
    calls and elements this way) sees the SMC pass, the start rows and
    the forward pass, and the broadcast shapes of each call's first two
    arguments add up to the elements absorbed: B times the pending
    records summed over the records in the pass, and B times G per
    absorbed record on a grid."""
    pin_one_worker(monkeypatch)
    monkeypatch.setattr(predictive, "BLOCK_ELEMS", block_elems)
    data, family, rho_x, x_target, grid = case
    b, g, n_extra = 64, grid.points.size, 30
    seen = {"calls": 0, "elems": 0}

    def counting(kernel):
        def wrapper(s, v, param, **kwargs):
            seen["calls"] += 1
            seen["elems"] += np.prod(np.broadcast_shapes(np.shape(s),
                                                         np.shape(v)))
            return kernel(s, v, param, **kwargs)
        return wrapper

    for name in ("clayton_density_and_partial",
                 "gaussian_density_and_partial"):
        monkeypatch.setattr(copulas, name, counting(getattr(copulas, name)))

    def counted(call):
        seen.update(calls=0, elems=0)
        result = call()
        return result, seen["calls"], seen["elems"]

    n = data.n
    ens, calls, elems = counted(lambda: impute_smc(
        data, family, rho_x=rho_x, n_particles=b, seed=5))
    assert elems == b * n * (n - 1) // 2
    assert calls >= n - 1
    _, calls, elems = counted(lambda: ensemble_grid_rows(ens, grid, x_target))
    assert elems == b * g * n
    assert calls >= n
    _, calls, elems = counted(lambda: martingale_posterior(
        ens, n_extra, grid, x_target, seed=7))
    assert elems == b * g * (n + n_extra)
    assert calls >= n + n_extra


def test_row_shards_keep_their_own_minimum(censored_exp50, monkeypatch):
    """The row-shard minimum is resampling.ROW_SHARD_ELEMS, not a row
    block: at B = 500 particles and G = 100 points, a process that may
    use two CPUs runs the start rows in two shards."""
    worker_count = shards._worker_count
    counts = []

    def counted(n_items, min_items):
        counts.append(worker_count(n_items, min_items))
        return counts[-1]

    monkeypatch.setattr(shards.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(shards, "_worker_count", counted)
    ens = impute_smc(censored_exp50, ClaytonFamily(1.0), n_particles=500,
                     seed=1)
    _run_rows(ens, np.geomspace(0.01, 8.0, 100), None)
    assert counts == [2]


def test_covariate_pass_and_heldout_hold_no_pairwise_table(monkeypatch):
    """With covariates, neither the SMC pass nor held-out scoring holds an
    (n, n) weight table or (n, n, d) temporaries: their peak allocation
    stays below one (n, n) float64 table, at n = 400 about 16 times the
    (n, B) running state of B = 8 particles."""
    pin_one_worker(monkeypatch)
    data = covariate_data(400, 2)
    table_bytes = 8 * data.n * data.n
    tracemalloc.start()
    try:
        ens = impute_smc(data, GaussianFamily(0.5), rho_x=0.6, n_particles=8,
                         seed=1)
        _, smc_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        heldout_mean_log_lik(ens, data)
        _, heldout_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert smc_peak < table_bytes
    assert heldout_peak < table_bytes


def test_forward_pass_holds_no_full_w1_buffer(monkeypatch):
    """W1 is kept only where it is read: at B = 400 chains and 2000
    forward steps, the posterior's peak allocation stays below one
    (B, n_extra + 1) float64 trace."""
    pin_one_worker(monkeypatch)
    data = cs.permute(cs.standardize(
        cs.simulate_censored_exponential(20, 1.0, 2.0, seed=3)), 3)
    ens = impute_smc(data, ClaytonFamily(0.9), n_particles=400, seed=1)
    grid = GridSpec(np.concatenate([[0.0], np.geomspace(0.01, 1e3, 15)]))
    n_extra = 2000
    tracemalloc.start()
    try:
        martingale_posterior(ens, n_extra, grid, seed=2, trace_chains=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 400 * (n_extra + 1)


@pytest.mark.parametrize("trace_chains", [0, 5, 64])
def test_forward_pass_computes_w1_of_traced_chains_only(case, monkeypatch,
                                                        trace_chains):
    """Of B = 64 chains over 30 forward steps, only the first
    `trace_chains` compute a W1, in one call of `trace_chains` rows per
    step; an untraced chain pays for none."""
    pin_one_worker(monkeypatch)
    data, family, rho_x, x_target, grid = case
    ens = impute_smc(data, family, rho_x=rho_x, n_particles=64, seed=5)
    w1_rows = resampling._w1_rows
    rows = []

    def counted(a, *args):
        rows.append(a.shape[0])
        return w1_rows(a, *args)

    monkeypatch.setattr(resampling, "_w1_rows", counted)
    martingale_posterior(ens, 30, grid, x_target, seed=7,
                         trace_chains=trace_chains)
    assert rows == ([trace_chains] * 30 if trace_chains else [])


def test_alpha_regression_runs_once_per_absorbed_record(monkeypatch):
    """With covariates, an absorbed record's weights come from one
    `alpha_regression` call, however many row blocks its absorption
    takes: in the SMC pass and in the start rows of a shared target."""
    original = copulas.alpha_regression
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in (copulas, predictive, resampling):
        if hasattr(module, "alpha_regression"):
            monkeypatch.setattr(module, "alpha_regression", counted)
    monkeypatch.setattr(predictive, "BLOCK_ELEMS", 16)
    data = covariate_data(30, 4)
    ens = impute_smc(data, GaussianFamily(0.5), rho_x=0.6, n_particles=64,
                     seed=5)
    assert len(calls) == data.n
    calls.clear()
    _run_rows(ens, np.geomspace(0.01, 8.0, 16), np.array([-1.3]))
    assert len(calls) == data.n


@pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 4999])
def test_uniforms_from_an_offset_are_the_slice_of_the_whole_draw(start):
    whole = rng.uniforms(11, rng.STREAM_FORWARD, 7, 5010)
    for count in (0, 1, 6, 11):
        part = rng.uniforms(11, rng.STREAM_FORWARD, 7, count, start)
        assert np.array_equal(part, whole[start:start + count])


def reference_doob_forward(ensemble, n_extra, seed):
    """Doob's forward loop over all chains at once, each step drawing the
    whole stream: theta_bar."""
    a, b = ensemble.a, ensemble.b.copy()
    for step in range(n_extra):
        u = rng.uniforms(seed, rng.STREAM_FORWARD, step, b.size)
        a = parametric._absorb_lomax_draw(a, b, u)
    return b / (a - 1.0)


def test_doob_chain_shards_change_no_bit(censored_exp50, monkeypatch):
    """theta_bar, at 1, 2 and 3 chain shards, equals the loop over all
    chains."""
    model = parametric.ConjugateModel(a0=1.5)
    for workers in WORKERS:
        at_workers(monkeypatch, workers)
        result = parametric.doob_demo(model, censored_exp50, 64, 30, seed=3,
                                      ess_frac=0.95)
        theta_bar = reference_doob_forward(result.ensemble, 30, 3)
        assert np.array_equal(result.theta_bar, theta_bar), workers


def test_grid_cell_shards_change_no_bit(monkeypatch):
    """A covariate grid of 3 bandwidths x 2 rho_x values, one bandwidth
    degenerate, gives the same table and argmax at 1, 2 and 3 cell
    shards; a degenerate cell scores (-inf, 0)."""
    data = covariate_data(30, 4)
    score = tune.impute_smc

    def degenerate_at_0_6(data, family, **kwargs):
        if family.bandwidth == 0.6:
            raise DegeneracyError("all particle weights vanished")
        return score(data, family, **kwargs)

    monkeypatch.setattr(tune, "impute_smc", degenerate_at_0_6)
    results = []
    for workers in WORKERS:
        at_workers(monkeypatch, workers)
        results.append(tune.grid_search(data, "gaussian", (0.8, 0.4, 0.6),
                                        (0.3, 0.7), n_particles=64, seed=6))
    first = results[0]
    assert [(c.bandwidth, c.rho_x) for c in first.table] == [
        (0.4, 0.3), (0.4, 0.7), (0.6, 0.3), (0.6, 0.7), (0.8, 0.3),
        (0.8, 0.7)]
    assert [c[2:] for c in first.table[2:4]] == [(-np.inf, 0.0)] * 2
    assert all(np.isfinite(c.score) for c in first.table if c.bandwidth != 0.6)
    for other in results[1:]:
        assert other.table == first.table
        assert (other.bandwidth, other.rho_x, other.score) == (
            first.bandwidth, first.rho_x, first.score)
