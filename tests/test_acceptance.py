"""Acceptance suite: one test per exit criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavy Monte Carlo ensembles (200 paths to t=2000) are session fixtures
shared with the harness tests; their build times count against the stated
runtime budgets.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import chemlevy as cl
from chemlevy import (
    IntervalNumber,
    SimConfig,
    SimulationError,
    State,
    add,
    beta,
    classify,
    divide,
    ensemble,
    interval_value,
    multiply,
    r0s,
    r1s,
    scalar_mul,
    simulate,
    simulate_ode,
    subtract,
)
from chemlevy.cli import write_ensemble_csv, write_terminal_csv, write_trajectory_csv
from chemlevy.integrator import derive_path_seed, simulate_batch
from conftest import (
    INITIAL,
    TWO_MARKS,
    WORKERS,
    make_extinction,
    make_persistence,
    make_prey_only,
    path_config,
    random_crisp_model,
)

I = IntervalNumber


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# 1. interval laws
# ---------------------------------------------------------------------------

def test_criterion_01_interval_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    ok = True
    for _ in range(1000):
        a_lo, a_hi = sorted(rng.uniform(-10.0, 10.0, size=2))
        b_lo, b_hi = sorted(rng.uniform(-10.0, 10.0, size=2))
        a, b = I(a_lo, a_hi), I(b_lo, b_hi)
        for res in (add(a, b), subtract(a, b), multiply(a, b)):
            ok &= res.lower <= res.upper
        if not (b.lower <= 0.0 <= b.upper):
            q = divide(a, b)
            ok &= q.lower <= q.upper
        x, y = rng.uniform(-10.0, 10.0, size=2)
        ok &= add(I(x, x), I(y, y)) == I(x + y, x + y)
        ok &= subtract(I(x, x), I(y, y)) == I(x - y, x - y)
        ok &= multiply(I(x, x), I(y, y)) == I(x * y, x * y)
        ok &= multiply(a, b) == multiply(b, a)
        alpha = float(rng.uniform(0.01, 4.0))
        ok &= scalar_mul(alpha, a) == multiply(I(alpha, alpha), a)
    for _ in range(1000):
        lo, hi = sorted(rng.uniform(0.01, 10.0, size=2))
        iv = I(lo, hi)
        ok &= interval_value(iv, 0.0) == lo
        ok &= interval_value(iv, 1.0) == hi
        p1, p2 = sorted(rng.uniform(0.0, 1.0, size=2))
        ok &= interval_value(iv, p1) <= interval_value(iv, p2) * (1.0 + 1e-12)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, "interval laws", ok, f"runtime {elapsed:.2f}s (< 1s)")
    assert ok


# ---------------------------------------------------------------------------
# 2. threshold formula oracle
# ---------------------------------------------------------------------------

def test_criterion_02_threshold_formulas():
    ext = make_extinction()
    pers = make_persistence()

    # spreadsheet-style recomputation, independent of the library call path
    beta_ext = 0.5 * 0.1 * 0.1                      # no jumps: sigma^2 / 2
    r0_ext_expected = 1.0 * 0.4 / (0.5 + beta_ext)  # = 0.79207920792...
    r1_pers_expected = (4.0 * 1.0 * 0.6 * 0.5
                        / (0.6 * 0.5 * (0.2 + beta_ext) + 1.0 * (0.2 + beta_ext)))

    checks = []
    checks.append(abs(r0s(ext) / r0_ext_expected - 1.0) < 1e-12)
    checks.append(abs(r1s(pers) / r1_pers_expected - 1.0) < 1e-12)
    checks.append(abs(r0s(ext) - 0.79208) < 5e-6)
    checks.append(abs(r1s(pers) - 4.5028) < 5e-5)
    for model in (ext, pers):
        for i in (1, 2, 3):
            checks.append(abs(beta(model, i) / beta_ext - 1.0) < 1e-12)

    rng = np.random.default_rng(2002)
    ordering = all(r1s(m) < r0s(m)
                   for m in (random_crisp_model(rng) for _ in range(10_000)))
    checks.append(ordering)

    ok = all(checks)
    report(2, "threshold formula oracle", ok,
           f"R0s(ext)={r0s(ext):.12g} R1s(pers)={r1s(pers):.12g} "
           f"ordering on 10000 models: {ordering}")
    assert ok


# ---------------------------------------------------------------------------
# 3. zero-noise reduction
# ---------------------------------------------------------------------------

def test_criterion_03_zero_noise_reduction():
    start = time.perf_counter()
    model = make_persistence().with_sigmas(0.0, 0.0, 0.0)
    config = SimConfig(initial=INITIAL, t_end=50.0, dt=1e-3, seed=7,
                       output_stride=100)
    sde = simulate(model, config)
    ode = simulate_ode(model, config)
    rel = max(
        float(np.max(np.abs(sde.S - ode.S) / np.abs(ode.S))),
        float(np.max(np.abs(sde.x - ode.x) / np.abs(ode.x))),
        float(np.max(np.abs(sde.y - ode.y) / np.abs(ode.y))),
    )

    def rk4(dt, stride):
        return simulate_ode(model, SimConfig(initial=INITIAL, t_end=50.0,
                                             dt=dt, output_stride=stride))

    coarse, half, ref = rk4(0.05, 20), rk4(0.025, 40), rk4(0.00625, 160)

    def err(traj):
        return max(float(np.max(np.abs(traj.S - ref.S))),
                   float(np.max(np.abs(traj.x - ref.x))),
                   float(np.max(np.abs(traj.y - ref.y))))

    ratio = err(coarse) / err(half)
    elapsed = time.perf_counter() - start
    ok = rel < 1e-3 and ratio >= 8.0 and elapsed < 10.0
    report(3, "zero-noise reduction", ok,
           f"max rel err {rel:.2e} (< 1e-3), halving ratio {ratio:.1f} (>= 8), "
           f"runtime {elapsed:.1f}s (< 10s)")
    assert ok


# ---------------------------------------------------------------------------
# 4. positivity with jumps
# ---------------------------------------------------------------------------

def _positivity_records(args):
    """(min S, min x, min y, floor times) of each path of a group, stepped
    together by simulate_batch; an abort is raised."""
    model, config, indices = args
    _, paths = simulate_batch(model, config,
                              [derive_path_seed(config.seed, i) for i in indices])
    records = []
    for traj in paths:
        if isinstance(traj, SimulationError):
            raise traj
        records.append((float(traj.S.min()), float(traj.x.min()), float(traj.y.min()),
                        traj.floor_times))
    return records


def test_criterion_04_positivity():
    start = time.perf_counter()
    models = [make_extinction(jumps=TWO_MARKS), make_prey_only(jumps=TWO_MARKS),
              make_persistence(jumps=TWO_MARKS)]
    config = SimConfig(initial=INITIAL, t_end=500.0, dt=0.01, seed=404,
                       output_stride=100)
    # each model's 200 paths in one group per worker, wide enough to batch
    tasks = [(model, config, range(200 * k // WORKERS, 200 * (k + 1) // WORKERS))
             for model in models for k in range(WORKERS)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        records = [r for group in pool.map(_positivity_records, tasks) for r in group]
    min_state = min(min(r[0], r[1], r[2]) for r in records)
    no_pins = all(all(ft is None for ft in r[3]) for r in records)
    elapsed = time.perf_counter() - start
    ok = min_state > 0.0 and no_pins and len(records) == 600 and elapsed < 120.0
    report(4, "positivity under jumps", ok,
           f"600 paths, min recorded state {min_state:.3e} (> 0, pre-pin), "
           f"aborts 0, runtime {elapsed:.0f}s (< 2min)")
    assert ok


# ---------------------------------------------------------------------------
# 5. extinction regime
# ---------------------------------------------------------------------------

def test_criterion_05_extinction(ens_extinction, ensemble_build_seconds):
    model = make_extinction()
    preds = classify(model).predictions
    term = ens_extinction.terminal
    med_rx = float(np.median(term["rate_x"]))
    med_ry = float(np.median(term["rate_y"]))
    med_ms = float(np.median(term["mean_S"]))
    elapsed = ensemble_build_seconds["extinction"]
    checks = [
        med_rx <= preds.x_lyapunov_bound + 0.02,
        med_ry <= preds.y_lyapunov_bound + 0.02,
        abs(med_ms - 1.0) <= 0.05 * 1.0,
        elapsed < 300.0,
    ]
    ok = all(checks)
    report(5, "extinction regime", ok,
           f"med ln x/t {med_rx:.4f} <= {preds.x_lyapunov_bound + 0.02:.4f}; "
           f"med ln y/t {med_ry:.4f} <= {preds.y_lyapunov_bound + 0.02:.4f}; "
           f"med <S> {med_ms:.4f} in 1.0 +- 5%; build {elapsed:.0f}s (< 5min)")
    assert ok


# ---------------------------------------------------------------------------
# 6. prey-only regime
# ---------------------------------------------------------------------------

def test_criterion_06_prey_only(ens_prey_only):
    # oracle recomputed by hand for m2 = 0.05 (R1s < 1 < R0s by construction)
    b = 0.5 * 0.1 * 0.1
    s_lim = (0.2 + b) / 1.0
    r0_exp = 4.0 * 1.0 / (0.2 + b)
    x_lim = (0.5 / 1.0) * (0.2 + b) * (r0_exp - 1.0)
    r1_exp = (4.0 * 1.0 * 0.05 * 0.5
              / (0.05 * 0.5 * (0.2 + b) + 1.0 * (0.2 + b)))
    y_bound = (0.05 * 0.5 * (0.2 + b) / 1.0 + 0.2 + b) * (r1_exp - 1.0)

    model = make_prey_only()
    rep = classify(model)
    preds = rep.predictions
    aligned = (rep.regime is cl.Regime.PREY_ONLY
               and abs(preds.S_mean_limit / s_lim - 1.0) < 1e-12
               and abs(preds.x_mean_limit / x_lim - 1.0) < 1e-12
               and abs(preds.y_lyapunov_bound / y_bound - 1.0) < 1e-12)

    term = ens_prey_only.terminal
    med_ms = float(np.median(term["mean_S"]))
    med_mx = float(np.median(term["mean_x"]))
    med_ry = float(np.median(term["rate_y"]))
    checks = [
        aligned,
        abs(med_ms - s_lim) <= 0.05 * s_lim,
        abs(med_mx - x_lim) <= 0.05 * x_lim,
        med_ry <= y_bound + 0.02,
    ]
    ok = all(checks)
    report(6, "prey-only regime", ok,
           f"med <S> {med_ms:.4f} vs {s_lim:.4f} +- 5%; "
           f"med <x> {med_mx:.4f} vs {x_lim:.4f} +- 5%; "
           f"med ln y/t {med_ry:.4f} <= {y_bound + 0.02:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. persistence regime
# ---------------------------------------------------------------------------

def test_criterion_07_persistence(ens_persistence):
    # lower bound recomputed by hand
    b = 0.5 * 0.1 * 0.1
    r1_exp = 4.0 * 1.0 * 0.6 * 0.5 / (0.6 * 0.5 * (0.2 + b) + 1.0 * (0.2 + b))
    bound = (1.0 * 0.5 / (1.0 * 0.6 + 0.6 ** 2 * 0.5)
             * (0.6 * 0.5 * (0.2 + b) / 1.0 + 0.2 + b) * (r1_exp - 1.0))
    rep = classify(make_persistence())
    aligned = abs(rep.predictions.y_mean_lower_bound / bound - 1.0) < 1e-12

    p5 = float(np.percentile(ens_persistence.terminal["mean_y"], 5.0))
    ok = aligned and p5 >= bound * (1.0 - 0.05)
    report(7, "persistence regime", ok,
           f"p5 terminal <y> {p5:.4f} >= {bound:.4f} - 5% = {bound * 0.95:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 8. budget identity
# ---------------------------------------------------------------------------

def test_criterion_08_budget_identity(ens_extinction):
    phi = ens_extinction.terminal["phi"]
    frac = float(np.mean(np.abs(phi) < 0.05 * 1.0))
    ok = frac >= 0.95
    report(8, "budget identity", ok,
           f"|phi(T)| < 0.05*S0 for {frac:.1%} of {len(phi)} paths (>= 95%)")
    assert ok


# ---------------------------------------------------------------------------
# 9. martingale strong law
# ---------------------------------------------------------------------------

def test_criterion_09_martingale_slln(ens_persistence_jumps):
    term = ens_persistence_jumps.terminal
    n = len(term["path"])
    t_end = ens_persistence_jumps.horizon
    mb = term["brownian_over_t"].mean(axis=0)
    mj = term["comp_jump_over_t"].mean(axis=0)
    se_b = 0.1 / math.sqrt(t_end * n)
    lam_ln2 = 0.5 * math.log(0.7) ** 2 + 0.5 * math.log(1.5) ** 2
    se_j = math.sqrt(lam_ln2 / t_end / n)
    ok = bool(np.all(np.abs(mb) <= 3.0 * se_b) and np.all(np.abs(mj) <= 3.0 * se_j))
    report(9, "martingale strong law", ok,
           f"|mean M_i/T| {np.abs(mb).max():.2e} <= {3 * se_b:.2e}; "
           f"|mean Mj_i/T| {np.abs(mj).max():.2e} <= {3 * se_j:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 10. reproducibility
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    model = make_persistence(jumps=TWO_MARKS)
    config = SimConfig(initial=INITIAL, t_end=100.0, dt=0.02, seed=88,
                       output_stride=50)

    def emit(tag, workers):
        directory = tmp_path / tag
        directory.mkdir()
        summary = ensemble(model, config, 10, workers=workers)
        write_ensemble_csv(summary, directory / "ensemble_summary.csv")
        write_terminal_csv(summary, directory / "ensemble_terminal.csv")
        traj = simulate(model, path_config(config, 0))
        write_trajectory_csv(traj, model, directory / "trajectory.csv")
        return {name: (directory / name).read_bytes()
                for name in ("ensemble_summary.csv", "ensemble_terminal.csv",
                             "trajectory.csv")}

    first = emit("run1", workers=1)
    second = emit("run2", workers=1)
    parallel = emit("run3", workers=WORKERS)
    rerun_ok = first == second
    workers_ok = first == parallel
    ok = rerun_ok and workers_ok
    report(10, "reproducibility", ok,
           f"rerun byte-identical: {rerun_ok}; "
           f"1 vs {WORKERS} workers byte-identical: {workers_ok}")
    assert ok
