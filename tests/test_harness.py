"""Ensembles, claim verification, martingale diagnostics, and p-sweeps."""

import collections
import dataclasses
import math
import os
import re
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chemlevy as cl
from chemlevy import (
    IntervalNumber,
    Regime,
    SimConfig,
    State,
    VerifyTolerances,
    classify,
    crispify,
    ensemble,
    p_sweep,
    simulate,
    verify,
)
from conftest import (
    INITIAL,
    TWO_MARKS,
    RecordingPool,
    make_extinction,
    make_persistence,
    make_prey_only,
    path_config,
    run_fresh,
)

I = IntervalNumber


def small_config(**kw) -> SimConfig:
    base = dict(initial=INITIAL, t_end=500.0, dt=0.02, seed=42, output_stride=50)
    base.update(kw)
    return SimConfig(**base)


def test_single_path_ensemble_percentiles_collapse():
    model = make_persistence()
    summary = ensemble(model, small_config(t_end=50.0), 1)
    traj = simulate(model, path_config(small_config(t_end=50.0), 0))
    for stat in ("mean", "p5", "p50", "p95"):
        assert np.array_equal(summary.series["S"][stat], traj.S)
        assert np.array_equal(summary.series["mean_y"][stat], traj.mean_y)


def test_deterministic_ensemble_has_zero_spread():
    model = make_persistence().with_sigmas(0.0, 0.0, 0.0)
    summary = ensemble(model, small_config(t_end=50.0), 8)
    for name in ("S", "x", "y", "mean_S", "mean_x", "mean_y"):
        s = summary.series[name]
        assert np.array_equal(s["p5"], s["p95"])  # identical paths, zero spread
        # the mean accumulates rounding that the order statistics do not
        assert np.allclose(s["mean"], s["p50"], rtol=1e-14, atol=0)


def test_ensemble_reproducible():
    model = make_persistence(jumps=TWO_MARKS)
    a = ensemble(model, small_config(t_end=100.0), 12)
    b = ensemble(model, small_config(t_end=100.0), 12)
    for name in a.series:
        for stat in a.series[name]:
            assert np.array_equal(a.series[name][stat], b.series[name][stat],
                                  equal_nan=True)
    for key in a.terminal:
        assert np.array_equal(a.terminal[key], b.terminal[key])


def test_ensemble_worker_count_does_not_change_results():
    model = make_extinction(jumps=TWO_MARKS)
    a = ensemble(model, small_config(t_end=100.0), 8, workers=1)
    b = ensemble(model, small_config(t_end=100.0), 8, workers=2)
    for name in a.series:
        for stat in a.series[name]:
            assert np.array_equal(a.series[name][stat], b.series[name][stat],
                                  equal_nan=True)
    assert np.array_equal(a.extinct_x_frac, b.extinct_x_frac)


# a narrow and a wide group per worker
@pytest.mark.parametrize("n_paths", [6, 80])
def test_path_alone_equals_path_in_pooled_ensemble(monkeypatch, n_paths):
    model = make_extinction(jumps=TWO_MARKS)
    config = small_config(t_end=20.0, output_stride=10)
    # a threshold that some paths cross mid-run and others never do
    threshold = 1e-4
    monkeypatch.setattr(cl.harness, "EXTINCTION_THRESHOLD", threshold)
    summary = ensemble(model, config, n_paths, workers=2)
    flags = {"x": [], "y": []}
    for i in range(n_paths):
        traj = simulate(model, path_config(config, i))
        assert np.array_equal(summary.times, traj.times)
        for name in flags:
            flags[name].append(np.logical_or.accumulate(getattr(traj, name) < threshold))
        if i not in (0, 5, n_paths - 1):
            continue
        term = summary.terminal
        assert term["path"][i] == i
        assert term["mean_S"][i] == traj.mean_S[-1]
        assert term["mean_y"][i] == traj.mean_y[-1]
        assert term["rate_x"][i] == traj.rate_x
        assert term["rate_y"][i] == traj.rate_y
        assert np.array_equal(term["brownian_over_t"][i], traj.brownian / 20.0)
        assert np.array_equal(term["comp_jump_over_t"][i], traj.comp_jump / 20.0)
    for name, frac in (("x", summary.extinct_x_frac), ("y", summary.extinct_y_frac)):
        per_path = np.array(flags[name])
        assert np.array_equal(summary.terminal[f"extinct_{name}"], per_path[:, -1])
        assert np.array_equal(frac, np.mean(per_path, axis=0))
    assert 0.0 < summary.extinct_x_frac[-1] < 1.0
    assert summary.extinct_y_frac[0] < summary.extinct_y_frac[-1]


@pytest.mark.parametrize("n_paths, workers, pools", [
    (3, 64, [3]), (3, 2, [2]), (1, 64, []), (5, 1, [])])
def test_pool_never_has_more_workers_than_paths(monkeypatch, n_paths, workers, pools):
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    summary = ensemble(make_extinction(), small_config(t_end=2.0), n_paths, workers=workers)
    assert RecordingPool.sizes == pools
    assert list(summary.terminal["path"]) == list(range(n_paths))


@pytest.mark.parametrize("n_paths, workers, scheme", [
    (1, 1, cl.LOG_EULER), (39, 1, cl.LOG_EULER), (40, 1, cl.LOG_EULER), (79, 2, cl.LOG_EULER),
    (1, 1, cl.DIRECT_EULER), (40, 1, cl.DIRECT_EULER), (79, 2, cl.DIRECT_EULER),
])
def test_log_euler_paths_run_compiled_and_the_others_in_python(monkeypatch, compiled, n_paths,
                                                                workers, scheme):
    """Each worker's group is one simulate_batch, whose paths all run their
    scheme's compiled kernel whatever the group's width, as the RK4 path of
    simulate_ode does; with the kernels' loader made to return nothing,
    log-Euler paths run _log_euler in Python and the others _linear, with
    the same terminal rows.  The window calls of each kernel are counted,
    the compiled ones by scheme and _linear's by the scheme whose step it
    was given."""
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    calls = collections.Counter()
    made = {}                          # the scheme of each step _linear is given
    linear = cl.integrator._linear

    def counted(name, kernel):
        def window(*args):
            calls[name] += 1
            return kernel(*args)
        return window

    def tagged(name):
        make = getattr(cl.integrator, name)

        def maker(model):
            step = make(model)
            made[step] = name
            return step
        return maker

    def counted_linear(step, *args):
        calls[made[step]] += 1
        return linear(step, *args)

    monkeypatch.setattr(cl.integrator, "_log_euler",
                        counted("_log_euler", cl.integrator._log_euler))
    monkeypatch.setattr(cl.integrator, "_linear", counted_linear)
    for name in ("_direct_euler", "_rk4"):
        monkeypatch.setattr(cl.integrator, name, tagged(name))
    config = small_config(t_end=2.0, scheme=scheme)
    python_step = "_log_euler" if scheme == cl.LOG_EULER else "_direct_euler"
    terminal = []
    # every path of 100 steps is one window
    for loader, kernel in ((lambda s: lambda *run: counted(s, compiled(s)(*run)), scheme),
                           (lambda s: None, python_step)):
        monkeypatch.setattr(cl._compiled, "window", loader)
        calls.clear()
        summary = ensemble(make_extinction(), config, n_paths, workers=workers)
        assert calls == {kernel: n_paths}
        assert list(summary.terminal["path"]) == list(range(n_paths))
        terminal.append(summary.terminal["mean_S"])
        cl.simulate_ode(make_extinction(), config)
        assert calls == {kernel: n_paths, "rk4" if kernel == scheme else "_rk4": 1}
    assert terminal[0].tobytes() == terminal[1].tobytes()
    assert np.array_equal(terminal[0], [
        simulate(make_extinction(), path_config(config, i)).mean_S[-1]
        for i in range(n_paths)])


def test_ensemble_refused_config_raises_before_any_pool(monkeypatch):
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    config = small_config(initial=State(-1.0, 0.5, 0.2))
    with pytest.raises(ValueError, match="initial state must be strictly positive"):
        ensemble(make_extinction(), config, 3, workers=2)
    assert RecordingPool.sizes == []


@pytest.mark.parametrize("command, n_paths, workers, message", [
    ("ensemble", 3, 0, "workers must be an integer >= 1, got 0"),
    ("ensemble", 3, -1, "workers must be an integer >= 1, got -1"),
    ("ensemble", 3, 2.0, "workers must be an integer >= 1, got 2.0"),
    ("ensemble", 2.5, 2, "n_paths must be an integer >= 1, got 2.5"),
    ("ensemble", 0, 2, "n_paths must be an integer >= 1, got 0"),
    ("p_sweep", 2, 0, "workers must be an integer >= 1, got 0"),
    ("p_sweep", 2, -1, "workers must be an integer >= 1, got -1"),
    ("p_sweep", 2.5, 2, "n_paths must be an integer >= 0, got 2.5"),
    ("p_sweep", -1, 2, "n_paths must be an integer >= 0, got -1"),
    # 30000 paths of small_config's 501 records are past the record cap
    ("ensemble", 30000, 2, "30000 path(s) of 501 records are above the cap"),
    ("p_sweep", 30000, 2, "30000 path(s) of 501 records are above the cap"),
])
def test_bad_path_or_worker_count_raises_before_any_pool(monkeypatch, command, n_paths,
                                                          workers, message):
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    with pytest.raises(ValueError, match=re.escape(message)):
        if command == "ensemble":
            ensemble(make_extinction(), small_config(), n_paths, workers=workers)
        else:
            p_sweep(imprecise_extinction(), [0.0, 1.0], small_config(), n_paths,
                    workers=workers)
    assert RecordingPool.sizes == []


def test_numpy_integer_counts_are_accepted():
    summary = ensemble(make_extinction(), small_config(t_end=2.0), np.int64(3),
                       workers=np.int64(1))
    assert list(summary.terminal["path"]) == [0, 1, 2]


def test_pool_is_built_after_numpy_is_loaded():
    """Forked workers inherit numpy, numpy.random and the compiled kernel
    instead of each loading them."""
    code = """
import sys
from chemlevy import CrispModel, SimConfig, State, _compiled, harness

def engine_loaded():
    # numpy loads with the harness; numpy.random and the library only once a path runs
    return bool("numpy.random" in sys.modules or _compiled._library.cache_info().currsize)

class PoolBuilt(Exception):
    pass

def pool(max_workers):
    raise PoolBuilt("numpy.random" in sys.modules, _compiled._library.cache_info().currsize)

harness._pool = pool
model = CrispModel(S0=1.0, D=0.5, m1=0.4, delta1=0.5, sigma1=0.1,
                   m2=0.3, delta2=0.5, sigma2=0.1, sigma3=0.1)
config = SimConfig(initial=State(1.0, 0.5, 0.2), t_end=1.0, dt=0.1)
before = engine_loaded()
try:
    harness.ensemble(model, config, n_paths=3, workers=2)
except PoolBuilt as exc:
    print(before, *exc.args)
"""
    assert run_fresh(code).splitlines()[-1] == "False True 1"


@pytest.mark.parametrize("shape", [(1, 5), (7, 40), (120, 301)])
def test_aggregate_equals_nan_reductions(shape):
    rng = np.random.default_rng(shape[1])
    stack = rng.standard_normal(shape) * rng.uniform(0.1, 1e3, size=shape[1])
    q = [5.0, 50.0, 95.0]
    for first in (np.nan, 0.39999999999999913):
        stack[:, 0] = first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pcts = np.nanpercentile(stack, q, axis=0)
            mean = np.nanmean(stack, axis=0)
        got = cl.harness._aggregate(stack)
        for stat, want in zip(("mean", "p5", "p50", "p95"), (mean, *pcts)):
            assert got[stat][1:].tobytes() == want[1:].tobytes()
            # nanmean sets the sign bit of an all-NaN column's NaN; both print nan
            assert [str(v) for v in got[stat].tolist()] == [str(v) for v in want.tolist()]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), paths=st.integers(1, 259))
def test_aggregate_percentiles_are_np_percentile(seed, paths):
    """_aggregate's percentiles, from one sort, are np.percentile's bit for
    bit on stacks with NaN columns, infinities, ties and zeros (no -0.0,
    which no series holds, and which a sort and a partition may order
    differently against 0.0)."""
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 40))
    stack = rng.standard_normal((paths, cols)) * rng.uniform(1e-3, 1e3, cols)
    pool = np.array([0.0, 1.0, 2.5, math.inf, -math.inf, 1e308])
    special = rng.random((paths, cols)) < rng.uniform(0.0, 0.5)
    stack[special] = rng.choice(pool, int(special.sum()))
    stack[:, rng.random(cols) < 0.2] = math.nan
    got = cl.harness._aggregate(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.percentile(stack, [5.0, 50.0, 95.0], axis=0)
    for stat, expected in zip(("p5", "p50", "p95"), want):
        assert got[stat].tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 500), nan=st.booleans())
@example(seed=0, n=1, nan=False)
@example(seed=1, n=2, nan=True)
@example(seed=2, n=500, nan=False)
@example(seed=3, n=499, nan=True)
def test_median_and_verify_percentile_are_numpys(seed, n, nan):
    """_median is np.median, and verify's observed statistics are np.median
    and np.percentile(v, 5.0), bit for bit, for odd and even n from 1 to 500
    with ties, infinities of both signs and one NaN.  No -0.0 is drawn: a
    sort and numpy's partition may order it against 0.0 differently, and no
    terminal series holds it (the means are positive, and ln x/t and ln y/t
    are never -0.0)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
    special = rng.random(n) < rng.uniform(0.0, 0.5)
    values[special] = rng.choice([0.0, 1.0, 2.5, math.inf, -math.inf], int(special.sum()))
    if nan:
        values[rng.integers(n)] = math.nan
    summary = cl.EnsembleSummary(n_paths=n, horizon=500.0, times=None, series={},
                                 extinct_x_frac=None, extinct_y_frac=None,
                                 terminal=dict.fromkeys(cl.harness._TERMINAL, values))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        median, p5 = np.median(values), np.percentile(values, 5.0)
        got = [(cl.harness._median(values), median)]
        for model in (make_extinction(), make_persistence()):
            for claim in verify(classify(model), summary).claims:
                got.append((claim.observed, p5 if claim.comparison == "lower" else median))
    assert len(got) == 5
    for value, want in got:
        assert np.float64(value).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("field", ["rate", "mean"])
@pytest.mark.parametrize("value", [-1.0, -1e-12, math.inf, math.nan])
def test_tolerances_reject_negative_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        VerifyTolerances(**{field: value})


def test_ensemble_failure_rate_guard():
    # an initial nutrient level this small overflows the replenishment drift
    # on the first step, so every path aborts
    model = make_extinction()
    config = small_config(initial=State(1e-12, 0.5, 0.2), t_end=10.0, dt=0.01)
    with pytest.raises(RuntimeError, match="aborted"):
        ensemble(model, config, 10)


def test_extinction_fraction_reaches_one_by_t1000():
    model = make_extinction()
    config = SimConfig(initial=INITIAL, t_end=1000.0, dt=0.01, seed=606,
                       output_stride=100)
    summary = ensemble(model, config, 30, workers=2)
    assert summary.terminal["extinct_x"].mean() >= 0.9
    assert summary.terminal["extinct_y"].mean() >= 0.9
    # sticky flags make the fraction monotone over time
    assert np.all(np.diff(summary.extinct_x_frac) >= 0.0)
    assert np.all(np.diff(summary.extinct_y_frac) >= 0.0)


def test_extinction_fraction_full_ensemble_at_t1000(ens_extinction):
    # 200 paths: by t=1000 essentially every path has crossed the reporting
    # threshold in both populations
    idx = int(np.searchsorted(ens_extinction.times, 1000.0))
    assert ens_extinction.times[idx] == pytest.approx(1000.0)
    assert ens_extinction.extinct_x_frac[idx] >= 0.95
    assert ens_extinction.extinct_x_frac[-1] >= ens_extinction.extinct_x_frac[idx]


def test_percentile_ordering_everywhere(ens_extinction):
    for name in ens_extinction.series:
        s = ens_extinction.series[name]
        keep = ~np.isnan(s["p50"])
        assert np.all(s["p5"][keep] <= s["p50"][keep] + 1e-15)
        assert np.all(s["p50"][keep] <= s["p95"][keep] + 1e-15)


def test_slnn_style_decay_on_long_horizon(ens_persistence):
    # terminal state over t and martingale-over-t diagnostics all shrink
    series = ens_persistence.series
    t_end = ens_persistence.horizon
    for name in ("S", "x", "y"):
        assert series[name]["p95"][-1] / t_end < 0.01
    term = ens_persistence.terminal
    assert np.max(np.abs(term["brownian_over_t"])) < 0.01
    assert np.max(np.abs(term["comp_jump_over_t"])) < 0.01


def test_verify_refuses_short_horizon():
    model = make_extinction()
    summary = ensemble(model, small_config(t_end=100.0), 4)
    with pytest.raises(ValueError, match="horizon"):
        verify(classify(model), summary)


def test_verify_extinction_small_pilot():
    model = make_extinction()
    summary = ensemble(model, small_config(seed=31), 20, workers=2)
    verdict = verify(classify(model), summary)
    assert verdict.regime is Regime.BOTH_EXTINCT
    assert {c.claim_id for c in verdict.claims} == {
        "x_lyapunov_bound", "y_lyapunov_bound", "S_mean_limit"}
    assert verdict.all_passed


def test_verify_claim_rows_match_predictions(ens_extinction, ens_persistence):
    for model, summary in ((make_extinction(), ens_extinction),
                           (make_persistence(), ens_persistence)):
        report = classify(model)
        verdict = verify(report, summary)
        assert {c.claim_id for c in verdict.claims} == set(report.predictions.present())


def test_verify_claims_in_verdict_order():
    """Each regime's claims come in the order verdict.csv lists them, and
    each observed value is its statistic of its terminal series."""
    rng = np.random.default_rng(12)
    terminal = {name: rng.normal(size=7)
                for name in ("mean_S", "mean_x", "mean_y", "rate_x", "rate_y")}
    summary = cl.EnsembleSummary(n_paths=7, horizon=500.0, times=np.array([0.0, 500.0]),
                                 series={}, extinct_x_frac=None, extinct_y_frac=None,
                                 terminal=terminal)
    base = make_extinction()
    boundary = dataclasses.replace(base, S0=(base.D + cl.beta(base, 2)) / base.m1)
    expected = {
        Regime.BOTH_EXTINCT: [("x_lyapunov_bound", "upper"), ("y_lyapunov_bound", "upper"),
                              ("S_mean_limit", "within")],
        Regime.PREY_ONLY: [("S_mean_limit", "within"), ("x_mean_limit", "within"),
                           ("y_lyapunov_bound", "upper")],
        Regime.PERSISTENT: [("y_mean_lower_bound", "lower")],
        Regime.BOUNDARY: [],
    }
    series = {"x_lyapunov_bound": "rate_x", "y_lyapunov_bound": "rate_y",
              "S_mean_limit": "mean_S", "x_mean_limit": "mean_x",
              "y_mean_lower_bound": "mean_y"}
    reports = [classify(m) for m in (base, make_prey_only(), make_persistence(), boundary)]
    assert [r.regime for r in reports] == list(expected)
    for report in reports:
        verdict = verify(report, summary)
        assert [(c.claim_id, c.comparison) for c in verdict.claims] == expected[report.regime]
        for claim in verdict.claims:
            values = terminal[series[claim.claim_id]]
            want = (np.percentile(values, 5.0) if claim.comparison == "lower"
                    else np.median(values))
            assert claim.observed == float(want)
            assert claim.predicted == getattr(report.predictions, claim.claim_id)


def test_verify_zero_noise_persistent_exact():
    # the noise-free flow satisfies the (beta-free) lower bound up to solver error
    model = make_persistence().with_sigmas(0.0, 0.0, 0.0)
    summary = ensemble(model, small_config(t_end=600.0, dt=0.01), 2)
    verdict = verify(classify(model), summary)
    assert verdict.regime is Regime.PERSISTENT
    assert verdict.all_passed
    (claim,) = verdict.claims
    assert claim.observed >= claim.predicted - claim.tolerance


def test_verify_boundary_has_no_claims():
    base = make_extinction()
    s0 = (base.D + cl.beta(base, 2)) / base.m1
    model = dataclasses.replace(base, S0=s0)
    summary = ensemble(model, small_config(), 4)
    verdict = verify(classify(model), summary)
    assert verdict.regime is Regime.BOUNDARY
    assert verdict.claims == ()
    assert verdict.all_passed


def test_burn_in_monotone_extinction_rates(ens_extinction):
    # the passing rate verdict at the full horizon also holds at half horizon
    model = make_extinction()
    preds = classify(model).predictions
    tol = VerifyTolerances()
    series = ens_extinction.series["lnx_over_t"]["p50"]
    for target in (1000.0, 2000.0):
        idx = int(np.searchsorted(ens_extinction.times, target))
        assert series[idx] <= preds.x_lyapunov_bound + tol.rate


def test_martingale_diagnostics_no_jumps_identically_zero():
    model = make_persistence()
    term = ensemble(model, small_config(t_end=50.0, seed=8), 5).terminal
    assert np.all(term["comp_jump_over_t"] == 0.0)
    assert np.all(np.abs(term["brownian_over_t"].mean(axis=0)) < 0.05)


def test_martingale_diagnostics_with_jumps():
    model = make_persistence(jumps=TWO_MARKS)
    t_end, n = 200.0, 40
    term = ensemble(model, small_config(t_end=t_end, dt=0.01, seed=17), n).terminal
    se_b = 0.1 / math.sqrt(t_end * n)
    lam_ln2 = 0.5 * math.log(0.7) ** 2 + 0.5 * math.log(1.5) ** 2
    se_j = math.sqrt(lam_ln2 / t_end / n)
    assert np.all(np.abs(term["brownian_over_t"].mean(axis=0)) <= 3.0 * se_b)
    assert np.all(np.abs(term["comp_jump_over_t"].mean(axis=0)) <= 3.0 * se_j)


# ---------------------------------------------------------------------------
# p-sweep
# ---------------------------------------------------------------------------

def imprecise_extinction(m1=(0.4, 0.4)):
    return cl.ImpreciseModel(
        S0=1.0, D=I(0.5, 0.5), m1=I(*m1), delta1=I(0.5, 0.5), sigma1=I(0.1, 0.1),
        m2=I(0.3, 0.3), delta2=I(0.5, 0.5), sigma2=I(0.1, 0.1), sigma3=I(0.1, 0.1))


def test_p_sweep_endpoints_reproduce_crisp_models():
    model = imprecise_extinction(m1=(0.3, 0.7))
    rows = p_sweep(model, [0.0, 1.0], small_config(), n_paths=0)
    assert [row.p for row in rows] == [0.0, 1.0]
    for row, p in zip(rows, (0.0, 1.0)):
        crisp = crispify(model, p)
        assert row.crisp == crisp
        assert row.report == classify(crisp)
        assert row.stats is None and row.verdict is None and row.error is None


def test_p_sweep_degenerate_intervals_rows_identical():
    model = imprecise_extinction()
    rows = p_sweep(model, [0.0, 0.25, 0.5, 0.75, 1.0], small_config(), n_paths=3)
    first = rows[0]
    for row in rows[1:]:
        assert row.report == first.report
        assert row.stats == first.stats
        assert row.verdict == first.verdict


def test_p_sweep_regime_flip_single_crossing():
    model = imprecise_extinction(m1=(0.3, 0.7))
    grid = np.linspace(0.0, 1.0, 21)
    rows = p_sweep(model, grid, small_config(), n_paths=0)
    r0_vals = np.array([row.report.R0s for row in rows])
    assert np.all(np.diff(r0_vals) > 0.0)  # monotone in p
    crossings = np.sum((r0_vals[:-1] < 1.0) & (r0_vals[1:] >= 1.0))
    assert crossings == 1
    regimes = [row.report.regime for row in rows]
    assert regimes[0] is Regime.BOTH_EXTINCT
    assert regimes[-1] in (Regime.PREY_ONLY, Regime.PERSISTENT)


def test_p_sweep_with_simulation_populates_stats_and_verdicts():
    model = imprecise_extinction(m1=(0.3, 0.7))
    rows = p_sweep(model, [0.0, 1.0], small_config(seed=77), n_paths=6, workers=2)
    for row in rows:
        assert row.error is None
        assert row.stats is not None
        assert row.verdict is not None
        assert set(c.claim_id for c in row.verdict.claims) \
            == set(row.report.predictions.present())


def test_p_sweep_row_error_recorded_not_raised():
    # the direct scheme aborts every path at sigma1 = 3 and dt=0.02
    model = dataclasses.replace(imprecise_extinction(), sigma1=I(3.0, 3.0))
    config = small_config(scheme=cl.DIRECT_EULER)
    rows = p_sweep(model, [0.0, 1.0], config, n_paths=2)
    for row in rows:
        assert row.error is not None
        assert "paths aborted" in row.error
        assert row.verdict is None


def test_p_sweep_short_horizon_raises_before_any_pool(monkeypatch):
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    config = small_config(t_end=100.0)  # below min_horizon
    with pytest.raises(ValueError, match="horizon 100.0 is below min_horizon 500.0"):
        p_sweep(imprecise_extinction(), [0.0, 1.0], config, n_paths=2, workers=2)
    assert RecordingPool.sizes == []
    # a threshold-only sweep never simulates, so its horizon does not matter
    assert len(p_sweep(imprecise_extinction(), [0.0, 1.0], config, n_paths=0)) == 2


def _rows(rows):
    return [(row.p, row.stats, row.verdict, row.error) for row in rows]


def test_p_sweep_builds_one_pool_for_every_row(monkeypatch):
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    model = imprecise_extinction(m1=(0.3, 0.7))
    pooled = p_sweep(model, [0.0, 0.5, 1.0], small_config(), n_paths=2, workers=2)
    assert RecordingPool.sizes == [2]
    assert _rows(pooled) == _rows(p_sweep(model, [0.0, 0.5, 1.0], small_config(), n_paths=2))


def test_pooled_p_sweep_rows_equal_one_ensemble_each():
    """Every row equals the ensemble of its crisp model, verified alone."""
    model = cl.ImpreciseModel(
        S0=4.0, D=I(0.2, 0.2), m1=I(0.6, 1.0), delta1=I(0.5, 0.5), sigma1=I(0.1, 0.1),
        m2=I(0.05, 0.6), delta2=I(0.5, 0.5), sigma2=I(0.1, 0.1), sigma3=I(0.1, 0.1),
        jumps=TWO_MARKS)
    config = small_config(dt=0.05, seed=31, output_stride=7)
    rows = p_sweep(model, [1.0, 0.0, 0.5], config, n_paths=3, workers=2)
    assert [row.p for row in rows] == [0.0, 0.5, 1.0]
    for row in rows:
        summary = ensemble(crispify(model, row.p), config, 3, workers=1)
        term = summary.terminal
        assert row.error is None
        assert row.stats == {
            **{k: float(np.median(term[k]))
               for k in ("mean_S", "mean_x", "mean_y", "rate_x", "rate_y")},
            "extinct_x_frac": float(term["extinct_x"].mean()),
            "extinct_y_frac": float(term["extinct_y"].mean()),
        }
        assert row.verdict == verify(row.report, summary)


def test_p_sweep_abort_stays_in_its_row():
    # the direct scheme survives sigma1 = 0.1 and 0.55 but not 3 at dt=0.02
    model = dataclasses.replace(imprecise_extinction(), sigma1=I(0.1, 3.0))
    config = small_config(scheme=cl.DIRECT_EULER)
    rows = p_sweep(model, [0.0, 0.5, 1.0], config, n_paths=5, workers=2)
    assert [row.error is None for row in rows] == [True, True, False]
    assert rows[2].error.startswith("5/5 paths aborted (>= 10%): path 0: direct Euler")
    assert rows[2].stats is None and rows[2].verdict is None
    assert all(row.verdict is not None for row in rows[:2])


def test_p_sweep_refused_config_raises_before_any_pool(monkeypatch):
    monkeypatch.setattr(cl.harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    config = small_config(initial=State(-1.0, 0.5, 0.2))
    with pytest.raises(ValueError, match="initial state must be strictly positive"):
        p_sweep(imprecise_extinction(), [0.0, 1.0], config, n_paths=2, workers=2)
    assert RecordingPool.sizes == []


def kill_worker_at_p_half(monkeypatch):
    """Make the worker that steps a p=0.5 path exit at once."""
    real_integrate = cl.harness._integrate

    def dies_at_p_half(model, config, seeds, out):
        if model.p == 0.5:
            os._exit(1)
        return real_integrate(model, config, seeds, out)

    monkeypatch.setattr(cl.harness, "_integrate", dies_at_p_half)


def test_p_sweep_broken_pool_fails_the_rows_it_did_not_finish(monkeypatch):
    """A worker that dies takes the pool with it: its row and every later
    row report the broken pool, and p_sweep still returns."""
    kill_worker_at_p_half(monkeypatch)
    rows = p_sweep(imprecise_extinction(), [0.0, 0.5, 1.0], small_config(dt=0.5),
                   n_paths=2, workers=2)
    for row in rows[1:]:
        assert "terminated abruptly" in row.error
        assert row.stats is None


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_a_pooled_run(monkeypatch):
    """Every child of a pool is killed and reaped when its run ends: after
    an ensemble, after a sweep whose worker died or whose worker raised, and
    after a stream closed, or interrupted, after its first row."""
    assert_no_child_left()
    ensemble(make_extinction(), small_config(t_end=2.0), 5, workers=2)
    assert_no_child_left()
    grid, config = [0.0, 0.5, 1.0], small_config(dt=0.5)
    with monkeypatch.context() as patch:
        kill_worker_at_p_half(patch)
        rows = p_sweep(imprecise_extinction(), grid, config, n_paths=2, workers=2)
        assert "terminated abruptly" in rows[1].error
    assert_no_child_left()
    real_integrate = cl.harness._integrate

    def raises_at_p_half(model, config, seeds, out):
        if model.p == 0.5:
            raise ValueError("boom")
        return real_integrate(model, config, seeds, out)

    with monkeypatch.context() as patch:
        patch.setattr(cl.harness, "_integrate", raises_at_p_half)
        rows = p_sweep(imprecise_extinction(), grid, config, n_paths=2, workers=2)
    assert rows[0].error is None
    assert [row.error for row in rows[1:]] == ["boom", "boom"]
    assert_no_child_left()
    models = [crispify(imprecise_extinction(), p) for p in grid]
    for end in ("close", "interrupt"):
        stream = cl.harness._path_records(models, config, 2, 2)
        block, records = next(stream)
        assert [i for i, _, _ in records] == [0, 1]
        if end == "close":
            stream.close()
        else:
            with pytest.raises(KeyboardInterrupt):
                stream.throw(KeyboardInterrupt)
        assert_no_child_left()


def test_a_sweep_holds_two_record_blocks(monkeypatch):
    """A pooled stride-1 sweep of 4 rows steps them through two blocks of
    shared memory, and each row still equals its own serial ensemble: no
    worker starts a row before the block it reuses is read, even when each
    row is slow to read."""
    live, most = [], []
    make = cl.harness._shared_block

    def counted(shape):
        block = make(shape)
        live.append(1)
        weakref.finalize(block, live.pop)
        most.append(len(live))
        return block

    summaries = []
    summarise = cl.harness._summarise

    def slow(block, records, times):
        time.sleep(0.2)
        summaries.append(summarise(block, records, times))
        return summaries[-1]

    monkeypatch.setattr(cl.harness, "_shared_block", counted)
    monkeypatch.setattr(cl.harness, "_summarise", slow)
    model = imprecise_extinction(m1=(0.3, 0.7))
    grid, config = [0.0, 1 / 3, 2 / 3, 1.0], small_config(dt=0.5, output_stride=1)
    rows = p_sweep(model, grid, config, n_paths=4, workers=2)
    assert all(row.error is None for row in rows)
    assert max(most) == 2 and not live
    monkeypatch.setattr(cl.harness, "_summarise", summarise)
    for p, pooled in zip(grid, summaries):
        alone = ensemble(crispify(model, p), config, 4, workers=1)
        for name in alone.series:
            for stat in alone.series[name]:
                assert np.array_equal(pooled.series[name][stat], alone.series[name][stat],
                                      equal_nan=True), (p, name, stat)
        assert np.array_equal(pooled.extinct_y_frac, alone.extinct_y_frac)


def test_pooled_runs_leave_no_files_behind(monkeypatch, tmp_path):
    """A pooled run's record block is in shared memory: with the temporary
    directory missing, a pooled ensemble and sweep run, also when a worker
    dies, and make no file anywhere."""
    missing = tmp_path / "missing"
    monkeypatch.setattr("tempfile.tempdir", str(missing))
    monkeypatch.chdir(tmp_path)
    ensemble(make_extinction(), small_config(t_end=2.0), 5, workers=2)
    config = small_config(dt=0.5)
    rows = p_sweep(imprecise_extinction(), [0.0, 0.5, 1.0], config, n_paths=3, workers=2)
    assert all(row.error is None for row in rows)
    kill_worker_at_p_half(monkeypatch)
    rows = p_sweep(imprecise_extinction(), [0.0, 0.5, 1.0], config, n_paths=3, workers=2)
    assert "terminated abruptly" in rows[1].error
    assert list(tmp_path.iterdir()) == []


def test_serial_runs_need_no_temp_dir(monkeypatch, tmp_path):
    """One worker keeps a run's record block in memory: with the temporary
    directory missing, a serial ensemble and p_sweep still run, and make no
    file anywhere."""
    missing = tmp_path / "missing"
    monkeypatch.setattr("tempfile.tempdir", str(missing))
    monkeypatch.chdir(tmp_path)
    ensemble(make_extinction(), small_config(t_end=2.0), 5, workers=1)
    rows = p_sweep(imprecise_extinction(), [0.0, 0.5, 1.0], small_config(dt=0.5), n_paths=3)
    assert all(row.error is None for row in rows)
    assert list(tmp_path.iterdir()) == []


def test_p_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        p_sweep(imprecise_extinction(), [], small_config(), n_paths=0)
