"""Path integration: jump sampling, the log-space scheme, RK4, and statistics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import chemlevy as cl
from chemlevy import (
    DIRECT_EULER,
    FLOOR_LOG,
    CrispModel,
    JumpMark,
    JumpSpec,
    SimConfig,
    SimulationError,
    State,
    conservation_residual,
    sample_jumps,
    simulate,
    simulate_ode,
)
from chemlevy.integrator import _MAX_MESH_STEPS, _check_config, derive_path_seed
from conftest import INITIAL, TWO_MARKS, make_extinction, make_persistence


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# ---------------------------------------------------------------------------
# Jump sampling
# ---------------------------------------------------------------------------

def test_sample_jumps_empty_spec():
    for seed in range(5):
        assert sample_jumps(JumpSpec(), 100.0, rng_for(seed)) == []


def test_sample_jumps_poisson_mean():
    # total rate 2 on a window of 1000: mean count 2000, checked over 500 seeds
    spec = JumpSpec((JumpMark(2.0, 0.1, 0.1, 0.1),))
    counts = [len(sample_jumps(spec, 1000.0, rng_for(seed))) for seed in range(500)]
    se = math.sqrt(2000.0 / 500.0)
    assert abs(np.mean(counts) - 2000.0) <= 3.0 * se


def test_sample_jumps_mark_proportions():
    spec = JumpSpec((JumpMark(1.0, 0.0, 0.0, 0.0), JumpMark(3.0, 0.0, 0.0, 0.0)))
    events = sample_jumps(spec, 5000.0, rng_for(7))
    assert len(events) >= 10_000
    frac = np.mean([mark == 0 for _, mark in events])
    sigma = math.sqrt(0.25 * 0.75 / len(events))
    assert abs(frac - 0.25) <= 3.0 * sigma


def test_sample_jumps_sorted_within_window():
    spec = JumpSpec((JumpMark(1.5, 0.1, 0.1, 0.1),))
    events = sample_jumps(spec, 50.0, rng_for(3))
    times = [t for t, _ in events]
    assert times == sorted(times)
    assert all(0.0 <= t <= 50.0 for t in times)
    assert all(mark == 0 for _, mark in events)


# ---------------------------------------------------------------------------
# Stochastic scheme
# ---------------------------------------------------------------------------

def short_config(**kw) -> SimConfig:
    base = dict(initial=INITIAL, t_end=50.0, dt=0.01, seed=5, output_stride=10)
    base.update(kw)
    return SimConfig(**base)


def test_zero_noise_matches_rk4():
    model = make_persistence().with_sigmas(0.0, 0.0, 0.0)
    config = short_config(t_end=20.0, dt=1e-3, output_stride=100)
    sde = simulate(model, config)
    ode = simulate_ode(model, config)
    assert np.array_equal(sde.times, ode.times)
    for a, b in ((sde.S, ode.S), (sde.x, ode.x), (sde.y, ode.y)):
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-3


def test_positivity_all_seeds():
    model = make_extinction(jumps=TWO_MARKS)
    for seed in range(10):
        traj = simulate(model, short_config(seed=seed))
        assert np.all(traj.S > 0.0)
        assert np.all(traj.x > 0.0)
        assert np.all(traj.y > 0.0)


def test_determinism_bit_identical():
    model = make_persistence(jumps=TWO_MARKS)
    config = short_config(seed=123)
    a = simulate(model, config)
    b = simulate(model, config)
    assert np.array_equal(a.times, b.times)
    for name in ("S", "x", "y", "mean_S", "mean_x", "mean_y", "brownian", "comp_jump"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.lnx_over_t, b.lnx_over_t, equal_nan=True)
    assert a.jump_log == b.jump_log


def test_recorded_grid_unaffected_by_jumps():
    config = short_config(seed=9)
    plain = simulate(make_persistence(), config)
    jumpy = simulate(make_persistence(jumps=TWO_MARKS), config)
    assert len(jumpy.jump_log) > 0
    assert np.array_equal(plain.times, jumpy.times)


@pytest.mark.parametrize("scheme", ["log_euler", DIRECT_EULER])
def test_jump_log_is_the_sampled_schedule(scheme):
    model = make_persistence(jumps=TWO_MARKS)
    config = short_config(seed=9, scheme=scheme)
    traj = simulate(model, config)
    assert traj.jump_log == sample_jumps(model.jumps, config.t_end, rng_for(config.seed))
    assert len(traj.jump_log) > 0


def test_event_at_origin_is_a_step():
    # an event drawn at exactly t=0 goes after the origin, never before it
    mesh_t, mesh_mark, rec = cl.integrator._build_mesh(1.0, 0.5, [(0.0, 1), (0.25, 0)], 1)
    assert mesh_t.tolist() == [0.0, 0.0, 0.25, 0.5, 1.0]
    assert mesh_mark.tolist() == [-1, 1, 0, -1, -1]
    assert rec.tolist() == [False, False, False, True, True]


def test_driftless_log_brownian_mean():
    # with m2 = D = 0 and only sigma3 > 0, ln y(T) - ln y(0) + sigma3^2 T / 2
    # is exactly sigma3 * B(T); its mean over seeds must vanish
    model = CrispModel(S0=1.0, D=0.0, m1=0.4, delta1=0.5, sigma1=0.0,
                       m2=0.0, delta2=0.5, sigma2=0.0, sigma3=0.5)
    t_end, n_seeds = 1.0, 1000
    y0 = INITIAL.y
    vals = []
    for seed in range(n_seeds):
        traj = simulate(model, SimConfig(initial=INITIAL, t_end=t_end, dt=0.01,
                                         seed=derive_path_seed(2024, seed),
                                         output_stride=100))
        vals.append(math.log(traj.y[-1]) - math.log(y0) + 0.5 * 0.5 ** 2 * t_end)
    se = 0.5 * math.sqrt(t_end) / math.sqrt(n_seeds)
    assert abs(np.mean(vals)) <= 3.0 * se


def test_pure_jump_log_increment_mean():
    # with m2 = D = sigma = 0, ln y(T) - ln y(0) = N_T ln(1.5) - gamma*lambda*T
    model = CrispModel(S0=1.0, D=0.0, m1=0.4, delta1=0.5, sigma1=0.0,
                       m2=0.0, delta2=0.5, sigma2=0.0, sigma3=0.0,
                       jumps=JumpSpec((JumpMark(2.0, 0.0, 0.0, 0.5),)))
    t_end, n_seeds = 10.0, 100
    expected = t_end * (2.0 * math.log(1.5) - 2.0 * 0.5)
    vals = []
    for seed in range(n_seeds):
        traj = simulate(model, SimConfig(initial=INITIAL, t_end=t_end, dt=0.05,
                                         seed=derive_path_seed(55, seed),
                                         output_stride=20))
        vals.append(math.log(traj.y[-1]) - math.log(INITIAL.y))
    se = math.log(1.5) * math.sqrt(2.0 * t_end) / math.sqrt(n_seeds)
    assert abs(np.mean(vals) - expected) <= 3.0 * se


def test_jump_compensator_balances_penalty():
    # the jump machinery's mean log increment per unit time must equal the
    # negated jump part of the noise penalty, sum_k w_k (g_k - ln(1+g_k))
    spec = JumpSpec((JumpMark(1.0, 0.5, 0.5, 0.5), JumpMark(3.0, -0.3, -0.3, -0.3)))
    t_end = 10_000.0
    events = sample_jumps(spec, t_end, rng_for(31))
    log_sizes = (math.log(1.5), math.log(0.7))
    total = sum(log_sizes[mark] for _, mark in events)
    stat = total / t_end - spec.gamma_intensity(2)
    penalty = spec.penalty(2)
    se = math.sqrt((1.0 * math.log(1.5) ** 2 + 3.0 * math.log(0.7) ** 2) / t_end)
    assert abs(stat + penalty) <= 3.0 * se


def test_floor_flags_and_frozen_rate():
    # inflated dilution drives both populations to the pin within t ~ 160
    model = CrispModel(S0=1.0, D=5.0, m1=0.4, delta1=0.5, sigma1=0.05,
                       m2=0.3, delta2=0.5, sigma2=0.05, sigma3=0.05)
    traj = simulate(model, short_config(t_end=300.0, seed=21))
    _, fx, fy = traj.floor_times
    assert fx is not None and fy is not None
    assert traj.floor_times[0] is None  # nutrient never collapses
    assert np.all(traj.x > 0.0)
    assert traj.x[-1] == pytest.approx(math.exp(FLOOR_LOG))
    # frozen rate reflects the decay slope at the pin time, not the pinned tail
    assert traj.rate_x == pytest.approx(FLOOR_LOG / fx)
    true_rate = model.m1 * model.S0 - model.D - 0.5 * model.sigma2 ** 2
    assert traj.rate_x == pytest.approx(true_rate, rel=0.05)
    assert float(traj.lnx_over_t[-1]) > traj.rate_x  # raw tail ratio is damped


def test_overflow_aborts_with_time():
    # microscopic S(0) makes the replenishment drift D*S0/S explode upward
    model = make_extinction()
    config = short_config(initial=State(1e-12, 0.5, 0.2), t_end=1.0, dt=0.01)
    with pytest.raises(SimulationError) as info:
        simulate(model, config)
    assert info.value.time <= 1.0


def test_nan_log_state_aborts():
    # an infinite volatility turns the Ito-corrected drift into inf - inf;
    # the overflow guard must catch the NaN instead of recording it
    model = make_persistence().with_sigmas(math.inf, 0.1, 0.1)
    with pytest.raises(SimulationError):
        simulate(model, short_config(t_end=1.0))


@pytest.mark.parametrize("integrate, model, config", [
    (simulate, make_persistence(jumps=TWO_MARKS), short_config(t_end=20.0, output_stride=1)),
    (simulate, make_persistence(jumps=TWO_MARKS), short_config(t_end=20.0, output_stride=3)),
    # the extinction model pins y near t = 1400
    (simulate, make_extinction(), short_config(t_end=1600.0, dt=0.5, output_stride=1)),
    (simulate, make_extinction(), short_config(t_end=1600.0, dt=0.5, output_stride=3)),
    (simulate, make_persistence(jumps=TWO_MARKS),
     short_config(t_end=20.0, output_stride=3, scheme=DIRECT_EULER)),
    (simulate, make_extinction().with_sigmas(0.1, 2.0, 0.1),
     short_config(t_end=50.0, dt=0.05, seed=14, scheme=DIRECT_EULER)),
    # a zero axis makes RK4's rate column -inf
    (simulate_ode, make_persistence(), short_config(t_end=20.0, initial=State(1.0, 0.5, 0.0))),
], ids=["jumps-stride1", "jumps-stride3", "pinned-stride1", "pinned-stride3",
        "direct-stride3", "direct-abort", "rk4-zero-axis"])
def test_chunk_size_does_not_change_the_path(monkeypatch, integrate, model, config):
    def run():
        try:
            return integrate(model, config)
        except SimulationError as exc:
            return exc.time

    reference = run()
    for chunk in (1, 7):
        monkeypatch.setattr(cl.integrator, "_CHUNK_STEPS", chunk)
        traj = run()
        if isinstance(reference, float):  # the abort time must not move either
            assert traj == reference
            continue
        for name in ("times", "S", "x", "y", "mean_S", "mean_x", "mean_y",
                     "lnx_over_t", "lny_over_t", "brownian", "comp_jump"):
            assert getattr(traj, name).tobytes() == getattr(reference, name).tobytes(), name
        assert traj.jump_log == reference.jump_log
        assert traj.floor_times == reference.floor_times
    # every input exercises a pin, a jump, an abort or a -inf rate
    assert (isinstance(reference, float) or reference.floor_times[2] is not None
            or reference.jump_log or reference.lny_over_t[-1] == -math.inf)


def test_direct_euler_breaks_positivity_where_log_scheme_survives():
    model = make_extinction().with_sigmas(0.1, 2.0, 0.1)
    config = short_config(t_end=50.0, dt=0.05, seed=14, scheme=DIRECT_EULER)
    with pytest.raises(SimulationError):
        simulate(model, config)
    log_traj = simulate(model, short_config(t_end=50.0, dt=0.05, seed=14))
    assert np.all(log_traj.x > 0.0)


def test_direct_euler_agrees_with_log_scheme_weakly():
    # both schemes are consistent: on a mild model with small dt the terminal
    # time averages should be close
    model = make_persistence()
    a = simulate(model, short_config(seed=3, dt=0.005))
    b = simulate(model, short_config(seed=3, dt=0.005, scheme=DIRECT_EULER))
    assert b.mean_S[-1] == pytest.approx(a.mean_S[-1], rel=0.05)
    assert b.mean_y[-1] == pytest.approx(a.mean_y[-1], rel=0.25)


def test_config_validation():
    model = make_persistence()
    with pytest.raises(ValueError):
        simulate(model, short_config(t_end=-1.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            simulate(model, short_config(t_end=bad))
        with pytest.raises(ValueError):
            simulate_ode(model, short_config(dt=bad))
    with pytest.raises(ValueError):
        simulate(model, short_config(dt=100.0))
    with pytest.raises(ValueError):
        simulate(model, short_config(output_stride=0))
    with pytest.raises(ValueError):
        simulate(model, short_config(scheme="heun"))
    with pytest.raises(ValueError):
        simulate(model, short_config(initial=State(1.0, 0.0, 0.1)))
    for initial in (State(math.inf, 1.0, 1.0), State(1.0, math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            simulate(model, short_config(initial=initial))
        with pytest.raises(ValueError, match="finite"):
            simulate_ode(model, short_config(initial=initial))
    # the step cap is checked before the mesh or the jump schedule is allocated:
    # 1e310 uniform steps, and 1e12 expected jump events
    with pytest.raises(ValueError, match="cap"):
        simulate_ode(model, short_config(t_end=1e300, dt=1e-10))
    heavy = make_persistence(jumps=JumpSpec((JumpMark(1e10, 0.1, 0.1, 0.1),)))
    with pytest.raises(ValueError, match="cap"):
        simulate(heavy, short_config(t_end=100.0))


_float = st.floats() | st.sampled_from([1e300, 1e-320, 5e-324, -0.0, 1e-10])


@given(t_end=_float, dt=_float, s=_float, x=_float, y=_float, jump_rate=_float,
       positive=st.booleans())
def test_config_check_raises_only_value_error(t_end, dt, s, x, y, jump_rate, positive):
    config = SimConfig(initial=State(s, x, y), t_end=t_end, dt=dt)
    try:
        _check_config(config, positive, jump_rate)
    except ValueError:
        return
    # an accepted config asks for a finite mesh under the cap
    assert t_end / dt + max(jump_rate, 0.0) * t_end <= _MAX_MESH_STEPS
    assert all(math.isfinite(v) for v in (s, x, y))


# ---------------------------------------------------------------------------
# Deterministic solver
# ---------------------------------------------------------------------------

def test_ode_washout_decay():
    model = make_extinction()
    config = SimConfig(initial=State(0.1, 0.0, 0.0), t_end=20.0, dt=0.01,
                       output_stride=10)
    traj = simulate_ode(model, config)
    gap0 = abs(0.1 - model.S0)
    for t, s in zip(traj.times, traj.S):
        assert abs(s - model.S0) <= gap0 * math.exp(-model.D * t) * (1.0 + 1e-6)


def test_ode_accepts_zero_axis_initial():
    model = make_persistence()
    traj = simulate_ode(model, SimConfig(initial=State(1.0, 0.0, 0.0),
                                         t_end=10.0, dt=0.01, output_stride=10))
    assert np.all(traj.x == 0.0)
    assert np.all(traj.y == 0.0)
    with pytest.raises(ValueError):
        simulate(model, SimConfig(initial=State(1.0, 0.0, 0.0), t_end=10.0, dt=0.01))


def test_rk4_step_halving_error_ratio():
    model = make_persistence().with_sigmas(0.0, 0.0, 0.0)

    def run(dt, stride):
        return simulate_ode(model, SimConfig(initial=INITIAL, t_end=50.0, dt=dt,
                                             output_stride=stride))

    coarse = run(0.05, 20)
    half = run(0.025, 40)
    ref = run(0.00625, 160)
    assert np.allclose(coarse.times, ref.times)

    def err(traj):
        return max(np.max(np.abs(traj.S - ref.S)), np.max(np.abs(traj.x - ref.x)),
                   np.max(np.abs(traj.y - ref.y)))

    assert err(coarse) / err(half) >= 8.0


def test_ode_budget_contraction():
    model = make_persistence()
    config = SimConfig(initial=INITIAL, t_end=60.0, dt=0.005, output_stride=100)
    traj = simulate_ode(model, config)
    d12 = model.delta1 * model.delta2
    total = traj.S + traj.x / model.delta1 + traj.y / d12
    gap0 = abs(total[0] - model.S0)
    for t, sigma in zip(traj.times, total):
        assert abs(sigma - model.S0) <= gap0 * math.exp(-model.D * t) + 1e-9


def test_conservation_residual_matches_transient_oracle():
    # for the deterministic flow, phi(t) = -(total(t) - total(0)) / (D t)
    model = make_persistence()
    config = SimConfig(initial=INITIAL, t_end=100.0, dt=0.005, output_stride=200)
    traj = simulate_ode(model, config)
    phi = conservation_residual(traj, model)
    d12 = model.delta1 * model.delta2
    total = traj.S + traj.x / model.delta1 + traj.y / d12
    expected = -(total[1:] - total[0]) / (model.D * traj.times[1:])
    assert np.allclose(phi[1:], expected, atol=5e-5)
    assert abs(phi[-1]) < abs(phi[1])  # residual decays with the horizon


def test_equilibrium_consistent_start_keeps_phi_tiny():
    model = make_persistence()
    # initial state chosen on the budget plane: S + x/d1 + y/(d1 d2) = S0
    initial = State(2.0, 0.5, (model.S0 - 2.0 - 0.5 / model.delta1)
                    * model.delta1 * model.delta2)
    traj = simulate_ode(model, SimConfig(initial=initial, t_end=100.0, dt=0.005,
                                         output_stride=200))
    phi = conservation_residual(traj, model)
    assert np.max(np.abs(phi[1:])) < 1e-6


def test_running_average_trapezoid_accuracy():
    # nutrient-only washout has the closed form S(t) = S0 + (S(0)-S0) e^{-Dt};
    # its running average is S0 + (S(0)-S0)(1 - e^{-Dt})/(D t)
    model = make_extinction()
    config = SimConfig(initial=State(0.1, 0.0, 0.0), t_end=30.0, dt=0.01,
                       output_stride=50)
    traj = simulate_ode(model, config)
    t = traj.times[1:]
    expected = model.S0 + (0.1 - model.S0) * (1.0 - np.exp(-model.D * t)) / (model.D * t)
    assert np.allclose(traj.mean_S[1:], expected, atol=1e-6)
