"""Path integration: jump sampling, the log-space scheme, RK4, and statistics."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from chemlevy.integrator import (
    _MAX_JUMP_EVENTS,
    _MAX_MESH_STEPS,
    _check_config,
    derive_path_seed,
    simulate_batch,
)
from chemlevy.model import drift
from conftest import (
    INITIAL,
    TWO_MARKS,
    make_extinction,
    make_persistence,
    random_crisp_model,
)


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


def full_mesh(t_end, dt, events, stride):
    mesh = cl.integrator._Mesh(t_end, dt, stride, events)
    return mesh.piece(0, mesh.steps)


def test_event_at_origin_is_a_step():
    # an event drawn at exactly t=0 goes after the origin, never before it
    mesh_t, mesh_mark, rows = full_mesh(1.0, 0.5, [(0.0, 1), (0.25, 0)], 1)
    assert mesh_t.tolist() == [0.0, 0.0, 0.25, 0.5, 1.0]
    assert mesh_mark.tolist() == [-1, 1, 0, -1, -1]
    assert rows.tolist() == [-1, -1, -1, 1, 2]


def awkward_grids(rng, count):
    """(t_end, dt, n) triples over many magnitudes, with t_end / dt whole
    (n = steps) or not (n = ceil(steps))."""
    for _ in range(count):
        t_end = float(rng.uniform(1e-3, 1e4))
        steps = float(rng.integers(1, 3000) if rng.random() < 0.5 else rng.uniform(1.0, 3000.0))
        yield t_end, t_end / steps, math.ceil(steps)


def test_record_times_are_the_meshs_record_points():
    """record_times and the mesh's record points are bit for bit linspace's
    points 0, stride, 2 stride, ... and n, including n % stride == 0 and
    stride > n, and the mesh numbers its record points 1, 2, ... in order."""
    rng = np.random.default_rng(11)
    grids = [(10.0, 1.0, 10, 5), (10.0, 1.0, 10, 3), (1.0, 0.5, 2, 7), (500.0, 0.02, 25000, 100)]
    for t_end, dt, n in awkward_grids(rng, 2000):
        grids.append((t_end, dt, n, int(rng.choice([rng.integers(1, 200), n, n + 5]))))
    for t_end, dt, n, stride in grids:
        u = np.arange(n + 1)
        expected = np.linspace(0.0, t_end, n + 1)[(u % stride == 0) | (u == n)]
        assert cl.integrator.record_times(t_end, dt, stride).tobytes() == expected.tobytes()
        mesh_t, _, rows = full_mesh(t_end, dt, [], stride)
        assert mesh_t[rows >= 0].tobytes() == expected[1:].tobytes()
        assert rows[rows >= 0].tolist() == list(range(1, len(expected)))


def test_mesh_pieces_are_slices_of_the_woven_mesh():
    """A piece a..b of a mesh is that slice of the whole mesh, the linspace
    grid with every event inserted before the first grid point at or after
    it, for any cut and awkward (t_end, dt), with events on grid points and
    on their neighbouring floats, at the origin and at the end."""
    rng = np.random.default_rng(12)
    for t_end, dt, n in awkward_grids(rng, 300):
        grid = np.linspace(0.0, t_end, n + 1)
        on = rng.choice(grid, int(rng.integers(0, 6)))
        ev_t = np.concatenate((rng.uniform(0.0, t_end, int(rng.integers(0, 12))), on,
                               np.nextafter(on, 0.0), np.nextafter(on, math.inf)))
        ev_t = np.sort(ev_t[ev_t <= t_end])
        events = [(t, int(rng.integers(0, 3))) for t in ev_t.tolist()]
        stride = int(rng.integers(1, n + 3))
        pos = np.maximum(np.searchsorted(grid, ev_t, side="left"), 1)
        rec = np.zeros(n + 1, dtype=bool)
        rec[stride::stride] = True
        rec[n] = True
        rows = np.where(rec, np.cumsum(rec), -1)
        whole = (np.insert(grid, pos, ev_t),
                 np.insert(np.full(n + 1, -1), pos, [mk for _, mk in events]),
                 np.insert(rows, pos, -1))
        mesh = cl.integrator._Mesh(t_end, dt, stride, events)
        assert mesh.steps == n + len(events)
        for _ in range(5):
            a = int(rng.integers(0, mesh.steps))
            b = int(rng.integers(a + 1, mesh.steps + 1))
            for got, want in zip(mesh.piece(a, b), whole):
                assert got.tobytes() == want[a:b + 1].tobytes()


def test_mesh_memory_does_not_grow_with_the_horizon():
    """A mesh of 1e8 grid steps and its first and last chunk-sized pieces
    stay under 1 MB: no array spans the horizon."""
    events = [(0.5, 0), (5e7, 1), (5e7 + 0.5, 0), (1e8, 1)]
    tracemalloc.start()
    try:
        mesh = cl.integrator._Mesh(1e8, 1.0, 1000, events)
        first = mesh.piece(0, 4096)
        last = mesh.piece(mesh.steps - 4096, mesh.steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.n == 10**8
    assert first[0][:3].tolist() == [0.0, 0.5, 1.0]
    assert last[0][-3:].tolist() == [1e8 - 1, 1e8, 1e8]
    assert last[2][-1] == 10**5
    assert peak < 2**20


def terminal_state(scheme, model, t, marks, g):
    """The state at the last of the mesh points t (after the origin) that a
    path of a stochastic scheme steps to, in one chunk of the kernel the
    engine runs for it (for log-Euler the compiled kernel where it loads),
    with the increments g and the mark index (-1 for none) of each step."""
    config = SimConfig(initial=INITIAL, t_end=1.0, dt=0.5, scheme=scheme)
    kernel, start = cl.integrator._kernel(model, config, stochastic=True)
    column = np.empty((9, 2))
    rows = np.full(len(t) + 1, -1, dtype=np.intp)
    rows[-1] = 1
    end = kernel(np.concatenate(([0.0], t)), np.diff(t, prepend=0.0), g,
                 np.concatenate(([-1], marks)).astype(np.intp), rows, np.array(start), column)
    assert end == -1
    return column[:3, 1]


def uniform_mesh(k):
    """Mesh points and marks of 2**k steps of 2**-k on [0, 1], no jumps."""
    return np.arange(1, 2 ** k + 1) * 2.0 ** -k, np.full(2 ** k, -1)


def test_strong_order_of_both_stochastic_kernels():
    """Strong errors at T=1 against a fine path on the same Brownian path
    (coarse increments are sums of fine ones, Higham 2001): log-space
    Euler-Maruyama has order 1, because the noise is additive in log space,
    and linear-space Euler-Maruyama has order 1/2."""
    model = make_persistence().with_sigmas(0.5, 0.5, 0.5)
    fine, coarse, n_paths = 12, range(4, 9), 100
    rng = np.random.default_rng(2001)
    errors = np.zeros((2, len(coarse), n_paths))
    for p in range(n_paths):
        g = math.sqrt(2.0 ** -fine) * 0.5 * rng.standard_normal((2 ** fine, 3))
        for s, scheme in enumerate((cl.LOG_EULER, DIRECT_EULER)):
            reference = terminal_state(scheme, model, *uniform_mesh(fine), g)
            for c, k in enumerate(coarse):
                summed = g.reshape(2 ** k, -1, 3).sum(axis=1)
                got = terminal_state(scheme, model, *uniform_mesh(k), summed)
                errors[s, c, p] = np.abs(got - reference).max()
    log_dt = [math.log(2.0 ** -k) for k in coarse]
    log_euler, direct = (np.polyfit(log_dt, np.log(e.mean(axis=1)), 1)[0] for e in errors)
    assert abs(log_euler - 1.0) <= 0.15, log_euler
    assert abs(direct - 0.5) <= 0.15, direct


def jump_adapted_meshes(model, fine, coarse, rng):
    """One path's coupled jump-adapted meshes on [0, 1] (Platen and
    Bruti-Liberati 2010): the fine mesh of 2**fine steps and each coarse
    one of 2**k steps hold every jump time and mark, and each coarse
    increment is the sum of the fine ones over its step.  Returns each
    mesh's (t, marks, g), the fine one first, and the jump count."""
    events = sample_jumps(model.jumps, 1.0, rng)
    sigmas = np.array([model.sigma1, model.sigma2, model.sigma3])

    def mesh(k):
        t, marks = uniform_mesh(k)
        t = np.concatenate((t, [time for time, _ in events]))
        marks = np.concatenate((marks, [mk for _, mk in events])).astype(int)
        order = np.argsort(t, kind="stable")
        return t[order], marks[order]

    t_fine, marks_fine = mesh(fine)
    g = np.sqrt(np.diff(t_fine, prepend=0.0))[:, None] * sigmas * rng.standard_normal(
        (len(t_fine), 3))
    brownian = np.concatenate((np.zeros((1, 3)), np.cumsum(g, axis=0)))
    meshes = [(t_fine, marks_fine, g)]
    for k in coarse:
        t, marks = mesh(k)
        # every coarse mesh point is a fine one
        at = np.concatenate(([0], np.searchsorted(t_fine, t) + 1))
        assert t_fine[at[1:] - 1].tobytes() == t.tobytes()
        meshes.append((t, marks, np.diff(brownian[at], axis=0)))
    return meshes, len(events)


# jump rates that give a path on [0, 1] about 5 jumps
FREQUENT_MARKS = JumpSpec(tuple(dataclasses.replace(mk, weight=2.5) for mk in TWO_MARKS.marks))


def test_strong_order_of_log_euler_on_a_jump_adapted_mesh():
    """The coupled setup above with jumps, on jump_adapted_meshes:
    log-space Euler-Maruyama keeps strong order 1."""
    model = make_persistence(jumps=FREQUENT_MARKS).with_sigmas(0.5, 0.5, 0.5)
    fine, coarse, n_paths = 12, range(4, 9), 100
    rng = np.random.default_rng(2002)
    errors = np.zeros((len(coarse), n_paths))
    n_jumps = 0
    for p in range(n_paths):
        meshes, jumps = jump_adapted_meshes(model, fine, coarse, rng)
        n_jumps += jumps
        reference, *got = (terminal_state(cl.LOG_EULER, model, *m) for m in meshes)
        errors[:, p] = [np.abs(state - reference).max() for state in got]
    assert n_jumps >= 4 * n_paths
    log_dt = [math.log(2.0 ** -k) for k in coarse]
    slope = np.polyfit(log_dt, np.log(errors.mean(axis=1)), 1)[0]
    assert abs(slope - 1.0) <= 0.15, slope


def test_weak_order_of_log_euler_on_a_jump_adapted_mesh():
    """Weak errors at T=1 on the same coupled meshes: the mean of ln y(T)
    on each coarse mesh, against its mean on the fine one, falls like dt,
    so log-space Euler-Maruyama has weak order 1 (Higham 2001; Platen and
    Bruti-Liberati 2010).  Coupling the meshes makes each path's
    difference of order dt, so 400 paths estimate each mean difference to
    about a tenth of itself."""
    model = make_persistence(jumps=FREQUENT_MARKS).with_sigmas(0.5, 0.5, 0.5)
    fine, coarse, n_paths = 12, range(4, 9), 400
    rng = np.random.default_rng(2010)
    ln_y = np.array([[math.log(terminal_state(cl.LOG_EULER, model, *m)[2])
                      for m in jump_adapted_meshes(model, fine, coarse, rng)[0]]
                     for _ in range(n_paths)])
    errors = np.abs(ln_y[:, 1:].mean(axis=0) - ln_y[:, 0].mean())
    log_dt = [math.log(2.0 ** -k) for k in coarse]
    slope = np.polyfit(log_dt, np.log(errors), 1)[0]
    assert abs(slope - 1.0) <= 0.2, slope


# The direct-Euler and RK4 kernels as each stepped in its own loop, before
# both became step functions of integrator._linear: references that the
# shared loop must match bit for bit.

def reference_direct_euler(model: CrispModel, initial: State, floors: list):
    """Linear-space Euler-Maruyama kernel; aborts on the first nonpositive state."""
    comp1, comp2, comp3 = (model.jumps.gamma_intensity(i) for i in (1, 2, 3))
    marks = model.jumps.marks
    isfinite, log = math.isfinite, math.log
    S, x, y = initial.S, initial.x, initial.y
    iS = ix = iy = 0.0
    out = S, x, y
    while True:
        recs = []
        for t, dt, g1, g2, g3, mk, rec in (yield out):
            pS, px, py = S, x, y
            dS, dx, dy = drift(model, S, x, y)
            S = S + (dS - comp1 * S) * dt + S * g1
            x = x + (dx - comp2 * x) * dt + x * g2
            y = y + (dy - comp3 * y) * dt + y * g3
            if mk >= 0:
                mark = marks[mk]
                S *= 1.0 + mark.gamma1
                x *= 1.0 + mark.gamma2
                y *= 1.0 + mark.gamma3
            if S <= 0.0 or x <= 0.0 or y <= 0.0:
                raise SimulationError(
                    "direct Euler scheme produced a nonpositive state", t)
            if not (isfinite(S) and isfinite(x) and isfinite(y)):
                raise SimulationError("non-finite state", t)
            h = 0.5 * dt
            iS += (pS + S) * h
            ix += (px + x) * h
            iy += (py + y) * h
            if rec:
                recs.append((S, x, y, iS, ix, iy, log(x), log(y)))
        out = recs


def reference_rk4(model: CrispModel, initial: State, floors: list):
    """Classical fourth-order Runge-Kutta kernel for the noise-free system.

    Its steps carry no noise or mark, only (t, dt, record); the log of a zero
    coordinate is recorded as -inf.
    """
    isfinite, log = math.isfinite, math.log
    ninf = float("-inf")
    S, x, y = initial.S, initial.x, initial.y
    iS = ix = iy = 0.0
    out = S, x, y
    while True:
        recs = []
        for t, dt, rec in (yield out):
            pS, px, py = S, x, y
            k1 = drift(model, S, x, y)
            k2 = drift(model, S + 0.5 * dt * k1[0], x + 0.5 * dt * k1[1], y + 0.5 * dt * k1[2])
            k3 = drift(model, S + 0.5 * dt * k2[0], x + 0.5 * dt * k2[1], y + 0.5 * dt * k2[2])
            k4 = drift(model, S + dt * k3[0], x + dt * k3[1], y + dt * k3[2])
            S += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            x += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            y += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
            if not (isfinite(S) and isfinite(x) and isfinite(y)):
                raise SimulationError("non-finite state", t)
            h = 0.5 * dt
            iS += (pS + S) * h
            ix += (px + x) * h
            iy += (py + y) * h
            if rec:
                recs.append((S, x, y, iS, ix, iy,
                             log(x) if x > 0.0 else ninf, log(y) if y > 0.0 else ninf))
        out = recs


def drive_reference(kernel, model, initial, steps, chunk):
    """A reference kernel's t=0 state and every record, or its abort's
    message and time, with steps sent through its generator chunk at a
    time."""
    path = kernel(model, initial, [None, None, None])
    records = [next(path)]
    try:
        for a in range(0, len(steps), chunk):
            recs = path.send(iter(steps[a:a + chunk]))
            records += recs
            recs.clear()
    except SimulationError as exc:
        return str(exc), exc.time
    return records


def chunk_arrays(steps):
    """Steps (t, dt, g1, g2, g3, mark, record) as a kernel's arrays: mesh
    times, step sizes, noise, marks and record rows 1, 2, ..., with the
    origin (t=0, no mark, no record) first."""
    t, dts, g1, g2, g3, marks, rec = (np.array(c) for c in zip(*steps))
    rows = np.where(rec, np.cumsum(rec), -1)
    return (np.concatenate(([0.0], t)), dts, np.stack((g1, g2, g3), axis=1),
            np.concatenate(([-1], marks)).astype(np.intp),
            np.concatenate(([-1], rows)).astype(np.intp))


def drive(step, initial, steps, chunk):
    """What drive_reference returns, of integrator._linear with a step
    function, given the steps chunk at a time as the engine gives them."""
    t, dts, g, marks, rows = chunk_arrays(steps)
    s = np.array([math.nan] * 3 + [initial.S, initial.x, initial.y] + [0.0] * 6 + [math.nan] * 3)
    column = np.full((9, rows.max() + 1), math.nan)
    try:
        for a in range(0, len(dts), chunk):
            b = a + chunk
            assert cl.integrator._linear(step, t[a:b + 1], dts[a:b], g[a:b], marks[a:b + 1],
                                         rows[a:b + 1], s, column) == -1
    except SimulationError as exc:
        return str(exc), exc.time
    return [(initial.S, initial.x, initial.y), *map(tuple, column[:8, 1:].T)]


def random_steps(rng, model, n):
    """n linear-space steps (t, dt, g1, g2, g3, mark, record) with random
    sizes, noise, jump marks and record flags."""
    dts = rng.uniform(1e-3, 0.05, n)
    sigmas = np.array([model.sigma1, model.sigma2, model.sigma3])
    g = np.sqrt(dts)[:, None] * sigmas * rng.standard_normal((n, 3))
    k = len(model.jumps)
    marks = np.where(rng.random(n) < (0.2 if k else 0.0), rng.integers(0, max(k, 1), n), -1)
    return list(zip(np.cumsum(dts).tolist(), dts.tolist(), *g.T.tolist(),
                    marks.tolist(), (rng.random(n) < 0.3).tolist()))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(got, tuple):                  # (abort message, time)
        assert got == want
        return
    assert [len(r) for r in got] == [len(r) for r in want]
    assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_linear_kernels_equal_their_own_loops(seed):
    rng = np.random.default_rng(seed)
    model = random_crisp_model(rng)
    steps = random_steps(rng, model, 200)
    ode_steps = [(t, dt, rec) for t, dt, *_, rec in steps]
    zero = [(t, dt, 0.0, 0.0, 0.0, -1, rec) for t, dt, rec in ode_steps]
    for chunk in (1, 7):
        assert_same_bits(drive(cl.integrator._direct_euler(model), INITIAL, steps, chunk),
                         drive_reference(reference_direct_euler, model, INITIAL, steps, chunk))
        assert_same_bits(drive(cl.integrator._rk4(model), INITIAL, zero, chunk),
                         drive_reference(reference_rk4, model, INITIAL, ode_steps, chunk))


@pytest.mark.parametrize("chunk", [1, 7])
def test_linear_kernels_abort_and_record_as_their_own_loops(chunk):
    model = make_persistence(jumps=TWO_MARKS)
    steps = random_steps(np.random.default_rng(3), model, 40)
    cases = []
    # a nonpositive state at step 20 and a non-finite one at step 30
    for k, g in ((20, -5.0), (30, math.inf)):
        bad = list(steps)
        bad[k] = bad[k][:2] + (g, 0.0, 0.0, -1, True)
        cases.append(bad)
    for bad, message in zip(cases, ("nonpositive", "non-finite")):
        got = drive(cl.integrator._direct_euler(model), INITIAL, bad, chunk)
        assert got == drive_reference(reference_direct_euler, model, INITIAL, bad, chunk)
        assert message in got[0]
    # RK4 overflows at a huge step, and a zero axis records -inf logs
    ode_steps = [(t, dt, rec) for t, dt, *_, rec in steps]
    blown = ode_steps[:25] + [(1e300, 1e300, True)] + ode_steps[25:]
    outcomes = []
    for initial, ode in ((INITIAL, blown), (State(1.0, 0.5, 0.0), ode_steps)):
        want = drive_reference(reference_rk4, model, initial, ode, chunk)
        got = drive(cl.integrator._rk4(model), initial,
                    [(t, dt, 0.0, 0.0, 0.0, -1, rec) for t, dt, rec in ode], chunk)
        assert_same_bits(got, want)
        outcomes.append(got)
    overflow, zero_axis = outcomes
    assert "non-finite" in overflow[0]
    assert zero_axis[-1][-1] == -math.inf


def drive_path(compiled, model, initial, steps, chunk):
    """A log-Euler path's t=0 state, record block, floor times and carried
    state, or its abort's type, message and time, with the steps (t, dt,
    g1, g2, g3, mark, record) given chunk at a time to the compiled kernel,
    or with compiled None to _log_euler.  The path records into the middle
    path of a three-path block, so a write past its rows shows."""
    t, dts, g, marks, rows = chunk_arrays(steps)
    config = SimConfig(initial=initial, t_end=1.0, dt=0.5)
    _, start = cl.integrator._kernel(model, config, stochastic=True)
    kernel = functools.partial(compiled or cl.integrator._log_euler,
                               *cl.integrator._log_drift(model))
    block = np.full((9, 3, rows.max() + 1), np.nan)
    s = np.array(start)
    for a in range(0, len(dts), chunk):
        b = a + chunk
        end = kernel(t[a:b + 1], dts[a:b], g[a:b], marks[a:b + 1], rows[a:b + 1], s,
                     block[:, 1])
        if end >= 0:
            exc = SimulationError("log-state overflow", float(t[a + end + 1]))
            return type(exc), str(exc), exc.time
    floors = [None if math.isnan(v) else v for v in s[12:].tolist()]
    return start[3:6], block.tobytes(), floors, s.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compiled_kernel_steps_as_log_euler(compiled, seed):
    """The compiled chunk kernel is _log_euler bit for bit at any chunk
    size: its records, t=0 state and floor times, and where a step pushes a
    coordinate below the floor or past the ceiling, or turns it NaN."""
    rng = np.random.default_rng(seed)
    model = random_crisp_model(rng)
    steps = random_steps(rng, model, 300)
    cases = [steps]
    k = int(rng.integers(0, 300))
    for g in ((0.0, -1e4, -1e4), (1e4, 0.0, 0.0), (0.0, math.nan, 0.0)):
        bad = list(steps)
        bad[k] = bad[k][:2] + g + bad[k][5:]
        cases.append(bad)
    outcomes = []
    for case in cases:
        for chunk in (1, 7, 300):
            want = drive_path(None, model, INITIAL, case, chunk)
            assert drive_path(compiled, model, INITIAL, case, chunk) == want
        outcomes.append(want)
    # at step k (unless the path aborted before it) x and y pin, or the
    # path aborts, the same way past the ceiling as at a NaN
    pinned, overflow, nan = outcomes[1:]
    assert pinned[0] is SimulationError or None not in pinned[2][1:]
    assert overflow[0] is SimulationError and nan == overflow


def test_compiled_kernel_raises_where_math_exp_overflows(compiled):
    """A jump from below the ceiling past exp's range, where math.exp raises
    OverflowError, aborts the path as a log-state overflow at the step's
    time, from the compiled kernel as from _log_euler."""
    model = make_persistence(jumps=JumpSpec((JumpMark(1.0, 0.0, 0.0, 1e6),)))
    initial = State(1.0, 0.5, math.exp(699.0))
    steps = [(1e-9, 1e-9, 0.0, 0.0, 0.0, -1, True), (2e-9, 1e-9, 0.0, 0.0, 0.0, 0, True)]
    want = drive_path(None, model, initial, steps, 2)
    assert want == (SimulationError, "log-state overflow at t=2e-09", 2e-9)
    assert drive_path(compiled, model, initial, steps, 2) == want
    assert drive_path(compiled, model, initial, steps, 1) == want


def test_compiled_kernel_refuses_arrays_that_do_not_fit(compiled):
    """The compiled wrapper refuses a record row past the path's rows, a
    mark past the jump sizes, mesh arrays of unequal lengths, a carried state
    of the wrong size or type, and rows too few or with strided records, with
    a ValueError before the kernel runs: the rows and the carried state stay
    as they were."""
    model = make_persistence(jumps=TWO_MARKS)
    k, jl = cl.integrator._log_drift(model)
    t, dts, g, marks, rows = chunk_arrays(random_steps(np.random.default_rng(5), model, 20))
    block = np.full((9, rows.max() + 1), 0.25)
    strided = np.full((rows.max() + 1, 9), 0.25).T
    s = np.arange(15.0)
    good = dict(t=t, dt=dts, g=g, mark=marks, row=rows, s=s, out=block)
    misfits = [dict(good, row=np.where(rows == rows.max(), rows.max() + 1, rows)),
               dict(good, mark=np.where(np.arange(len(marks)) == 3, len(jl), marks)),
               dict(good, t=t[:-1]), dict(good, mark=marks[:-1]), dict(good, row=rows[:-1]),
               dict(good, s=s[:14]), dict(good, s=s.astype(np.float32)),
               dict(good, out=block[:7]), dict(good, out=strided)]
    for misfit in misfits:
        with pytest.raises(ValueError, match="do not fit the compiled kernel"):
            compiled(k, jl, **misfit)
        assert np.all(block == 0.25) and np.all(strided == 0.25)
        assert s.tolist() == list(range(15))
    assert compiled(k, jl, **good) == -1


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


_SERIES_FIELDS = ("times", "S", "x", "y", "mean_S", "mean_x", "mean_y",
                  "lnx_over_t", "lny_over_t", "brownian", "comp_jump")

# paths of a wide run
WIDE = 40


def assert_same_path(got, want, got_phi=None, want_phi=None):
    """Two outcomes of one path are the same bytes: every Trajectory field,
    the budget residual (if given), the jump log and the floor times, or
    the abort's message and time."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, SimulationError):
        assert (str(got), got.time) == (str(want), want.time)
        return
    for name in _SERIES_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    if want_phi is not None:
        assert got_phi.tobytes() == want_phi.tobytes()
    assert got.jump_log == want.jump_log
    assert got.floor_times == want.floor_times


def assert_compiled_is_python(model, config, seeds):
    """simulate_batch of seeds runs twice, as is (its log-Euler paths on the
    compiled kernel) and with the kernel's loader made to return nothing
    (on the Python _log_euler), and every path comes out as the same bytes.
    Returns the first run's paths."""
    assert cl._compiled.log_euler_chunk() is not None
    (series, paths), (want_series, want_paths) = (
        simulate_batch(model, config, seeds), python_kernel(simulate_batch, model, config, seeds))
    for i, (got, want) in enumerate(zip(paths, want_paths)):
        assert_same_path(got, want, series[8, i], want_series[8, i])
    return paths


def python_kernel(run, *args):
    """run(*args) with the compiled kernel's loader returning nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cl._compiled, "log_euler_chunk", lambda: None)
        return run(*args)


def path_of(n_paths, model, config):
    """The last path of simulate_batch of n_paths seeds (config.seed + k),
    or with no paths simulate_ode's path, or the abort of either."""
    if not n_paths:
        return simulate_ode(model, config)
    return simulate_batch(model, config, [config.seed + k for k in range(n_paths)])[1][-1]


# inflated dilution drives both populations to the pin within t ~ 160
PINNING = CrispModel(S0=1.0, D=5.0, m1=0.4, delta1=0.5, sigma1=0.05,
                     m2=0.3, delta2=0.5, sigma2=0.05, sigma3=0.05)
# a noisy nutrient overflows some paths of a run, not all
OVERFLOWING = make_extinction(jumps=TWO_MARKS).with_sigmas(8.0, 0.1, 0.1)


@pytest.mark.parametrize("n_paths, model, config", [
    (1, make_persistence(jumps=TWO_MARKS), short_config(t_end=20.0, output_stride=1)),
    (1, make_persistence(jumps=TWO_MARKS), short_config(t_end=20.0, output_stride=3)),
    # the extinction model pins y near t = 1400
    (1, make_extinction(), short_config(t_end=1600.0, dt=0.5, output_stride=1)),
    (1, make_extinction(), short_config(t_end=1600.0, dt=0.5, output_stride=3)),
    (1, make_persistence(jumps=TWO_MARKS),
     short_config(t_end=20.0, output_stride=3, scheme=DIRECT_EULER)),
    (1, make_extinction().with_sigmas(0.1, 2.0, 0.1),
     short_config(t_end=50.0, dt=0.05, seed=14, scheme=DIRECT_EULER)),
    # a zero axis makes RK4's rate column -inf
    (0, make_persistence(), short_config(t_end=20.0, initial=State(1.0, 0.5, 0.0))),
    (WIDE, make_persistence(jumps=TWO_MARKS), short_config(t_end=5.0, output_stride=1)),
    (WIDE, make_persistence(jumps=TWO_MARKS), short_config(t_end=5.0, output_stride=3)),
    (WIDE, PINNING, short_config(t_end=300.0, dt=0.5, output_stride=3)),
    (WIDE, OVERFLOWING, short_config(t_end=4.0, dt=0.02, seed=1, output_stride=3)),
], ids=["jumps-stride1", "jumps-stride3", "pinned-stride1", "pinned-stride3",
        "direct-stride3", "direct-abort", "rk4-zero-axis", "batch-jumps-stride1",
        "batch-jumps-stride3", "batch-pinned", "batch-abort"])
def test_chunk_size_does_not_change_the_path(monkeypatch, compiled, n_paths, model, config):
    """At chunks of 1 and 7 steps a path is what it is at the default chunk
    size, and a log-Euler path is, too, on the Python kernel."""
    reference = path_of(n_paths, model, config)
    log_euler = n_paths and config.scheme != DIRECT_EULER
    for chunk in (None, 1, 7):
        if chunk is not None:
            monkeypatch.setattr(cl.integrator, "_CHUNK_STEPS", chunk)
            assert_same_path(path_of(n_paths, model, config), reference)
        if log_euler:
            assert_same_path(python_kernel(path_of, n_paths, model, config), reference)
    # every input exercises a pin, a jump, an abort or a -inf rate
    assert (isinstance(reference, SimulationError) or reference.floor_times[2] is not None
            or reference.jump_log or reference.lny_over_t[-1] == -math.inf)


@pytest.mark.parametrize("scheme", [cl.LOG_EULER, DIRECT_EULER])
def test_brownian_sum_is_the_cumsum_of_the_paths_own_noise(monkeypatch, compiled, scheme):
    """A jump-free path's Brownian martingale M(T) is, bit for bit, the last
    row of the cumsum of sigma_i dB_i drawn on the uniform grid from the
    path's own seed, at chunks of 1, 7 and the default size, and for
    log-Euler from the compiled and the Python kernel."""
    model = make_persistence()
    config = short_config(t_end=2.0, seed=11, scheme=scheme)
    n = 200
    sigmas = np.array([model.sigma1, model.sigma2, model.sigma3])
    noise = (np.sqrt(np.diff(np.linspace(0.0, config.t_end, n + 1)))[:, None] * sigmas
             * rng_for(config.seed).standard_normal((n, 3)))
    want = np.cumsum(noise, axis=0)[-1]
    for chunk in (None, 1, 7):
        if chunk is not None:
            monkeypatch.setattr(cl.integrator, "_CHUNK_STEPS", chunk)
        for run in (simulate, functools.partial(python_kernel, simulate)):
            traj = run(model, config)
            assert traj.jump_log == []
            assert traj.brownian.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_paths", [1, WIDE], ids=["simulate", "batched"])
def test_a_stride_past_int64_records_as_stride_n_does(compiled, n_paths):
    """Any stride of at least the step count n (here 1000) records t_end
    alone, bit for bit as stride n does, even one too large for int64, on
    either log-Euler kernel."""
    model = make_persistence(jumps=TWO_MARKS)
    want = path_of(n_paths, model, short_config(t_end=10.0, output_stride=1000))
    assert want.times.tolist() == [0.0, 10.0]
    for run in (path_of, functools.partial(python_kernel, path_of)):
        got = run(n_paths, model, short_config(t_end=10.0, output_stride=2**64))
        assert_same_path(got, want)


def assert_batch_is_each_path_alone(model, config, n_paths):
    """simulate_batch equals simulate of each path alone, bit for bit: every
    record, the budget residual, both martingales, the jump log, the floor
    times, and the abort message and time; and log-Euler paths are the same
    bytes on either kernel.  Returns the per-path outcomes."""
    seeds = [derive_path_seed(config.seed, i) for i in range(n_paths)]
    series, paths = simulate_batch(model, config, seeds)
    assert series.shape == (9, n_paths, len(cl.integrator.record_times(
        config.t_end, config.dt, config.output_stride)))
    alone = []
    for i, seed in enumerate(seeds):
        try:
            want = simulate(model, dataclasses.replace(config, seed=seed))
        except SimulationError as exc:
            want = exc
        assert_same_path(paths[i], want, series[8, i],
                         None if isinstance(want, SimulationError)
                         else conservation_residual(want, model))
        alone.append(want)
    if config.scheme == cl.LOG_EULER:
        assert_compiled_is_python(model, config, seeds)
    return alone


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), stride=st.sampled_from([1, 3, 100]))
def test_batch_equals_each_path_alone(compiled, seed, stride):
    model = random_crisp_model(np.random.default_rng(seed))
    config = SimConfig(initial=INITIAL, t_end=4.0, dt=0.02, seed=seed, output_stride=stride)
    assert_batch_is_each_path_alone(model, config, WIDE)


@pytest.mark.parametrize("stride", [1, 3, 100])
def test_batch_equals_each_path_alone_through_pins_and_aborts(compiled, stride):
    pinned = assert_batch_is_each_path_alone(
        PINNING, short_config(t_end=300.0, dt=0.5, output_stride=stride), WIDE)
    assert all(path.floor_times[1] is not None for path in pinned)
    aborted = assert_batch_is_each_path_alone(
        OVERFLOWING, short_config(t_end=4.0, dt=0.02, output_stride=stride), WIDE + 3)
    errors = [isinstance(path, SimulationError) for path in aborted]
    assert any(errors) and not all(errors)
    # a microscopic S(0) overflows every path within its first steps
    doomed = assert_batch_is_each_path_alone(
        make_extinction(), short_config(initial=State(1e-12, 0.5, 0.2), output_stride=stride),
        WIDE)
    assert all(isinstance(path, SimulationError) for path in doomed)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_batch_is_each_path_alone_through_every_kind_of_step(monkeypatch, compiled, chunk):
    """A batch is each path alone on either kernel at any chunk size,
    through steps where several paths jump, where every path records in one
    shared row, where some paths record and others do not, and on meshes of
    different lengths."""
    if chunk is not None:
        monkeypatch.setattr(cl.integrator, "_CHUNK_STEPS", chunk)
    model = make_persistence(jumps=TWO_MARKS)
    config = short_config(t_end=5.0, dt=0.02, seed=8, output_stride=3)
    assert_batch_is_each_path_alone(model, config, WIDE)
    # every input exercises each kind of step: each path's mesh, as one
    # (paths, steps) table padded with -1 past its end
    meshes = [cl.integrator._Mesh(config.t_end, config.dt, config.output_stride,
                                  sample_jumps(model.jumps, config.t_end,
                                               rng_for(derive_path_seed(config.seed, i))))
              for i in range(WIDE)]
    marks = np.full((WIDE, max(mesh.steps for mesh in meshes)), -1)
    rows = marks.copy()
    for i, mesh in enumerate(meshes):
        _, mark, row = mesh.piece(0, mesh.steps)
        marks[i, :mesh.steps], rows[i, :mesh.steps] = mark[1:], row[1:]
    on = rows >= 0
    assert ((marks >= 0).sum(axis=0) >= 2).any()
    assert (on.all(axis=0) & (rows == rows[0]).all(axis=0)).any()
    assert (on.any(axis=0) & ~on.all(axis=0)).any()
    assert len({mesh.steps for mesh in meshes}) > 1


def test_batch_of_direct_euler_paths_is_each_path_alone():
    """simulate_batch steps direct-Euler seeds path by path, each as
    simulate steps it alone, aborts included."""
    assert_batch_is_each_path_alone(
        make_persistence(jumps=TWO_MARKS),
        short_config(t_end=20.0, output_stride=3, scheme=DIRECT_EULER), WIDE)
    # at sigma2 = 2 (the direct-abort input of
    # test_chunk_size_does_not_change_the_path) every path aborts, at 1.2 some
    config = short_config(t_end=50.0, dt=0.05, seed=14, scheme=DIRECT_EULER)
    for sigma2, check in ((2.0, all), (1.2, lambda errors: any(errors) and not all(errors))):
        aborted = assert_batch_is_each_path_alone(
            make_extinction().with_sigmas(0.1, sigma2, 0.1), config, WIDE)
        assert check([isinstance(path, SimulationError) for path in aborted])


def test_batch_needs_a_seed():
    with pytest.raises(ValueError, match="seeds must be nonempty"):
        simulate_batch(make_persistence(), short_config(), [])


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


def test_config_validation(monkeypatch):
    def no_draw(*args):
        raise AssertionError("sample_jumps ran")

    # every refusal comes before the jump schedule is drawn
    monkeypatch.setattr(cl.integrator, "sample_jumps", no_draw)
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
    for stride in (0, 2.5, 1e20, math.nan):
        with pytest.raises(ValueError, match="output_stride"):
            simulate(model, short_config(output_stride=stride))
        with pytest.raises(ValueError, match="output_stride"):
            cl.ensemble(model, short_config(output_stride=stride), 2)
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
    # 1e7 expected events fit the mesh cap but not the event cap: an event
    # costs memory, a grid step does not
    over = make_persistence(jumps=JumpSpec((JumpMark(1e5, 0.1, 0.1, 0.1),)))
    assert 100.0 / 0.01 + 1e5 * 100.0 <= _MAX_MESH_STEPS
    with pytest.raises(ValueError, match="above the cap of 5e[+]06 events per path"):
        simulate(over, short_config(t_end=100.0))
    with pytest.raises(ValueError, match="above the cap of 5e[+]06 events per path"):
        cl.ensemble(over, short_config(t_end=100.0), 2, workers=2)
    _check_config(short_config(t_end=1e3, dt=1.0), True, _MAX_JUMP_EVENTS / 1e3)  # at the cap


_float = st.floats() | st.sampled_from([1e300, 1e-320, 5e-324, -0.0, 1e-10])


@given(t_end=_float, dt=_float, s=_float, x=_float, y=_float, jump_rate=_float,
       positive=st.booleans())
def test_config_check_raises_only_value_error(t_end, dt, s, x, y, jump_rate, positive):
    config = SimConfig(initial=State(s, x, y), t_end=t_end, dt=dt)
    try:
        _check_config(config, positive, jump_rate)
    except ValueError:
        return
    # an accepted config asks for a finite mesh and jump count under the caps
    assert t_end / dt + max(jump_rate, 0.0) * t_end <= _MAX_MESH_STEPS
    assert max(jump_rate, 0.0) * t_end <= _MAX_JUMP_EVENTS
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
