"""Path simulation: jump-diffusion integration and a classical ODE solver.

The stochastic scheme ("log_euler") advances the logarithms of the three
concentrations with Euler-Maruyama drift/noise steps on a jump-adapted mesh
(the uniform dt-grid merged with the sampled jump times) and applies the exact
multiplicative jump ln(1 + gamma_i) at each event.  Working in log space makes
strict positivity structural: no step can produce a nonpositive concentration.
A naive linear-space Euler scheme ("direct_euler") is kept purely as a
diagnostic of why that guarantee matters.  Both schemes and the RK4 solver
of the noise-free system are kernels of one chunked engine.

Each trajectory also accumulates, on the full fine mesh, the running time
averages of S, x, y (trapezoid rule), the exponential-rate statistics
ln x(t)/t and ln y(t)/t, and the terminal Brownian and compensated-jump
martingale terms used by the long-run diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._lazy import np
from .model import CrispModel, JumpSpec, State, drift

LOG_EULER = "log_euler"
DIRECT_EULER = "direct_euler"

# Below this log-concentration (state ~ 1e-304) a coordinate is flagged
# numerically extinct and pinned, so extinction runs keep a finite state
# instead of aborting; rate statistics stay meaningful up to the flag time.
FLOOR_LOG = -700.0
_FLOOR_LIN = math.exp(FLOOR_LOG)
_CEIL_LOG = 700.0

# Mesh steps a kernel advances per chunk.  Noise, step sizes and the
# kernel's per-step lists exist for one chunk at a time, so beyond the mesh
# arrays a path's memory does not grow with its horizon.
_CHUNK_STEPS = 4096

# Largest mesh (uniform steps plus expected jump events) a path may ask for,
# checked before anything is allocated: about 1.7 GB of mesh at 17 B a step.
_MAX_MESH_STEPS = 10**8


class SimulationError(RuntimeError):
    """Integration failed (state overflow or positivity breach)."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} at t={time:.6g}")
        self.time = time


@dataclass(frozen=True)
class SimConfig:
    """Run settings shared by the stochastic and deterministic integrators.

    output_stride records every n-th uniform grid point (plus the final
    time); running statistics are always accumulated on the full fine mesh,
    so a coarse stride never degrades them.
    """

    initial: State
    t_end: float
    dt: float
    seed: int = 0
    output_stride: int = 1
    scheme: str = LOG_EULER


@dataclass
class Trajectory:
    """Recorded path: states, running statistics, martingales, jump log.

    ``floor_times`` holds, per coordinate (S, x, y), the first time the
    log-state was pinned at FLOOR_LOG (None if never).  ``rate_x``/``rate_y``
    are the terminal exponential-rate statistics ln c(t)/t, frozen at the
    pin time for pinned coordinates (past it the pinned value no longer
    tracks the true decay).
    """

    times: np.ndarray
    S: np.ndarray
    x: np.ndarray
    y: np.ndarray
    mean_S: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    lnx_over_t: np.ndarray
    lny_over_t: np.ndarray
    brownian: np.ndarray      # shape (3,): terminal M_i(T) = sigma_i * B_i(T)
    comp_jump: np.ndarray     # shape (3,): terminal compensated jump martingale
    jump_log: list
    floor_times: tuple = (None, None, None)

    @property
    def rate_x(self) -> float:
        return self._rate(1)

    @property
    def rate_y(self) -> float:
        return self._rate(2)

    def _rate(self, coord: int) -> float:
        ft = self.floor_times[coord]
        if ft is not None:
            return FLOOR_LOG / ft
        series = (self.S, self.x, self.y)[coord]
        t = float(self.times[-1])
        return math.log(series[-1]) / t if series[-1] > 0.0 else float("-inf")


def _check_config(config: SimConfig, positive_initial: bool,
                  jump_rate: float = 0.0) -> None:
    if not 0.0 < config.t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {config.t_end!r}")
    if not 0.0 < config.dt < config.t_end:
        raise ValueError(f"dt must lie in (0, t_end), got {config.dt!r}")
    steps = config.t_end / config.dt + max(jump_rate, 0.0) * config.t_end
    if not steps <= _MAX_MESH_STEPS:
        raise ValueError(f"t_end/dt plus the expected jump count is {steps:.3g}, "
                         f"above the cap of {_MAX_MESH_STEPS:.0e} mesh steps")
    if config.output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, got {config.output_stride!r}")
    if config.scheme not in (LOG_EULER, DIRECT_EULER):
        raise ValueError(f"unknown scheme {config.scheme!r}")
    s = config.initial
    if positive_initial:
        if not (0.0 < s.S < math.inf and 0.0 < s.x < math.inf and 0.0 < s.y < math.inf):
            raise ValueError(f"initial state must be strictly positive and finite, got {s}")
    elif not (0.0 <= s.S < math.inf and 0.0 <= s.x < math.inf and 0.0 <= s.y < math.inf):
        raise ValueError(f"initial state must be nonnegative and finite, got {s}")


def sample_jumps(jumps: JumpSpec, t_end: float, rng: np.random.Generator) -> list:
    """Draw the compound-Poisson event schedule on (0, t_end].

    Returns time-ordered (time, mark index) pairs: the event count is
    Poisson(total_rate * t_end), times are uniform on the window, and each
    mark is chosen with probability weight_k / total_rate.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    k = len(jumps)
    if k == 0:
        return []
    rate = jumps.total_rate
    if rate <= 0.0:
        return []
    n = int(rng.poisson(rate * t_end))
    if n == 0:
        return []
    times = rng.uniform(0.0, t_end, size=n)
    probs = np.array([m.weight for m in jumps.marks]) / rate
    marks = rng.choice(k, size=n, p=probs)
    order = np.argsort(times, kind="stable")
    return list(zip(times[order].tolist(), marks[order].tolist()))


def _build_mesh(t_end: float, dt: float, events: list, stride: int):
    """Weave jump events into the uniform dt-grid.

    Returns parallel arrays over the mesh: times, mark index (-1 on grid
    points), and record flag.  An event falling exactly on a grid point is
    placed before it, so recorded states are right-continuous (post-jump).
    The origin is recorded up front by the caller, never as a step target.
    """
    # t_end is divided into whole steps of size ~dt (exact when divisible)
    n = max(1, int(math.ceil(t_end / dt - 1e-9)))
    uniform = np.linspace(0.0, t_end, n + 1)
    n_last = len(uniform) - 1
    marks = np.full(len(uniform), -1, dtype=np.intp)
    rec = np.zeros(len(uniform), dtype=bool)
    rec[stride::stride] = True
    rec[n_last] = True
    if not events:
        return uniform, marks, rec
    ev_t = np.array([t for t, _ in events])
    ev_mark = np.array([mk for _, mk in events], dtype=np.intp)
    # first grid point at or after each event, but never before the origin,
    # so an event at t=0 is still a step; equal-position events keep order
    pos = np.maximum(np.searchsorted(uniform, ev_t, side="left"), 1)
    return (np.insert(uniform, pos, ev_t), np.insert(marks, pos, ev_mark),
            np.insert(rec, pos, False))


def record_times(t_end: float, dt: float, stride: int) -> np.ndarray:
    """The times every path of a config records at: 0, then every stride-th
    grid point and t_end.  Jump events are never record points, so this is
    each path's ``Trajectory.times``."""
    mesh_t, _, rec = _build_mesh(t_end, dt, [], stride)
    return np.concatenate(([0.0], mesh_t[rec]))


def _log_euler(model: CrispModel, initial: State, floors: list):
    """Log-space Euler-Maruyama kernel with exact multiplicative jumps.

    Every kernel is a generator with this signature.  It first yields the
    t=0 state; then each send() passes the steps of one chunk and gets back
    that chunk's records (S, x, y, the three trapezoid integrals, ln x, ln y),
    which the caller empties once packed.  A kernel stores its first pin
    times in floors.
    """
    # per-mark log jump sizes
    jl1 = [math.log1p(mk.gamma1) for mk in model.jumps.marks]
    jl2 = [math.log1p(mk.gamma2) for mk in model.jumps.marks]
    jl3 = [math.log1p(mk.gamma3) for mk in model.jumps.marks]

    # Ito-corrected per-capita log drifts, not model.drift: constants folded once
    c1 = model.D + 0.5 * model.sigma1 ** 2 + model.jumps.gamma_intensity(1)
    c2 = model.D + 0.5 * model.sigma2 ** 2 + model.jumps.gamma_intensity(2)
    c3 = model.D + 0.5 * model.sigma3 ** 2 + model.jumps.gamma_intensity(3)
    dso = model.D * model.S0
    m1d1 = model.m1 / model.delta1
    m2d2 = model.m2 / model.delta2
    m1 = model.m1
    m2 = model.m2

    exp = math.exp
    ceil, floor, floor_lin = _CEIL_LOG, FLOOR_LOG, _FLOOR_LIN
    l1 = math.log(initial.S)
    l2 = math.log(initial.x)
    l3 = math.log(initial.y)
    e1, e2, e3 = exp(l1), exp(l2), exp(l3)
    iS = ix = iy = 0.0            # running trapezoid integrals
    out = e1, e2, e3
    while True:
        recs = []
        for t, dt, g1, g2, g3, mk, rec in (yield out):
            p1, p2, p3 = e1, e2, e3
            l1 += (dso / e1 - m1d1 * e2 - c1) * dt + g1
            l2 += (m1 * e1 - m2d2 * e3 - c2) * dt + g2
            l3 += (m2 * e2 - c3) * dt + g3
            if not (l1 <= ceil and l2 <= ceil and l3 <= ceil):
                raise SimulationError("log-state overflow", t)
            e1 = exp(l1)
            e2 = exp(l2)
            e3 = exp(l3)
            h = 0.5 * dt
            iS += (p1 + e1) * h
            ix += (p2 + e2) * h
            iy += (p3 + e3) * h
            if mk >= 0:
                l1 += jl1[mk]
                l2 += jl2[mk]
                l3 += jl3[mk]
                e1 = exp(l1)
                e2 = exp(l2)
                e3 = exp(l3)
            if l1 < floor or l2 < floor or l3 < floor:
                if l1 < floor:
                    l1, e1 = floor, floor_lin
                    if floors[0] is None:
                        floors[0] = t
                if l2 < floor:
                    l2, e2 = floor, floor_lin
                    if floors[1] is None:
                        floors[1] = t
                if l3 < floor:
                    l3, e3 = floor, floor_lin
                    if floors[2] is None:
                        floors[2] = t
            if rec:
                recs.append((e1, e2, e3, iS, ix, iy, l2, l3))
        out = recs


def _direct_euler(model: CrispModel, initial: State, floors: list):
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


def _rk4(model: CrispModel, initial: State, floors: list):
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


def _integrate(model: CrispModel, config: SimConfig, kernel, rng=None) -> Trajectory:
    """Run one path through a kernel, chunk by chunk, and pack its records.

    With an rng the jump schedule is its first draw and the mesh is
    jump-adapted; each chunk then draws its normals in stream order, so the
    chunk size never changes the result.  Without one (RK4) the mesh is the
    uniform grid, nothing is drawn and both martingales are zero.  Every
    sampled event is a mesh step, so a finished path's jump log is its
    schedule.
    """
    events = [] if rng is None else sample_jumps(model.jumps, config.t_end, rng)
    mesh_t, mesh_mark, mesh_rec = _build_mesh(
        config.t_end, config.dt, events, config.output_stride)
    n_steps = len(mesh_t) - 1
    sigmas = np.array([model.sigma1, model.sigma2, model.sigma3])
    floors = [None, None, None]
    path = kernel(model, config.initial, floors)
    s1, s2, s3 = next(path)
    nan = float("nan")
    # the t=0 record: a time average is the initial value, a rate is 0/0
    head = [[s1, s2, s3, s1, s2, s3, nan, nan]]
    chunks = []
    brown = np.zeros((1, 3))      # Brownian martingale sum carried across chunks

    for a in range(0, n_steps, _CHUNK_STEPS):
        b = min(a + _CHUNK_STEPS, n_steps)
        dts = np.diff(mesh_t[a:b + 1])
        cols = [mesh_t[a + 1:b + 1].tolist(), dts.tolist()]
        if rng is not None:
            g = np.sqrt(dts)[:, None] * sigmas * rng.standard_normal((b - a, 3))
            cols += g.T.tolist() + [mesh_mark[a + 1:b + 1].tolist()]
        cols.append(mesh_rec[a + 1:b + 1].tolist())
        recs = path.send(zip(*cols))
        del cols                  # one chunk's step lists alive at a time
        chunks.append(np.array(recs).reshape(-1, 8))
        recs.clear()
        if rng is not None:
            # cumsum adds in sequence, as a running += would
            brown = np.cumsum(np.concatenate((brown, g)), axis=0)[-1:]

    t = mesh_t[mesh_rec]
    times = np.concatenate(([0.0], t))
    rows = np.concatenate(chunks)
    rows[:, 3:] /= t[:, None]
    series = np.concatenate((head, rows)).T.copy()
    if rng is None:
        brownian, comp_jump = np.zeros(3), np.zeros(3)
    else:
        log_jumps = np.array([[math.log1p(mk.gamma(i)) for i in (1, 2, 3)]
                              for mk in model.jumps.marks])
        hits = log_jumps[[mk for _, mk in events]].reshape(-1, 3)
        # summed in event order, then compensated at the horizon
        jump_sum = np.cumsum(np.concatenate((np.zeros((1, 3)), hits)), axis=0)[-1]
        lcomp = np.array([model.jumps.log_gamma_intensity(i) for i in (1, 2, 3)])
        brownian, comp_jump = brown[-1], jump_sum - times[-1] * lcomp
    return Trajectory(
        times=times,
        S=series[0], x=series[1], y=series[2],
        mean_S=series[3], mean_x=series[4], mean_y=series[5],
        lnx_over_t=series[6], lny_over_t=series[7],
        brownian=brownian, comp_jump=comp_jump,
        jump_log=events,
        floor_times=tuple(floors),
    )


def simulate(model: CrispModel, config: SimConfig) -> Trajectory:
    """Integrate one stochastic path.

    The Gaussian stream and the jump schedule are drawn from a generator
    seeded only by config.seed, so identical inputs give a bit-identical
    trajectory, whatever _CHUNK_STEPS is.  Raises SimulationError if a
    log-coordinate overflows upward (state above ~1e304) or turns NaN;
    downward excursions are pinned at FLOOR_LOG and flagged instead of
    aborting.  The direct_euler scheme aborts on a nonpositive state.
    """
    _check_config(config, positive_initial=True, jump_rate=model.jumps.total_rate)
    kernel = _direct_euler if config.scheme == DIRECT_EULER else _log_euler
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    return _integrate(model, config, kernel, rng)


def simulate_ode(model: CrispModel, config: SimConfig) -> Trajectory:
    """Integrate the noise-free system with fixed-step classical Runge-Kutta.

    Accepts nonnegative initial states (the axes are invariant for the
    deterministic flow); the jump log is empty and the running-statistics
    contract matches ``simulate``.
    """
    _check_config(config, positive_initial=False)
    return _integrate(model, config, _rk4)


def conservation_residual(traj: Trajectory, model: CrispModel) -> np.ndarray:
    """Residual of the nutrient budget identity along a trajectory.

    phi(t) = <S>_t - S0 + <x>_t / delta1 + <y>_t / (delta1 * delta2); the
    weighted concentration averages must balance the nutrient supply up to a
    term decaying like 1/t plus martingale fluctuations.
    """
    return (
        traj.mean_S - model.S0
        + traj.mean_x / model.delta1
        + traj.mean_y / (model.delta1 * model.delta2)
    )


def derive_path_seed(seed: int, path_index: int) -> int:
    """Stable 64-bit stream key for one path of an ensemble."""
    child = np.random.SeedSequence(seed, spawn_key=(path_index,))
    return int(child.generate_state(1, dtype=np.uint64)[0])


def path_config(config: SimConfig, path_index: int) -> SimConfig:
    """Per-path copy of config with the derived stream seed."""
    return replace(config, seed=derive_path_seed(config.seed, path_index))
