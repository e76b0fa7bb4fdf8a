"""Path simulation: jump-diffusion integration and a classical ODE solver.

The stochastic scheme ("log_euler") advances the logarithms of the three
concentrations with Euler-Maruyama drift/noise steps on a jump-adapted mesh
(the uniform dt-grid merged with the sampled jump times) and applies the exact
multiplicative jump ln(1 + gamma_i) at each event.  Working in log space makes
strict positivity structural: no step can produce a nonpositive concentration.
A naive linear-space Euler scheme ("direct_euler") is kept purely as a
diagnostic of why that guarantee matters.

Each trajectory also accumulates, on the full fine mesh, the running time
averages of S, x, y (trapezoid rule), the exponential-rate statistics
ln x(t)/t and ln y(t)/t, and the Brownian and compensated-jump martingale
terms used by the long-run diagnostics.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import CrispModel, JumpSpec, State

LOG_EULER = "log_euler"
DIRECT_EULER = "direct_euler"

# Below this log-concentration (state ~ 1e-304) a coordinate is flagged
# numerically extinct and pinned, so extinction runs keep a finite state
# instead of aborting; rate statistics stay meaningful up to the flag time.
FLOOR_LOG = -700.0
_FLOOR_LIN = math.exp(FLOOR_LOG)
_CEIL_LOG = 700.0

# Mesh steps the log-Euler kernel advances per chunk.  Noise, step sizes and
# the kernel's per-step lists exist for one chunk at a time, so beyond the
# mesh arrays a path's memory does not grow with its horizon.
_CHUNK_STEPS = 4096


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
    brownian: np.ndarray      # shape (n, 3): M_i(t) = sigma_i * B_i(t)
    comp_jump: np.ndarray     # shape (n, 3): jump martingale, compensated
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


def _check_config(config: SimConfig, positive_initial: bool) -> None:
    if not 0.0 < config.t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {config.t_end!r}")
    if not 0.0 < config.dt < config.t_end:
        raise ValueError(f"dt must lie in (0, t_end), got {config.dt!r}")
    if config.output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, got {config.output_stride!r}")
    if config.scheme not in (LOG_EULER, DIRECT_EULER):
        raise ValueError(f"unknown scheme {config.scheme!r}")
    s = config.initial
    if positive_initial:
        if not (s.S > 0.0 and s.x > 0.0 and s.y > 0.0):
            raise ValueError(f"initial state must be strictly positive, got {s}")
    elif s.S < 0.0 or s.x < 0.0 or s.y < 0.0:
        raise ValueError(f"initial state must be nonnegative, got {s}")


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


def _uniform_grid(t_end: float, dt: float) -> np.ndarray:
    # t_end is divided into whole steps of size ~dt (exact when divisible)
    n = max(1, int(math.ceil(t_end / dt - 1e-9)))
    return np.linspace(0.0, t_end, n + 1)


def _build_mesh(t_end: float, dt: float, events: list, stride: int):
    """Weave jump events into the uniform dt-grid.

    Returns parallel arrays over the mesh: times, mark index (-1 on grid
    points), and record flag.  An event falling exactly on a grid point is
    placed before it, so recorded states are right-continuous (post-jump).
    The origin is recorded up front by the caller, never as a step target.
    """
    uniform = _uniform_grid(t_end, dt)
    n_last = len(uniform) - 1
    marks = np.full(len(uniform), -1, dtype=np.intp)
    rec = np.zeros(len(uniform), dtype=bool)
    rec[stride::stride] = True
    rec[n_last] = True
    if not events:
        return uniform, marks, rec
    ev_t = np.array([t for t, _ in events])
    ev_mark = np.array([mk for _, mk in events], dtype=np.intp)
    # first grid point at or after each event; equal-position events keep order
    pos = np.searchsorted(uniform, ev_t, side="left")
    return (np.insert(uniform, pos, ev_t), np.insert(marks, pos, ev_mark),
            np.insert(rec, pos, False))


def simulate(model: CrispModel, config: SimConfig) -> Trajectory:
    """Integrate one stochastic path.

    The Gaussian stream and the jump schedule are drawn from a generator
    seeded only by config.seed, so identical inputs give a bit-identical
    trajectory.  The mesh is stepped in chunks of _CHUNK_STEPS; each chunk
    draws its normals in stream order, so the chunk size never changes the
    result.  Raises SimulationError if a log-coordinate overflows upward
    (state above ~1e304) or turns NaN; downward excursions are pinned at
    FLOOR_LOG and flagged instead of aborting.
    """
    _check_config(config, positive_initial=True)
    if config.scheme == DIRECT_EULER:
        return _simulate_direct(model, config)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    events = sample_jumps(model.jumps, config.t_end, rng)
    mesh_t, mesh_mark, mesh_rec = _build_mesh(
        config.t_end, config.dt, events, config.output_stride)
    n_steps = len(mesh_t) - 1
    chunk = _CHUNK_STEPS
    sigmas = np.array([model.sigma1, model.sigma2, model.sigma3])

    # per-mark log jump sizes; the table's extra last row (mark -1) is zero
    jl1 = [math.log1p(mk.gamma1) for mk in model.jumps.marks]
    jl2 = [math.log1p(mk.gamma2) for mk in model.jumps.marks]
    jl3 = [math.log1p(mk.gamma3) for mk in model.jumps.marks]
    jump_table = np.array(list(zip(jl1, jl2, jl3)) + [(0.0, 0.0, 0.0)])
    lcomp = np.array([model.jumps.log_gamma_intensity(i) for i in (1, 2, 3)])

    # Ito-corrected log drifts: constants folded once
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
    l1 = math.log(config.initial.S)
    l2 = math.log(config.initial.x)
    l3 = math.log(config.initial.y)
    e1, e2, e3 = exp(l1), exp(l2), exp(l3)
    nan = float("nan")
    # the t=0 record: a time average is the initial value, a rate is 0/0
    head = [e1, e2, e3, e1, e2, e3, nan, nan]

    iS = ix = iy = 0.0            # running trapezoid integrals
    floor1 = floor2 = floor3 = None
    jump_log = []
    # per record: states, trapezoid integrals, log-states of x and y; the
    # last five become time averages and rates once divided by t
    recs = []
    rec_rows, rec_brown, rec_jumps = [], [], []
    brown = jumps = np.zeros((1, 3))   # martingale sums carried across chunks

    for a in range(0, n_steps, chunk):
        b = min(a + chunk, n_steps)
        seg_t = mesh_t[a + 1:b + 1]
        seg_mark = mesh_mark[a + 1:b + 1]
        seg_rec = mesh_rec[a + 1:b + 1]
        dts = np.diff(mesh_t[a:b + 1])
        g = np.sqrt(dts)[:, None] * sigmas * rng.standard_normal((b - a, 3))
        for t, dt, g1, g2, g3, mk, rec in zip(
                seg_t.tolist(), dts.tolist(), g[:, 0].tolist(), g[:, 1].tolist(),
                g[:, 2].tolist(), seg_mark.tolist(), seg_rec.tolist()):
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
                jump_log.append((t, mk))
            if l1 < floor or l2 < floor or l3 < floor:
                if l1 < floor:
                    l1, e1 = floor, floor_lin
                    if floor1 is None:
                        floor1 = t
                if l2 < floor:
                    l2, e2 = floor, floor_lin
                    if floor2 is None:
                        floor2 = t
                if l3 < floor:
                    l3, e3 = floor, floor_lin
                    if floor3 is None:
                        floor3 = t
            if rec:
                recs.append((e1, e2, e3, iS, ix, iy, l2, l3))
        # martingale sums: cumsum adds in sequence, as a running += would
        brown = np.cumsum(np.concatenate((brown[-1:], g)), axis=0)
        jumps = np.cumsum(np.concatenate((jumps[-1:], jump_table[seg_mark])), axis=0)
        rec_rows.append(np.array(recs).reshape(-1, 8))
        recs.clear()
        rec_brown.append(brown[1:][seg_rec])
        rec_jumps.append(jumps[1:][seg_rec])

    t = mesh_t[mesh_rec]
    times = np.concatenate(([0.0], t))
    rows = np.concatenate(rec_rows)
    rows[:, 3:] /= t[:, None]
    cols = np.concatenate(([head], rows)).T.copy()
    zero = np.zeros((1, 3))
    return Trajectory(
        times=times,
        S=cols[0], x=cols[1], y=cols[2],
        mean_S=cols[3], mean_x=cols[4], mean_y=cols[5],
        lnx_over_t=cols[6], lny_over_t=cols[7],
        brownian=np.concatenate([zero] + rec_brown),
        # jump sums compensated at record time
        comp_jump=np.concatenate([zero] + rec_jumps) - times[:, None] * lcomp,
        jump_log=jump_log,
        floor_times=(floor1, floor2, floor3),
    )


def _simulate_direct(model: CrispModel, config: SimConfig) -> Trajectory:
    """Linear-space Euler-Maruyama; aborts on the first nonpositive state."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    events = sample_jumps(model.jumps, config.t_end, rng)
    mesh = _build_mesh(config.t_end, config.dt, events, config.output_stride)
    dts = np.diff(mesh[0])
    mesh_t, mesh_mark, mesh_rec = (a.tolist() for a in mesh)
    m = len(mesh_t)

    sq = np.sqrt(dts)
    z = rng.standard_normal((m - 1, 3))
    g1l = (model.sigma1 * sq * z[:, 0]).tolist()
    g2l = (model.sigma2 * sq * z[:, 1]).tolist()
    g3l = (model.sigma3 * sq * z[:, 2]).tolist()
    dtl = dts.tolist()

    comp = (model.jumps.gamma_intensity(1),
            model.jumps.gamma_intensity(2),
            model.jumps.gamma_intensity(3))
    lcomp = (model.jumps.log_gamma_intensity(1),
             model.jumps.log_gamma_intensity(2),
             model.jumps.log_gamma_intensity(3))

    log = math.log
    S, x, y = config.initial.S, config.initial.x, config.initial.y
    iS = ix = iy = 0.0
    mb = [0.0, 0.0, 0.0]
    mj = [0.0, 0.0, 0.0]
    jump_log = []

    rt = [0.0]
    rS, rx, ry = [S], [x], [y]
    rmS, rmx, rmy = [S], [x], [y]
    rlx, rly = [float("nan")], [float("nan")]
    rb = [(0.0, 0.0, 0.0)]
    rj = [(0.0, 0.0, 0.0)]

    for k in range(m - 1):
        dt = dtl[k]
        pS, px, py = S, x, y
        dS = model.D * (model.S0 - S) - model.m1 * S * x / model.delta1
        dx = model.m1 * S * x - model.D * x - model.m2 * x * y / model.delta2
        dy = model.m2 * x * y - model.D * y
        S = S + (dS - comp[0] * S) * dt + S * g1l[k]
        x = x + (dx - comp[1] * x) * dt + x * g2l[k]
        y = y + (dy - comp[2] * y) * dt + y * g3l[k]
        mk = mesh_mark[k + 1]
        if mk >= 0:
            mark = model.jumps.marks[mk]
            S *= 1.0 + mark.gamma1
            x *= 1.0 + mark.gamma2
            y *= 1.0 + mark.gamma3
            mj[0] += math.log1p(mark.gamma1)
            mj[1] += math.log1p(mark.gamma2)
            mj[2] += math.log1p(mark.gamma3)
            jump_log.append((mesh_t[k + 1], mk))
        if S <= 0.0 or x <= 0.0 or y <= 0.0:
            raise SimulationError(
                "direct Euler scheme produced a nonpositive state", mesh_t[k + 1])
        if not (math.isfinite(S) and math.isfinite(x) and math.isfinite(y)):
            raise SimulationError("non-finite state", mesh_t[k + 1])
        h = 0.5 * dt
        iS += (pS + S) * h
        ix += (px + x) * h
        iy += (py + y) * h
        mb[0] += g1l[k]
        mb[1] += g2l[k]
        mb[2] += g3l[k]
        if mesh_rec[k + 1]:
            t = mesh_t[k + 1]
            rt.append(t)
            rS.append(S)
            rx.append(x)
            ry.append(y)
            rmS.append(iS / t)
            rmx.append(ix / t)
            rmy.append(iy / t)
            rlx.append(log(x) / t)
            rly.append(log(y) / t)
            rb.append(tuple(mb))
            rj.append((mj[0] - t * lcomp[0], mj[1] - t * lcomp[1], mj[2] - t * lcomp[2]))

    return Trajectory(
        times=np.array(rt),
        S=np.array(rS), x=np.array(rx), y=np.array(ry),
        mean_S=np.array(rmS), mean_x=np.array(rmx), mean_y=np.array(rmy),
        lnx_over_t=np.array(rlx), lny_over_t=np.array(rly),
        brownian=np.array(rb), comp_jump=np.array(rj),
        jump_log=jump_log,
    )


def simulate_ode(model: CrispModel, config: SimConfig) -> Trajectory:
    """Integrate the noise-free system with fixed-step classical Runge-Kutta.

    Accepts nonnegative initial states (the axes are invariant for the
    deterministic flow); the jump log is empty and the running-statistics
    contract matches ``simulate``.
    """
    _check_config(config, positive_initial=False)
    uniform = _uniform_grid(config.t_end, config.dt)
    n_last = len(uniform) - 1
    tl = uniform.tolist()

    D, S0 = model.D, model.S0
    m1, d1 = model.m1, model.delta1
    m2, d2 = model.m2, model.delta2

    def f(S, x, y):
        return (
            D * (S0 - S) - m1 * S * x / d1,
            m1 * S * x - D * x - m2 * x * y / d2,
            m2 * x * y - D * y,
        )

    def safe_log(v):
        return math.log(v) if v > 0.0 else float("-inf")

    S, x, y = config.initial.S, config.initial.x, config.initial.y
    iS = ix = iy = 0.0
    stride = config.output_stride

    rt = [0.0]
    rS, rx, ry = [S], [x], [y]
    rmS, rmx, rmy = [S], [x], [y]
    rlx, rly = [float("nan")], [float("nan")]

    for j in range(n_last):
        dt = tl[j + 1] - tl[j]
        pS, px, py = S, x, y
        k1 = f(S, x, y)
        k2 = f(S + 0.5 * dt * k1[0], x + 0.5 * dt * k1[1], y + 0.5 * dt * k1[2])
        k3 = f(S + 0.5 * dt * k2[0], x + 0.5 * dt * k2[1], y + 0.5 * dt * k2[2])
        k4 = f(S + dt * k3[0], x + dt * k3[1], y + dt * k3[2])
        S += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        x += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        y += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if not (math.isfinite(S) and math.isfinite(x) and math.isfinite(y)):
            raise SimulationError("non-finite state", tl[j + 1])
        h = 0.5 * dt
        iS += (pS + S) * h
        ix += (px + x) * h
        iy += (py + y) * h
        if (j + 1) % stride == 0 or j + 1 == n_last:
            t = tl[j + 1]
            rt.append(t)
            rS.append(S)
            rx.append(x)
            ry.append(y)
            rmS.append(iS / t)
            rmx.append(ix / t)
            rmy.append(iy / t)
            rlx.append(safe_log(x) / t)
            rly.append(safe_log(y) / t)

    n = len(rt)
    zeros = np.zeros((n, 3))
    return Trajectory(
        times=np.array(rt),
        S=np.array(rS), x=np.array(rx), y=np.array(ry),
        mean_S=np.array(rmS), mean_x=np.array(rmx), mean_y=np.array(rmy),
        lnx_over_t=np.array(rlx), lny_over_t=np.array(rly),
        brownian=zeros, comp_jump=zeros.copy(),
        jump_log=[],
    )


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
