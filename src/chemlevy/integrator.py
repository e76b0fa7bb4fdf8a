"""Path simulation: jump-diffusion integration and a classical ODE solver.

The stochastic scheme ("log_euler") advances the logarithms of the three
concentrations with Euler-Maruyama drift/noise steps on a jump-adapted mesh
(the uniform dt-grid merged with the sampled jump times) and applies the exact
multiplicative jump ln(1 + gamma_i) at each event.  Working in log space makes
strict positivity structural: no step can produce a nonpositive concentration.
A naive linear-space Euler scheme ("direct_euler") is kept purely as a
diagnostic of why that guarantee matters.

Both schemes and the RK4 solver of the noise-free system are kernels of one
window engine, which steps every path alone and cuts its mesh into windows
of _CHUNK_STEPS mesh steps.  Every kernel is a plain function of one
signature after what a run binds once (its constants, the grid and the
sigmas): the path's resume point at = [u, i, t] (its next grid point, its
next event and the mesh time it has reached), the schedule's slice from
event i on, the window's raw normals z (a row per mesh step), then the
path's carried state s and its row out of the record block.  s has 15
slots, l1 l2 l3 e1 e2 e3 iS ix iy b1 b2 b3 p1 p2 p3: log-states, states,
their trapezoid integrals, the Brownian sums and the first pin times (NaN
until set).  A kernel runs len(z) mesh steps, writes S, x, y, the
integrals, ln x and ln y into the rows its record points name, moves at
on, and returns None, or the reason and the time of the step that stopped
the path, which the engine makes the path's SimulationError.
Every scheme runs the compiled kernel (``_window.c``) where it loads,
which weaves the window's mesh and scales its noise itself; elsewhere
``_walker`` does both in numpy and hands the result to a step loop:
``_log_euler``, or ``_linear``, whose step functions are direct Euler and
RK4, each bit for bit its compiled kernel.  On one core of a shared
2-vCPU x86-64 machine a step of the compiled kernel costs about 50-65 ns
for log-Euler, 25 ns for direct Euler and 95 ns for RK4 (whose drift
divides eight times a step, as model.drift does), against about 0.8, 2.3
and 3.4 us in Python.

Each trajectory also accumulates, on the full fine mesh, the running time
averages of S, x, y (trapezoid rule), the exponential-rate statistics
ln x(t)/t and ln y(t)/t, and the terminal Brownian and compensated-jump
martingale terms used by the long-run diagnostics.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _compiled
from .model import DIRECT_EULER, LOG_EULER, CrispModel, JumpSpec, State, drift

# Below this log-concentration (state ~ 1e-304) a coordinate is flagged
# numerically extinct and pinned, so extinction runs keep a finite state
# instead of aborting; rate statistics stay meaningful up to the flag time.
FLOOR_LOG = -700.0
_FLOOR_LIN = math.exp(FLOOR_LOG)
_CEIL_LOG = 700.0

# Mesh steps a kernel advances per window: a path's mesh, grid steps and
# jump events alike, is cut every this many steps, mid grid step included.
# Noise, step sizes and the kernel's per-step lists exist for one window at
# a time, so beyond its jump events a path's memory grows neither with its
# horizon nor with how densely its events fall.
_CHUNK_STEPS = 4096

# Largest mesh (uniform steps plus expected jump events) a path may ask for,
# and most expected jump events, both checked before anything is allocated.
# Grid steps cost no memory, as the mesh is built a window at a time, but
# each jump event costs about 40 B of peak RSS: the schedule's time and
# mark arrays and their draws (1e6 to 4e6 events, x86-64 CPython 3.11).  So
# the event cap bounds a path's schedule to about 200 MB, and the record
# cap, on paths times records, bounds a run's record block to about 1 GB.
_MAX_MESH_STEPS = 10**8
_MAX_JUMP_EVENTS = 5 * 10**6
_MAX_PATH_RECORDS = 15 * 10**6
# Least grid step t_end/n: |ln c| < 745 for every positive double c, so from
# it on ln c/t stays finite and the trapezoid sums stay out of subnormals.
_MIN_GRID_STEP = 745.0 / sys.float_info.max


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
    """Recorded path: states, running statistics, martingales, jump events.

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
    jump_times: np.ndarray    # the jump events' times, in order
    jump_marks: np.ndarray    # and each one's mark index
    floor_times: tuple = (None, None, None)

    @property
    def jump_log(self) -> list:
        """The (time, mark index) pair of every jump event, in time order."""
        return list(zip(self.jump_times.tolist(), self.jump_marks.tolist()))

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


def check_integer(name: str, value, least: int) -> None:
    """Refuse a value that is not an integer >= least."""
    # an int or a numpy integer, checked without importing numpy
    if not hasattr(value, "__index__") or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_config(config: SimConfig, positive_initial: bool,
                  jump_rate: float = 0.0, paths: int = 1) -> None:
    if not 0.0 < config.t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {config.t_end!r}")
    if not 0.0 < config.dt < config.t_end:
        raise ValueError(f"dt must lie in (0, t_end), got {config.dt!r}")
    events = max(jump_rate, 0.0) * config.t_end
    steps = config.t_end / config.dt + events
    if not steps <= _MAX_MESH_STEPS:
        raise ValueError(f"t_end/dt plus the expected jump count is {steps:.3g}, "
                         f"above the cap of {_MAX_MESH_STEPS:.0e} mesh steps")
    if not events <= _MAX_JUMP_EVENTS:
        raise ValueError(f"the expected jump count is {events:.3g}, "
                         f"above the cap of {_MAX_JUMP_EVENTS:.0e} events per path")
    check_integer("output_stride", config.output_stride, 1)
    check_integer("seed", config.seed, 0)
    # records counted, not allocated
    mesh = _Mesh(config.t_end, config.dt, config.output_stride)
    if not mesh.h >= _MIN_GRID_STEP:
        raise ValueError(f"grid step t_end/n = {mesh.h!r} is below 745/DBL_MAX: ln c/t overflows")
    records = -(-mesh.n // mesh.stride) + 1
    if not paths * records <= _MAX_PATH_RECORDS:
        raise ValueError(f"{paths} path(s) of {records} records are above the cap of "
                         f"{_MAX_PATH_RECORDS:.2g} path-records")
    if config.scheme not in (LOG_EULER, DIRECT_EULER):
        raise ValueError(f"unknown scheme {config.scheme!r}")
    s = config.initial
    if positive_initial:
        if not (0.0 < s.S < math.inf and 0.0 < s.x < math.inf and 0.0 < s.y < math.inf):
            raise ValueError(f"initial state must be strictly positive and finite, got {s}")
    elif not (0.0 <= s.S < math.inf and 0.0 <= s.x < math.inf and 0.0 <= s.y < math.inf):
        raise ValueError(f"initial state must be nonnegative and finite, got {s}")


def check_path_config(model, config: SimConfig, paths: int = 1) -> None:
    """Raise ValueError if simulate_batch refuses config for model and that
    many paths.  Only the model's jumps are read, so an imprecise model's
    check covers every crisp model crispify makes of it."""
    _check_config(config, positive_initial=True, jump_rate=model.jumps.total_rate, paths=paths)


def sample_jumps(jumps: JumpSpec, t_end: float, rng: np.random.Generator) -> list:
    """Draw the compound-Poisson event schedule on (0, t_end].

    Returns time-ordered (time, mark index) pairs: the event count is
    Poisson(total_rate * t_end), times are uniform on the window, and each
    mark is chosen with probability weight_k / total_rate.
    """
    times, marks = _jump_schedule(jumps, t_end, rng)
    return list(zip(times.tolist(), marks.tolist()))


def _jump_schedule(jumps: JumpSpec, t_end: float, rng: np.random.Generator) -> tuple:
    """sample_jumps's schedule, from the same draws, as its two arrays: the
    event times in order and each event's mark index."""
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    rate = jumps.total_rate
    n = int(rng.poisson(rate * t_end)) if rate > 0.0 else 0
    if n == 0:
        return np.empty(0), np.empty(0, dtype=np.intp)
    times = rng.uniform(0.0, t_end, size=n)
    probs = np.array([m.weight for m in jumps.marks]) / rate
    marks = rng.choice(len(jumps), size=n, p=probs)
    order = np.argsort(times, kind="stable")
    return times[order], marks[order].astype(np.intp, copy=False)


class _Mesh:
    """A run's uniform grid of n steps of about dt on [0, t_end], into which
    each path's walker weaves its jump events, an event falling exactly on
    a grid point before it, so recorded states are right-continuous
    (post-jump).  The origin is recorded up front by the caller, never as a
    step target.  Records are taken at every stride-th grid point and at
    t_end, into rows 1, 2, ..."""

    def __init__(self, t_end: float, dt: float, stride: int):
        # t_end is divided into whole steps of size ~dt (exact when divisible)
        self.n = max(1, int(math.ceil(t_end / dt - 1e-9)))
        # a stride past n records t_end alone, as n does, and u % stride stays in int64
        self.t_end, self.stride = t_end, min(stride, self.n)
        self.h = t_end / self.n

    def grid(self, u: np.ndarray) -> np.ndarray:
        """Grid points u, bit for bit np.linspace(0, t_end, n + 1)[u]."""
        return np.where(u == self.n, self.t_end, u * self.h)


def record_times(t_end: float, dt: float, stride: int) -> np.ndarray:
    """The times every path of a config records at: 0, then every stride-th
    grid point and t_end.  Jump events are never record points, so this is
    each path's ``Trajectory.times``; record r of a record block is time r."""
    mesh = _Mesh(t_end, dt, stride)
    return mesh.grid(np.append(np.arange(0, mesh.n, mesh.stride), mesh.n))


def _log_drift(model: CrispModel) -> tuple:
    """The Ito-corrected per-capita log drift the log-Euler kernels step
    (not model.drift), its constants folded once:

        d ln S = D S0 / S - (m1/delta1) x - c1
        d ln x = m1 S - (m2/delta2) y - c2
        d ln y = m2 x - c3,   c_i = D + sigma_i^2 / 2 + sum_k w_k gamma_ik

    Returns (k, jl): k holds c1 c2 c3, D S0, m1 m2, m1/delta1 m2/delta2, the
    ceiling, the floor and exp(floor), and jl the (marks, 3) log jump sizes.
    """
    c = (model.D + 0.5 * sigma ** 2 + model.jumps.gamma_intensity(i)
         for i, sigma in enumerate((model.sigma1, model.sigma2, model.sigma3), 1))
    return (np.array([*c, model.D * model.S0, model.m1, model.m2, model.m1 / model.delta1,
                      model.m2 / model.delta2, _CEIL_LOG, FLOOR_LOG, _FLOOR_LIN]),
            _log_jumps(model))


def _log_euler(k, jl, t, dt, g, mark, row, s, out):
    """The step loop of the log-space Euler-Maruyama scheme with exact
    multiplicative jumps over one window of one path, statement for
    statement ``_window.c``'s log-Euler step, given _log_drift's constants
    k and log jump sizes jl and _walker's window arrays.  It carries all
    15 slots of s.  A log-state leaves the range above the ceiling, as NaN,
    or where a jump takes it past exp's range: the loop then returns
    ("log-state overflow", that step's time) and leaves s unwritten."""
    c1, c2, c3, dso, m1, m2, m1d1, m2d2, ceil, floor, floor_lin = k.tolist()
    jl = jl.tolist()
    l1, l2, l3, e1, e2, e3, iS, ix, iy, b1, b2, b3, *pins = s.tolist()
    exp, isnan = math.exp, math.isnan
    recs, rows = [], []
    try:
        for tj, dtj, g1, g2, g3, mk, r in zip(t.tolist(), dt.tolist(), *g.T.tolist(),
                                              mark.tolist(), row.tolist()):
            p1, p2, p3 = e1, e2, e3
            l1 += (dso / e1 - m1d1 * e2 - c1) * dtj + g1
            l2 += (m1 * e1 - m2d2 * e3 - c2) * dtj + g2
            l3 += (m2 * e2 - c3) * dtj + g3
            if not (l1 <= ceil and l2 <= ceil and l3 <= ceil):
                raise OverflowError      # as math.exp raises past its range
            e1 = exp(l1)
            e2 = exp(l2)
            e3 = exp(l3)
            h = 0.5 * dtj
            iS += (p1 + e1) * h
            ix += (p2 + e2) * h
            iy += (p3 + e3) * h
            b1 += g1
            b2 += g2
            b3 += g3
            if mk >= 0:
                j1, j2, j3 = jl[mk]
                l1 += j1
                e1 = exp(l1)
                l2 += j2
                e2 = exp(l2)
                l3 += j3
                e3 = exp(l3)
            if l1 < floor or l2 < floor or l3 < floor:
                if l1 < floor:
                    l1, e1 = floor, floor_lin
                    if isnan(pins[0]):
                        pins[0] = tj
                if l2 < floor:
                    l2, e2 = floor, floor_lin
                    if isnan(pins[1]):
                        pins[1] = tj
                if l3 < floor:
                    l3, e3 = floor, floor_lin
                    if isnan(pins[2]):
                        pins[2] = tj
            if r >= 0:
                recs.append((e1, e2, e3, iS, ix, iy, l2, l3))
                rows.append(r)
    except OverflowError:
        return "log-state overflow", tj
    s[:] = l1, l2, l3, e1, e2, e3, iS, ix, iy, b1, b2, b3, *pins
    out[:8, rows] = np.array(recs).reshape(-1, 8).T
    return None


class _Stop(Exception):
    """A linear-space step's abort, whose argument is its reason."""


def _linear(step, t, dt, g, mark, row, s, out):
    """The linear-space step loop, of _log_euler's signature after step:
    each step's state is step(S, x, y, dt, g1, g2, g3, mark), which may
    raise _Stop with its reason, as a non-finite state does; the loop then
    returns (that reason, that step's time) and leaves s unwritten.  It
    carries slots 3 to 11 of s (S x y iS ix iy b1 b2 b3), leaves the pin
    times NaN and records the log of a zero coordinate as -inf."""
    isfinite, log = math.isfinite, math.log
    ninf = float("-inf")
    S, x, y, iS, ix, iy, b1, b2, b3 = s[3:12].tolist()
    recs, rows = [], []
    try:
        for tj, dtj, g1, g2, g3, mk, r in zip(t.tolist(), dt.tolist(), *g.T.tolist(),
                                              mark.tolist(), row.tolist()):
            pS, px, py = S, x, y
            S, x, y = step(S, x, y, dtj, g1, g2, g3, mk)
            if not (isfinite(S) and isfinite(x) and isfinite(y)):
                raise _Stop("non-finite state")
            h = 0.5 * dtj
            iS += (pS + S) * h
            ix += (px + x) * h
            iy += (py + y) * h
            b1 += g1
            b2 += g2
            b3 += g3
            if r >= 0:
                recs.append((S, x, y, iS, ix, iy,
                             log(x) if x > 0.0 else ninf, log(y) if y > 0.0 else ninf))
                rows.append(r)
    except _Stop as stop:
        return stop.args[0], tj
    s[3:12] = S, x, y, iS, ix, iy, b1, b2, b3
    out[:8, rows] = np.array(recs).reshape(-1, 8).T
    return None


def _direct_euler(model: CrispModel):
    """The step of linear-space Euler-Maruyama; it aborts on the first
    nonpositive state."""
    comp1, comp2, comp3 = (model.jumps.gamma_intensity(i) for i in (1, 2, 3))
    marks = model.jumps.marks

    def step(S, x, y, dt, g1, g2, g3, mk):
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
            raise _Stop("direct Euler scheme produced a nonpositive state")
        return S, x, y

    return step


def _rk4(model: CrispModel):
    """The step of classical fourth-order Runge-Kutta for the noise-free
    system; its steps carry zero noise and no mark, which it ignores."""

    def step(S, x, y, dt, *_):
        k1 = drift(model, S, x, y)
        k2 = drift(model, S + 0.5 * dt * k1[0], x + 0.5 * dt * k1[1], y + 0.5 * dt * k1[2])
        k3 = drift(model, S + 0.5 * dt * k2[0], x + 0.5 * dt * k2[1], y + 0.5 * dt * k2[2])
        k4 = drift(model, S + dt * k3[0], x + dt * k3[1], y + dt * k3[2])
        return (S + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                x + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
                y + dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]))

    return step


def _walker(loop, mesh: _Mesh, sigmas: np.ndarray):
    """The window kernel of a step loop, in numpy: from the resume point
    at = [u, i, t] it weaves the events from i on into the grid points from
    u on, each before the first grid point at or after it, and hands the
    first len(z) mesh steps' times, marks (-1 on grid points), record rows
    (-1 off record points), step sizes and noise (sqrt(dt) sigma_i) z_i to
    loop, then moves at past them, unless loop stopped the path."""
    def kernel(at, ev_t, ev_mark, z, s, out):
        (u, i, t), steps = at, len(z)
        grid = np.arange(u, min(u + steps, mesh.n + 1))
        times, marks = mesh.grid(grid), np.full(len(grid), -1, dtype=np.intp)
        # rows at the record points alone: every stride-th grid point from
        # the first at or after u, and grid point n, when the window has it
        rows, first = np.full(len(grid), -1, dtype=np.intp), -(-u // mesh.stride)
        on = rows[first * mesh.stride - u::mesh.stride]
        on[:] = np.arange(first, first + len(on))
        rows[mesh.n - u:] = -(-mesh.n // mesh.stride)
        if len(ev_t):
            # events at one position keep their order
            pos = np.searchsorted(times, ev_t)
            times, marks, rows = (np.insert(a, pos, v)[:steps] for a, v in
                                  ((times, ev_t), (marks, ev_mark), (rows, -1)))
        dt = times - np.concatenate(([t], times[:-1]))
        # each series' noise in one row, (sqrt(dt) sigma_i) z_i as _window.c's
        end = loop(times, dt, ((np.sqrt(dt) * sigmas[:, None]) * z.T).T, marks, rows, s, out)
        if end is None:
            on_grid = int(np.count_nonzero(marks < 0))
            at[:] = u + on_grid, i + steps - on_grid, times[-1].item()
        return end
    return kernel


def _linear_constants(model: CrispModel) -> tuple:
    """The constants the compiled linear-space kernels read: model.drift's
    D S0 m1 delta1 m2 delta2 and _direct_euler's jump compensators, and the
    (marks, 3) jump sizes gamma_ik."""
    jumps = model.jumps
    return (np.array([model.D, model.S0, model.m1, model.delta1, model.m2, model.delta2,
                      *(jumps.gamma_intensity(i) for i in (1, 2, 3))]),
            np.array([[mk.gamma(i) for i in (1, 2, 3)] for mk in jumps.marks]).reshape(-1, 3))


def _log_jumps(model: CrispModel) -> np.ndarray:
    """(marks, 3) array of each mark's log jump sizes ln(1 + gamma_i)."""
    return np.array([[math.log1p(mk.gamma(i)) for i in (1, 2, 3)]
                     for mk in model.jumps.marks]).reshape(-1, 3)


def _comp_jump(model: CrispModel, marks: np.ndarray, t_end: float) -> np.ndarray:
    """Terminal compensated jump martingale of a schedule's marks: the log
    jumps summed in event order, then compensated at the horizon.  The sums
    are cumsums, which add in order, one coordinate at a time, so that no
    (events, 3) array is made."""
    jl = _log_jumps(model)
    jump_sum = np.array([np.cumsum(np.append(0.0, jl[marks, i]))[-1] for i in range(3)])
    lcomp = np.array([model.jumps.log_gamma_intensity(i) for i in (1, 2, 3)])
    return jump_sum - t_end * lcomp


def _kernel(model: CrispModel, config: SimConfig, mesh: _Mesh, stochastic: bool) -> tuple:
    """A run's window kernel, with its constants bound, and the state s
    every path starts from.  Every scheme runs the compiled kernel where it
    loads."""
    first = [config.initial.S, config.initial.x, config.initial.y]
    sums_pins = [0.0] * 6 + [math.nan] * 3     # integrals, Brownian sums, no pin yet
    sigmas = np.array([model.sigma1, model.sigma2, model.sigma3] if stochastic else [0.0] * 3)
    if stochastic and config.scheme == LOG_EULER:
        scheme = LOG_EULER
        logs = [math.log(v) for v in first]
        k, jl = _log_drift(model)
        loop = functools.partial(_log_euler, k, jl)
        start = [*logs, *map(math.exp, logs), *sums_pins]
    else:
        scheme = config.scheme if stochastic else "rk4"
        k, jl = _linear_constants(model)
        loop = functools.partial(_linear, _direct_euler(model) if stochastic else _rk4(model))
        start = [math.nan] * 3 + first + sums_pins
    compiled = _compiled.window(scheme)
    kernel = (compiled(k, jl, sigmas, mesh.n, mesh.h, mesh.t_end, mesh.stride) if compiled
              else _walker(loop, mesh, sigmas))
    return kernel, start


def _integrate(model: CrispModel, config: SimConfig, seeds=None, out=None) -> tuple:
    """The window engine: run one path per seed, or without seeds one
    noise-free RK4 path, into the record block out if one is given, and
    return (series, paths) as simulate_batch does.

    Each path draws its jump schedule from its own seed's stream, then each
    window's normals in stream order, so neither the window size nor the
    paths beside it change the result; without seeds the mesh is the
    uniform grid, nothing is drawn, the normals are zero and so are both
    martingales.  Every sampled event is a mesh step, so a finished path's
    jump log is its schedule.  Every path records into its own rows of one
    (9, paths, records) block, at its mesh's record points.  Each path runs
    to its end before the next starts, and ends as a Trajectory, whose
    brownian and floor_times are slots of its carried state, or as the
    SimulationError that aborted it, its rows then filled with NaN.
    """
    stochastic = seeds is not None
    mesh = _Mesh(config.t_end, config.dt, config.output_stride)
    kernel, start = _kernel(model, config, mesh, stochastic)
    times = record_times(config.t_end, config.dt, config.output_stride)
    seeds = seeds if stochastic else [None]
    series = np.empty((9, len(seeds), len(times))) if out is None else out
    paths = []
    for i, seed in enumerate(seeds):
        if stochastic:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            ev_t, ev_mark = _jump_schedule(model.jumps, config.t_end, rng)
            normals = rng.standard_normal
        else:
            ev_t, ev_mark = np.empty(0), np.empty(0, dtype=np.intp)
            normals = np.zeros
        s = np.array(start)
        at = [1, 0, 0.0]        # the resume point: next grid point, next event, mesh time
        out = series[:, i]      # S .. lny_over_t, in Trajectory's field order, then phi
        # the t=0 record: a time average is the initial value, a rate is 0/0
        out[:8, 0] = (*start[3:6], *start[3:6], math.nan, math.nan)
        left = mesh.n + len(ev_t)
        for done in range(0, left, _CHUNK_STEPS):
            steps, e = min(_CHUNK_STEPS, left - done), at[1]
            end = kernel(at, ev_t[e:e + steps], ev_mark[e:e + steps], normals((steps, 3)), s, out)
            if end is not None:
                out[:] = math.nan
                paths.append(SimulationError(*end))
                break
        else:
            out[3:8, 1:] /= times[1:]
            comp_jump = _comp_jump(model, ev_mark, config.t_end) if stochastic else np.zeros(3)
            floor_times = tuple(None if math.isnan(v) else v for v in s[12:].tolist())
            traj = Trajectory(times, *out[:8], s[9:12], comp_jump, ev_t, ev_mark, floor_times)
            out[8] = conservation_residual(traj, model)
            paths.append(traj)
    return series, paths


def _alone(run: tuple) -> Trajectory:
    """The one path of an _integrate run, or its error raised."""
    (path,) = run[1]
    if isinstance(path, SimulationError):
        raise path
    return path


def simulate_batch(model: CrispModel, config: SimConfig, seeds) -> tuple:
    """Integrate one path per seed of the config's stochastic scheme.

    Path i is bit for bit ``simulate(model, replace(config, seed=seeds[i]))``:
    every path steps alone.  A path aborts alone, with simulate's
    SimulationError.

    Returns (series, paths).  series is one (9, len(seeds), n_records) array
    of S, x, y, mean_S, mean_x, mean_y, lnx_over_t, lny_over_t and the
    conservation residual phi over the record times; the kernels write
    their records into it.  paths[i] is path i's Trajectory, whose series
    are views of series[:, i], or the SimulationError that aborted it,
    whose rows series[:, i] are then NaN.
    """
    seeds = list(seeds)
    check_path_config(model, config, len(seeds))
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for seed in seeds:
        check_integer("seed", seed, 0)
    return _integrate(model, config, seeds)


def simulate(model: CrispModel, config: SimConfig) -> Trajectory:
    """Integrate one stochastic path: simulate_batch of config.seed alone.

    The Gaussian stream and the jump schedule are drawn from a generator
    seeded only by config.seed, so identical inputs give a bit-identical
    trajectory, whatever _CHUNK_STEPS is.  Raises SimulationError if a
    log-coordinate overflows upward (state above ~1e304) or turns NaN;
    downward excursions are pinned at FLOOR_LOG and flagged instead of
    aborting.  The direct_euler scheme aborts on a nonpositive state.
    """
    return _alone(simulate_batch(model, config, [config.seed]))


def simulate_ode(model: CrispModel, config: SimConfig) -> Trajectory:
    """Integrate the noise-free system with fixed-step classical Runge-Kutta.

    Accepts nonnegative initial states (the axes are invariant for the
    deterministic flow); the jump log is empty and the running-statistics
    contract matches ``simulate``.
    """
    _check_config(config, positive_initial=False)
    return _alone(_integrate(model, config))


def conservation_residual(traj: Trajectory, model: CrispModel) -> np.ndarray:
    """Residual of the nutrient budget identity along a trajectory.

    phi(t) = <S>_t - S0 + <x>_t / delta1 + <y>_t / (delta1 * delta2); the
    weighted concentration averages must balance the nutrient supply up to a
    term decaying like 1/t plus martingale fluctuations.  A budget past the
    float range is inf, without a warning.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return (
            traj.mean_S - model.S0
            + traj.mean_x / model.delta1
            + traj.mean_y / (model.delta1 * model.delta2)
        )


def derive_path_seed(seed: int, path_index: int) -> int:
    """Stable 64-bit stream key for one path of an ensemble."""
    child = np.random.SeedSequence(seed, spawn_key=(path_index,))
    return int(child.generate_state(1, dtype=np.uint64)[0])
