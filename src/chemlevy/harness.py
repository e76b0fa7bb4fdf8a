"""Monte Carlo ensembles, long-run statistics, and claim verification.

An ensemble runs n independent paths with per-path random streams derived
from (seed, path index), aggregates cross-path mean and 5/50/95 percentiles
of the recorded quantities over time, and keeps each path's terminal
statistics.  ``verify`` compares those statistics against the regime
predictions of a ThresholdReport and returns one pass/fail claim per
applicable prediction.  Paths are embarrassingly parallel; aggregation is a
deterministic fold in path-index order, so results are identical for any
worker count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice

from ._lazy import np
from .integrator import (
    SimConfig,
    SimulationError,
    conservation_residual,
    path_config,
    record_times,
    simulate,
)
from .model import CrispModel, ImpreciseModel, crispify
from .thresholds import Regime, ThresholdReport, classify

# Reporting threshold for "this population has died out": distinct from the
# integrator's hard pin near 1e-304, which exists only to keep the state
# finite.  A path counts as extinct in a component once the recorded
# concentration first drops below this level (the flag is sticky).
EXTINCTION_THRESHOLD = 1e-30

_SERIES = ("S", "x", "y", "mean_S", "mean_x", "mean_y",
           "lnx_over_t", "lny_over_t", "phi")
# per-path terminal scalars, in the order of a path record's terminal row
_TERMINAL = ("mean_S", "mean_x", "mean_y", "rate_x", "rate_y", "phi")
_PERCENTILES = (5.0, 50.0, 95.0)


@dataclass(frozen=True)
class VerifyTolerances:
    """Finite-horizon slack for asymptotic claims.

    rate: absolute slack on exponential-rate (ln c(t)/t) bounds.
    mean: relative slack on time-average limits and lower bounds.
    min_horizon: shortest horizon verify will accept at all.
    burn_in_frac: fraction of the horizon regarded as transient; terminal
        statistics are trusted only because t_end lies well past it.
    """

    rate: float = 0.02
    mean: float = 0.05
    min_horizon: float = 500.0
    burn_in_frac: float = 0.5

    def __post_init__(self):
        for name in ("rate", "mean"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"tolerance {name} must be finite and nonnegative, got {value!r}")

    def check_horizon(self, horizon: float) -> None:
        """Refuse a horizon below min_horizon: its terminal statistics would
        not be meaningful."""
        if horizon < self.min_horizon:
            raise ValueError(
                f"horizon {horizon} is below min_horizon {self.min_horizon}; "
                "terminal statistics would not be meaningful")


@dataclass(frozen=True)
class Claim:
    claim_id: str
    predicted: float
    observed: float
    tolerance: float
    comparison: str  # "upper": obs <= pred + tol; "lower": obs >= pred - tol; "within": |obs - pred| <= tol
    passed: bool


@dataclass(frozen=True)
class Verdict:
    regime: Regime
    claims: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)


@dataclass
class EnsembleSummary:
    """Cross-path statistics over time plus per-path terminal values.

    ``series[name][stat]`` is an array over recorded times for name in
    S, x, y, mean_S, mean_x, mean_y, lnx_over_t, lny_over_t, phi and stat in
    mean, p5, p50, p95.  ``terminal`` maps per-path arrays: mean_S, mean_x,
    mean_y, rate_x, rate_y, phi, brownian_over_t (n, 3), comp_jump_over_t
    (n, 3), extinct_x, extinct_y.
    """

    n_paths: int
    horizon: float
    times: np.ndarray
    series: dict
    extinct_x_frac: np.ndarray
    extinct_y_frac: np.ndarray
    terminal: dict
    extinction_threshold: float = EXTINCTION_THRESHOLD
    aborted: tuple = field(default_factory=tuple)


def _path_record(model: CrispModel, config: SimConfig, index: int) -> tuple:
    """(index, error, series, terminal) of one path.

    series is the (9, n) block of _SERIES over the recorded times; terminal
    is the _TERMINAL row followed by M(T)/T of the Brownian and the
    compensated jump martingales.  A failed path is (index, error message).
    The record times are the same for every path and stay out of the record.
    """
    try:
        traj = simulate(model, path_config(config, index))
    except SimulationError as exc:
        return index, str(exc)
    phi = conservation_residual(traj, model)
    t_end = float(traj.times[-1])
    series = np.stack((traj.S, traj.x, traj.y, traj.mean_S, traj.mean_x,
                       traj.mean_y, traj.lnx_over_t, traj.lny_over_t, phi))
    terminal = np.concatenate((series[3:6, -1], (traj.rate_x, traj.rate_y, phi[-1]),
                               traj.brownian / t_end, traj.comp_jump / t_end))
    return index, None, series, terminal


def _path_record_star(task):
    """_path_record of one (model, config, index) task, or the exception it
    raised.  A stream of many ensembles' tasks then loses no record to one
    failing task, and the exception is raised by its own ensemble's summary.
    The traceback is dropped: it would keep the failed path's arrays alive.
    """
    try:
        return _path_record(*task)
    except Exception as exc:
        return exc.with_traceback(None)


def _path_records(tasks, workers, grid):
    """Yield the record of each (model, config, index) task, in task order,
    then the record times of grid = (t_end, dt, stride) that every path
    shares.

    The paths run lazily in a pool of min(workers, len(tasks)) forked
    processes, or serially when that is one.  The times are built only when
    asked for, after the paths, whose simulate has checked the config, and
    by a worker when there is a pool, so the parent never holds a fine grid.
    """
    workers = min(workers, len(tasks))
    if workers > 1:
        # Load numpy and numpy.random (which numpy imports on first access)
        # before forking, so the workers inherit them instead of each
        # importing them again; LazyLoader is also not thread-safe before
        # Python 3.12, and the pool's result thread unpickles arrays.
        np.random
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_path_record_star, tasks, chunksize=chunk)
            times = pool.submit(record_times, *grid).result()
    else:
        yield from map(_path_record_star, tasks)
        times = record_times(*grid)
    yield times


def _aggregate(stack: np.ndarray) -> dict:
    """Cross-path mean and 5/50/95 percentiles of a (paths, times) stack.

    Equal bit for bit to nanmean and nanpercentile along the path axis.
    Only the t=0 column can hold NaN: the rate series are 0/0 there, so it
    is all-NaN for them by design.  That column goes through nanpercentile
    alone; the rest takes one vectorised np.percentile call instead of
    nanpercentile's per-column fallback.
    """
    pcts = np.empty((3, stack.shape[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pcts[:, 0] = np.nanpercentile(stack[:, 0], _PERCENTILES)
        # one reduction over the full stack: a per-column mean would round
        # the t=0 row differently
        mean = np.nanmean(stack, axis=0)
    pcts[:, 1:] = np.percentile(stack[:, 1:], _PERCENTILES, axis=0)
    return {"mean": mean, "p5": pcts[0], "p50": pcts[1], "p95": pcts[2]}


def _summarise(records, times, extinction_threshold) -> EnsembleSummary:
    """Fold one ensemble's path records, in path order, into its summary.

    Raises the first exception a path raised, then RuntimeError if 10% or
    more of the paths aborted.  times() gives the record times; it is called
    only once those checks pass, so some path has accepted the config.
    """
    n_paths = len(records)
    for r in records:
        if isinstance(r, Exception):
            raise r
    aborted = tuple(r for r in records if r[1])
    if len(aborted) >= 0.1 * n_paths:
        detail = "; ".join(f"path {i}: {msg}" for i, msg in aborted[:5])
        raise RuntimeError(
            f"{len(aborted)}/{n_paths} paths aborted (>= 10%): {detail}")
    times = times()
    index, _, blocks, rows = zip(*(r for r in records if not r[1]))

    # one (paths, times) stack alive at a time; the sticky extinction flags
    # come from the x and y stacks while they are held
    series, extinct = {}, {}
    for k, name in enumerate(_SERIES):
        stack = np.stack([b[k] for b in blocks])
        series[name] = _aggregate(stack)
        if name in ("x", "y"):
            extinct[name] = np.logical_or.accumulate(stack < extinction_threshold, axis=1)
    rows = np.stack(rows).T.copy()
    terminal = {"path": np.array(index)}
    terminal.update(zip(_TERMINAL, rows))
    terminal["brownian_over_t"] = rows[6:9].T.copy()
    terminal["comp_jump_over_t"] = rows[9:12].T.copy()
    terminal["extinct_x"] = extinct["x"][:, -1].copy()
    terminal["extinct_y"] = extinct["y"][:, -1].copy()

    return EnsembleSummary(
        n_paths=n_paths,
        horizon=float(times[-1]),
        times=times,
        series=series,
        extinct_x_frac=np.mean(extinct["x"], axis=0),
        extinct_y_frac=np.mean(extinct["y"], axis=0),
        terminal=terminal,
        extinction_threshold=extinction_threshold,
        aborted=aborted,
    )


def ensemble(model: CrispModel, config: SimConfig, n_paths: int,
             workers: int = 1,
             extinction_threshold: float = EXTINCTION_THRESHOLD) -> EnsembleSummary:
    """Simulate n_paths independent paths and aggregate their statistics.

    Deterministic given (model, config, n_paths, extinction_threshold);
    ``workers`` only controls process-level parallelism, and the pool never
    has more workers than paths.  Individual path failures are recorded;
    the run fails outright if 10% or more abort.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    tasks = [(model, config, i) for i in range(n_paths)]
    grid = (config.t_end, config.dt, config.output_stride)
    with closing(_path_records(tasks, workers, grid)) as stream:
        records = list(islice(stream, n_paths))
        return _summarise(records, partial(next, stream), extinction_threshold)


def verify(report: ThresholdReport, summary: EnsembleSummary,
           tol: VerifyTolerances = VerifyTolerances()) -> Verdict:
    """Check every regime prediction against the ensemble's terminal statistics.

    Rate bounds are one-sided with absolute slack tol.rate against the median
    path (almost-sure statements concern typical paths, and medians are
    insensitive to the handful of pinned ones); time-average limits are
    two-sided with relative slack tol.mean; the persistent lower bound is
    one-sided against the 5th percentile.  Refuses horizons below
    tol.min_horizon outright.
    """
    tol.check_horizon(summary.horizon)

    preds = report.predictions
    term = summary.terminal
    claims = []

    def upper(claim_id, predicted, observed):
        claims.append(Claim(claim_id, predicted, observed, tol.rate, "upper",
                            observed <= predicted + tol.rate))

    def within(claim_id, predicted, observed):
        slack = tol.mean * abs(predicted)
        claims.append(Claim(claim_id, predicted, observed, slack, "within",
                            abs(observed - predicted) <= slack))

    def lower(claim_id, predicted, observed):
        slack = tol.mean * abs(predicted)
        claims.append(Claim(claim_id, predicted, observed, slack, "lower",
                            observed >= predicted - slack))

    if report.regime is Regime.BOTH_EXTINCT:
        upper("x_lyapunov_bound", preds.x_lyapunov_bound,
              float(np.median(term["rate_x"])))
        upper("y_lyapunov_bound", preds.y_lyapunov_bound,
              float(np.median(term["rate_y"])))
        within("S_mean_limit", preds.S_mean_limit,
               float(np.median(term["mean_S"])))
    elif report.regime is Regime.PREY_ONLY:
        within("S_mean_limit", preds.S_mean_limit,
               float(np.median(term["mean_S"])))
        within("x_mean_limit", preds.x_mean_limit,
               float(np.median(term["mean_x"])))
        upper("y_lyapunov_bound", preds.y_lyapunov_bound,
              float(np.median(term["rate_y"])))
    elif report.regime is Regime.PERSISTENT:
        lower("y_mean_lower_bound", preds.y_mean_lower_bound,
              float(np.percentile(term["mean_y"], 5.0)))

    return Verdict(regime=report.regime, claims=tuple(claims))


@dataclass
class SweepRow:
    p: float
    crisp: CrispModel
    report: ThresholdReport
    stats: dict | None = None
    verdict: Verdict | None = None
    error: str | None = None


def p_sweep(model: ImpreciseModel, p_grid, config: SimConfig, n_paths: int,
            workers: int = 1, tol: VerifyTolerances = VerifyTolerances(),
            boundary_tol: float = 1e-9,
            extinction_threshold: float = EXTINCTION_THRESHOLD) -> list:
    """Crispify, classify, simulate, and verify at each imprecision level.

    Rows are ordered by p and evaluated independently; a failure in one row
    (recorded in row.error) does not reach another.  Every row's paths run
    in one stream, row by row, on one pool, and a row is summarised and
    verified as soon as its records are in.  n_paths=0 skips the Monte
    Carlo part and produces threshold-only rows: crispify and classify at
    each level, nothing else.
    """
    grid = sorted(float(p) for p in p_grid)
    if not grid:
        raise ValueError("p_grid must be nonempty")
    rows = []
    for p in grid:
        crisp = crispify(model, p)
        rows.append(SweepRow(p=p, crisp=crisp, report=classify(crisp, boundary_tol)))
    if n_paths < 1:
        return rows

    tasks = [(row.crisp, config, i) for row in rows for i in range(n_paths)]
    record_grid = (config.t_end, config.dt, config.output_stride)
    # The stream's own record times would come only after every row's paths.
    # They are built here instead, once, for the first row whose paths
    # accepted the config.
    times = cache(partial(record_times, *record_grid))
    broken = None  # a pool that lost a worker ends the stream of every later row
    with closing(_path_records(tasks, workers, record_grid)) as stream:
        for row in rows:
            try:
                if broken is not None:
                    raise broken
                try:
                    records = list(islice(stream, n_paths))
                except BrokenExecutor as exc:
                    broken = exc
                    raise
                summary = _summarise(records, times, extinction_threshold)
                row.stats = {
                    "mean_S": float(np.median(summary.terminal["mean_S"])),
                    "mean_x": float(np.median(summary.terminal["mean_x"])),
                    "mean_y": float(np.median(summary.terminal["mean_y"])),
                    "rate_x": float(np.median(summary.terminal["rate_x"])),
                    "rate_y": float(np.median(summary.terminal["rate_y"])),
                    "extinct_x_frac": float(summary.terminal["extinct_x"].mean()),
                    "extinct_y_frac": float(summary.terminal["extinct_y"].mean()),
                }
                row.verdict = verify(row.report, summary, tol)
            except (RuntimeError, ValueError) as exc:
                row.error = str(exc)
    return rows
