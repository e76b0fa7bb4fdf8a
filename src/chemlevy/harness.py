"""Monte Carlo ensembles, long-run statistics, and claim verification.

An ensemble runs n independent paths with per-path random streams derived
from (seed, path index), aggregates cross-path mean and 5/50/95 percentiles
of the recorded quantities over time, and keeps each path's terminal
statistics.  ``verify`` compares those statistics against the regime
predictions of a ThresholdReport and returns one pass/fail claim per
applicable prediction.  Paths are embarrassingly parallel: each worker's
contiguous group of them is one task, which writes its paths' rows of the
run's one record block in place, in memory a forked worker shares with the
parent, and aggregation is a deterministic fold in path-index order, so
results are identical for any worker count.
"""

from __future__ import annotations

import math
from contextlib import closing, nullcontext
from dataclasses import dataclass, field

from . import _compiled
from ._lazy import np
from .integrator import (
    SimConfig,
    SimulationError,
    _integrate,
    check_integer,
    check_path_config,
    derive_path_seed,
    record_times,
)
from .model import CrispModel, ImpreciseModel
from .thresholds import Regime, ThresholdReport, VerifyTolerances, sweep_rows

# Reporting threshold for "this population has died out": distinct from the
# integrator's hard pin near 1e-304, which exists only to keep the state
# finite.  A path counts as extinct in a component once the recorded
# concentration first drops below this level (the flag is sticky).
EXTINCTION_THRESHOLD = 1e-30

# Shortest horizon verify accepts at all: below it the terminal statistics
# would not be meaningful.
MIN_HORIZON = 500.0

_SERIES = ("S", "x", "y", "mean_S", "mean_x", "mean_y",
           "lnx_over_t", "lny_over_t", "phi")
# per-path terminal scalars, in the order of a path record's terminal row
_TERMINAL = ("mean_S", "mean_x", "mean_y", "rate_x", "rate_y", "phi")
# each percentile as the quantile np.percentile makes of it
_PERCENTILES = {"p5": 5.0 / 100, "p50": 50.0 / 100, "p95": 95.0 / 100}

# What verify checks of each prediction: the terminal series, its statistic
# over paths (the median, or the 5th percentile for a one-sided lower
# bound) and the comparison; and each regime's claims, in verdict order.
_CLAIMS = {
    "x_lyapunov_bound": ("rate_x", "median", "upper"),
    "y_lyapunov_bound": ("rate_y", "median", "upper"),
    "S_mean_limit": ("mean_S", "median", "within"),
    "x_mean_limit": ("mean_x", "median", "within"),
    "y_mean_lower_bound": ("mean_y", "p5", "lower"),
}
_REGIME_CLAIMS = {
    Regime.BOTH_EXTINCT: ("x_lyapunov_bound", "y_lyapunov_bound", "S_mean_limit"),
    Regime.PREY_ONLY: ("S_mean_limit", "x_mean_limit", "y_lyapunov_bound"),
    Regime.PERSISTENT: ("y_mean_lower_bound",),
}


def check_horizon(horizon: float) -> None:
    """Refuse a horizon below MIN_HORIZON."""
    if horizon < MIN_HORIZON:
        raise ValueError(f"horizon {horizon} is below min_horizon {MIN_HORIZON}; "
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
    mean, p5, p50, p95, over the paths that finished.  ``terminal`` maps
    arrays of one row per path that finished, in path order: path (its
    index), mean_S, mean_x, mean_y, rate_x, rate_y, phi, brownian_over_t
    (n, 3), comp_jump_over_t (n, 3), extinct_x, extinct_y.  ``aborted``
    holds (index, error message) of every path that did not finish.
    """

    n_paths: int
    horizon: float
    times: np.ndarray
    series: dict
    extinct_x_frac: np.ndarray
    extinct_y_frac: np.ndarray
    terminal: dict
    aborted: tuple = field(default_factory=tuple)


def _terminal(traj, series: np.ndarray) -> np.ndarray:
    """The _TERMINAL row of a path, then M(T)/T of its Brownian and its
    compensated jump martingales."""
    t_end = float(traj.times[-1])
    return np.concatenate((series[3:6, -1], (traj.rate_x, traj.rate_y, series[8, -1]),
                           traj.brownian / t_end, traj.comp_jump / t_end))


def _run_paths(model: CrispModel, config: SimConfig, lo: int, hi: int, block) -> list:
    """Step paths lo..hi-1 into their rows block[:, lo:hi] of a run's record
    block and return their records.

    A path's record is (index, None, terminal), terminal being _terminal's
    row, or (index, error message, None) for a failed path.
    """
    seeds = [derive_path_seed(config.seed, i) for i in range(lo, hi)]
    _, paths = _integrate(model, config, seeds, block[:, lo:hi])
    return [(i, str(traj), None) if isinstance(traj, SimulationError)
            else (i, None, _terminal(traj, block[:, i]))
            for i, traj in enumerate(paths, lo)]


def _shared_block(shape) -> np.ndarray:
    """A float array of that shape in anonymous shared memory: the pages
    forked children write are the pages the parent reads."""
    import mmap
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def _path_records(models, config: SimConfig, n_paths: int, workers: int):
    """Yield (block, records) of config's run on each model, run by run:
    its (9, n_paths, records) block of _SERIES over the record times, and
    its paths' records in path order.

    Each run's paths are split into min(workers, n_paths) contiguous
    groups, one _run_paths task each, and run k writes into block k mod 2
    of two, so a block yielded is the caller's until it asks for the next
    run.  With one group the tasks run lazily in this process, each run
    when it is asked for, into arrays.  Otherwise they go to a pool of one
    forked process per group, which write into blocks of shared memory made
    before the fork: the pool starts a run's tasks once the previous run
    has been asked for, so the next run is stepped while the caller reads
    this one.  The caller has checked the config: a path's SimulationError
    is its record's error, and anything else a path raises, or a broken
    pool, ends the stream.
    """
    workers = min(workers, n_paths)
    groups = [(n_paths * k // workers, n_paths * (k + 1) // workers) for k in range(workers)]
    shape = (9, n_paths, len(record_times(config.t_end, config.dt, config.output_stride)))
    make, pool = np.empty, None
    if workers > 1:
        # Load numpy, numpy.random (which numpy imports on first access) and
        # the compiled kernel before forking, so the workers inherit them
        # instead of each loading them again.
        np.random
        _compiled.window(config.scheme)
        make, pool = _shared_block, _pool(workers)
    blocks = [make(shape) for _ in models[:2]]
    tasks = [(model, config, lo, hi, blocks[k % 2])
             for k, model in enumerate(models) for lo, hi in groups]
    with pool or nullcontext():
        results = (pool.map if pool else map)(_run_paths, *zip(*tasks))
        for k in range(len(models)):
            yield blocks[k % 2], [r for _ in groups for r in next(results)]


def _pool(workers: int):
    """A pool of that many forked worker processes (_fork.Pool), whose
    module is loaded on the first pooled run, so that a process that runs
    no pool never compiles or loads it."""
    from ._fork import Pool
    return Pool(workers)


def _check_args(n_paths, least: int, workers) -> None:
    """Refuse an n_paths that is not an integer >= least, or a workers that
    is not an integer >= 1."""
    check_integer("n_paths", n_paths, least)
    check_integer("workers", workers, 1)


def _quantile(ordered, q: float):
    """np.percentile's value at quantile q of values sorted along their
    first axis, bit for bit.  numpy's linear rule reads the sorted values a
    and b at the floor and next of the virtual index (n - 1) q, clipped to
    the ends, as a + (b - a) g, or b - (b - a) (1 - g) where g >= 0.5; and
    where the values hold a NaN, it returns their last after the sort."""
    n = len(ordered)
    virtual = (n - 1) * q
    # past the last index numpy reads the last value, from index -1, and its
    # g is then virtual + 1
    lo = math.floor(virtual) if virtual < n - 1 else -1
    a, b = ordered[lo], ordered[lo + 1 if lo >= 0 else -1]
    gamma = virtual - lo
    value = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
    return np.where(np.isnan(ordered[-1]), ordered[-1], value)


def _aggregate(stack: np.ndarray) -> dict:
    """Cross-path mean and 5/50/95 percentiles of a (paths, times) stack.

    The percentiles are np.percentile's bit for bit, from one sort instead
    of a partition per column (_quantile).  Only a tie of 0.0 with -0.0 may
    sort otherwise, and no series holds -0.0 (S, x, y and their means are
    positive; ln x/t, ln y/t and phi are never -0.0).  A column holds NaN
    only where every path does (the rate series are 0/0 at t=0), so the
    plain reductions equal nanmean and nanpercentile there too.  A mean of
    paths near the float maximum overflows to inf, and a percentile between
    infinities is NaN, without a word.
    """
    ordered = np.sort(stack, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        stats = {"mean": stack.mean(axis=0)}
        stats.update((name, _quantile(ordered, q)) for name, q in _PERCENTILES.items())
    return stats


def _median(values: np.ndarray):
    """np.median of a 1-D array, bit for bit, without the numpy.ma it
    imports: the middle of the sorted values, or np.mean of the middle two,
    unless the last of them is NaN, which is then the median.  A sort and
    numpy's partition order only a tie of 0.0 with -0.0 otherwise, and no
    terminal series holds -0.0 (the means are positive, and ln x/t and
    ln y/t are never -0.0)."""
    ordered = np.sort(values)
    mid = len(ordered) // 2
    middle = ordered[mid] if len(ordered) % 2 else np.mean(ordered[mid - 1:mid + 1])
    return ordered[-1] if np.isnan(ordered[-1]) else middle


def _summarise(block: np.ndarray, records, times) -> EnsembleSummary:
    """Fold one ensemble's record block and path records, in path order,
    into its summary.

    Raises RuntimeError if 10% or more of the paths aborted.  times are the
    record times every path shares.
    """
    n_paths = len(records)
    aborted = tuple((i, msg) for i, msg, _ in records if msg)
    if len(aborted) >= 0.1 * n_paths:
        detail = "; ".join(f"path {i}: {msg}" for i, msg in aborted[:5])
        raise RuntimeError(
            f"{len(aborted)}/{n_paths} paths aborted (>= 10%): {detail}")
    index, _, rows = zip(*(r for r in records if not r[1]))

    # each series' (paths, times) rows reduced in place, or copied without
    # the aborted paths'; the sticky extinction flags come from x's and y's
    series, extinct = {}, {}
    for k, name in enumerate(_SERIES):
        stack = block[k][list(index)] if aborted else block[k]
        series[name] = _aggregate(stack)
        if name in ("x", "y"):
            extinct[name] = np.logical_or.accumulate(stack < EXTINCTION_THRESHOLD, axis=1)
    rows = np.array(rows).T.copy()
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
        aborted=aborted,
    )


def ensemble(model: CrispModel, config: SimConfig, n_paths: int,
             workers: int = 1) -> EnsembleSummary:
    """Simulate n_paths independent paths and aggregate their statistics.

    Deterministic given (model, config, n_paths); ``workers`` only controls
    process-level parallelism, and the pool never has more workers than
    paths.  A config simulate_batch would refuse for n_paths paths, or an
    argument _check_args refuses, raises ValueError before any path runs.
    Individual path failures are recorded; the run fails outright if 10% or
    more abort.
    """
    _check_args(n_paths, 1, workers)
    check_path_config(model, config, n_paths)
    ((block, records),) = _path_records([model], config, n_paths, workers)
    return _summarise(block, records, record_times(config.t_end, config.dt, config.output_stride))


def verify(report: ThresholdReport, summary: EnsembleSummary,
           tol: VerifyTolerances = VerifyTolerances()) -> Verdict:
    """Check every regime prediction against the ensemble's terminal statistics.

    Rate bounds are one-sided with absolute slack tol.rate against the median
    path (almost-sure statements concern typical paths, and medians are
    insensitive to the handful of pinned ones); time-average limits are
    two-sided with relative slack tol.mean; the persistent lower bound is
    one-sided against the 5th percentile.  Refuses horizons below
    MIN_HORIZON outright.
    """
    check_horizon(summary.horizon)
    claims = []
    for claim_id in _REGIME_CLAIMS.get(report.regime, ()):
        name, stat, comparison = _CLAIMS[claim_id]
        values = summary.terminal[name]
        observed = float(_median(values) if stat == "median"
                         else _quantile(np.sort(values), _PERCENTILES[stat]))
        predicted = getattr(report.predictions, claim_id)
        slack = tol.rate if comparison == "upper" else tol.mean * abs(predicted)
        passed = {"upper": observed <= predicted + slack,
                  "lower": observed >= predicted - slack,
                  "within": abs(observed - predicted) <= slack}[comparison]
        claims.append(Claim(claim_id, predicted, observed, slack, comparison, passed))
    return Verdict(regime=report.regime, claims=tuple(claims))


def p_sweep(model: ImpreciseModel, p_grid, config: SimConfig, n_paths: int,
            workers: int = 1, tol: VerifyTolerances = VerifyTolerances()) -> list:
    """Crispify, classify, simulate, and verify at each imprecision level.

    Rows are ordered by p and evaluated independently; a failure in one row
    (recorded in row.error) does not reach another.  An argument _check_args
    refuses, an empty p_grid, a config simulate_batch would refuse for
    n_paths paths or a horizon below MIN_HORIZON raises ValueError before any
    path runs: every row shares the model's jumps, so one check covers them
    all.  Every row's paths run in one stream, row by row, on one pool, and
    a row is summarised and verified as soon as its records are in; an
    exception the stream raises (a broken pool) is the error of its row and
    of every later row.
    n_paths=0 skips the Monte Carlo part: the rows are sweep_rows', crispified
    and classified at each level, nothing else.
    """
    _check_args(n_paths, 0, workers)
    rows = sweep_rows(model, p_grid)
    if n_paths < 1:
        return rows

    check_path_config(model, config, n_paths)
    check_horizon(config.t_end)
    times = record_times(config.t_end, config.dt, config.output_stride)
    broken = None  # a stream that raised has ended for every later row too
    with closing(_path_records([row.crisp for row in rows], config, n_paths,
                               workers)) as stream:
        for row in rows:
            try:
                if broken is not None:
                    raise broken
                try:
                    block, records = next(stream)
                except Exception as exc:
                    broken = exc
                    raise
                summary = _summarise(block, records, times)
                term = summary.terminal
                row.stats = {name: float(_median(term[name])) for name in _TERMINAL[:5]}
                row.stats["extinct_x_frac"] = float(term["extinct_x"].mean())
                row.stats["extinct_y_frac"] = float(term["extinct_y"].mean())
                row.verdict = verify(row.report, summary, tol)
            except (RuntimeError, ValueError) as exc:
                row.error = str(exc)
    return rows
