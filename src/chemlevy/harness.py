"""Monte Carlo ensembles, long-run statistics, and claim verification.

An ensemble runs n independent paths with per-path random streams derived
from (seed, path index), aggregates cross-path mean and 5/50/95 percentiles
of the recorded quantities over time, and keeps each path's terminal
statistics.  ``verify`` compares those statistics against the regime
predictions of a ThresholdReport and returns one pass/fail claim per
applicable prediction.  Paths are embarrassingly parallel: each worker's
contiguous group of them is one task, which writes its paths' rows of the
run's one record block in place, and aggregation is a deterministic fold in
path-index order, so results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
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
from .model import CrispModel, ImpreciseModel, crispify
from .thresholds import Regime, ThresholdReport, classify

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
_PERCENTILES = (5.0, 50.0, 95.0)

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


@dataclass(frozen=True)
class VerifyTolerances:
    """Finite-horizon slack for asymptotic claims.

    rate: absolute slack on exponential-rate (ln c(t)/t) bounds.
    mean: relative slack on time-average limits and lower bounds.
    """

    rate: float = 0.02
    mean: float = 0.05

    def __post_init__(self):
        for name in ("rate", "mean"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"tolerance {name} must be finite and nonnegative, got {value!r}")


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
    block, or of the .npy file block names, and return their records.

    A path's record is (index, None, terminal), terminal being _terminal's
    row, or (index, error message, None) for a failed path.
    """
    if isinstance(block, str):
        block = np.load(block, mmap_mode="r+")
    seeds = [derive_path_seed(config.seed, i) for i in range(lo, hi)]
    _, paths = _integrate(model, config, seeds, block[:, lo:hi])
    return [(i, str(traj), None) if isinstance(traj, SimulationError)
            else (i, None, _terminal(traj, block[:, i]))
            for i, traj in enumerate(paths, lo)]


def _path_records(models, config: SimConfig, n_paths: int, workers: int):
    """Yield (block, records) of config's run on each model, run by run:
    its (9, n_paths, records) block of _SERIES over the record times, and
    its paths' records in path order.

    Each run's paths are split into min(workers, n_paths) contiguous
    groups, one _run_paths task each.  The tasks run in a pool of
    min(workers, tasks) forked processes, where a run's block is one .npy
    file in a temporary directory, which the parent maps and unlinks once
    the run's tasks are in; or serially and lazily when that is one, into
    an array.  The caller has checked the config: a path's SimulationError
    is its record's error, and anything else a path raises, or a broken
    pool, ends the stream.
    """
    split = min(workers, n_paths)
    groups = [(n_paths * k // split, n_paths * (k + 1) // split) for k in range(split)]
    shape = (9, n_paths, len(record_times(config.t_end, config.dt, config.output_stride)))
    workers = min(workers, len(models) * split)
    if workers == 1:
        for model in models:
            block = np.empty(shape)
            yield block, [r for lo, hi in groups for r in _run_paths(model, config, lo, hi, block)]
        return
    # Load numpy, numpy.random (which numpy imports on first access) and the
    # compiled kernel before forking, so the workers inherit them instead of
    # each loading them again; LazyLoader is also not thread-safe before
    # Python 3.12, and the pool's result thread unpickles arrays.
    np.random
    _compiled.log_euler_chunk()
    with (tempfile.TemporaryDirectory(prefix="chemlevy-") as spill_dir,
          ProcessPoolExecutor(max_workers=workers) as pool):
        files = [os.path.join(spill_dir, f"{k}.npy") for k in range(len(models))]
        for name in files:
            np.lib.format.open_memmap(name, "w+", shape=shape)
        tasks = [(model, config, lo, hi, name)
                 for model, name in zip(models, files) for lo, hi in groups]
        results = pool.map(_run_paths, *zip(*tasks))
        for name in files:
            records = [r for _ in groups for r in next(results)]
            block = np.load(name, mmap_mode="r")
            os.unlink(name)  # the mapping outlives the name
            yield block, records


def _check_args(n_paths, least: int, workers) -> None:
    """Refuse an n_paths that is not an integer >= least, or a workers that
    is not an integer >= 1."""
    check_integer("n_paths", n_paths, least)
    check_integer("workers", workers, 1)


def _aggregate(stack: np.ndarray) -> dict:
    """Cross-path mean and 5/50/95 percentiles of a (paths, times) stack.

    A column holds NaN only where every path does (the rate series are 0/0
    at t=0), so the plain reductions equal nanmean and nanpercentile there
    too, and need neither their per-column fallback nor their warnings.  A
    mean of paths near the float maximum overflows to inf without a word.
    """
    p5, p50, p95 = np.percentile(stack, _PERCENTILES, axis=0)
    with np.errstate(over="ignore"):
        mean = stack.mean(axis=0)
    return {"mean": mean, "p5": p5, "p50": p50, "p95": p95}


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
        observed = float(np.median(values) if stat == "median" else np.percentile(values, 5.0))
        predicted = getattr(report.predictions, claim_id)
        slack = tol.rate if comparison == "upper" else tol.mean * abs(predicted)
        passed = {"upper": observed <= predicted + slack,
                  "lower": observed >= predicted - slack,
                  "within": abs(observed - predicted) <= slack}[comparison]
        claims.append(Claim(claim_id, predicted, observed, slack, comparison, passed))
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
    n_paths=0 skips the Monte Carlo part and produces threshold-only rows:
    crispify and classify at each level, nothing else.
    """
    _check_args(n_paths, 0, workers)
    grid = sorted(float(p) for p in p_grid)
    if not grid:
        raise ValueError("p_grid must be nonempty")
    rows = []
    for p in grid:
        crisp = crispify(model, p)
        rows.append(SweepRow(p=p, crisp=crisp, report=classify(crisp)))
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
