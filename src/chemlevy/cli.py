"""Command-line interface: model validation, thresholds, simulation, and
Monte Carlo verification, all driven by a JSON model file plus flags.

The model file carries the (possibly interval-valued) parameters; flags carry
the experiment.  All outputs are CSV so downstream plotting and diff-based
comparison stay trivial, and every output is a pure function of
(model file, flags): rerunning a command reproduces its files byte for byte.

Exit status: 0 on success (and all claims passing), 1 on claim or simulation
failure, 2 on usage or validation errors.
"""

import argparse
import csv
import os
import sys
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path

# the engine loads on a command's first use of chemlevy.integrator or chemlevy.harness
import chemlevy

from .model import (_PARAM_FIELDS, DIRECT_EULER, LOG_EULER, State, check_H3, crispify,
                    load_model, validate)
from .thresholds import VerifyTolerances, classify, sweep_rows

_PARAM_ORDER = ("S0",) + _PARAM_FIELDS
_REPORT_FIELDS = ("beta1", "beta2", "beta3", "R0s", "R1s")
# the leading columns of thresholds.csv and sweep.csv
_THRESHOLD_HEADER = ["p", *_PARAM_ORDER, *_REPORT_FIELDS, "regime"]


# ---------------------------------------------------------------------------
# CSV writers (shared by the CLI and the test suite)
# ---------------------------------------------------------------------------

@contextmanager
def _whole(path, mode: str, **kwargs):
    """A file for path's table at a name of this process's own beside the
    file path names (through any symlink), moved onto it once whole and
    removed on any error.  A device or a pipe, such as os.devnull, is written in place."""
    path = os.path.realpath(path)
    part = f"{path}.{os.getpid()}.part"
    if os.path.exists(path) and not os.path.isfile(path):
        part = path
    try:
        with open(part, mode, **kwargs) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        if part != path:
            with suppress(OSError):
                os.unlink(part)
        raise


def _write_rows(path, header, rows) -> None:
    # for the tables with an int, bool, string or empty cell: csv quotes a
    # string where it must, and writes None as an empty cell and anything
    # else as str(v), which for a float is its shortest round-trip repr
    with _whole(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _line(row) -> str:
    # a row of floats as the CSV line csv would write, which quotes none
    return ",".join(map(repr, row)) + "\n"


# rows formatted at a time: the writer's memory is a block this long, not the file
_BLOCK_ROWS = 4096


def _write_numbers(path, header, columns) -> None:
    """Write float64 columns of one length as CSV lines, every cell its
    repr: a block of rows at a time, through the compiled formatter where it
    loads, else through repr, with the same bytes."""
    import numpy as np  # here, so that the threshold commands never load it

    from . import _compiled

    fmt = _compiled.float_rows()
    n = len(columns[0])
    block = np.empty((min(n, _BLOCK_ROWS), len(columns)))
    with _whole(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for a in range(0, n, _BLOCK_ROWS):
            rows = block[:min(_BLOCK_ROWS, n - a)]
            for k, column in enumerate(columns):
                rows[:, k] = column[a:a + len(rows)]
            fh.write(fmt(rows) if fmt else "".join(map(_line, rows.tolist())).encode())


def write_trajectory_csv(traj, model, path) -> None:
    header = ["t", "S", "x", "y", "meanS", "meanx", "meany",
              "lnx_over_t", "lny_over_t", "phi"]
    columns = [traj.times, traj.S, traj.x, traj.y, traj.mean_S, traj.mean_x, traj.mean_y,
               traj.lnx_over_t, traj.lny_over_t,
               chemlevy.integrator.conservation_residual(traj, model)]
    _write_numbers(path, header, columns)


def write_jumps_csv(traj, path) -> None:
    # a block of events at a time, so that no Python object per event is held
    t, mark = traj.jump_times, traj.jump_marks
    blocks = (zip(t[a:a + _BLOCK_ROWS].tolist(), mark[a:a + _BLOCK_ROWS].tolist())
              for a in range(0, len(t), _BLOCK_ROWS))
    _write_rows(path, ["t", "mark"], (row for block in blocks for row in block))


def write_ensemble_csv(summary, path) -> None:
    header = ["t"]
    columns = [summary.times]
    for name, stats in summary.series.items():
        for stat, values in stats.items():
            header.append(f"{name}_{stat}")
            columns.append(values)
    header += ["extinct_x_frac", "extinct_y_frac"]
    columns += [summary.extinct_x_frac, summary.extinct_y_frac]
    _write_numbers(path, header, columns)


def write_terminal_csv(summary, path) -> None:
    term = summary.terminal
    header = ["path", "mean_S", "mean_x", "mean_y", "rate_x", "rate_y", "phi",
              "M1_over_t", "M2_over_t", "M3_over_t",
              "Mj1_over_t", "Mj2_over_t", "Mj3_over_t",
              "extinct_x", "extinct_y"]
    columns = ([term[k].tolist() for k in ("path", "mean_S", "mean_x", "mean_y",
                                           "rate_x", "rate_y", "phi")]
               + term["brownian_over_t"].T.tolist() + term["comp_jump_over_t"].T.tolist()
               + [term["extinct_x"].tolist(), term["extinct_y"].tolist()])
    _write_rows(path, header, zip(*columns))


def write_verdict_csv(verdict, path) -> None:
    header = ["claim", "predicted", "observed", "tolerance", "comparison", "passed"]
    rows = [
        (c.claim_id, c.predicted, c.observed, c.tolerance, c.comparison, c.passed)
        for c in verdict.claims
    ]
    _write_rows(path, header, rows)


def _threshold_cells(crisp, report) -> list:
    """The _THRESHOLD_HEADER cells of one crisp model and its report."""
    return ([crisp.p] + [getattr(crisp, f) for f in _PARAM_ORDER]
            + [getattr(report, f) for f in _REPORT_FIELDS] + [report.regime.value])


def write_thresholds_csv(crisp, report, path) -> None:
    preds = report.predictions
    header = _THRESHOLD_HEADER + list(preds.__dataclass_fields__)
    row = (_threshold_cells(crisp, report)
           + [getattr(preds, f) for f in preds.__dataclass_fields__])
    _write_rows(path, header, [row])


def write_sweep_csv(rows, path) -> None:
    header = _THRESHOLD_HEADER + [
        "median_mean_S", "median_mean_x", "median_mean_y",
        "median_rate_x", "median_rate_y", "extinct_x_frac", "extinct_y_frac",
        "claims_passed", "claims_total", "all_pass", "error"]
    stats = ("mean_S", "mean_x", "mean_y", "rate_x", "rate_y", "extinct_x_frac", "extinct_y_frac")
    out = []
    for row in rows:
        verdict = row.verdict
        out.append(_threshold_cells(row.crisp, row.report)
                   + [(row.stats or {}).get(k) for k in stats]
                   + ([sum(c.passed for c in verdict.claims), len(verdict.claims),
                       verdict.all_passed] if verdict else [None] * 3)
                   + [row.error])
    _write_rows(path, header, out)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _uint(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _initial_state(text: str) -> State:
    parts = _float_list(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected S,x,y (three floats), got {text!r}")
    return State(*parts)


# every flag more than one command takes, declared once
_FLAGS = {
    "--model": dict(required=True, help="JSON model file"),
    "--out": dict(default=None, help="output directory (data commands default to '.')"),
    "--p": dict(type=float, required=True, help="imprecision level in [0,1]"),
    "--t-end": dict(type=float, default=500.0, help="time horizon (default 500)"),
    "--dt": dict(type=float, default=0.01, help="grid step (default 0.01)"),
    "--initial": dict(type=_initial_state, default=None,
                      help="initial S,x,y (default: S0,0.1*S0,0.1*S0)"),
    "--stride": dict(type=_positive_int, default=100, help="record every n-th grid point"),
    "--seed": dict(type=_uint, default=1, help="random seed, an integer >= 0 (default 1)"),
    "--paths": dict(type=_positive_int, default=100, help="Monte Carlo paths (default 100)"),
    "--tol-rate": dict(type=float, default=0.02, help="absolute slack for rate bounds"),
    "--tol-mean": dict(type=float, default=0.05,
                       help="relative slack for time-average limits"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemlevy",
        description="Stochastic food-chain chemostat: thresholds, simulation, "
                    "and Monte Carlo verification of long-run behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *flags):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    run_flags = ("--t-end", "--dt", "--initial", "--stride")
    sim = ("--model", "--out", "--p", *run_flags)
    command("validate", _cmd_validate, "run structural model checks", "--model")
    p_thr = command("thresholds", _cmd_thresholds, "noise-corrected thresholds and regime",
                    "--model", "--out", "--p")
    p_thr.add_argument("--theta", type=float, default=None,
                       help="also check the order-theta moment condition (theta > 2)")
    p_sim = command("simulate", partial(_cmd_simulate, deterministic=False),
                    "integrate one stochastic path", *sim, "--seed")
    p_sim.add_argument("--scheme", choices=[LOG_EULER, DIRECT_EULER], default=LOG_EULER)
    command("ode", partial(_cmd_simulate, deterministic=True),
            "integrate the noise-free system (RK4)", *sim)
    command("ensemble", _cmd_ensemble, "Monte Carlo ensemble summary", *sim, "--seed", "--paths")
    command("verify", _cmd_verify, "check regime predictions by Monte Carlo",
            *sim, "--seed", "--paths", "--tol-rate", "--tol-mean")
    p_swp = command("sweep", _cmd_sweep, "sweep the imprecision level p", "--model", "--out",
                    *run_flags, "--seed", "--tol-rate", "--tol-mean")
    p_swp.add_argument("--p-grid", type=_float_list, required=True,
                       help="comma-separated p values in [0,1]")
    p_swp.add_argument("--paths", type=_uint, default=0,
                       help="paths per p (0 = thresholds only)")

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _out_dir(args, default_to_cwd: bool) -> Path | None:
    if args.out is None and not default_to_cwd:
        return None
    out = Path(args.out) if args.out is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _workers() -> int:
    """Monte Carlo worker threads: every CPU this process may run on
    (restrict with taskset).  Results do not depend on the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _make_config(args, model, scheme=LOG_EULER, seed=0):
    initial = args.initial
    if initial is None:
        initial = State(model.S0, 0.1 * model.S0, 0.1 * model.S0)
    return chemlevy.integrator.SimConfig(initial=initial, t_end=args.t_end, dt=args.dt, seed=seed,
                                         output_stride=args.stride, scheme=scheme)


def _print_thresholds(crisp, report) -> None:
    print(f"{'p':<22}{crisp.p:.6g}")
    for name in _PARAM_ORDER:
        print(f"{name:<22}{getattr(crisp, name):.10g}")
    for name in _REPORT_FIELDS:
        print(f"{name:<22}{getattr(report, name):.10g}")
    print(f"{'regime':<22}{report.regime.value}")
    preds = report.predictions.present()
    if preds:
        print("predictions:")
        for name, value in preds.items():
            print(f"  {name:<20}{value:.10g}")


def _print_verdict(verdict) -> None:
    print(f"regime: {verdict.regime.value}")
    if not verdict.claims:
        print("no claims apply to this regime")
        return
    print(f"{'claim':<24}{'predicted':>14}{'observed':>14}{'tol':>10}  result")
    for c in verdict.claims:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.claim_id:<24}{c.predicted:>14.6g}{c.observed:>14.6g}"
              f"{c.tolerance:>10.4g}  {status} ({c.comparison})")
    print("all claims passed" if verdict.all_passed else "SOME CLAIMS FAILED")


def _cmd_validate(args) -> int:
    report = validate(load_model(args.model))
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name:<30}{status:<6}{check.detail}")
    print(f"{'jump_moment_bound':<30}{report.jump_moment_bound!r}")
    for i in range(3):
        print(f"{f'log_jump_bound_{i + 1}':<30}{report.log_jump_bounds[i]!r}")
        print(f"{f'jump_lipschitz_{i + 1}':<30}{report.jump_lipschitz[i]!r}")
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        print(f"validation failed: {names}", file=sys.stderr)
        return 2
    return 0


def _require_valid(args):
    model = load_model(args.model)
    report = validate(model)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise ValueError(f"model failed validation check(s): {names}")
    return model


def _cmd_thresholds(args) -> int:
    model = _require_valid(args)
    crisp = crispify(model, args.p)
    report = classify(crisp)
    # a bad theta is refused before anything is printed
    h3 = None if args.theta is None else check_H3(crisp, args.theta)
    _print_thresholds(crisp, report)
    if h3 is not None:
        status = "holds" if h3.holds else "FAILS"
        print(f"{'moment_condition':<22}{status} (theta={h3.theta:g}, "
              f"sigma_sq={h3.sigma_sq:.6g}, zeta={h3.zeta:.6g}, lhs={h3.lhs:.6g})")
    out = _out_dir(args, default_to_cwd=False)
    if out is not None:
        write_thresholds_csv(crisp, report, out / "thresholds.csv")
        print(f"wrote {out / 'thresholds.csv'}")
    return 0


def _cmd_simulate(args, deterministic: bool) -> int:
    model = _require_valid(args)
    crisp = crispify(model, args.p)
    if deterministic:
        config = _make_config(args, crisp)
        traj = chemlevy.integrator.simulate_ode(crisp, config)
    else:
        config = _make_config(args, crisp, scheme=args.scheme, seed=args.seed)
        traj = chemlevy.integrator.simulate(crisp, config)
    out = _out_dir(args, default_to_cwd=True)
    write_trajectory_csv(traj, crisp, out / "trajectory.csv")
    written = [out / "trajectory.csv"]
    if len(traj.jump_times):
        write_jumps_csv(traj, out / "jumps.csv")
        written.append(out / "jumps.csv")
    else:  # an earlier run's jumps.csv would read as this path's
        (out / "jumps.csv").unlink(missing_ok=True)
    print(f"final state: S={traj.S[-1]:.6g} x={traj.x[-1]:.6g} y={traj.y[-1]:.6g} "
          f"at t={traj.times[-1]:g} ({len(traj.jump_times)} jumps)")
    for f in written:
        print(f"wrote {f}")
    return 0


def _cmd_ensemble(args) -> int:
    model = _require_valid(args)
    crisp = crispify(model, args.p)
    config = _make_config(args, crisp, seed=args.seed)
    summary = chemlevy.harness.ensemble(crisp, config, args.paths, workers=_workers())
    out = _out_dir(args, default_to_cwd=True)
    write_ensemble_csv(summary, out / "ensemble_summary.csv")
    write_terminal_csv(summary, out / "ensemble_terminal.csv")
    term = summary.terminal
    print(f"{args.paths} paths to t={summary.horizon:g} "
          f"({len(summary.aborted)} aborted)")
    median = chemlevy.harness._median
    print(f"terminal medians: <S>={median(term['mean_S']):.6g} "
          f"<x>={median(term['mean_x']):.6g} <y>={median(term['mean_y']):.6g}")
    print(f"extinct fractions: x={term['extinct_x'].mean():.3f} "
          f"y={term['extinct_y'].mean():.3f}")
    print(f"wrote {out / 'ensemble_summary.csv'}")
    print(f"wrote {out / 'ensemble_terminal.csv'}")
    return 0


def _cmd_verify(args) -> int:
    model = _require_valid(args)
    crisp = crispify(model, args.p)
    config = _make_config(args, crisp, seed=args.seed)
    report = classify(crisp)
    tol = VerifyTolerances(rate=args.tol_rate, mean=args.tol_mean)
    chemlevy.harness.check_horizon(args.t_end)  # refused before anything is simulated
    summary = chemlevy.harness.ensemble(crisp, config, args.paths, workers=_workers())
    verdict = chemlevy.harness.verify(report, summary, tol)
    _print_verdict(verdict)
    out = _out_dir(args, default_to_cwd=True)
    write_verdict_csv(verdict, out / "verdict.csv")
    write_ensemble_csv(summary, out / "ensemble_summary.csv")
    write_terminal_csv(summary, out / "ensemble_terminal.csv")
    print(f"wrote {out / 'verdict.csv'}")
    return 0 if verdict.all_passed else 1


def _cmd_sweep(args) -> int:
    model = _require_valid(args)
    tol = VerifyTolerances(rate=args.tol_rate, mean=args.tol_mean)  # refused even without paths
    if args.paths:
        config = _make_config(args, model, seed=args.seed)
        rows = chemlevy.harness.p_sweep(model, args.p_grid, config, args.paths,
                                        workers=_workers(), tol=tol)
    else:  # the thresholds alone, without loading the engine
        rows = sweep_rows(model, args.p_grid)
    out = _out_dir(args, default_to_cwd=True)
    write_sweep_csv(rows, out / "sweep.csv")
    print(f"{'p':<10}{'R0s':>12}{'R1s':>12}  regime")
    for row in rows:
        mark = ""
        if row.error:
            mark = "  ERROR: " + row.error
        elif row.verdict is not None and not row.verdict.all_passed:
            mark = "  CLAIMS FAILED"
        # a space before each number, even one that fills its 11 columns
        print(f"{row.p:<10.4g} {row.report.R0s:>11.6g} {row.report.R1s:>11.6g}"
              f"  {row.report.regime.value}{mark}")
    print(f"wrote {out / 'sweep.csv'}")
    bad = any(row.error or (row.verdict is not None and not row.verdict.all_passed)
              for row in rows)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))
    except chemlevy.integrator.SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    # numpy's OpenBLAS starts a pool of threads that spin while numpy loads,
    # and nothing here calls BLAS: one thread, unless the user chose a count
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
