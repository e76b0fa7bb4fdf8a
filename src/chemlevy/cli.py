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
from functools import partial
from pathlib import Path

from ._lazy import np
from .harness import VerifyTolerances, check_horizon, ensemble, p_sweep, verify
from .integrator import (
    DIRECT_EULER,
    LOG_EULER,
    SimConfig,
    SimulationError,
    conservation_residual,
    simulate,
    simulate_ode,
)
from .model import _PARAM_FIELDS, State, check_H3, crispify, load_model, validate
from .thresholds import classify

_PARAM_ORDER = ("S0",) + _PARAM_FIELDS
_REPORT_FIELDS = ("beta1", "beta2", "beta3", "R0s", "R1s")
# the leading columns of thresholds.csv and sweep.csv
_THRESHOLD_HEADER = ["p", *_PARAM_ORDER, *_REPORT_FIELDS, "regime"]


# ---------------------------------------------------------------------------
# CSV writers (shared by the CLI and the test suite)
# ---------------------------------------------------------------------------

def _write_rows(path, header, rows) -> None:
    # csv writes None as an empty cell and anything else as str(v); a float's
    # str is its shortest round-trip repr
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(traj, model, path) -> None:
    phi = conservation_residual(traj, model)
    header = ["t", "S", "x", "y", "meanS", "meanx", "meany",
              "lnx_over_t", "lny_over_t", "phi"]
    rows = zip(
        traj.times.tolist(), traj.S.tolist(), traj.x.tolist(), traj.y.tolist(),
        traj.mean_S.tolist(), traj.mean_x.tolist(), traj.mean_y.tolist(),
        traj.lnx_over_t.tolist(), traj.lny_over_t.tolist(), phi.tolist(),
    )
    _write_rows(path, header, rows)


def write_jumps_csv(traj, path) -> None:
    _write_rows(path, ["t", "mark"], traj.jump_log)


def write_ensemble_csv(summary, path) -> None:
    header = ["t"]
    columns = [summary.times.tolist()]
    for name, stats in summary.series.items():
        for stat, values in stats.items():
            header.append(f"{name}_{stat}")
            columns.append(values.tolist())
    header += ["extinct_x_frac", "extinct_y_frac"]
    columns += [summary.extinct_x_frac.tolist(), summary.extinct_y_frac.tolist()]
    _write_rows(path, header, zip(*columns))


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
    out = []
    for row in rows:
        cells = _threshold_cells(row.crisp, row.report)
        if row.stats is not None:
            cells += [row.stats[k] for k in
                      ("mean_S", "mean_x", "mean_y", "rate_x", "rate_y",
                       "extinct_x_frac", "extinct_y_frac")]
        else:
            cells += [None] * 7
        if row.verdict is not None:
            cells += [sum(c.passed for c in row.verdict.claims),
                      len(row.verdict.claims), row.verdict.all_passed]
        else:
            cells += [None, None, None]
        cells.append(row.error)
        out.append(cells)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemlevy",
        description="Stochastic food-chain chemostat: thresholds, simulation, "
                    "and Monte Carlo verification of long-run behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sim=False, mc=False, tols=False):
        p.add_argument("--model", required=True, help="JSON model file")
        p.add_argument("--out", default=None,
                       help="output directory (data commands default to '.')")
        if sim:
            p.add_argument("--p", type=float, required=True,
                           help="imprecision level in [0,1]")
            p.add_argument("--t-end", type=float, default=500.0)
            p.add_argument("--dt", type=float, default=0.01)
            p.add_argument("--initial", type=_initial_state, default=None,
                           help="initial S,x,y (default: S0,0.1*S0,0.1*S0)")
            p.add_argument("--stride", type=_positive_int, default=100,
                           help="record every n-th grid point")
        if mc:
            p.add_argument("--seed", type=_uint, default=1)
            p.add_argument("--paths", type=_positive_int, default=100)
        if tols:
            p.add_argument("--tol-rate", type=float, default=0.02,
                           help="absolute slack for rate bounds")
            p.add_argument("--tol-mean", type=float, default=0.05,
                           help="relative slack for time-average limits")

    p_val = sub.add_parser("validate", help="run structural model checks")
    p_val.set_defaults(run=_cmd_validate)
    p_val.add_argument("--model", required=True)

    p_thr = sub.add_parser("thresholds", help="noise-corrected thresholds and regime")
    p_thr.set_defaults(run=_cmd_thresholds)
    common(p_thr)
    p_thr.add_argument("--p", type=float, required=True)
    p_thr.add_argument("--theta", type=float, default=None,
                       help="also check the order-theta moment condition (theta > 2)")

    p_sim = sub.add_parser("simulate", help="integrate one stochastic path")
    p_sim.set_defaults(run=partial(_cmd_simulate, deterministic=False))
    common(p_sim, sim=True)
    p_sim.add_argument("--seed", type=_uint, default=1)
    p_sim.add_argument("--scheme", choices=[LOG_EULER, DIRECT_EULER],
                       default=LOG_EULER)

    p_ode = sub.add_parser("ode", help="integrate the noise-free system (RK4)")
    p_ode.set_defaults(run=partial(_cmd_simulate, deterministic=True))
    common(p_ode, sim=True)

    p_ens = sub.add_parser("ensemble", help="Monte Carlo ensemble summary")
    p_ens.set_defaults(run=_cmd_ensemble)
    common(p_ens, sim=True, mc=True)

    p_ver = sub.add_parser("verify", help="check regime predictions by Monte Carlo")
    p_ver.set_defaults(run=_cmd_verify)
    common(p_ver, sim=True, mc=True, tols=True)

    p_swp = sub.add_parser("sweep", help="sweep the imprecision level p")
    p_swp.set_defaults(run=_cmd_sweep)
    common(p_swp, tols=True)
    p_swp.add_argument("--p-grid", type=_float_list, required=True,
                       help="comma-separated p values in [0,1]")
    p_swp.add_argument("--t-end", type=float, default=500.0)
    p_swp.add_argument("--dt", type=float, default=0.01)
    p_swp.add_argument("--initial", type=_initial_state, default=None)
    p_swp.add_argument("--stride", type=_positive_int, default=100)
    p_swp.add_argument("--seed", type=_uint, default=1)
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
    """Monte Carlo worker processes: every CPU this process may run on
    (restrict with taskset).  Results do not depend on the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _make_config(args, model, scheme=LOG_EULER, seed=0) -> SimConfig:
    initial = args.initial
    if initial is None:
        initial = State(model.S0, 0.1 * model.S0, 0.1 * model.S0)
    return SimConfig(initial=initial, t_end=args.t_end, dt=args.dt,
                     seed=seed, output_stride=args.stride, scheme=scheme)


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
        traj = simulate_ode(crisp, config)
    else:
        config = _make_config(args, crisp, scheme=args.scheme, seed=args.seed)
        traj = simulate(crisp, config)
    out = _out_dir(args, default_to_cwd=True)
    write_trajectory_csv(traj, crisp, out / "trajectory.csv")
    written = [out / "trajectory.csv"]
    if traj.jump_log:
        write_jumps_csv(traj, out / "jumps.csv")
        written.append(out / "jumps.csv")
    print(f"final state: S={traj.S[-1]:.6g} x={traj.x[-1]:.6g} y={traj.y[-1]:.6g} "
          f"at t={traj.times[-1]:g} ({len(traj.jump_log)} jumps)")
    for f in written:
        print(f"wrote {f}")
    return 0


def _cmd_ensemble(args) -> int:
    model = _require_valid(args)
    crisp = crispify(model, args.p)
    config = _make_config(args, crisp, seed=args.seed)
    summary = ensemble(crisp, config, args.paths, workers=_workers())
    out = _out_dir(args, default_to_cwd=True)
    write_ensemble_csv(summary, out / "ensemble_summary.csv")
    write_terminal_csv(summary, out / "ensemble_terminal.csv")
    term = summary.terminal
    print(f"{args.paths} paths to t={summary.horizon:g} "
          f"({len(summary.aborted)} aborted)")
    print(f"terminal medians: <S>={np.median(term['mean_S']):.6g} "
          f"<x>={np.median(term['mean_x']):.6g} <y>={np.median(term['mean_y']):.6g}")
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
    check_horizon(args.t_end)  # refused before anything is simulated
    summary = ensemble(crisp, config, args.paths, workers=_workers())
    verdict = verify(report, summary, tol)
    _print_verdict(verdict)
    out = _out_dir(args, default_to_cwd=True)
    write_verdict_csv(verdict, out / "verdict.csv")
    write_ensemble_csv(summary, out / "ensemble_summary.csv")
    write_terminal_csv(summary, out / "ensemble_terminal.csv")
    print(f"wrote {out / 'verdict.csv'}")
    return 0 if verdict.all_passed else 1


def _cmd_sweep(args) -> int:
    model = _require_valid(args)
    config = _make_config(args, model, seed=args.seed)
    tol = VerifyTolerances(rate=args.tol_rate, mean=args.tol_mean)
    rows = p_sweep(model, args.p_grid, config, args.paths, workers=_workers(), tol=tol)
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
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
