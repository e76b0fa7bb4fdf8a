"""Output checks for the files each operation writes.

Every CSV must have its expected row count; concentrations must be strictly
positive; and the only non-finite cells allowed are the rate columns
(``lnx_over_t``, ``lny_over_t`` and their ensemble statistics) in the t=0
row, which are NaN by construction and must be NaN there.
"""

import csv
import hashlib
import math
from pathlib import Path

_RATE_PREFIXES = ("lnx_over_t", "lny_over_t")
_TEXT_COLUMNS = {"claim", "comparison", "passed", "regime", "all_pass", "error",
                 "extinct_x", "extinct_y"}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _is_positive_column(name: str) -> bool:
    # state and time-average columns, as trajectory.csv, ensemble_summary.csv
    # and ensemble_terminal.csv name them
    return name in ("S", "x", "y", "meanS", "meanx", "meany",
                    "mean_S", "mean_x", "mean_y") or name.startswith(
        ("S_", "x_", "y_", "mean_S_", "mean_x_", "mean_y_"))


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def check_table(name: str, header: list, rows: list, expected_rows) -> list:
    """Problems found in one parsed CSV (an empty list means it passed)."""
    problems = []
    if expected_rows is not None and len(rows) != expected_rows:
        problems.append(f"{name}: {len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"{name} row {i}: {len(row)} cells, header has {len(header)}")
            continue
        for col, cell in zip(header, row):
            if col in _TEXT_COLUMNS or (name == "jumps.csv" and col == "mark"):
                continue
            try:
                v = float(cell)
            except ValueError:
                problems.append(f"{name} row {i} {col}: not a number: {cell!r}")
                continue
            if i == 0 and col.startswith(_RATE_PREFIXES):
                if not math.isnan(v):
                    problems.append(f"{name} t=0 {col}: expected NaN, got {cell}")
            elif not math.isfinite(v):
                problems.append(f"{name} row {i} {col}: non-finite {cell}")
            elif _is_positive_column(col) and not v > 0.0:
                problems.append(f"{name} row {i} {col}: not strictly positive: {cell}")
        if len(problems) > 20:
            problems.append(f"{name}: further problems not listed")
            break
    return problems


def _check_percentile_order(header: list, rows: list) -> list:
    """Every series must have p5 <= p50 <= p95 on every finite row."""
    col = {h: i for i, h in enumerate(header)}
    problems = []
    for name in (h[:-3] for h in header if h.endswith("_p5")):
        trio = [col[f"{name}_{q}"] for q in ("p5", "p50", "p95")]
        for i, row in enumerate(rows):
            lo, mid, hi = (float(row[j]) for j in trio)
            if all(map(math.isfinite, (lo, mid, hi))) and not lo <= mid <= hi:
                problems.append(f"ensemble_summary.csv row {i} {name}: percentiles out of order")
                break
    return problems


def check_op_files(op: dict, out_dir: Path) -> tuple:
    """Check every file an operation must write; return (problems, facts).

    facts holds what the counts read from the outputs: ``claims`` as
    (passed, total) and ``jumps`` as the number of jumps.csv rows.
    """
    problems, facts = [], {}
    for fname, expected in op["files"].items():
        path = out_dir / fname
        if not path.is_file():
            if fname == "jumps.csv":  # written only when the path jumped
                facts["jumps"] = 0
                continue
            problems.append(f"{op['name']}: {fname} missing")
            continue
        try:
            problems += [f"{op['name']}: {p}" for p in _check_file(op, fname, path, expected, facts)]
        except (ValueError, IndexError, KeyError) as exc:
            problems.append(f"{op['name']}: {fname} unreadable: {exc!r}")
    return problems, facts


def _check_file(op: dict, fname: str, path: Path, expected, facts: dict) -> list:
    """Problems of one output file; what the counts read goes into ``facts``."""
    header, rows = read_csv(path)
    problems = check_table(fname, header, rows, expected)
    if fname == "verdict.csv":
        passed = [r[header.index("passed")] == "True" for r in rows]
        facts["claims"] = (sum(passed), len(passed))
        if not passed:
            problems.append("verdict.csv has no claims")
    elif fname == "sweep.csv":
        col = {h: i for i, h in enumerate(header)}
        errors = [r[col["error"]] for r in rows if r[col["error"]]]
        problems += [f"sweep row error: {e}" for e in errors]
        if not errors:
            facts["claims"] = (sum(int(r[col["claims_passed"]]) for r in rows),
                               sum(int(r[col["claims_total"]]) for r in rows))
    elif fname == "ensemble_summary.csv":
        problems += _check_percentile_order(header, rows)
    elif fname == "jumps.csv":
        times = [float(r[0]) for r in rows]
        facts["jumps"] = len(rows)
        if times != sorted(times) or (times and not 0.0 < times[0] <= times[-1] <= op["t_end"]):
            problems.append("jump times not ordered within (0, t_end]")
    return problems


def clear_outputs(op: dict) -> None:
    """Remove an operation's earlier CSVs, so each execution is judged on its own."""
    for path in Path(op["out"]).glob("*.csv"):
        path.unlink()


def hash_outputs(op: dict, out_dir: Path) -> dict:
    """SHA-256 of every CSV the operation wrote, keyed by op/file."""
    return {f"{op['name']}/{p.name}": sha256(p)
            for p in sorted(out_dir.glob("*.csv"))}
