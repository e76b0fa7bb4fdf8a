"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload and both trace settings it runs ``run.py`` as the
benchmark command line does and checks that: the run is correct with no
failed operation; the JSON line names exactly the metrics BENCHMARK.json
lists, with their units; every metric is also printed with its unit and
sample count; and, in the traced run, span self times are non-negative and
the children of a span never exceed it. Last, it checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import Span, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_bench(cwd: Path, script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list:
    proc = run_bench(ROOT, HERE / "run.py", workload, trace)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit status {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: not correct: {proc.stderr[-500:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(expected.items())}")
    for name, unit in expected.items():
        value = result["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} value {value!r} is not a number")
        printed = [ln.split() for ln in lines[:-1] if ln.split()[:1] == [name]]
        if not printed or printed[0][2] != unit or not printed[0][3].startswith("n="):
            problems.append(f"{where}: {name} not printed with unit and sample count")
    if trace:
        report = json.loads((ROOT / ".perfbench_out" / workload /
                             f"report-seed{SEED}-trace1.json").read_text(encoding="utf-8"))
        spans = [Span(name, start, end, parent, meta)
                 for name, start, end, parent, meta in report["spans"]]
        selfs, broken = self_times(spans)
        problems += [f"{where}: {p}" for p in broken]
        if not spans or min(selfs) < 0.0:
            problems.append(f"{where}: no spans or a negative self time")
    return problems


def check_bare_directory(spec: dict) -> list:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, bare / "perfbench" / "run.py", WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit status {proc.returncode}, output {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    problems += check_bare_directory(spec)
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke test passed" if not problems else f"smoke test FAILED ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
