"""The library operation of the verify_regimes workload, and the runner.

One operation loads a regime's model file, validates, crispifies and
classifies it, runs ``ensemble`` and ``verify``, and writes the verdict and
ensemble CSVs with the CLI's writers. Every name is looked up on the
``chemlevy`` package or on ``chemlevy.cli`` at call time, so a traced run
sees the same calls.

Run as a script, this is the fresh runner process of an untraced run:

    python3 perfbench/libop.py PLAN.json SECONDS WORKERS

Like the CLI workloads in run.py, each iteration first times one set-up
start, a fresh process, then the operations. It prints one JSON line per
iteration.
"""

import json
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import clear_outputs, hash_outputs

PROBE = Path(__file__).with_name("probe.py")
MIN_ITERATIONS = 5


def another_iteration(started: float, done: int, last: float, seconds: float,
                      minimum: int = MIN_ITERATIONS) -> bool:
    """Whether to start another iteration of ``last`` seconds.

    Runs at least ``minimum`` iterations, then starts one while at least half
    of it fits in the measuring window, so a run ends near its seconds.
    """
    return done < minimum or time.perf_counter() - started + last / 2 < seconds


def timed_process(argv: list, **kwargs) -> list:
    """[wall seconds, exit status, stderr] of one child process."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, **kwargs)
    except subprocess.TimeoutExpired:
        return [time.perf_counter() - start, None, "timed out"]
    return [time.perf_counter() - start, proc.returncode, proc.stderr]


def probe_sample(**kwargs) -> dict:
    """One run of the speed probe."""
    return {"probe": timed_process([sys.executable, str(PROBE)], **kwargs)}


def setup_sample(setup_argv: list, **kwargs) -> dict:
    """One fresh ``chemlevy thresholds`` process: a set-up sample."""
    return {"setup": timed_process([sys.executable, "-m", "chemlevy.cli", *setup_argv],
                                   **kwargs)}


def run_regime(op: dict, workers: int) -> dict:
    import chemlevy as cl
    from chemlevy import cli

    model = cl.load_model(op["model"])
    report = cl.validate(model)
    if not report.ok:
        raise ValueError(f"{op['model']} failed validation")
    crisp = cl.crispify(model, op["p"])
    thresholds = cl.classify(crisp)
    config = cl.SimConfig(initial=cl.State(*op["initial"]), t_end=op["t_end"],
                          dt=op["dt"], seed=op["seed"], output_stride=op["stride"])
    start = time.perf_counter()
    summary = cl.ensemble(crisp, config, op["paths"], workers=workers)
    ensemble_s = time.perf_counter() - start
    verdict = cl.verify(thresholds, summary)
    out = Path(op["out"])
    out.mkdir(parents=True, exist_ok=True)
    cli.write_verdict_csv(verdict, out / "verdict.csv")
    cli.write_ensemble_csv(summary, out / "ensemble_summary.csv")
    cli.write_terminal_csv(summary, out / "ensemble_terminal.csv")
    return {"regime": thresholds.regime.value, "all_passed": verdict.all_passed,
            "aborted": len(summary.aborted), "ensemble_s": ensemble_s}


def run_op(op: dict, workers: int) -> dict:
    """Time one operation; an exception is a failed operation, not a crash."""
    start = time.perf_counter()
    try:
        result = run_regime(op, workers)
    except Exception:
        result = {"error": traceback.format_exc(limit=3)}
    result["wall"] = time.perf_counter() - start
    return result


def main(argv) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    seconds, workers = float(argv[1]), int(argv[2])
    start, done, last = time.perf_counter(), 0, 0.0
    while another_iteration(start, done, last, seconds):
        began = time.perf_counter()
        line = setup_sample(plan["setup_argv"])
        line["ops"] = {}
        for op in plan["ops"]:
            clear_outputs(op)
            result = run_op(op, workers)
            result["hashes"] = hash_outputs(op, Path(op["out"]))
            line["ops"][op["name"]] = result
        print(json.dumps(line), flush=True)
        done, last = done + 1, time.perf_counter() - began
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
