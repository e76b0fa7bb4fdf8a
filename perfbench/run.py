"""chemlevy benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
``--trace 0`` repeats the workload untraced for S seconds and reports the
end-to-end metrics. ``--trace 1`` repeats pairs of in-process runs, one
untraced and one with spans around every call into the program, and reports
the per-layer metrics. Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it
list every metric with its unit and sample count. ``--size tiny`` is for the
smoke test.

An operation is one CLI command or one library ensemble + verify call. It
fails when it crashes or exits with a status its workload does not allow,
when a path aborts, when a sweep row carries an error, when an output check
fails, or when a gated regime claim fails.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op_files, clear_outputs, hash_outputs
from libop import another_iteration, probe_sample, run_op, setup_sample, timed_process
from workloads import SIZES, WORKLOADS, generate, uniform_steps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
DEADLINE_S = 165.0      # a run must end within 180 s
# Median wall time of probe.py on the 2-vCPU machine baseline.json was measured
# on; see speed_scaled.
PROBE_REF_S = 0.42

# per-layer counts that must repeat exactly across the runs of a session
EXACT_COUNTS = ("integrator.mesh_points", "integrator.jump_events", "cli.csv_bytes",
                "thresholds.classify_calls", "integrator.pinned_coords",
                "harness.claims_passed")


class Run:
    """One benchmark run: its plan, deadline, and every operation's outcome."""

    def __init__(self, plan: dict, seconds: float):
        self.plan = plan
        self.seconds = seconds
        self.start = self.loop_start = time.perf_counter()
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.outcomes = []       # [op name, problems] per operation executed
        self.problems = []       # run-level problems (not tied to one operation)
        self.first_hashes = {}
        self.checked = set()     # operations whose files were fully checked
        self.samples = {"probe": [], "setup": [], "walls": [], "rates": []}
        self.extra = {}

    def remaining(self) -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.start))

    def record(self, name: str, problems: list) -> None:
        self.outcomes.append([name, list(problems)])

    def compare_hashes(self, hashes: dict, problems: list) -> None:
        """Same inputs must give the same bytes on every iteration of a run."""
        for key, digest in hashes.items():
            if self.first_hashes.setdefault(key, digest) != digest:
                problems.append(f"{key}: bytes differ from the first iteration")

    def cli(self, argv: list) -> list:
        """Run one CLI command in a fresh interpreter: [wall seconds, status, stderr]."""
        return timed_process([sys.executable, "-m", "chemlevy.cli", *argv],
                             cwd=ROOT, env=self.env, timeout=self.remaining())

    def take_references(self, refs: dict) -> None:
        """Keep a probe sample and a set-up sample (an operation), where present."""
        if "probe" in refs:
            probe, status, detail = refs["probe"]
            if status != 0:
                self.problems.append(f"speed probe: exit status {status}: {detail.strip()[-300:]}")
            self.samples["probe"].append(probe)
        if "setup" in refs:
            setup, status, detail = refs["setup"]
            self.record("thresholds", [] if status == 0 else
                        [f"thresholds: exit status {status}: {detail.strip()[-300:]}"])
            self.samples["setup"].append(setup)

    def judge(self, op: dict, status, detail: str, result: dict, check_files: bool = True) -> list:
        """Problems of one executed operation, given its status and outputs.

        The files of each operation are fully checked once per run; later
        executions must reproduce their bytes.
        """
        problems = []
        out = Path(op["out"])
        if op["kind"] == "regime":
            if "error" in result:
                problems.append(f"{op['name']}: raised {result['error'].strip().splitlines()[-1]}")
                return problems
            if result["regime"] != op["regime"]:
                problems.append(f"{op['name']}: regime {result['regime']}, expected {op['regime']}")
            if result["aborted"]:
                problems.append(f"{op['name']}: {result['aborted']} paths aborted")
            if op["claims_gate"] and not result["all_passed"]:
                problems.append(f"{op['name']}: a verify claim failed")
        else:
            allowed = (0, 1) if op["name"] == "sweep" else (0,)
            if status not in allowed:
                problems.append(f"{op['name']}: exit status {status}: {detail.strip()[-300:]}")
                return problems
        hashes = result.get("hashes") or hash_outputs(op, out)
        self.compare_hashes(hashes, problems)
        if check_files and op["name"] not in self.checked:
            self.checked.add(op["name"])
            found, facts = check_op_files(op, out)
            problems += found
            if "jumps" in facts and facts["jumps"] != op.get("events"):
                problems.append(f"{op['name']}: {facts['jumps']} jumps written, "
                                f"{op.get('events')} sampled")
            op["claims"] = facts.get("claims", (0, 0))
        return problems


def count_mesh(plan: dict) -> None:
    """Annotate every stochastic operation with its jump events and mesh steps.

    Mesh steps are uniform grid steps plus jump events, summed over paths.
    The jump schedule is the first draw of each path's stream, so it is
    sampled here without stepping any path; the traced run counts the same
    events at ``integrator.sample_jumps`` and the two must agree.
    """
    import numpy as np
    from chemlevy import crispify, load_model
    from chemlevy.integrator import derive_path_seed, sample_jumps

    for op in plan["ops"]:
        if op["name"] == "ode":
            continue
        model = load_model(op["model"])
        grid = op.get("p_grid", [op.get("p", 0.0)])
        if "paths" in op:
            seeds = [derive_path_seed(op["seed"], i) for i in range(op["paths"])]
        else:
            seeds = [op["seed"]]
        events = 0
        for p in grid:
            jumps = crispify(model, p).jumps
            for s in seeds:
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
                events += len(sample_jumps(jumps, op["t_end"], rng))
        op["events"] = events
        op["steps"] = uniform_steps(op["t_end"], op["dt"]) * len(seeds) * len(grid) + events


def untraced(run: Run, workers: int) -> None:
    """Repeat the workload for the run's seconds, collecting ``run.samples``.

    Each iteration is preceded by one set-up start and, for CLI workloads,
    by the speed probe; one more probe closes the last iteration.
    """
    plan = run.plan
    samples = run.samples
    if plan["ops"][0]["kind"] == "regime":
        plan_file = WORK / plan["workload"] / "plan.json"
        plan_file.write_text(json.dumps(plan), encoding="utf-8")
        cmd = [sys.executable, str(Path(__file__).with_name("libop.py")),
               str(plan_file), str(run.seconds), str(workers)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=run.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=run.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            run.problems.append("library runner timed out")
        iterations = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        if proc.returncode != 0 or not iterations:
            run.problems.append(f"library runner exit status {proc.returncode}: {stderr.strip()[-300:]}")
        for k, iteration in enumerate(iterations):
            run.take_references(iteration)
            results = iteration["ops"]
            for op in plan["ops"]:
                run.record(op["name"], run.judge(op, None, "", results[op["name"]],
                                                 check_files=k == len(iterations) - 1))
            samples["walls"].append(sum(r["wall"] for r in results.values()))
            samples["rates"].append(sum(op["steps"] for op in plan["ops"]) / samples["walls"][-1])
        return

    done, last = 0, 0.0
    while another_iteration(run.loop_start, done, last, run.seconds):
        started = time.perf_counter()
        kwargs = {"cwd": ROOT, "env": run.env, "timeout": run.remaining()}
        run.take_references({**probe_sample(**kwargs), **setup_sample(plan["setup_argv"], **kwargs)})
        wall, stepped, stepped_wall = 0.0, 0, 0.0
        for op in plan["ops"]:
            clear_outputs(op)
            t, status, detail = run.cli(op["argv"])
            run.record(op["name"], run.judge(op, status, detail, {}))
            wall += t
            if "steps" in op:
                stepped += op["steps"]
                stepped_wall += t
        samples["walls"].append(wall)
        samples["rates"].append(stepped / stepped_wall)
        done, last = done + 1, time.perf_counter() - started
    run.take_references(probe_sample(cwd=ROOT, env=run.env, timeout=run.remaining()))


def in_process(run: Run, tracer=None, workers: int = 1) -> float:
    """One in-process pass over the workload; returns its wall seconds.

    CLI operations go through ``chemlevy.cli.main(argv)``; with a tracer
    each operation is a root span named ``op:<name>``.
    """
    from chemlevy import cli

    wall = 0.0
    for op in run.plan["ops"]:
        span = tracer.span(f"op:{op['name']}") if tracer else contextlib.nullcontext()
        status, sink = None, io.StringIO()
        clear_outputs(op)
        start = time.perf_counter()
        with span:
            if op["kind"] == "regime":
                result = run_op(op, workers)
            else:
                result = {}
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        status = cli.main(op["argv"])
                    except SystemExit as exc:
                        status = exc.code
        wall += result.get("wall", time.perf_counter() - start)
        run.record(op["name"], run.judge(op, status, sink.getvalue(), result))
    return wall


def traced(run: Run, workers: int) -> dict:
    """Pairs of untraced and traced in-process passes for the run's seconds."""
    from tracing import Tracer, layer_metrics, patched

    samples, ratios, spans_out = {}, [], []
    last = 0.0
    while another_iteration(run.loop_start, len(ratios), last, run.seconds, minimum=1):
        started = time.perf_counter()
        # alternate which pass goes first, so warm-up cost does not bias the ratio
        tracer = Tracer()
        if len(ratios) % 2:
            with patched(tracer):
                wall_t = in_process(run, tracer)
            wall_u = in_process(run)
        else:
            wall_u = in_process(run)
            with patched(tracer):
                wall_t = in_process(run, tracer)
        metrics, problems = layer_metrics(tracer.spans)
        run.problems += problems
        ratios.append(wall_t / wall_u)
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
        if not spans_out:
            spans_out = [[s.name, s.start, s.end, s.parent, s.meta] for s in tracer.spans]
        last = time.perf_counter() - started

    layer = {}
    for name, values in samples.items():
        unit = values[0][1]
        if unit in ("count", "B"):  # counts are exact: every pass must agree
            if len({v for v, _, _ in values}) > 1:
                run.problems.append(f"{name} differs between traced passes: {[v for v, _, _ in values]}")
            value = values[0][0]
        else:
            value = statistics.median(v for v, _, _ in values)
        layer[name] = (value, unit, sum(n for _, _, n in values))
    layer["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio", len(ratios))

    if run.plan["ops"][0]["kind"] == "regime":
        # serial stepping work over the pooled ensemble wall, untraced
        pooled = 0.0
        for op in run.plan["ops"]:
            clear_outputs(op)
            result = run_op(op, workers)
            run.record(op["name"], run.judge(op, None, "", result))
            pooled += result.get("ensemble_s", float("nan"))
        sim_self = layer["integrator.simulate_self_s"][0]
        layer["harness.pool_efficiency"] = (sim_self / (workers * pooled), "ratio", len(run.plan["ops"]))
    else:
        layer["harness.pool_efficiency"] = (0.0, "ratio", 0)  # the CLI has no worker pool
    run.extra["spans"] = spans_out
    return layer


def speed_scaled(samples: dict) -> tuple:
    """End-to-end timings scaled to the reference machine speed, and the raw ones.

    On the shared 2-vCPU machine the baseline was measured on, the same work
    ran up to 1.7x slower from one minute to the next, and the probes run
    just before and after a CLI iteration slow down with it. So iteration k's
    times are multiplied, and its rate divided, by PROBE_REF_S over the mean
    of those two probes. The library workload has no probe and is not
    scaled: its iterations run in one long-lived process over a worker pool,
    which the single-process probe did not track (scaling widened its spread
    across ten runs from 5% to 10%). The raw medians are printed and kept in
    the report.
    """
    probe = samples["probe"]
    n = len(samples["walls"])
    scale = [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probe, probe[1:])] or [1.0] * n
    scaled = {
        "wall_s": (statistics.median(w * k for w, k in zip(samples["walls"], scale)), "s", n),
        "setup_s": (statistics.median(t * k for t, k in zip(samples["setup"], scale)), "s", n),
        "path_steps_per_s": (statistics.median(r / k for r, k in zip(samples["rates"], scale)), "1/s", n),
    }
    raw = {f"raw.{name}": (statistics.median(samples[key]), unit, len(samples[key]))
           for name, key, unit in (("wall_s", "walls", "s"), ("setup_s", "setup", "s"),
                                   ("path_steps_per_s", "rates", "1/s"), ("probe_s", "probe", "s"))
           if samples[key]}
    return scaled, raw


def inputs_digest(plan: dict) -> str:
    """Digest of the program (src/) and of everything the run feeds it."""
    h = hashlib.sha256(json.dumps(plan, sort_keys=True).encode())
    files = sorted(SRC.rglob("*.py")) + sorted(Path(plan["ops"][0]["model"]).parent.glob("*.json"))
    for path in files:
        h.update(str(path).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_session(run: Run, key: str, hashes: dict, counts: dict) -> None:
    """Outputs and exact counts must repeat across the runs of one session.

    A session is every run in this checkout with the same program and
    inputs (``key``); the first run's record is kept under .perfbench_out/.
    """
    ledger_file = WORK / "ledger.json"
    ledger = json.loads(ledger_file.read_text(encoding="utf-8")) if ledger_file.is_file() else {}
    entry = ledger.setdefault(key, {"hashes": {}, "counts": {}})
    for kind, now in (("hashes", hashes), ("counts", counts)):
        for name, value in now.items():
            if entry[kind].setdefault(name, value) != value:
                run.problems.append(f"{name} differs from an earlier run of this session")
    tmp = ledger_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(ledger_file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)

    if not (SRC / "chemlevy" / "__init__.py").is_file():
        print(f"error: no chemlevy package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chemlevy
    if SRC.resolve() not in Path(chemlevy.__file__).resolve().parents:
        print(f"error: chemlevy was imported from {chemlevy.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workers = min(2, os.cpu_count() or 1)
    plan = generate(args.workload, args.seed, args.size, WORK / args.workload)
    session = f"{args.workload}|{args.seed}|{args.size}|{inputs_digest(plan)[:16]}"
    run = Run(plan, args.seconds)
    count_mesh(plan)

    raw = {}
    if args.trace:
        run.loop_start = time.perf_counter()
        metrics = traced(run, workers)
        counts = {k: metrics[k][0] for k in EXACT_COUNTS}
    else:
        run.cli(plan["setup_argv"])  # warm-up: byte-compiles src/ once
        run.loop_start = time.perf_counter()
        untraced(run, workers)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics, raw = speed_scaled(run.samples)
        metrics["peak_rss_mb"] = (peak, "MB", 1)
        run.extra["samples"] = run.samples
        counts = {"integrator.mesh_points": sum(op.get("steps", 0) for op in plan["ops"]),
                  "integrator.jump_events": sum(op.get("events", 0) for op in plan["ops"]),
                  "cli.csv_bytes": sum(p.stat().st_size for op in plan["ops"]
                                       for p in Path(op["out"]).glob("*.csv")),
                  "harness.claims_passed": sum(op.get("claims", (0, 0))[0] for op in plan["ops"])}

    hashes = dict(run.first_hashes)
    check_session(run, session, hashes, counts)

    attempted = len(run.outcomes)
    failed = sum(1 for _, problems in run.outcomes if problems)
    correct = failed == 0 and not run.problems and attempted > 0

    for name, problems in run.outcomes:
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)
    for p in run.problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    print(f"  {'failed_frac':<32}{failed / max(attempted, 1):<16.6g}{'ratio':<8}n={attempted}")
    for name, (value, unit, n) in sorted(metrics.items()) + sorted(raw.items()):
        print(f"  {name:<32}{value:<16.6g}{unit:<8}n={n}")

    report = {"args": vars(args), "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
              "raw": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in raw.items()},
              "counts": counts, "hashes": hashes, "outcomes": run.outcomes,
              "problems": run.problems, **run.extra}
    report_file = WORK / args.workload / f"report-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
