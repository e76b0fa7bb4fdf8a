"""End-to-end CLI behavior: exit codes, printed output, and emitted CSV files."""

import ctypes
import json
import math
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chemlevy import _compiled, cli, harness
from chemlevy.cli import main
from conftest import SCHEMES, RecordingPool, run_fresh

MODELS = Path(__file__).resolve().parents[1] / "models"

EXTINCTION = {
    "S0": 1.0, "D": 0.5, "m1": 0.4, "delta1": 0.5, "sigma1": 0.1,
    "m2": 0.3, "delta2": 0.5, "sigma2": 0.1, "sigma3": 0.1,
}

PERSISTENCE = {
    "S0": 4.0, "D": 0.2, "m1": 1.0, "delta1": 0.5, "sigma1": 0.1,
    "m2": 0.6, "delta2": 0.5, "sigma2": 0.1, "sigma3": 0.1,
}

JUMPY = dict(PERSISTENCE, jumps=[
    {"weight": 0.5, "gamma1": -0.3, "gamma2": -0.3, "gamma3": -0.3},
    {"weight": 0.5, "gamma1": 0.5, "gamma2": 0.5, "gamma3": 0.5},
])

INTERVAL_MODEL = dict(EXTINCTION, m1=[0.3, 0.7])


def write_model(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_model(tmp_path, EXTINCTION)
    assert main(["validate", "--model", path]) == 0
    out = capsys.readouterr().out
    assert "gamma_gt_neg1" in out and "pass" in out


def test_validate_names_failing_check(tmp_path, capsys):
    bad = dict(EXTINCTION, jumps=[
        {"weight": 1.0, "gamma1": 0.0, "gamma2": 0.0, "gamma3": -1.0}])
    path = write_model(tmp_path, bad)
    assert main(["validate", "--model", path]) == 2
    captured = capsys.readouterr()
    assert "gamma_gt_neg1" in captured.err


def test_validate_rejects_infinite_parameter(tmp_path, capsys):
    path = write_model(tmp_path, dict(EXTINCTION, sigma1=float("inf")))
    assert main(["validate", "--model", path]) == 2
    assert "interval_endpoints_positive" in capsys.readouterr().err
    assert main(["simulate", "--model", path, "--p", "0", "--t-end", "1",
                 "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run" / "trajectory.csv").exists()


def test_invalid_model_blocks_other_commands(tmp_path, capsys):
    bad = dict(EXTINCTION, S0=-1.0)
    path = write_model(tmp_path, bad)
    assert main(["thresholds", "--model", path, "--p", "0.5"]) == 2
    assert "s0_positive" in capsys.readouterr().err


def test_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"S0": 1.0\n "D": 0.5}')
    assert main(["validate", "--model", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_too_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"


def test_missing_model_file(tmp_path, capsys):
    assert main(["validate", "--model", str(tmp_path / "nope.json")]) == 2


def test_thresholds_prints_report(tmp_path, capsys):
    path = write_model(tmp_path, PERSISTENCE)
    assert main(["thresholds", "--model", path, "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "beta2" in out and "R0s" in out and "R1s" in out
    assert "Persistent" in out
    assert "y_mean_lower_bound" in out


def test_thresholds_with_theta_and_csv(tmp_path, capsys):
    path = write_model(tmp_path, PERSISTENCE)
    out_dir = tmp_path / "out"
    assert main(["thresholds", "--model", path, "--p", "0.5",
                 "--theta", "3.0", "--out", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "moment_condition" in captured and "holds" in captured
    text = (out_dir / "thresholds.csv").read_text()
    assert text.startswith("p,S0,D,")
    assert "Persistent" in text
    # a bad order is refused before the report is printed or written
    for theta in ("1", "nan", "inf"):
        bad_dir = tmp_path / f"bad-{theta}"
        assert main(["thresholds", "--model", path, "--p", "0.5",
                     "--theta", theta, "--out", str(bad_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theta" in captured.err
        assert not bad_dir.exists()


def test_thresholds_p_out_of_range(tmp_path, capsys):
    path = write_model(tmp_path, PERSISTENCE)
    assert main(["thresholds", "--model", path, "--p", "1.5"]) == 2


README_VALIDATE = """\
s0_positive                   pass  S0=1.0
interval_endpoints_positive   pass  all interval endpoints > 0
weights_positive              pass  total rate 0
gamma_gt_neg1                 pass  all jump sizes > -1
jump_moment_bound             0.0
log_jump_bound_1              0.0
jump_lipschitz_1              0
log_jump_bound_2              0.0
jump_lipschitz_2              0
log_jump_bound_3              0.0
jump_lipschitz_3              0
"""

README_THRESHOLDS = """\
p                     0.5
S0                    4
D                     0.2
m1                    1
delta1                0.5
sigma1                0.1
m2                    0.6
delta2                0.5
sigma2                0.1
sigma3                0.1
beta1                 0.005
beta2                 0.005
beta3                 0.005
R0s                   19.51219512
R1s                   4.502814259
regime                Persistent
predictions:
  y_mean_lower_bound  0.5983974359
moment_condition      holds (theta=3, sigma_sq=0.01, zeta=0, lhs=0.19)
"""

README_SWEEP = """\
p                  R0s         R1s  regime
0             0.520061    0.172606  BothExtinct
0.25          0.641742    0.184197  BothExtinct
0.5           0.790979    0.194744  BothExtinct
0.75          0.972985    0.204146  BothExtinct
1               1.1928    0.212356  PreyOnlyPersists
wrote {out}/sweep.csv
"""


def test_readme_threshold_commands_print_what_they_always_printed(tmp_path, capsys):
    """The README's numpy-free commands, their stdout pinned verbatim."""
    out = tmp_path / "sweep"
    runs = [
        (["validate", "--model", str(MODELS / "extinction.json")], README_VALIDATE),
        (["thresholds", "--model", str(MODELS / "persistence.json"), "--p", "0.5",
          "--theta", "3"], README_THRESHOLDS),
        (["sweep", "--model", str(MODELS / "imprecise_jumps.json"),
          "--p-grid", "0,0.25,0.5,0.75,1", "--out", str(out)], README_SWEEP.format(out=out)),
    ]
    for argv, expected in runs:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")


def test_threshold_commands_never_load_numpy(tmp_path):
    """A fresh import chemlevy, validate, thresholds and a threshold-only
    sweep load neither numpy nor ctypes, never execute the integrator, the
    harness or the compiled library's module, and never touch the compiled
    kernel's cache."""
    models = sorted(str(p) for p in MODELS.glob("*.json"))
    thr, swp = str(tmp_path / "thr"), str(tmp_path / "swp")
    cache = str(tmp_path / "cache")
    code = f"""
import os
import sys
os.environ["XDG_CACHE_HOME"] = {cache!r}

def loaded():
    # a module absent from sys.modules has neither loaded nor run
    engine = [m for m in ("chemlevy.integrator", "chemlevy.harness", "chemlevy._compiled")
              if m in sys.modules]
    return sorted(m for m in sys.modules if m.startswith("numpy.") or m == "ctypes") + engine

import chemlevy
print(loaded())
from chemlevy.cli import main
for path in {models!r}:
    assert main(["validate", "--model", path]) == 0
    assert main(["thresholds", "--model", path, "--p", "0.5", "--theta", "3",
                 "--out", {thr!r}]) == 0
    assert main(["sweep", "--model", path, "--p-grid", "0,0.5,1", "--out", {swp!r}]) == 0
print(loaded())
chemlevy.harness.ensemble
print(loaded())
"""
    assert models
    lines = run_fresh(code).splitlines()
    assert (lines[0], lines[-2]) == ("[]", "[]")
    # the check sees the engine once it has run
    assert {"'chemlevy.integrator'", "'chemlevy.harness'"} <= set(lines[-1][1:-1].split(", "))
    assert not os.path.exists(cache)


def test_path_commands_load_only_the_engine_they_run(tmp_path):
    """A fresh thresholds and ode load no numpy.random, which only jump and
    noise sampling needs, and simulate (either scheme) and ode never run the
    harness; the same check sees both once they are loaded."""
    model = str(MODELS / "imprecise_jumps.json")
    path = ["--model", model, "--p", "0.5", "--t-end", "2"]
    runs = [["thresholds", "--model", model, "--p", "0.5"],
            ["ode", *path, "--out", str(tmp_path / "ode")],
            ["simulate", *path, "--out", str(tmp_path / "sim")],
            ["simulate", "--scheme", "direct_euler", *path, "--out", str(tmp_path / "direct")]]
    code = f"""
import sys
import chemlevy
from chemlevy.cli import main

def loaded():
    return [m for m in ("numpy.random", "chemlevy.harness") if m in sys.modules]

for argv in {runs!r}:
    assert main(argv) == 0, argv
    print(loaded())
chemlevy.harness
print(loaded())
"""
    lines = [line for line in run_fresh(code).splitlines() if line.startswith("[")]
    assert lines == ["[]", "[]", "['numpy.random']", "['numpy.random']",
                     "['numpy.random', 'chemlevy.harness']"]


def test_commands_without_a_pool_never_load_the_pool_modules(tmp_path):
    """A fresh import chemlevy, validate, thresholds, a threshold-only
    sweep, simulate and ode load neither multiprocessing nor
    concurrent.futures, and nor do a pilot-size ensemble and verify, or a
    library ensemble and p_sweep, on two workers, whose pool forks its
    workers itself; the same check sees them once ProcessPoolExecutor is
    looked up.  No run loads numpy.ma, which np.median and np.percentile
    import, and once the compiled library is cached no run loads
    subprocess, which only its build needs."""
    model = str(MODELS / "imprecise_jumps.json")
    runs = [["validate", "--model", model],
            ["thresholds", "--model", model, "--p", "0.5", "--out", str(tmp_path / "thr")],
            ["sweep", "--model", model, "--p-grid", "0,0.5,1", "--out", str(tmp_path / "swp")],
            ["simulate", "--model", model, "--p", "0.5", "--t-end", "2", "--out",
             str(tmp_path / "sim")],
            ["simulate", "--scheme", "direct_euler", "--model", model, "--p", "0.5", "--t-end", "2",
             "--out", str(tmp_path / "direct")],
            ["ode", "--model", model, "--p", "0.5", "--t-end", "2", "--out", str(tmp_path / "ode")],
            ["ensemble", "--model", model, "--p", "0.5", "--t-end", "2", "--paths", "4",
             "--out", str(tmp_path / "ens")],
            ["verify", "--model", str(MODELS / "extinction.json"), "--p", "0.5", "--t-end", "500",
             "--dt", "0.5", "--paths", "4", "--out", str(tmp_path / "ver")]]
    # the library, built here if it must be, so that the runs below load it from the cache
    watched = ("multiprocessing", "concurrent", "numpy.ma")
    if _compiled.float_rows() is not None:
        watched += ("subprocess",)
    code = f"""
import sys
import chemlevy
from chemlevy.cli import main

def watched_modules():
    return sorted(m for m in sys.modules
                  if any(m == w or m.startswith(w + ".") for w in {watched!r}))

print(watched_modules())
for argv in {runs!r}:
    assert main(argv) == 0, argv
    print(watched_modules())
model = chemlevy.load_model({model!r})
config = chemlevy.SimConfig(initial=chemlevy.State(1.0, 0.5, 0.2), t_end=500.0, dt=0.1)
assert not chemlevy.ensemble(chemlevy.crispify(model, 0.5), config, 4, workers=2).aborted
print(watched_modules())
rows = chemlevy.p_sweep(model, [0.0, 1.0], config, 4, workers=2)
assert [row.verdict is not None for row in rows] == [True, True], rows
print(watched_modules())
import numpy
numpy.median([1.0, 2.0])
print(watched_modules())
import concurrent.futures
concurrent.futures.ProcessPoolExecutor
print(bool(watched_modules()))
"""
    lines = run_fresh(code).splitlines()
    assert lines[-1] == "True"
    assert lines[-2].startswith("['numpy.ma'")
    assert [line for line in lines[:-2] if line.startswith("[")] == ["[]"] * (len(runs) + 3)


def test_entrypoint_starts_one_blas_thread_unless_told_otherwise(monkeypatch):
    """entrypoint() sets OPENBLAS_NUM_THREADS to 1 before main runs where it
    is unset, and leaves a user's own count alone."""
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")))
    for environ in ({}, {"OPENBLAS_NUM_THREADS": "4"}):
        monkeypatch.setattr(os, "environ", environ)
        with pytest.raises(SystemExit):
            cli.entrypoint()
    assert seen == ["1", "4"]


def test_simulate_writes_trajectory(tmp_path, capsys):
    path = write_model(tmp_path, JUMPY)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--model", path, "--p", "0.5", "--t-end", "20",
                 "--dt", "0.01", "--seed", "9", "--out", str(out_dir)]) == 0
    header = (out_dir / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,S,x,y,meanS,meanx,meany,lnx_over_t,lny_over_t,phi"
    assert (out_dir / "jumps.csv").exists()
    jump_header = (out_dir / "jumps.csv").read_text().splitlines()[0]
    assert jump_header == "t,mark"


def test_simulate_rerun_is_byte_identical(tmp_path):
    path = write_model(tmp_path, JUMPY)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["simulate", "--model", path, "--p", "0.25", "--t-end", "20",
                     "--dt", "0.01", "--seed", "33", "--out", str(d)]) == 0
    assert (dirs[0] / "trajectory.csv").read_bytes() \
        == (dirs[1] / "trajectory.csv").read_bytes()
    assert (dirs[0] / "jumps.csv").read_bytes() == (dirs[1] / "jumps.csv").read_bytes()


def test_simulate_direct_scheme_flag(tmp_path):
    path = write_model(tmp_path, PERSISTENCE)
    out_dir = tmp_path / "direct"
    assert main(["simulate", "--model", path, "--p", "0.5", "--t-end", "10",
                 "--dt", "0.005", "--seed", "2", "--scheme", "direct_euler",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory.csv").exists()


def test_simulate_default_out_is_cwd(tmp_path, monkeypatch):
    path = write_model(tmp_path, PERSISTENCE)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--model", path, "--p", "0.5", "--t-end", "10",
                 "--dt", "0.01", "--seed", "4"]) == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_ode_writes_trajectory(tmp_path):
    path = write_model(tmp_path, PERSISTENCE)
    out_dir = tmp_path / "ode"
    assert main(["ode", "--model", path, "--p", "0.5", "--t-end", "20",
                 "--dt", "0.01", "--initial", "1.0,0.5,0.2",
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert len(lines) > 10
    assert not (out_dir / "jumps.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "ode"])
def test_a_jump_free_path_removes_an_earlier_runs_jumps_csv(tmp_path, capsys, command):
    """A jump-free simulate, or an ode, into the --out of a simulate with
    jumps leaves no jumps.csv there, and prints and writes what it does in a
    fresh directory."""
    jumpy = write_model(tmp_path, JUMPY, "jumpy.json")
    run = ["--p", "0.5", "--t-end", "20", "--out", str(tmp_path / "run")]
    assert main(["simulate", "--model", jumpy, *run]) == 0
    assert (tmp_path / "run" / "jumps.csv").exists()
    capsys.readouterr()
    argv = [command, "--model", write_model(tmp_path, PERSISTENCE), "--p", "0.5", "--t-end", "20"]
    got = run_outputs(argv, tmp_path / "run", capsys)
    assert got == run_outputs(argv, tmp_path / "fresh", capsys)
    assert list(got[3]) == ["trajectory.csv"] and "(0 jumps)" in got[1]


def test_ensemble_outputs(tmp_path, capsys):
    path = write_model(tmp_path, EXTINCTION)
    out_dir = tmp_path / "ens"
    assert main(["ensemble", "--model", path, "--p", "0.5", "--t-end", "50",
                 "--dt", "0.02", "--seed", "6", "--paths", "5",
                 "--out", str(out_dir)]) == 0
    summary = (out_dir / "ensemble_summary.csv").read_text().splitlines()
    assert summary[0].startswith("t,S_mean,S_p5,S_p50,S_p95,")
    assert summary[0].endswith("extinct_x_frac,extinct_y_frac")
    # at t=0 every path starts alike, and its rates are 0/0
    first = dict(zip(summary[0].split(","), summary[1].split(",")))
    rates = [v for k, v in first.items() if k.startswith(("lnx_over_t_", "lny_over_t_"))]
    assert rates == ["nan"] * 8
    assert first["S_p5"] == first["S_p50"] == first["S_p95"]
    terminal = (out_dir / "ensemble_terminal.csv").read_text().splitlines()
    assert len(terminal) == 6  # header + one row per path
    assert "terminal medians" in capsys.readouterr().out


# S settles at D S0 / c1 = 1e307 / (1 + 0.04e6), about 2.5e302, below the
# ceiling of exp(700), and a jump multiplies it by 1 + 1e6, past exp's range
EXP_OVERFLOW = {"S0": 1e307, "D": 1.0, "m1": 1e-307, "delta1": 1.0, "sigma1": 1e-9,
                "m2": 0.3, "delta2": 0.5, "sigma2": 0.1, "sigma3": 0.1,
                "jumps": [{"weight": 0.04, "gamma1": 1e6, "gamma2": 0.0, "gamma3": 0.0}]}
EXP_OVERFLOW_RUN = ["--p", "0.5", "--t-end", "1", "--dt", "1e-5", "--initial", "1e303,1,1",
                    "--stride", "100000"]


def test_a_jump_past_exps_range_fails_simulate_without_a_traceback(tmp_path, capsys):
    """Seed 106 jumps once, at t=0.122787: the path aborts there as a
    log-state overflow, and simulate says so and exits 1."""
    path = write_model(tmp_path, EXP_OVERFLOW)
    assert main(["simulate", "--model", path, *EXP_OVERFLOW_RUN, "--seed", "106",
                 "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "simulation failed: log-state overflow at t=0.122787\n")


def _overflow_ensemble(tmp_path, name):
    """Run the 20-path EXP_OVERFLOW ensemble at seed 2 into tmp_path/name;
    return its exit status and its two CSV files' bytes."""
    path = write_model(tmp_path, EXP_OVERFLOW)
    out_dir = tmp_path / name
    code = main(["ensemble", "--model", path, *EXP_OVERFLOW_RUN, "--seed", "2",
                 "--paths", "20", "--out", str(out_dir)])
    return code, [(out_dir / f).read_bytes()
                  for f in ("ensemble_summary.csv", "ensemble_terminal.csv")]


@pytest.mark.parametrize("pool", ["serial", "recording", "forked"])
def test_a_jump_past_exps_range_aborts_an_ensemble_path(tmp_path, capsys, monkeypatch, pool):
    """Of 20 paths at seed 2, path 13 jumps: it is counted as aborted and
    left out of the terminal rows, and the ensemble runs on.  Its summary,
    reduced over the surviving rows of the record block, has the same bytes
    whether that block is in memory (one worker) or a file two workers
    wrote, in one process or in two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = _overflow_ensemble(tmp_path, "serial")
    capsys.readouterr()
    if pool != "serial":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    if pool == "recording":
        monkeypatch.setattr(harness, "_pool", RecordingPool)
    code, files = _overflow_ensemble(tmp_path, "ens")
    assert RecordingPool.sizes == ([2] if pool == "recording" else [])
    assert (code, files) == serial
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("20 paths to t=1 (1 aborted)\n")
    assert captured.err == ""
    rows = files[1].decode().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [i for i in range(20) if i != 13]


def test_verify_extinction_passes(tmp_path, capsys):
    path = write_model(tmp_path, EXTINCTION)
    out_dir = tmp_path / "ver"
    code = main(["verify", "--model", path, "--p", "0.5", "--t-end", "500",
                 "--dt", "0.02", "--seed", "31", "--paths", "20",
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "x_lyapunov_bound" in captured.out
    assert "PASS" in captured.out
    verdict = (out_dir / "verdict.csv").read_text()
    assert "False" not in verdict


def test_verify_exit_one_on_claim_failure(tmp_path, capsys):
    path = write_model(tmp_path, EXTINCTION)
    out_dir = tmp_path / "verfail"
    # with zero relative slack the two-sided S_mean_limit claim needs the
    # finite-horizon time average to hit its limit exactly, so it fails
    code = main(["verify", "--model", path, "--p", "0.5", "--t-end", "500",
                 "--dt", "0.02", "--seed", "31", "--paths", "10",
                 "--tol-mean", "0", "--out", str(out_dir)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_refuses_short_horizon(tmp_path, capsys, monkeypatch):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("simulated before refusing the horizon")

    monkeypatch.setattr(harness, "ensemble", no_ensemble)
    path = write_model(tmp_path, EXTINCTION)
    code = main(["verify", "--model", path, "--p", "0.5", "--t-end", "100",
                 "--dt", "0.02", "--seed", "1", "--paths", "4",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "horizon 100.0 is below min_horizon 500.0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


MONTE_CARLO = {
    "ensemble": ["ensemble", "--p", "0.5", "--t-end", "50", "--dt", "0.02",
                 "--seed", "6", "--paths", "5"],
    "verify": ["verify", "--p", "1", "--t-end", "500", "--dt", "0.05",
               "--seed", "31", "--paths", "4"],
    "sweep": ["sweep", "--p-grid", "0,1", "--paths", "3", "--t-end", "500",
              "--dt", "0.05", "--seed", "5"],
}


@pytest.mark.parametrize("command", sorted(MONTE_CARLO))
def test_monte_carlo_output_does_not_depend_on_cpu_count(tmp_path, capsys, monkeypatch,
                                                         command):
    path = write_model(tmp_path, JUMPY if command == "ensemble" else INTERVAL_MODEL)
    out = tmp_path / "out"

    def run():
        code = main(MONTE_CARLO[command] + ["--model", path, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        shutil.rmtree(out)
        return code, capsys.readouterr(), files

    pooled = run()  # every CPU of the affinity mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._workers() == 1
    assert run() == pooled


@pytest.mark.parametrize("affinity, cpu_count, pools", [
    ({0}, None, []), (set(range(64)), None, [3]), (None, 64, [3]), (None, None, [])],
    ids=["one-cpu", "many-cpus", "no-affinity-call", "no-cpu-count"])
def test_monte_carlo_pool_follows_affinity(tmp_path, monkeypatch, affinity, cpu_count, pools):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    path = write_model(tmp_path, EXTINCTION)
    assert main(["ensemble", "--model", path, "--p", "0.5", "--t-end", "2", "--dt", "0.02",
                 "--paths", "3", "--out", str(tmp_path)]) == 0
    assert RecordingPool.sizes == pools


# a path with jumps, pins and records at an odd stride, a pooled ensemble,
# and the two linear-space kernels' trajectories at stride 1: each on its
# scheme's compiled kernel and on its Python step loop
KERNEL_RUNS = [
    ["simulate", "--model", str(MODELS / "imprecise_jumps.json"), "--p", "0.5",
     "--t-end", "50", "--stride", "7"],
    ["ensemble", "--model", str(MODELS / "imprecise_jumps.json"), "--p", "0.5",
     "--t-end", "20", "--stride", "3", "--paths", "6"],
    ["ode", "--model", str(MODELS / "persistence.json"), "--p", "0.5",
     "--t-end", "20", "--stride", "1"],
    ["simulate", "--scheme", "direct_euler", "--model", str(MODELS / "imprecise_jumps.json"),
     "--p", "0.5", "--t-end", "20", "--stride", "1"],
]


def run_outputs(argv, out, capsys):
    """Exit status, stdout and stderr (with out's name masked) and every
    output file of one in-process command."""
    status = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    return status, captured.out.replace(str(out), "OUT"), captured.err, files


@pytest.mark.parametrize("failure", ["no compiler", "unwritable cache", "loader raises"])
def test_a_kernel_that_cannot_be_had_gives_the_same_bytes(tmp_path, capsys, monkeypatch,
                                                          request, compiled, failure):
    """Without a compiler, with a cache that cannot be written, or with a
    library that does not load, the commands run every scheme (log-Euler,
    direct Euler and RK4) on its Python kernel and write their number
    tables through repr instead of the compiled formatter: the same files
    and the same printout, and nothing said about it."""
    assert _compiled.float_rows() is not None
    want = [run_outputs(argv, tmp_path / f"want{k}", capsys)
            for k, argv in enumerate(KERNEL_RUNS)]
    cache = tmp_path / "cache"
    if failure == "no compiler":
        config_var = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: "no-such-cc -pthread" if name == "CC" else config_var(name))
    elif failure == "unwritable cache":
        cache.write_text("")              # a file where a directory must go
    else:
        def no_library(*args, **kwargs):
            raise OSError("cannot load the library")
        monkeypatch.setattr(ctypes, "CDLL", no_library)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    _compiled._library.cache_clear()
    request.addfinalizer(_compiled._library.cache_clear)
    got = [run_outputs(argv, tmp_path / f"got{k}", capsys) for k, argv in enumerate(KERNEL_RUNS)]
    assert all(_compiled.window(scheme) is None for scheme in SCHEMES)
    assert _compiled.float_rows() is None
    assert got == want
    assert [status for status, *_ in got] == [0] * len(KERNEL_RUNS)
    assert all(err == "" for _, _, err, _ in got)


@pytest.mark.parametrize("variable", ["XDG_CACHE_HOME", "HOME"])
def test_two_fresh_processes_build_one_kernel_in_an_empty_cache(tmp_path, compiled, variable):
    """Two processes that start at once on one empty cache both build the
    kernel, both exit 0 with the same outputs, and leave one library."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("XDG_CACHE_HOME", None)
    env[variable] = str(tmp_path / "home")
    cache = tmp_path / "home" / ("chemlevy" if variable == "XDG_CACHE_HOME" else ".cache/chemlevy")
    runs = [subprocess.Popen([sys.executable, "-m", "chemlevy.cli", *KERNEL_RUNS[1],
                              "--out", str(tmp_path / f"run{k}")], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for k in range(2)]
    printed = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], printed
    assert printed[0][0].replace("run0", "run1") == printed[1][0]
    assert printed[0][1] == printed[1][1] == ""
    assert [(f.name, f.read_bytes()) for f in sorted((tmp_path / "run0").iterdir())] \
        == [(f.name, f.read_bytes()) for f in sorted((tmp_path / "run1").iterdir())]
    assert len([f.name for f in cache.iterdir()]) == 1
    assert next(cache.iterdir()).name.endswith(".so")


def _package_copy(tmp_path):
    """A copy of the package's sources in tmp_path, and a function that loads
    its library in a fresh process, cached in tmp_path/cache, and returns the
    cache's files as (name, inode, mtime)."""
    package = tmp_path / "src" / "chemlevy"
    shutil.copytree(Path(cli.__file__).resolve().parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"), XDG_CACHE_HOME=str(cache))
    code = "from chemlevy import _compiled; print(_compiled.__file__, _compiled.float_rows())"

    def load():
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.startswith(f"{package / '_compiled.py'} <function"), done.stdout
        return [(f.name, f.stat().st_ino, f.stat().st_mtime_ns)
                for f in (cache / "chemlevy").iterdir()]

    return package, load


def test_a_comment_edit_of_the_library_module_reuses_the_cached_library(tmp_path, compiled):
    """The cache is keyed by what the compiler reads, not by _compiled.py's
    text: a new comment there loads the same cached file."""
    package, load = _package_copy(tmp_path)
    cached = load()
    module = package / "_compiled.py"
    module.write_text("# a comment the compiler never reads\n" + module.read_text())
    assert load() == cached and len(cached) == 1


def test_an_edit_of_a_c_source_rebuilds_and_leaves_one_library(tmp_path, compiled):
    """An edit of _window.c builds a new library, which replaces the old one
    in the cache."""
    package, load = _package_copy(tmp_path)
    ((old, *_),) = load()
    source = package / "_window.c"
    source.write_text(source.read_text() + "/* an edit */\n")
    ((new, *_),) = load()
    assert new != old and new.startswith("chemlevy-") and new.endswith(".so")


@pytest.mark.parametrize("flag, value", [("--t-end", "inf"), ("--t-end", "nan"),
                                         ("--dt", "inf"), ("--dt", "nan")])
def test_simulate_non_finite_horizon_is_usage_error(tmp_path, capsys, flag, value):
    path = write_model(tmp_path, EXTINCTION)
    argv = ["simulate", "--model", path, "--p", "0", "--out", str(tmp_path), flag, value]
    assert main(argv) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--t-end", "1e300", "--dt", "1e-10"], "cap"),
    (["simulate", "--t-end", "10", "--dt", "1e-320"], "cap"),
    # ln c/t past the float maximum at the first grid point
    (["simulate", "--t-end", "1e-320", "--dt", "1e-321"], "grid step"),
    (["simulate", "--initial", "inf,1,1"], "finite"),
    (["ode", "--initial", "nan,1,1"], "finite"),
    # record blocks of 7.2 GB, 7.2 GB and 28.8 GB, refused before they are allocated
    (["simulate", "--t-end", "1e6", "--dt", "0.01", "--stride", "1"], "path-records"),
    (["ode", "--t-end", "1e6", "--dt", "0.01", "--stride", "1"], "path-records"),
    (["ensemble", "--t-end", "20000", "--dt", "0.01", "--stride", "1", "--paths", "200"],
     "path-records"),
], ids=["huge-t-end", "subnormal-dt", "subnormal-grid-step", "simulate-inf-initial",
        "ode-nan-initial", "simulate-record-block", "ode-record-block", "ensemble-record-block"])
def test_unbounded_mesh_or_non_finite_initial_is_usage_error(tmp_path, capsys, argv, message):
    path = write_model(tmp_path, EXTINCTION)
    assert main(argv + ["--model", path, "--p", "0", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_tiny_grid_step_above_the_overflow_bound_runs(tmp_path, capsys):
    """A grid step of 1e-301 is above 745/DBL_MAX: the path runs, and every
    number it records is finite but ln x/t and ln y/t at t=0."""
    path = write_model(tmp_path, PERSISTENCE)
    assert main(["simulate", "--model", path, "--p", "0", "--t-end", "1e-300",
                 "--dt", "1e-301", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    cells = [float(c) for row in rows for c in row.split(",")]
    assert sum(not math.isfinite(c) for c in cells) == 2


@pytest.mark.parametrize("flag", ["--tol-mean", "--tol-rate"])
def test_verify_negative_tolerance_is_usage_error(tmp_path, capsys, flag):
    path = write_model(tmp_path, EXTINCTION)
    argv = ["verify", "--model", path, "--p", "0", "--t-end", "600", "--dt", "0.5",
            "--paths", "2", "--out", str(tmp_path), flag, "-1"]
    assert main(argv) == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "verdict.csv").exists()


def test_sweep_thresholds_only(tmp_path, capsys):
    path = write_model(tmp_path, INTERVAL_MODEL)
    out_dir = tmp_path / "swp"
    assert main(["sweep", "--model", path, "--p-grid", "0,0.25,0.5,0.75,1",
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("p,S0,D,m1,")
    out = capsys.readouterr().out
    assert "BothExtinct" in out


def test_sweep_printout_keeps_a_gap_between_wide_numbers(tmp_path, capsys):
    # S0 = 1e-300 gives R0s and R1s twelve characters wide, e.g. 2.44469e-301
    path = write_model(tmp_path, dict(EXTINCTION, S0=1e-300))
    assert main(["sweep", "--model", path, "--p-grid", "0", "--out", str(tmp_path)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    p, r0s, r1s, regime = row.split()
    assert len(r0s) == len(r1s) == 12
    assert float(r0s) == pytest.approx(1e-300 * 0.4 / 0.505, rel=1e-5)
    assert regime == "BothExtinct"
    # a narrower value keeps its old place: right-aligned in 12 columns
    path = write_model(tmp_path, INTERVAL_MODEL)
    assert main(["sweep", "--model", path, "--p-grid", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "p                  R0s         R1s  regime",
        "0             0.594059     0.19802  BothExtinct"]


def test_sweep_with_paths_and_exit_code(tmp_path):
    path = write_model(tmp_path, INTERVAL_MODEL)
    out_dir = tmp_path / "swp2"
    assert main(["sweep", "--model", path, "--p-grid", "0,1", "--paths", "3",
                 "--t-end", "500", "--dt", "0.02", "--seed", "5",
                 "--out", str(out_dir)]) in (0, 1)
    text = (out_dir / "sweep.csv").read_text()
    assert "True" in text or "False" in text


@pytest.mark.parametrize("flags, message", [
    (["--t-end", "100"], "horizon 100.0 is below min_horizon 500.0"),
    (["--dt", "0"], "dt must lie in (0, t_end)"),
    (["--t-end", "1e300", "--dt", "1e-10"], "above the cap of 1e+08 mesh steps"),
    (["--p-grid", ","], "p_grid must be nonempty")],
    ids=["short-horizon", "zero-dt", "huge-mesh", "empty-grid"])
def test_sweep_refuses_a_bad_run_before_simulating(tmp_path, capsys, monkeypatch,
                                                   flags, message):
    monkeypatch.setattr(harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    path = write_model(tmp_path, INTERVAL_MODEL)
    out_dir = tmp_path / "swp"
    assert main(["sweep", "--model", path, "--p-grid", "0,1", "--paths", "3",
                 "--out", str(out_dir)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()
    assert RecordingPool.sizes == []


def test_unknown_flag_is_an_error(tmp_path):
    path = write_model(tmp_path, EXTINCTION)
    with pytest.raises(SystemExit) as info:
        main(["thresholds", "--model", path, "--p", "0.5", "--bogus", "1"])
    assert info.value.code == 2


def test_bad_initial_arity_is_usage_error(tmp_path):
    path = write_model(tmp_path, EXTINCTION)
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--model", path, "--p", "0.5", "--initial", "1.0,2.0"])
    assert info.value.code == 2


def test_negative_seed_is_usage_error(tmp_path):
    path = write_model(tmp_path, EXTINCTION)
    with pytest.raises(SystemExit) as info:
        main(["ensemble", "--model", path, "--p", "0.5", "--seed", "-3"])
    assert info.value.code == 2


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for name in ("validate", "thresholds", "simulate", "ode", "ensemble",
                 "verify", "sweep"):
        assert name in out
    # a flag more than one command takes has the same help in each, but
    # sweep's --paths, whose 0 means thresholds only
    helps = {}
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, command in commands.choices.items():
        for action in command._actions[1:]:
            if (name, action.dest) != ("sweep", "paths"):
                helps.setdefault(action.option_strings[0], {})[name] = action.help
    shared = {flag: set(by.values()) for flag, by in helps.items() if len(by) > 1}
    assert {"--model", "--p", "--t-end", "--dt", "--initial", "--stride", "--seed",
            "--paths"} <= shared.keys()
    for flag, texts in shared.items():
        assert len(texts) == 1 and None not in texts, (flag, texts)


def _finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


_TEXT = st.text(max_size=8)
# text that is no finite number, so it cannot lengthen a run
_JUNK = _TEXT.filter(lambda s: not _finite_number(s)) | st.sampled_from(["nan", "inf", "1e999"])
_ANY = st.floats().map(repr) | st.integers().map(str) | _TEXT


def _floats(*strategies):
    return st.one_of(*strategies).map(repr)


# flag -> (a value of the flag's type and range, any value).  t_end <= 2
# with dt >= 0.01 (the default), at most 3 paths and at most 3 p values: a
# run takes at most 1,800 path-steps.
_FLAG_VALUES = {
    "--model": (st.sampled_from(sorted(str(p) for p in MODELS.glob("*.json"))),
                st.sampled_from(["missing.json", "."])),
    "--out": (st.just("out"), st.sampled_from(["", str(MODELS / "extinction.json" / "out")])),
    "--p": (_floats(st.floats(0.0, 1.0)), _ANY),
    "--p-grid": (st.lists(_floats(st.floats(0.0, 1.0)), min_size=1, max_size=3).map(",".join),
                 st.lists(_ANY, max_size=3).map(",".join)),
    "--theta": (_floats(st.floats(2.0, exclude_min=True, allow_infinity=False)), _ANY),
    "--t-end": (_floats(st.floats(0.5, 2.0)), _floats(st.floats(max_value=2.0)) | _JUNK),
    "--dt": (_floats(st.floats(0.05, 0.5)),
             _floats(st.floats(max_value=0.0), st.floats(min_value=0.05)) | _JUNK),
    "--paths": (st.integers(1, 3).map(str), st.integers(max_value=3).map(str) | _JUNK),
    "--initial": (st.lists(_floats(st.floats(0.0, exclude_min=True, allow_infinity=False)),
                           min_size=3, max_size=3).map(",".join),
                  st.lists(_ANY, max_size=4).map(",".join)),
    "--stride": (st.integers(1, 10**6).map(str), st.integers().map(str) | _TEXT),
    "--seed": (st.integers(0, 2**128).map(str), st.integers().map(str) | _TEXT),
    "--scheme": (st.sampled_from(["log_euler", "direct_euler"]), _TEXT),
    "--tol-rate": (_floats(st.floats(0.0, 1.0)), _ANY),
    "--tol-mean": (_floats(st.floats(0.0, 1.0)), _ANY),
}
_SIM = ("--out", "--dt", "--initial", "--stride")
# command -> (flags always given, flags that may be given); --t-end and
# --paths are always given because their defaults make long runs
_COMMANDS = {
    "validate": ((), ()),
    "thresholds": (("--p",), ("--out", "--theta")),
    "simulate": (("--p", "--t-end"), _SIM + ("--seed", "--scheme")),
    "ode": (("--p", "--t-end"), _SIM),
    "ensemble": (("--p", "--t-end", "--paths"), _SIM + ("--seed",)),
    "verify": (("--p", "--t-end", "--paths"), _SIM + ("--seed", "--tol-rate", "--tol-mean")),
    "sweep": (("--p-grid", "--t-end", "--paths"), _SIM + ("--seed", "--tol-rate", "--tol-mean")),
}


@st.composite
def _argv(draw):
    """A command with its flags: at most two of them take any value, the
    rest a value of their type and range, so most argvs reach the command."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    given_flags, optional = _COMMANDS[command]
    given_flags = ("--model",) + given_flags
    flags = given_flags + tuple(f for f in optional if draw(st.booleans()))
    wild = draw(st.sets(st.sampled_from(flags), max_size=2))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(_FLAG_VALUES[flag][flag in wild])]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
# a stride too large for int64, which st.integers() practically never draws
@example(["simulate", "--model", str(MODELS / "persistence.json"), "--p", "0.5",
          "--t-end", "1", "--stride", "9223372036854775808"])
@example(["ensemble", "--model", str(MODELS / "persistence.json"), "--p", "0.5",
          "--t-end", "1", "--paths", "2", "--stride", "9223372036854775808"])
# a budget y/(delta1 delta2) past the float maximum, which must be inf without a warning
@example(["ode", "--model", str(MODELS / "extinction.json"), "--p", "0", "--t-end", "1",
          "--initial", "1,5e-324,4.49423283715579e307"])
def test_any_argv_exits_0_1_or_2(tmp_path, monkeypatch, argv):
    """cli.main returns 0, 1 or 2, or argparse exits 2: never a traceback."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
        assert code == 2
    assert code in (0, 1, 2)
