"""Seeded workload generator.

From a seed, each workload writes its model JSON files and derives the run
seeds of its operations. The program only ever sees those files and CLI
flags (or, for the library workload, the same files and a ``SimConfig``).

An operation is one CLI command or one library ``ensemble`` + ``verify``
call. Every operation names the CSV files it must produce and their expected
row counts, which ``checks.py`` enforces.
"""

import json
import math
import random
from pathlib import Path

WORKLOADS = ("verify_regimes", "ensemble_dense", "sweep_jumps", "single_path")

# Conftest-style regime models (tests/conftest.py) plus the prey-only model
# that models/ does not ship.
_CHAIN = {"delta1": 0.5, "sigma1": 0.1, "delta2": 0.5, "sigma2": 0.1, "sigma3": 0.1}
EXTINCTION = {"S0": 1.0, "D": 0.5, "m1": 0.4, "m2": 0.3, **_CHAIN}
PREY_ONLY = {"S0": 4.0, "D": 0.2, "m1": 1.0, "m2": 0.05, **_CHAIN}
PERSISTENCE = {"S0": 4.0, "D": 0.2, "m1": 1.0, "m2": 0.6, **_CHAIN}
TWO_MARKS = [
    {"weight": 0.5, "gamma1": -0.3, "gamma2": -0.3, "gamma3": -0.3},
    {"weight": 0.5, "gamma1": 0.5, "gamma2": 0.5, "gamma3": 0.5},
]
# Imprecise model whose regime flips from prey-only to persistent as p grows,
# with 30 small jumps per time unit so that jump sampling, the mesh merge and
# the kernel's jump branch carry real weight.
JUMP_HEAVY = {
    "S0": 4.0, "D": 0.2, "m1": [0.6, 1.0], "m2": [0.05, 0.6], **_CHAIN,
    "jumps": [
        {"weight": 15.0, "gamma1": -0.05, "gamma2": -0.05, "gamma3": -0.05},
        {"weight": 15.0, "gamma1": 0.05, "gamma2": 0.05, "gamma3": 0.05},
    ],
}

# Expected regime of each verify_regimes model, and whether its claims gate
# correctness. The acceptance suite checks claims on the three jump-free
# regimes only; the jump regime's claims are reported, not gated.
REGIMES = {
    "extinction": (EXTINCTION, "BothExtinct", True),
    "prey_only": (PREY_ONLY, "PreyOnlyPersists", True),
    "persistence": (PERSISTENCE, "Persistent", True),
    "persistence_jumps": ({**PERSISTENCE, "jumps": TWO_MARKS}, "Persistent", False),
}

SIZES = {
    "full": {
        # the suite's t_end and dt; with 2 paths per regime instead of 200, a
        # stride of 1000 keeps aggregation the small share it has there
        "verify_regimes": {"paths": 2, "t_end": 2000.0, "dt": 0.01, "stride": 1000},
        "ensemble_dense": {"paths": 120, "t_end": 20.0, "dt": 0.01, "stride": 1},
        "sweep_jumps": {"paths": 4, "t_end": 500.0, "dt": 0.02, "stride": 100,
                        "p_grid": "0,0.5,1"},
        "single_path": {"t_end": 200.0, "dt": 0.01, "stride": 1},
    },
    # the smoke test's sizes; verify refuses horizons below 500
    "tiny": {
        "verify_regimes": {"paths": 2, "t_end": 500.0, "dt": 0.05, "stride": 100},
        "ensemble_dense": {"paths": 6, "t_end": 2.0, "dt": 0.01, "stride": 1},
        "sweep_jumps": {"paths": 2, "t_end": 500.0, "dt": 0.5, "stride": 100,
                        "p_grid": "0,1"},
        "single_path": {"t_end": 2.0, "dt": 0.01, "stride": 1},
    },
}

INITIAL = (1.0, 0.5, 0.2)  # conftest INITIAL, used by the library workload


def uniform_steps(t_end: float, dt: float) -> int:
    """Steps of the uniform grid the integrators use for (t_end, dt)."""
    return max(1, int(math.ceil(t_end / dt - 1e-9)))


def n_records(t_end: float, dt: float, stride: int) -> int:
    """Recorded rows: the origin, every stride-th grid point, and the end."""
    n = uniform_steps(t_end, dt)
    return 1 + n // stride + (1 if n % stride else 0)


def _write_model(path: Path, model: dict) -> str:
    path.write_text(json.dumps(model, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _cli(name, argv, files, **extra):
    out = argv[argv.index("--out") + 1]
    return {"kind": "cli", "name": name, "argv": argv, "out": out, "files": files, **extra}


def generate(workload: str, seed: int, size: str, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and return its plan.

    The plan is plain JSON: model paths, the ``chemlevy thresholds`` argv
    used to time set-up, and the operations with their expected outputs.
    """
    cfg = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs"
    inputs.mkdir(exist_ok=True)
    out = work / "out"

    def run_seed():
        return rng.randrange(2 ** 31)

    ops = []
    if workload == "verify_regimes":
        for name, (model, regime, gated) in REGIMES.items():
            path = _write_model(inputs / f"{name}.json", model)
            rec = n_records(cfg["t_end"], cfg["dt"], cfg["stride"])
            ops.append({
                "kind": "regime", "name": name, "model": path, "p": 0.0,
                "initial": INITIAL, "t_end": cfg["t_end"], "dt": cfg["dt"],
                "stride": cfg["stride"], "paths": cfg["paths"], "seed": run_seed(),
                "regime": regime, "claims_gate": gated, "out": str(out / name),
                "files": {"verdict.csv": None, "ensemble_summary.csv": rec,
                          "ensemble_terminal.csv": cfg["paths"]},
            })
        setup_model = ops[0]["model"]
    elif workload == "ensemble_dense":
        path = _write_model(inputs / "prey_only.json", PREY_ONLY)
        rec = n_records(cfg["t_end"], cfg["dt"], cfg["stride"])
        s = run_seed()
        ops.append(_cli(
            "ensemble",
            ["ensemble", "--model", path, "--p", "0", "--t-end", str(cfg["t_end"]),
             "--dt", str(cfg["dt"]), "--stride", str(cfg["stride"]),
             "--paths", str(cfg["paths"]), "--seed", str(s), "--out", str(out / "ensemble")],
            {"ensemble_summary.csv": rec, "ensemble_terminal.csv": cfg["paths"]},
            model=path, p=0.0, t_end=cfg["t_end"], dt=cfg["dt"], seed=s,
            paths=cfg["paths"]))
        setup_model = path
    elif workload == "sweep_jumps":
        path = _write_model(inputs / "jump_heavy.json", JUMP_HEAVY)
        grid = [float(v) for v in cfg["p_grid"].split(",")]
        s = run_seed()
        ops.append(_cli(
            "sweep",
            ["sweep", "--model", path, "--p-grid", cfg["p_grid"],
             "--t-end", str(cfg["t_end"]), "--dt", str(cfg["dt"]),
             "--stride", str(cfg["stride"]), "--paths", str(cfg["paths"]),
             "--seed", str(s), "--out", str(out / "sweep")],
            {"sweep.csv": len(grid)},
            model=path, p_grid=grid, t_end=cfg["t_end"], dt=cfg["dt"], seed=s,
            paths=cfg["paths"]))
        setup_model = path
    elif workload == "single_path":
        path = _write_model(inputs / "persistence_jumps.json",
                            {**PERSISTENCE, "jumps": TWO_MARKS})
        rec = n_records(cfg["t_end"], cfg["dt"], cfg["stride"])
        common = ["--model", path, "--p", "0", "--t-end", str(cfg["t_end"]),
                  "--dt", str(cfg["dt"]), "--stride", str(cfg["stride"])]
        s = run_seed()
        sim = dict(model=path, p=0.0, t_end=cfg["t_end"], dt=cfg["dt"], seed=s)
        ops.append(_cli("simulate", ["simulate", *common, "--seed", str(s),
                                     "--out", str(out / "simulate")],
                        {"trajectory.csv": rec, "jumps.csv": None}, **sim))
        ops.append(_cli("direct", ["simulate", *common, "--seed", str(s),
                                   "--scheme", "direct_euler", "--out", str(out / "direct")],
                        {"trajectory.csv": rec, "jumps.csv": None}, **sim))
        ops.append(_cli("ode", ["ode", *common, "--out", str(out / "ode")],
                        {"trajectory.csv": rec}, model=path, p=0.0,
                        t_end=cfg["t_end"], dt=cfg["dt"]))
        setup_model = path
    else:
        raise ValueError(f"unknown workload {workload!r}")

    return {
        "workload": workload, "seed": seed, "size": size,
        "setup_argv": ["thresholds", "--model", setup_model, "--p", "0"],
        "ops": ops,
    }
