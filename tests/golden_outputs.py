"""A ledger of the CLI's outputs: for each command, the SHA-256 of every file
it writes, its stdout, its stderr and its exit status, and the numpy version
the ledger was written with (numpy keeps its bit generators' streams stable
across versions, but not those of Generator's distributions: NEP 19).

The commands are the CI workflow's "Same bytes" commands and the README's
commands that run in a few seconds.  Each runs through ``cli.main`` in a
fresh working directory of its own, with a relative ``--out``, so that its
stdout is the same on every machine.  ``test_golden_outputs.py`` runs them
and compares with ``golden_outputs.json``.

    PYTHONPATH=src python tests/golden_outputs.py --write

rewrites the ledger from the tree as it is; a change that means to alter an
output runs it and says which digests changed, and why.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from chemlevy import cli

REPO = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("golden_outputs.json")

# the CI workflow's "Same bytes" commands, each with its --out; they also run
# on the Python kernels and repr
CI_COMMANDS = {
    "wide": "ensemble --model models/imprecise_jumps.json --p 0.5 --t-end 20 --stride 1"
            " --paths 90",
    "widefree": "ensemble --model models/persistence.json --p 0.5 --t-end 20 --stride 1"
                " --paths 90",
    "narrow": "ensemble --model models/imprecise_jumps.json --p 0.5 --t-end 20 --stride 1"
              " --paths 6",
    "dense": "ensemble --model models/imprecise_jumps.json --p 0.5 --t-end 8000 --dt 2 --stride 10"
             " --paths 6",
    "sweep": "sweep --model models/imprecise_jumps.json --p-grid 0,0.5,1 --paths 4 --t-end 500"
             " --dt 0.5",
    "blocks": "sweep --model models/imprecise_jumps.json --p-grid 0,0.25,0.5,0.75 --paths 4"
              " --t-end 500 --dt 0.1 --stride 1",
    "verify": "verify --model models/extinction.json --p 0.5 --t-end 500 --dt 0.05 --paths 90",
    "pinned": "ensemble --model models/extinction.json --p 0.5 --t-end 2000 --dt 0.5 --paths 6",
    "ode": "ode --model models/persistence.json --p 0.5 --t-end 200 --stride 1",
    "direct": "simulate --model models/imprecise_jumps.json --p 0.5 --t-end 200 --stride 1"
              " --scheme direct_euler",
    "aborted": "ensemble --model models/imprecise_jumps.json --p 1 --t-end 500 --dt 0.4"
               " --paths 60",
    "simulate": "simulate --model models/imprecise_jumps.json --p 0.5 --t-end 200 --stride 1",
}
CI = {name: [*spec.split(), "--out", name] for name, spec in CI_COMMANDS.items()}

# the README's commands as written, all but its 200-path verify (4e7 path-steps,
# several seconds on two cores); these run on the compiled kernels alone
README = {name: spec.split() for name, spec in {
    "readme-validate": "validate --model models/extinction.json",
    "readme-thresholds": "thresholds --model models/persistence.json --p 0.5 --theta 3",
    "readme-simulate": "simulate --model models/imprecise_jumps.json --p 0.5 --t-end 500"
                       " --dt 0.01 --seed 7 --out runs/demo",
    "readme-ode": "ode --model models/persistence.json --p 0.5 --t-end 200 --dt 0.01",
    "readme-ensemble": "ensemble --model models/extinction.json --p 0.5 --t-end 1000 --dt 0.01"
                       " --seed 1 --paths 100 --out runs/ens",
    "readme-sweep": "sweep --model models/imprecise_jumps.json --p-grid 0,0.25,0.5,0.75,1"
                    " --out runs/sweep",
}.items()}


def run(argv, cwd: Path) -> dict:
    """One command's outputs, run through cli.main in the empty directory
    cwd, its model paths read from the repository: the SHA-256 of each file
    it wrote, by path from cwd, its stdout, stderr and exit status."""
    argv = [str(REPO / a) if a.startswith("models/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("default")   # warnings print as the command's would
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
    finally:
        os.chdir(home)
    files = {f.relative_to(cwd).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
             for f in sorted(cwd.rglob("*")) if f.is_file()}
    return {"status": status, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def run_all(commands: dict, root: Path) -> dict:
    """run() of every command, each in its own new directory under root."""
    outputs = {}
    for name, argv in commands.items():
        cwd = root / name
        cwd.mkdir(parents=True)
        outputs[name] = run(argv, cwd)
    return outputs


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="rewrite golden_outputs.json from this tree")
    parser.parse_args(args)
    with tempfile.TemporaryDirectory() as root:
        outputs = run_all({**CI, **README}, Path(root))
    ledger = {"numpy": np.__version__,
              "commands": {name: {"argv": " ".join(argv), **outputs[name]}
                           for name, argv in {**CI, **README}.items()}}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER.name}: {len(outputs)} commands, numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
