"""Every output of the ledger's commands is the bytes golden_outputs.json
holds: on the compiled kernels and, for the CI commands, on the Python
kernels with every number table written through repr."""

import json
import re

import numpy as np
import pytest

from chemlevy import _compiled
from golden_outputs import CI, CI_COMMANDS, LEDGER, README, REPO, run_all


def differences(got: dict, want: dict) -> list:
    """What differs between two outputs of one command: status, stdout,
    stderr, and each file whose digest differs or that only one has."""
    files = got["files"].keys() | want["files"].keys()
    return ([key for key in ("status", "stdout", "stderr") if got[key] != want[key]]
            + sorted(f for f in files if got["files"].get(f) != want["files"].get(f)))


def assert_matches_ledger(outputs: dict, ledger: dict, mode: str) -> None:
    changed = {name: differences(got, ledger["commands"][name])
               for name, got in outputs.items()}
    changed = {name: diff for name, diff in changed.items() if diff}
    if changed:
        versions = (f"the ledger was written with numpy {ledger['numpy']}, this is numpy "
                    f"{np.__version__} (Generator's distributions may change between numpy "
                    "versions, NEP 19); " if np.__version__ != ledger["numpy"] else "")
        detail = "; ".join(f"{name} ({', '.join(diff)})" for name, diff in changed.items())
        pytest.fail(f"{versions}on the {mode} kernels, {len(changed)} command(s) differ from "
                    f"golden_outputs.json: {detail}")


def test_outputs_match_the_ledger(tmp_path, monkeypatch):
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    commands = {**CI, **README}
    assert {name: entry["argv"] for name, entry in ledger["commands"].items()} \
        == {name: " ".join(argv) for name, argv in commands.items()}
    assert_matches_ledger(run_all(commands, tmp_path / "compiled"), ledger, "compiled")
    monkeypatch.setattr(_compiled, "window", lambda scheme: None)
    monkeypatch.setattr(_compiled, "float_rows", lambda: None)
    assert_matches_ledger(run_all(CI, tmp_path / "python"), ledger, "Python")


def test_the_ledger_runs_the_workflows_commands():
    """The ledger's CI commands are the "Same bytes" step's, name for name."""
    workflow = (REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    listed = workflow[workflow.index("cmds=("):]
    listed = listed[:listed.index(")")]
    assert dict(re.findall(r'^\s*"(\S+) ([^"]+)"$', listed, re.M)) == CI_COMMANDS
