"""Shared parameter sets and session-scoped Monte Carlo ensembles.

The three named models pin one asymptotic regime each:

  extinction:  S0=1, D=0.5, m1=0.4, d1=0.5, m2=0.3,  d2=0.5, sigma=0.1 -> R0s ~ 0.792
  prey_only:   S0=4, D=0.2, m1=1.0, d1=0.5, m2=0.05, d2=0.5, sigma=0.1 -> R1s ~ 0.476 < 1 < R0s
  persistence: S0=4, D=0.2, m1=1.0, d1=0.5, m2=0.6,  d2=0.5, sigma=0.1 -> R1s ~ 4.503

The heavy ensembles (200 paths to t=2000) are shared between the acceptance
suite and the harness tests, so they are built once per session.
"""

import dataclasses
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

import chemlevy as cl

WORKERS = min(2, os.cpu_count() or 1)

INITIAL = cl.State(1.0, 0.5, 0.2)

TWO_MARKS = cl.JumpSpec((
    cl.JumpMark(weight=0.5, gamma1=-0.3, gamma2=-0.3, gamma3=-0.3),
    cl.JumpMark(weight=0.5, gamma1=0.5, gamma2=0.5, gamma3=0.5),
))


class RecordingPool:
    """Stands in for harness._pool: records the pool size asked for and runs
    its tasks serially, so no process is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled library (the window kernels and the float
    formatter) into a cache of the test session's own (fresh processes
    inherit it), so the suite neither reads nor writes the user's cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        cl._compiled._library.cache_clear()
        yield


SCHEMES = (cl.LOG_EULER, cl.DIRECT_EULER, "rk4")


@pytest.fixture(scope="session")
def compiled(kernel_cache):
    """_compiled.window, the accessor of the compiled window kernels'
    binders, each of which must load wherever Python's C compiler is
    installed; a test that needs them is skipped elsewhere."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler to build the window kernels with")
    for scheme in SCHEMES:
        assert cl._compiled.window(scheme) is not None, f"the compiled {scheme} kernel did not load"
    return cl._compiled.window


def run_fresh(code: str) -> str:
    """Run Python code in a fresh interpreter that imports chemlevy from the
    same place as this session; return its stdout."""
    src = str(Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def make_extinction(jumps=cl.JumpSpec()) -> cl.CrispModel:
    return cl.CrispModel(S0=1.0, D=0.5, m1=0.4, delta1=0.5, sigma1=0.1,
                         m2=0.3, delta2=0.5, sigma2=0.1, sigma3=0.1, jumps=jumps)


def make_prey_only(jumps=cl.JumpSpec()) -> cl.CrispModel:
    return cl.CrispModel(S0=4.0, D=0.2, m1=1.0, delta1=0.5, sigma1=0.1,
                         m2=0.05, delta2=0.5, sigma2=0.1, sigma3=0.1, jumps=jumps)


def make_persistence(jumps=cl.JumpSpec()) -> cl.CrispModel:
    return cl.CrispModel(S0=4.0, D=0.2, m1=1.0, delta1=0.5, sigma1=0.1,
                         m2=0.6, delta2=0.5, sigma2=0.1, sigma3=0.1, jumps=jumps)


def path_config(config: cl.SimConfig, path_index: int) -> cl.SimConfig:
    """Per-path copy of config with the stream seed the harness derives."""
    return dataclasses.replace(
        config, seed=cl.integrator.derive_path_seed(config.seed, path_index))


def long_config(seed: int) -> cl.SimConfig:
    return cl.SimConfig(initial=INITIAL, t_end=2000.0, dt=0.01, seed=seed,
                        output_stride=100)


def random_crisp_model(rng: np.random.Generator, with_jumps: bool = True) -> cl.CrispModel:
    """Structurally valid model with randomized rates, noise, and jumps."""
    if with_jumps and rng.random() < 0.5:
        n_marks = int(rng.integers(1, 4))
        marks = tuple(
            cl.JumpMark(
                weight=float(rng.uniform(0.05, 2.0)),
                gamma1=float(rng.uniform(-0.9, 3.0)),
                gamma2=float(rng.uniform(-0.9, 3.0)),
                gamma3=float(rng.uniform(-0.9, 3.0)),
            )
            for _ in range(n_marks)
        )
        jumps = cl.JumpSpec(marks)
    else:
        jumps = cl.JumpSpec()
    return cl.CrispModel(
        S0=float(rng.uniform(0.1, 10.0)),
        D=float(rng.uniform(0.01, 2.0)),
        m1=float(rng.uniform(0.01, 2.0)),
        delta1=float(rng.uniform(0.05, 2.0)),
        sigma1=float(rng.uniform(0.0, 1.0)),
        m2=float(rng.uniform(0.01, 2.0)),
        delta2=float(rng.uniform(0.05, 2.0)),
        sigma2=float(rng.uniform(0.0, 1.0)),
        sigma3=float(rng.uniform(0.0, 1.0)),
        jumps=jumps,
    )


@pytest.fixture(scope="session")
def extinction_model():
    return make_extinction()


@pytest.fixture(scope="session")
def prey_only_model():
    return make_prey_only()


@pytest.fixture(scope="session")
def persistence_model():
    return make_persistence()


@pytest.fixture(scope="session")
def ensemble_build_seconds():
    """Wall-clock cost of each session ensemble, for runtime-budget checks."""
    return {}


def _timed_ensemble(times, key, model, config):
    start = time.perf_counter()
    summary = cl.ensemble(model, config, 200, workers=WORKERS)
    times[key] = time.perf_counter() - start
    return summary


@pytest.fixture(scope="session")
def ens_extinction(extinction_model, ensemble_build_seconds):
    return _timed_ensemble(ensemble_build_seconds, "extinction",
                           extinction_model, long_config(1001))


@pytest.fixture(scope="session")
def ens_prey_only(prey_only_model, ensemble_build_seconds):
    return _timed_ensemble(ensemble_build_seconds, "prey_only",
                           prey_only_model, long_config(2002))


@pytest.fixture(scope="session")
def ens_persistence(persistence_model, ensemble_build_seconds):
    return _timed_ensemble(ensemble_build_seconds, "persistence",
                           persistence_model, long_config(2003))


@pytest.fixture(scope="session")
def ens_persistence_jumps(ensemble_build_seconds):
    model = make_persistence(jumps=TWO_MARKS)
    return _timed_ensemble(ensemble_build_seconds, "persistence_jumps",
                           model, long_config(3003))
