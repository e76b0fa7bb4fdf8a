"""Spans around calls into chemlevy's modules, and the per-layer metrics.

The wrappers are installed at the name the caller looks up (``cli.simulate``,
``harness.simulate``, ``integrator.sample_jumps``, ...), so the program runs
unchanged and nothing under src/ knows about them. Spans stay in memory until
the run ends. A span's self time is its duration minus the part of it that
its child spans cover.
"""

import contextlib
import importlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import uniform_steps

# Call sites that get a wrapper: module -> names its code looks up there.
# ``chemlevy`` is the package namespace the library workload calls through.
SITES = {
    "chemlevy": ("load_model", "validate", "crispify", "classify", "ensemble", "verify"),
    "chemlevy.cli": (
        "load_model", "validate", "crispify", "classify", "simulate", "simulate_ode",
        "ensemble", "p_sweep", "verify", "conservation_residual",
        "write_trajectory_csv", "write_jumps_csv", "write_ensemble_csv",
        "write_terminal_csv", "write_verdict_csv", "write_thresholds_csv",
        "write_sweep_csv"),
    "chemlevy.harness": ("crispify", "classify", "simulate", "conservation_residual",
                         "ensemble", "verify"),
    "chemlevy.integrator": ("sample_jumps",),
}

N_SERIES = 9  # series aggregated per record by harness.ensemble
# bytes per record of one path: times + 9 series as float64, 2 bool flags
RECORD_BYTES = (1 + N_SERIES) * 8 + 2


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    meta: dict = field(default_factory=dict)

    @property
    def fn(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _push(self, name: str) -> Span:
        span = Span(name, 0.0, parent=self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._push(name)
        try:
            yield span
        finally:
            self._pop(span)

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            span = self._push(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.meta["error"] = type(exc).__name__
                raise
            finally:
                self._pop(span)
            if note is not None:
                note(span.meta, args, kwargs, result)
            return result
        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_simulate(meta, args, kwargs, traj):
    config = _arg(args, kwargs, 1, "config")
    meta["scheme"] = config.scheme
    meta["uniform"] = uniform_steps(config.t_end, config.dt)
    meta["pinned"] = sum(t is not None for t in traj.floor_times)


def _note_ode(meta, args, kwargs, traj):
    config = _arg(args, kwargs, 1, "config")
    meta["uniform"] = uniform_steps(config.t_end, config.dt)


def _note_jumps(meta, args, kwargs, events):
    meta["events"] = len(events)


def _note_ensemble(meta, args, kwargs, summary):
    meta["paths"] = summary.n_paths - len(summary.aborted)
    meta["records"] = len(summary.times)


def _note_verify(meta, args, kwargs, verdict):
    meta["passed"] = sum(c.passed for c in verdict.claims)
    meta["total"] = len(verdict.claims)


def _note_csv(meta, args, kwargs, result):
    meta["bytes"] = os.path.getsize(_arg(args, kwargs, len(args) - 1, "path"))


_NOTES = {"simulate": _note_simulate, "simulate_ode": _note_ode,
          "sample_jumps": _note_jumps, "ensemble": _note_ensemble,
          "verify": _note_verify}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install tracer wrappers at every call site in SITES, then restore."""
    saved = []
    try:
        for modname, names in SITES.items():
            module = importlib.import_module(modname)
            for attr in names:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                home = orig.__module__.rsplit(".", 1)[-1]
                note = _note_csv if attr.startswith("write_") else _NOTES.get(attr)
                saved.append((module, attr, orig))
                setattr(module, attr, tracer.wrap(f"{home}.{attr}", orig, note))
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def self_times(spans: list) -> tuple:
    """Self time of every span, and any nesting invariant it breaks."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    selfs, problems = [], []
    for i, span in enumerate(spans):
        kids = sorted((spans[j] for j in children[i]), key=lambda s: s.start)
        covered, reach = 0.0, span.start
        for kid in kids:
            if kid.start < span.start or kid.end > span.end:
                problems.append(f"{kid.name} runs outside its parent {span.name}")
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        if sum(k.duration for k in kids) > span.duration:
            problems.append(f"children of {span.name} exceed it")
        selfs.append(span.duration - covered)
        if selfs[-1] < 0.0:
            problems.append(f"{span.name} has negative self time")
    return selfs, problems


def layer_metrics(spans: list) -> tuple:
    """Per-layer metrics of one traced run: ({name: (value, unit, n)}, problems).

    Root spans are the benchmark's own per-operation spans; every other span
    is a call into the program. ``n`` is the number of spans a value rests on.
    """
    selfs, problems = self_times(spans)
    by_fn = {}
    for i, span in enumerate(spans):
        by_fn.setdefault(span.fn, []).append(i)

    def pick(*fns):
        return [i for fn in fns for i in by_fn.get(fn, [])]

    def total(idx, own=False):
        return sum(selfs[i] if own else spans[i].duration for i in idx)

    m = {}
    csv = pick(*(fn for fn in by_fn if fn.startswith("write_")))
    csv_s = total(csv, own=True)
    csv_bytes = sum(spans[i].meta.get("bytes", 0) for i in csv)
    m["cli.csv_write_s"] = (csv_s, "s", len(csv))
    m["cli.csv_bytes"] = (csv_bytes, "B", len(csv))
    m["cli.csv_mb_per_s"] = (csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0, "MB/s", len(csv))

    load = pick("load_model", "validate", "crispify")
    m["model.load_validate_s"] = (total(load), "s", len(load))
    cls = pick("classify")
    m["thresholds.classify_s"] = (total(cls), "s", len(cls))
    m["thresholds.classify_calls"] = (len(cls), "count", len(cls))

    sims = pick("simulate")
    log_euler = [i for i in sims if spans[i].meta.get("scheme") == "log_euler"]
    direct = [i for i in sims if spans[i].meta.get("scheme") == "direct_euler"]

    jumps = pick("sample_jumps")
    events_under = {}  # jump events drawn inside each simulate span
    for i in jumps:
        events_under[spans[i].parent] = events_under.get(spans[i].parent, 0) + spans[i].meta.get("events", 0)

    def mesh(i):  # uniform grid steps plus jump events of one successful path
        return spans[i].meta["uniform"] + events_under.get(i, 0)

    m["integrator.simulate_self_s"] = (total(sims, own=True), "s", len(sims))
    le_steps = sum(mesh(i) for i in log_euler)
    m["integrator.us_per_path_step"] = (
        total(log_euler, own=True) / le_steps * 1e6 if le_steps else 0.0, "us", len(log_euler))
    durations = [spans[i].duration for i in log_euler] or [0.0]
    m["integrator.path_s_p50"] = (float(np.percentile(durations, 50)), "s", len(log_euler))
    m["integrator.path_s_p95"] = (float(np.percentile(durations, 95)), "s", len(log_euler))
    m["integrator.sample_jumps_s"] = (total(jumps), "s", len(jumps))
    m["integrator.jump_events"] = (sum(spans[i].meta.get("events", 0) for i in jumps), "count", len(jumps))
    ok_sims = [i for i in sims if "error" not in spans[i].meta]
    m["integrator.mesh_points"] = (sum(mesh(i) for i in ok_sims), "count", len(ok_sims))
    ode = pick("simulate_ode")
    ode_steps = sum(spans[i].meta.get("uniform", 0) for i in ode)
    m["integrator.ode_us_per_step"] = (total(ode) / ode_steps * 1e6 if ode_steps else 0.0, "us", len(ode))
    d_steps = sum(mesh(i) for i in direct)
    m["integrator.direct_us_per_step"] = (
        total(direct, own=True) / d_steps * 1e6 if d_steps else 0.0, "us", len(direct))
    m["integrator.pinned_coords"] = (sum(spans[i].meta.get("pinned", 0) for i in sims), "count", len(sims))

    ens = pick("ensemble")
    ens_self = total(ens, own=True)
    cells = sum(spans[i].meta.get("paths", 0) * spans[i].meta.get("records", 0) for i in ens) * N_SERIES
    m["harness.ensemble_self_s"] = (ens_self, "s", len(ens))
    m["harness.aggregate_ns_per_cell"] = (ens_self / cells * 1e9 if cells else 0.0, "ns", len(ens))
    biggest = max((spans[i].meta.get("paths", 0) * spans[i].meta.get("records", 0) for i in ens), default=0)
    m["harness.records_mb"] = (biggest * RECORD_BYTES / 1e6, "MB", len(ens))
    res = pick("conservation_residual")
    m["harness.residual_s"] = (total(res), "s", len(res))
    ver = pick("verify")
    m["harness.verify_s"] = (total(ver), "s", len(ver))
    m["harness.paths_ok_frac"] = (len(ok_sims) / len(sims) if sims else 1.0, "ratio", len(sims))
    m["harness.claims_passed"] = (sum(spans[i].meta.get("passed", 0) for i in ver), "count", len(ver))
    m["harness.claims_total"] = (sum(spans[i].meta.get("total", 0) for i in ver), "count", len(ver))

    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    wall = total(roots)
    m["trace.span_coverage"] = ((wall - total(roots, own=True)) / wall if wall > 0 else 0.0, "ratio", len(roots))
    return m, problems
