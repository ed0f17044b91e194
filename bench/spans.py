"""Spans recorded from outside the program, around the calls into each layer.

The tracer replaces a function by a wrapper under every name the package's
modules bind it to, so a caller that imported the function by name (as
``cli`` does with ``optimize_parameters`` and ``simulate`` does with
``evaluate_V``) calls the wrapper too.  Methods are wrapped on their class.
A name the program no longer defines is skipped, and its layer then reads
zero calls.  Spans are kept in memory as tuples
``(name, start, end, parent, ok, work)``; ``parent`` is the index of the
enclosing span or -1 and ``work`` is a size the span reports (steps,
samples, bytes) or 0.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time


def _steps(result, args, kwargs):
    # simulate returns a Trajectory; steps are counted from its time grid
    return round(float(result.t[-1]) / float(result.dt)) if len(result) else 0


def _samples(result, args, kwargs):
    return int(result.shape[0])


def _csv_bytes(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


PACKAGE = "sdcontrol"

# (span name, module, attribute, work callback); an attribute "Class.method"
# wraps the method on its class
TARGETS = (
    ("config.case_study_run_config", "config", "case_study_run_config", None),
    ("cli.cmd_case_study", "cli", "cmd_case_study", None),
    ("cli.cmd_design", "cli", "cmd_design", None),
    ("cli.cmd_certify", "cli", "cmd_certify", None),
    ("cli.cmd_simulate", "cli", "cmd_simulate", None),
    ("spectral.build_heat_system", "spectral", "build_heat_system", None),
    ("spectral.project_profile", "spectral", "project_profile", None),
    ("predictor.design_predictor", "predictor", "design_predictor", None),
    ("predictor.place_poles", "predictor", "place_poles", None),
    ("predictor.solve_lyapunov", "predictor", "solve_lyapunov", None),
    ("predictor.invert_artstein", "predictor", "invert_artstein", _samples),
    ("certificates.optimize_parameters", "certificates",
     "optimize_parameters", None),
    ("certificates.compute_constants", "certificates", "compute_constants",
     None),
    ("certificates.evaluate_V", "certificates", "evaluate_V", None),
    ("simulate.simulate", "simulate", "simulate", _steps),
    ("simulate.step", "simulate", "step", None),
    ("simulate.coupling_f2", "simulate", "coupling_f2", None),
    ("simulate.write_csv", "simulate", "write_csv", _csv_bytes),
    ("buffers.lookup", "buffers", "DelayBuffer.lookup", None),
    ("buffers.window", "buffers", "DelayBuffer.window", None),
)


class Tracer:
    """Wraps the program's layer functions and records one span per call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok, size = False, 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if ok and work is not None:
                    size = work(result, args, kwargs)
                spans[idx] = (name, start, end, parent, ok, size)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        undo = []
        try:
            for name, mod_name, attr, work in TARGETS:
                module = sys.modules.get(f"{PACKAGE}.{mod_name}")
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if fn is None:
                        continue
                    setattr(cls, meth, self._wrap(name, fn, work))
                    undo.append((cls, meth, fn))
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(name, fn, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, fn))
            yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def aggregate(spans) -> dict:
    """Per span name: calls, ok calls, inclusive and self seconds, work.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, ok, work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, ok, work) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "ok": 0, "incl_s": 0.0,
                                    "self_s": 0.0, "work": 0})
        s["calls"] += 1
        s["ok"] += int(ok)
        s["incl_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["work"] += work
    return stats


def merge(total: dict, stats: dict) -> None:
    """Add one operation's aggregate into a running total."""
    for name, s in stats.items():
        t = total.setdefault(name, dict.fromkeys(s, 0))
        for key, value in s.items():
            t[key] += value


def layer_metrics(total: dict, n_ops: int, cs_validate_s: float) -> dict:
    """Per-layer metrics from aggregated spans of n_ops traced operations.

    ``*_ms`` and ``*_calls`` are per operation; ``*_us`` are per call (per
    step or per sample where the name says so).
    """
    def get(name, key):
        return total.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = get("simulate.simulate", "work")
    n_opt = get("certificates.optimize_parameters", "calls")
    n_cc = get("certificates.compute_constants", "calls")
    per_op = 1.0 / n_ops
    return {
        "config.case_study_ms":
            1e3 * get("config.case_study_run_config", "incl_s") * per_op,
        "cli.validate_ms": 1e3 * cs_validate_s * per_op,
        "cli.design_ms": 1e3 * get("cli.cmd_design", "incl_s") * per_op,
        "cli.certify_ms": 1e3 * get("cli.cmd_certify", "incl_s") * per_op,
        "cli.simulate_ms": 1e3 * get("cli.cmd_simulate", "incl_s") * per_op,
        "spectral.build_calls":
            get("spectral.build_heat_system", "calls") * per_op,
        "spectral.project_ms":
            1e3 * get("spectral.project_profile", "incl_s") * per_op,
        "predictor.design_calls":
            get("predictor.design_predictor", "calls") * per_op,
        "predictor.place_poles_calls":
            get("predictor.place_poles", "calls") * per_op,
        "predictor.design_ms":
            1e3 * get("predictor.design_predictor", "incl_s") * per_op,
        "predictor.lyapunov_ms":
            1e3 * get("predictor.solve_lyapunov", "incl_s") * per_op,
        "predictor.invert_us_per_sample":
            1e6 * ratio(get("predictor.invert_artstein", "incl_s"),
                        get("predictor.invert_artstein", "work")),
        "certificates.optimize_calls": n_opt * per_op,
        "certificates.optimize_ms":
            1e3 * get("certificates.optimize_parameters", "incl_s") * per_op,
        "certificates.objective_evals": ratio(n_cc, n_opt),
        "certificates.objective_us":
            1e6 * ratio(get("certificates.compute_constants", "incl_s"), n_cc),
        "certificates.objective_feasible_ratio":
            ratio(get("certificates.compute_constants", "ok"), n_cc),
        "certificates.evaluate_V_calls":
            get("certificates.evaluate_V", "calls") * per_op,
        "certificates.evaluate_V_us":
            1e6 * ratio(get("certificates.evaluate_V", "incl_s"),
                        get("certificates.evaluate_V", "calls")),
        "simulate.steps": steps * per_op,
        "simulate.step_us":
            1e6 * ratio(get("simulate.step", "incl_s"), steps),
        "simulate.update_us":
            1e6 * ratio(get("simulate.simulate", "self_s"), steps),
        "simulate.coupling_us":
            1e6 * ratio(get("simulate.coupling_f2", "incl_s"),
                        get("simulate.coupling_f2", "calls")),
        "simulate.write_csv_ms":
            1e3 * get("simulate.write_csv", "incl_s") * per_op,
        "simulate.csv_mb": 1e-6 * get("simulate.write_csv", "work") * per_op,
        "buffers.lookup_calls_per_step":
            ratio(get("buffers.lookup", "calls"), steps),
        "buffers.window_calls_per_step":
            ratio(get("buffers.window", "calls"), steps),
        "buffers.lookup_us":
            1e6 * ratio(get("buffers.lookup", "self_s"),
                        get("buffers.lookup", "calls")),
        "buffers.window_us":
            1e6 * ratio(get("buffers.window", "self_s"),
                        get("buffers.window", "calls")),
    }


def case_study_validate_s(spans) -> float:
    """Time in cmd_case_study outside the config load and the design,
    certify and simulate stages: the INI write, the plant build and the
    validation report."""
    total = 0.0
    stages = ("config.case_study_run_config", "cli.cmd_design",
              "cli.cmd_certify", "cli.cmd_simulate")
    roots = {i for i, s in enumerate(spans) if s[0] == "cli.cmd_case_study"}
    for i in roots:
        total += spans[i][2] - spans[i][1]
    for name, start, end, parent, ok, work in spans:
        if parent in roots and name in stages:
            total -= end - start
    return total
