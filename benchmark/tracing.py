"""Span tracing of the package's layers, installed from outside the package.

`Tracer.install` replaces each traced function by a wrapper at every place it
can be looked up: the package imports functions by name, so
`pseudomode.embedding.evolve` and `pseudomode.cli.simulate_lorentzian` are
rebound as well as the defining module's attribute. `uninstall` restores the
originals. Each wrapped call records one span (name, parent, start, end, and
an integer payload such as bytes written) in flat arrays kept in memory;
`save` writes them out once at the end of the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "pseudomode"
# (module, attribute path, span name). Attribute paths with a dot are methods.
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "load_scenario", "config.load_scenario"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "write_csv", "cli.write_csv"),
    ("embedding", "simulate_lorentzian", "embedding.simulate_lorentzian"),
    ("embedding", "choose_truncation", "embedding.choose_truncation"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("integrators", "Dopri5.step", "integrators.Dopri5.step"),
    ("integrators", "Dopri5.interpolate", "integrators.Dopri5.interpolate"),
    ("integrators", "fixed_step", "integrators.fixed_step"),
    ("algebra", "DensityMatrix.__post_init__", "algebra.DensityMatrix"),
    ("algebra", "partial_trace", "algebra.partial_trace"),
    ("algebra", "trace_distance", "algebra.trace_distance"),
    ("oracles", "volterra_amplitude", "oracles.volterra_amplitude"),
    ("oracles", "discrete_bath_evolve", "oracles.discrete_bath_evolve"),
    ("trajectories", "mcwf_run", "trajectories.mcwf_run"),
    ("trajectories", "ensemble_average", "trajectories.ensemble_average"),
)
# The master-equation closure is traced by wrapping what rhs_function returns.
_RHS_FACTORY = ("dynamics", "rhs_function")
RHS_SPAN = "dynamics.rhs"


def _csv_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _jumps(args, kwargs, result) -> int:
    return len(result.jump_times)


_PAYLOADS = {"cli.write_csv": _csv_bytes, "trajectories.mcwf_run": _jumps}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.payload = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.passes: list[tuple[int, int]] = []  # span index range of each traced pass

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        payload = _PAYLOADS.get(name)
        name_ids, parents, starts, ends, payloads = (
            self.name_id, self.parent, self.start, self.end, self.payload)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            payloads.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if payload is not None:
                payloads[idx] = payload(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        mods = {name: sys.modules[f"{PACKAGE}.{name}"]
                for name in ("cli", "config", "embedding", "dynamics", "integrators",
                             "algebra", "oracles", "trajectories")}
        for mod_name, attr, span in _TARGETS:
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span, original))
            else:
                original = getattr(owner, attr)
                self._rebind(original, self.wrap(span, original))
        mod_name, attr = _RHS_FACTORY
        factory = getattr(mods[mod_name], attr)

        @functools.wraps(factory)
        def traced_factory(model):
            return self.wrap(RHS_SPAN, factory(model))

        self._rebind(factory, traced_factory)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run_traced(self, fn):
        """Call fn() with the wrappers installed; its spans form one pass."""
        lo = len(self.name_id)
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()
            self.passes.append((lo, len(self.name_id)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "payload": np.frombuffer(self.payload, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), passes=np.array(self.passes),
                            **self.arrays())

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per span name: calls, total, self time and payload, for the first pass and all.

        Self time is a span's duration minus the durations of its direct children.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        first = self.passes[0] if self.passes else (0, 0)
        for label, (lo, hi) in (("first", first), ("all", (0, len(dur)))):
            ids = a["name_id"][lo:hi]
            stats = {}
            for nid, name in enumerate(self.names):
                sel = ids == nid
                stats[name] = {
                    "calls": int(np.count_nonzero(sel)),
                    "total_ns": float(dur[lo:hi][sel].sum()),
                    "self_ns": float(self_ns[lo:hi][sel].sum()),
                    "payload": int(a["payload"][lo:hi][sel].sum()),
                }
            out[label] = stats
        return out


# (metric, unit, better): the traced run's per-layer metrics, in BENCHMARK.json order.
# Counts are per pass and come from the first traced pass, so they repeat
# exactly for a given seed; times are per call over every traced pass.
LAYER_METRICS = (
    ("config.load_scenario.ms", "ms/call", "lower"),
    ("cli.run_scenario.self_ms", "ms/scenario", "lower"),
    ("cli.write_csv.ms", "ms/call", "lower"),
    ("cli.write_csv.bytes", "bytes/pass", "lower"),
    ("embedding.simulate_lorentzian.calls", "count/pass", "lower"),
    ("embedding.simulate_lorentzian.self_ms", "ms/call", "lower"),
    ("embedding.choose_truncation.ms", "ms/call", "lower"),
    ("dynamics.evolve.calls", "count/pass", "lower"),
    ("dynamics.evolve.self_ms", "ms/call", "lower"),
    ("dynamics.rhs.evals", "count/pass", "lower"),
    ("dynamics.rhs.us_per_eval", "us", "lower"),
    ("integrators.Dopri5.step.calls", "steps/pass", "lower"),
    ("integrators.rhs_per_step", "ratio", "lower"),
    ("integrators.Dopri5.step.self_us", "us/step", "lower"),
    ("integrators.Dopri5.interpolate.calls", "count/pass", "lower"),
    ("integrators.fixed_step.calls", "count/pass", "lower"),
    ("algebra.DensityMatrix.constructions", "count/pass", "lower"),
    ("algebra.DensityMatrix.self_us", "us/call", "lower"),
    ("algebra.partial_trace.self_us", "us/call", "lower"),
    ("algebra.trace_distance.calls", "count/pass", "lower"),
    ("algebra.trace_distance.self_us", "us/call", "lower"),
    ("oracles.volterra_amplitude.ms", "ms/call", "lower"),
    ("oracles.discrete_bath_evolve.ms", "ms/call", "lower"),
    ("trajectories.mcwf_run.calls", "count/pass", "lower"),
    ("trajectories.mcwf_run.ms", "ms/trajectory", "lower"),
    ("trajectories.jumps_per_traj", "ratio", "lower"),
    ("trajectories.ensemble_average.self_ms", "ms/call", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(summary: dict, overhead_pct: float) -> dict[str, float]:
    """Per-layer metric values from Tracer.summary(); 0 where a layer did no work."""
    first, every = summary["first"], summary["all"]
    empty = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "payload": 0}

    def count(span: str) -> int:
        return first.get(span, empty)["calls"]

    def per_call(span: str, key: str, ns_per_unit: float) -> float:
        s = every.get(span, empty)
        return s[key] / s["calls"] / ns_per_unit if s["calls"] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ms, us = 1e6, 1e3
    steps = count("integrators.Dopri5.step")
    trajectories = count("trajectories.mcwf_run")
    return {
        "config.load_scenario.ms": per_call("config.load_scenario", "total_ns", ms),
        "cli.run_scenario.self_ms": per_call("cli.run_scenario", "self_ns", ms),
        "cli.write_csv.ms": per_call("cli.write_csv", "total_ns", ms),
        "cli.write_csv.bytes": first.get("cli.write_csv", empty)["payload"],
        "embedding.simulate_lorentzian.calls": count("embedding.simulate_lorentzian"),
        "embedding.simulate_lorentzian.self_ms":
            per_call("embedding.simulate_lorentzian", "self_ns", ms),
        "embedding.choose_truncation.ms": per_call("embedding.choose_truncation", "total_ns", ms),
        "dynamics.evolve.calls": count("dynamics.evolve"),
        "dynamics.evolve.self_ms": per_call("dynamics.evolve", "self_ns", ms),
        "dynamics.rhs.evals": count(RHS_SPAN),
        "dynamics.rhs.us_per_eval": per_call(RHS_SPAN, "total_ns", us),
        "integrators.Dopri5.step.calls": steps,
        "integrators.rhs_per_step": ratio(count(RHS_SPAN), steps),
        "integrators.Dopri5.step.self_us": per_call("integrators.Dopri5.step", "self_ns", us),
        "integrators.Dopri5.interpolate.calls": count("integrators.Dopri5.interpolate"),
        "integrators.fixed_step.calls": count("integrators.fixed_step"),
        "algebra.DensityMatrix.constructions": count("algebra.DensityMatrix"),
        "algebra.DensityMatrix.self_us": per_call("algebra.DensityMatrix", "self_ns", us),
        "algebra.partial_trace.self_us": per_call("algebra.partial_trace", "self_ns", us),
        "algebra.trace_distance.calls": count("algebra.trace_distance"),
        "algebra.trace_distance.self_us": per_call("algebra.trace_distance", "self_ns", us),
        "oracles.volterra_amplitude.ms": per_call("oracles.volterra_amplitude", "total_ns", ms),
        "oracles.discrete_bath_evolve.ms":
            per_call("oracles.discrete_bath_evolve", "total_ns", ms),
        "trajectories.mcwf_run.calls": trajectories,
        "trajectories.mcwf_run.ms": per_call("trajectories.mcwf_run", "total_ns", ms),
        "trajectories.jumps_per_traj":
            ratio(first.get("trajectories.mcwf_run", empty)["payload"], trajectories),
        "trajectories.ensemble_average.self_ms":
            per_call("trajectories.ensemble_average", "self_ns", ms),
        "trace.overhead_pct": overhead_pct,
    }
