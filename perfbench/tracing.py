"""Spans around the calls into each chemowave layer, and the per-layer metrics.

Tracing patches module attributes: a call is traced when the calling module
looks the name up in its own namespace (``chemowave.wave_speed.solve_modes``
is the ``solve_modes`` that ``scan`` and ``refine_roots`` reach).  The
benchmark's own calls go through module attributes for the same reason.
Spans stay in memory; ``Tracer.write`` stores them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import logging
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from chemowave.cauchy_sim import total_mass

# layer metric prefix -> the "module.attribute" call sites that feed it.
# cli_io.main has no metric of its own: it parents the spans of one CLI operation.
LAYER_CALLS: dict[str, tuple[str, ...]] = {
    "velocity_model.build_model": ("chemowave.cli_io.build_model", "chemowave.velocity_model.build_model"),
    "velocity_model.admissible_speed_interval": (
        "chemowave.wave_speed.admissible_speed_interval",
        "chemowave.cli_io.admissible_speed_interval",
        "chemowave.velocity_model.admissible_speed_interval",
    ),
    "dispersion.solve_roots": ("chemowave.wave_profile.solve_roots",),
    "wave_profile.solve_modes": ("chemowave.wave_speed.solve_modes", "chemowave.cli_io.solve_modes"),
    "chemo_fields.solve_S": ("chemowave.wave_speed.solve_S", "chemowave.cli_io.solve_S"),
    "chemo_fields.solve_N": ("chemowave.cli_io.solve_N",),
    "wave_speed.upsilon": ("chemowave.wave_speed.upsilon",),
    "wave_speed.scan": ("chemowave.cli_io.scan",),
    "wave_speed.refine_roots": ("chemowave.cli_io.refine_roots",),
    "wave_speed.verify_root": ("chemowave.cli_io.verify_root",),
    "cauchy_sim.step": ("chemowave.cauchy_sim.step",),
    "cauchy_sim.run": ("chemowave.cli_io.run",),
    "cli_io.main": ("chemowave.cli_io.main",),
    "cli_io.load_config": ("chemowave.cli_io.load_config",),
    "cli_io.emit": tuple(
        f"chemowave.cli_io.{name}"
        for name in (
            "emit_upsilon_csv",
            "emit_speeds_summary",
            "emit_profile_csv",
            "emit_snapshot_csv",
            "emit_diagnostics_csv",
        )
    ),
}

# velocity-set sizes of the sweep, each with its own upsilon throughput metric
SWEEP_CLASSES = (8, 32, 128)

# error types solve_roots can raise, each reported as its own counter
SOLVE_ROOTS_ERRORS = ("BracketFailure", "SingularLambda", "SpeedNotAdmissible", "SpeedOnVelocityNode")

# Span fields, kept as plain lists: [name, start, end, parent, op, error, attrs]
NAME, START, END, PARENT, OP, ERROR, ATTRS = range(7)


_SIGNATURES: dict = {}


def _bound(fn, args, kwargs) -> dict:
    if fn not in _SIGNATURES:
        _SIGNATURES[fn] = inspect.signature(fn)
    bound = _SIGNATURES[fn].bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _attrs_solve_N(fn, args, kwargs, result) -> dict:
    cells = _bound(fn, args, kwargs)["cells"]
    return {"refinements": round(math.log2((len(result.grid) - 1) / cells))}


def _attrs_step(fn, args, kwargs, result) -> dict:
    return {"dt": result.t - _bound(fn, args, kwargs)["state"].t}


def _attrs_run(fn, args, kwargs, result) -> dict:
    config = _bound(fn, args, kwargs)["config"]
    state = result[0]
    return {
        "mass_drift": abs(total_mass(config, state) - config.initial_rho.mass),
        "cells_per_step": config.model.n_active * config.cells,
    }


def _attrs_scan(fn, args, kwargs, result) -> dict:
    return {"upward_crossings": len(result.upward_crossings)}


def _attrs_refine(fn, args, kwargs, result) -> dict:
    return {"roots": len(result)}


def _attrs_upsilon(fn, args, kwargs) -> dict:
    return {"n": _bound(fn, args, kwargs)["model"].n_active}


def _attrs_emit(fn, args, kwargs, result) -> dict:
    return {"bytes": Path(_bound(fn, args, kwargs)["path"]).stat().st_size}


# hooks on the arguments, run before the call, so that a failed call has them too
_ARG_HOOKS = {"upsilon": _attrs_upsilon}

# hooks on the result, run after a call that returned
_ATTR_HOOKS = {
    "solve_N": _attrs_solve_N,
    "step": _attrs_step,
    "run": _attrs_run,
    "scan": _attrs_scan,
    "refine_roots": _attrs_refine,
}


class _ResonanceCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("resonant source mode"):
            self.count += 1


class Tracer:
    """In-memory span recorder.  A span opened with no open parent starts a new operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0
        self.resonance = _ResonanceCounter()

    def _wrap(self, fn, span_name: str, attr_hook, arg_hook):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._ops += 1
            idx = len(spans)
            span = [span_name, 0.0, 0.0, parent, self._ops, None, None]
            if arg_hook is not None:
                span[ATTRS] = arg_hook(fn, args, kwargs)
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = time.perf_counter()
            if attr_hook is not None:
                span[ATTRS] = attr_hook(fn, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every call site in LAYER_CALLS; restore the originals on exit."""
        originals = []
        try:
            for sites in LAYER_CALLS.values():
                for site in sites:
                    module_name, attr = site.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                    hook = _attrs_emit if attr.startswith("emit_") else _ATTR_HOOKS.get(attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, site, hook, _ARG_HOOKS.get(attr)))
            logging.getLogger("chemowave.wave_speed").addHandler(self.resonance)
            yield self
        finally:
            logging.getLogger("chemowave.wave_speed").removeHandler(self.resonance)
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                         "parent": s[PARENT], "op": s[OP], "error": s[ERROR], "attrs": s[ATTRS]}
                    )
                    + "\n"
                )


def children_of(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def covered(spans: list[list], idx: int, kids: list[int]) -> float:
    """Length of the part of span ``idx`` that its children cover."""
    lo, hi = spans[idx][START], spans[idx][END]
    total, reach = 0.0, lo
    for a, b in sorted((max(spans[k][START], lo), min(spans[k][END], hi)) for k in kids):
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def _ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, from one traced pass (set-up included)."""
    spans = tracer.spans
    kids = children_of(spans)
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYER_CALLS}
    site_layer = {site: layer for layer, sites in LAYER_CALLS.items() for site in sites}
    for i, s in enumerate(spans):
        by_layer[site_layer[s[NAME]]].append(i)

    def durations(layer: str) -> list[float]:
        return [spans[i][END] - spans[i][START] for i in by_layer[layer]]

    def self_times(layer: str) -> list[float]:
        return [spans[i][END] - spans[i][START] - covered(spans, i, kids[i]) for i in by_layer[layer]]

    def failed(layer: str) -> int:
        return sum(1 for i in by_layer[layer] if spans[i][ERROR] is not None)

    def attr_sum(layer: str, key: str) -> float:
        return sum(spans[i][ATTRS][key] for i in by_layer[layer] if spans[i][ATTRS])

    m: dict[str, float] = {}
    m["velocity_model.build_model.ms"] = _ms(durations("velocity_model.build_model"), 50)
    m["velocity_model.admissible_speed_interval.ms"] = _ms(
        durations("velocity_model.admissible_speed_interval"), 50
    )

    roots = durations("dispersion.solve_roots")
    m["dispersion.solve_roots.calls"] = len(roots)
    m["dispersion.solve_roots.ms_p50"] = _ms(roots, 50)
    m["dispersion.solve_roots.ms_p99"] = _ms(roots, 99)
    m["dispersion.solve_roots.failed"] = failed("dispersion.solve_roots")
    for err in SOLVE_ROOTS_ERRORS:
        m[f"dispersion.solve_roots.failed.{err}"] = sum(
            1 for i in by_layer["dispersion.solve_roots"] if spans[i][ERROR] == err
        )

    m["wave_profile.solve_modes.calls"] = len(by_layer["wave_profile.solve_modes"])
    m["wave_profile.solve_modes.self_ms_p50"] = _ms(self_times("wave_profile.solve_modes"), 50)
    m["wave_profile.solve_modes.failed"] = failed("wave_profile.solve_modes")

    m["chemo_fields.solve_S.calls"] = len(by_layer["chemo_fields.solve_S"])
    m["chemo_fields.solve_S.ms_p50"] = _ms(durations("chemo_fields.solve_S"), 50)
    m["chemo_fields.solve_N.calls"] = len(by_layer["chemo_fields.solve_N"])
    m["chemo_fields.solve_N.ms_p50"] = _ms(durations("chemo_fields.solve_N"), 50)
    m["chemo_fields.solve_N.refinements"] = attr_sum("chemo_fields.solve_N", "refinements")

    m["wave_speed.upsilon.calls"] = len(by_layer["wave_speed.upsilon"])
    m["wave_speed.upsilon.self_ms_p50"] = _ms(self_times("wave_speed.upsilon"), 50)
    for n in SWEEP_CLASSES:
        calls = [spans[i] for i in by_layer["wave_speed.upsilon"] if spans[i][ATTRS]["n"] == n]
        busy = sum(s[END] - s[START] for s in calls)
        ok = sum(1 for s in calls if s[ERROR] is None)
        m[f"wave_speed.upsilon.ok_per_s.n{n}"] = ok / busy if busy else 0.0
    m["wave_speed.scan.s"] = sum(durations("wave_speed.scan"))
    m["wave_speed.refine_roots.s"] = sum(durations("wave_speed.refine_roots"))
    refined = attr_sum("wave_speed.refine_roots", "roots")
    refine_upsilon = sum(
        1
        for r in by_layer["wave_speed.refine_roots"]
        for k in kids[r]
        if spans[k][NAME] == "chemowave.wave_speed.upsilon"
    )
    m["wave_speed.refine_roots.upsilon_per_root"] = refine_upsilon / refined if refined else 0.0
    m["wave_speed.verify_root.s"] = sum(durations("wave_speed.verify_root"))
    m["wave_speed.upward_crossings"] = attr_sum("wave_speed.scan", "upward_crossings")
    m["wave_speed.resonance_retries"] = tracer.resonance.count

    steps = durations("cauchy_sim.step")
    m["cauchy_sim.step.calls"] = len(steps)
    m["cauchy_sim.step.ms_p50"] = _ms(steps, 50)
    m["cauchy_sim.step.ms_p99"] = _ms(steps, 99)
    run_time = sum(durations("cauchy_sim.run"))
    m["cauchy_sim.step.busy_share"] = sum(steps) / run_time if run_time else 0.0
    halvings = 0
    updates = 0
    for r in by_layer["cauchy_sim.run"]:
        dts = [spans[k][ATTRS]["dt"] for k in kids[r] if spans[k][ATTRS]]
        # the last step is cut to land on t_end, so it is not a halving
        halvings += sum(1 for a, b in zip(dts[:-2], dts[1:-1]) if b < 0.75 * a)
        if spans[r][ATTRS]:
            updates += len(dts) * spans[r][ATTRS]["cells_per_step"]
    m["cauchy_sim.dt_halvings"] = halvings
    drifts = [spans[i][ATTRS]["mass_drift"] for i in by_layer["cauchy_sim.run"] if spans[i][ATTRS]]
    m["cauchy_sim.mass_drift"] = max(drifts, default=0.0)
    m["cauchy_sim.cell_updates"] = updates

    m["cli_io.load_config.ms"] = _ms(durations("cli_io.load_config"), 50)
    m["cli_io.emit.s"] = sum(durations("cli_io.emit"))
    m["cli_io.emit.files"] = len(by_layer["cli_io.emit"])
    m["cli_io.emit.bytes"] = attr_sum("cli_io.emit", "bytes")
    return m
