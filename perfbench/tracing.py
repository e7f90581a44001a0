"""In-memory span tracing of curvetomo, installed from the benchmark's side.

``Tracer.installed(run_id)`` replaces the public entry points of each module
with wrappers that record one span per call, and restores the originals on
exit, so untraced jobs run the unmodified program.  A wrapper goes on the
module attribute through which the calling layer looks the function up:
``operators.project_to_level`` traces the projection as called while building
the plan, ``cli.read_grid_file`` the grid reads of the CLI.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent`` (id of
the enclosing span or None), ``run`` (the job id) and optional measured
attributes.  ``layer_metrics`` turns the spans of one job into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time

import numpy as np

from curvetomo import cli, io_cli, operators, phantom, recon


def _file_bytes(path):
    return os.path.getsize(path) + os.path.getsize(str(path) + ".json")


def _plan_attrs(args, kwargs, result):
    plan = args[0]._plan
    n_bytes = sum(a.nbytes for a in (plan.points, plan.coeff, plan.curve_id, plan.failed))
    return {"points": len(plan.coeff), "bytes": n_bytes, "curves": plan.n_curves,
            "active_curves": int(np.unique(plan.curve_id).size),
            "failed_curves": int(plan.failed.sum())}


def _forward_attrs(args, kwargs, result):
    tr, f = args[0], args[1]
    plan = tr.plan
    # computed, not measured: plan arrays, image and sinogram each moved once
    n_bytes = (plan.points.nbytes + plan.coeff.nbytes + plan.curve_id.nbytes
               + f.values.nbytes + result.values.nbytes)
    return {"nan": int(np.sum(~np.isfinite(result.values))), "bytes": n_bytes}


def _solve_attrs(args, kwargs, result):
    report = result[1]
    history = report.residual_history
    return {"iterations": report.iterations,
            "final_residual": history[-1] if history else 0.0}


# (owner, attribute, span name, attributes measured before the call, after it)
_TARGETS = [
    (operators, "project_to_level", "geometry.project", None, None),
    (operators, "_trace_batch", "geometry.trace", None, None),
    (operators.LevelSetTransform, "_build_plan", "operators.plan", None, _plan_attrs),
    (operators.LevelSetTransform, "forward", "operators.forward", None, _forward_attrs),
    (operators.LevelSetTransform, "adjoint", "operators.adjoint",
     lambda args, kwargs: {"first": args[0]._adj_tables is None}, None),
    (operators.NormalOperator, "apply", "operators.normal_apply", None, None),
    (operators.NormalOperator, "back_data", "operators.back_data", None, None),
    (operators, "build_default_atlas", "operators.atlas", None, None),
    (cli, "build_default_atlas", "operators.atlas", None, None),
    (operators, "solve_time_for_direction", "microlocal.solve_time", None, None),
    (recon, "cg_normal_solve", "recon.cg", None, _solve_attrs),
    (cli, "cg_normal_solve", "recon.cg", None, _solve_attrs),
    (phantom, "render_phantom", "phantom.render", None, None),
    (cli, "render_phantom", "phantom.render", None, None),
    (cli, "read_grid_file", "io_cli.read", lambda args, kwargs: {"bytes": _file_bytes(args[0])},
     None),
    (cli, "write_grid_file", "io_cli.write", None,
     lambda args, kwargs, result: {"bytes": _file_bytes(args[0])}),
    (cli, "crc64", "io_cli.crc64", None, None),
    (io_cli, "crc64", "io_cli.crc64", None, None),
    (cli, "main", None, None, None),   # span named cli.<subcommand>
]


class Tracer:
    """Records spans of traced jobs; ``spans`` grows until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._run_id = None

    def _wrap(self, fn, name, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name or f"cli.{args[0][0]}",
                    "run": self._run_id, "parent": self._stack[-1] if self._stack else None}
            if before is not None:
                span.update(before(args, kwargs))
            self._stack.append(span["id"])
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                span.update(after(args, kwargs, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self, run_id):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in _TARGETS]
        self._run_id = run_id
        try:
            for owner, attr, name, before, after in _TARGETS:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, before, after))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it.  Below 20 samples that percentile would not exceed the median,
    so the maximum (percentile 100) is reported instead."""
    v = sorted(values)
    if not v:
        return 0.0, None
    if len(v) < 20:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(spans):
    """Per-layer metrics of the spans of one job.  Layers a workload never
    calls give 0."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)

    def total(name):
        return sum(_dur(s) for s in by.get(name, []))

    def self_time(name):
        return sum(_dur(s) - child_time.get(s["id"], 0.0) for s in by.get(name, []))

    def count(name):
        return len(by.get(name, []))

    m = {}

    def per_call(key, durations):
        m[f"{key}.p50"] = statistics.median(durations) if durations else 0.0
        m[f"{key}.tail"] = tail(durations)[0]

    m["geometry.project_s"] = total("geometry.project")
    m["geometry.trace_s"] = total("geometry.trace")
    m["geometry.trace_calls"] = count("geometry.trace")

    plans = by.get("operators.plan", [])
    m["operators.plan_s"] = total("operators.plan")
    m["operators.plan_self_s"] = self_time("operators.plan")
    m["operators.plan_builds"] = len(plans)
    big = max(plans, key=lambda s: s["points"]) if plans else None
    m["operators.plan_points"] = big["points"] if big else 0
    m["operators.plan_bytes"] = big["bytes"] if big else 0
    m["operators.curves"] = sum(s["curves"] for s in plans)
    m["operators.active_curve_frac"] = (
        sum(s["active_curves"] for s in plans) / m["operators.curves"] if plans else 0.0)
    m["operators.failed_curves"] = sum(s["failed_curves"] for s in plans)

    fwd = by.get("operators.forward", [])
    m["operators.nan_samples"] = sum(s["nan"] for s in fwd)
    per_call("operators.forward_s", [_dur(s) for s in fwd])
    m["operators.forward_calls"] = len(fwd)
    m["operators.forward_bytes"] = fwd[-1]["bytes"] if fwd else 0
    m["operators.forward_gbps"] = (m["operators.forward_bytes"] / m["operators.forward_s.p50"]
                                   / 1e9 if fwd else 0.0)

    adj = by.get("operators.adjoint", [])
    m["operators.adjoint_first_s"] = sum(_dur(s) for s in adj if s["first"])
    per_call("operators.adjoint_s", [_dur(s) for s in adj if not s["first"]])
    m["operators.adjoint_calls"] = len(adj)

    applies = by.get("operators.normal_apply", [])
    per_call("operators.normal_apply_s", [_dur(s) for s in applies])
    m["operators.normal_apply_calls"] = len(applies)

    m["operators.atlas_s"] = total("operators.atlas")
    m["microlocal.solve_time_s"] = total("microlocal.solve_time")
    m["microlocal.solve_time_calls"] = count("microlocal.solve_time")

    solves = by.get("recon.cg", [])
    solve_ids = {s["id"] for s in solves}
    m["recon.iterations"] = sum(s["iterations"] for s in solves)
    # one normal-operator apply per iteration: an iteration runs from one
    # apply's start to the next
    starts = [s["start"] for s in applies if s["parent"] in solve_ids]
    per_call("recon.iter_s", list(np.diff(starts)))
    m["recon.self_s"] = self_time("recon.cg")
    m["recon.back_data_s"] = sum(_dur(s) for s in by.get("operators.back_data", [])
                                 if s["parent"] in solve_ids)
    m["recon.final_residual"] = solves[-1]["final_residual"] if solves else 0.0

    m["phantom.render_s"] = total("phantom.render")
    m["io_cli.read_s"] = total("io_cli.read")
    m["io_cli.write_s"] = total("io_cli.write")
    m["io_cli.crc64_s"] = total("io_cli.crc64")
    m["io_cli.bytes_read"] = sum(s["bytes"] for s in by.get("io_cli.read", []))
    m["io_cli.bytes_written"] = sum(s["bytes"] for s in by.get("io_cli.write", []))
    for cmd in ("phantom", "forward", "reconstruct"):
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    return m
