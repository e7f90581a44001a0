"""Self-check of the benchmark on a tiny grid.

    python3 perfbench/selfcheck.py

Runs every workload once in traced mode (one untraced and one traced job) on
a 32^2 image and checks that every job passes its output checks, that every
metric named in ``BENCHMARK.json`` is emitted with a unit and a finite
value, that no end-to-end metric is 0, and that the wrappers saw the layers
each workload exists to exercise.  Exits 1 with a list of problems if not.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import run

TINY = {"nx": 32, "ns": 35, "nt": 60}


def check_workload(wl, spec):
    problems = []
    attempted, failed, jobs, layers, _ = run.measure(wl, seed=1, seconds=0, trace=1)
    if (attempted, failed) != (run.MIN_JOBS, 0):
        return [f"{failed} of {attempted} jobs failed"]
    e2e = run.end_to_end(jobs, run.peak_rss_mb())
    layer = run.per_layer(jobs, layers)
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    computed = set(e2e) | set(layer)
    if computed != listed:
        return [f"computed but not listed: {sorted(computed - listed)}; "
                f"listed but not computed: {sorted(listed - computed)}"]
    emitted = {**run.emit(e2e, spec["end_to_end"]), **run.emit(layer, spec["per_layer"])}
    for name, m in emitted.items():
        if not m["unit"] or not math.isfinite(m["value"]):
            problems.append(f"{name}: {m}")
    for m in spec["end_to_end"]:
        if emitted[m["name"]]["value"] == 0:
            problems.append(f"end-to-end metric {m['name']} is 0")

    def value(name):
        return emitted[name]["value"]

    expect = {"operators.plan_builds": 2 if wl.cli else 1,
              "geometry.trace_calls": 2 if wl.cli else 1,
              "recon.iterations": wl.iters,
              "operators.normal_apply_calls": wl.iters + 1}
    for name, want in expect.items():
        if value(name) != want:
            problems.append(f"{name} = {value(name)}, expected {want}")
    busy = ["geometry.trace_s", "operators.plan_s", "operators.forward_s.p50",
            "operators.adjoint_first_s", "recon.iter_s.p50", "recon.back_data_s",
            "phantom.render_s"]
    busy += (["operators.atlas_s", "microlocal.solve_time_calls", "io_cli.read_s",
              "io_cli.write_s", "io_cli.crc64_s", "io_cli.bytes_read",
              "io_cli.bytes_written", "cli.phantom_s", "cli.forward_s",
              "cli.reconstruct_s"] if wl.cli else [])
    problems += [f"{name} is 0" for name in busy if not value(name) > 0]
    return problems


def main():
    if not run.import_program():
        return 2
    from workloads import WORKLOADS

    spec = run.load_spec()
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.py")
        return 1
    bad = 0
    for wl in WORKLOADS.values():
        problems = check_workload(dataclasses.replace(wl, **TINY), spec)
        print(f"{wl.name}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
