"""curvetomo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve_static --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  A run repeats the workload's job (at least twice, then while the
next job is predicted to end within ``--seconds``), checks every job's
outputs, prints a human-readable summary, and prints as its last line one
JSON object: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  A traced run
alternates untraced and traced jobs; the per-layer metrics come from the
traced ones, and ``trace.overhead_s`` is the difference of the two medians.
Environment, job results and spans are written to ``.perfbench/`` when the
run ends.  ``perfbench/selfcheck.py`` runs every workload on a tiny grid and
checks that every metric is emitted.

``workloads`` and ``tracing`` import curvetomo, so they are imported only
after ``import_program`` has put the checkout's sources on the path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_JOBS = 2          # a median set-up time; an untraced job beside a traced one
MAX_SECONDS = 150     # never start a job past this, whatever --seconds says


def import_program():
    """Put the checkout's ``src/`` first on the import path; False if absent."""
    src = ROOT / "src"
    if not (src / "curvetomo" / "__init__.py").is_file():
        print(f"no curvetomo sources under {src}", file=sys.stderr)
        return False
    for var in THREAD_VARS:            # one thread of load
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    return True


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment():
    """Machine and library facts recorded with every result (read-only)."""
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS + ("CURVETOMO_THREADS",)},
        "git_commit": _git_commit(),
    }


def measure(wl, seed, seconds, trace):
    """Run jobs of one workload; returns (attempted, failed, jobs, per-layer
    metrics of each traced job, spans).  Each job dict carries ``traced``."""
    import tracing
    from workloads import run_job

    tracer = tracing.Tracer()
    jobs, layers, failed = [], [], 0
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    longest = 0.0
    k = 0
    try:
        while True:
            elapsed = time.perf_counter() - start
            if elapsed + longest > MAX_SECONDS:
                break
            if k >= MIN_JOBS and elapsed + longest > seconds:
                break
            traced = bool(trace) and k % 2 == 1
            first_span = len(tracer.spans)
            ctx = tracer.installed(k) if traced else contextlib.nullcontext()
            t = time.perf_counter()
            try:
                out = run_job(wl, seed, str(workdir), ctx)
            except Exception:       # a failed job is counted, the run goes on
                failed += 1
                print(f"job {k} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            else:
                out["traced"] = traced
                jobs.append(out)
                if traced:
                    layers.append(tracing.layer_metrics(tracer.spans[first_span:]))
            longest = max(longest, time.perf_counter() - t)
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return k, failed, jobs, layers, tracer.spans


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(jobs, peak_mb):
    plain = [j for j in jobs if not j["traced"]]
    m = {key: statistics.median(j[key] for j in plain)
         for key in ("setup_s", "solve_s", "job_s", "rel_error")}
    m["peak_rss_mb"] = peak_mb
    return m


def per_layer(jobs, layers):
    m = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
    traced = [j for j in jobs if j["traced"]]
    m["operators.duality_gap"] = statistics.median(j["duality_gap"] for j in traced)
    m["trace.overhead_s"] = (statistics.median(j["job_s"] for j in traced)
                             - statistics.median(j["job_s"] for j in jobs if not j["traced"]))
    return m


def emit(values, specs):
    """Metrics named in ``specs`` with their units; a missing one raises."""
    return {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}


COMPUTED = {"operators.forward_bytes", "operators.forward_gbps"}


def summary_lines(wl, seed, attempted, failed, jobs, metrics):
    from tracing import tail

    yield (f"{wl.name} seed {seed}: {attempted} jobs attempted, {failed} failed "
           f"(failed_frac {failed / attempted:.3g})")
    for name, m in metrics.items():
        line = f"  {name:34s} {m['value']:.6g} {m['unit']}"
        if name in COMPUTED:
            line += " (computed from array sizes)"
        values = [j[name] for j in jobs if not j["traced"] and name in j]
        if name.endswith("_s") and len(values) > 1:
            value, pct = tail(values)
            line += (f"  (median of n={len(values)}; "
                     + (f"p{pct:.0f} {value:.6g}" if pct < 100
                        else f"max {value:.6g}, too few samples for a tail percentile")
                     + ")")
        yield line


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not import_program():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    wl = WORKLOADS[args.workload]
    env = environment()
    attempted, failed, jobs, layers, spans = measure(wl, args.seed, args.seconds, args.trace)
    peak_mb = peak_rss_mb()

    metrics = {}
    if any(not j["traced"] for j in jobs) and (layers or not args.trace):
        if args.trace:
            metrics = emit(per_layer(jobs, layers), spec["per_layer"])
        else:
            metrics = emit(end_to_end(jobs, peak_mb), spec["end_to_end"])
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "result": result, "jobs": jobs,
                   "spans": spans}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    for line in summary_lines(wl, args.seed, attempted, failed, jobs, metrics):
        print(line)
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
