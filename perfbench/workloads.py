"""The benchmark workloads: seeded inputs, one timed job, output checks.

Every job regenerates its inputs from the run seed, so all jobs of one run see
the same inputs and ``rel_error`` depends on the seed alone.  The program
modules are always called through their module attributes
(``phantom.render_phantom``, ``recon.cg_normal_solve``), so the wrappers
that ``tracing.py`` installs on those attributes see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import time

import numpy as np
from scipy import ndimage

from curvetomo import cli, geometry, io_cli, operators, phantom, recon

DUALITY_TOL = 1e-3   # the ``adjoint-test`` default


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    motion: tuple          # (name, params) for geometry.make_motion; None = static
    nx: int
    ns: int
    nt: int
    iters: int
    rel_error_ceiling: float
    cli: bool = False
    n_charts: int = 1


# Why each workload exists is recorded in BENCHMARK.json.  Ceilings sit ~1.5x
# above every seed's measured rel_error and far below that of a broken
# operator (a zero reconstruction scores 1.0).
WORKLOADS = {
    w.name: w for w in (
        Workload("solve_static", None, 64, 68, 180, 40, 0.04),
        Workload("cli_rotation_atlas", ("rotation", {"rate": 0.3}), 64, 68, 180, 10, 0.35,
                 cli=True, n_charts=2),
    )
}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def seeded_ellipses(seed, spacing):
    """The ``recon_phantom`` disk + ellipse, each moved by -1, 0 or +1 pixels
    along each axis and scaled in density by up to 5%.  Moves stay on the
    pixel lattice: a sub-pixel move changes how edges alias, which moves
    ``rel_error`` by ~10% from seed to seed, more than a regression bound."""
    rng = np.random.default_rng([seed, 0])
    return [dataclasses.replace(e, center=tuple(float(c) for c in
                                                np.add(e.center, spacing * rng.integers(-1, 2, 2))),
                                density=float(e.density * rng.uniform(0.95, 1.05)))
            for e in phantom.recon_phantom()]


def duality_gap(tr, seed):
    """|<Af, g> - <f, A*g>| / (||Af|| ||g||) for one seeded smooth pair."""
    rng = np.random.default_rng([seed, 1])
    img = operators.make_image_grid(tr.nx, support_radius=tr.support_radius)
    X = img.pixel_centers()
    inside = np.hypot(X[..., 0], X[..., 1]) <= 0.9 * img.support_radius
    f = img.like(ndimage.gaussian_filter(rng.standard_normal((tr.nx, tr.ny)), 3.0) * inside)
    g = operators.Sinogram(tr.s_grid, tr.t_grid, ndimage.gaussian_filter(
        rng.standard_normal((len(tr.s_grid), len(tr.t_grid))), 3.0, mode="wrap"))
    Af = tr.forward(f)
    return abs(Af.inner(g) - f.inner(tr.adjoint(g))) / (Af.norm() * g.norm())


def masked_rel_error(rec, truth):
    """Relative L2 error inside 0.9x the support (acceptance criterion 6)."""
    X = truth.pixel_centers()
    m = np.hypot(X[..., 0], X[..., 1]) <= 0.9 * truth.support_radius
    return float(np.linalg.norm((rec.values - truth.values)[m])
                 / np.linalg.norm(truth.values[m]))


def _phase(wl):
    if wl.motion is None:
        return geometry.make_static_phase()
    name, params = wl.motion
    return geometry.make_dynamic_phase(geometry.make_motion(name, **params))


def _set_up(tr):
    """Force the plan and the adjoint tables; the first adjoint builds them."""
    tr.plan
    tr.adjoint(operators.Sinogram(tr.s_grid, tr.t_grid,
                                  np.zeros((len(tr.s_grid), len(tr.t_grid)))))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


class JobFailed(Exception):
    """An output check failed."""


def library_job(wl, seed, workdir, traced):
    """Input generation, set-up, data synthesis and a CG solve through the
    library API.  ``traced`` is a context manager around the timed part."""
    with traced:
        t0 = time.perf_counter()
        truth = phantom.render_phantom(
            seeded_ellipses(seed, operators.make_image_grid(wl.nx).spacing), wl.nx)
        t1 = time.perf_counter()
        tr = operators.LevelSetTransform(_phase(wl), geometry.UnitWeight(), truth,
                                         operators.SinoSpec(ns=wl.ns, nt=wl.nt))
        _set_up(tr)
        t2 = time.perf_counter()
        g = tr.forward(truth)
        normal = operators.NormalOperator(tr, operators.CutoffAtlas.trivial(), symmetric=True)
        t3 = time.perf_counter()
        rec, report = recon.cg_normal_solve(normal, g, max_iter=wl.iters, tol=0.0)
        t4 = time.perf_counter()
    if not np.all(np.isfinite(g.values)):
        raise JobFailed("sinogram has NaN samples")
    return {"setup_s": t2 - t1, "solve_s": t4 - t3, "job_s": t4 - t0,
            "rel_error": masked_rel_error(rec, truth), "duality_gap": duality_gap(tr, seed),
            "iterations": report.iterations}


def _cli_config(wl, seed):
    return {
        "phase": {"family": "dynamic", "motion": {"name": wl.motion[0], **wl.motion[1]}},
        "weight": {"name": "unit"},
        "image": {"nx": wl.nx, "support_radius": 1.0},
        "sinogram": {"ns": wl.ns, "nt": wl.nt},
        "atlas": {"n_charts": wl.n_charts},
        "seed": seed,
        "phantom": [{"center": list(e.center), "semi_axes": list(e.semi_axes),
                     "angle": e.angle, "density": e.density}
                    for e in seeded_ellipses(seed, operators.make_image_grid(wl.nx).spacing)],
    }


def cli_job(wl, seed, workdir, traced):
    """``phantom``, ``forward`` and ``reconstruct`` through ``cli.main``.

    Set-up happens inside ``forward`` and ``reconstruct``, out of reach of an
    untraced run, so ``setup_s`` is measured first, outside ``job_s``, by
    building what ``reconstruct`` builds before its solve from the same
    config: the transform, its plan, its adjoint tables and the atlas.
    ``solve_s`` is the solve runtime ``reconstruct`` writes to its manifest.
    """
    raw = _cli_config(wl, seed)
    config = io_cli.GeometryConfig.from_dict(raw)
    t0 = time.perf_counter()
    pf, mu, spec, image_kw = io_cli.build_geometry(config)
    tr = operators.LevelSetTransform(pf, mu, operators.make_image_grid(**image_kw), spec,
                                     interp=config.interp, chunk_t=config.chunk_t)
    _set_up(tr)
    operators.build_default_atlas(pf, image_kw["support_radius"], wl.n_charts)
    setup_s = time.perf_counter() - t0
    gap = duality_gap(tr, seed)
    del tr

    d = {k: os.path.join(workdir, k) for k in ("phantom", "forward", "reconstruct")}
    for path in d.values():            # no output of an earlier job is read back
        shutil.rmtree(path, ignore_errors=True)
    cfg_path = os.path.join(workdir, "config.json")
    steps = [
        ["phantom", "--out-dir", d["phantom"]],
        ["forward", "--image", os.path.join(d["phantom"], "phantom.grid"),
         "--out-dir", d["forward"]],
        ["reconstruct", "--data", os.path.join(d["forward"], "sinogram.grid"),
         "--iters", str(wl.iters), "--tol", "0", "--out-dir", d["reconstruct"]],
    ]
    with traced:
        t0 = time.perf_counter()
        with open(cfg_path, "w") as fh:
            json.dump(raw, fh)
        for step in steps:
            code = cli.main([step[0], "--config", cfg_path] + step[1:])
            if code:
                raise JobFailed(f"curvetomo {step[0]} exited with {code}")
        job_s = time.perf_counter() - t0
    truth, _ = io_cli.read_grid_file(os.path.join(d["phantom"], "phantom.grid"))
    g, _ = io_cli.read_grid_file(os.path.join(d["forward"], "sinogram.grid"))
    rec, _ = io_cli.read_grid_file(os.path.join(d["reconstruct"], "reconstruction.grid"))
    if not np.all(np.isfinite(g.values)):
        raise JobFailed("sinogram has NaN samples")
    with open(os.path.join(d["reconstruct"], "manifest.json")) as fh:
        metrics = json.load(fh)["metrics"]
    return {"setup_s": setup_s, "solve_s": metrics["runtime_s"], "job_s": job_s,
            "rel_error": masked_rel_error(rec, truth), "duality_gap": gap,
            "iterations": metrics["iterations"]}


def run_job(wl, seed, workdir, traced):
    """One job plus its output checks; raises on any failure."""
    out = (cli_job if wl.cli else library_job)(wl, seed, workdir, traced)
    if out["iterations"] != wl.iters:
        raise JobFailed(f"{out['iterations']} solver iterations, expected {wl.iters}")
    rel = out["rel_error"]
    if not (math.isfinite(rel) and rel < wl.rel_error_ceiling):
        raise JobFailed(f"rel_error {rel} not under the ceiling {wl.rel_error_ceiling}")
    if not out["duality_gap"] <= DUALITY_TOL:
        raise JobFailed(f"duality gap {out['duality_gap']:.3e} exceeds {DUALITY_TOL}")
    return out
