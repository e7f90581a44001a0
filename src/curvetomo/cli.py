"""Command-line pipeline: phantom / forward / adjoint-test / check-bolker /
visibility / symbol / normal / reconstruct / stability / perturb-sweep /
fanbeam-convert.

Every run writes its outputs plus a ``manifest.json`` recording the config
hash, input/output checksums, tool version, seed and chunk size, so a rerun
with identical inputs is byte-identical.  Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 coverage/visibility error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy import ndimage

from . import __version__
from .errors import (
    ConfigError,
    CoverageError,
    CurveTomoError,
    DivergenceError,
    NumericBudgetError,
    OutOfRangeError,
)
from .geometry import TWO_PI, BreathingMotion, RotationMotion, fd_derivatives
from .io_cli import (
    _AMPLITUDES,
    _NONNEGATIVE,
    _NUMBERS,
    _PAIR,
    _PHASE,
    _POSITIVE,
    GeometryConfig,
    _count,
    build_geometry,
    crc64,
    fanbeam_convert,
    read_grid_file,
    write_grid_file,
    write_pgm16,
)
from .microlocal import data_projection_rank, principal_symbol, visibility_map
from .operators import (
    CutoffAtlas,
    LevelSetTransform,
    NormalOperator,
    Sinogram,
    build_default_atlas,
    make_image_grid,
)
from .phantom import EllipseSpec, boundary_wavefront, default_phantom, render_phantom
from .recon import cg_normal_solve, landweber_solve, perturbation_sweep, stability_probe


def _floats(text):
    return [float(v) for v in text.split(",")]


def _flag(kind, parse=float):
    """argparse type: ``parse`` of the text, refused with exit 2 unless it is
    a config value of ``kind``, one of io_cli's kinds."""
    what, ok = kind

    def check(text):
        try:
            value = parse(text)
        except ValueError:
            value = None        # no value of any kind
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return check


def _load_config(path):
    if path is None:
        return GeometryConfig.from_dict({})
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return GeometryConfig.from_json(text)


class _Run:
    """One invocation's manifest: each input grid it reads and each artifact
    it writes into ``--out-dir`` is recorded with its checksum."""

    def __init__(self, args, config):
        self.config = config
        self.out_dir = args.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.manifest = {
            "tool": "curvetomo",
            "version": __version__,
            "command": args.command,
            "config_hash": config.hash(),
            "seed": config.seed if args.seed is None else args.seed,
            "chunk_t": config.chunk_t,
            "inputs": {},
            "outputs": {},
            "metrics": {},
        }

    def read_grid(self, path):
        obj, sidecar = read_grid_file(path)
        # the checksum read_grid_file verified against the payload
        self.manifest["inputs"][os.path.basename(path)] = sidecar["checksum"]
        return obj

    def write_grid(self, stem, obj):
        """``<stem>.grid`` with its sidecar, and its ``<stem>.pgm`` quicklook."""
        name = stem + ".grid"
        sidecar = write_grid_file(os.path.join(self.out_dir, name), obj,
                                  geometry_hash=self.config.hash())
        self.manifest["outputs"][name] = sidecar["checksum"]
        self.write_pgm(stem + ".pgm", obj.values)

    def write_pgm(self, name, array):
        write_pgm16(os.path.join(self.out_dir, name), array)
        self._record(name)

    def write_csv(self, name, rows):
        self._write_text(name, "\n".join(",".join(r) for r in rows) + "\n")

    def write_json(self, name, payload):
        self._write_text(name, json.dumps(payload, sort_keys=True, indent=1))

    def _write_text(self, name, text):
        with open(os.path.join(self.out_dir, name), "w") as fh:
            fh.write(text)
        self._record(name)

    def _record(self, name):
        with open(os.path.join(self.out_dir, name), "rb") as fh:
            self.manifest["outputs"][name] = crc64(fh.read())

    def finish(self):
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=1)


def _phantom_from_config(config, nx, support_radius):
    if config.phantom:
        specs = [EllipseSpec(**{k: tuple(v) if isinstance(v, list) else v
                                for k, v in e.items()}) for e in config.phantom]
    else:
        specs = default_phantom()
    return specs, render_phantom(specs, nx, support_radius=support_radius)


def _transform(config, image_like=None):
    """Phase, image grid (``image_like`` or the configured one) and transform."""
    pf, mu, spec, image_kw = build_geometry(config)
    img = make_image_grid(**image_kw) if image_like is None else image_like
    return pf, img, LevelSetTransform(pf, mu, img, spec, interp=config.interp,
                                      chunk_t=config.chunk_t)


def cmd_phantom(args, config, run):
    _, _, _, image_kw = build_geometry(config)
    specs, img = _phantom_from_config(config, image_kw["nx"], image_kw["support_radius"])
    run.write_grid("phantom", img)
    wfs = boundary_wavefront(specs, n_per_ellipse=args.wavefront_samples)
    run.write_csv("wavefront.csv", [["x1", "x2", "xi1", "xi2"]] + [
        [f"{c.x[0]:.12g}", f"{c.x[1]:.12g}", f"{c.xi[0]:.12g}", f"{c.xi[1]:.12g}"]
        for c in wfs.samples])


def cmd_forward(args, config, run):
    img = run.read_grid(args.image)
    _, _, tr = _transform(config, img)
    g = tr.forward(img)
    n_nan = int(np.sum(~np.isfinite(g.values)))
    run.manifest["metrics"]["nan_samples"] = n_nan
    run.manifest["metrics"].update(tr.stats)
    run.write_grid("sinogram", g)


def cmd_adjoint_test(args, config, run):
    _, img, tr = _transform(config)
    rng = np.random.default_rng(run.manifest["seed"])
    worst = 0.0
    for _ in range(args.pairs):
        f = img.like(ndimage.gaussian_filter(rng.standard_normal((img.nx, img.ny)), 3.0))
        rad = np.hypot(*np.moveaxis(img.pixel_centers(), -1, 0))
        f = img.like(f.values * (rad <= 0.95 * img.support_radius))
        g = Sinogram(tr.s_grid, tr.t_grid, ndimage.gaussian_filter(
            rng.standard_normal((len(tr.s_grid), len(tr.t_grid))), 3.0, mode="wrap"))
        Af = tr.forward(f)
        bp = tr.adjoint(g)
        rel = abs(Af.inner(g) - f.inner(bp)) / (Af.norm() * g.norm())
        worst = max(worst, rel)
    run.manifest["metrics"]["adjoint_discrepancy"] = worst
    run.manifest["metrics"]["tolerance"] = args.tol
    run.manifest["metrics"].update(tr.stats)
    if worst > args.tol:
        raise NumericBudgetError(f"adjoint discrepancy {worst:.3e} exceeds {args.tol}")


def cmd_check_bolker(args, config, run):
    pf, _, _, image_kw = build_geometry(config)
    r = image_kw["support_radius"]
    n = args.grid
    xs = np.linspace(-r, r, n)
    t_vals = np.linspace(pf.t_range[0], pf.t_range[1], args.times, endpoint=False)
    # every branch-valid sample, in (t, x1, x2) order
    T, X1, X2 = np.meshgrid(t_vals, xs, xs, indexing="ij")
    valid = pf.branch_mask(T, np.stack([X1, X2], axis=-1))
    t, x = T[valid], np.stack([X1[valid], X2[valid]], axis=-1)
    if not len(t):
        raise OutOfRangeError(f"no point of the {n} x {n} grid is on the phase's branch "
                              f"at any of the {args.times} times in {pf.t_range}")
    h = np.zeros(T.shape)
    h[valid] = fd_derivatives(pf, t, x).h
    rank, det = data_projection_rank(pf, t, x, sigma=1.0)
    rows = [[f"{a:.9g}", f"{b:.9g}", f"{c:.9g}", f"{d:.12g}", str(e), f"{f:.12g}"]
            for a, b, c, d, e, f in zip(t.tolist(), *x.T.tolist(), h[valid].tolist(),
                                        rank.tolist(), det.tolist())]
    run.write_csv("bolker.csv", [["t", "x1", "x2", "h", "rank", "det"]] + rows)
    run.write_pgm("bolker_h.pgm", np.abs(h[0]))
    h_vals = np.array([float(r_[3]) for r_ in rows])
    run.manifest["metrics"]["min_abs_h"] = float(np.min(np.abs(h_vals)))
    run.manifest["metrics"]["max_abs_h"] = float(np.max(np.abs(h_vals)))


def cmd_visibility(args, config, run):
    pf, _, _, image_kw = build_geometry(config)
    x = np.array(args.point)
    vm = visibility_map(pf, x, args.n_dirs)
    rows = [["dir1", "dir2", "count", "witnesses"]]
    for i in range(len(vm.directions)):
        wit = ";".join(f"{t:.9g}" for t, _ in vm.t_witness[i])
        rows.append([f"{vm.directions[i,0]:.9g}", f"{vm.directions[i,1]:.9g}",
                     str(int(vm.count[i])), wit])
    run.write_csv("visibility.csv", rows)
    # coarse count heatmap over the support
    n = 17
    r = image_kw["support_radius"]
    grid = np.linspace(-r * 0.95, r * 0.95, n)
    X1, X2 = np.meshgrid(grid, grid, indexing="ij")
    inside = np.hypot(X1, X2) <= r
    counts = np.zeros((n, n))
    counts[inside] = visibility_map(pf, np.stack([X1[inside], X2[inside]], axis=-1),
                                    8).count.min(axis=1)
    run.write_pgm("visibility_counts.pgm", counts)
    frac = float(np.mean(vm.count > 0))
    run.manifest["metrics"]["visible_fraction"] = frac
    if args.require_full and frac < 1.0:
        raise CoverageError(f"only {frac:.2%} of directions visible at {x.tolist()}")


def cmd_symbol(args, config, run):
    pf, mu, _, _ = build_geometry(config)
    atlas = CutoffAtlas.trivial()
    rows = [["xi1", "xi2", "p", "W_plus", "W_minus", "h_tilde", "visible", "t_used"]]
    angles = [TWO_PI * k / args.n_dirs for k in range(args.n_dirs)]
    xis = np.array([[math.cos(a), math.sin(a)] for a in angles]) * args.xi_norm
    for sv in principal_symbol(pf, mu, atlas, np.array(args.point), xis):
        rows.append([f"{sv.xi[0]:.9g}", f"{sv.xi[1]:.9g}", f"{sv.p:.12g}", f"{sv.W_plus:.12g}",
                     f"{sv.W_minus:.12g}", f"{sv.h_tilde:.12g}", str(sv.visible),
                     "" if sv.t_used is None else f"{sv.t_used:.9g}"])
    run.write_csv("symbol.csv", rows)


def cmd_normal(args, config, run):
    img = run.read_grid(args.image)
    pf, _, tr = _transform(config, img)
    atlas = build_default_atlas(pf, img.support_radius, config.settings("atlas")["n_charts"])
    Nf = NormalOperator(tr, atlas, symmetric=args.symmetric).apply(img)
    run.manifest["metrics"].update(tr.stats)
    run.write_grid("normal", Nf)


def cmd_reconstruct(args, config, run):
    g = run.read_grid(args.data)
    pf, img, tr = _transform(config)
    try:
        tr.check_sinogram(g)
    except ValueError as exc:
        raise ConfigError(f"{args.data} does not fit the config: {exc}") from None
    atlas = build_default_atlas(pf, img.support_radius, config.settings("atlas")["n_charts"])
    op = NormalOperator(tr, atlas)
    if args.solver == "cg":
        rec, report = cg_normal_solve(op, g, max_iter=args.iters, tol=args.tol,
                                      tikhonov=args.tikhonov)
    else:
        rec, report = landweber_solve(op, g, max_iter=args.iters,
                                      seed=run.manifest["seed"])
    run.write_grid("reconstruction", rec)
    run.manifest["metrics"].update({
        "iterations": report.iterations,
        "final_residual": report.residual_history[-1] if report.residual_history else 0.0,
        "runtime_s": report.runtime,
        **tr.stats,
    })
    run.write_json("solve_report.json", {
        "iterations": report.iterations,
        "residual_history": report.residual_history,
        "runtime": report.runtime,
        "iteration_s": report.iteration_s,
    })


# the stability probe's motion families, each a map from amplitude to motion
_STABILITY_FAMILIES = {"breathing": BreathingMotion, "rotation": lambda a: RotationMotion(-a)}


def cmd_stability(args, config, run):
    report = stability_probe(_STABILITY_FAMILIES[args.family], args.amplitudes,
                             n_samples=args.samples, nx=args.nx, nt=args.nt,
                             seed=run.manifest["seed"])
    run.write_json("stability.json", {
        "amplitudes": report.amplitudes,
        "ratios": {str(a): r for a, r in report.ratios.items()},
        "median_ratio": {str(a): v for a, v in report.median_ratio.items()},
        "max_ratio": {str(a): v for a, v in report.max_ratio.items()},
        "min_ratio": {str(a): v for a, v in report.min_ratio.items()},
        "degenerate_flags": {str(a): v for a, v in report.degenerate_flags.items()},
        "seed": report.seed,
    })
    run.write_csv("stability.csv", [["amplitude", "sample", "ratio"]] + [
        [f"{a:.9g}", str(i), f"{r:.12g}"]
        for a in report.amplitudes for i, r in enumerate(report.ratios[a])])


def cmd_perturb_sweep(args, config, run):
    table = perturbation_sweep(args.deltas, nx=args.nx, nt=args.nt, seed=run.manifest["seed"])
    run.write_json("perturb.json", {"deltas": table.deltas, "ratios": table.ratios,
                                    "slope": table.slope, "monotone": table.monotone})
    run.write_csv("perturb.csv", [["delta", "ratio"]] + [
        [f"{d:.9g}", f"{r:.12g}"] for d, r in zip(table.deltas, table.ratios)])


def cmd_fanbeam_convert(args, config, run):
    if config.phase["family"] == "fanbeam":
        R = float(config.settings("phase")["R"])
        if args.R not in (None, R):
            raise ConfigError(f"--R {args.R} contradicts the fan config's R = {R}")
    else:
        R = _PHASE.tables["fanbeam"]["R"].default if args.R is None else args.R
    g_par, info = fanbeam_convert(run.read_grid(args.data), R, ns=args.ns,
                                  n_beta=args.n_beta, weight_jacobian=args.weight_jacobian)
    run.manifest["metrics"].update(info, R=R)
    run.write_grid("parallel", g_par)


def build_parser():
    p = argparse.ArgumentParser(prog="curvetomo",
                                description="dynamic tomography over level curves")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, cmd, summary):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(cmd=cmd)
        sp.add_argument("--config", default=None, help="geometry config JSON")
        sp.add_argument("--out-dir", default=".", help="output directory")
        sp.add_argument("--seed", type=_flag(_count(0), int), default=None)
        return sp

    sp = command("phantom", cmd_phantom, "render the configured phantom")
    sp.add_argument("--wavefront-samples", type=_flag(_count(8), int), default=64)

    sp = command("forward", cmd_forward, "apply the forward transform")
    sp.add_argument("--image", required=True)

    sp = command("adjoint-test", cmd_adjoint_test, "duality check on random pairs")
    sp.add_argument("--pairs", type=_flag(_count(1), int), default=3)
    sp.add_argument("--tol", type=_flag(_NONNEGATIVE), default=1e-3)

    sp = command("check-bolker", cmd_check_bolker, "local Bolker determinant map")
    sp.add_argument("--grid", type=_flag(_count(1), int), default=9)
    sp.add_argument("--times", type=_flag(_count(1), int), default=4)

    sp = command("visibility", cmd_visibility, "per-direction witness times")
    sp.add_argument("--point", type=_flag(_PAIR, _floats), default="0.0,0.0")
    sp.add_argument("--n-dirs", type=_flag(_count(8), int), default=32)
    sp.add_argument("--require-full", action="store_true",
                    help="exit 4 unless every direction is visible")

    sp = command("symbol", cmd_symbol, "principal symbol samples")
    sp.add_argument("--point", type=_flag(_PAIR, _floats), default="0.1,0.0")
    sp.add_argument("--n-dirs", type=_flag(_count(1), int), default=16)
    sp.add_argument("--xi-norm", type=_flag(_POSITIVE), default=8.0)

    sp = command("normal", cmd_normal, "apply the cutoff normal operator")
    sp.add_argument("--image", required=True)
    sp.add_argument("--symmetric", action="store_true")

    sp = command("reconstruct", cmd_reconstruct, "iterative normal-equation solve")
    sp.add_argument("--data", required=True)
    sp.add_argument("--iters", type=_flag(_count(1), int), default=50)
    sp.add_argument("--tol", type=_flag(_NONNEGATIVE), default=1e-6,
                    help="CG stops once the residual, in the ramp preconditioner's "
                         "norm and relative to the right-hand side's, is below this "
                         "(default 1e-6; Landweber ignores it)")
    sp.add_argument("--tikhonov", type=_flag(_NONNEGATIVE), default=0.0)
    sp.add_argument("--solver", choices=("cg", "landweber"), default="cg")

    sp = command("stability", cmd_stability, "stability-ratio probe")
    sp.add_argument("--family", choices=_STABILITY_FAMILIES, default="breathing")
    sp.add_argument("--amplitudes", type=_flag(_AMPLITUDES, _floats), default="0.0,0.02,0.05")
    sp.add_argument("--samples", type=_flag(_count(1), int), default=12)
    sp.add_argument("--nx", type=_flag(_count(1), int), default=48)
    sp.add_argument("--nt", type=_flag(_count(1), int), default=120)

    sp = command("perturb-sweep", cmd_perturb_sweep, "operator perturbation scaling")
    sp.add_argument("--deltas", type=_flag(_NUMBERS, _floats),
                    default="0.0,0.001,0.003,0.01,0.03")
    sp.add_argument("--nx", type=_flag(_count(1), int), default=48)
    sp.add_argument("--nt", type=_flag(_count(1), int), default=120)

    sp = command("fanbeam-convert", cmd_fanbeam_convert, "rebin fan data to parallel")
    sp.add_argument("--data", required=True)
    sp.add_argument("--R", type=_flag(_POSITIVE), default=None,
                    help="source radius; a fan config's R is used, and --R must equal it")
    sp.add_argument("--ns", type=_flag(_count(1), int), default=128)
    sp.add_argument("--n-beta", type=_flag(_count(1), int), default=180)
    sp.add_argument("--weight-jacobian", action="store_true")

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        run = _Run(args, config)
        args.cmd(args, config, run)
        run.finish()
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CoverageError, OutOfRangeError) as exc:
        print(f"coverage/visibility error: {exc}", file=sys.stderr)
        if isinstance(exc, CoverageError) and exc.uncovered:
            for item in exc.uncovered[:20]:
                print(f"  uncovered: {item}", file=sys.stderr)
        return 4
    except (NumericBudgetError, DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CurveTomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
