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
    GeometryConfig,
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


def _numbers(text):
    """argparse type: a non-empty comma-separated list of finite numbers."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"numbers must be finite, got {text!r}")
    return values


def _amplitudes(text):
    """argparse type: ``_numbers`` including 0, the static reference."""
    values = _numbers(text)
    if 0.0 not in values:
        raise argparse.ArgumentTypeError(f"amplitudes must include 0, got {text!r}")
    return values


def _point(text):
    """argparse type: a point x1,x2 of exactly two finite numbers."""
    values = _numbers(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected a point x1,x2, got {text!r}")
    return np.array(values)


def _finite(minimum, strict=False):
    """argparse type: a finite number of at least ``minimum``, or above it
    when ``strict``."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (math.isfinite(value) and (value > minimum if strict else value >= minimum)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'above' if strict else 'of at least'} {minimum}, "
                f"got {text!r}")
        return value
    return parse


def _count(minimum):
    """argparse type: an integer of at least ``minimum``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _load_config(path):
    if path is None:
        return GeometryConfig.from_dict({})
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return GeometryConfig.from_json(text)


def _file_checksum(path):
    with open(path, "rb") as fh:
        return crc64(fh.read())


class _Run:
    """Collects manifest data for one pipeline invocation."""

    def __init__(self, args, config):
        self.args = args
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

    def add_input(self, path, sidecar):
        # the checksum read_grid_file verified against the payload
        self.manifest["inputs"][os.path.basename(path)] = sidecar["checksum"]

    def write_grid(self, name, obj):
        path = os.path.join(self.out_dir, name)
        sidecar = write_grid_file(path, obj, geometry_hash=self.config.hash())
        self.manifest["outputs"][name] = sidecar["checksum"]
        return path

    def write_text(self, name, text):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        self.manifest["outputs"][name] = _file_checksum(path)

    def write_pgm(self, name, array):
        path = os.path.join(self.out_dir, name)
        write_pgm16(path, array)
        self.manifest["outputs"][name] = _file_checksum(path)

    def finish(self):
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=1)
        return 0


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
    run.write_grid("phantom.grid", img)
    wfs = boundary_wavefront(specs, n_per_ellipse=max(8, args.wavefront_samples))
    rows = [["x1", "x2", "xi1", "xi2"]]
    rows += [[f"{c.x[0]:.12g}", f"{c.x[1]:.12g}", f"{c.xi[0]:.12g}", f"{c.xi[1]:.12g}"]
             for c in wfs.samples]
    run.write_text("wavefront.csv", "\n".join(",".join(r) for r in rows) + "\n")
    run.write_pgm("phantom.pgm", img.values)
    return run.finish()


def cmd_forward(args, config, run):
    img, sidecar = read_grid_file(args.image)
    run.add_input(args.image, sidecar)
    _, _, tr = _transform(config, img)
    g = tr.forward(img)
    n_nan = int(np.sum(~np.isfinite(g.values)))
    run.manifest["metrics"]["nan_samples"] = n_nan
    run.manifest["metrics"].update(tr.stats)
    run.write_grid("sinogram.grid", g)
    run.write_pgm("sinogram.pgm", g.values)
    return run.finish()


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
    return run.finish()


def cmd_check_bolker(args, config, run):
    pf, _, _, image_kw = build_geometry(config)
    r = image_kw["support_radius"]
    n = args.grid
    xs = np.linspace(-r, r, n)
    t_vals = np.linspace(pf.t_range[0], pf.t_range[1], args.times, endpoint=False)
    rows = [["t", "x1", "x2", "h", "rank", "det"]]
    h_map = np.zeros((n, n))
    for t in t_vals:
        for i, x1 in enumerate(xs):
            for j, x2 in enumerate(xs):
                x = np.array([x1, x2])
                if not pf.branch_mask(t, x):
                    continue
                frame = fd_derivatives(pf, float(t), x)
                rank, det = data_projection_rank(pf, float(t), x, sigma=1.0)
                rows.append([f"{t:.9g}", f"{x1:.9g}", f"{x2:.9g}",
                             f"{frame.h:.12g}", str(rank), f"{det:.12g}"])
                if t == t_vals[0]:
                    h_map[i, j] = abs(frame.h)
    run.write_text("bolker.csv", "\n".join(",".join(r_) for r_ in rows) + "\n")
    run.write_pgm("bolker_h.pgm", h_map)
    h_vals = np.array([float(r_[3]) for r_ in rows[1:]])
    run.manifest["metrics"]["min_abs_h"] = float(np.min(np.abs(h_vals)))
    run.manifest["metrics"]["max_abs_h"] = float(np.max(np.abs(h_vals)))
    return run.finish()


def cmd_visibility(args, config, run):
    pf, _, _, image_kw = build_geometry(config)
    x = args.point
    vm = visibility_map(pf, x, args.n_dirs)
    rows = [["dir1", "dir2", "count", "witnesses"]]
    for i in range(len(vm.directions)):
        wit = ";".join(f"{t:.9g}" for t, _ in vm.t_witness[i])
        rows.append([f"{vm.directions[i,0]:.9g}", f"{vm.directions[i,1]:.9g}",
                     str(int(vm.count[i])), wit])
    run.write_text("visibility.csv", "\n".join(",".join(r_) for r_ in rows) + "\n")
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
    return run.finish()


def cmd_symbol(args, config, run):
    pf, mu, _, _ = build_geometry(config)
    atlas = CutoffAtlas.trivial()
    rows = [["xi1", "xi2", "p", "W_plus", "W_minus", "h_tilde", "visible", "t_used"]]
    for k in range(args.n_dirs):
        ang = TWO_PI * k / args.n_dirs
        xi = np.array([math.cos(ang), math.sin(ang)]) * args.xi_norm
        sv = principal_symbol(pf, mu, atlas, args.point, xi)
        rows.append([f"{xi[0]:.9g}", f"{xi[1]:.9g}", f"{sv.p:.12g}", f"{sv.W_plus:.12g}",
                     f"{sv.W_minus:.12g}", f"{sv.h_tilde:.12g}", str(sv.visible),
                     "" if sv.t_used is None else f"{sv.t_used:.9g}"])
    run.write_text("symbol.csv", "\n".join(",".join(r_) for r_ in rows) + "\n")
    return run.finish()


def cmd_normal(args, config, run):
    img, sidecar = read_grid_file(args.image)
    run.add_input(args.image, sidecar)
    pf, _, tr = _transform(config, img)
    atlas = build_default_atlas(pf, img.support_radius, config.settings("atlas")["n_charts"])
    Nf = NormalOperator(tr, atlas, symmetric=args.symmetric).apply(img)
    run.manifest["metrics"].update(tr.stats)
    run.write_grid("normal.grid", Nf)
    run.write_pgm("normal.pgm", Nf.values)
    return run.finish()


def cmd_reconstruct(args, config, run):
    g, sidecar = read_grid_file(args.data)
    run.add_input(args.data, sidecar)
    pf, img, tr = _transform(config)
    atlas = build_default_atlas(pf, img.support_radius, config.settings("atlas")["n_charts"])
    op = NormalOperator(tr, atlas, symmetric=True)
    if args.solver == "cg":
        rec, report = cg_normal_solve(op, g, max_iter=args.iters, tol=args.tol,
                                      tikhonov=args.tikhonov)
    else:
        rec, report = landweber_solve(op, g, max_iter=args.iters,
                                      seed=run.manifest["seed"])
    run.write_grid("reconstruction.grid", rec)
    run.write_pgm("reconstruction.pgm", rec.values)
    run.manifest["metrics"].update({
        "iterations": report.iterations,
        "final_residual": report.residual_history[-1] if report.residual_history else 0.0,
        "runtime_s": report.runtime,
        **tr.stats,
    })
    run.write_text("solve_report.json", json.dumps({
        "iterations": report.iterations,
        "residual_history": report.residual_history,
        "runtime": report.runtime,
        "iteration_s": report.iteration_s,
    }, sort_keys=True, indent=1))
    return run.finish()


def cmd_stability(args, config, run):
    if args.family == "breathing":
        family = lambda a: BreathingMotion(a)  # noqa: E731
    elif args.family == "rotation":
        family = lambda a: RotationMotion(-a)  # noqa: E731
    else:
        raise ConfigError(f"unknown stability family {args.family!r}")
    report = stability_probe(family, args.amplitudes, n_samples=args.samples,
                             nx=args.nx, nt=args.nt, seed=run.manifest["seed"])
    payload = {
        "amplitudes": report.amplitudes,
        "ratios": {str(a): r for a, r in report.ratios.items()},
        "median_ratio": {str(a): v for a, v in report.median_ratio.items()},
        "max_ratio": {str(a): v for a, v in report.max_ratio.items()},
        "min_ratio": {str(a): v for a, v in report.min_ratio.items()},
        "degenerate_flags": {str(a): v for a, v in report.degenerate_flags.items()},
        "seed": report.seed,
    }
    run.write_text("stability.json", json.dumps(payload, sort_keys=True, indent=1))
    rows = [["amplitude", "sample", "ratio"]]
    for a in report.amplitudes:
        for i, r in enumerate(report.ratios[a]):
            rows.append([f"{a:.9g}", str(i), f"{r:.12g}"])
    run.write_text("stability.csv", "\n".join(",".join(r_) for r_ in rows) + "\n")
    return run.finish()


def cmd_perturb_sweep(args, config, run):
    table = perturbation_sweep(args.deltas, nx=args.nx, nt=args.nt, seed=run.manifest["seed"])
    payload = {"deltas": table.deltas, "ratios": table.ratios,
               "slope": table.slope, "monotone": table.monotone}
    run.write_text("perturb.json", json.dumps(payload, sort_keys=True, indent=1))
    rows = [["delta", "ratio"]] + [
        [f"{d:.9g}", f"{r:.12g}"] for d, r in zip(table.deltas, table.ratios)
    ]
    run.write_text("perturb.csv", "\n".join(",".join(r_) for r_ in rows) + "\n")
    return run.finish()


def cmd_fanbeam_convert(args, config, run):
    g_fan, sidecar = read_grid_file(args.data)
    run.add_input(args.data, sidecar)
    R = float(config.settings("phase")["R"]) if config.phase["family"] == "fanbeam" else args.R
    g_par, info = fanbeam_convert(g_fan, R, ns=args.ns, n_beta=args.n_beta,
                                  weight_jacobian=args.weight_jacobian)
    run.manifest["metrics"].update(info)
    run.write_grid("parallel.grid", g_par)
    run.write_pgm("parallel.pgm", g_par.values)
    return run.finish()


_COMMANDS = {
    "phantom": cmd_phantom,
    "forward": cmd_forward,
    "adjoint-test": cmd_adjoint_test,
    "check-bolker": cmd_check_bolker,
    "visibility": cmd_visibility,
    "symbol": cmd_symbol,
    "normal": cmd_normal,
    "reconstruct": cmd_reconstruct,
    "stability": cmd_stability,
    "perturb-sweep": cmd_perturb_sweep,
    "fanbeam-convert": cmd_fanbeam_convert,
}


def run_pipeline(command, config, args):
    """Dispatch one pipeline command; returns the process exit code."""
    run = _Run(args, config)
    return _COMMANDS[command](args, config, run)


def build_parser():
    p = argparse.ArgumentParser(prog="curvetomo",
                                description="dynamic tomography over level curves")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="geometry config JSON")
        sp.add_argument("--out-dir", default=".", help="output directory")
        sp.add_argument("--seed", type=_count(0), default=None)

    sp = sub.add_parser("phantom", help="render the configured phantom")
    common(sp)
    sp.add_argument("--wavefront-samples", type=int, default=64)

    sp = sub.add_parser("forward", help="apply the forward transform")
    common(sp)
    sp.add_argument("--image", required=True)

    sp = sub.add_parser("adjoint-test", help="duality check on random pairs")
    common(sp)
    sp.add_argument("--pairs", type=_count(1), default=3)
    sp.add_argument("--tol", type=_finite(0.0), default=1e-3)

    sp = sub.add_parser("check-bolker", help="local Bolker determinant map")
    common(sp)
    sp.add_argument("--grid", type=_count(1), default=9)
    sp.add_argument("--times", type=_count(1), default=4)

    sp = sub.add_parser("visibility", help="per-direction witness times")
    common(sp)
    sp.add_argument("--point", type=_point, default="0.0,0.0")
    sp.add_argument("--n-dirs", type=_count(8), default=32)
    sp.add_argument("--require-full", action="store_true",
                    help="exit 4 unless every direction is visible")

    sp = sub.add_parser("symbol", help="principal symbol samples")
    common(sp)
    sp.add_argument("--point", type=_point, default="0.1,0.0")
    sp.add_argument("--n-dirs", type=_count(1), default=16)
    sp.add_argument("--xi-norm", type=_finite(0.0, strict=True), default=8.0)

    sp = sub.add_parser("normal", help="apply the cutoff normal operator")
    common(sp)
    sp.add_argument("--image", required=True)
    sp.add_argument("--symmetric", action="store_true")

    sp = sub.add_parser("reconstruct", help="iterative normal-equation solve")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--iters", type=_count(1), default=50)
    sp.add_argument("--tol", type=_finite(0.0), default=1e-6,
                    help="CG stops once the residual, in the ramp preconditioner's "
                         "norm and relative to the right-hand side's, is below this "
                         "(default 1e-6; Landweber ignores it)")
    sp.add_argument("--tikhonov", type=_finite(0.0), default=0.0)
    sp.add_argument("--solver", choices=("cg", "landweber"), default="cg")

    sp = sub.add_parser("stability", help="stability-ratio probe")
    common(sp)
    sp.add_argument("--family", choices=("breathing", "rotation"), default="breathing")
    sp.add_argument("--amplitudes", type=_amplitudes, default="0.0,0.02,0.05")
    sp.add_argument("--samples", type=_count(1), default=12)
    sp.add_argument("--nx", type=_count(1), default=48)
    sp.add_argument("--nt", type=_count(1), default=120)

    sp = sub.add_parser("perturb-sweep", help="operator perturbation scaling")
    common(sp)
    sp.add_argument("--deltas", type=_numbers, default="0.0,0.001,0.003,0.01,0.03")
    sp.add_argument("--nx", type=_count(1), default=48)
    sp.add_argument("--nt", type=_count(1), default=120)

    sp = sub.add_parser("fanbeam-convert", help="rebin fan data to parallel")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--R", type=_finite(0.0, strict=True), default=3.0)
    sp.add_argument("--ns", type=_count(1), default=128)
    sp.add_argument("--n-beta", type=_count(1), default=180)
    sp.add_argument("--weight-jacobian", action="store_true")

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return run_pipeline(args.command, config, args)
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
