"""Iterative inversion through the normal equations and empirical probes of
the stability and perturbation estimates.

The solver works on the symmetrized normal operator N, preconditioned by the
order +1 ramp multiplier P^-1 = sqrt(1 + |k|^2) (k in cycles per grid).  N
is elliptic of order -1 under visibility, local Bolker and no conjugate
points, so P^-1 N is of order 0 and its conditioning should not grow with
the grid (Clinthorne et al., IEEE TMI 12, 1993; Fessler & Booth, IEEE TIP 8,
1999).  Because the discrete forward and adjoint are independent quadratures
(not exact transposes, they agree to the duality tolerance), every Krylov
step takes the length that minimizes the residual in the P^-1 norm
(preconditioned conjugate-residual form): the recorded residual history is
then non-increasing for any search direction, which classic
conjugate-gradient steps only guarantee under exact symmetry.  Landweber
iteration is provided as a fallback that tolerates indefiniteness outright.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import DivergenceError, DomainError
from .geometry import (
    BreathingMotion,
    BumpWeight,
    UnitWeight,
    make_dynamic_phase,
    smoothstep_c2,
)
from .operators import (
    CutoffAtlas,
    LevelSetTransform,
    NormalOperator,
    SinoSpec,
    default_ns,
    make_image_grid,
)

ENSEMBLE_SEED = 0xC0FFEE


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    rel_error_vs_truth: float | None
    runtime: float
    converged: bool = False
    iteration_s: list = field(default_factory=list)   # wall time of each iteration


@dataclass
class StabilityReport:
    amplitudes: list
    ratios: dict                 # amplitude -> list of ratios
    max_ratio: dict
    min_ratio: dict
    median_ratio: dict
    degenerate_flags: dict       # amplitude -> bool (>= 1e3 x static median)
    seed: int = ENSEMBLE_SEED


@dataclass
class PerturbationTable:
    deltas: list
    ratios: list                 # ||(N - N~) f||_H1 / ||f||_L2 per delta
    slope: float | None          # log-log fit over the positive deltas
    monotone: bool


def h1_norm(img):
    """Discrete H^1 norm: sqrt(||f||^2 + ||grad f||^2) with forward
    differences, zero-padded past the boundary, grid-spacing weights."""
    v = np.asarray(img.values, dtype=float)
    h = img.spacing
    gx = np.diff(np.concatenate([v, np.zeros((1, v.shape[1]))], axis=0), axis=0) / h
    gy = np.diff(np.concatenate([v, np.zeros((v.shape[0], 1))], axis=1), axis=1) / h
    return math.sqrt((np.sum(v**2) + np.sum(gx**2) + np.sum(gy**2)) * h * h)


def _support_mask(img):
    X = img.pixel_centers()
    return np.hypot(X[..., 0], X[..., 1]) <= img.support_radius


def _ramp_preconditioner(mask):
    """P^-1 v = mask * irfft2(rfft2(v) * sqrt(1 + |k|^2)) for masked v, with
    k in cycles per grid.  The symbol is real, even and at least 1, so P^-1
    is symmetric and positive definite on the support."""
    nx, ny = mask.shape
    kx = np.fft.fftfreq(nx) * nx
    ky = np.fft.rfftfreq(ny) * ny
    symbol = np.sqrt(1.0 + kx[:, None] ** 2 + ky[None, :] ** 2)

    def apply(v):
        return np.fft.irfft2(np.fft.rfft2(v) * symbol, s=(nx, ny)) * mask

    return apply


def cg_normal_solve(normal_op, g, max_iter=50, tol=1e-6, tikhonov=0.0, truth=None):
    """Solve N_sym f = B g for the symmetrized, support-restricted normal
    equations by a preconditioned conjugate-residual iteration.

    The preconditioner is the ramp multiplier P^-1 = sqrt(1 + |k|^2) of
    ``_ramp_preconditioner``.  Each step length minimizes ||r - alpha N p||
    in the P^-1 norm <r, P^-1 r>, so the residual in that norm cannot rise
    for any search direction, even when N is only nearly symmetric.  Each
    iteration costs one normal apply and one P^-1.

    Returns (ImageGrid, SolveReport).  ``residual_history`` is the residual
    in the P^-1 norm relative to the right-hand side's,
    sqrt(<r, P^-1 r> / <b, P^-1 b>); it is non-increasing, and ``tol``
    applies to it.  DivergenceError is raised after 5 consecutive increases
    of more than 1e-10, and at once when the residual is not finite; with
    residual-minimal steps only rounding can make the history rise.

    ``SolveReport.runtime`` is the wall time of the whole call.  On a
    transform not yet used it includes the lazy set-up: ``back_data``
    builds K, and the first apply traces the plan and builds M.
    ``iteration_s`` times the iterations alone.
    """
    t_start = time.perf_counter()
    b_img = normal_op.back_data(g)
    mask = _support_mask(b_img)
    b = b_img.values * mask
    shape = b.shape

    def apply_N(vec):
        out = normal_op.apply(b_img.like(vec)).values * mask
        if tikhonov:
            out = out + tikhonov * vec
        return out

    f = np.zeros(shape)
    history = []
    if not np.any(b):
        report = SolveReport(iterations=0, residual_history=[], rel_error_vs_truth=None,
                             runtime=time.perf_counter() - t_start, converged=True)
        if truth is not None:
            report.rel_error_vs_truth = 1.0 if truth.norm() > 0 else 0.0
        return b_img.like(f), report

    precondition = _ramp_preconditioner(mask)
    r = b.copy()
    z = precondition(r)
    b_norm = math.sqrt(float(np.sum(b * z)))
    Nz = apply_N(z)
    p = z.copy()
    Np = Nz.copy()
    PNp = precondition(Np)
    rho = float(np.sum(z * Nz))
    rises = 0
    prev = 1.0
    history.append(prev)
    converged = prev < tol
    it = 0
    iteration_s = []
    while it < max_iter and not converged:
        t_iter = time.perf_counter()
        denom = float(np.sum(Np * PNp))
        if denom <= 0.0:
            break
        # residual-minimal step along N p in the P^-1 norm: keeps <r, z>
        # non-increasing even under the small forward/adjoint asymmetry
        alpha = float(np.sum(z * Np)) / denom
        f = f + alpha * p
        r = r - alpha * Np
        z = z - alpha * PNp
        res = math.sqrt(max(float(np.sum(r * z)), 0.0)) / b_norm
        if not math.isfinite(res):
            raise DivergenceError(f"residual is {res} after {it + 1} iterations")
        if res > prev + 1e-10:
            rises += 1
            if rises >= 5:
                raise DivergenceError(
                    f"residual increased {rises} consecutive iterations (res={res:.3e})"
                )
        else:
            rises = 0
        history.append(res)
        prev = min(prev, res)
        it += 1
        if res < tol:
            converged = True
        else:
            Nz = apply_N(z)
            rho_new = float(np.sum(z * Nz))
            beta = rho_new / rho if abs(rho) > 0 else 0.0
            p = z + beta * p
            Np = Nz + beta * Np
            PNp = precondition(Nz) + beta * PNp
            rho = rho_new
        iteration_s.append(time.perf_counter() - t_iter)

    rel_err = None
    if truth is not None and truth.norm() > 0:
        rel_err = float(
            math.sqrt(np.sum((f - truth.values) ** 2)) / math.sqrt(np.sum(truth.values**2))
        )
    report = SolveReport(iterations=it, residual_history=history,
                         rel_error_vs_truth=rel_err, runtime=time.perf_counter() - t_start,
                         converged=converged, iteration_s=iteration_s)
    return b_img.like(f), report


def landweber_solve(normal_op, g, max_iter=50, seed=0):
    """Landweber iteration f <- f + w (B g - N f); tolerates the mild
    asymmetry and semi-definiteness that break conjugate directions.

    The step w is 1 / ||N||, estimated by 8 power iterations on the support
    from a random start drawn with ``seed``.  ``SolveReport`` carries no
    error against a truth (``rel_error_vs_truth`` is None)."""
    t_start = time.perf_counter()
    b_img = normal_op.back_data(g)
    mask = _support_mask(b_img)
    b = b_img.values * mask

    def apply_N(vec):
        return normal_op.apply(b_img.like(vec)).values * mask

    # power iteration for ||N|| on the support subspace
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(b.shape) * mask
    lam = 1.0
    for _ in range(8):
        w = apply_N(v)
        lam = math.sqrt(np.sum(w * w)) / max(math.sqrt(np.sum(v * v)), 1e-300)
        v = w / max(math.sqrt(np.sum(w * w)), 1e-300)
    relaxation = 1.0 / max(lam, 1e-300)
    f = np.zeros_like(b)
    history = []
    iteration_s = []
    b_norm = math.sqrt(np.sum(b * b))
    for _ in range(max_iter):
        t_iter = time.perf_counter()
        r = b - apply_N(f)
        history.append(math.sqrt(np.sum(r * r)) / max(b_norm, 1e-300))
        f = f + relaxation * r
        iteration_s.append(time.perf_counter() - t_iter)
    return b_img.like(f), SolveReport(iterations=max_iter, residual_history=history,
                                      rel_error_vs_truth=None,
                                      runtime=time.perf_counter() - t_start,
                                      iteration_s=iteration_s)


# ---------------------------------------------------------------------------
# random ensembles and probes
# ---------------------------------------------------------------------------


def band_limited_ensemble(nx, n_samples, seed=ENSEMBLE_SEED):
    """Random band-limited images supported in the unit target disk.

    Frequency content is white on the annulus [1, nx/8] cycles per domain,
    tapered to zero between radii 0.7 and 0.9 by a C^2 profile.
    """
    rng = np.random.default_rng(seed)
    grid = make_image_grid(nx)
    kx = np.fft.fftfreq(nx) * nx
    KX, KY = np.meshgrid(kx, kx, indexing="ij")
    KR = np.hypot(KX, KY)
    sel = (KR >= 1.0) & (KR <= nx / 8.0)
    X = grid.pixel_centers()
    rad = np.hypot(X[..., 0], X[..., 1])
    taper = 1.0 - smoothstep_c2((rad - 0.70) / 0.20)
    out = []
    for _ in range(n_samples):
        spec = (rng.standard_normal((nx, nx)) + 1j * rng.standard_normal((nx, nx))) * sel
        v = np.fft.ifft2(spec).real
        v *= taper
        nv = math.sqrt(np.sum(v * v)) * grid.spacing
        out.append(grid.like(v / max(nv, 1e-300)))
    return out


def stability_probe(motion_family, amplitudes, n_samples, nx=64, nt=180,
                    seed=ENSEMBLE_SEED):
    """Empirical two-sided stability ratios ||f||_L2 / ||N f||_H1 across
    motion amplitudes, over a fixed random band-limited ensemble.

    ``motion_family`` maps an amplitude to a MotionModel; amplitudes must
    include 0 (the static reference).  A flag is raised per amplitude when
    any ratio reaches 1e3 times the static median.
    """
    if 0 not in [a for a in amplitudes] and 0.0 not in amplitudes:
        raise ValueError("amplitudes must include 0 (static reference)")
    fields = band_limited_ensemble(nx, n_samples, seed=seed)
    spec = SinoSpec(ns=default_ns(nx), nt=nt)
    ratios = {}
    for a in amplitudes:
        pf = make_dynamic_phase(motion_family(a))
        tr = LevelSetTransform(pf, UnitWeight(), fields[0], spec)
        op = NormalOperator(tr, CutoffAtlas.trivial())
        vals = []
        for f in fields:
            Nf = op.apply(f)
            denom = h1_norm(Nf)
            vals.append(f.norm() / denom if denom > 0 else math.inf)
        ratios[a] = vals
    static_key = [a for a in amplitudes if a == 0 or a == 0.0][0]
    static_median = float(np.median(ratios[static_key]))
    report = StabilityReport(
        amplitudes=list(amplitudes),
        ratios=ratios,
        max_ratio={a: float(np.max(r)) for a, r in ratios.items()},
        min_ratio={a: float(np.min(r)) for a, r in ratios.items()},
        median_ratio={a: float(np.median(r)) for a, r in ratios.items()},
        degenerate_flags={
            a: bool(np.max(ratios[a]) >= 1e3 * static_median) for a in ratios
        },
        seed=seed,
    )
    return report


def perturbation_sweep(deltas, nx=64, nt=180, seed=ENSEMBLE_SEED):
    """Operator sensitivity under delta-scaled smooth perturbations.

    The probe f is the first field of ``band_limited_ensemble(nx, 1, seed)``.
    The base operator is static (breathing amplitude 0, unit weight); the
    perturbed one has breathing amplitude delta (a compactly supported
    smooth bump of the motion) and, for delta != 0, the weight
    (1 + delta * gaussian bump).  Reports the ratio
    ||(N - N~) f||_H1 / ||f||_L2 per delta and the log-log slope over the
    positive deltas.
    """
    probe_f = band_limited_ensemble(nx, 1, seed=seed)[0]
    spec = SinoSpec(ns=default_ns(nx), nt=nt,
                    s_range=(-1.05 * probe_f.support_radius, 1.05 * probe_f.support_radius))

    def build(delta):
        motion = BreathingMotion(delta)
        mu = BumpWeight(amplitude=delta) if delta != 0.0 else UnitWeight()
        pf = make_dynamic_phase(motion)
        tr = LevelSetTransform(pf, mu, probe_f, spec)
        return NormalOperator(tr, CutoffAtlas.trivial())

    base = build(0.0)
    Nf = base.apply(probe_f)
    ratios = []
    for d in deltas:
        Nf_d = build(d).apply(probe_f)
        diff = probe_f.like(Nf_d.values - Nf.values)
        ratios.append(h1_norm(diff) / probe_f.norm())
    pos = [(d, r) for d, r in zip(deltas, ratios) if d > 0 and r > 0]
    slope = None
    if len(pos) >= 2:
        ld = np.log([d for d, _ in pos])
        lr = np.log([r for _, r in pos])
        slope = float(np.polyfit(ld, lr, 1)[0])
    monotone = all(ratios[i] <= ratios[i + 1] + 1e-12 for i in range(len(ratios) - 1))
    return PerturbationTable(deltas=list(deltas), ratios=ratios, slope=slope,
                             monotone=monotone)


def edge_response(recon, truth, cov):
    """Directional-gradient recovery at a phantom edge.

    Samples the gradient along the edge normal ``cov.xi`` at 5 points one
    pixel apart, centred on ``cov.x``, each a central difference over one
    pixel, and returns mean|grad recon| / mean|grad truth|.
    """
    u = cov.unit_dir
    h = truth.spacing

    def directional(img, pts):
        def interp(q):
            coords = np.stack(
                [(q[:, 0] - img.origin[0]) / img.spacing,
                 (q[:, 1] - img.origin[1]) / img.spacing], axis=0
            )
            return ndimage.map_coordinates(np.asarray(img.values, float), coords,
                                           order=3, mode="nearest")
        return (interp(pts + 0.5 * h * u) - interp(pts - 0.5 * h * u)) / h

    offs = (np.arange(5) - 2.0) * h
    pts = np.asarray(cov.x)[None, :] + offs[:, None] * u[None, :]
    lo = np.array([truth.origin[0], truth.origin[1]])
    hi = lo + truth.spacing * (np.array([truth.nx, truth.ny]) - 1)
    if np.any(pts - h < lo) or np.any(pts + h > hi):
        raise DomainError("edge-response window exits the grid")
    g_rec = np.abs(directional(recon, pts)).mean()
    g_tru = np.abs(directional(truth, pts)).mean()
    return float(g_rec / g_tru) if g_tru > 0 else math.inf
