"""Acceptance gates, one criterion per test block, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to stream them).

Desk scale: grids up to 128^2 / 360 angles.  The expensive geometries are
shared module-wide so each forward plan is traced once.
"""

import json
import math

import numpy as np
import pytest
from scipy import ndimage

from curvetomo import (
    BreathingMotion,
    BumpWeight,
    CovectorSample,
    CutoffAtlas,
    NormalOperator,
    RotationMotion,
    SinoSpec,
    Sinogram,
    UnitWeight,
    bolker_determinant,
    cg_normal_solve,
    data_projection_rank,
    edge_response,
    fan_to_parallel,
    fanbeam_convert,
    forward_lagrangian,
    lagrangian_to_levelset_weight,
    landweber_solve,
    make_dynamic_phase,
    make_fanbeam_phase,
    make_image_grid,
    make_static_phase,
    principal_symbol,
    homogeneous_equivalence_check,
    stability_probe,
    visibility_map,
)
from curvetomo.cli import main as cli_main
from curvetomo.geometry import AffineMotion, TWO_PI
from curvetomo.operators import LevelSetTransform, integrate_lines
from curvetomo.phantom import EllipseSpec, recon_phantom, render_phantom
from curvetomo.recon import perturbation_sweep

from conftest import support_samples

NX = 128
NT = 360


def check(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _smooth_image(img, seed, sigma=3.0):
    r = np.random.default_rng(seed)
    v = ndimage.gaussian_filter(r.standard_normal((img.nx, img.ny)), sigma)
    X = img.pixel_centers()
    return img.like(v * (np.hypot(X[..., 0], X[..., 1]) <= 0.9 * img.support_radius))


def _smooth_sino(tr, seed, sigma=3.0):
    r = np.random.default_rng(seed)
    v = ndimage.gaussian_filter(
        r.standard_normal((len(tr.s_grid), len(tr.t_grid))), sigma, mode="wrap")
    return Sinogram(tr.s_grid.copy(), tr.t_grid.copy(), v)


@pytest.fixture(scope="module")
def image128():
    return make_image_grid(NX)


@pytest.fixture(scope="module")
def static_tr(image128):
    pf = make_static_phase()
    return LevelSetTransform(pf, UnitWeight(), image128,
                             SinoSpec(ns=int(NX * 1.05) + 1, nt=NT))


@pytest.fixture(scope="module")
def breathing_tr(image128):
    pf = make_dynamic_phase(BreathingMotion(0.05))
    return LevelSetTransform(pf, UnitWeight(), image128,
                             SinoSpec(ns=int(NX * 1.05) + 1, nt=NT))


def _duality_worst(tr, image, pairs, seed0):
    worst = 0.0
    for k in range(pairs):
        f = _smooth_image(image, seed0 + k)
        g = _smooth_sino(tr, seed0 + 1000 + k)
        Af = tr.forward(f)
        bp = tr.adjoint(g)
        worst = max(worst, abs(Af.inner(g) - f.inner(bp)) / (Af.norm() * g.norm()))
    return worst


# ---------------------------------------------------------------------------
# criterion 1: adjoint duality across the four geometries
# ---------------------------------------------------------------------------


def test_criterion_1_duality_static(static_tr, image128):
    worst = _duality_worst(static_tr, image128, pairs=10, seed0=10)
    check(1, "duality static", worst < 1e-3, f"worst {worst:.2e} < 1e-3")


def test_criterion_1_duality_breathing(breathing_tr, image128):
    worst = _duality_worst(breathing_tr, image128, pairs=10, seed0=20)
    check(1, "duality breathing a=0.05", worst < 1e-3, f"worst {worst:.2e} < 1e-3")


def test_criterion_1_duality_rotation(image128):
    tr = LevelSetTransform(make_dynamic_phase(RotationMotion(0.3)), UnitWeight(),
                           image128, SinoSpec(ns=int(NX * 1.05) + 1, nt=NT))
    worst = _duality_worst(tr, image128, pairs=10, seed0=30)
    check(1, "duality rotation rho=0.3", worst < 1e-3, f"worst {worst:.2e} < 1e-3")


def test_criterion_1_duality_fanbeam(image128):
    tr = LevelSetTransform(make_fanbeam_phase(3.0), UnitWeight(), image128,
                           SinoSpec(ns=int(NX * 1.05) + 1, nt=NT))
    worst = _duality_worst(tr, image128, pairs=10, seed0=40)
    check(1, "duality fan-beam R=3", worst < 1e-3, f"worst {worst:.2e} < 1e-3")


# ---------------------------------------------------------------------------
# criterion 2: Bolker checker exactness
# ---------------------------------------------------------------------------


def test_criterion_2_bolker_exactness(rng):
    static_pf = make_static_phase()
    t, x = support_samples(rng, 2000)
    h_static = bolker_determinant(static_pf, t, x)
    ok_static = np.max(np.abs(h_static - 1.0)) < 1e-10

    sync_fd = make_dynamic_phase(RotationMotion(-1.0), use_analytic=False)
    t2, x2 = support_samples(rng, 500)
    h_sync = bolker_determinant(sync_fd, t2, x2)
    ok_sync = np.max(np.abs(h_sync)) < 1e-6

    worst = 0.0
    for pf in (static_pf, make_dynamic_phase(BreathingMotion(0.08))):
        tt, xx = support_samples(rng, 500)
        sig = rng.uniform(0.2, 3.0, 500) * rng.choice([-1.0, 1.0], 500)
        for i in range(500):
            _, det = data_projection_rank(pf, float(tt[i]), xx[i], float(sig[i]))
            h = float(bolker_determinant(pf, float(tt[i]), xx[i]))
            worst = max(worst, abs(abs(det) - abs(sig[i] * h)) / max(abs(sig[i] * h), 1e-300))
    ok_det = worst < 1e-8
    check(2, "Bolker exactness",
          ok_static and ok_sync and ok_det,
          f"static dev {np.max(np.abs(h_static-1)):.1e} < 1e-10, "
          f"sync FD |h| {np.max(np.abs(h_sync)):.1e} < 1e-6, "
          f"det vs sigma*h rel {worst:.1e} < 1e-8 on 1000 samples")


# ---------------------------------------------------------------------------
# criterion 3: determinant-equivalence agreement per builtin family
# ---------------------------------------------------------------------------


def test_criterion_3_extension_equivalence(rng):
    fams = {
        "static": make_static_phase(),
        "rotation": make_dynamic_phase(RotationMotion(0.5)),
        "sync": make_dynamic_phase(RotationMotion(-1.0)),
        "affine": make_dynamic_phase(AffineMotion(0.06)),
        "breathing": make_dynamic_phase(BreathingMotion(0.1)),
        "fanbeam": make_fanbeam_phase(3.0),
    }
    fracs = {}
    for name, pf in fams.items():
        lo, hi = pf.t_range
        t, x = support_samples(rng, 10_000, radius=0.95, t_range=(lo, hi))
        rep = homogeneous_equivalence_check(pf, t, x)
        fracs[name] = rep.agreement_fraction
    ok = all(v == 1.0 for v in fracs.values())
    check(3, "homogeneous-extension equivalence", ok,
          f"agreement on 1e4 samples per family: {fracs}")


# ---------------------------------------------------------------------------
# criterion 4: order -1 frequency response and symbol homogeneity
# ---------------------------------------------------------------------------


def test_criterion_4_symbol_order(static_tr, image128):
    sigma_px = 2.5 * image128.spacing
    X = image128.pixel_centers()
    f = image128.like(np.exp(-np.sum(X**2, -1) / (2 * sigma_px**2)))
    Nf = static_tr.adjoint(static_tr.forward(f))
    F = np.fft.fftshift(np.fft.fft2(f.values))
    NF = np.fft.fftshift(np.fft.fft2(Nf.values))
    k = np.fft.fftshift(np.fft.fftfreq(NX)) * NX
    KX, KY = np.meshgrid(k, k, indexing="ij")
    KR = np.hypot(KX, KY)
    band = np.arange(4, NX // 4 + 1)
    ratios = np.array([
        np.mean(np.abs(NF[(KR >= kk - 0.5) & (KR < kk + 0.5)]))
        / np.mean(np.abs(F[(KR >= kk - 0.5) & (KR < kk + 0.5)]))
        for kk in band
    ])
    slope = float(np.polyfit(np.log(band), np.log(ratios), 1)[0])
    ok_slope = abs(slope + 1.0) < 0.05

    pf = make_static_phase()
    atlas = CutoffAtlas.trivial()
    mu = UnitWeight()
    worst = 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, 2)
        a = rng.uniform(0, TWO_PI)
        lam = rng.uniform(1.5, 50.0)
        xi = np.array([math.cos(a), math.sin(a)])
        p1 = principal_symbol(pf, mu, atlas, x, xi).p
        p2 = principal_symbol(pf, mu, atlas, x, lam * xi).p
        worst = max(worst, abs(p2 * lam - p1) / abs(p1))
    ok_hom = worst < 1e-12
    check(4, "order -1 symbol", ok_slope and ok_hom,
          f"log-log slope {slope:.3f} in -1 +- 0.05 over [4, {NX//4}], "
          f"homogeneity dev {worst:.1e} < 1e-12")


# ---------------------------------------------------------------------------
# criterion 5: Lagrangian vs level-set forward under change of variables
# ---------------------------------------------------------------------------


def test_criterion_5_forward_form_equivalence(image128):
    motion = BreathingMotion(0.05)
    mu = BumpWeight(amplitude=0.15)
    truth = render_phantom(recon_phantom(), NX)
    g_lag = forward_lagrangian(motion, mu, truth, SinoSpec(ns=int(NX * 1.05) + 1, nt=NT))
    pf = make_dynamic_phase(motion)
    mu_hat = lagrangian_to_levelset_weight(motion, mu)
    spec = SinoSpec(ns=g_lag.ns, nt=g_lag.nt,
                    s_range=(float(g_lag.s_grid[0]), float(g_lag.s_grid[-1])))
    tr = LevelSetTransform(pf, mu_hat, truth, spec)
    g_lvl = tr.forward(truth)
    rel = np.linalg.norm(g_lag.values - g_lvl.values) / np.linalg.norm(g_lag.values)
    check(5, "forward-form equivalence (breathing a=0.05)", rel < 0.02,
          f"rel L2 {rel:.4f} < 0.02 at {NX}^2 "
          f"(weight |det D psi^-1| mu(psi^-1)/|grad phi|)")


# ---------------------------------------------------------------------------
# criterion 6: reconstruction regression gates
# ---------------------------------------------------------------------------


def _masked_rel_error(rec, truth):
    X = truth.pixel_centers()
    m = np.hypot(X[..., 0], X[..., 1]) <= 0.9 * truth.support_radius
    return float(np.linalg.norm((rec.values - truth.values)[m])
                 / np.linalg.norm(truth.values[m]))


def test_criterion_6_reconstruction_static(static_tr):
    truth = render_phantom(recon_phantom(), NX)
    g = static_tr.forward(truth)
    op = NormalOperator(static_tr, CutoffAtlas.trivial(), symmetric=True)
    rec, report = cg_normal_solve(op, g, max_iter=50, tol=1e-9, truth=truth)
    rel = _masked_rel_error(rec, truth)
    # static full-angle edge recovery baseline (recon-module example)
    cov = CovectorSample(x=np.array([-0.12 + 0.5, 0.08]), xi=np.array([1.0, 0.0]))
    er = edge_response(rec, truth, cov)
    check(6, "reconstruction static", rel < 0.05 and er > 0.6,
          f"rel L2 {rel:.4f} < 0.05 inside 0.9 support after 50 CG iters; "
          f"edge response {er:.2f} > 0.6")


def test_criterion_6_reconstruction_breathing(breathing_tr):
    truth = render_phantom(recon_phantom(), NX)
    g = breathing_tr.forward(truth)
    op = NormalOperator(breathing_tr, CutoffAtlas.trivial(), symmetric=True)
    rec, report = cg_normal_solve(op, g, max_iter=50, tol=1e-9, truth=truth)
    rel = _masked_rel_error(rec, truth)
    check(6, "reconstruction breathing a=0.05", rel < 0.10,
          f"rel L2 {rel:.4f} < 0.10 inside 0.9 support after 50 CG iters")


# ---------------------------------------------------------------------------
# criterion 7: invisible singularities under scanner-synchronized rotation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sync_experiment():
    nx = 64
    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.5, 0.5),
                                       density=1.0)], nx)
    pf = make_dynamic_phase(RotationMotion(-1.0))
    tr = LevelSetTransform(pf, UnitWeight(), disk, SinoSpec(ns=int(nx * 1.05) + 1, nt=180))
    return disk, pf, tr


def test_criterion_7_visibility(sync_experiment):
    _, pf, _ = sync_experiment
    vm = visibility_map(pf, np.array([0.2, 0.1]), 32)
    vis = vm.directions[vm.visible]
    ok = len(vis) == 2 and np.allclose(np.abs(vis[:, 0]), 1.0, atol=1e-9)
    check(7, "sync visibility", ok,
          f"visible directions {vis.tolist()} == +-(1, 0) only")


def test_criterion_7_edge_response(sync_experiment):
    disk, pf, tr = sync_experiment
    g = tr.forward(disk)
    op = NormalOperator(tr, CutoffAtlas.trivial(), symmetric=True)
    # the sync normal operator is rank-deficient: Landweber tolerates it
    rec, _ = landweber_solve(op, g, max_iter=40)
    top = CovectorSample(x=np.array([0.0, 0.5]), xi=np.array([0.0, 1.0]))
    right = CovectorSample(x=np.array([0.5, 0.0]), xi=np.array([1.0, 0.0]))
    r_inv = edge_response(rec, disk, top)
    r_vis = edge_response(rec, disk, right)
    check(7, "sync edge response", r_inv < 0.2 * r_vis,
          f"invisible {r_inv:.3f} < 0.2 x visible {r_vis:.3f}")


@pytest.mark.known_defect
def test_criterion_7_stability_flag():
    """The stability probe's blow-up flag, asserted at its stated threshold.

    KNOWN RED: with the pinned ratio ||f||_L2 / ||N f||_H1 and a random
    band-limited ensemble, the synchronized case does not inflate the ratio
    by 1e3 (the degenerate N maps f to a ridge 2 pi * profile(x^1) whose H^1
    norm stays of order ||f||: leakage of support-confined fields into the
    visible frequency line is >= 1e-3, and the H^1 weight amplifies the
    ridge's x^1 oscillation).  Measured factors are O(1).  The degeneracy
    itself is detected exactly by the h-based checkers (criteria 2 and 7's
    other clauses), so this clause is kept red rather than weakened.
    """
    report = stability_probe(lambda a: RotationMotion(-a), [0.0, 1.0],
                             n_samples=12, nx=48, nt=120)
    factor = report.max_ratio[1.0] / report.median_ratio[0.0]
    flagged = report.degenerate_flags[1.0]
    check(7, "sync stability-ratio blow-up flag", flagged,
          f"max sync ratio = {factor:.2f} x static median (gate requires >= 1e3)")


# ---------------------------------------------------------------------------
# criterion 8: perturbation scaling
# ---------------------------------------------------------------------------


def test_criterion_8_perturbation_scaling():
    table = perturbation_sweep([0.0, 1e-3, 3e-3, 1e-2, 3e-2], nx=64, nt=180)
    ok = (table.ratios[0] < 1e-10 and table.slope is not None
          and abs(table.slope - 1.0) < 0.2)
    check(8, "perturbation scaling", ok,
          f"ratio(0) = {table.ratios[0]:.1e}, slope {table.slope:.3f} in 1.0 +- 0.2, "
          f"monotone {table.monotone}")


# ---------------------------------------------------------------------------
# criterion 9: fan-beam two-path consistency
# ---------------------------------------------------------------------------


def test_criterion_9_fan_two_path():
    f = render_phantom(recon_phantom(), NX)
    R = 3.0
    nt, ngam = 240, 160
    t_grid = np.linspace(0.0, TWO_PI, nt, endpoint=False)
    gmax = math.asin(1.08 / R)
    g_grid = np.linspace(-gmax, gmax, ngam)
    T, G = np.meshgrid(t_grid, g_grid, indexing="ij")
    S, B, _ = fan_to_parallel(T, G, R)
    fan_vals = integrate_lines(f, S.ravel(), B.ravel()).reshape(nt, ngam)
    g_fan = Sinogram(g_grid, t_grid, fan_vals.T)
    g_par, info = fanbeam_convert(g_fan, R, ns=129, n_beta=240,
                                  s_range=(-1.0, 1.0), beta_range=(0.2, 6.0))
    SS, BB = np.meshgrid(g_par.s_grid, g_par.t_grid, indexing="ij")
    ref = integrate_lines(f, SS.ravel(), BB.ravel()).reshape(g_par.values.shape)
    ok_mask = np.isfinite(g_par.values)
    rel = math.sqrt(np.nansum((g_par.values - ref) ** 2) / np.sum(ref[ok_mask] ** 2))
    check(9, "fan-beam two-path consistency", rel < 0.03,
          f"rebinned vs parallel rel L2 {rel:.4f} < 0.03 "
          f"(uncovered cells: {info['uncovered_cells']})")


# ---------------------------------------------------------------------------
# criterion 10: reproducibility
# ---------------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "phase": {"family": "dynamic", "motion": {"name": "breathing", "amplitude": 0.05}},
        "image": {"nx": 48},
        "sinogram": {"ns": 51, "nt": 90},
        "seed": 12345,
        "chunk_t": 16,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for tag in ("a", "b"):
        od = tmp_path / f"ph_{tag}"
        assert cli_main(["phantom", "--config", str(cfg_path), "--out-dir", str(od)]) == 0
        of = tmp_path / f"fw_{tag}"
        assert cli_main(["forward", "--config", str(cfg_path), "--out-dir", str(of),
                         "--image", str(od / "phantom.grid")]) == 0
        payloads.append((od / "phantom.grid").read_bytes()
                        + (of / "sinogram.grid").read_bytes())
        manifest = json.loads((of / "manifest.json").read_text())
        assert manifest["chunk_t"] == 16 and manifest["seed"] == 12345
    check(10, "reproducibility", payloads[0] == payloads[1],
          "identical config + seed + chunk size => byte-identical payloads")
