import math

import numpy as np
import pytest

from curvetomo import (
    CovectorSample,
    CutoffAtlas,
    DivergenceError,
    NormalOperator,
    SinoSpec,
    UnitWeight,
    band_limited_ensemble,
    cg_normal_solve,
    edge_response,
    h1_norm,
    landweber_solve,
    make_image_grid,
    perturbation_sweep,
)
from curvetomo.operators import LevelSetTransform
from curvetomo.phantom import EllipseSpec, render_phantom


# ---------------------------------------------------------------------------
# H^1 norm
# ---------------------------------------------------------------------------


def test_h1_zero():
    img = make_image_grid(16)
    assert h1_norm(img) == 0.0


def test_h1_dominates_l2(rng):
    img = make_image_grid(32, values=rng.standard_normal((32, 32)))
    assert h1_norm(img) >= img.norm()


def test_h1_constant_block_oracle():
    """Constant c on the interior with a zero boundary ring: every interior
    forward difference vanishes, the ring contributes per-edge jumps of c."""
    n, c = 16, 2.5
    v = np.zeros((n, n))
    v[1:-1, 1:-1] = c
    img = make_image_grid(n, values=v)
    h = img.spacing
    n_in = n - 2
    # value term + per-axis jump pairs (c/h)^2 at both ends of each row/col
    expected = math.sqrt(
        (np.sum(v**2) + 2 * n_in * 2 * (c / h) ** 2 * h**0 ) * h * h
    )
    # direct summation oracle
    gx = np.diff(np.concatenate([v, np.zeros((1, n))], axis=0), axis=0) / h
    gy = np.diff(np.concatenate([v, np.zeros((n, 1))], axis=1), axis=1) / h
    direct = math.sqrt((np.sum(v**2) + np.sum(gx**2) + np.sum(gy**2)) * h * h)
    assert h1_norm(img) == pytest.approx(direct, rel=1e-14)
    assert h1_norm(img) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solver_setup():
    img = make_image_grid(48)
    truth = render_phantom([
        EllipseSpec(center=(-0.1, 0.05), semi_axes=(0.45, 0.45), density=1.0),
        EllipseSpec(center=(0.25, -0.2), semi_axes=(0.28, 0.13), angle=0.45, density=0.5),
    ], 48)
    from curvetomo import make_static_phase

    tr = LevelSetTransform(make_static_phase(), UnitWeight(), img, SinoSpec(ns=53, nt=120))
    op = NormalOperator(tr, CutoffAtlas.trivial(), symmetric=True)
    data = tr.forward(truth)
    return truth, tr, op, data


def test_cg_zero_data(solver_setup):
    truth, tr, op, data = solver_setup
    rec, report = cg_normal_solve(op, data.like(np.zeros_like(data.values)))
    assert report.iterations == 0
    assert np.all(rec.values == 0.0)
    assert report.converged


def test_cg_monotone_and_accurate(solver_setup):
    truth, tr, op, data = solver_setup
    rec, report = cg_normal_solve(op, data, max_iter=40, tol=1e-9, truth=truth)
    hist = report.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-10 for i in range(len(hist) - 1))
    assert hist[-1] < 1e-3
    X = truth.pixel_centers()
    m = np.hypot(X[..., 0], X[..., 1]) <= 0.9
    rel = np.linalg.norm((rec.values - truth.values)[m]) / np.linalg.norm(truth.values[m])
    assert rel < 0.06  # regression baseline at 48^2 / 120 angles
    assert report.rel_error_vs_truth is not None


def test_cg_data_consistency(solver_setup):
    """||A f_rec - g|| / ||g|| stays within 1.5x the normal-equation proxy."""
    truth, tr, op, data = solver_setup
    rec, report = cg_normal_solve(op, data, max_iter=40, tol=1e-9)
    resid = tr.forward(rec).values - data.values
    rel_data = np.linalg.norm(resid) / np.linalg.norm(data.values)
    assert rel_data <= max(1.5 * report.residual_history[-1], 0.02)


def test_cg_tikhonov_shrinks(solver_setup):
    truth, tr, op, data = solver_setup
    rec0, _ = cg_normal_solve(op, data, max_iter=15, tol=1e-12)
    rec1, _ = cg_normal_solve(op, data, max_iter=15, tol=1e-12, tikhonov=1.0)
    assert rec1.norm() < rec0.norm()


def test_cg_non_finite_residual_diverges(solver_setup):
    """A NaN residual compares False against the rise test, so it once ran
    silently to max_iter; it raises at the first iteration."""
    _, _, op, data = solver_setup
    with pytest.raises(DivergenceError, match="residual is nan after 1 iterations"):
        cg_normal_solve(op, data, max_iter=5, tikhonov=float("nan"))


def test_cg_ten_iterations_accurate(solver_setup):
    """The ramp preconditioner makes P^-1 N of order 0: 10 iterations stay
    below a masked error of 0.03, where the unpreconditioned iteration read
    0.0355."""
    truth, tr, op, data = solver_setup
    rec, report = cg_normal_solve(op, data, max_iter=10, tol=0.0)
    assert report.iterations == 10
    X = truth.pixel_centers()
    m = np.hypot(X[..., 0], X[..., 1]) <= 0.9
    rel = np.linalg.norm((rec.values - truth.values)[m]) / np.linalg.norm(truth.values[m])
    assert rel < 0.03


def test_ramp_preconditioner_symmetric_positive(rng):
    """P^-1 is symmetric and positive definite on masked images, which the
    residual-minimal step and its P^-1-norm history rest on."""
    from curvetomo.recon import _ramp_preconditioner, _support_mask

    for nx in (32, 33):
        img = make_image_grid(nx)
        mask = _support_mask(img)
        precondition = _ramp_preconditioner(mask)
        for _ in range(3):
            u = rng.standard_normal((nx, nx)) * mask
            v = rng.standard_normal((nx, nx)) * mask
            Pu, Pv = precondition(u), precondition(v)
            assert np.all(Pu[~mask] == 0.0)
            scale = np.linalg.norm(u) * np.linalg.norm(Pv)
            assert abs(np.sum(u * Pv) - np.sum(Pu * v)) <= 1e-12 * scale
            assert np.sum(v * Pv) >= np.sum(v * v) > 0.0


def test_cg_rank_deficient_sync_rotation():
    """The synchronized rotation (rate -1) sees one direction, so N has a
    large near-null space; the residual-minimal steps still record a
    non-increasing history and the solve stays finite."""
    from curvetomo import RotationMotion, make_dynamic_phase

    nx = 32
    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.5, 0.5), density=1.0)], nx)
    tr = LevelSetTransform(make_dynamic_phase(RotationMotion(-1.0)), UnitWeight(), disk,
                           SinoSpec(ns=35, nt=90))
    op = NormalOperator(tr, CutoffAtlas.trivial(), symmetric=True)
    rec, report = cg_normal_solve(op, tr.forward(disk), max_iter=30, tol=0.0, truth=disk)
    assert report.iterations == 30
    assert np.all(np.isfinite(rec.values))
    hist = report.residual_history
    assert len(hist) == 31
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def test_landweber_reduces_residual(solver_setup):
    truth, tr, op, data = solver_setup
    rec, report = landweber_solve(op, data, max_iter=15)
    assert report.residual_history[-1] < report.residual_history[0]


def test_solvers_time_each_iteration(solver_setup):
    """Both solvers record one positive wall time per iteration, together
    within the solve's runtime."""
    truth, tr, op, data = solver_setup
    for solve in (cg_normal_solve, landweber_solve):
        _, report = solve(op, data, max_iter=4)
        assert len(report.iteration_s) == report.iterations == 4
        assert all(t > 0.0 for t in report.iteration_s)
        assert sum(report.iteration_s) <= report.runtime


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def test_band_limited_ensemble_properties():
    fields = band_limited_ensemble(32, 3, seed=123)
    for f in fields:
        X = f.pixel_centers()
        outside = np.hypot(X[..., 0], X[..., 1]) > 0.92
        assert np.max(np.abs(f.values[outside])) < 1e-12
        assert f.norm() == pytest.approx(1.0, rel=1e-12)
    # fixed seed reproducibility
    again = band_limited_ensemble(32, 3, seed=123)
    np.testing.assert_array_equal(fields[0].values, again[0].values)


def test_stability_static_spread_baseline():
    """Static ellipticity: ratio spread bounded over the random ensemble."""
    from curvetomo import IdentityMotion, stability_probe

    report = stability_probe(lambda a: IdentityMotion(), [0.0], n_samples=50,
                             nx=32, nt=60)
    assert report.max_ratio[0.0] / report.min_ratio[0.0] < 20.0
    assert not report.degenerate_flags[0.0]


def test_stability_breathing_near_static():
    """Small-perturbation bound: per-amplitude medians within 2x static."""
    from curvetomo import BreathingMotion, stability_probe

    report = stability_probe(lambda a: BreathingMotion(a), [0.0, 0.02, 0.05],
                             n_samples=10, nx=32, nt=60)
    med0 = report.median_ratio[0.0]
    for a in (0.02, 0.05):
        assert 0.5 * med0 < report.median_ratio[a] < 2.0 * med0
        assert not report.degenerate_flags[a]


def test_perturbation_zero_delta_is_zero():
    table = perturbation_sweep([0.0], nx=32, nt=60)
    assert table.ratios[0] <= 1e-10


def test_perturbation_slope_small():
    table = perturbation_sweep([0.0, 3e-3, 1e-2, 3e-2], nx=32, nt=60)
    assert table.slope == pytest.approx(1.0, abs=0.2)
    assert table.monotone


# ---------------------------------------------------------------------------
# edge response
# ---------------------------------------------------------------------------


def test_edge_response_perfect_recon():
    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.5, 0.5), density=1.0)], 64)
    cov = CovectorSample(x=np.array([0.5, 0.0]), xi=np.array([1.0, 0.0]))
    assert edge_response(disk, disk, cov) == pytest.approx(1.0, abs=1e-12)


def test_edge_response_smoothed_recon_lower():
    from scipy import ndimage

    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.5, 0.5), density=1.0)], 64)
    blurred = disk.like(ndimage.gaussian_filter(disk.values, 3.0))
    cov = CovectorSample(x=np.array([0.5, 0.0]), xi=np.array([1.0, 0.0]))
    r = edge_response(blurred, disk, cov)
    assert 0.0 < r < 0.8


def test_edge_response_window_domain_error():
    from curvetomo import DomainError

    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.5, 0.5), density=1.0)], 32)
    cov = CovectorSample(x=np.array([1.04, 0.0]), xi=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        edge_response(disk, disk, cov)
