import math

import numpy as np
import pytest
from scipy import ndimage

from curvetomo import (
    BreathingMotion,
    BumpWeight,
    CoverageError,
    CutoffAtlas,
    IdentityMotion,
    NormalOperator,
    NumericBudgetError,
    RotationMotion,
    SinoSpec,
    Sinogram,
    UnitWeight,
    build_default_atlas,
    forward_lagrangian,
    forward_levelset,
    lagrangian_to_levelset_weight,
    make_dynamic_phase,
    make_fanbeam_phase,
    make_image_grid,
    make_static_phase,
)
from curvetomo.geometry import StaticPhase
from curvetomo.operators import LevelSetTransform
from curvetomo.phantom import EllipseSpec, render_phantom

from conftest import atlas_probe_pairs, reference_solve_time


def smooth_field(img, seed, sigma=3.0, support_frac=0.9):
    r = np.random.default_rng(seed)
    v = ndimage.gaussian_filter(r.standard_normal((img.nx, img.ny)), sigma)
    X = img.pixel_centers()
    v = v * (np.hypot(X[..., 0], X[..., 1]) <= support_frac * img.support_radius)
    return img.like(v)


def smooth_sino(tr, seed, sigma=3.0):
    r = np.random.default_rng(seed)
    v = ndimage.gaussian_filter(r.standard_normal((len(tr.s_grid), len(tr.t_grid))),
                                sigma, mode="wrap")
    return Sinogram(tr.s_grid.copy(), tr.t_grid.copy(), v)


# ---------------------------------------------------------------------------
# forward: oracles and algebraic identities
# ---------------------------------------------------------------------------


def test_disk_chord_oracle(small_transform):
    """Radon transform of a disk indicator is the chord length 2 sqrt(r^2-s^2)."""
    tr = small_transform
    img = make_image_grid(48)
    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.6, 0.6), density=1.0)],
                          img.nx)
    g = tr.forward(disk)
    S = g.s_grid
    exact = np.where(np.abs(S) < 0.6, 2 * np.sqrt(np.maximum(0.36 - S**2, 0.0)), 0.0)
    m = np.abs(S) < 0.6
    err = g.values[m] - exact[m, None]
    rel = math.sqrt(np.sum(err**2) / (np.sum(exact[m] ** 2) * g.values.shape[1]))
    assert rel < 0.01


def test_disk_chord_oracle_256(static_pf):
    """The chord-length oracle at the reference 256^2 resolution."""
    img = make_image_grid(256)
    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.6, 0.6), density=1.0)],
                          256)
    tr = LevelSetTransform(static_pf, UnitWeight(), img, SinoSpec(ns=269, nt=60))
    g = tr.forward(disk)
    S = g.s_grid
    exact = np.where(np.abs(S) < 0.6, 2 * np.sqrt(np.maximum(0.36 - S**2, 0.0)), 0.0)
    m = np.abs(S) < 0.6
    err = g.values[m] - exact[m, None]
    rel = math.sqrt(np.sum(err**2) / (np.sum(exact[m] ** 2) * g.values.shape[1]))
    assert rel < 0.01


@pytest.mark.parametrize("ns", [135, 269])
def test_disk_chord_oracle_fine_s(static_pf, ns):
    """The chord-length oracle with the s axis sampled finer than a pixel:
    ds about h/2 and h/4 at 64^2."""
    img = make_image_grid(64)
    disk = render_phantom([EllipseSpec(center=(0, 0), semi_axes=(0.6, 0.6), density=1.0)],
                          64)
    tr = LevelSetTransform(static_pf, UnitWeight(), img, SinoSpec(ns=ns, nt=30))
    g = tr.forward(disk)
    S = g.s_grid
    exact = np.where(np.abs(S) < 0.6, 2 * np.sqrt(np.maximum(0.36 - S**2, 0.0)), 0.0)
    m = np.abs(S) < 0.6
    err = g.values[m] - exact[m, None]
    rel = math.sqrt(np.sum(err**2) / (np.sum(exact[m] ** 2) * g.values.shape[1]))
    assert rel < 0.01


def _chord(r, p):
    """Length of the chord at distance p from the centre of a disk of radius r."""
    return 2 * np.sqrt(np.maximum(r * r - p * p, 0.0))


def _disk_oracle_error(case, nx, ns):
    """Relative L2 error of the level-set forward of a disk indicator against
    its closed form, with nt = 60, on the bins inside the chord.

    * rotation 0.3, disk of radius 0.45 at c = (0.25, -0.15): the level
      sets are lines with |grad phi| = 1, so g = chord(r, s - phi(t, c));
    * breathing 0.05, centred disk of radius 0.4, inside the flat zone: the
      level sets there are the lines x . omega(t) = (1 + a sin t) s, so
      g = chord(r, (1 + a sin t) s);
    * fan R = 3, the disk of the rotation case: the level set is the ray
      from S(t) = R (cos t, sin t) at fan angle s from -S(t), along
      -omega(t + s), so g = chord(r, (c - S(t)) . omega(t + s - pi/2)).
    """
    from curvetomo.geometry import omega

    c, r = np.array([0.25, -0.15]), 0.45
    if case == "rotation":
        pf = make_dynamic_phase(RotationMotion(0.3))
    elif case == "breathing":
        pf, c, r = make_dynamic_phase(BreathingMotion(0.05)), np.zeros(2), 0.4
    else:
        pf = make_fanbeam_phase(3.0)
    disk = render_phantom([EllipseSpec(center=tuple(c), semi_axes=(r, r), density=1.0)], nx)
    tr = LevelSetTransform(pf, UnitWeight(), make_image_grid(nx), SinoSpec(ns=ns, nt=60))
    g = tr.forward(disk).values
    S, T = np.meshgrid(tr.s_grid, tr.t_grid, indexing="ij")
    if case == "rotation":
        exact = _chord(r, S - pf._eval_raw(tr.t_grid, np.broadcast_to(c, (len(tr.t_grid), 2))))
    elif case == "breathing":
        exact = _chord(r, (1 + 0.05 * np.sin(T)) * S)
    else:
        source = 3.0 * np.stack([np.cos(T), np.sin(T)], axis=-1)
        exact = _chord(r, np.sum((c - source) * omega(T + S - 0.5 * math.pi), axis=-1))
    m = exact > 0
    assert m.sum() > 0.05 * m.size
    return math.sqrt(np.sum((g[m] - exact[m]) ** 2) / np.sum(exact[m] ** 2))


@pytest.mark.parametrize("case", ["rotation", "breathing", "fan"])
def test_disk_chord_oracle_dynamic_and_fan(case):
    """The disk oracles of ``_disk_oracle_error`` at 128^2 with ns = 135;
    measured 0.0043 (rotation), 0.0057 (breathing) and 0.0048 (fan)."""
    assert _disk_oracle_error(case, 128, 135) < 0.01


@pytest.mark.parametrize("ns", [135, 269])
@pytest.mark.parametrize("case", ["rotation", "breathing", "fan"])
def test_disk_chord_oracle_fine_s_dynamic_and_fan(case, ns):
    """``test_disk_chord_oracle_fine_s`` on the dynamic and fan geometries:
    the disk oracles of ``_disk_oracle_error`` at 64^2 with ds about h/2 and
    h/4.  Measured at ns = 135 / 269: 0.0091 / 0.0092 (rotation),
    0.0091 / 0.0093 (breathing), 0.0093 / 0.0092 (fan)."""
    assert _disk_oracle_error(case, 64, ns) < 0.01


def test_plan_samples_each_curve_once_per_pixel(static_pf):
    """The plan's trapezoid rule runs at one-pixel steps.  A static curve is
    a line, and its stored points, sorted along it, lie one pixel apart;
    the start point, which both walks emit, is stored twice."""
    img = make_image_grid(32)
    tr = LevelSetTransform(static_pf, UnitWeight(), img, SinoSpec(ns=35, nt=48))
    plan, ns = tr.plan, len(tr.s_grid)
    order = np.argsort(plan.curve_id, kind="stable")
    bounds = np.searchsorted(plan.curve_id[order], np.arange(plan.n_curves + 1))
    checked = 0
    for row in range(plan.n_curves):
        pts = plan.points[order[bounds[row]:bounds[row + 1]]]
        if len(pts) < 3:
            continue
        t = tr.t_grid[row // ns]
        gaps = np.diff(np.sort(pts[:, 1] * math.cos(t) - pts[:, 0] * math.sin(t)))
        assert np.count_nonzero(gaps == 0.0) == 1
        np.testing.assert_allclose(gaps[gaps > 0.0], img.spacing, rtol=1e-9)
        checked += 1
    assert checked > 0.8 * plan.n_curves


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan"])
def test_plan_quadrature_converged(case, monkeypatch):
    """The forward at the plan's step against one at a quarter-pixel step,
    on a smooth field and on an off-centre disk, at 32^2: relative L2
    difference at most 1e-3, measured 3.9e-4 to 4.5e-4 (smooth field) and
    1.5e-4 to 1.8e-4 (disk) across the cases, about 20 times below the
    disk oracles' discretization error at 64^2."""
    from curvetomo import operators

    pf, mu, kw = _geometry(case)
    img = make_image_grid(32)
    fields = np.stack([
        smooth_field(img, 51, sigma=1.5).values,
        render_phantom([EllipseSpec(center=(0.25, -0.15), semi_axes=(0.45, 0.45),
                                    density=1.0)], 32).values])

    def forward():
        tr = LevelSetTransform(pf, mu, img, SinoSpec(ns=35, nt=48), **kw)
        return tr.forward(img.like(fields)).values

    plan_step = forward()
    monkeypatch.setattr(operators, "_PLAN_STEP_PX", 0.25)
    fine = forward()
    failed = np.isnan(plan_step)
    assert np.array_equal(failed, np.isnan(fine))
    for got, ref, keep in zip(plan_step, fine, ~failed):
        rel = math.sqrt(np.sum((got[keep] - ref[keep]) ** 2) / np.sum(ref[keep] ** 2))
        assert rel <= 1e-3


def test_forward_zero_and_linearity(small_transform):
    tr = small_transform
    img = make_image_grid(48)
    assert np.all(tr.forward(img.like(np.zeros((48, 48)))).values == 0.0)
    f1 = smooth_field(img, 1)
    f2 = smooth_field(img, 2)
    a, b = 1.7, -0.4
    lhs = tr.forward(img.like(a * f1.values + b * f2.values)).values
    rhs = a * tr.forward(f1).values + b * tr.forward(f2).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_forward_weight_scaling(static_pf):
    img = make_image_grid(48)
    f = smooth_field(img, 3)
    spec = SinoSpec(ns=53, nt=60)

    class DoubleWeight(UnitWeight):
        def eval(self, t, x):
            return 2.0 * super().eval(t, x)

    g1 = forward_levelset(static_pf, UnitWeight(), f, spec)
    g2 = forward_levelset(static_pf, DoubleWeight(), f, spec)
    np.testing.assert_allclose(g2.values, 2.0 * g1.values, atol=1e-12)


def test_lagrangian_identity_matches_levelset(static_pf):
    img = make_image_grid(64)
    f = render_phantom([EllipseSpec(center=(0.1, -0.05), semi_axes=(0.5, 0.35),
                                    angle=0.4, density=1.0)], 64)
    spec = SinoSpec(ns=69, nt=120)
    g_lvl = forward_levelset(static_pf, UnitWeight(), f, spec)
    g_lag = forward_lagrangian(
        IdentityMotion(), UnitWeight(), f,
        SinoSpec(ns=69, nt=120, s_range=(float(g_lvl.s_grid[0]), float(g_lvl.s_grid[-1]))),
    )
    rel = np.linalg.norm(g_lvl.values - g_lag.values) / np.linalg.norm(g_lag.values)
    assert rel < 0.005


def test_change_of_variables_equivalence():
    """Material-coordinate forward equals the level-set forward with the
    pushforward weight |det D psi^-1| mu(psi^-1) / |grad phi|."""
    motion = BreathingMotion(0.05)
    mu = BumpWeight(amplitude=0.2)
    img = make_image_grid(64)
    f = render_phantom([EllipseSpec(center=(-0.1, 0.1), semi_axes=(0.45, 0.45), density=1.0),
                        EllipseSpec(center=(0.25, -0.2), semi_axes=(0.25, 0.12),
                                    angle=0.5, density=0.6)], 64)
    g_lag = forward_lagrangian(motion, mu, f, SinoSpec(ns=69, nt=120))
    pf = make_dynamic_phase(motion)
    mu_hat = lagrangian_to_levelset_weight(motion, mu)
    spec = SinoSpec(ns=69, nt=120,
                    s_range=(float(g_lag.s_grid[0]), float(g_lag.s_grid[-1])))
    g_lvl = forward_levelset(pf, mu_hat, f, spec)
    rel = np.linalg.norm(g_lag.values - g_lvl.values) / np.linalg.norm(g_lag.values)
    assert rel < 0.02


def test_radon_shift_theorem():
    img = make_image_grid(64)
    spec_e = [EllipseSpec(center=(0.0, 0.05), semi_axes=(0.4, 0.3), angle=0.3, density=1.0)]
    f0 = render_phantom(spec_e, 64)
    v = np.array([0.1, -0.07])
    shifted = [EllipseSpec(center=(0.1, 0.05 - 0.07), semi_axes=(0.4, 0.3),
                           angle=0.3, density=1.0)]
    f1 = render_phantom(shifted, 64)
    spec = SinoSpec(ns=95, nt=90, s_range=(-1.05, 1.05))
    g0 = forward_lagrangian(IdentityMotion(), UnitWeight(), f0, spec)
    g1 = forward_lagrangian(IdentityMotion(), UnitWeight(), f1, spec)
    pred = np.empty_like(g0.values)
    ds = g0.s_grid[1] - g0.s_grid[0]
    for j, t in enumerate(g0.t_grid):
        shift = v[0] * math.cos(t) + v[1] * math.sin(t)
        pred[:, j] = np.interp(g0.s_grid - shift, g0.s_grid, g0.values[:, j],
                               left=0.0, right=0.0)
    rel = np.linalg.norm(g1.values - pred) / np.linalg.norm(g1.values)
    assert rel < 0.01


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------


def test_adjoint_zero(small_transform):
    g = small_transform.forward(make_image_grid(48))
    out = small_transform.adjoint(g.like(np.zeros_like(g.values)))
    assert np.all(out.values == 0.0)


def test_adjoint_constant_data(small_transform):
    """A* applied to g = 1 integrates J = 1 over the full circle: 2 pi."""
    tr = small_transform
    g = Sinogram(tr.s_grid.copy(), tr.t_grid.copy(),
                 np.ones((len(tr.s_grid), len(tr.t_grid))))
    out = tr.adjoint(g)
    X = make_image_grid(48).pixel_centers()
    inside = np.hypot(X[..., 0], X[..., 1]) < 0.9  # away from the s-range edge
    assert np.max(np.abs(out.values[inside] - 2 * math.pi)) < 0.01 * 2 * math.pi


def test_adjoint_duality(small_transform):
    tr = small_transform
    img = make_image_grid(48)
    worst = 0.0
    for k in range(5):
        f = smooth_field(img, 100 + k)
        g = smooth_sino(tr, 200 + k)
        Af = tr.forward(f)
        bp = tr.adjoint(g)
        rel = abs(Af.inner(g) - f.inner(bp)) / (Af.norm() * g.norm())
        worst = max(worst, rel)
    assert worst < 1e-3


@pytest.mark.parametrize("case", ["bump_weight", "affine", "limited_range"])
def test_adjoint_duality_variants(case, static_pf):
    """Duality holds with a varying weight, the affine family, and a
    windowed (non-periodic) acquisition range."""
    from curvetomo.geometry import AffineMotion

    img = make_image_grid(48)
    if case == "bump_weight":
        pf, mu = make_dynamic_phase(BreathingMotion(0.06)), BumpWeight(amplitude=0.4)
        spec = SinoSpec(ns=53, nt=90)
    elif case == "affine":
        pf, mu = make_dynamic_phase(AffineMotion(0.06)), UnitWeight()
        spec = SinoSpec(ns=53, nt=90)
    else:
        pf, mu = static_pf, UnitWeight()
        spec = SinoSpec(ns=53, nt=90, t_range=(0.5, 2.8))
    tr = LevelSetTransform(pf, mu, img, spec)
    f = smooth_field(img, 61)
    g = smooth_sino(tr, 62)
    Af = tr.forward(f)
    bp = tr.adjoint(g)
    assert abs(Af.inner(g) - f.inner(bp)) / (Af.norm() * g.norm()) < 1e-3


def test_bilinear_interp_is_refused(static_pf):
    """The bilinear spline was removed: asking for it is an error, not a
    silent cubic transform."""
    with pytest.raises(ValueError, match="bilinear"):
        LevelSetTransform(static_pf, UnitWeight(), make_image_grid(16), SinoSpec(ns=9, nt=8),
                          interp="linear")


# ---------------------------------------------------------------------------
# normal operator and atlas
# ---------------------------------------------------------------------------


def test_normal_trivial_atlas_is_adjoint_of_forward(small_transform):
    tr = small_transform
    img = make_image_grid(48)
    f = smooth_field(img, 11)
    direct = tr.adjoint(tr.forward(f))
    N = NormalOperator(tr, CutoffAtlas.trivial())
    np.testing.assert_allclose(N.apply(f).values, direct.values, atol=1e-14)


def test_normal_symmetric_variant(small_transform):
    tr = small_transform
    img = make_image_grid(48)
    atlas = build_default_atlas(tr.pf, 1.0, 2)
    N = NormalOperator(tr, atlas, symmetric=True)
    f1 = smooth_field(img, 21)
    f2 = smooth_field(img, 22)
    lhs = N.apply(f1).inner(f2)
    rhs = f1.inner(N.apply(f2))
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-3
    # positive semidefiniteness up to discretization
    q = N.apply(f1).inner(f1)
    assert q >= -1e-6 * f1.norm() ** 2


def test_normal_operator_matches_chartwise_formula(small_transform):
    """apply and back_data equal, bit for bit, the chart-by-chart sums
    sum_i w_i A*(chi_iY A(v_i f)) and sum_i w_i A*(chi_iY g), with
    w_i = chi_iX, v_i = 1 (plain) or w_i = v_i = sqrt(chi_iX) (symmetric)."""
    from curvetomo import Chart

    tr = small_transform
    img = make_image_grid(48)
    f = smooth_field(img, 23)
    g = smooth_sino(tr, 24)
    atlas = CutoffAtlas(charts=[Chart(x_center=(cx, cy), x_radius=1.2, s_radius=0.9)
                                for cx in (-0.5, 0.5) for cy in (-0.5, 0.5)])
    pix = tr._pixel_points()
    S, T = np.meshgrid(tr.s_grid, tr.t_grid, indexing="ij")
    for symmetric in (False, True):
        N = NormalOperator(tr, atlas, symmetric=symmetric)
        applied, backed = np.zeros((img.nx, img.ny)), np.zeros((img.nx, img.ny))
        Af = tr.forward(f)
        for c in atlas.charts:
            cx = atlas.chart_chi_x(c, pix).reshape(img.nx, img.ny)
            cy = atlas.chart_chi_y(c, S, T)
            w = np.sqrt(cx) if symmetric else cx
            if symmetric:
                Af = tr.forward(f.like(f.values * w))
            applied += w * tr.adjoint(Af.like(Af.values * cy)).values
            backed += w * tr.adjoint(g.like(g.values * cy)).values
        assert N.apply(f).values.tobytes() == applied.tobytes()
        assert N.back_data(g).values.tobytes() == backed.tobytes()


def test_normal_operator_reads_each_matrix_once_per_apply(small_transform, monkeypatch):
    """With a 2 x 2 atlas, a symmetric apply makes one forward and one
    adjoint, on stacks of one slice per chart, a plain apply one of each and
    back_data one adjoint: each assembled matrix is read once per call."""
    from curvetomo import Chart

    tr = small_transform
    img = make_image_grid(48)
    f = smooth_field(img, 25)
    g = smooth_sino(tr, 26)
    atlas = CutoffAtlas(charts=[Chart(x_center=(cx, cy), x_radius=1.2, s_radius=0.9)
                                for cx in (-0.5, 0.5) for cy in (-0.5, 0.5)])
    calls = []
    for name in ("forward", "adjoint"):
        def counted(self, arg, name=name, fn=getattr(LevelSetTransform, name)):
            calls.append((name, arg.values.shape))
            return fn(self, arg)
        monkeypatch.setattr(LevelSetTransform, name, counted)
    images, sinos = (4, img.nx, img.ny), (4, len(tr.s_grid), len(tr.t_grid))
    for symmetric in (False, True):
        N = NormalOperator(tr, atlas, symmetric=symmetric)
        calls.clear()
        N.apply(f)
        assert calls == [("forward", images if symmetric else images[1:]),
                         ("adjoint", sinos)]
        calls.clear()
        N.back_data(g)
        assert calls == [("adjoint", sinos)]


def _stack(grid, slices):
    return grid.like(np.stack([s.values for s in slices]))


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan", "nan_disk"])
def test_stacks_equal_their_slices(case):
    """forward and adjoint on stacks of 1, 3 and 4 slices, and on a (2, 2)
    stack, give every slice the bytes of that slice alone.  Failed curves
    are NaN in every slice, NaN data reads as zero in every slice, and a
    stack over the NaN budget is refused as one image is."""
    pf, mu, kw = _geometry(case)
    img = make_image_grid(32)
    spec = _spec32(case)
    tr = LevelSetTransform(pf, mu, img, spec, **kw)
    fs = [smooth_field(img, 60 + i, sigma=1.5) for i in range(4)]
    gs = [smooth_sino(tr, 64 + i) for i in range(4)]
    gs[1].values[3:9, 5] = np.nan
    failed = tr.plan.failed.reshape(len(tr.t_grid), len(tr.s_grid)).T
    for k in (1, 3, 4):
        fwd = tr.forward(_stack(img, fs[:k])).values
        adj = tr.adjoint(_stack(gs[0], gs[:k])).values
        assert fwd.shape == (k, 35, 48) and adj.shape == (k, 32, 32)
        for i in range(k):
            assert fwd[i].tobytes() == tr.forward(fs[i]).values.tobytes(), (k, i)
            assert np.array_equal(np.isnan(fwd[i]), failed)
            assert adj[i].tobytes() == tr.adjoint(gs[i]).values.tobytes(), (k, i)
    zeroed = tr.adjoint(gs[1].like(np.nan_to_num(gs[1].values))).values
    assert adj[1].tobytes() == zeroed.tobytes()
    square = tr.forward(img.like(_stack(img, fs).values.reshape(2, 2, 32, 32))).values
    assert square.shape == (2, 2, 35, 48)
    assert square.tobytes() == fwd.tobytes()
    back = tr.adjoint(gs[0].like(_stack(gs[0], gs).values.reshape(2, 2, 35, 48))).values
    assert back.shape == (2, 2, 32, 32) and back.tobytes() == adj.tobytes()
    if case == "nan_disk":
        assert failed.any()
        strict = LevelSetTransform(pf, mu, img, spec, nan_budget=0.0)
        assert strict.plan.n_failed > strict.nan_budget * strict.plan.n_curves
        for f in (fs[0], _stack(img, fs)):
            with pytest.raises(NumericBudgetError):
                strict.forward(f)


def test_stack_shapes_are_checked_on_the_trailing_axes(small_transform):
    """A stack is accepted only when its last two axes are the grid's."""
    tr = small_transform
    with pytest.raises(ValueError):
        make_image_grid(48).like(np.zeros((3, 48, 47)))
    with pytest.raises(ValueError):
        smooth_sino(tr, 27).like(np.zeros((2, len(tr.s_grid), len(tr.t_grid) + 1)))
    with pytest.raises(ValueError):
        tr.forward(make_image_grid(32, values=np.zeros((2, 32, 32))))


def test_adjoint_and_back_data_refuse_another_grid(small_transform):
    """A sinogram is read only on the transform's (s, t) grid: other values
    at the same lengths would be read at the wrong places, other lengths
    would not broadcast against the chart weights.  Grids within rounding
    of the transform's are the same grid."""
    tr = small_transform
    g = smooth_sino(tr, 30)
    N = NormalOperator(tr)
    ds = tr.s_grid[1] - tr.s_grid[0]
    for other in (Sinogram(tr.s_grid + 0.5 * ds, tr.t_grid, g.values),
                  Sinogram(tr.s_grid, tr.t_grid[::-1].copy(), g.values),
                  Sinogram(tr.s_grid[1:], tr.t_grid, g.values[1:])):
        with pytest.raises(ValueError, match="grid"):
            tr.adjoint(other)
        with pytest.raises(ValueError, match="grid"):
            N.back_data(other)
    rounded = Sinogram(tr.s_grid * (1 + 1e-13), tr.t_grid + 1e-12, g.values)
    np.testing.assert_array_equal(tr.adjoint(rounded).values, tr.adjoint(g).values)


def test_plan_curve_ids_are_int32(small_transform):
    """The flat (s, t) index of a plan point is below ns * nt, so it is
    stored in 4 bytes."""
    ids = small_transform.plan.curve_id
    assert ids.dtype == np.int32
    assert 0 <= ids.min() and ids.max() < len(small_transform.s_grid) * len(small_transform.t_grid)


def test_normal_operator_refuses_stacks(small_transform):
    """apply and back_data take one image or sinogram: a stack of one slice
    per chart would otherwise pair each slice with one chart."""
    from curvetomo import Chart

    tr = small_transform
    atlas = CutoffAtlas(charts=[Chart(x_center=(cx, 0.0), x_radius=1.2, s_radius=0.9)
                                for cx in (-0.5, 0.5)])
    f = make_image_grid(48, values=np.zeros((2, 48, 48)))
    g = smooth_sino(tr, 28)
    for symmetric in (False, True):
        N = NormalOperator(tr, atlas, symmetric=symmetric)
        with pytest.raises(ValueError):
            N.apply(f)
        with pytest.raises(ValueError):
            N.back_data(g.like(np.stack([g.values, g.values])))


def test_atlas_trivial_partition(static_pf):
    atlas = build_default_atlas(static_pf, 1.0, 1)
    pts = np.random.default_rng(0).uniform(-0.9, 0.9, (50, 2))
    np.testing.assert_allclose(atlas.chi_x(pts), 1.0)


def test_atlas_grid_partition_bounds(static_pf):
    atlas = build_default_atlas(static_pf, 1.0, 4)
    assert len(atlas.charts) == 16
    rng = np.random.default_rng(1)
    r = np.sqrt(rng.uniform(0, 1, 400))
    a = rng.uniform(0, 2 * math.pi, 400)
    pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    sums = atlas.chi_x(pts)
    assert np.min(sums) >= 0.5
    assert np.max(sums) <= 4.0


def test_atlas_partition_below_minimum_coverage_error(static_pf, monkeypatch):
    """A probe point whose partition-of-unity sum is below the minimum is
    reported as ("chi_sum", point).  The trivial atlas sums to 1 everywhere,
    so a minimum above 1 reports every probe point, in probe order."""
    from curvetomo import operators

    monkeypatch.setattr(operators, "_COVERAGE_MIN", 1.5)
    with pytest.raises(CoverageError, match="partition of unity below 1.5 at 112") as exc:
        build_default_atlas(static_pf, 1.0, 1)
    rr = np.linspace(0.0, 0.98, 7)
    aa = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    probes = [[r * math.cos(a), r * math.sin(a)] for r in rr for a in aa]
    assert [kind for kind, _ in exc.value.uncovered] == ["chi_sum"] * len(probes)
    np.testing.assert_allclose([p for _, p in exc.value.uncovered], probes, atol=1e-15)


def test_atlas_limited_angle_coverage_error(static_pf):
    import copy

    pf = copy.copy(static_pf)
    pf.t_range = (0.0, math.pi / 3)
    with pytest.raises(CoverageError) as exc:
        build_default_atlas(pf, 1.0, 2)
    assert len(exc.value.uncovered) > 0


def test_atlas_limited_angle_uncovered_equals_per_pair(static_pf, monkeypatch):
    """The batched coverage check reports exactly the pairs that a per-pair
    loop over the reference solver finds unseen by the atlas."""
    import copy

    from curvetomo import operators

    built = []

    class RecordingAtlas(CutoffAtlas):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(operators, "CutoffAtlas", RecordingAtlas)
    pf = copy.copy(static_pf)
    pf.t_range = (0.0, math.pi / 3)
    with pytest.raises(CoverageError) as exc:
        build_default_atlas(pf, 1.0, 2)
    (atlas,) = built
    expected = []
    for p, d in zip(*atlas_probe_pairs(1.0)):
        seen = 0.0
        for t_root, _ in reference_solve_time(pf, p, d):
            s_val = float(pf._eval_raw(t_root, p))
            seen = max(seen, float(atlas.chi_pair(p, s_val, t_root)))
        if seen < 0.25:
            expected.append((p.tolist(), d.tolist()))
    assert exc.value.uncovered == expected


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump"])
def test_atlas_scans_evaluate_time_factors_once_per_time(case, monkeypatch):
    """The atlas's scans evaluate (points, 1, 2) against their times: each
    residual-scan block computes the phase's time factor on at most
    n_scan + 1 times, and each phase-range scan on its own times only."""
    from curvetomo import microlocal, operators

    pf, _, _ = _geometry(case)
    factor = pf._time_factor
    counting = []

    def counted_factor(t):
        if counting:
            counting[-1] += np.size(t)
        return factor(t)

    def counted(fn, times_of):
        def wrapper(*args):
            counting.append(0)
            try:
                return fn(*args)
            finally:
                seen[fn.__name__].append((counting.pop(), times_of(args)))
        return wrapper

    seen = {"_scan_block": [], "_phase_range": []}
    monkeypatch.setattr(pf, "_time_factor", counted_factor)
    monkeypatch.setattr(microlocal, "_scan_block",
                        counted(microlocal._scan_block, lambda args: len(args[1])))
    monkeypatch.setattr(operators, "_phase_range",
                        counted(operators._phase_range, lambda args: len(args[1])))
    build_default_atlas(pf, 1.0, 2)
    assert len(seen["_scan_block"]) > 1 and len(seen["_phase_range"]) == 4
    for calls in seen.values():
        for evaluated, times in calls:
            assert 0 < evaluated <= times
    assert seen["_scan_block"][0][1] == 721


def test_empty_plan_transform_is_zero(static_pf):
    """An s range that misses the support captures no seed: the plan is
    empty and the transform is zero, not an error."""
    img = make_image_grid(16)
    tr = LevelSetTransform(static_pf, UnitWeight(), img,
                           SinoSpec(ns=9, nt=8, s_range=(5.0, 6.0)))
    f = img.like(np.ones((img.nx, img.ny)))
    g = tr.forward(f)
    assert g.values.shape == (9, 8) and np.all(g.values == 0.0)
    assert np.all(tr.adjoint(smooth_sino(tr, 3)).values == 0.0)
    assert tr.plan.matrix.nnz == 0
    assert not tr.plan.failed.any()
    assert np.all(tr._nearest_seeds(tr._seed_points()) == -1)


def _nearest_seeds_per_time(tr, seeds):
    """Reference seed choice, one time at a time over the seeds with a
    finite phase value: the first seed nearest each s, kept within its
    capture window."""
    pf, ns = tr.pf, len(tr.s_grid)
    cell = float(np.max(np.abs(np.diff(np.unique(seeds[:, 0])))))
    sel = np.full((len(tr.t_grid), ns), -1, dtype=np.int64)
    for j, t in enumerate(tr.t_grid):
        idx = np.flatnonzero(np.isfinite(pf._eval_raw(t, seeds)))
        vals, grads = pf._eval_grad_raw(t, seeds[idx])
        capture = 0.9 * np.hypot(grads[:, 0], grads[:, 1]) * cell * math.sqrt(2.0) + 1e-12
        diff = np.abs(vals[:, None] - tr.s_grid[None, :])
        best = np.argmin(diff, axis=0)
        ok = diff[best, np.arange(ns)] <= capture[best]
        sel[j, ok] = idx[best[ok]]
    return sel


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan", "fan_full",
                                  "nan_disk"])
def test_nearest_seeds_match_the_per_time_choice(case, monkeypatch):
    """The plan's seed choice over all (time, seed) pairs at once, in
    blocks of times, equals the choice made one time at a time, and
    one-time blocks cover the block edges.  An s range past the support
    leaves samples with no seed; ``fan_full`` takes the fan over the full
    circle of times.  A seed where the phase is NaN captures nothing."""
    from curvetomo import operators

    pf, mu, kw = _geometry(case.removesuffix("_full"))
    spec = SinoSpec(ns=35, nt=48, s_range=(-1.6, 1.6),
                    t_range=(0.0, 2 * math.pi) if case == "fan_full" else None)
    tr = LevelSetTransform(pf, mu, make_image_grid(32), spec, **kw)
    seeds = tr._seed_points()
    expected = _nearest_seeds_per_time(tr, seeds)
    if case == "nan_disk":
        hole = np.flatnonzero(np.isnan(pf._eval_raw(0.0, seeds)))
        assert len(hole) and not np.isin(expected, hole).any()
    assert np.any(expected >= 0) and np.any(expected == -1)
    np.testing.assert_array_equal(tr._nearest_seeds(seeds), expected)
    monkeypatch.setattr(operators, "_SEED_BLOCK_CELLS", 1)
    np.testing.assert_array_equal(tr._nearest_seeds(seeds), expected)


def test_chart_taper_profile():
    atlas = CutoffAtlas(charts=[])
    from curvetomo.operators import _taper

    d = np.linspace(0.0, 1.2, 200)
    chi = _taper(d, 1.0)
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    assert np.all(chi[d <= 0.5] == 1.0)
    assert np.all(chi[d >= 1.0] == 0.0)
    # C^2: second differences stay bounded through the joins
    dd = np.diff(chi, 2)
    assert np.max(np.abs(dd)) < 10 * (d[1] - d[0]) ** 2 * 60


def test_one_shot_wrappers_match_transform(small_transform, static_pf):
    """forward_levelset / adjoint / apply_normal free functions agree with
    the planned-transform methods."""
    from curvetomo import adjoint, apply_normal

    tr = small_transform
    img = make_image_grid(48)
    f = smooth_field(img, 41)
    spec = SinoSpec(ns=53, nt=90)
    g1 = forward_levelset(static_pf, UnitWeight(), f, spec)
    g2 = tr.forward(f)
    np.testing.assert_allclose(g1.values, g2.values, atol=1e-12)
    bp1 = adjoint(static_pf, UnitWeight(), g2, img)
    bp2 = tr.adjoint(g2)
    np.testing.assert_allclose(bp1.values, bp2.values, atol=1e-12)
    Nf1 = apply_normal(static_pf, UnitWeight(), CutoffAtlas.trivial(), f, sino_spec=spec)
    Nf2 = tr.adjoint(tr.forward(f))
    np.testing.assert_allclose(Nf1.values, Nf2.values, atol=1e-12)


# ---------------------------------------------------------------------------
# assembled matrices against the point-gather forward and per-time adjoint
# ---------------------------------------------------------------------------

def _gather_forward(tr, f):
    """Reference forward: spline-prefilter the image, interpolate it at every
    plan point, sum the weighted samples per curve; failed curves are NaN."""
    plan = tr.plan
    vals = ndimage.spline_filter(np.asarray(f.values, dtype=float), order=3, mode="constant")
    coords = np.stack([(plan.points[:, 0] - tr.origin[0]) / tr.spacing,
                       (plan.points[:, 1] - tr.origin[1]) / tr.spacing])
    samples = ndimage.map_coordinates(vals, coords, order=3, mode="constant",
                                      cval=0.0, prefilter=False)
    acc = np.bincount(plan.curve_id, weights=plan.coeff * samples, minlength=plan.n_curves)
    out = acc.reshape(len(tr.t_grid), len(tr.s_grid)).T.copy()
    out[plan.failed.reshape(len(tr.t_grid), len(tr.s_grid)).T] = np.nan
    return out


def _quadrature_adjoint(tr, g):
    """Reference adjoint: per time, interpolate the prefiltered data column
    at phi(t, pixel) and accumulate dt * mu * J times it."""
    pts = tr._pixel_points()
    s0, ds, ns = tr.s_grid[0], tr.s_grid[1] - tr.s_grid[0], len(tr.s_grid)
    total = np.zeros(len(pts))
    for j, t in enumerate(tr.t_grid):
        sc = (tr.pf._eval_raw(t, pts) - s0) / ds
        grad = tr.pf._grad_x_raw(t, pts)
        w = np.asarray(tr.mu(t, pts), dtype=float) * np.hypot(grad[:, 0], grad[:, 1])
        col = ndimage.spline_filter1d(np.nan_to_num(np.asarray(g.values[:, j], dtype=float)),
                                      order=3, mode="constant")
        valid = np.isfinite(sc) & (sc >= 0.0) & (sc <= ns - 1.0)
        v = ndimage.map_coordinates(col, np.where(valid, sc, 0.0)[None], order=3,
                                    mode="constant", cval=0.0, prefilter=False)
        total += np.where(valid, v * w, 0.0)
    dt = tr.t_grid[1] - tr.t_grid[0]
    return (total * dt).reshape(tr.nx, tr.ny)


class _NanDiskPhase(StaticPhase):
    """x . omega(t), with phi NaN in the disk |x - (0.3, 0.2)| < 0.1: a
    phase the operator cannot compute there."""

    def _eval_grad_at(self, t, w, x):
        phi, g = super()._eval_grad_at(t, w, x)
        hole = np.hypot(x[..., 0] - 0.3, x[..., 1] - 0.2) < 0.1
        return np.where(hole, np.nan, phi), g


def _geometry(case):
    if case == "static":
        return make_static_phase(), UnitWeight(), {}
    if case == "rotation":
        return make_dynamic_phase(RotationMotion(0.3)), UnitWeight(), {}
    if case == "breathing_bump":
        return make_dynamic_phase(BreathingMotion(0.05)), BumpWeight(amplitude=0.3), {}
    if case == "nan_disk":
        return _NanDiskPhase(), UnitWeight(), {"nan_budget": 0.15}
    return make_fanbeam_phase(3.0), UnitWeight(), {}


def _spec32(case):
    """The 32^2 tests' sinogram.  The NaN-disk phase's s range is given,
    because its range over the support reads NaN."""
    return SinoSpec(ns=35, nt=48, s_range=(-1.05, 1.05) if case == "nan_disk" else None)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan", "nan_disk"])
def test_matrices_match_reference(case):
    pf, mu, kw = _geometry(case)
    img = make_image_grid(32)
    tr = LevelSetTransform(pf, mu, img, _spec32(case), **kw)
    f = smooth_field(img, 51, sigma=1.5)
    g = tr.forward(f).values
    ref = _gather_forward(tr, f)
    failed = tr.plan.failed.reshape(len(tr.t_grid), len(tr.s_grid)).T
    assert np.array_equal(np.isnan(g), failed)
    assert np.array_equal(np.isnan(ref), failed)
    assert _rel(g[~failed], ref[~failed]) <= 1e-12
    data = Sinogram(tr.s_grid, tr.t_grid, np.random.default_rng(52).standard_normal(
        (len(tr.s_grid), len(tr.t_grid))))
    assert _rel(tr.adjoint(data).values, _quadrature_adjoint(tr, data)) <= 1e-12


def _reference_forward_matrix(tr):
    """M from the plan by its own route: each point's 16 tap pairs as COO
    entries (cubic B-spline weights, taps folded back by reflection about
    the edge samples), summed by ``tocsr`` without exact zeros.  Also
    returns whether any tap folded."""
    from scipy import sparse

    plan = tr.plan
    c = (plan.points - tr.origin) / tr.spacing
    n = np.array([tr.nx, tr.ny])
    inside = np.all((c >= 0.0) & (c <= n - 1), axis=1)
    c, coeff, ids = c[inside], plan.coeff[inside], plan.curve_id[inside]
    taps, folds = [], False
    for axis in (0, 1):
        raw = np.floor(c[:, axis]).astype(np.int64)[:, None] + np.arange(-1, 3)
        d = np.abs(c[:, axis][:, None] - raw)
        w = np.where(d < 1.0, 2.0 / 3.0 - d**2 + d**3 / 2.0, (2.0 - d) ** 3 / 6.0)
        period = 2 * n[axis] - 2
        idx = np.abs(raw) % period
        idx = np.where(idx >= n[axis], period - idx, idx)
        folds = folds or bool(np.any(idx != raw))
        taps.append((idx, w))
    (ix, wx), (iy, wy) = taps
    rows = np.repeat(ids, 16)
    cols = (ix[:, :, None] * tr.ny + iy[:, None, :]).ravel()
    vals = (coeff[:, None, None] * wx[:, :, None] * wy[:, None, :]).ravel()
    ref = sparse.coo_matrix((vals, (rows, cols)), shape=plan.matrix.shape).tocsr()
    ref.eliminate_zeros()
    ref.sort_indices()
    return ref, folds


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan"])
def test_forward_matrix_known_answer(case):
    """M holds, row by row, the columns and sums of a plain COO assembly of
    every point's tap pairs, with no stored zero and no repeated column,
    and the case has taps folded at the grid edge."""
    pf, mu, kw = _geometry(case)
    tr = LevelSetTransform(pf, mu, make_image_grid(32), SinoSpec(ns=35, nt=48), **kw)
    ref, folds = _reference_forward_matrix(tr)
    assert folds
    m = tr.plan.matrix
    assert not np.any(m.data == 0.0)
    got = m.copy()
    got.sort_indices()
    np.testing.assert_array_equal(got.indptr, ref.indptr)
    np.testing.assert_array_equal(got.indices, ref.indices)
    starts = np.zeros(len(got.indices), dtype=bool)
    starts[got.indptr[:-1][np.diff(got.indptr) > 0]] = True
    assert np.all(starts[1:] | (np.diff(got.indices) > 0))    # no repeated column
    assert np.max(np.abs(got.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))


def test_nan_phase_has_failed_curves():
    """The NaN-disk case above exercises the NaN path: curves through its
    disk fail, and their samples, and only those, read NaN.  A seed in the
    disk captures no sample, so no other sample reads a silent zero."""
    pf, mu, kw = _geometry("nan_disk")
    img = make_image_grid(32)
    tr = LevelSetTransform(pf, mu, img, _spec32("nan_disk"), **kw)
    failed = tr.plan.failed.reshape(len(tr.t_grid), len(tr.s_grid)).T
    g = tr.forward(img.like(np.ones((32, 32)))).values
    assert failed.any()
    assert np.array_equal(np.isnan(g), failed)
    assert np.all(g[~failed & (np.abs(tr.s_grid)[:, None] < 0.9)] > 0.0)


def test_chunk_size_does_not_change_outputs(static_pf, monkeypatch):
    """chunk_t and the scratch budget only set the assembly's block size.
    chunk_t is the times per forward block, from one time to all of them in
    one block; a budget below one pixel of scratch gives one-pixel adjoint
    blocks.  M and every output keep their bits."""
    from curvetomo import operators

    img = make_image_grid(32)
    f = smooth_field(img, 53, sigma=1.5)
    spec = SinoSpec(ns=35, nt=48)
    probe = LevelSetTransform(static_pf, UnitWeight(), img, spec)
    data = Sinogram(probe.s_grid, probe.t_grid,
                    np.random.default_rng(53).standard_normal((35, 48)))

    def outputs(chunk_t):
        tr = LevelSetTransform(static_pf, UnitWeight(), img, spec, chunk_t=chunk_t)
        m = tr.plan.matrix
        return (tr.forward(f).values, tr.adjoint(data).values,
                m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes())

    expected = outputs(1)
    runs = [outputs(4), outputs(32), outputs(10**9)]
    monkeypatch.setattr(operators, "_BLOCK_BYTES", 1)
    runs.append(outputs(4))
    for got in runs:
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        assert got[2:] == expected[2:]


def test_breathing_adjoint_inverts_motion_once_per_block(monkeypatch):
    """Building K evaluates phi and grad phi of a pixel block in one call,
    which inverts the breathing motion once."""
    from curvetomo import operators

    motion = BreathingMotion(0.05)
    nt = 48
    tr = LevelSetTransform(make_dynamic_phase(motion), BumpWeight(amplitude=0.3),
                           make_image_grid(32), SinoSpec(ns=35, nt=nt))
    # 100 pixels per block: 11 blocks over the 32^2 grid
    monkeypatch.setattr(operators, "_BLOCK_BYTES", 80 * 4 * nt * 100)
    calls = []
    solve = motion._solve_radius

    def counted(t, rho):
        calls.append(math.prod(np.broadcast_shapes(np.shape(t), np.shape(rho))))
        return solve(t, rho)

    monkeypatch.setattr(motion, "_solve_radius", counted)
    tr._build_adjoint_tables()
    assert len(calls) == 11
    assert sum(calls) == 32 * 32 * nt


@pytest.mark.parametrize("case", ["static", "fan"])
def test_matrix_indices_in_range(case):
    """Spline taps beyond the grid edge are folded back onto it."""
    pf, mu, kw = _geometry(case)
    img = make_image_grid(32)
    tr = LevelSetTransform(pf, mu, img, SinoSpec(ns=35, nt=48), **kw)
    tr.adjoint(Sinogram(tr.s_grid, tr.t_grid, np.zeros((len(tr.s_grid), len(tr.t_grid)))))
    n_curves = len(tr.s_grid) * len(tr.t_grid)
    assert tr.plan.matrix.shape == (n_curves, img.nx * img.ny)
    assert tr._adj_tables.shape == (img.nx * img.ny, n_curves)
    for mat in (tr.plan.matrix, tr._adj_tables):
        assert mat.indices.min() >= 0 and mat.indices.max() < mat.shape[1]


def test_row_blocks_grow_past_capacity():
    """Row blocks appended past the reserved capacity assemble the stacked
    matrix."""
    from scipy import sparse

    from curvetomo.operators import _RowBlocks

    rng = np.random.default_rng(54)
    blocks = [sparse.random(3, 7, density=0.5, format="csr", random_state=rng)
              for _ in range(4)]
    built = _RowBlocks(7, capacity=1)
    for b in blocks:
        built.append(np.diff(b.indptr), b.indices, b.data)
    expected = np.vstack([b.toarray() for b in blocks])
    np.testing.assert_array_equal(built.tocsr().toarray(), expected)


class _ListJoinBuffer:
    """Reference for ``operators._Buffer``: keeps a copy of every chunk and
    joins them at the end."""

    def __init__(self, capacity, dtype=float, width=None):
        self.dtype = dtype
        self.shape = () if width is None else (width,)
        self.chunks = []

    def extend(self, values):
        self.chunks.append(np.array(values, dtype=self.dtype))

    def finish(self):
        return np.concatenate([np.empty((0,) + self.shape, self.dtype)] + self.chunks)


def _plan_arrays(case):
    pf, mu, kw = _geometry(case)
    tr = LevelSetTransform(pf, mu, make_image_grid(32), SinoSpec(ns=35, nt=48), **kw)
    plan = tr.plan
    return {"points": plan.points, "coeff": plan.coeff, "curve_id": plan.curve_id,
            "failed": plan.failed, "M.data": plan.matrix.data,
            "M.indices": plan.matrix.indices, "M.indptr": plan.matrix.indptr}


def _assert_bit_equal(got, expected):
    for key, want in expected.items():
        assert got[key].dtype == want.dtype and got[key].shape == want.shape, key
        assert got[key].tobytes() == want.tobytes(), key


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan"])
def test_plan_buffers_match_list_and_join(case, monkeypatch):
    """The plan arrays and M streamed into growing buffers equal, bit for
    bit, the emitted chunks kept in lists and joined."""
    from curvetomo import operators

    got = _plan_arrays(case)
    monkeypatch.setattr(operators, "_Buffer", _ListJoinBuffer)
    _assert_bit_equal(got, _plan_arrays(case))


@pytest.mark.parametrize("case", ["static", "fan"])
def test_plan_buffers_regrow_from_one_row(case, monkeypatch):
    """Buffers that start at one row regrow by doubling, more than ten times
    for these plans, and give the same arrays."""
    from curvetomo import operators

    class OneRow(operators._Buffer):
        def __init__(self, capacity, dtype=float, width=None):
            super().__init__(1, dtype, width)

    expected = _plan_arrays(case)
    assert len(expected["points"]) > 2**10
    monkeypatch.setattr(operators, "_Buffer", OneRow)
    _assert_bit_equal(_plan_arrays(case), expected)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["static", "rotation"])
def test_tracer_evaluates_the_phase_once_per_step(case, monkeypatch):
    """On straight level sets the predictor reuses the gradient the
    corrector left at the vertex, and no walk takes a Newton step: inside
    ``_trace_batch`` the phase is evaluated at no more points than the
    emitted vertices plus one per walk (the start points)."""
    from curvetomo import operators

    pf, mu, kw = _geometry(case)
    counts = {"evaluated": 0, "emitted": 0, "walks": 0}
    tracing = []
    evaluate = pf._eval_grad_at

    def counted_eval(t, factor, x):
        if tracing:
            counts["evaluated"] += math.prod(np.shape(x)[:-1])
        return evaluate(t, factor, x)

    trace = operators._trace_batch

    def counted_trace(pf_, t, s, p0, step, *, emit, **options):
        def counted_emit(p, idx, w):
            counts["emitted"] += len(p)
            emit(p, idx, w)

        counts["walks"] += 2 * len(t)
        tracing.append(True)
        try:
            return trace(pf_, t, s, p0, step, emit=counted_emit, **options)
        finally:
            tracing.pop()

    monkeypatch.setattr(pf, "_eval_grad_at", counted_eval)
    monkeypatch.setattr(operators, "_trace_batch", counted_trace)
    tr = LevelSetTransform(pf, mu, make_image_grid(32), SinoSpec(ns=35, nt=48), **kw)
    assert tr.plan.n_failed == 0
    assert counts["walks"] > 0 and counts["emitted"] > 10 * counts["walks"]
    assert counts["evaluated"] <= counts["emitted"] + counts["walks"]


def _emitted_by_curve(pf, t, s, p0, step, batch, **options):
    """Trace curves in batches of ``batch`` and return every emitted point
    and weight with its curve's index, sorted stably by curve (so in
    emission order per curve), and the stalled and closed masks."""
    from curvetomo.geometry import _trace_batch

    ids, points, weights, closed, stalled = [], [], [], [], []
    for b0 in range(0, len(t), batch):
        def emit(p, idx, w, b0=b0):
            ids.append(idx + b0)
            points.append(p.copy())
            weights.append(w.copy())

        result = _trace_batch(pf, t[b0:b0 + batch], s[b0:b0 + batch], p0[b0:b0 + batch], step,
                              emit=emit, **options)
        closed.append(result[1])
        stalled.append(result[2])
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")
    return {"ids": ids[order], "points": np.concatenate(points)[order],
            "weights": np.concatenate(weights)[order], "closed": np.concatenate(closed),
            "stalled": np.concatenate(stalled)}


@pytest.mark.parametrize("case", ["breathing_bump", "fan"])
def test_traced_points_do_not_depend_on_their_batch(case, monkeypatch):
    """The plan's seeds projected, and its curves traced, in batches of 97
    curves give the points, weights and masks of one batch, bit for bit:
    each point and each walk leaves its Newton iteration once its own
    residual passes."""
    from curvetomo import operators

    pf, mu, kw = _geometry(case)
    calls = {}
    for name in ("project_to_level", "_trace_batch"):
        def recorded(*args, name=name, fn=getattr(operators, name), **options):
            calls[name] = (args, options)
            return fn(*args, **options)

        monkeypatch.setattr(operators, name, recorded)
    LevelSetTransform(pf, mu, make_image_grid(32), SinoSpec(ns=35, nt=48), **kw).plan
    monkeypatch.undo()

    (_, t, s, seeds, tol), _ = calls["project_to_level"]
    whole = operators.project_to_level(pf, t, s, seeds, tol)
    parts = [operators.project_to_level(pf, t[b:b + 97], s[b:b + 97], seeds[b:b + 97], tol)
             for b in range(0, len(t), 97)]
    for k in range(2):
        assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes()

    (_, t, s, p0, step), options = calls["_trace_batch"]
    del options["emit"]
    expected = _emitted_by_curve(pf, t, s, p0, step, len(t), **options)
    got = _emitted_by_curve(pf, t, s, p0, step, 97, **options)
    for key, want in expected.items():
        assert got[key].tobytes() == want.tobytes(), key


# ---------------------------------------------------------------------------
# banded products
# ---------------------------------------------------------------------------


def _banded_outputs(case, workers, monkeypatch):
    """Forward, adjoint, both on stacks of 3, trivial and 2 x 2 atlas
    normal applies and a 5-iteration CG solve on a transform assembled with
    ``workers`` CPUs and bands down to one nonzero."""
    from curvetomo import Chart, cg_normal_solve
    from curvetomo import operators

    monkeypatch.setattr(operators, "_worker_count", lambda: workers)
    monkeypatch.setattr(operators, "_BAND_MIN_NNZ", 1)
    pf, mu, kw = _geometry(case)
    img = make_image_grid(32)
    tr = LevelSetTransform(pf, mu, img, SinoSpec(ns=35, nt=48), **kw)
    f = smooth_field(img, 55, sigma=1.5)
    g = tr.forward(f)
    grid = CutoffAtlas(charts=[Chart(x_center=(cx, cy), x_radius=1.2)
                               for cx in (-0.5, 0.5) for cy in (-0.5, 0.5)])
    out = {"forward": g.values, "adjoint": tr.adjoint(smooth_sino(tr, 56)).values,
           "forward stack": tr.forward(img.like(np.stack(
               [f.values, smooth_field(img, 57, sigma=1.5).values, -f.values]))).values,
           "adjoint stack": tr.adjoint(g.like(np.stack(
               [smooth_sino(tr, 58 + i).values for i in range(3)]))).values}
    for name, atlas in (("trivial", CutoffAtlas.trivial()), ("grid", grid)):
        for symmetric in (False, True):
            op = NormalOperator(tr, atlas, symmetric=symmetric)
            out[f"normal {name} {symmetric}"] = op.apply(f).values
    data = g.like(np.nan_to_num(g.values))
    op = NormalOperator(tr, CutoffAtlas.trivial(), symmetric=True)
    rec, report = cg_normal_solve(op, data, max_iter=5, tol=0.0)
    out["cg"] = rec.values
    out["cg residuals"] = np.array(report.residual_history)
    for bands in (tr.plan.bands, tr._adj_bands):
        assert len(bands.bands) == (1 if workers == 1 else 4 * workers)
        assert bands.workers == workers
    assert tr.workers == workers
    return out


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump", "fan"])
def test_banded_products_bit_identical_for_any_worker_count(case, monkeypatch):
    """One band, or 8 or 12 bands taken by two or three threads, give the
    same bytes: every row is summed by the same kernel in the same order."""
    expected = _banded_outputs(case, 1, monkeypatch)
    for workers in (2, 3):
        got = _banded_outputs(case, workers, monkeypatch)
        for key, want in expected.items():
            assert got[key].tobytes() == want.tobytes(), (workers, key)


def test_bands_read_the_matrices_in_place(static_pf, monkeypatch):
    """Every band reads the assembled matrix's own arrays, the bands tile
    its rows with about equal nnz, and the product equals ``matrix @ v``."""
    from curvetomo import operators

    monkeypatch.setattr(operators, "_worker_count", lambda: 3)
    monkeypatch.setattr(operators, "_BAND_MIN_NNZ", 1)
    tr = LevelSetTransform(static_pf, UnitWeight(), make_image_grid(32),
                           SinoSpec(ns=35, nt=48))
    tr.adjoint(smooth_sino(tr, 57))
    for matrix, bands in ((tr.plan.matrix, tr.plan.bands), (tr._adj_tables, tr._adj_bands)):
        assert bands.matrix is matrix and len(bands.bands) == 12 and bands.workers == 3
        starts = [r0 for r0, _, _ in bands.bands]
        ends = [r1 for _, r1, _ in bands.bands]
        assert starts == [0] + ends[:-1] and ends[-1] == matrix.shape[0]
        assert all(r1 > r0 for r0, r1 in zip(starts, ends))
        row_nnz = np.diff(matrix.indptr)
        for r0, r1, indptr in bands.bands:
            assert np.shares_memory(indptr, matrix.indptr)
            assert np.array_equal(indptr, matrix.indptr[r0:r1 + 1])
            assert abs(indptr[-1] - indptr[0] - matrix.nnz / 12) <= row_nnz.max()
        v = np.random.default_rng(58).standard_normal(matrix.shape[1])
        assert bands.matvec(v).tobytes() == (matrix @ v).tobytes()
        block = np.random.default_rng(60).standard_normal((matrix.shape[1], 4))
        got = bands.matvec(block)
        for j in range(4):
            assert got[:, j].tobytes() == (matrix @ block[:, j]).tobytes()


def test_bands_of_empty_and_short_matrices(monkeypatch):
    """A matrix without nonzeros, one without rows and one with fewer rows
    than workers all multiply like ``matrix @ v``, a vector or a block of
    columns, each column like ``matrix @ v[:, j]``; a vector or block of the
    wrong shape is refused before the kernel reads it."""
    from scipy import sparse

    from curvetomo import operators
    from curvetomo.operators import _RowBands

    monkeypatch.setattr(operators, "_worker_count", lambda: 3)
    monkeypatch.setattr(operators, "_BAND_MIN_NNZ", 1)
    rng = np.random.default_rng(59)
    cases = [sparse.csr_matrix((5, 7)), sparse.csr_matrix((0, 7)),
             sparse.random(2, 50, density=0.5, format="csr", random_state=rng)]
    for matrix in cases:
        bands = _RowBands(matrix)
        assert len(bands.bands) <= matrix.shape[0]
        assert bands.workers == min(3, len(bands.bands))
        v = rng.standard_normal(matrix.shape[1])
        got = bands.matvec(v)
        assert got.shape == (matrix.shape[0],)
        assert got.tobytes() == (matrix @ v).tobytes()
        with pytest.raises(ValueError):
            bands.matvec(v[1:])
        for k in (1, 3):
            block = rng.standard_normal((matrix.shape[1], k))
            got = bands.matvec(block)
            assert got.shape == (matrix.shape[0], k)
            for j in range(k):
                assert got[:, j].tobytes() == (matrix @ block[:, j]).tobytes()
            for wrong in (block[1:], block[None], np.vstack([block, block])):
                with pytest.raises(ValueError):
                    bands.matvec(wrong)


def test_bands_under_concurrent_callers(monkeypatch):
    """Four threads, each multiplying through 28 bands taken by seven
    threads, six of them from the pool, while thread switches are forced
    often, all get the bytes of ``matrix @ v`` from one lazily created
    pool."""
    import sys
    import threading

    from scipy import sparse

    from curvetomo import operators
    from curvetomo.operators import _RowBands

    monkeypatch.setattr(operators, "_worker_count", lambda: 7)
    monkeypatch.setattr(operators, "_BAND_MIN_NNZ", 1)
    monkeypatch.setattr(operators, "_pool", None)
    rng = np.random.default_rng(61)
    matrix = sparse.random(700, 300, density=0.1, format="csr", random_state=rng)
    bands = _RowBands(matrix)
    assert len(bands.bands) == 28 and bands.workers == 7
    vectors = rng.standard_normal((4, 300))
    expected = [(matrix @ v).tobytes() for v in vectors]
    wrong, pools = [], set()

    def caller(i):
        for _ in range(50):
            if bands.matvec(vectors[i]).tobytes() != expected[i]:
                wrong.append(i)
            pools.add(id(operators._pool))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if operators._pool is not None:
            operators._pool.shutdown(wait=False, cancel_futures=True)
    assert not any(t.is_alive() for t in threads)
    assert not wrong and len(pools) == 1


class _NeverRuns:
    """A band pool whose threads never start."""

    def submit(self, fn, *args):
        pass


def test_product_does_not_wait_for_threads_that_never_start(monkeypatch):
    """The calling thread takes every band no other thread has taken, so a
    product completes, with the bits of ``matrix @ v``, even when the pool's
    threads never start."""
    from scipy import sparse

    from curvetomo import operators
    from curvetomo.operators import _RowBands

    monkeypatch.setattr(operators, "_worker_count", lambda: 3)
    monkeypatch.setattr(operators, "_BAND_MIN_NNZ", 1)
    monkeypatch.setattr(operators, "_band_pool", _NeverRuns)
    rng = np.random.default_rng(62)
    matrix = sparse.random(60, 40, density=0.3, format="csr", random_state=rng)
    bands = _RowBands(matrix)
    assert bands.workers == 3
    v = rng.standard_normal(40)
    assert bands.matvec(v).tobytes() == (matrix @ v).tobytes()


def _matrix_bytes(case):
    pf, mu, kw = _geometry(case)
    tr = LevelSetTransform(pf, mu, make_image_grid(32), SinoSpec(ns=35, nt=48), **kw)
    tr._build_adjoint_tables()
    return [a.tobytes() for m in (tr.plan.matrix, tr._adj_tables)
            for a in (m.data, m.indices, m.indptr)]


@pytest.mark.parametrize("case", ["static", "rotation", "breathing_bump"])
def test_assembly_bit_identical_for_any_worker_count(case, monkeypatch):
    """M (12 row blocks) and K (4 pixel blocks) built by two or three
    threads, or by the calling thread alone when the pool's threads never
    start, have the bytes of a one-worker build."""
    from curvetomo import operators

    monkeypatch.setattr(operators, "_worker_count", lambda: 1)
    expected = _matrix_bytes(case)
    for workers in (2, 3):
        monkeypatch.setattr(operators, "_worker_count", lambda: workers)
        assert _matrix_bytes(case) == expected, workers
    monkeypatch.setattr(operators, "_band_pool", _NeverRuns)
    assert _matrix_bytes(case) == expected


class _ThreadPerTask:
    """A band pool that runs each task on a new daemon thread, kept for
    inspection."""

    def __init__(self):
        self.threads = []

    def submit(self, fn, *args):
        import threading

        thread = threading.Thread(target=fn, args=args, daemon=True)
        thread.start()
        self.threads.append(thread)


@pytest.mark.parametrize("ordered", [False, True])
def test_block_error_on_a_pool_thread_reaches_the_caller(ordered, monkeypatch):
    """A block that raises on a pool thread raises on the calling thread,
    for products and for assembly alike, and every pool thread returns."""
    import threading

    from curvetomo import operators

    pool = _ThreadPerTask()
    monkeypatch.setattr(operators, "_band_pool", lambda: pool)
    caller = threading.get_ident()
    failed = threading.Event()

    def work(b):
        if threading.get_ident() != caller:
            failed.set()
            raise RuntimeError(f"block {b}")
        # the calling thread holds its first block until a pool thread failed
        if not failed.wait(timeout=30):
            raise TimeoutError("no pool thread took a block")
        return b

    with pytest.raises(RuntimeError, match="block"):
        operators._run_blocks(40, work, 3, consume=[].append if ordered else None)
    assert len(pool.threads) == 2
    for thread in pool.threads:
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_finished_blocks_waiting_stay_bounded(monkeypatch):
    """Seven threads, six from the pool, run 300 blocks while the calling
    thread consumes slowly and thread switches are forced often: the
    results are consumed in block order, and at no time do more than
    ``_BLOCKS_AHEAD_PER_WORKER`` per thread wait finished."""
    import sys
    import threading
    import time

    from curvetomo import operators

    workers = 7
    ahead = operators._BLOCKS_AHEAD_PER_WORKER * workers
    monkeypatch.setattr(operators, "_worker_count", lambda: workers)
    monkeypatch.setattr(operators, "_pool", None)
    lock = threading.Lock()
    counts = {"finished": 0, "consumed": 0, "peak": 0}
    order = []

    def work(b):
        with lock:
            counts["finished"] += 1
            counts["peak"] = max(counts["peak"], counts["finished"] - counts["consumed"])
        return b

    def consume(b):
        time.sleep(0.001)
        order.append(b)
        with lock:
            counts["consumed"] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        operators._run_blocks(300, work, workers, consume)
    finally:
        sys.setswitchinterval(interval)
        if operators._pool is not None:
            operators._pool.shutdown(wait=False, cancel_futures=True)
    assert order == list(range(300))
    assert workers < counts["peak"] <= ahead


def test_no_band_pool_at_import_or_with_one_worker(static_pf, monkeypatch):
    """Importing the package starts no thread, and one worker applies every
    matrix on the calling thread without creating the pool."""
    import os
    import subprocess
    import sys

    from curvetomo import operators

    src = os.path.dirname(os.path.dirname(operators.__file__))
    code = ("import threading, curvetomo, curvetomo.operators as o; "
            "assert o._pool is None and threading.active_count() == 1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr

    monkeypatch.setattr(operators, "_pool", None)
    monkeypatch.setattr(operators, "_worker_count", lambda: 1)
    monkeypatch.setattr(operators, "_BAND_MIN_NNZ", 1)
    tr = LevelSetTransform(static_pf, UnitWeight(), make_image_grid(32),
                           SinoSpec(ns=35, nt=48))
    NormalOperator(tr, symmetric=True).apply(smooth_field(make_image_grid(32), 60))
    assert tr.workers == 1 and operators._pool is None


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------


def test_forward_marks_unreachable_samples_zero(static_pf):
    """(s, t) samples whose curve misses the support are exact zeros."""
    img = make_image_grid(48)
    tr = LevelSetTransform(static_pf, UnitWeight(), img,
                           SinoSpec(ns=61, nt=30, s_range=(-1.6, 1.6)))
    f = smooth_field(img, 31)
    g = tr.forward(f)
    far = np.abs(g.s_grid) > 1.35
    assert np.all(g.values[far] == 0.0)
    assert np.all(np.isfinite(g.values))
