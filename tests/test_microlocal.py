import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvetomo import (
    BreathingMotion,
    BumpWeight,
    Chart,
    CutoffAtlas,
    DegenerateSymbolError,
    RotationMotion,
    UnitWeight,
    bolker_determinant,
    canonical_point,
    data_projection_rank,
    make_dynamic_phase,
    make_fanbeam_phase,
    make_static_phase,
    principal_symbol,
    homogeneous_equivalence_check,
    semiglobal_bolker_check,
    solve_time_for_direction,
    visibility_map,
)
from curvetomo.geometry import TWO_PI, PhaseFunction, omega, omega_perp
from curvetomo.microlocal import data_projection_differential

from conftest import atlas_probe_pairs, reference_solve_time, support_samples


# ---------------------------------------------------------------------------
# local Bolker determinant
# ---------------------------------------------------------------------------


def test_bolker_static_is_one(static_pf, rng):
    t, x = support_samples(rng, 200)
    h = bolker_determinant(static_pf, t, x)
    np.testing.assert_allclose(h, 1.0, atol=1e-10)


def test_bolker_sync_rotation_zero(sync_pf, sync_pf_fd, rng):
    t, x = support_samples(rng, 100)
    assert np.max(np.abs(bolker_determinant(sync_pf, t, x))) < 1e-12
    assert np.max(np.abs(bolker_determinant(sync_pf_fd, t, x))) < 1e-6


def test_bolker_counter_rotation_is_two(rng):
    # mixed derivative is FD-in-t of the analytic gradient: O(step^2) accurate
    pf = make_dynamic_phase(RotationMotion(1.0))
    t, x = support_samples(rng, 100)
    np.testing.assert_allclose(bolker_determinant(pf, t, x), 2.0, atol=1e-6)


# ---------------------------------------------------------------------------
# equivalence of the two determinant routes (direct vs homogeneous extension)
# ---------------------------------------------------------------------------


def test_equivalence_static(static_pf, rng):
    t, x = support_samples(rng, 1000)
    rep = homogeneous_equivalence_check(static_pf, t, x)
    assert rep.agreement_fraction == 1.0


def test_equivalence_sync_rotation_both_zero(sync_pf, sync_pf_fd, rng):
    t, x = support_samples(rng, 1000)
    for pf in (sync_pf, sync_pf_fd):
        rep = homogeneous_equivalence_check(pf, t, x)
        assert rep.agreement_fraction == 1.0


def test_equivalence_breathing(rng):
    pf = make_dynamic_phase(BreathingMotion(0.1))
    t, x = support_samples(rng, 1000)
    rep = homogeneous_equivalence_check(pf, t, x)
    assert rep.agreement_fraction == 1.0


def test_equivalence_accepts_pair_list(static_pf, rng):
    t, x = support_samples(rng, 20)
    rep_pairs = homogeneous_equivalence_check(static_pf, list(zip(t, x)))
    rep_arrays = homogeneous_equivalence_check(static_pf, t, x)
    assert rep_pairs.n_samples == rep_arrays.n_samples == 20
    assert rep_pairs.agreement_fraction == rep_arrays.agreement_fraction == 1.0


# ---------------------------------------------------------------------------
# the time solver
# ---------------------------------------------------------------------------


def test_solve_time_static_full_range(static_pf):
    roots = solve_time_for_direction(static_pf, np.zeros(2), np.array([1.0, 0.0]))
    ts = sorted(t for t, _ in roots)
    assert len(ts) == 2
    assert ts[0] == pytest.approx(0.0, abs=1e-9)
    assert ts[1] == pytest.approx(math.pi, abs=1e-9)
    orients = {round(t, 6): o for t, o in roots}
    assert orients[0.0] == 1.0 and orients[round(math.pi, 6)] == -1.0


def test_solve_time_limited_range(static_pf):
    roots = solve_time_for_direction(static_pf, np.zeros(2), np.array([0.0, 1.0]),
                                     t_range=(0.0, math.pi / 2))
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(math.pi / 2, abs=1e-9)


def test_solve_time_sync_rotation(sync_pf):
    assert solve_time_for_direction(sync_pf, np.array([0.2, 0.1]), np.array([0.0, 1.0])) == []
    flat = solve_time_for_direction(sync_pf, np.array([0.2, 0.1]), np.array([1.0, 0.0]))
    assert len(flat) >= 1  # degenerate flat residual collapses to one witness


def test_solve_time_residual_quality(static_pf, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 2)
        a = rng.uniform(0, TWO_PI)
        xi = np.array([math.cos(a), math.sin(a)])
        for t_root, orient in solve_time_for_direction(static_pf, x, xi):
            nu = np.array([math.cos(t_root), math.sin(t_root)])
            assert abs(nu[0] * xi[1] - nu[1] * xi[0]) < 1e-9
            assert orient * (nu @ xi) > 0


@pytest.mark.parametrize("make_pf", [
    make_static_phase,
    lambda: make_dynamic_phase(RotationMotion(0.3)),
    lambda: make_dynamic_phase(BreathingMotion(0.05)),
    lambda: make_fanbeam_phase(3.0),
], ids=["static", "rotation", "breathing", "fanbeam"])
def test_solve_time_batch_equals_per_pair(make_pf):
    """One batched solve over the atlas's probe x direction pairs gives
    exactly the roots and orientations of solving each pair alone."""
    pf = make_pf()
    x, xi = atlas_probe_pairs()
    batch = solve_time_for_direction(pf, x, xi)
    assert batch == [reference_solve_time(pf, p, d) for p, d in zip(x, xi)]


@pytest.mark.parametrize("t_range", [None, (0.0, math.pi / 3)], ids=["full", "limited"])
def test_solve_time_mixed_batch_equals_per_pair(static_pf, sync_pf, t_range):
    """Flat residuals (sync, xi = e1), exact zeros on grid nodes (static,
    x = 0, xi = e1) and invisible directions, mixed with ordinary pairs."""
    cases = [
        (sync_pf, [[0.2, 0.1], [0.2, 0.1], [-0.3, 0.4], [0.1, -0.5]],
         [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-1.0, 0.0]]),
        (static_pf, [[0.0, 0.0], [0.0, 0.0], [0.3, -0.2], [0.0, 0.0]],
         [[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8], [0.0, -2.0]]),
    ]
    for pf, x, xi in cases:
        x, xi = np.array(x), np.array(xi)
        batch = solve_time_for_direction(pf, x, xi, t_range=t_range)
        ref = [reference_solve_time(pf, p, d, t_range=t_range) for p, d in zip(x, xi)]
        assert batch == ref
    # the cases do hold each kind: a flat pair, a grid-node root, an invisible pair
    assert len(solve_time_for_direction(sync_pf, np.array([0.2, 0.1]), np.array([1.0, 0.0]),
                                        t_range=t_range)) == 1
    assert solve_time_for_direction(sync_pf, np.array([0.2, 0.1]), np.array([0.0, 1.0]),
                                    t_range=t_range) == []
    assert solve_time_for_direction(static_pf, np.zeros(2), np.array([1.0, 0.0]),
                                    t_range=t_range)[0] == (0.0, 1.0)


def test_solve_time_batch_shapes(static_pf):
    x = np.array([0.1, -0.2])
    xi = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    one = solve_time_for_direction(static_pf, x, xi[0])
    assert isinstance(one, list) and all(isinstance(r, tuple) and len(r) == 2 for r in one)
    batch = solve_time_for_direction(static_pf, np.tile(x, (3, 1)), xi)
    assert len(batch) == 3 and batch[0] == one
    # a single x (or xi) is shared by the batch
    assert solve_time_for_direction(static_pf, x, xi) == batch
    assert solve_time_for_direction(static_pf, np.zeros((0, 2)), np.zeros((0, 2))) == []
    with pytest.raises(ValueError):
        solve_time_for_direction(static_pf, np.tile(x, (2, 1)), np.array([[1.0, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# visibility maps
# ---------------------------------------------------------------------------


def test_visibility_static_full(static_pf):
    vm = visibility_map(static_pf, np.array([0.3, -0.2]), 32)
    assert np.all(vm.count >= 1)


def test_visibility_static_limited_arcs(static_pf):
    n = 72
    vm = visibility_map(static_pf, np.zeros(2), n, t_range=(0.0, math.pi / 3))
    angles = np.arctan2(vm.directions[:, 1], vm.directions[:, 0]) % TWO_PI
    cell = TWO_PI / n
    # exact visible set +-omega([0, pi/3]): angles in [0, pi/3] or [pi, pi + pi/3]
    in_arc = (angles <= math.pi / 3 + 1e-12) | (
        (angles >= math.pi - 1e-12) & (angles <= math.pi + math.pi / 3 + 1e-12)
    )
    wrong = vm.visible != in_arc
    # disagreement only allowed within one grid cell of the arc endpoints
    ends = np.array([0.0, math.pi / 3, math.pi, math.pi + math.pi / 3])
    for ang in angles[wrong]:
        d = np.min(np.abs(((ang - ends) + math.pi) % TWO_PI - math.pi))
        assert d <= cell + 1e-12


def test_visibility_map_of_points_equals_per_point(breathing_pf):
    pts = np.array([[0.3, -0.2], [0.0, 0.0], [-0.5, 0.4]])
    vm = visibility_map(breathing_pf, pts, 8, t_range=(0.0, 2.0))
    assert vm.count.shape == (3, 8)
    for k, p in enumerate(pts):
        one = visibility_map(breathing_pf, p, 8, t_range=(0.0, 2.0))
        np.testing.assert_array_equal(vm.count[k], one.count)
        assert vm.t_witness[k] == one.t_witness


def test_visibility_sync_rotation(sync_pf):
    vm = visibility_map(sync_pf, np.array([0.2, 0.1]), 16)
    vis = vm.directions[vm.visible]
    assert len(vis) == 2
    assert np.allclose(np.abs(vis[:, 0]), 1.0, atol=1e-12)


@pytest.mark.parametrize("rho", [0.3, -0.5, -0.6, -0.75, -0.9, -0.95, -1.0, -1.05, -1.2, -1.6])
def test_visibility_cone_law_rotation(rho):
    """Under a rotation at rate rho the scan sweeps the object-frame normals
    omega((1 + rho) t), so the visible share of directions is
    min(1, 2 |1 + rho|); on a grid of 72 directions it may exceed that by
    one grid direction at each end of the visible cone."""
    pf = make_dynamic_phase(RotationMotion(rho))
    pts = np.array([[0.2, 0.1], [-0.3, 0.25], [0.0, -0.4]])
    share = np.mean(visibility_map(pf, pts, 72).visible, axis=1)
    law = min(1.0, 2.0 * abs(1.0 + rho))
    assert np.all(share >= law - 1e-12), share
    assert np.all(share <= law + 2 / 72 + 1e-12), share


# ---------------------------------------------------------------------------
# semi-global Bolker
# ---------------------------------------------------------------------------


def test_semiglobal_static_no_witnesses(static_pf):
    out = semiglobal_bolker_check(static_pf, 0.7, np.array([0.2, 0.1]))
    assert len(out) == 0


def test_semiglobal_sync_rotation_all_witnesses(sync_pf):
    out = semiglobal_bolker_check(sync_pf, 0.5, np.array([0.2, 0.1]), n_curve_samples=256)
    assert len(out) > 200  # essentially every sample off the exclusion arc


def test_semiglobal_breathing_clean(rng):
    pf = make_dynamic_phase(BreathingMotion(0.02))
    out = semiglobal_bolker_check(pf, 1.1, np.array([0.25, -0.1]), n_curve_samples=512)
    assert len(out) == 0  # regression baseline: no conjugate points detected


# ---------------------------------------------------------------------------
# canonical relation
# ---------------------------------------------------------------------------


def test_canonical_point_static():
    pf = make_static_phase()
    a, b = 0.37, -0.21
    cp = canonical_point(pf, 0.0, np.array([a, b]), 1.0)
    assert cp.s == pytest.approx(a)
    assert cp.tau == pytest.approx(-b)
    np.testing.assert_allclose(cp.xi, [1.0, 0.0], atol=1e-12)
    cp_neg = canonical_point(pf, 0.0, np.array([a, b]), -1.0)
    assert cp_neg.tau == pytest.approx(b)
    np.testing.assert_allclose(cp_neg.xi, [-1.0, 0.0], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(0.0, TWO_PI),
    a=st.floats(-0.9, 0.9),
    b=st.floats(-0.9, 0.9),
    sigma=st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 1e-3),
)
def test_canonical_point_invariants(t, a, b, sigma):
    pf = make_static_phase()
    x = np.array([a, b])
    cp = canonical_point(pf, t, x, sigma)
    assert abs(cp.s - float(pf.eval(t, x))) < 1e-10
    assert abs(cp.tau + sigma * float(pf.dt(t, x))) < 1e-10 * max(1, abs(sigma))
    np.testing.assert_allclose(cp.xi, sigma * pf.grad_x(t, x), rtol=1e-10)


def test_dpiy_static_rank4(static_pf, rng):
    for _ in range(20):
        t = rng.uniform(0, TWO_PI)
        x = rng.uniform(-0.8, 0.8, 2)
        sigma = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        rank, det = data_projection_rank(static_pf, t, x, sigma)
        assert rank == 4
        assert abs(det) == pytest.approx(abs(sigma), rel=1e-8)


def test_dpiy_sync_rank3(sync_pf, rng):
    t, x = support_samples(rng, 10)
    for i in range(10):
        rank, det = data_projection_rank(sync_pf, float(t[i]), x[i], 1.0)
        assert rank == 3
        assert abs(det) < 1e-10


def test_dpiy_det_is_sigma_h(rng):
    """det dPi_Y = -sigma h on 1000 random samples across families."""
    for pf in (make_static_phase(), make_dynamic_phase(BreathingMotion(0.08))):
        t, x = support_samples(rng, 500)
        sig = rng.uniform(0.3, 2.0, 500) * rng.choice([-1.0, 1.0], 500)
        for i in range(500):
            _, det = data_projection_rank(pf, float(t[i]), x[i], float(sig[i]))
            h = float(bolker_determinant(pf, float(t[i]), x[i]))
            assert det == pytest.approx(-sig[i] * h, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("make_pf", [
    make_static_phase,
    lambda: make_dynamic_phase(BreathingMotion(0.08)),
    lambda: make_dynamic_phase(RotationMotion(-1.0), use_analytic=False),
    lambda: make_fanbeam_phase(3.0),
], ids=["static", "breathing", "sync_fd", "fanbeam"])
def test_dpiy_batch_equals_per_sample(make_pf, rng):
    """One batched call gives each sample's rank and, to within one ulp, its
    determinant, with sigma shared by the batch or given per sample."""
    pf = make_pf()
    # inside the disk of radius 0.9: on the fan's branch at every time of its window
    t, x = support_samples(rng, 40, radius=0.9, t_range=pf.t_range)
    sig = rng.uniform(0.3, 2.0, 40) * rng.choice([-1.0, 1.0], 40)
    for sigma in (-1.7, sig):
        rank, det = data_projection_rank(pf, t, x, sigma)
        assert rank.shape == det.shape == (40,)
        sigma_i = np.broadcast_to(sigma, 40)
        for i in range(40):
            r_i, d_i = data_projection_rank(pf, float(t[i]), x[i], float(sigma_i[i]))
            assert isinstance(r_i, int) and isinstance(d_i, float)
            assert rank[i] == r_i
            assert abs(det[i] - d_i) <= np.spacing(abs(d_i)), (i, det[i], d_i)
    M = data_projection_differential(pf, t, x, sig)
    assert M.shape == (40, 4, 4)
    assert data_projection_differential(pf, float(t[0]), x[0], float(sig[0])).shape == (4, 4)


def test_dpiy_zero_sigma_anywhere_raises(static_pf, rng):
    t, x = support_samples(rng, 5)
    with pytest.raises(ValueError):
        data_projection_rank(static_pf, t, x, np.array([1.0, -2.0, 0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        data_projection_rank(static_pf, t, x, 0.0)
    with pytest.raises(ValueError):
        data_projection_rank(static_pf, float(t[0]), x[0], 0.0)


# ---------------------------------------------------------------------------
# principal symbol
# ---------------------------------------------------------------------------


def test_symbol_static_closed_form(static_pf, rng):
    atlas = CutoffAtlas.trivial()
    mu = UnitWeight()
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, 2)
        a = rng.uniform(0, TWO_PI)
        lam = rng.uniform(0.5, 20.0)
        xi = lam * np.array([math.cos(a), math.sin(a)])
        sv = principal_symbol(static_pf, mu, atlas, x, xi)
        # J = 1, h = 1, W_+ = W_- = 1: p = 2 / (2 pi |xi|) = 1 / (pi |xi|)
        assert sv.p == pytest.approx(1.0 / (math.pi * lam), rel=1e-9)
        assert sv.W_plus == pytest.approx(1.0, rel=1e-9)
        assert sv.W_minus == pytest.approx(1.0, rel=1e-9)


def test_symbol_homogeneity_machine_precision(static_pf, breathing_pf):
    atlas = CutoffAtlas.trivial()
    mu = UnitWeight()
    x = np.array([0.2, -0.3])
    xi = np.array([0.6, 0.8])
    for pf in (static_pf, breathing_pf):
        p1 = principal_symbol(pf, mu, atlas, x, xi).p
        p2 = principal_symbol(pf, mu, atlas, x, 2.0 * xi).p
        assert p2 == pytest.approx(0.5 * p1, rel=1e-12)


def test_symbol_invisible_direction(sync_pf):
    sv = principal_symbol(sync_pf, UnitWeight(), CutoffAtlas.trivial(),
                          np.array([0.2, 0.1]), np.array([0.0, 1.0]))
    assert not sv.visible
    assert sv.p == 0.0


def test_symbol_degenerate_error(sync_pf):
    with pytest.raises(DegenerateSymbolError):
        principal_symbol(sync_pf, UnitWeight(), CutoffAtlas.trivial(),
                         np.array([0.2, 0.1]), np.array([1.0, 0.0]))


def test_symbol_positive_and_consistent_with_visibility(breathing_pf, rng):
    atlas = CutoffAtlas.trivial()
    mu = UnitWeight()
    for _ in range(8):
        x = rng.uniform(-0.5, 0.5, 2)
        a = rng.uniform(0, TWO_PI)
        xi = np.array([math.cos(a), math.sin(a)]) * rng.uniform(1, 5)
        sv = principal_symbol(breathing_pf, mu, atlas, x, xi)
        assert sv.visible
        assert sv.p > 0.0


def test_symbol_zero_outside_chart_support(static_pf):
    """With a chart whose data window excludes every witness time's level
    value, W vanishes and p = 0 while the direction stays visible."""
    chart_atlas = CutoffAtlas(charts=[
        # s window far away from phi(t, x) ~ |x|
        Chart(x_center=(0.0, 0.0), x_radius=None, s_center=50.0, s_radius=1.0,
              t_center=0.0, t_radius=None)
    ])
    sv = principal_symbol(static_pf, UnitWeight(), chart_atlas,
                          np.array([0.3, 0.0]), np.array([1.0, 0.0]))
    assert sv.visible
    assert sv.p == 0.0


class _WarpedParallelPhase(PhaseFunction):
    """phi(t, x) = a(t) x . omega(theta(t)), with analytic derivatives:
    grad phi = a omega(theta), so J = a, and
    dt grad phi = a' omega(theta) + a theta' omega_perp(theta), so h = a^2 theta'."""

    analytic_derivatives = True

    def __init__(self, a, da, theta, dtheta):
        self.a, self.da, self.theta, self.dtheta = a, da, theta, dtheta

    def _eval_grad_at(self, t, factor, x):
        g = self.a(t)[..., None] * omega(self.theta(t))
        return g[..., 0] * x[..., 0] + g[..., 1] * x[..., 1], g

    def _grad_x_raw(self, t, x):
        return self._eval_grad_raw(t, x)[1]

    def _dt_grad_x_raw(self, t, x):
        t = np.asarray(t, dtype=float)
        m = (self.da(t)[..., None] * omega(self.theta(t))
             + (self.a(t) * self.dtheta(t))[..., None] * omega_perp(self.theta(t)))
        return np.broadcast_to(m, np.broadcast_shapes(np.shape(t), np.shape(x)[:-1]) + (2,))

    def _dt_raw(self, t, x):
        x = np.asarray(x, dtype=float)
        m = self._dt_grad_x_raw(t, x)
        return m[..., 0] * x[..., 0] + m[..., 1] * x[..., 1]


def test_symbol_sums_every_witness_time(rng):
    """phi = a(t) x . omega(t) with a = 1 + 0.3 cos t: J = a and h = a^2,
    and the witness times t0 and t0 + pi carry a(t0) + a(t0 + pi) = 2, so
    p = (2 pi)^-1 sum_t J^3 / (|xi| h) = 1 / (pi |xi|) for every covector.
    A symbol that divides by h at one witness time only reads
    (a(t0)^2 + a(t0 + pi)^2) / (2 pi |xi| a(t_used)) instead."""
    pf = _WarpedParallelPhase(lambda t: 1.0 + 0.3 * np.cos(t), lambda t: -0.3 * np.sin(t),
                              lambda t: np.asarray(t, dtype=float), np.ones_like)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        a = rng.uniform(0, TWO_PI)
        lam = rng.uniform(0.5, 20.0)
        sv = principal_symbol(pf, UnitWeight(), CutoffAtlas.trivial(), x,
                              lam * np.array([math.cos(a), math.sin(a)]))
        assert sv.p == pytest.approx(1.0 / (math.pi * lam), rel=1e-6)


def test_symbol_degenerate_at_any_witness_time():
    """With theta(t) = t - sin t, h = theta' = 1 - cos t vanishes at t = 0
    only.  For xi = -e1 that is the antipodal witness time, not t_used
    (t = pi, where h = 2), and the symbol still refuses the covector."""
    pf = _WarpedParallelPhase(np.ones_like, np.zeros_like, lambda t: t - np.sin(t),
                              lambda t: 1.0 - np.cos(t))
    x = np.array([0.2, 0.1])
    roots = solve_time_for_direction(pf, x, np.array([-1.0, 0.0]))
    assert sorted(round(t, 9) for t, _ in roots) == [0.0, round(math.pi, 9)]
    with pytest.raises(DegenerateSymbolError):
        principal_symbol(pf, UnitWeight(), CutoffAtlas.trivial(), x, np.array([-1.0, 0.0]))


def _symbol_fields(sv):
    return (sv.p, sv.W_plus, sv.W_minus, sv.h_tilde, sv.t_used, sv.visible, sv.xi.tolist())


def test_symbol_batch_equals_one_covector_at_a_time(static_pf, breathing_pf):
    """A batch of covectors gives each row's SymbolValue with the bits of a
    call for that covector alone, visible or not (the limited-angle static
    phase sees only the directions within its time window, up to sign)."""
    limited = make_static_phase()
    limited.t_range = (0.0, 1.0)
    x = np.array([0.1, -0.05])
    ang = TWO_PI * np.arange(24) / 24
    xis = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    for pf, mu in ((static_pf, UnitWeight()), (breathing_pf, BumpWeight(0.3)),
                   (make_fanbeam_phase(3.0), UnitWeight()), (limited, UnitWeight())):
        batch = principal_symbol(pf, mu, CutoffAtlas.trivial(), x, xis)
        assert len(batch) == len(xis)
        for xi, sv in zip(xis, batch):
            one = principal_symbol(pf, mu, CutoffAtlas.trivial(), x, xi)
            assert _symbol_fields(sv) == _symbol_fields(one)
    visible = [sv.visible for sv in principal_symbol(limited, UnitWeight(),
                                                     CutoffAtlas.trivial(), x, xis)]
    assert any(visible) and not all(visible)


def test_symbol_batch_raises_for_the_first_degenerate_covector():
    """theta(t) = t - sin t: h vanishes at t = 0, a witness time of +-e1
    but not of e2.  A batch refuses the first covector that meets it."""
    pf = _WarpedParallelPhase(np.ones_like, np.zeros_like, lambda t: t - np.sin(t),
                              lambda t: 1.0 - np.cos(t))
    xis = np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
    assert principal_symbol(pf, UnitWeight(), CutoffAtlas.trivial(), np.array([0.2, 0.1]),
                            xis[:1])[0].visible
    with pytest.raises(DegenerateSymbolError, match=r"xi=\[-1\.0, 0\.0\]"):
        principal_symbol(pf, UnitWeight(), CutoffAtlas.trivial(), np.array([0.2, 0.1]), xis)


def test_symbol_even_in_xi(breathing_pf, rng):
    """xi and -xi have the same witness times with the orientations swapped,
    so the per-root sum gives p(x, -xi) = p(x, xi) on a deforming geometry;
    dividing by h at t_used alone made the two differ by up to 5% here."""
    atlas = CutoffAtlas.trivial()
    for _ in range(6):
        x = rng.uniform(-0.5, 0.5, 2)
        a = rng.uniform(0, math.pi)
        xi = rng.uniform(1, 10) * np.array([math.cos(a), math.sin(a)])
        p = principal_symbol(breathing_pf, UnitWeight(), atlas, x, xi).p
        assert principal_symbol(breathing_pf, UnitWeight(), atlas, x, -xi).p == pytest.approx(
            p, rel=1e-12)
