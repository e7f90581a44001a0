import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvetomo import (
    AffineMotion,
    BranchError,
    BreathingMotion,
    DomainError,
    IdentityMotion,
    RotationMotion,
    SeedProjectionError,
    fan_to_parallel,
    fd_derivatives,
    homogeneous_extension,
    make_dynamic_phase,
    make_fanbeam_phase,
    make_static_phase,
    trace_level_curve,
)
from curvetomo.geometry import (
    _MOTION_REGISTRY,
    TWO_PI,
    PhaseFunction,
    Rect,
    _newton_to_level,
    curve_tolerance,
    make_motion,
)

from conftest import atlas_probe_pairs, support_samples


# ---------------------------------------------------------------------------
# static phase
# ---------------------------------------------------------------------------


def test_static_phase_examples(static_pf):
    assert static_pf.eval(0.0, np.array([1.0, 0.0])) == pytest.approx(1.0)
    np.testing.assert_allclose(static_pf.grad_x(0.0, np.array([1.0, 0.0])), [1.0, 0.0])
    assert static_pf.eval(math.pi / 2, np.array([3.0, 2.0])) == pytest.approx(2.0)
    assert static_pf.eval(math.pi / 4, np.array([1.0, 1.0])) == pytest.approx(math.sqrt(2.0))


def test_static_phase_derivatives(static_pf, rng):
    t, x = support_samples(rng, 50)
    np.testing.assert_allclose(static_pf.dt(t, x), -x[:, 0] * np.sin(t) + x[:, 1] * np.cos(t))
    g = static_pf.grad_x(t, x)
    np.testing.assert_allclose(np.hypot(g[:, 0], g[:, 1]), 1.0)


def _fd_reference(pf, t, x):
    """Pure finite-difference derivatives straight from the phase values."""
    return (
        PhaseFunction._grad_x_raw(pf, t, x),
        PhaseFunction._dt_raw(pf, t, x),
        PhaseFunction._dt_grad_x_raw(pf, t, x),
    )


@pytest.mark.parametrize("builder", [
    lambda: make_static_phase(),
    lambda: make_dynamic_phase(BreathingMotion(0.08)),
    lambda: make_dynamic_phase(AffineMotion(0.06)),
    lambda: make_dynamic_phase(RotationMotion(0.7)),
    lambda: make_fanbeam_phase(3.0),
])
def test_analytic_derivatives_match_fd(builder, rng):
    pf = builder()
    assert pf.analytic_derivatives
    lo, hi = pf.t_range
    t, x = support_samples(rng, 100, radius=0.9, t_range=(lo, hi))
    g_a, d_a, m_a = pf.grad_x(t, x), pf.dt(t, x), pf.dt_grad_x(t, x)
    g_f, d_f, m_f = _fd_reference(pf, t, x)
    for a, f in ((g_a, g_f), (d_a, d_f), (m_a, m_f)):
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - f)) / scale < 1e-6


# every builtin family, and every registered motion with analytic and with
# finite-difference derivatives
_PHASES = {
    "static": lambda: make_static_phase(),
    "rotation": lambda: make_dynamic_phase(RotationMotion(0.3)),
    "affine": lambda: make_dynamic_phase(AffineMotion(0.05)),
    "breathing": lambda: make_dynamic_phase(BreathingMotion(0.05)),
    "fan": lambda: make_fanbeam_phase(3.0),
    "sync_fd": lambda: make_dynamic_phase(RotationMotion(-1.0), use_analytic=False),
    "identity": lambda: make_dynamic_phase(IdentityMotion()),
    **{f"{name}_motion_fd": (lambda name=name: make_dynamic_phase(make_motion(name),
                                                                   use_analytic=False))
       for name in sorted(_MOTION_REGISTRY)},
}


@pytest.mark.parametrize("name", sorted(_PHASES))
def test_eval_grad_matches_accessors(name, rng):
    """phi and grad phi from the one evaluator equal the value-only and
    gradient-only accessors bit for bit: per point, per point and time as
    the tracer calls it, and (pixels, 1, 2) points against (nt,) times as
    the adjoint matrix calls it.  So do per-walk time-factor rows selected
    with ``np.compress`` as the tracer selects them, against the phase and,
    for a dynamic phase, against the motion's ``inverse_jacobian``, row by
    row and point by point."""
    pf = _PHASES[name]()
    t, x = support_samples(rng, 40, radius=0.9, t_range=pf.t_range)
    for tt, xx in ((t[0], x[0]), (t[0], x), (t, x), (t[:7], x[:, None, :])):
        phi, g = pf._eval_grad_raw(tt, xx)
        assert g.shape == np.shape(phi) + (2,)
        np.testing.assert_array_equal(phi, pf._eval_raw(tt, xx))
        np.testing.assert_array_equal(g, pf._grad_x_raw(tt, xx))
        np.testing.assert_array_equal(phi, pf.eval(tt, xx))
        np.testing.assert_array_equal(g, pf.grad_x(tt, xx))
    phi, g = pf._eval_grad_at(t, pf._time_factor(t), x)
    np.testing.assert_array_equal(phi, pf._eval_raw(t, x))
    np.testing.assert_array_equal(g, pf._grad_x_raw(t, x))

    keep = np.arange(len(t)) % 3 != 1
    phi, g = pf._eval_grad_at(t[keep], np.compress(keep, pf._time_factor(t), axis=0), x[keep])
    ref_phi, ref_g = pf._eval_grad_raw(t[keep], x[keep])
    np.testing.assert_array_equal(phi, ref_phi)
    np.testing.assert_array_equal(np.broadcast_to(g, ref_g.shape), ref_g)
    motion = getattr(pf, "motion", None)
    if motion is None:
        return
    z, jac = motion.inverse_jacobian_at(np.compress(keep, motion.time_factor(t), axis=0),
                                        x[keep])
    ref_z, ref_jac = motion.inverse_jacobian(t[keep], x[keep])
    np.testing.assert_array_equal(z, ref_z)
    np.testing.assert_array_equal(jac, ref_jac)
    for row, i in enumerate(np.flatnonzero(keep)):
        zi, jac_i = motion.inverse_jacobian(t[i], x[i])
        np.testing.assert_array_equal(z[row], zi)
        np.testing.assert_array_equal(jac[row], jac_i)
        phi_i, g_i = pf._eval_grad_raw(t[i], x[i])
        assert phi[row] == phi_i
        np.testing.assert_array_equal(g[row], g_i)


_RIGID_MOTIONS = {
    "rotation_0.3": lambda: RotationMotion(0.3),
    "rotation_-1": lambda: RotationMotion(-1.0),
    "affine": lambda: AffineMotion(0.05),
    "identity": lambda: IdentityMotion(),
}


@pytest.mark.parametrize("name", sorted(_RIGID_MOTIONS))
def test_rigid_motion_gradient_comes_once_per_time(name, rng):
    """A motion whose Jacobian depends on t alone returns it once per
    time-factor row, and its dynamic phase carries grad phi in the time
    factor: the gradient comes back unbroadcast, bit for bit the per-point
    (D psi^-1)^T omega, and phi = x . grad phi + phi(t, 0) is within 1e-15
    of psi^-1(x) . omega.  Both for matched (t, x) rows and for (nt,) times
    against (px, 1, 2) points."""
    from curvetomo.geometry import _dot, _transpose_apply, omega

    motion = _RIGID_MOTIONS[name]()
    assert motion.jacobian_per_time
    pf = make_dynamic_phase(motion)
    t, x = support_samples(rng, 300, radius=0.9)
    tt = np.linspace(0.0, TWO_PI, 37)
    for times, pts in ((t, x), (tt, x[:40, None, :])):
        shape = np.broadcast_shapes(np.shape(times), pts[..., 0].shape)
        z, jac = motion.inverse_jacobian(times, pts)
        assert z.shape == shape + (2,) and jac.shape == np.shape(times) + (2, 2)
        phi, g = pf._eval_grad_at(times, pf._time_factor(times), pts)
        assert phi.shape == shape and g.shape == np.shape(times) + (2,)
        t_full = np.broadcast_to(times, shape)
        x_full = np.broadcast_to(pts, shape + (2,))
        per_point = np.array([_transpose_apply(motion.inverse_jacobian(ti, xi)[1], omega(ti))
                              for ti, xi in zip(t_full.ravel(), x_full.reshape(-1, 2))])
        np.testing.assert_array_equal(np.broadcast_to(g, shape + (2,)).reshape(-1, 2),
                                      per_point)
        assert np.max(np.abs(phi - _dot(z, omega(times)))) <= 1e-15
        np.testing.assert_array_equal(pf._eval_raw(times, pts), phi)


@pytest.mark.parametrize("name", sorted(_RIGID_MOTIONS))
def test_rigid_motion_fd_phase_reads_the_inverse_map(name, rng):
    """With ``use_analytic=False`` phi is psi^-1(x) . omega from the inverse
    map and grad phi its central difference, bit for bit, as before the
    gradient rode in the time factor."""
    from curvetomo.geometry import _central_grad, _dot, omega

    motion = _RIGID_MOTIONS[name]()
    pf = make_dynamic_phase(motion, use_analytic=False)
    t, x = support_samples(rng, 200, radius=0.9)
    phi, g = pf._eval_grad_raw(t, x)
    w = omega(t)
    np.testing.assert_array_equal(phi, _dot(motion.inverse(t, x), w))
    np.testing.assert_array_equal(
        g, _central_grad(lambda y: _dot(motion.inverse(t, y), w), pf.fd_step, x))


@pytest.mark.parametrize("name", sorted(_MOTION_REGISTRY))
def test_pushforward_weight_has_the_shape_of_t_and_x(name, rng):
    """The level-set weight of a material weight returns the broadcast
    shape of (t, x), also for (nt,) times against (px, 1, 2) points where a
    rigid motion's Jacobian comes once per time, with the bits of an
    evaluation on the fully broadcast (t, x)."""
    from curvetomo import BumpWeight, lagrangian_to_levelset_weight

    weight = lagrangian_to_levelset_weight(make_motion(name), BumpWeight(amplitude=0.2))
    t, x = support_samples(rng, 30, radius=0.9)
    tt = np.linspace(0.0, TWO_PI, 11)
    for times, pts in ((t, x), (t[0], x), (tt, x[:, None, :])):
        shape = np.broadcast_shapes(np.shape(times), pts[..., 0].shape)
        w = weight(times, pts)
        assert w.shape == shape
        np.testing.assert_array_equal(
            w, weight(np.broadcast_to(times, shape), np.broadcast_to(pts, shape + (2,))))


def test_grad_never_vanishes(rng):
    for pf in (make_static_phase(), make_dynamic_phase(BreathingMotion(0.1)),
               make_fanbeam_phase(3.0)):
        lo, hi = pf.t_range
        t, x = support_samples(rng, 200, t_range=(lo, hi))
        g = pf.grad_x(t, x)
        assert np.min(np.hypot(g[:, 0], g[:, 1])) > 0.0


# ---------------------------------------------------------------------------
# dynamic phases
# ---------------------------------------------------------------------------


def test_dynamic_identity_matches_static(static_pf, rng):
    pf = make_dynamic_phase(IdentityMotion())
    t, x = support_samples(rng, 100)
    np.testing.assert_allclose(pf.eval(t, x), static_pf.eval(t, x), atol=1e-14)


def test_dynamic_sync_rotation_is_x1(sync_pf, rng):
    t, x = support_samples(rng, 100)
    np.testing.assert_allclose(sync_pf.eval(t, x), x[:, 0], atol=1e-13)


def test_dynamic_counter_rotation_doubles_angle(rng):
    pf = make_dynamic_phase(RotationMotion(1.0))
    t, x = support_samples(rng, 100)
    ref = x[:, 0] * np.cos(2 * t) + x[:, 1] * np.sin(2 * t)
    np.testing.assert_allclose(pf.eval(t, x), ref, atol=1e-13)


def test_dynamic_phase_domain_error(breathing_pf):
    with pytest.raises(DomainError):
        breathing_pf.eval(0.3, np.array([5.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(0.0, TWO_PI),
    zx=st.floats(-1.3, 1.3),
    zy=st.floats(-1.3, 1.3),
    amp=st.floats(0.0, 0.15),
)
def test_breathing_roundtrip_property(t, zx, zy, amp):
    motion = BreathingMotion(amp)
    z = np.array([zx, zy])
    x = motion.forward(t, z)
    np.testing.assert_allclose(motion.inverse(t, x), z, atol=1e-10)


def test_motion_roundtrip_bulk(rng):
    for motion in (IdentityMotion(), RotationMotion(-1.0), AffineMotion(0.07),
                   BreathingMotion(0.1)):
        t = rng.uniform(0, TWO_PI, 1000)
        z = rng.uniform(-1.2, 1.2, (1000, 2))
        x = motion.forward(t, z)
        assert np.max(np.abs(motion.inverse(t, x) - z)) < 1e-8
        assert np.max(np.abs(motion.forward(t, motion.inverse(t, z)) - z)) < 1e-8
        assert np.min(np.linalg.det(motion.inverse_jacobian(t, z)[1])) > 0.0


def test_breathing_identity_outside_support(rng):
    motion = BreathingMotion(0.12, r_support=1.15)
    a = rng.uniform(0, TWO_PI, 200)
    r = rng.uniform(motion.r_support, 1.6, 200)
    z = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    t = rng.uniform(0, TWO_PI, 200)
    np.testing.assert_allclose(motion.forward(t, z), z, atol=1e-14)


@pytest.mark.parametrize("name", sorted(_MOTION_REGISTRY))
def test_motion_time_derivatives_match_fd(name, rng):
    """dt_forward is d/dt forward, and the chain rule on it gives d/dt of
    the inverse: -D psi^-1(x) dt_forward(t, psi^-1(x)), both against central
    differences in t.  Covers every registered motion."""
    motion = make_motion(name)
    t, x = support_samples(rng, 200, radius=1.2)
    h = 1e-5
    fd = (motion.forward(t + h, x) - motion.forward(t - h, x)) / (2 * h)
    np.testing.assert_allclose(motion.dt_forward(t, x), fd, rtol=0, atol=1e-9)
    z, jac = motion.inverse_jacobian(t, x)
    dz = -np.einsum("...ij,...j->...i", jac, motion.dt_forward(t, z))
    fd = (motion.inverse(t + h, x) - motion.inverse(t - h, x)) / (2 * h)
    np.testing.assert_allclose(dz, fd, rtol=0, atol=1e-9)


def test_breathing_inverts_once_per_call(rng, monkeypatch):
    """The pushforward weight and dt phi invert the breathing motion once
    per call, and a frame four times: phi with grad phi, dt phi, and the two
    gradients of the mixed-derivative difference."""
    from curvetomo import BumpWeight, lagrangian_to_levelset_weight

    motion = BreathingMotion(0.05)
    pf = make_dynamic_phase(motion)
    weight = lagrangian_to_levelset_weight(motion, BumpWeight(amplitude=0.2))
    t, x = support_samples(rng, 10)
    calls = []
    solve = motion._solve_radius
    monkeypatch.setattr(motion, "_solve_radius", lambda t, rho: calls.append(1) or solve(t, rho))
    for evaluate, expected in ((lambda: weight.eval(t, x), 1), (lambda: pf.dt(t, x), 1),
                               (lambda: fd_derivatives(pf, t, x), 4)):
        calls.clear()
        evaluate()
        assert len(calls) == expected


def test_breathing_amplitude_guard():
    with pytest.raises(ValueError):
        BreathingMotion(0.5)


# ---------------------------------------------------------------------------
# fan beam
# ---------------------------------------------------------------------------


def test_fanbeam_center_example():
    pf = make_fanbeam_phase(2.0, support_radius=0.2, domain=Rect(-0.5, 0.5, -0.5, 0.5))
    assert pf.eval(math.pi / 2, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_fanbeam_constant_on_rays(rng):
    pf = make_fanbeam_phase(3.0)
    for t in np.linspace(*pf.t_range, 7):
        target = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
        S = 3.0 * np.array([math.cos(t), math.sin(t)])
        u = (target - S) / np.linalg.norm(target - S)
        pts = S + np.linspace(2.2, 3.8, 9)[:, None] * u
        vals = pf.eval(t, pts)
        assert np.ptp(vals) < 1e-12


def test_fanbeam_branch_error():
    pf = make_fanbeam_phase(3.0)
    t = pf.t_range[0]
    # x^1 well below R cos t violates the branch sign
    bad = np.array([3.0 * math.cos(t) - 0.5, 0.0])
    with pytest.raises(BranchError):
        pf.eval(t, bad)


def test_fanbeam_needs_enclosing_circle():
    with pytest.raises(ValueError):
        make_fanbeam_phase(1.0)


def test_fan_to_parallel_examples():
    s, beta, jac = fan_to_parallel(math.pi / 2, 0.0, 1.0)
    assert (s, beta, jac) == pytest.approx((0.0, 0.0, 1.0))
    s, beta, jac = fan_to_parallel(0.0, math.pi / 6, 2.0)
    assert s == pytest.approx(1.0)
    assert beta == pytest.approx(math.pi / 6 - math.pi / 2)
    assert jac == pytest.approx(2.0 * math.cos(math.pi / 6))
    _, _, jac = fan_to_parallel(0.3, np.array([math.pi / 2 - 1e-9, -math.pi / 2 + 1e-9]), 1.0)
    assert np.all(np.abs(jac) < 1e-8)


# ---------------------------------------------------------------------------
# homogeneous extension
# ---------------------------------------------------------------------------


def test_homogeneous_extension_static_hessian(static_pf, rng):
    for _ in range(20):
        t = rng.uniform(0, TWO_PI)
        x = rng.uniform(-1, 1, 2)
        lam = rng.uniform(0.3, 3.0)
        theta = lam * np.array([math.cos(t), math.sin(t)])
        val, hess = homogeneous_extension(static_pf, x, theta)
        assert hess == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(lam * static_pf.eval(t, x), rel=1e-12)


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_homogeneous_extension_order_one(static_pf, breathing_pf, lam):
    x = np.array([0.3, -0.2])
    theta = np.array([0.8, 0.6])
    for pf in (static_pf, breathing_pf):
        v1, _ = homogeneous_extension(pf, x, theta)
        v2, _ = homogeneous_extension(pf, x, lam * theta)
        assert v2 == pytest.approx(lam * v1, rel=1e-12)


def test_homogeneous_extension_fd_hessian_oracle(breathing_pf, rng):
    """Mixed theta-x Hessian determinant against a pure finite-difference
    Hessian of |theta| phi(arg theta, x)."""
    pf = breathing_pf

    def phi_ext(x, theta):
        nrm = math.hypot(theta[0], theta[1])
        return nrm * float(pf.eval(math.atan2(theta[1], theta[0]) % TWO_PI, x))

    for _ in range(5):
        t = rng.uniform(0.5, TWO_PI - 0.5)
        x = rng.uniform(-0.7, 0.7, 2)
        theta = np.array([math.cos(t), math.sin(t)])
        _, hess = homogeneous_extension(pf, x, theta)
        h = 2e-5
        M = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                dth = np.zeros(2); dth[i] = h
                dx = np.zeros(2); dx[j] = h
                M[i, j] = (
                    phi_ext(x + dx, theta + dth) - phi_ext(x - dx, theta + dth)
                    - phi_ext(x + dx, theta - dth) + phi_ext(x - dx, theta - dth)
                ) / (4 * h * h)
        assert np.linalg.det(M) == pytest.approx(hess, rel=1e-4, abs=1e-6)


def test_homogeneous_extension_branch_error():
    pf = make_fanbeam_phase(3.0)  # t_range is a window around pi
    with pytest.raises(BranchError):
        homogeneous_extension(pf, np.array([0.1, 0.0]), np.array([1.0, 0.0]))  # arg = 0


# ---------------------------------------------------------------------------
# level-curve tracing
# ---------------------------------------------------------------------------


def test_trace_static_vertical_line(static_pf):
    curve = trace_level_curve(static_pf, 0.0, 0.0, seed=np.array([0.03, 0.2]), step=0.01)
    assert np.max(np.abs(curve.points[:, 0])) < 1e-8
    assert np.all(np.diff(curve.arc_lengths) > 0)
    steps = np.diff(curve.arc_lengths)
    assert np.all(steps >= 0.25 * 0.01) and np.all(steps <= 1.0 * 0.01 + 1e-12)
    # spans the domain (terminates within a couple of steps of the boundary)
    assert curve.points[:, 1].max() > 1.5 and curve.points[:, 1].min() < -1.5


def test_trace_residual_invariant(breathing_pf):
    s = float(breathing_pf.eval(1.2, np.array([0.3, -0.1])))
    curve = trace_level_curve(breathing_pf, s, 1.2, seed=np.array([0.3, -0.1]), step=0.008)
    resid = breathing_pf.eval(1.2, curve.points) - s
    assert np.max(np.abs(resid)) < 1e-8 * breathing_pf.domain.diameter


def test_trace_fan_ray_collinear():
    pf = make_fanbeam_phase(3.0)
    t = math.pi
    x0 = np.array([0.25, 0.15])
    s = float(pf.eval(t, x0))
    curve = trace_level_curve(pf, s, t, seed=x0, step=0.01)
    S = 3.0 * np.array([math.cos(t), math.sin(t)])
    d = curve.points - S
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    cross = np.abs(d[:, 0] * d[0, 1] - d[:, 1] * d[0, 0])
    assert np.max(cross) < 1e-6


def _newton_inputs(pf, t, s, x):
    factor = pf._time_factor(t)
    phi, g = pf._eval_grad_at(t, factor, x)
    return factor, phi - s, g


def test_newton_to_level_one_static_step_lands_on_the_line(static_pf, rng):
    """phi = x . omega(t) is linear in x, so one Newton step from x0 lands at
    x0 + (s - x0 . omega) omega, on the line x . omega = s."""
    t = rng.uniform(0, TWO_PI, 50)
    s = rng.uniform(-1, 1, 50)
    x0 = rng.uniform(-1, 1, (50, 2))
    factor, r, g = _newton_inputs(static_pf, t, s, x0)
    x, g1, done = _newton_to_level(static_pf, t, factor, s, x0.copy(), r, g,
                                   curve_tolerance(static_pf), 1)
    w = np.stack([np.cos(t), np.sin(t)], axis=-1)
    np.testing.assert_allclose(x, x0 + (s - np.sum(x0 * w, axis=-1))[:, None] * w,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.sum(x * w, axis=-1), s, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(g1, w)
    assert done.all()


def test_newton_to_level_zero_steps_returns_its_inputs(breathing_pf, rng):
    t = rng.uniform(0, TWO_PI, 40)
    x0 = rng.uniform(-0.8, 0.8, (40, 2))
    s = breathing_pf.eval(t, x0)
    s[::2] += 0.05          # every other point off its level
    factor, r, g = _newton_inputs(breathing_pf, t, s, x0)
    x, g0, done = _newton_to_level(breathing_pf, t, factor, s, x0.copy(), r, g,
                                   curve_tolerance(breathing_pf), 0)
    np.testing.assert_array_equal(x, x0)
    np.testing.assert_array_equal(g0, g)
    np.testing.assert_array_equal(done, np.arange(40) % 2 == 1)


def test_newton_to_level_non_finite_residual_is_unconverged(static_pf):
    """A NaN level or point gives a NaN residual, which never passes the
    tolerance: the point comes back flagged, the others converge."""
    t = np.array([0.3, 0.3, 0.3])
    s = np.array([0.1, np.nan, 0.1])
    x0 = np.array([[0.2, 0.1], [0.2, 0.1], [np.nan, 0.1]])
    factor, r, g = _newton_inputs(static_pf, t, s, x0)
    with np.errstate(all="raise"):
        x, _, done = _newton_to_level(static_pf, t, factor, s, x0.copy(), r, g,
                                      curve_tolerance(static_pf), 20)
    np.testing.assert_array_equal(done, [True, False, False])
    assert abs(static_pf.eval(0.3, x[0]) - 0.1) < curve_tolerance(static_pf)


def test_trace_seed_projection_error(static_pf):
    # static phase: level s = 10 exists but lies far outside the domain
    with pytest.raises(SeedProjectionError):
        trace_level_curve(static_pf, 10.0, 0.0, seed=np.array([0.1, 0.1]), step=0.01)
    # fan phase: the angle 10 is outside the range of atan2 entirely
    fan = make_fanbeam_phase(3.0)
    with pytest.raises(SeedProjectionError):
        trace_level_curve(fan, 10.0, math.pi, seed=np.array([0.1, 0.1]), step=0.01)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frame_static_values(static_pf, rng):
    t, x = support_samples(rng, 40)
    frame = fd_derivatives(static_pf, t, x)
    np.testing.assert_allclose(frame.J, 1.0, atol=1e-12)
    np.testing.assert_allclose(frame.h, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.hypot(frame.nu[:, 0], frame.nu[:, 1]), 1.0, atol=1e-12)


def test_weights_strictly_positive(rng):
    from curvetomo import BumpWeight, UnitWeight

    t, x = support_samples(rng, 200)
    for mu in (UnitWeight(), BumpWeight(amplitude=0.3), BumpWeight(amplitude=-0.5)):
        assert np.min(mu(t, x)) > 0.0
    with pytest.raises(ValueError):
        BumpWeight(amplitude=-0.9)


def test_frame_normal_orthogonal_to_tangent_static(static_pf):
    """On a straight level line the normal is exactly orthogonal to every
    polyline tangent."""
    curve = trace_level_curve(static_pf, 0.2, 0.9, seed=np.array([0.2, 0.1]), step=0.01)
    tangents = np.diff(curve.points, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    frame = fd_derivatives(static_pf, 0.9, curve.points[:-1])
    assert np.max(np.abs(np.sum(frame.nu * tangents, axis=1))) < 1e-6


def test_frame_normal_orthogonal_to_tangent(breathing_pf):
    x0 = np.array([0.2, 0.3])
    t = 0.7
    s = float(breathing_pf.eval(t, x0))
    curve = trace_level_curve(breathing_pf, s, t, seed=x0, step=0.01)
    mids = 0.5 * (curve.points[1:] + curve.points[:-1])
    tangents = np.diff(curve.points, axis=0)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    frame = fd_derivatives(breathing_pf, t, mids)
    dots = np.abs(np.sum(frame.nu * tangents, axis=1))
    assert np.max(dots) < 1e-4  # tangent is a chord, first-order in step


def test_frame_sync_rotation_degenerate(sync_pf, rng):
    t, x = support_samples(rng, 30)
    frame = fd_derivatives(sync_pf, t, x)
    assert np.max(np.abs(frame.m)) < 1e-10
    assert np.max(np.abs(frame.h)) < 1e-12


def test_frame_h_equals_column_det(breathing_pf, rng):
    t, x = support_samples(rng, 30)
    frame = fd_derivatives(breathing_pf, t, x)
    det = frame.g[:, 0] * frame.m[:, 1] - frame.g[:, 1] * frame.m[:, 0]
    np.testing.assert_array_equal(frame.h, det)


def test_fd_derivatives_domain_error(breathing_pf):
    with pytest.raises(DomainError):
        fd_derivatives(breathing_pf, 0.1, np.array([1.6, 0.0]))


def test_breathing_phase_independent_of_batch(breathing_pf):
    """phi and grad phi at the witness times of the atlas direction check,
    one point at a time, equal all points at once bit for bit: each point's
    breathing inverse converges on its own."""
    from curvetomo.microlocal import solve_time_for_direction

    x, xi = atlas_probe_pairs()
    roots = solve_time_for_direction(breathing_pf, x, xi)
    t = np.array([r for pair in roots for r, _ in pair])
    pts = np.repeat(x, [len(pair) for pair in roots], axis=0)
    assert len(t) == 1344
    phi = breathing_pf._eval_raw(t, pts)
    grad = breathing_pf._grad_x_raw(t, pts)
    for i in range(len(t)):
        assert breathing_pf._eval_raw(t[i], pts[i]) == phi[i]
        np.testing.assert_array_equal(breathing_pf._grad_x_raw(t[i], pts[i]), grad[i])
