"""Phase functions, motion models and level-curve machinery.

Conventions
-----------
A *phase function* ``phi(t, x)`` is a real scalar field on time x plane whose
level sets ``H(s, t) = {x : phi(t, x) = s}`` are the integration curves of the
transform.  All evaluators are vectorized: ``x`` has shape ``(..., 2)`` and
``t`` is a scalar or an array broadcastable against ``x[..., 0]``; values come
back with the broadcast shape.  ``omega(t) = (cos t, sin t)`` and the
perpendicular is the quarter turn ``(-sin t, cos t)``.

Derivative access is uniform: phases either carry analytic derivatives
(``analytic_derivatives`` is True) or fall back to central finite differences
with step ``1e-4 * domain diameter``; phi and grad_x phi come from one call
(see ``PhaseFunction``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchError, DomainError, SeedProjectionError, StallError

TWO_PI = 2.0 * math.pi


def omega(t):
    """Unit direction (cos t, sin t), stacked on the last axis."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def omega_perp(t):
    """d/dt omega(t) = (-sin t, cos t)."""
    t = np.asarray(t, dtype=float)
    return np.stack([-np.sin(t), np.cos(t)], axis=-1)


def smoothstep_c2(u):
    """Quintic smoothstep: 0 -> 0, 1 -> 1 with vanishing first and second
    derivatives at both ends (C^2 join against constants)."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep_c2_deriv(u):
    uc = np.clip(u, 0.0, 1.0)
    d = 30.0 * uc * uc * (1.0 - uc) ** 2
    return np.where((u > 0.0) & (u < 1.0), d, 0.0)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle used as the extended domain."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return (
            (x[..., 0] >= self.xmin)
            & (x[..., 0] <= self.xmax)
            & (x[..., 1] >= self.ymin)
            & (x[..., 1] <= self.ymax)
        )

    @property
    def diameter(self):
        return math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    def shrunk(self, margin):
        return Rect(
            self.xmin + margin, self.xmax - margin, self.ymin + margin, self.ymax - margin
        )


DEFAULT_DOMAIN = Rect(-1.6, 1.6, -1.6, 1.6)


# ---------------------------------------------------------------------------
# motion models
# ---------------------------------------------------------------------------


class MotionModel:
    """Time-dependent diffeomorphism psi_t of the plane.

    Subclasses provide closed forms of ``forward`` (psi_t(z)) and
    ``dt_forward`` (d/dt psi_t(z) at fixed z, with no inversion), and the
    inverse in two parts, like ``PhaseFunction``: ``time_factor(t)`` holds
    what depends on t alone, one row per time (shape ``t.shape + (k,)``),
    and ``inverse_jacobian_at(factor, x)`` inverts per point from those rows
    (broadcast against ``x[..., 0]``), returning the inverse map and its 2x2
    spatial Jacobian, ``(psi_t^{-1}(x), D psi_t^{-1}(x))``, from one
    inversion.  A batch caller (the tracer, via ``DynamicPhase``) computes
    the factor once and selects its rows along with the points; the public
    ``inverse_jacobian(t, x)`` and ``inverse`` derive from the two.  The
    rest follows from one inversion by the chain rule: the time derivative
    of the inverse is -D psi_t^{-1}(x) dt_forward(t, psi_t^{-1}(x)) (see
    ``DynamicPhase``), and the volume factor is det D psi_t^{-1}(x) (see
    ``operators.lagrangian_to_levelset_weight``).

    A family whose inverse is affine in x for every t (identity, rotation,
    affine) sets ``jacobian_per_time``: its Jacobian depends on t alone, and
    ``inverse_jacobian_at`` returns it once per time-factor row, of shape
    ``factor.shape[:-1] + (2, 2)``, which callers broadcast against the
    points.  Otherwise the Jacobian has the inverse map's shape.
    """

    jacobian_per_time = False

    def forward(self, t, z):
        raise NotImplementedError

    def dt_forward(self, t, z):
        raise NotImplementedError

    def time_factor(self, t):
        raise NotImplementedError

    def inverse_jacobian_at(self, factor, x):
        raise NotImplementedError

    def inverse_jacobian(self, t, x):
        return self.inverse_jacobian_at(self.time_factor(t), x)

    def inverse(self, t, x):
        return self.inverse_jacobian(t, x)[0]


class IdentityMotion(MotionModel):
    """psi_t = id; its Jacobian is the identity, one per time-factor row."""

    name = "identity"
    jacobian_per_time = True

    @staticmethod
    def _shape(t, z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_shapes(z[..., 0].shape, np.shape(t))

    def forward(self, t, z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(z, self._shape(t, z) + (2,)).copy()

    def dt_forward(self, t, z):
        return np.zeros(self._shape(t, z) + (2,))

    def time_factor(self, t):
        return np.empty(np.shape(t) + (0,))

    def inverse_jacobian_at(self, factor, x):
        x = np.asarray(x, dtype=float)
        rows = np.shape(factor)[:-1]
        shape = np.broadcast_shapes(x[..., 0].shape, rows)
        return (np.broadcast_to(x, shape + (2,)).copy(),
                np.broadcast_to(np.eye(2), rows + (2, 2)))


def _rot_apply(theta, v):
    """Apply the rotation by angle theta (broadcastable) to vectors v."""
    c = np.cos(theta)
    s = np.sin(theta)
    return np.stack(
        [c * v[..., 0] - s * v[..., 1], s * v[..., 0] + c * v[..., 1]], axis=-1
    )


class RotationMotion(MotionModel):
    """Rigid rotation psi_t = R_{rate * t}.  rate = -1 is the
    scanner-synchronized case (phi collapses to x^1).  The time factor is
    (cos, sin) of the inverse's angle -rate * t, and the Jacobian, the
    rotation by that angle, comes back once per time-factor row."""

    name = "rotation"
    jacobian_per_time = True

    def __init__(self, rate=0.3):
        self.rate = float(rate)

    def forward(self, t, z):
        return _rot_apply(self.rate * np.asarray(t, dtype=float), np.asarray(z, dtype=float))

    def dt_forward(self, t, z):
        # rate times the quarter turn of psi_t(z)
        x = self.forward(t, z)
        return self.rate * np.stack([-x[..., 1], x[..., 0]], axis=-1)

    def time_factor(self, t):
        theta = -self.rate * np.asarray(t, dtype=float)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    def inverse_jacobian_at(self, factor, x):
        c = factor[..., 0]
        s = factor[..., 1]
        x = np.asarray(x, dtype=float)
        z = np.stack([c * x[..., 0] - s * x[..., 1], s * x[..., 0] + c * x[..., 1]], axis=-1)
        jac = np.empty(c.shape + (2, 2))
        jac[..., 0, 0] = c
        jac[..., 0, 1] = -s
        jac[..., 1, 0] = s
        jac[..., 1, 1] = c
        return z, jac


_AFFINE_M0 = np.array([[0.40, -0.15], [0.25, 0.30]])
_AFFINE_V0 = np.array([0.12, -0.08])


class AffineMotion(MotionModel):
    """Time-affine motion psi_t(z) = A(t) z + b(t) with A(t) near identity:
    A(t) = I + amplitude*sin(t)*M0, b(t) = amplitude*(1 - cos t)*v0, with the
    fixed M0 = [[0.40, -0.15], [0.25, 0.30]] (``_AFFINE_M0``) and
    v0 = (0.12, -0.08) (``_AFFINE_V0``).  The time factor is A(t)^{-1},
    row-major, followed by b(t); the Jacobian A(t)^{-1} comes back once per
    time-factor row."""

    name = "affine"
    jacobian_per_time = True

    def __init__(self, amplitude=0.05):
        self.amplitude = float(amplitude)
        # diffeomorphism guard: det A(t) must stay positive over a full period
        tt = np.linspace(0.0, TWO_PI, 257)
        if np.min(np.linalg.det(self._A(tt))) <= 0.05:
            raise ValueError("affine amplitude too large: A(t) close to singular")

    def _A(self, t):
        t = np.asarray(t, dtype=float)
        return np.eye(2) + (self.amplitude * np.sin(t))[..., None, None] * _AFFINE_M0

    def _A_inv(self, t):
        A = self._A(t)
        det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
        inv = np.empty_like(A)
        inv[..., 0, 0] = A[..., 1, 1]
        inv[..., 0, 1] = -A[..., 0, 1]
        inv[..., 1, 0] = -A[..., 1, 0]
        inv[..., 1, 1] = A[..., 0, 0]
        return inv / det[..., None, None]

    def _b(self, t):
        t = np.asarray(t, dtype=float)
        return (self.amplitude * (1.0 - np.cos(t)))[..., None] * _AFFINE_V0

    def forward(self, t, z):
        z = np.asarray(z, dtype=float)
        A = self._A(t)
        return np.einsum("...ij,...j->...i", A, z) + self._b(t)

    def dt_forward(self, t, z):
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        Aprime = (self.amplitude * np.cos(t))[..., None, None] * _AFFINE_M0
        bprime = (self.amplitude * np.sin(t))[..., None] * _AFFINE_V0
        return np.einsum("...ij,...j->...i", Aprime, z) + bprime

    def time_factor(self, t):
        inv = self._A_inv(t)
        return np.concatenate([inv.reshape(inv.shape[:-2] + (4,)), self._b(t)], axis=-1)

    def inverse_jacobian_at(self, factor, x):
        x = np.asarray(x, dtype=float)
        d0 = x[..., 0] - factor[..., 4]
        d1 = x[..., 1] - factor[..., 5]
        z = np.stack([factor[..., 0] * d0 + factor[..., 1] * d1,
                      factor[..., 2] * d0 + factor[..., 3] * d1], axis=-1)
        return z, factor[..., :4].reshape(factor.shape[:-1] + (2, 2))


class BreathingMotion(MotionModel):
    """Radial breathing psi_t(z) = (1 + a sin t * eta(|z|)) z.

    eta is a C^2 taper equal to 1 on [0, r_flat] and 0 beyond r_support, so
    the motion is the identity outside the scanned region.  The inverse is a
    scalar Newton solve on the radius (the radial map r -> (1 + a sin t
    eta(r)) r is strictly monotone for admissible amplitudes); its time
    factor is a sin t.
    """

    name = "breathing"

    def __init__(self, amplitude=0.05, r_flat=0.5, r_support=1.15):
        self.amplitude = float(amplitude)
        self.r_flat = float(r_flat)
        self.r_support = float(r_support)
        if not 0.0 < self.r_flat < self.r_support:
            raise ValueError("need 0 < r_flat < r_support")
        # monotonicity of the radial map: |a| * max|eta + r eta'| < 1
        rr = np.linspace(0.0, self.r_support, 2001)
        bound = np.max(np.abs(self._eta(rr) + rr * self._eta_prime(rr)))
        if abs(self.amplitude) * bound >= 0.95:
            raise ValueError(
                f"breathing amplitude {amplitude} too large for taper (bound {bound:.2f})"
            )

    def _eta(self, r):
        u = (self.r_support - np.asarray(r, dtype=float)) / (self.r_support - self.r_flat)
        return smoothstep_c2(u)

    def _eta_prime(self, r):
        u = (self.r_support - np.asarray(r, dtype=float)) / (self.r_support - self.r_flat)
        return -smoothstep_c2_deriv(u) / (self.r_support - self.r_flat)

    def _scale(self, a_sin, r):
        # a_sin = amplitude * sin t, the time factor
        return 1.0 + a_sin * self._eta(r)

    def _scale_dr(self, a_sin, r):
        return a_sin * self._eta_prime(r)

    def forward(self, t, z):
        z = np.asarray(z, dtype=float)
        r = np.hypot(z[..., 0], z[..., 1])
        return self._scale(self.amplitude * np.sin(np.asarray(t, dtype=float)), r)[..., None] * z

    def dt_forward(self, t, z):
        z = np.asarray(z, dtype=float)
        r = np.hypot(z[..., 0], z[..., 1])
        return (self.amplitude * np.cos(np.asarray(t, dtype=float)) * self._eta(r))[..., None] * z

    def time_factor(self, t):
        return (self.amplitude * np.sin(np.asarray(t, dtype=float)))[..., None]

    def _solve_radius(self, a_sin, rho):
        """Invert r * scale(a_sin, r) = rho by vectorized Newton iteration.

        Each point stops as soon as its own residual is small and is left
        untouched after that, so its radius does not depend on which other
        points share the call.
        """
        shape = np.broadcast_shapes(np.shape(a_sin), np.shape(rho))
        a_sin = np.broadcast_to(np.asarray(a_sin, dtype=float), shape).ravel()
        rho = np.broadcast_to(np.asarray(rho, dtype=float), shape).ravel()
        r = rho / self._scale(a_sin, rho)  # good starting guess for small amplitude
        tol = 1e-14 * max(1.0, self.r_support)
        # the points still iterating: flat index, time factor, target and radius
        idx, al, rhol, rl = np.arange(len(r)), a_sin, rho, r
        for _ in range(40):
            c = self._scale(al, rl)
            f = rl * c - rhol
            live = np.abs(f) >= tol
            if not live.any():
                break
            idx, al, rhol, rl, c, f = (a[live] for a in (idx, al, rhol, rl, c, f))
            rl = np.maximum(rl - f / (c + rl * self._scale_dr(al, rl)), 0.0)
            r[idx] = rl
        return r.reshape(shape)

    def inverse_jacobian_at(self, factor, x):
        x = np.asarray(x, dtype=float)
        a_sin = factor[..., 0]
        rho = np.hypot(x[..., 0], x[..., 1])
        r = self._solve_radius(a_sin, rho)
        ratio = r / np.where(rho > 0.0, rho, 1.0)
        inv = np.where(rho > 0.0, ratio, 1.0)[..., None] * x
        c = self._scale(a_sin, r)
        cp = self._scale_dr(a_sin, r)
        # Sherman-Morrison inverse of D psi = c I + (c'/r) z z^T at z = psi^-1(x),
        # with z taken as 0 where |x| <= 1e-12
        safe_r = np.where(r > 1e-12, r, 1.0)
        z = np.where(rho[..., None] > 1e-12, ratio[..., None] * x, 0.0)
        alpha = np.where(r > 1e-12, cp / safe_r, 0.0)
        denom = c + alpha * r * r
        shape = np.broadcast_shapes(c.shape, x[..., 0].shape)
        jac = np.zeros(shape + (2, 2))
        coeff = np.where(np.abs(denom) > 0, alpha / denom, 0.0) / c
        jac[..., 0, 0] = 1.0 / c - coeff * z[..., 0] * z[..., 0]
        jac[..., 0, 1] = -coeff * z[..., 0] * z[..., 1]
        jac[..., 1, 0] = -coeff * z[..., 1] * z[..., 0]
        jac[..., 1, 1] = 1.0 / c - coeff * z[..., 1] * z[..., 1]
        return inv, jac


_MOTION_REGISTRY = {m.name: m for m in (IdentityMotion, RotationMotion, AffineMotion,
                                         BreathingMotion)}


def make_motion(name, **params):
    """Instantiate a builtin motion by name ('identity', 'rotation',
    'affine', 'breathing')."""
    try:
        factory = _MOTION_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown motion family {name!r}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


class Weight:
    """Positive smooth weight mu(t, x); callable with the evaluator contract."""

    def eval(self, t, x):
        raise NotImplementedError

    def __call__(self, t, x):
        return self.eval(t, x)


class UnitWeight(Weight):
    name = "unit"

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.ones(np.broadcast_shapes(x[..., 0].shape, np.shape(t)))


class BumpWeight(Weight):
    """mu = 1 + amplitude * exp(-|x - c|^2 / w^2) * (1 + 0.5 sin t): a strictly
    positive smooth perturbation of the unit weight."""

    name = "bump"

    def __init__(self, amplitude=0.1, center=(0.2, -0.1), width=0.6):
        self.amplitude = float(amplitude)
        if self.amplitude <= -0.66:
            raise ValueError("weight must stay positive")
        self.center = np.asarray(center, dtype=float)
        self.width = float(width)

    def eval(self, t, x):
        x = np.asarray(x, dtype=float)
        d2 = np.sum((x - self.center) ** 2, axis=-1)
        bump = np.exp(-d2 / self.width**2)
        return 1.0 + self.amplitude * bump * (1.0 + 0.5 * np.sin(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# phase functions
# ---------------------------------------------------------------------------


def _dot(a, b):
    """Row-wise dot product of (..., 2) arrays."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _transpose_apply(jac, w):
    """jac^T w for (..., 2, 2) matrices and (..., 2) vectors, column by
    column; for jac = D psi_t^{-1}(x) and w = omega(t) it is grad_x phi."""
    out = np.empty(np.broadcast_shapes(jac.shape[:-2], w.shape[:-1]) + (2,))
    out[..., 0] = jac[..., 0, 0] * w[..., 0] + jac[..., 1, 0] * w[..., 1]
    out[..., 1] = jac[..., 0, 1] * w[..., 0] + jac[..., 1, 1] * w[..., 1]
    return out


def _central_grad(value, h, x):
    """Central differences with step h of the scalar field ``value`` at the
    points x, stacked on the last axis."""
    x = np.asarray(x, dtype=float)
    e0 = np.array([h, 0.0])
    e1 = np.array([0.0, h])
    g0 = (value(x + e0) - value(x - e0)) / (2 * h)
    g1 = (value(x + e1) - value(x - e1)) / (2 * h)
    return np.stack([g0, g1], axis=-1)


class PhaseFunction:
    """Base class of the phase families.

    A family writes phi and grad_x phi once, in ``_eval_grad_at(t, factor,
    x)``, which returns both from one evaluation (for a dynamic phase, one
    inversion of the motion); the gradient may come back unbroadcast, one
    row per time-factor row, where it depends on t alone (the static phase
    and a dynamic phase of a motion with ``jacobian_per_time``).  ``factor
    = _time_factor(t)`` holds the factors of phi that depend on t alone,
    one row per time for t of shape (n,) (omega(t) for the static phase,
    omega(t) followed by the motion's own time factor for a dynamic one),
    so batch callers compute it once per time: the tracer selects its rows
    along with the points, and a scan passes (n,) times against (m, 1, 2)
    points.  ``_eval_grad_raw(t, x)``, ``_eval_raw`` and each family's
    ``_grad_x_raw`` derive from it; a caller that needs phi and its
    gradient at the same points makes one call.

    The base class's own ``_grad_x_raw``, ``_dt_raw`` and ``_dt_grad_x_raw``
    are central differences of phi with step ``fd_step``: the reference the
    analytic derivatives are tested against, and the fallback of a family
    without analytic time derivatives.  ``eval`` validates preconditions and
    raises; the ``_raw`` accessors are the non-raising path used by batch
    internals together with ``branch_mask`` / ``domain`` termination logic.
    """

    analytic_derivatives = False
    domain: Rect = DEFAULT_DOMAIN
    t_range = (0.0, TWO_PI)

    @property
    def fd_step(self):
        # central differences: balances truncation and round-off at float64
        return 1e-4 * self.domain.diameter

    # -- the evaluator and what derives from it ------------------------------
    def _time_factor(self, t):
        return t

    def _eval_grad_at(self, t, factor, x):
        raise NotImplementedError

    def _eval_grad_raw(self, t, x):
        t = np.asarray(t, dtype=float)
        phi, g = self._eval_grad_at(t, self._time_factor(t), np.asarray(x, dtype=float))
        if g.shape[:-1] != np.shape(phi):
            g = np.broadcast_to(g, np.shape(phi) + (2,)).copy()
        return phi, g

    def _eval_raw(self, t, x):
        t = np.asarray(t, dtype=float)
        return self._eval_grad_at(t, self._time_factor(t), np.asarray(x, dtype=float))[0]

    # -- finite-difference reference ----------------------------------------
    def _grad_x_raw(self, t, x):
        return _central_grad(lambda y: self._eval_raw(t, y), self.fd_step, x)

    def _dt_raw(self, t, x):
        h = self.fd_step
        t = np.asarray(t, dtype=float)
        return (self._eval_raw(t + h, x) - self._eval_raw(t - h, x)) / (2 * h)

    def _dt_grad_x_raw(self, t, x):
        h = self.fd_step
        t = np.asarray(t, dtype=float)
        return (self._grad_x_raw(t + h, x) - self._grad_x_raw(t - h, x)) / (2 * h)

    def branch_mask(self, t, x):
        """True where the phase value is on its smooth branch."""
        x = np.asarray(x, dtype=float)
        return np.ones(np.broadcast_shapes(x[..., 0].shape, np.shape(t)), dtype=bool)

    def _check(self, t, x):
        return None

    # -- public, validating evaluators --------------------------------------
    def eval(self, t, x):
        self._check(t, x)
        return self._eval_raw(t, x)

    def grad_x(self, t, x):
        self._check(t, x)
        return self._grad_x_raw(t, x)

    def dt(self, t, x):
        self._check(t, x)
        return self._dt_raw(t, x)

    def dt_grad_x(self, t, x):
        self._check(t, x)
        return self._dt_grad_x_raw(t, x)


class StaticPhase(PhaseFunction):
    """phi(t, x) = x . omega(t): the classical parallel-beam Radon family."""

    analytic_derivatives = True
    name = "static"

    def _time_factor(self, t):
        return omega(t)

    def _eval_grad_at(self, t, w, x):
        return _dot(x, w), w

    def _grad_x_raw(self, t, x):
        return self._eval_grad_raw(t, x)[1]

    def _dt_raw(self, t, x):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return -x[..., 0] * np.sin(t) + x[..., 1] * np.cos(t)

    def _dt_grad_x_raw(self, t, x):
        x = np.asarray(x, dtype=float)
        shape = np.broadcast_shapes(x[..., 0].shape, np.shape(t))
        return np.broadcast_to(omega_perp(t), shape + (2,)).copy()


class DynamicPhase(PhaseFunction):
    """phi(t, x) = psi_t^{-1}(x) . omega(t) for a motion model psi_t.

    The time factor is omega(t) with the motion's ``time_factor(t)``
    appended, so a batch caller evaluates both once per time.  phi and
    grad_x phi = (D psi_t^{-1})^T omega(t) come from one call of the
    motion's ``inverse_jacobian_at``.  So does the time derivative: by the
    chain rule d/dt psi_t^{-1}(x) = -D psi_t^{-1}(x) v with v the motion's
    ``dt_forward`` at z = psi_t^{-1}(x), hence

        dt phi = z . omega_perp(t) - grad_x phi . v.

    For a motion with ``jacobian_per_time`` phi is affine in x, so the time
    factor also carries grad_x phi(t) and phi(t, 0), and the evaluator
    returns phi = x . grad_x phi(t) + phi(t, 0) with the gradient
    unbroadcast, as the static phase does: the gradient keeps the bits of
    the per-point Jacobian's, phi moves in its last bit.

    The mixed derivative is a central difference in t of the spatial
    gradient.  With ``use_analytic=False`` every derivative is a central
    difference of the phase itself, and phi comes from the inverse map.
    """

    name = "dynamic"

    def __init__(self, motion, use_analytic):
        self.motion = motion
        self._analytic = bool(use_analytic)
        # phi affine in x: its gradient and offset ride in the time factor
        self._affine = self._analytic and motion.jacobian_per_time

    @property
    def analytic_derivatives(self):
        return self._analytic

    def _check(self, t, x):
        if not np.all(self.domain.contains(x)):
            raise DomainError("point outside extended domain of dynamic phase")

    def _time_factor(self, t):
        w = omega(t)
        motion_factor = self.motion.time_factor(t)
        if not self._affine:
            return np.concatenate([w, motion_factor], axis=-1)
        z0, jac = self.motion.inverse_jacobian_at(motion_factor, np.zeros(2))
        return np.concatenate([w, motion_factor, _transpose_apply(jac, w),
                               _dot(z0, w)[..., None]], axis=-1)

    def _eval_grad_at(self, t, factor, x):
        if self._affine:
            g = factor[..., -3:-1]
            return _dot(x, g) + factor[..., -1], g
        w = factor[..., :2]
        motion_factor = factor[..., 2:]
        z, jac = self.motion.inverse_jacobian_at(motion_factor, x)
        if self._analytic:
            g = _transpose_apply(jac, w)
        else:
            g = _central_grad(lambda y: _dot(self.motion.inverse_jacobian_at(motion_factor, y)[0],
                                             w), self.fd_step, x)
        return _dot(z, w), g

    def _grad_x_raw(self, t, x):
        return self._eval_grad_raw(t, x)[1]

    def _dt_raw(self, t, x):
        if not self._analytic:
            return super()._dt_raw(t, x)
        t = np.asarray(t, dtype=float)
        z, jac = self.motion.inverse_jacobian(t, x)
        g = _transpose_apply(jac, omega(t))
        return _dot(z, omega_perp(t)) - _dot(g, self.motion.dt_forward(t, z))


class FanBeamPhase(PhaseFunction):
    """Fan-beam level function for a source on the circle of radius R.

    With u = R sin t - x^2 and v = x^1 - R cos t the phase is the polar angle
    of the normalized ray perpendicular, atan2(v, u), on the branch v > 0.
    Level sets are the rays from the source S(t) = R (cos t, sin t); the
    boundary case v = 0, u > 0 evaluates smoothly to 0 and is allowed, any
    other violation of the sign condition raises BranchError.

    ``t_range`` is cut down so the branch condition holds over the whole
    object disk of radius ``support_radius``: a window centered at t = pi.
    """

    analytic_derivatives = True
    name = "fanbeam"

    def __init__(self, R, support_radius, t_margin, domain):
        corner = math.hypot(
            max(abs(domain.xmin), abs(domain.xmax)), max(abs(domain.ymin), abs(domain.ymax))
        )
        if R <= corner:
            raise ValueError(f"source radius {R} must exceed the domain corner radius {corner:.3f}")
        if support_radius >= R:
            raise ValueError("support must be inside the source circle")
        self.R = float(R)
        self.support_radius = float(support_radius)
        self.domain = domain
        half = math.asin(self.support_radius / self.R) + t_margin
        self.t_range = (0.5 * math.pi + half, 1.5 * math.pi - half)

    def _uv(self, t, x):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        u = self.R * np.sin(t) - x[..., 1]
        v = x[..., 0] - self.R * np.cos(t)
        return u, v

    def branch_mask(self, t, x):
        u, v = self._uv(t, x)
        tol = 1e-12 * self.R  # the v = 0, u > 0 boundary is smooth and allowed
        return (v > tol) | ((np.abs(v) <= tol) & (u > 0.0))

    def _check(self, t, x):
        if not np.all(self.branch_mask(t, x)):
            raise BranchError("fan-beam phase evaluated off the sgn(x^1 - R cos t) > 0 branch")

    def _eval_grad_at(self, t, factor, x):
        u, v = self._uv(t, x)
        q = u * u + v * v
        return np.arctan2(v, u), np.stack([u / q, v / q], axis=-1)

    def _grad_x_raw(self, t, x):
        return self._eval_grad_raw(t, x)[1]

    def _dt_raw(self, t, x):
        u, v = self._uv(t, x)
        t = np.asarray(t, dtype=float)
        q = u * u + v * v
        return self.R * (u * np.sin(t) - v * np.cos(t)) / q

    def _dt_grad_x_raw(self, t, x):
        u, v = self._uv(t, x)
        t = np.asarray(t, dtype=float)
        du = self.R * np.cos(t)
        dv = self.R * np.sin(t)
        q = u * u + v * v
        dq = 2.0 * (u * du + v * dv)
        gx = (du * q - u * dq) / (q * q)
        gy = (dv * q - v * dq) / (q * q)
        return np.stack([gx, gy], axis=-1)


def make_static_phase():
    """Classical Radon phase x . omega(t) with analytic derivatives."""
    return StaticPhase()


def make_dynamic_phase(motion, use_analytic=True):
    """Level-curve phase psi_t^{-1}(x) . omega(t) of a motion model."""
    return DynamicPhase(motion, use_analytic)


def make_fanbeam_phase(R, support_radius=1.05, t_margin=0.05, domain=DEFAULT_DOMAIN):
    """Fan-beam phase arg(alpha_perp); see FanBeamPhase for the branch."""
    return FanBeamPhase(R, support_radius, t_margin, domain)


def fan_to_parallel(t, gamma, R):
    """Fan coordinates (source angle t, fan angle gamma) to parallel (s, beta).

    Returns (s, beta, jacobian) with s = R sin(gamma), beta = t + gamma - pi/2
    and jacobian R cos(gamma) of the map (t, gamma) -> (s, beta).
    """
    t = np.asarray(t, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    s = R * np.sin(gamma)
    beta = t + gamma - 0.5 * math.pi
    return s, beta, R * np.cos(gamma)


# ---------------------------------------------------------------------------
# frames and the homogeneous extension
# ---------------------------------------------------------------------------


@dataclass
class LevelCurveFrame:
    """All first/mixed derivatives of phi at one (t, x), plus derived fields:
    unit normal nu, J = |grad phi|, and the local Bolker determinant
    h = det[grad_x phi, dt grad_x phi] (columns)."""

    t: float
    x: np.ndarray
    s: float
    g: np.ndarray
    dt_phi: float
    m: np.ndarray
    nu: np.ndarray
    J: float
    h: float


def fd_derivatives(pf, t, x):
    """Assemble a LevelCurveFrame at (t, x); analytic where the phase has it.

    Raises DomainError when (t, x) is not interior to domain x t_range by at
    least the finite-difference step.
    """
    x = np.asarray(x, dtype=float)
    h_fd = pf.fd_step
    inner = pf.domain.shrunk(h_fd)
    if not np.all(inner.contains(x)):
        raise DomainError("fd_derivatives needs interior points (one FD step of margin)")
    pf._check(t, x)
    s, g = pf._eval_grad_raw(t, x)
    dt_phi = pf._dt_raw(t, x)
    m = np.asarray(pf._dt_grad_x_raw(t, x), dtype=float)
    J = np.hypot(g[..., 0], g[..., 1])
    nu = g / J[..., None]
    h_det = g[..., 0] * m[..., 1] - g[..., 1] * m[..., 0]
    return LevelCurveFrame(t=t, x=x, s=s, g=g, dt_phi=dt_phi, m=m, nu=nu, J=J, h=h_det)


def _wrap_into_range(t, t_range, slack):
    lo, hi = t_range
    k = 0.0
    while t + k * TWO_PI < lo - slack:
        k += 1.0
    while t + k * TWO_PI > hi + slack:
        k -= 1.0
    tw = t + k * TWO_PI
    if tw < lo - slack or tw > hi + slack:
        return None
    return tw


def homogeneous_extension(pf, x, theta):
    """Order-one homogeneous extension |theta| * phi(arg theta, x).

    Returns ``(value, hessian_det)`` where hessian_det is the determinant of
    the mixed second derivatives in (theta, x), assembled from the phase
    derivatives at t = arg theta via the product-rule expansion; it collapses
    algebraically to the local Bolker determinant h(t, x).

    Raises BranchError when arg theta cannot be placed near ``pf.t_range``.
    """
    theta = np.asarray(theta, dtype=float)
    norm = math.hypot(theta[0], theta[1])
    if norm == 0.0:
        raise ValueError("theta must be nonzero")
    t = math.atan2(theta[1], theta[0])
    lo, hi = pf.t_range
    slack = 0.26 * (hi - lo)
    tw = _wrap_into_range(t, pf.t_range, slack)
    if tw is None:
        raise BranchError("arg theta falls outside a branch-safe neighborhood of t_range")
    x = np.asarray(x, dtype=float)
    pf._check(tw, x)
    phi, g = pf._eval_grad_raw(tw, x)
    value = norm * phi
    c = theta[0] / norm
    s = theta[1] / norm
    m = pf._dt_grad_x_raw(tw, x)
    row1 = c * g - s * m
    row2 = s * g + c * m
    hessian_det = row1[..., 0] * row2[..., 1] - row1[..., 1] * row2[..., 0]
    return value, hessian_det


# ---------------------------------------------------------------------------
# level-curve tracing
# ---------------------------------------------------------------------------


@dataclass
class LevelCurve:
    """Polyline realization of one connected component of H(s, t)."""

    s: float
    t: float
    points: np.ndarray
    arc_lengths: np.ndarray = field(default=None)
    closed: bool = False

    def __post_init__(self):
        if self.arc_lengths is None:
            seg = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
            self.arc_lengths = np.concatenate([[0.0], np.cumsum(seg)])


def curve_tolerance(pf):
    """Residual tolerance |phi - s| for traced vertices."""
    return 1e-8 * pf.domain.diameter


# Newton iterations of ``project_to_level``, and of the tracer's corrector
# per step (counting the predicted point's evaluation as the first).
_PROJECT_ITERS = 20
_CORRECTOR_ITERS = 8


def _newton_to_level(pf, t, factor, s, x, r, g, tol, steps):
    """At most ``steps`` Newton steps x <- x - r g / |g|^2 along grad phi
    onto {phi(t, .) = s}, from points x (n, 2) (updated in place) with
    residuals r = phi - s and gradients g there.  Each point stops once its
    own |r| < tol, so its result does not depend on which other points share
    the call.  Returns (x, g at x, converged mask)."""
    done = np.abs(r) < tol
    if done.all() or not steps:
        return x, g, done
    # g may be a view of the time factor: written into, it is copied
    g = np.array(np.broadcast_to(g, x.shape))
    live = np.flatnonzero(~done)
    r = r[live]
    for _ in range(steps):
        gl, xl = g[live], x[live]
        c = r / np.maximum(gl[:, 0] * gl[:, 0] + gl[:, 1] * gl[:, 1], 1e-300)
        xl = np.stack([xl[:, 0] - c * gl[:, 0], xl[:, 1] - c * gl[:, 1]], axis=-1)
        phi, gl = pf._eval_grad_at(t[live], factor[live], xl)
        x[live] = xl
        g[live] = gl
        r = phi - s[live]
        on = np.abs(r) < tol
        done[live[on]] = True
        live, r = live[~on], r[~on]
        if not len(live):
            break
    return x, g, done


def project_to_level(pf, t, s, x0, tol):
    """Newton projection of points onto {phi(t, .) = s} along grad phi
    (``_newton_to_level``, ``_PROJECT_ITERS`` steps).

    Vectorized over t, s and x0 (..., 2), broadcast together; returns
    (points, ok_mask).  Scalar callers wrap the result.
    """
    x0 = np.asarray(x0, dtype=float)
    shape = np.broadcast_shapes(np.shape(t), np.shape(s), x0.shape[:-1])
    t = np.broadcast_to(np.asarray(t, dtype=float), shape).ravel()
    s = np.broadcast_to(np.asarray(s, dtype=float), shape).ravel()
    x = np.broadcast_to(x0, shape + (2,)).reshape(-1, 2).copy()
    factor = pf._time_factor(t)
    phi, g = pf._eval_grad_at(t, factor, x)
    x, _, ok = _newton_to_level(pf, t, factor, s, x, phi - s, g, tol, _PROJECT_ITERS)
    ok &= pf.branch_mask(t, x)
    return x.reshape(shape + (2,)), ok.reshape(shape)


def _trace_batch(pf, t, s, p0, step, *, stop_rect, support_stop=None, emit=None,
                 collect=False):
    """March all curves simultaneously: an Euler predictor along the rotated
    gradient at the current vertex, a Newton corrector back onto the level
    set.

    Both directions of every curve are marched in one batch, and only live
    walks are marched: the per-walk state is compacted when walks end, so
    the cost of a step follows the number of walks still alive.  The phase's
    time factor is computed once per walk.  Each walk leaves the corrector
    once its own residual passes, so its points do not depend on which
    other walks share the batch, and the corrector's last gradient is the
    one at the accepted vertex, which predicts the next step: a step whose
    predicted point is on the level set (a straight level set) costs one
    evaluation of the phase.

    Parameters
    ----------
    t, s : (n,) arrays; p0 : (n, 2) on-level starting points.
    step : marching step (scalar).
    stop_rect : Rect; curves terminate upon exiting (keeps evaluations inside
        the phase domain).
    support_stop : optional radius; curves additionally terminate once
        outside it (used by the operator plan where the integrand vanishes).
    emit : optional callback(points, curve_idx, weights) streamed per step
        with trapezoid arc weights; used by the plan builder.  The arrays
        passed are not modified afterwards.
    collect : if True, return per-curve point lists (scalar-op path).

    Returns (points_per_curve | None, closed_mask, stalled_mask, steps),
    ``steps`` counting the predictor steps of all walks.
    """
    n = len(s)
    tol = curve_tolerance(pf)
    # a walk still alive after this many steps has stalled
    max_steps = int(stop_rect.diameter / step * 1.6) + 64

    closed = np.zeros(n, dtype=bool)
    stalled = np.zeros(n, dtype=bool)
    # both directions march together as 2n walks.  State of the live walks,
    # kept in step: curve index, time and its phase factor, level, signed
    # step, start point, current vertex, grad phi there and the length of
    # the segment ending at it
    walks = ([[] for _ in range(n)], [[] for _ in range(n)]) if collect else None
    gid = np.concatenate([np.arange(n), np.arange(n)])
    ta = np.concatenate([t, t])
    factor = pf._time_factor(ta)
    sa = np.concatenate([s, s])
    dstep = np.repeat([step, -step], n)
    start = np.concatenate([p0, p0])
    p = start
    g = np.broadcast_to(pf._eval_grad_at(ta, factor, p)[1], p.shape)
    prev_len = np.zeros(2 * n)
    support_stop2 = None if support_stop is None else support_stop * support_stop
    # inside a support disk that fits in stop_rect, the rectangle test is void
    rect_test = support_stop is None or not support_stop < min(
        -stop_rect.xmin, stop_rect.xmax, -stop_rect.ymin, stop_rect.ymax)
    closing2 = (0.5 * step) ** 2
    steps = 0

    def advance(base, g, h):
        # base + h * unit tangent, the tangent being the gradient g turned a
        # quarter counterclockwise.  Column by column: (n, 2) arrays
        # broadcast slowly against (n, 1) ones
        scale = h / np.maximum(np.sqrt(g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1]), 1e-300)
        out = np.empty_like(base)
        out[:, 0] = base[:, 0] - g[:, 1] * scale
        out[:, 1] = base[:, 1] + g[:, 0] * scale
        return out

    for k in range(max_steps):
        if not len(gid):
            break
        steps += len(gid)
        nxt = advance(p, g, dstep)
        phi, g = pf._eval_grad_at(ta, factor, nxt)
        # corrector: back onto the level set along grad phi, for the walks
        # off it only
        nxt, g, ok = _newton_to_level(pf, ta, factor, sa, nxt, phi - sa, g, tol,
                                      _CORRECTOR_ITERS - 1)
        stalled[gid[~ok]] = True
        keep = ok & pf.branch_mask(ta, nxt)
        if support_stop is not None:
            keep &= nxt[:, 0] * nxt[:, 0] + nxt[:, 1] * nxt[:, 1] <= support_stop2
        if rect_test:
            keep &= stop_rect.contains(nxt)
        if k >= 5:
            dx = nxt[:, 0] - start[:, 0]
            dy = nxt[:, 1] - start[:, 1]
            just_closed = dx * dx + dy * dy < closing2
            closed[gid[just_closed]] = True
            keep &= ~just_closed
        dx = nxt[:, 0] - p[:, 0]
        dy = nxt[:, 1] - p[:, 1]
        seg = np.sqrt(dx * dx + dy * dy)
        if emit is not None:
            # trapezoid: each interior vertex carries half of both adjacent
            # segments; the current vertex is emitted once its following
            # segment is known, or with half of its preceding one when the
            # walk ends here (the start point is emitted by both walks)
            emit(p, gid, 0.5 * (prev_len + np.where(keep, seg, 0.0)))
        if keep.all():
            p, prev_len = nxt, seg
        else:
            gid, ta, sa, dstep, prev_len = (a[keep] for a in (gid, ta, sa, dstep, seg))
            factor, start, p, g = (np.compress(keep, a, axis=0) for a in (factor, start, nxt, g))
        if collect:
            for j, (i, h) in enumerate(zip(gid, dstep)):
                walks[int(h < 0)][i].append(p[j])
    else:
        # cap reached: flush and flag whatever is still alive
        if emit is not None and len(gid):
            emit(p, gid, 0.5 * prev_len)
        stalled[gid] = True
    collected = None
    if collect:
        collected = [walks[0][i][::-1] + [p0[i].copy()] + walks[1][i] for i in range(n)]
    return collected, closed, stalled, steps


def trace_level_curve(pf, s, t, seed, step):
    """Trace the connected component of H(s, t) through ``seed``.

    The seed is first Newton-projected onto the level set along grad phi;
    the march then follows the rotated gradient with an Euler predictor and
    a Newton corrector (see ``_trace_batch``), terminating at the domain
    boundary or on closure (return to within step/2 of the start).

    Raises SeedProjectionError / StallError per the tracing contract.
    """
    seed = np.asarray(seed, dtype=float)
    tol = curve_tolerance(pf)
    p0, ok = project_to_level(pf, np.array([t]), np.array([s]), seed[None, :], tol)
    if not ok[0]:
        raise SeedProjectionError(f"seed projection failed at (s={s}, t={t})")
    if not pf.domain.contains(p0[0]):
        raise SeedProjectionError(
            f"seed projected outside the domain at (s={s}, t={t}): no component to trace"
        )
    stop_rect = pf.domain.shrunk(1.5 * step)
    collected, closed, stalled, _ = _trace_batch(
        pf, np.array([t], dtype=float), np.array([s], dtype=float), p0, step,
        stop_rect=stop_rect, collect=True,
    )
    if stalled[0]:
        raise StallError(f"corrector diverged while tracing (s={s}, t={t})")
    pts = np.array(collected[0])
    # honor the vertex-spacing invariant: drop a terminal runt segment
    if len(pts) >= 2 and np.linalg.norm(pts[-1] - pts[-2]) < 0.25 * step:
        pts = pts[:-1]
    if len(pts) >= 2 and np.linalg.norm(pts[1] - pts[0]) < 0.25 * step:
        pts = pts[1:]
    return LevelCurve(s=float(s), t=float(t), points=pts, closed=bool(closed[0]))
