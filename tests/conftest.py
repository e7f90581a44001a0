import math

import numpy as np
import pytest

from curvetomo import (
    BreathingMotion,
    RotationMotion,
    SinoSpec,
    UnitWeight,
    make_dynamic_phase,
    make_image_grid,
    make_static_phase,
)
from curvetomo.operators import LevelSetTransform


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def static_pf():
    return make_static_phase()


@pytest.fixture(scope="session")
def sync_pf():
    """Scanner-synchronized rotation: phi(t, x) = x^1 for all t."""
    return make_dynamic_phase(RotationMotion(-1.0))


@pytest.fixture(scope="session")
def sync_pf_fd():
    """Same geometry forced onto the finite-difference derivative path."""
    return make_dynamic_phase(RotationMotion(-1.0), use_analytic=False)


@pytest.fixture(scope="session")
def breathing_pf():
    return make_dynamic_phase(BreathingMotion(0.05))


@pytest.fixture(scope="session")
def small_transform(static_pf):
    """Static 48^2 / 90-angle operator shared across fast tests."""
    img = make_image_grid(48)
    spec = SinoSpec(ns=53, nt=90)
    return LevelSetTransform(static_pf, UnitWeight(), img, spec)


def support_samples(rng, n, radius=0.95, t_range=(0.0, 2 * np.pi)):
    """Random (t, x) samples inside the disk of the given radius."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    a = rng.uniform(0.0, 2 * np.pi, n)
    x = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
    t = rng.uniform(t_range[0], t_range[1], n)
    return t, x


# ---------------------------------------------------------------------------
# per-pair oracle of the time-for-direction solver
# ---------------------------------------------------------------------------


def _pair_residual(pf, t, x, u_perp):
    g = pf._grad_x_raw(t, x)
    norm = np.maximum(np.hypot(g[..., 0], g[..., 1]), 1e-300)
    return (g[..., 0] * u_perp[0] + g[..., 1] * u_perp[1]) / norm


def reference_solve_time(pf, x, xi, t_range=None, n_scan=720, residual_tol=1e-10):
    """``solve_time_for_direction`` for one (x, xi) pair, written as a scalar
    loop: grid scan, bisection and Newton polish one bracket at a time."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    u = xi / np.hypot(xi[0], xi[1])
    u_perp = np.array([-u[1], u[0]])
    lo, hi = t_range if t_range is not None else pf.t_range
    full_circle = abs((hi - lo) - 2 * math.pi) < 1e-9
    tt = np.linspace(lo, hi, n_scan + 1)
    r = _pair_residual(pf, tt, np.broadcast_to(x, (n_scan + 1, 2)), u_perp)
    roots = []
    if np.all(np.abs(r) < 1e-9):
        roots.append(0.5 * (lo + hi))
    else:
        zero = np.abs(r) < residual_tol
        i = 0
        while i <= n_scan:
            if zero[i]:
                j = i
                while j + 1 <= n_scan and zero[j + 1]:
                    j += 1
                roots.append(0.5 * (tt[i] + tt[j]))
                i = j + 1
            else:
                i += 1
        for i in range(n_scan):
            if zero[i] or zero[i + 1] or not r[i] * r[i + 1] < 0.0:
                continue
            a, b, fa = tt[i], tt[i + 1], r[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = float(_pair_residual(pf, m, x, u_perp))
                if abs(fm) < residual_tol:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            t_root = 0.5 * (a + b)
            for _ in range(4):
                f0 = float(_pair_residual(pf, t_root, x, u_perp))
                if abs(f0) < residual_tol:
                    break
                dh = 1e-7 * max(1.0, hi - lo)
                d = (float(_pair_residual(pf, t_root + dh, x, u_perp))
                     - float(_pair_residual(pf, t_root - dh, x, u_perp))) / (2 * dh)
                if d == 0.0:
                    break
                step = f0 / d
                if abs(step) > (tt[1] - tt[0]):
                    break
                t_root -= step
            roots.append(t_root)
    dedup = []
    tol_t = 1e-7 * max(1.0, hi - lo)
    for t_root in sorted(roots):
        if any(abs(t_root - q) < tol_t for q in dedup):
            continue
        if full_circle and any(abs(abs(t_root - q) - 2 * math.pi) < tol_t for q in dedup):
            continue
        dedup.append(t_root)
    out = []
    for t_root in dedup:
        g = pf._grad_x_raw(t_root, x)
        orient = 1.0 if (g[0] * u[0] + g[1] * u[1]) / math.hypot(g[0], g[1]) >= 0 else -1.0
        out.append((float(t_root), orient))
    return out


def atlas_probe_pairs(support_radius=1.0, n_dirs=24):
    """The (probe, direction) pairs of ``build_default_atlas``'s direction
    check, probe-major: (n, 2) points and (n, 2) unit directions."""
    rr = np.linspace(0.0, support_radius * 0.98, 7)
    aa = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    probes = np.concatenate([np.stack([r * np.cos(aa), r * np.sin(aa)], axis=-1) for r in rr])
    probes = probes[:: max(1, len(probes) // 24)]
    ang = np.linspace(0, 2 * math.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return np.repeat(probes, n_dirs, axis=0), np.tile(dirs, (len(probes), 1))
