"""Analytic ellipse phantoms with known boundary conormals.

A characteristic-function phantom carries its singularities on the ellipse
boundaries, conormal to them; ``boundary_wavefront`` samples exactly those
covectors for visibility experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
from .microlocal import CovectorSample, solve_time_for_direction
from .operators import make_image_grid


@dataclass(frozen=True)
class EllipseSpec:
    center: tuple
    semi_axes: tuple     # (a, b)
    angle: float = 0.0   # rotation, radians
    density: float = 1.0

    def __post_init__(self):
        if self.semi_axes[0] <= 0 or self.semi_axes[1] <= 0:
            raise ValueError("semi-axes must be positive")


@dataclass
class WavefrontSampleSet:
    samples: list  # of CovectorSample


def default_phantom():
    """Fixed repository fixture: a circle, a tilted thin ellipse, and a small
    high-contrast disk."""
    return [
        EllipseSpec(center=(-0.15, 0.10), semi_axes=(0.45, 0.45), angle=0.0, density=1.0),
        EllipseSpec(center=(0.30, -0.20), semi_axes=(0.35, 0.12), angle=math.radians(30), density=0.6),
        EllipseSpec(center=(0.25, 0.35), semi_axes=(0.12, 0.12), angle=0.0, density=1.4),
    ]


def recon_phantom():
    """Disk + ellipse fixture used by the reconstruction regression gates."""
    return [
        EllipseSpec(center=(-0.12, 0.08), semi_axes=(0.50, 0.50), angle=0.0, density=1.0),
        EllipseSpec(center=(0.28, -0.22), semi_axes=(0.32, 0.15), angle=math.radians(25), density=0.5),
    ]


def _inside(spec, x, y):
    c, s_ = math.cos(spec.angle), math.sin(spec.angle)
    dx = x - spec.center[0]
    dy = y - spec.center[1]
    xr = dx * c + dy * s_
    yr = -dx * s_ + dy * c
    return (xr / spec.semi_axes[0]) ** 2 + (yr / spec.semi_axes[1]) ** 2 <= 1.0


# Subpixels per pixel axis in ``render_phantom``'s antialiasing.
_SUPERSAMPLE = 4


def render_phantom(specs, nx, support_radius=1.0):
    """Sum of ellipse densities with area-weighted antialiasing on boundary
    pixels: each pixel averages a 4 x 4 subpixel grid (``_SUPERSAMPLE``)."""
    grid = make_image_grid(nx, support_radius=support_radius)
    X = grid.pixel_centers()
    offsets = ((np.arange(_SUPERSAMPLE) + 0.5) / _SUPERSAMPLE - 0.5) * grid.spacing
    acc = np.zeros((nx, nx))
    for dx in offsets:
        for dy in offsets:
            xs = X[..., 0] + dx
            ys = X[..., 1] + dy
            for spec in specs:
                acc += spec.density * _inside(spec, xs, ys)
    return grid.like(acc / _SUPERSAMPLE**2)


def boundary_wavefront(specs, n_per_ellipse):
    """Uniform parameter samples on each ellipse with analytic outward
    normals: at p(theta) = c + R(phi)(a cos, b sin) the outward normal is
    R(phi)(cos/a, sin/b), normalized."""
    if n_per_ellipse < 8:
        raise ValueError("need at least 8 samples per ellipse")
    samples = []
    for spec in specs:
        a, b = spec.semi_axes
        c, s_ = math.cos(spec.angle), math.sin(spec.angle)
        R = np.array([[c, -s_], [s_, c]])
        for theta in np.linspace(0.0, TWO_PI, n_per_ellipse, endpoint=False):
            local = np.array([a * math.cos(theta), b * math.sin(theta)])
            p = np.asarray(spec.center) + R @ local
            nrm = R @ np.array([math.cos(theta) / a, math.sin(theta) / b])
            nrm = nrm / np.hypot(nrm[0], nrm[1])
            samples.append(CovectorSample(x=p, xi=nrm))
    return WavefrontSampleSet(samples=samples)


@dataclass
class VisibilityAudit:
    flags: np.ndarray          # per-sample bool
    witnesses: list            # per-sample list of (t, orientation)
    fraction_visible: float


def visibility_audit(pf, wfs, t_range=None):
    """Run the time-for-direction solver at every wavefront sample, in one
    batched solve."""
    x = np.array([cov.x for cov in wfs.samples]).reshape(-1, 2)
    xi = np.array([cov.xi for cov in wfs.samples]).reshape(-1, 2)
    wit = solve_time_for_direction(pf, x, xi, t_range=t_range)
    flags = np.array([len(roots) > 0 for roots in wit], dtype=bool)
    frac = float(np.mean(flags)) if len(flags) else 0.0
    return VisibilityAudit(flags=flags, witnesses=wit, fraction_visible=frac)
