"""Numerical checkers for the visibility, local and semi-global Bolker
conditions, the canonical relation, and the principal symbol of the
microlocally restricted normal operator.

The central objects: the local Bolker determinant
``h(t, x) = det[grad_x phi, dt grad_x phi]`` (columns), the time solver
``t(x, xi)`` that matches curve normals against covector directions, and the
order-(-1) symbol ``p = (2 pi)^-1 sum_t chi |mu|^2 J^2 / |h~(t)|`` over
the witness times t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSymbolError
from .geometry import TWO_PI, fd_derivatives, trace_level_curve


@dataclass(frozen=True)
class CovectorSample:
    """A base point with a nonzero covector."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if np.hypot(self.xi[0], self.xi[1]) == 0.0:
            raise ValueError("covector must be nonzero")

    @property
    def unit_dir(self):
        return self.xi / np.hypot(self.xi[0], self.xi[1])


@dataclass(frozen=True)
class CanonicalPoint:
    """One point of the canonical relation C = {(phi, t, sigma, -sigma dt phi;
    x, sigma grad phi)}."""

    s: float
    t: float
    sigma: float
    tau: float
    x: np.ndarray
    xi: np.ndarray


@dataclass
class VisibilityMap:
    """Per-direction solvability of nu(t, x) || +-direction at a fixed x
    (or, with leading axes, at each of several points)."""

    x: np.ndarray                   # (2,), or (m, 2) points
    directions: np.ndarray          # (n, 2) unit vectors
    count: np.ndarray               # (n,) or (m, n) number of witness times
    t_witness: list                 # per-direction list of (t, orientation), per point

    @property
    def visible(self):
        return self.count > 0


@dataclass
class SymbolValue:
    """Principal symbol evaluation at (x, xi)."""

    x: np.ndarray
    xi: np.ndarray
    t_used: float | None
    W_plus: float
    W_minus: float
    h_tilde: float
    p: float
    visible: bool = True


def bolker_determinant(pf, t, x):
    """Local Bolker determinant h(t, x) = det[grad_x phi, dt grad_x phi]."""
    frame = fd_derivatives(pf, t, x)
    return frame.h


# ---------------------------------------------------------------------------
# homogeneous-extension equivalence
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    n_samples: int
    agreement_fraction: float
    worst_discrepancy: float        # largest |normalized-det| gap among disagreements
    disagreements: list = field(default_factory=list)


# Zero/nonzero cut of the equivalence check's normalized determinants.
_DET_THRESHOLD = 1e-8


def _normalized_det_status(col1, col2):
    """Zero/nonzero classification of det[col1, col2] after normalizing each
    column to unit scale; vectorized over leading axes.  A normalized
    determinant above 1e-8 (``_DET_THRESHOLD``) is nonzero.

    A column whose norm is below 1e-8 times the larger column is treated as
    zero (the matrix is singular); without this floor, normalizing a
    pure-noise column would amplify round-off to unit scale.
    """
    col1 = np.asarray(col1, dtype=float)
    col2 = np.asarray(col2, dtype=float)
    n1 = np.hypot(col1[..., 0], col1[..., 1])
    n2 = np.hypot(col2[..., 0], col2[..., 1])
    ref = np.maximum(n1, n2)
    degenerate = (ref == 0.0) | (np.minimum(n1, n2) < _DET_THRESHOLD * ref)
    denom = np.where(degenerate, 1.0, n1 * n2)
    det = np.abs(col1[..., 0] * col2[..., 1] - col1[..., 1] * col2[..., 0]) / denom
    det = np.where(degenerate, 0.0, det)
    return (det > _DET_THRESHOLD) & ~degenerate, det


def homogeneous_equivalence_check(pf, t_samples, x_samples=None):
    """Compare zero/nonzero status of h(t, x) against the determinant of the
    mixed theta-x Hessian of the order-one homogeneous extension.

    Accepts either an iterable of (t, x) pairs or parallel arrays ``t
    (n,)`` and ``x (n, 2)`` in the branch-safe region.  Agreement of the two
    classifications on every sample is the numerical shadow of the
    if-and-only-if statement; the Hessian route assembles the mixed-derivative
    matrix from the product-rule expansion and classifies its columns
    independently of the direct [grad, dt grad] route.  Both routes call a
    normalized determinant zero at or below 1e-8 (``_DET_THRESHOLD``).
    """
    if x_samples is None:
        pairs = list(t_samples)
        t = np.array([p[0] for p in pairs], dtype=float)
        x = np.array([np.asarray(p[1], dtype=float) for p in pairs])
    else:
        t = np.asarray(t_samples, dtype=float)
        x = np.asarray(x_samples, dtype=float)
    frame = fd_derivatives(pf, t, x)
    g, m = frame.g, frame.m
    status_h, mag_h = _normalized_det_status(
        np.stack([g[..., 0], g[..., 1]], axis=-1),
        np.stack([m[..., 0], m[..., 1]], axis=-1),
    )
    c = np.cos(t)
    s_ = np.sin(t)
    # columns of (d^2/d theta d x) |theta| phi(arg theta, x) at theta = omega(t)
    col1 = np.stack([c * g[..., 0] - s_ * m[..., 0], s_ * g[..., 0] + c * m[..., 0]], axis=-1)
    col2 = np.stack([c * g[..., 1] - s_ * m[..., 1], s_ * g[..., 1] + c * m[..., 1]], axis=-1)
    status_hess, mag_hess = _normalized_det_status(col1, col2)
    agree = status_h == status_hess
    bad_idx = np.nonzero(~agree)[0]
    worst = float(np.max(np.abs(mag_h - mag_hess)[bad_idx])) if len(bad_idx) else 0.0
    bad = [(float(t[i]), x[i].copy(), float(mag_h[i]), float(mag_hess[i])) for i in bad_idx[:32]]
    return EquivalenceReport(
        n_samples=len(t),
        agreement_fraction=float(np.mean(agree)) if len(t) else 1.0,
        worst_discrepancy=worst,
        disagreements=bad,
    )


# ---------------------------------------------------------------------------
# the time solver t(x, xi) and visibility
# ---------------------------------------------------------------------------


def _angular_residual(pf, t, x, dir_perp):
    """nu(t, x) . (unit_dir rotated by pi/2); zero iff nu || +-unit_dir.

    t (k,), x (k, 2) and dir_perp (k, 2) are matched row by row, or
    broadcast: (m,) times against (k, 1, 2) points and directions."""
    g = pf._grad_x_raw(t, x)
    norm = np.maximum(np.hypot(g[..., 0], g[..., 1]), 1e-300)
    return (g[..., 0] * dir_perp[..., 0] + g[..., 1] * dir_perp[..., 1]) / norm


# The time solver's scan: cells of the uniform time grid, and the residual
# below which a time is a root.  ``tests/conftest.py``'s scalar oracle
# ``reference_solve_time`` defaults to the same two values.
_N_SCAN = 720
_RESIDUAL_TOL = 1e-10

# Pairs per block of the residual scan: a block evaluates its pairs at all
# _N_SCAN + 1 grid times at once, so this caps the scan's scratch memory.
_SCAN_PAIRS = 64


def _scan_block(pf, tt, x, u_perp, offset):
    """Scan the residual of a block of pairs, numbered from ``offset``, on
    the grid ``tt``.

    The residual is evaluated on (pairs, 1, 2) points against the (times,)
    grid, so the phase's time factor is computed once per grid time.
    Returns the roots found on the grid, as (pair, t) arrays, for the flat
    pairs and the runs of exact-zero nodes, and the sign-change brackets, as
    (pair, left grid index, residual there) arrays."""
    r = _angular_residual(pf, tt, x[:, None, :], u_perp[:, None, :])
    # identically degenerate: one representative root
    flat = np.all(np.abs(r) < 1e-9, axis=1)
    flat_pair = np.flatnonzero(flat)
    flat_t = np.full(len(flat_pair), 0.5 * (tt[0] + tt[-1]))
    rows = np.flatnonzero(~flat)
    r = r[rows]
    # exact zeros on grid nodes: one root per maximal run of zero nodes
    zero = np.abs(r) < _RESIDUAL_TOL
    edge = np.zeros((len(r), 1), dtype=bool)
    first = zero & ~np.hstack([edge, zero[:, :-1]])
    last = zero & ~np.hstack([zero[:, 1:], edge])
    run_row, i = np.nonzero(first)
    j = np.nonzero(last)[1]
    root_pair = np.concatenate([flat_pair, rows[run_row]]) + offset
    root_t = np.concatenate([flat_t, 0.5 * (tt[i] + tt[j])])
    # sign changes between non-zero nodes
    change = ~zero[:, :-1] & ~zero[:, 1:] & (r[:, :-1] * r[:, 1:] < 0.0)
    row, i = np.nonzero(change)
    return root_pair, root_t, rows[row] + offset, i, r[row, i]


def solve_time_for_direction(pf, x, xi, t_range=None):
    """All t in t_range with nu(t, x) parallel to +-xi/|xi|.

    ``x`` and ``xi`` are one pair of shape (2,) each, or a batch of pairs of
    shape (n, 2) (a single x or xi of shape (2,) is shared by the batch).
    A single pair returns a list of ``(t, orientation)`` with orientation =
    sign(nu . unit_dir); a batch returns one such list per pair.  An empty
    list marks an invisible direction.

    Scans a uniform grid of 721 times (720 cells, ``_N_SCAN``) for sign
    changes of the angular residual, in blocks of 64 pairs to bound the
    scan's memory, then refines each bracket by bisection (at most 80 steps,
    stopping once |residual| < 1e-10, ``_RESIDUAL_TOL``) and at most 4
    Newton steps, each no longer than a scan cell.  A run of grid times
    whose residual is below 1e-10 counts as one root.  All brackets of the
    batch are refined in lockstep, each under the stopping rules it would
    meet if solved alone.

    A residual that vanishes on a whole subinterval (the synchronized limit
    when xi is the surviving normal) is collapsed to the subinterval
    midpoints, one root per maximal flat stretch.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    single = x.ndim == 1 and xi.ndim == 1
    x, xi = (np.ascontiguousarray(a) for a in
             np.broadcast_arrays(np.atleast_2d(x), np.atleast_2d(xi)))
    if not len(x):
        return []
    nrm = np.hypot(xi[:, 0], xi[:, 1])
    if np.any(nrm == 0.0):
        raise ValueError("xi must be nonzero")
    u = xi / nrm[:, None]
    u_perp = np.stack([-u[:, 1], u[:, 0]], axis=-1)
    lo, hi = t_range if t_range is not None else pf.t_range
    full_circle = abs((hi - lo) - TWO_PI) < 1e-9

    tt = np.linspace(lo, hi, _N_SCAN + 1)
    scans = [_scan_block(pf, tt, x[b0:b0 + _SCAN_PAIRS], u_perp[b0:b0 + _SCAN_PAIRS], b0)
             for b0 in range(0, len(x), _SCAN_PAIRS)]
    root_pair, root_t, pair, i, fa = (np.concatenate(c) for c in zip(*scans))

    # bisection of every bracket in lockstep
    a, b = tt[i], tt[i + 1]
    live = np.arange(len(pair))
    for _ in range(80):
        if not len(live):
            break
        m_ = 0.5 * (a[live] + b[live])
        p = pair[live]
        fm = _angular_residual(pf, m_, x[p], u_perp[p])
        hit = np.abs(fm) < _RESIDUAL_TOL
        a[live[hit]] = b[live[hit]] = m_[hit]
        left = ~hit & (fa[live] * fm < 0.0)      # the root is in [a, m]
        right = ~hit & ~left
        b[live[left]] = m_[left]
        a[live[right]] = m_[right]
        fa[live[right]] = fm[right]
        live = live[~hit]
    t_root = 0.5 * (a + b)

    # Newton polish on the residual
    dh = 1e-7 * max(1.0, hi - lo)
    live = np.arange(len(pair))
    for _ in range(4):
        if not len(live):
            break
        t0 = t_root[live]
        p = pair[live]
        f0 = _angular_residual(pf, t0, x[p], u_perp[p])
        d = (_angular_residual(pf, t0 + dh, x[p], u_perp[p])
             - _angular_residual(pf, t0 - dh, x[p], u_perp[p])) / (2 * dh)
        with np.errstate(divide="ignore", invalid="ignore"):
            step_n = f0 / d
        go = ~(np.abs(f0) < _RESIDUAL_TOL) & (d != 0.0) & ~(np.abs(step_n) > (tt[1] - tt[0]))
        live = live[go]
        t_root[live] = t0[go] - step_n[go]

    root_pair = np.concatenate([root_pair, pair])
    root_t = np.concatenate([root_t, t_root])
    # orientation of every root in one evaluation
    g = pf._grad_x_raw(root_t, x[root_pair])
    u_r = u[root_pair]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_nu = (g[:, 0] * u_r[:, 0] + g[:, 1] * u_r[:, 1]) / np.hypot(g[:, 0], g[:, 1])
    orient = np.where(cos_nu >= 0, 1.0, -1.0)

    # deduplicate per pair (2 pi wrap for full-range scans)
    tol_t = 1e-7 * max(1.0, hi - lo)
    out = [[] for _ in range(len(x))]
    order = np.lexsort((root_t, root_pair))
    for k, t_k, o_k in zip(root_pair[order].tolist(), root_t[order].tolist(),
                           orient[order].tolist()):
        kept = out[k]
        if any(abs(t_k - q) < tol_t for q, _ in kept):
            continue
        if full_circle and any(abs(abs(t_k - q) - TWO_PI) < tol_t for q, _ in kept):
            continue
        kept.append((t_k, o_k))
    return out[0] if single else out


def visibility_map(pf, x, n_dirs, t_range=None):
    """Solve the time-for-direction problem on a uniform angular grid.

    ``x`` is one point (2,), or points (n, 2): then ``count`` is (n, n_dirs)
    and ``t_witness`` holds one list per point.  All pairs go through one
    batched solve."""
    if n_dirs < 8:
        raise ValueError("need at least 8 directions")
    x = np.asarray(x, dtype=float)
    angles = np.linspace(0.0, TWO_PI, n_dirs, endpoint=False)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    pts = np.atleast_2d(x)
    roots = solve_time_for_direction(pf, np.repeat(pts, n_dirs, axis=0),
                                     np.tile(directions, (len(pts), 1)), t_range=t_range)
    counts = np.array([len(r) for r in roots], dtype=int).reshape(len(pts), n_dirs)
    witnesses = [roots[k:k + n_dirs] for k in range(0, len(roots), n_dirs)]
    if x.ndim == 1:
        counts, witnesses = counts[0], witnesses[0]
    return VisibilityMap(x=x, directions=directions, count=counts, t_witness=witnesses)


# ---------------------------------------------------------------------------
# semi-global Bolker (no conjugate points)
# ---------------------------------------------------------------------------


def semiglobal_bolker_check(pf, t, x, n_curve_samples=512):
    """Witnesses against injectivity of y -> (phi(t, y), dt phi(t, y)) along
    the level curve through x.

    The curve through x is traced once, at steps of 1/1024 of the domain's
    diameter, and resampled to ``n_curve_samples`` points; any sample y with
    |dt phi(t, x) - dt phi(t, y)| below the tolerance is a conjugate-point
    witness.  The arc within 4 trace steps of x itself is excluded: near x
    the local Bolker condition already forces strict monotonicity, and every
    continuous function ties with itself in the limit y -> x.

    The tolerance is 1e-6 times a scale for dt phi; since the degenerate
    cases of interest have dt phi identically zero, the scale is floored by
    |grad phi| times the curve length (same physical units).  Sampling is
    doubled (at most twice) when consecutive samples are closer than 10x the
    tolerance in dt phi, unless witnesses were already found.
    """
    x = np.asarray(x, dtype=float)
    s = float(pf.eval(t, x))
    step = pf.domain.diameter / 1024.0
    curve = trace_level_curve(pf, s, t, seed=x, step=step)
    pts = curve.points
    arc = curve.arc_lengths
    total = arc[-1]
    if total <= 0:
        return np.zeros((0, 2))
    dt_x = float(pf.dt(t, x))
    g = pf.grad_x(t, x)
    grad_scale = float(np.hypot(g[0], g[1])) * total

    for attempt in range(3):
        targets = np.linspace(0.0, total, n_curve_samples)
        ys = np.stack(
            [np.interp(targets, arc, pts[:, 0]), np.interp(targets, arc, pts[:, 1])], axis=-1
        )
        dt_y = pf.dt(np.full(len(ys), float(t)), ys)
        sg_tol = 1e-6 * max(float(np.max(np.abs(dt_y))), grad_scale)

        arc_x = targets[np.argmin(np.hypot(ys[:, 0] - x[0], ys[:, 1] - x[1]))]
        near_x = np.abs(targets - arc_x) <= 4 * step
        hits = (np.abs(dt_y - dt_x) <= sg_tol) & ~near_x
        if hits.any():
            return ys[hits]
        gaps = np.abs(np.diff(dt_y))
        if attempt < 2 and np.min(gaps) < 10.0 * sg_tol and n_curve_samples < 4096:
            n_curve_samples *= 2
            continue
        return np.zeros((0, 2))


# ---------------------------------------------------------------------------
# canonical relation
# ---------------------------------------------------------------------------


def canonical_point(pf, t, x, sigma):
    """Assemble the canonical-relation point over (t, x, sigma)."""
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    x = np.asarray(x, dtype=float)
    frame = fd_derivatives(pf, t, x)
    return CanonicalPoint(
        s=float(frame.s),
        t=float(t),
        sigma=float(sigma),
        tau=float(-sigma * frame.dt_phi),
        x=x,
        xi=sigma * frame.g,
    )


def data_projection_differential(pf, t, x, sigma):
    """The 4x4 differential of the data-side projection in (t, x^1, x^2,
    sigma) coordinates, rows (d phi, d t, d sigma, d(-sigma dt phi)).

    Times (n,), points (n, 2) and sigma, a scalar or (n,), give an (n, 4, 4)
    stack from one frame; one t and x of shape (2,) give one matrix."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    frame = fd_derivatives(pf, t, x)
    h_fd = pf.fd_step
    dtt = (pf.dt(t + h_fd, x) - pf.dt(t - h_fd, x)) / (2 * h_fd)
    M = np.zeros(np.shape(dtt) + (4, 4))
    M[..., 0, 0] = frame.dt_phi
    M[..., 0, 1:3] = frame.g
    M[..., 1, 0] = 1.0
    M[..., 2, 3] = 1.0
    M[..., 3, 0] = -sigma * dtt
    M[..., 3, 1:3] = -sigma[..., None] * frame.m
    M[..., 3, 3] = frame.dt_phi
    return M


def data_projection_rank(pf, t, x, sigma):
    """Numerical rank (SVD) and determinant of the dPi_Y matrix.  The rank
    counts the singular values above 1e-10 times the largest.

    By cofactor expansion the determinant equals -sigma * h(t, x); full rank
    is therefore equivalent to the local Bolker condition.  A batch (see
    ``data_projection_differential``) returns (n,) arrays, one (t, x) an
    ``(int, float)`` pair.
    """
    if np.any(np.asarray(sigma) == 0.0):
        raise ValueError("sigma must be nonzero")
    M = data_projection_differential(pf, t, x, sigma)
    sv = np.linalg.svd(M, compute_uv=False)
    rank = np.sum(sv > 1e-10 * sv[..., :1], axis=-1)
    det = np.linalg.det(M)
    if M.ndim == 2:
        return int(rank), float(det)
    return rank, det


# ---------------------------------------------------------------------------
# principal symbol of the normal operator
# ---------------------------------------------------------------------------


def principal_symbol(pf, mu, atlas, x, xi):
    """Principal symbol of chi_X A* chi_Y A at the covector (x, xi).

    ``xi`` is one covector (2,), which returns one SymbolValue, or a batch
    (n, 2) at the same x (2,), which returns one per row.  Witness times
    come from one direction solve over the phase's whole ``t_range``, and
    the witness times of all covectors are evaluated on one frame.  Each
    witness time t contributes its own term, weighted by the chart cutoffs
    (summed over the atlas, so for the trivial atlas this is exactly the
    single-chart formula):

        p = (2 pi)^{-1} sum_t chi(t) |mu(t,x)|^2 J(t,x)^2 / |h~(t)|
          = (2 pi)^{-1} sum_t chi(t) |mu|^2 J^3 / (|xi| |h(t, x)|),

    with J = |grad phi|, h~ = (|xi| / J) h and chi = sum_i chi_iX(x)
    chi_iY(phi(t,x), t).  The reported W_plus and W_minus sum chi |mu|^2 J^2
    over the roots with nu . xi > 0 and the antipodal ones; t_used is the
    first positive-orientation root (else the first root) and h_tilde is h~
    there.

    Invisible covectors (no roots) return p = 0 with ``visible=False``.
    Raises DegenerateSymbolError for the first covector with |h~| < 1e-12
    |xi| at any of its witness times (local Bolker failure there).
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    xis = np.atleast_2d(xi)
    xi_norm = np.hypot(xis[:, 0], xis[:, 1])
    roots = solve_time_for_direction(pf, x, xis)
    # every covector's witness times, in covector order; covector k owns
    # the entries from bounds[k] to bounds[k + 1]
    bounds = np.cumsum([0] + [len(r) for r in roots])
    t_root = np.array([t for r in roots for t, _ in r])
    plus = np.array([o > 0 for r in roots for _, o in r], dtype=bool)
    owner = np.repeat(np.arange(len(xis)), np.diff(bounds))
    xs = np.broadcast_to(x, (len(t_root), 2))
    frame = fd_derivatives(pf, t_root, xs)
    w = atlas.chi_pair(xs, frame.s, t_root) * (mu(t_root, xs) ** 2 * frame.J ** 2)
    h_tilde = xi_norm[owner] / frame.J * frame.h
    bad = np.abs(h_tilde) < 1e-12 * xi_norm[owner]
    if bad.any():
        k = owner[np.argmax(bad)]
        worst = bounds[k] + int(np.argmin(np.abs(h_tilde[bounds[k]:bounds[k + 1]])))
        raise DegenerateSymbolError(
            f"local Bolker failure at x={x.tolist()}, xi={xis[k].tolist()}, "
            f"t={t_root[worst]:.9g}: h~ = {h_tilde[worst]:.3e}"
        )
    out = []
    for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        if a == b:
            out.append(SymbolValue(x=x, xi=xis[k], t_used=None, W_plus=0.0, W_minus=0.0,
                                   h_tilde=0.0, p=0.0, visible=False))
            continue
        wk, pk = w[a:b], plus[a:b]
        used = a + int(np.argmax(pk))    # the first positive root, else the first root
        out.append(SymbolValue(
            x=x, xi=xis[k], t_used=float(t_root[used]), W_plus=float(np.sum(wk[pk])),
            W_minus=float(np.sum(wk[~pk])), h_tilde=float(h_tilde[used]),
            p=float(np.sum(wk / np.abs(h_tilde[a:b]))) / TWO_PI, visible=True))
    return out if xi.ndim == 2 else out[0]
