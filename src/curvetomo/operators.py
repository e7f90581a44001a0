"""Discrete forward transform over level curves, adjoint backprojection, and
the microlocally cutoff normal operator.

Discretization contract
-----------------------
* image inner product: sum * spacing^2; sinogram inner product: sum * ds * dt
  (flat weights on both sides so the time quadrature cancels exactly in the
  duality test; on a full angular range this is the periodic trapezoid rule).
* forward: per (s, t) sample, trace the level curve(s) meeting the support
  disk and integrate mu * f by the trapezoid rule over arc length, at
  one-pixel steps.  The trapezoid rule's error is the aliasing of the
  integrand's spectrum at the sampling rate, and f's spline on the pixel
  grid carries no detail finer than a pixel: the disk oracles read the same
  to 4 digits at one pixel as at half a pixel, and move from 1.5 pixels on
  (``_PLAN_STEP_PX``).
* adjoint: per pixel, quadrature over the t grid of mu * J * g(phi(t,x), t)
  with J = |grad phi| and interpolation of g along s.
* interpolation is by interpolating cubic B-splines, for both the image and
  the s axis.

The forward for a fixed geometry is built once as a *plan* (traced sample
points with trapezoid weights) and assembled with it into a sparse matrix M
over spline coefficients; the adjoint quadrature is assembled into a second
sparse matrix K on first use.  Applying either operator is then a spline
prefilter (a small dense matrix per axis) and one sparse product, which is
what makes iterative solves affordable.  M is assembled in blocks of at most
``chunk_t`` acquisition times and K in blocks of pixels within a fixed
scratch budget per thread.

Assembly and products run on one thread per CPU the process may run on
(``os.sched_getaffinity``, so ``taskset`` limits it): the calling thread
and a pool of the others, created on first use and never at import, take
blocks in order (``_run_blocks``).  With one CPU no pool is created.

* Assembly: each block of M is the sparse product of its x-tap and y-tap
  factors, whose rows each sum their terms in an order set by that row's
  points alone, and K's blocks are independent per pixel; the finished
  blocks are appended in block order, with at most
  ``_BLOCKS_AHEAD_PER_WORKER`` per thread waiting.  M and K are therefore
  bit-identical for any number of CPUs.
* Products: each matrix is applied in bands of consecutive rows of about
  equal nnz; a matrix of fewer than two bands of ``_BAND_MIN_NNZ``
  nonzeros is one band on the calling thread.  Every band is one call of
  SciPy's own CSR kernel on the matrix's arrays, writing its slice of the
  output, so each row is summed in the same order as by ``matrix @ v`` and
  the outputs are bit-identical for any number of CPUs.
* Stacks: images and sinograms may carry leading stack axes, and the
  forward and adjoint of a stack read their matrix once for all its
  slices (``csr_matvecs``, which sums each column in ``csr_matvec``'s
  order), with the bits of one call per slice.  The normal operator uses
  this to apply every chart of its atlas in one forward and one adjoint.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import _sparsetools

from .errors import CoverageError, NumericBudgetError
# The benchmark's tracer wraps ``project_to_level`` and ``_trace_batch`` where
# the plan looks them up: as names of this module.
from .geometry import (
    TWO_PI,
    curve_tolerance,
    omega,
    project_to_level,
    smoothstep_c2,
    _trace_batch,
    _transpose_apply,
)
from .microlocal import solve_time_for_direction


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass
class ImageGrid:
    """Square pixel grid; values indexed [ix, iy] with x = origin[0] + ix*h.

    ``values`` may carry leading stack axes, ``(..., nx, ny)``: a stack of
    images on one grid, which ``LevelSetTransform.forward`` maps in one pass.
    """

    nx: int
    ny: int
    spacing: float
    origin: np.ndarray
    values: np.ndarray
    support_radius: float

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-2:] != (self.nx, self.ny):
            raise ValueError("values shape does not match (..., nx, ny)")

    def coords(self):
        xs = self.origin[0] + self.spacing * np.arange(self.nx)
        ys = self.origin[1] + self.spacing * np.arange(self.ny)
        return xs, ys

    def pixel_centers(self):
        xs, ys = self.coords()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def like(self, values):
        return ImageGrid(self.nx, self.ny, self.spacing, self.origin.copy(),
                         np.asarray(values, dtype=float), self.support_radius)

    def norm(self):
        return math.sqrt(np.sum(self.values**2)) * self.spacing

    def inner(self, other):
        return float(np.sum(self.values * other.values)) * self.spacing**2


def make_image_grid(nx, support_radius=1.0, values=None):
    """Centered square grid whose extent is 1.05 times the support disk: a
    5% margin keeps the disk's edge off the grid's boundary pixels."""
    half = 1.05 * support_radius
    spacing = 2.0 * half / nx
    origin = np.array([-half + 0.5 * spacing, -half + 0.5 * spacing])
    if values is None:
        values = np.zeros((nx, nx))
    return ImageGrid(nx, nx, spacing, origin, values, support_radius)


@dataclass
class Sinogram:
    """Data g(s, t) on a uniform (s, t) product grid; values shape (ns, nt),
    or ``(..., ns, nt)`` for a stack of sinograms on one grid."""

    s_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-2:] != (len(self.s_grid), len(self.t_grid)):
            raise ValueError("sinogram values shape mismatch")

    @property
    def ns(self):
        return len(self.s_grid)

    @property
    def nt(self):
        return len(self.t_grid)

    @property
    def ds(self):
        return float(self.s_grid[1] - self.s_grid[0])

    @property
    def dt(self):
        return float(self.t_grid[1] - self.t_grid[0])

    def like(self, values):
        return Sinogram(self.s_grid.copy(), self.t_grid.copy(), np.asarray(values, dtype=float))

    def norm(self):
        return math.sqrt(np.sum(self.values**2) * self.ds * self.dt)

    def inner(self, other):
        return float(np.sum(self.values * other.values)) * self.ds * self.dt


@dataclass
class SinoSpec:
    """Sampling request for a sinogram; s_range=None lets the operator size
    the s axis from the actual range of phi over the support (padded 5%)."""

    ns: int
    nt: int
    t_range: tuple | None = None
    s_range: tuple | None = None


def default_ns(nx):
    """The number of s samples for an nx-pixel image when none is given:
    floor(1.05 nx) + 1."""
    return int(nx * 1.05) + 1


def _phase_range(pf, t, pts):
    """Min and max of phi over every (point, time) pair on the phase's
    branch, from one evaluation of (points, 1, 2) against the times, which
    computes the phase's time factor once per time."""
    t = np.asarray(t, dtype=float)
    pts = np.asarray(pts, dtype=float)[:, None, :]
    on = pf.branch_mask(t, pts)
    if not on.any():
        raise ValueError("phase has no branch-valid samples over the support")
    vals = pf._eval_raw(t, pts)[on]
    return float(np.min(vals)), float(np.max(vals))


def _auto_s_range(pf, t_grid, support_radius):
    """Range of phi over the support disk across acquisition times, padded."""
    rr = np.linspace(0.0, support_radius, 12)
    aa = np.linspace(0.0, TWO_PI, 48, endpoint=False)
    pts = np.concatenate(
        [np.stack([r * np.cos(aa), r * np.sin(aa)], axis=-1) for r in rr], axis=0
    )
    lo, hi = _phase_range(pf, t_grid[:: max(1, len(t_grid) // 64)], pts)
    mid = 0.5 * (lo + hi)
    half = 0.525 * (hi - lo)  # 1.05x the sampled range
    return (mid - half, mid + half)


def build_sinogram_grids(pf, spec, support_radius):
    t_lo, t_hi = spec.t_range if spec.t_range is not None else pf.t_range
    t_grid = t_lo + (t_hi - t_lo) * np.arange(spec.nt) / spec.nt
    if spec.s_range is not None:
        s_lo, s_hi = spec.s_range
    else:
        s_lo, s_hi = _auto_s_range(pf, t_grid, support_radius)
    s_grid = np.linspace(s_lo, s_hi, spec.ns)
    return s_grid, t_grid


# ---------------------------------------------------------------------------
# cutoff atlas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """One localization chart; radius None means no cutoff on that variable."""

    x_center: tuple = (0.0, 0.0)
    x_radius: float | None = None
    s_center: float = 0.0
    s_radius: float | None = None
    t_center: float = 0.0
    t_radius: float | None = None


def _taper(dist, radius):
    """C^2 profile: 1 inside half the radius, smooth descent to 0 at radius."""
    if radius is None:
        return np.ones_like(np.asarray(dist, dtype=float))
    u = (np.asarray(dist, dtype=float) / radius - 0.5) / 0.5
    return 1.0 - smoothstep_c2(u)


@dataclass
class CutoffAtlas:
    """Smooth localizations chi_X(x), chi_Y(s, t) realizing the microlocal
    restriction of the normal operator; chart cutoffs are products of C^2
    radial tapers (quintic smoothstep profile)."""

    charts: list
    t_period: float | None = None   # wrap t distances for full-range data

    @classmethod
    def trivial(cls):
        """Single chart with chi identically one."""
        return cls(charts=[Chart()])

    def _t_dist(self, t, center):
        d = np.abs(np.asarray(t, dtype=float) - center)
        if self.t_period is not None:
            d = np.minimum(d, self.t_period - d)
        return d

    def chart_chi_x(self, chart, x):
        x = np.asarray(x, dtype=float)
        d = np.hypot(x[..., 0] - chart.x_center[0], x[..., 1] - chart.x_center[1])
        return _taper(d, chart.x_radius)

    def chart_chi_y(self, chart, s, t):
        out = _taper(np.abs(np.asarray(s, dtype=float) - chart.s_center), chart.s_radius)
        out = out * _taper(self._t_dist(t, chart.t_center), chart.t_radius)
        return out

    def chi_x(self, x):
        """Sum over charts of chi_iX (the image-side partition weight)."""
        return sum(self.chart_chi_x(c, x) for c in self.charts)

    def chi_pair(self, x, s, t):
        """sum_i chi_iX(x) chi_iY(s, t): the weight entering the symbol."""
        return sum(self.chart_chi_x(c, x) * self.chart_chi_y(c, s, t) for c in self.charts)


# Coverage check of ``build_default_atlas``: the smallest partition-of-unity
# sum allowed at a probe point, and the directions checked per probe point.
_COVERAGE_MIN = 0.5
_ATLAS_N_DIRS = 24


def build_default_atlas(pf, support_radius, n_charts):
    """Uniform chart grid over the target disk with 50% overlap.

    ``n_charts`` is the per-axis count; 1 returns the trivial cover.  Each
    chart's s window is sized from the actual range of phi over its x ball
    (padded), and the t window spans the full acquisition range.  The cover
    is then verified by dense sampling: sum_i chi_iX must stay at or above
    0.5 (``_COVERAGE_MIN``) on the disk, and each of 24 uniform directions
    (``_ATLAS_N_DIRS``) at every probe point must have a witness time whose
    (s, t) the atlas sees; otherwise CoverageError reports the uncovered
    items.

    The direction check solves all 28 probe points x 24 directions
    with one batched ``solve_time_for_direction`` call and weighs all their
    witness times with one ``chi_pair`` evaluation, keeping each pair's best.
    """
    if n_charts < 1:
        raise ValueError("n_charts must be >= 1")
    lo, hi = pf.t_range
    if n_charts == 1:
        atlas = CutoffAtlas.trivial()
    else:
        centers = np.linspace(-support_radius, support_radius, n_charts + 2)[1:-1]
        radius = 1.45 * (centers[1] - centers[0])
        charts = []
        boundary = np.linspace(0.0, TWO_PI, 24, endpoint=False)
        t_probe = np.linspace(lo, hi, 32, endpoint=False)
        for cx in centers:
            for cy in centers:
                ring = np.stack(
                    [cx + radius * np.cos(boundary), cy + radius * np.sin(boundary)], axis=-1
                )
                s_lo, s_hi = _phase_range(pf, t_probe, ring)
                s_center = 0.5 * (s_hi + s_lo)
                s_radius = 0.75 * (s_hi - s_lo) + 1e-9
                charts.append(
                    Chart(
                        x_center=(float(cx), float(cy)),
                        x_radius=float(radius),
                        s_center=s_center,
                        s_radius=s_radius,
                        t_center=0.5 * (lo + hi),
                        t_radius=None,
                    )
                )
        period = TWO_PI if abs((hi - lo) - TWO_PI) < 1e-9 else None
        atlas = CutoffAtlas(charts=charts, t_period=period)

    # coverage verification on the target compact
    rr = np.linspace(0.0, support_radius * 0.98, 7)
    aa = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    probes = np.concatenate(
        [np.stack([r * np.cos(aa), r * np.sin(aa)], axis=-1) for r in rr]
    )
    sums = atlas.chi_x(probes)
    if np.min(sums) < _COVERAGE_MIN:
        bad = probes[sums < _COVERAGE_MIN]
        raise CoverageError(
            f"partition of unity below {_COVERAGE_MIN} at {len(bad)} probe points",
            uncovered=[("chi_sum", p.tolist()) for p in bad],
        )
    dirs = np.stack(
        [np.cos(np.linspace(0, TWO_PI, _ATLAS_N_DIRS, endpoint=False)),
         np.sin(np.linspace(0, TWO_PI, _ATLAS_N_DIRS, endpoint=False))], axis=-1
    )
    # every (probe, direction) pair, probe-major, in one solve
    pts = np.repeat(probes[:: max(1, len(probes) // 24)], _ATLAS_N_DIRS, axis=0)
    dirs = np.tile(dirs, (len(pts) // _ATLAS_N_DIRS, 1))
    roots = solve_time_for_direction(pf, pts, dirs)
    pair = np.repeat(np.arange(len(pts)), [len(r) for r in roots])
    t_root = np.array([t for r in roots for t, _ in r])
    s_val = pf._eval_raw(t_root, pts[pair])
    # best witness per pair; fmax, like max(), passes over a NaN weight
    seen = np.zeros(len(pts))
    np.fmax.at(seen, pair, atlas.chi_pair(pts[pair], s_val, t_root))
    uncovered = [(pts[k].tolist(), dirs[k].tolist()) for k in np.flatnonzero(seen < 0.25)]
    if uncovered:
        raise CoverageError(
            f"{len(uncovered)} (point, direction) pairs invisible to the atlas",
            uncovered=uncovered,
        )
    return atlas


# ---------------------------------------------------------------------------
# the level-set transform
# ---------------------------------------------------------------------------


@dataclass
class _ForwardPlan:
    points: np.ndarray        # (P, 2) sample positions
    coeff: np.ndarray         # (P,) trapezoid weight times mu
    curve_id: np.ndarray      # (P,) flat (s, t) index
    failed: np.ndarray        # (ncurves,) bool: trace/projection failures
    n_failed: int             # failed curves, counted once per plan
    n_curves: int
    matrix: sparse.csr_matrix  # (ncurves, nx * ny) forward over spline coefficients
    bands: _RowBands          # how ``matrix`` is applied


def _spline_taps(c, n):
    """Tap indices and weights, each of shape (m, 4), a row per coordinate,
    with which ``map_coordinates(order=3, prefilter=False)`` reads the
    coordinates ``c`` (all inside [0, n - 1]) of an axis of length n.  Taps
    beyond the grid are folded back by reflection about the edge samples.
    Both arrays are C-contiguous; ``.T`` reads them tap by tap."""
    fl = np.floor(c)
    u = c - fl
    start = fl.astype(np.int64) - 1
    v = 1.0 - u
    # cubic B-spline: u^3/6, 2/3 - u^2 + u^3/2 and their mirror images
    u2 = u * u
    v2 = v * v
    # each tap's column from contiguous temporaries: NumPy's loops over an
    # inner axis of 4 cost several times more
    w0 = v2 * (v / 6.0)
    w3 = u2 * (u / 6.0)
    w = np.empty((len(c), 4))
    w[:, 0] = w0
    w[:, 1] = 2.0 / 3.0 - u2 + 3.0 * w3
    w[:, 2] = 2.0 / 3.0 - v2 + 3.0 * w0
    w[:, 3] = w3
    idx = np.empty((len(c), 4), dtype=np.int64)
    for k in range(4):
        np.add(start, k, out=idx[:, k])
    edge = np.flatnonzero((start < 0) | (start > n - 4))
    if len(edge):
        period = max(2 * n - 2, 1)
        folded = np.abs(idx[edge]) % period
        idx[edge] = np.where(folded >= n, period - folded, folded)
    return idx, w


def _prefilter_matrix(n):
    """The cubic spline prefilter along an axis of length n as a dense
    matrix."""
    return ndimage.spline_filter1d(np.eye(n), order=3, axis=0, mode="constant")


# Scratch memory of one pixel block of K's assembly, per thread.  Measured
# when it also cut M's blocks, 4 MB kept the peak RSS of three 64^2 set-ups
# (ns = 68, nt = 180) in one process at 201-203 MB, against 221-223 with 16.
_BLOCK_BYTES = 4 * 2**20


class _Buffer:
    """An array filled from the front, chunk by chunk.

    Storage starts at ``capacity`` rows (of ``width`` columns, if given) and
    grows by doubling in place (``ndarray.resize``, a realloc), so the
    filled array is never held twice and pages are only touched as they are
    written.  ``finish`` trims the storage to the filled rows and returns it.
    """

    def __init__(self, capacity, dtype=float, width=None):
        shape = (max(int(capacity), 1),) + (() if width is None else (width,))
        self.array = np.empty(shape, dtype=dtype)
        self.size = 0

    def extend(self, values):
        end = self.size + len(values)
        if end > len(self.array):
            self.array.resize((max(end, 2 * len(self.array)),) + self.array.shape[1:],
                              refcheck=False)
        self.array[self.size:end] = values
        self.size = end

    def finish(self):
        self.array.resize((self.size,) + self.array.shape[1:], refcheck=False)
        return self.array


class _RowBlocks:
    """A CSR matrix assembled from consecutive blocks of rows.

    The entries and the per-row counts are written into growing buffers
    (``_Buffer``) that start at ``capacity`` entries and ``rows`` rows, so
    the finished matrix is never held twice and no per-block array stays
    alive until the end.
    """

    def __init__(self, ncols, capacity, rows=1):
        self.ncols = ncols
        self.data = _Buffer(capacity)
        self.indices = _Buffer(capacity, dtype=np.int32)
        self.row_counts = _Buffer(rows, dtype=np.int64)

    def append(self, row_counts, indices, data):
        self.data.extend(data)
        self.indices.extend(indices)
        self.row_counts.extend(row_counts)

    def tocsr(self):
        data, indices, counts = (b.finish() for b in (self.data, self.indices, self.row_counts))
        indptr = np.zeros(len(counts) + 1, dtype=np.int32 if len(data) < 2**31 else np.int64)
        np.cumsum(counts, out=indptr[1:])
        return sparse.csr_matrix((data, indices, indptr), shape=(len(counts), self.ncols))


# Fewest nonzeros worth a band of their own.  A 32^2 matrix (about 0.2 M
# nonzeros, 0.25 ms a product) gains 5% from a second band and stays at one;
# a 64^2 one (3.3 M) runs in 2.8 ms on two threads instead of 5.0 ms on one.
_BAND_MIN_NNZ = 2**17
# Bands per thread.  Threads take bands until none are left, so a thread
# whose CPU is busy with other work leaves its share to the others: with a
# CPU half taken, 8 bands on 2 threads ran a 64^2 product in 4.5 ms where 2
# bands took 5.0 ms, the time of one thread.
_BANDS_PER_WORKER = 4


def _worker_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # a platform without CPU affinity
        return os.cpu_count() or 1


# The threads that take blocks and bands beside the calling one.  Created by
# the first assembly or product on more than one thread, never at import.
_pool = None
_pool_lock = threading.Lock()


def _band_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(_worker_count() - 1, 1),
                                       thread_name_prefix="curvetomo-band")
        return _pool


def _forget_pool():
    # a forked child has none of the parent's pool threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


# Finished blocks that may wait to be consumed, per thread of a run.
_BLOCKS_AHEAD_PER_WORKER = 2


def _run_blocks(n, work, workers, consume=None):
    """Run ``work(b)`` for b = 0 .. n - 1 on the calling thread and
    ``workers - 1`` threads of the band pool.

    Threads take blocks in order, each the lowest one no thread has taken,
    until none are left.  The calling thread waits only for blocks other
    threads have taken, never for a thread to start: on a busy host an idle
    CPU can take milliseconds to wake, and a thread that starts after the
    last block is taken returns at once.

    With ``consume``, the calling thread passes each block's result to
    ``consume`` in block order, and no thread takes a block more than
    ``_BLOCKS_AHEAD_PER_WORKER * workers`` past the first one not yet
    consumed, so at most that many finished results wait.  The calling
    thread consumes the next result, once it is ready, before it takes
    another block.

    The first exception raised by a block or by ``consume`` is raised on
    the calling thread once no thread runs a block of this call; no thread
    takes a block after it.
    """
    if workers < 2 or n < 2:
        for b in range(n):
            result = work(b)
            if consume is not None:
                consume(result)
        return
    ahead = _BLOCKS_AHEAD_PER_WORKER * workers if consume is not None else n
    cond = threading.Condition()
    ready = {}          # finished results not yet consumed, by block
    errors = []
    taken = consumed = running = 0

    def take():
        # under ``cond``: the block to run, -1 to wait for room, None if done
        nonlocal taken, running
        if errors or taken == n:
            return None
        if taken == consumed + ahead:
            return -1
        running += 1
        taken += 1
        return taken - 1

    def run(b):
        nonlocal running
        try:
            result, error = work(b), None
        except BaseException as exc:
            result, error = None, exc
        with cond:
            running -= 1
            if error is not None:
                errors.append(error)
            elif consume is not None and not errors:
                ready[b] = result
            cond.notify_all()

    def drain():
        while True:
            with cond:
                b = take()
                while b == -1:
                    cond.wait()
                    b = take()
            if b is None:
                return
            run(b)

    pool = _band_pool()
    for _ in range(workers - 1):
        pool.submit(drain)
    try:
        while True:
            with cond:
                while True:
                    if errors:
                        raise errors[0]
                    if consumed in ready:
                        b, result = None, ready.pop(consumed)
                        break
                    b = take()
                    if b is not None and b >= 0:
                        break
                    if (consumed == n) if consume is not None else (running == 0):
                        return
                    cond.wait()
            if b is not None:
                run(b)
                continue
            consume(result)
            with cond:
                consumed += 1
                cond.notify_all()
    except BaseException as exc:
        with cond:
            if not errors:
                errors.append(exc)
            cond.notify_all()
            cond.wait_for(lambda: running == 0)
        raise


class _RowBands:
    """A CSR matrix applied in bands of consecutive rows on several threads.

    The rows are cut, once, into bands of about equal nnz, each with at
    least ``_BAND_MIN_NNZ`` of them: ``_BANDS_PER_WORKER`` per CPU the
    process may run on (``_worker_count()``), or one on a single CPU.  A
    product runs on ``workers`` threads, the calling one among them, which
    take bands in row order until none are left (``_run_blocks``).  A band
    is the matrix's own ``indices`` and ``data`` read through a view of its
    ``indptr``, so no entry is copied (a ``csr_matrix`` row slice would copy
    them).  Each band is summed by SciPy's ``csr_matvec``, the kernel of
    ``matrix @ v``, into its slice of one zeroed output, so the product has
    the bits of ``matrix @ v`` whatever the band count or the thread a band
    ran on.  A block of k > 1 columns is summed by ``csr_matvecs``, which
    reads each entry once for all k and sums every column in
    ``csr_matvec``'s order, so each column of the product has the bits of
    ``matrix @ v[:, j]``.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        cpus = _worker_count()
        n = 1 if cpus == 1 else max(1, min(_BANDS_PER_WORKER * cpus,
                                           matrix.nnz // _BAND_MIN_NNZ))
        cuts = {bisect.bisect_left(matrix.indptr, matrix.nnz * k // n) for k in range(1, n)}
        bounds = sorted(cuts | {0, matrix.shape[0]})
        # (first row, end row, the rows' view of indptr) per band
        self.bands = [(r0, r1, matrix.indptr[r0:r1 + 1]) for r0, r1 in zip(bounds, bounds[1:])]
        self.workers = min(cpus, len(self.bands))

    def _apply(self, band, k, v, out):
        # adds each row's sums to its k entries of the flat, row-major
        # ``out``, which starts at zero
        r0, r1, indptr = band
        m = self.matrix
        if k == 1:
            _sparsetools.csr_matvec(r1 - r0, m.shape[1], indptr, m.indices, m.data, v,
                                    out[r0:r1])
        else:
            _sparsetools.csr_matvecs(r1 - r0, m.shape[1], k, indptr, m.indices, m.data, v,
                                     out[r0 * k:r1 * k])

    def matvec(self, v):
        """``matrix @ v`` for a vector of shape (n,) or a block of k columns
        of shape (n, k); a block reads the matrix once for all its columns.
        One column is summed by ``csr_matvec``, which is about 2.5 times
        faster on it than ``csr_matvecs``."""
        v = np.ascontiguousarray(v, dtype=self.matrix.dtype)
        if v.ndim not in (1, 2) or v.shape[0] != self.matrix.shape[1]:
            # the kernels read v unchecked
            raise ValueError(f"vector of shape {v.shape} for a matrix of shape "
                             f"{self.matrix.shape}")
        out = np.zeros((self.matrix.shape[0],) + v.shape[1:], dtype=self.matrix.dtype)
        k = v.shape[1] if v.ndim == 2 else 1
        flat_v, flat_out = v.reshape(-1), out.reshape(-1)
        _run_blocks(len(self.bands), lambda b: self._apply(self.bands[b], k, flat_v, flat_out),
                    self.workers)
        return out


def _matrix_stats(name, matrix, seconds):
    """The ``LevelSetTransform.stats`` entries of an assembled matrix."""
    return {f"{name}_assembly_s": seconds, f"{name}_nnz": int(matrix.nnz),
            f"{name}_bytes": int(matrix.data.nbytes + matrix.indices.nbytes
                                 + matrix.indptr.nbytes)}


# Trapezoid step along the plan's traced curves, in pixels.  The rule's
# error is the aliasing of the integrand's spectrum at the sampling rate,
# and a cubic spline on the pixel grid has no detail finer than a pixel, so
# one pixel is the largest step that moves no oracle reading.  Disk oracle
# (relative L2, nt = 60; 64^2 with ns = 68 / 128^2 with ns = 135):
#
#   step     static          rotation 0.3    breathing 0.05  fan R = 3
#   1/2 px   0.0088/0.0044   0.0089/0.0043   0.0091/0.0057   0.0086/0.0041
#   1 px     0.0088/0.0044   0.0089/0.0043   0.0091/0.0057   0.0086/0.0041
#   1.5 px   0.0090/0.0046   0.0092/0.0044   0.0095/0.0058   0.0091/0.0044
#   2 px     0.0156/0.0069   0.0160/0.0068   0.0135/0.0085   0.0152/0.0069
_PLAN_STEP_PX = 1.0
# Trapezoid step along the straight lines of ``integrate_lines``, in pixels.
# These lines are the Lagrangian reference the plan is checked against and
# synthesize fan rays, so they keep half a pixel: there the rule is within
# 4.5e-5 of a quarter-pixel rule (relative L2, smooth field at 32^2, static,
# rotation and breathing), 10 times closer than at one pixel (4.4e-4).
_LINE_STEP_PX = 0.5
# seed points per axis of the plan's curves
_SEED_GRID = 17
# (time, seed, s) cells per block of the plan's nearest-seed search.  At 64^2
# rotation (ns = 68, nt = 180, one Xeon core, NumPy 2.4) 2^16 took 7.8 ms,
# 2^14 22.6 ms, and 2^18 11.4 ms with 2.5 MB more peak RSS.
_SEED_BLOCK_CELLS = 2**16


class LevelSetTransform:
    """Forward/adjoint pair for one (phase, weight, grid) geometry.

    Both directions are assembled once, lazily, as CSR matrices between
    (s, t) samples (flat index ``j * ns + i``) and pixels (flat index
    ``ix * ny + iy``):

    * ``M`` (``plan.matrix``, built with the plan), with a row per (s, t)
      sample and a column per pixel: row (s, t) sums the
      interpolation taps of that curve's traced quadrature points, weighted
      by trapezoid weight times mu, so ``A f = M vec(S_x F S_y^T)`` with the
      spline prefilters ``S_x``, ``S_y``;
    * ``K`` (``_adj_tables``, built on the first adjoint), with a row per
      pixel and a column per (s, t) sample: per time, the s-interpolation
      taps of ``g(phi(t, x), t)`` weighted by dt * mu * J, so
      ``A* g = K vec((S_s G)^T)``.

    The plan samples each curve once per pixel of arc length (``step`` =
    ``spacing``): a cubic spline on the pixel grid has no detail finer than
    that, so the trapezoid rule has converged there, within 5e-4 (relative
    L2) of a quarter-pixel rule and 20 times below the discretization error
    of the disk oracles.

    ``K`` is a separate quadrature, not ``M^T``; the two agree to the
    duality tolerance.  M is assembled in row blocks of at most ``chunk_t``
    times, each the sparse product of its x-tap and y-tap factors, and K in
    blocks of pixels cut to fit ``_BLOCK_BYTES`` (4 MB) of scratch per
    thread.  The blocks are built on one thread per CPU (``_run_blocks``)
    and appended in order, and each cell sums its terms in a fixed order,
    so the matrices and every output have the same bits for any block size
    and any number of CPUs.  Each
    matrix is applied in row bands (``_RowBands``) on the same threads,
    with the bits of ``matrix @ v``, to one image or sinogram or to a stack
    of them in one pass.

    ``stats`` records each build as it happens: ``plan_s`` (tracing the
    plan, M's assembly not included), ``failed_curves``, ``plan_curves``
    (the (s, t) samples), ``plan_points`` (quadrature points kept),
    ``plan_bytes`` (the plan's point, weight, curve-id and failure arrays),
    ``trace_steps`` (the tracer's predictor steps over all walks), and per
    matrix (``m`` for M, ``k`` for K) ``<m|k>_assembly_s``, ``<m|k>_nnz``
    and ``<m|k>_bytes`` (its CSR arrays), plus ``workers`` as of the latest
    build.

    ``interp`` accepts only ``"cubic"``, the one spline of both matrices;
    the keyword stays so that callers and configurations naming it still
    work.
    """

    def __init__(self, pf, mu, image_like, sino_spec, *, interp="cubic", chunk_t=4,
                 nan_budget=1e-3):
        self.pf = pf
        self.mu = mu
        if interp != "cubic":
            raise ValueError(f"interp must be 'cubic', got {interp!r}: the bilinear "
                             "spline was removed")
        self.chunk_t = int(chunk_t)
        if self.chunk_t < 1:
            raise ValueError("chunk_t must be >= 1")
        self.nan_budget = float(nan_budget)
        self.nx = image_like.nx
        self.ny = image_like.ny
        self.spacing = image_like.spacing
        self.origin = np.asarray(image_like.origin, dtype=float)
        self.support_radius = image_like.support_radius
        self.step = _PLAN_STEP_PX * self.spacing
        self.s_grid, self.t_grid = build_sinogram_grids(pf, sino_spec, self.support_radius)
        self._prefilter_x = _prefilter_matrix(self.nx)
        self._prefilter_y = _prefilter_matrix(self.ny)
        self._prefilter_s = _prefilter_matrix(len(self.s_grid))
        self._plan = None
        self._adj_tables = None
        self._adj_bands = None
        self.stats = {}

    # -- plan construction ---------------------------------------------------

    def _seed_points(self):
        r = self.support_radius + 2 * self.spacing
        g = np.linspace(-r, r, _SEED_GRID)
        X, Y = np.meshgrid(g, g, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        return pts[np.hypot(pts[:, 0], pts[:, 1]) <= r + 1e-12]

    def _nearest_seeds(self, seeds):
        """Per (t, s) sample, an (nt, ns) array: the index of the first seed
        whose phase value is nearest s, or -1 where none is on the branch or
        within the capture window, 0.9 |grad phi| times a seed cell's
        diagonal.

        All (seed, time) pairs are evaluated at once, and the argmin runs
        over blocks of about ``_SEED_BLOCK_CELLS`` (time, seed, s) cells.
        An off-branch seed reads +inf and captures nothing, so argmin passes
        over it."""
        pf = self.pf
        ns, nt = len(self.s_grid), len(self.t_grid)
        cell = float(np.max(np.abs(np.diff(np.unique(seeds[:, 0])))))
        on = pf.branch_mask(self.t_grid, seeds[:, None, :])
        vals, grads = pf._eval_grad_raw(self.t_grid, seeds[:, None, :])
        capture = 0.9 * np.hypot(grads[..., 0], grads[..., 1]) * cell * math.sqrt(2.0) + 1e-12
        vals = np.where(on, vals, np.inf).T                  # (time, seed)
        capture = np.where(on, capture, -np.inf).T
        sel = np.full((nt, ns), -1, dtype=np.int64)
        times_per_block = max(1, _SEED_BLOCK_CELLS // (len(seeds) * ns))
        cols = np.arange(ns)
        for j0 in range(0, nt, times_per_block):
            v = vals[j0:j0 + times_per_block]
            rows = np.arange(len(v))[:, None]
            diff = np.abs(v[:, :, None] - self.s_grid)      # (time, seed, s)
            best = np.argmin(diff, axis=1)
            ok = diff[rows, best, cols] <= capture[j0 + rows, best]
            sel[j0:j0 + len(v)] = np.where(ok, best, -1)
        return sel

    def _build_plan(self):
        """Trace one curve per (s, t) sample and assemble M from its points.

        Each sample's curve starts at the seed nearest its level
        (``_nearest_seeds``), projected onto the level set; all curves are
        traced together.  The tracer streams each step's points inside the
        trim disk (radius R + 4h) into point, curve-id and weight buffers
        (``_Buffer``) sized for every curve crossing that disk, which grow
        in place if needed, so the trace leaves no per-step arrays behind.
        Points of failed curves are dropped and the weights multiplied by
        mu.
        """
        start = time.perf_counter()
        pf = self.pf
        ns, nt = len(self.s_grid), len(self.t_grid)
        n_curves = ns * nt
        seeds = self._seed_points()
        tol = curve_tolerance(pf)
        flat_sel = self._nearest_seeds(seeds).reshape(-1)   # index: j * ns + i
        active = flat_sel >= 0
        act_idx = np.nonzero(active)[0]
        t_act = np.repeat(self.t_grid, ns)[act_idx]
        s_act = np.tile(self.s_grid, nt)[act_idx]
        p_act = seeds[flat_sel[act_idx]]

        proj, ok = project_to_level(pf, t_act, s_act, p_act, tol)
        failed = np.zeros(n_curves, dtype=bool)
        failed_flat_ids = act_idx[~ok]
        failed[failed_flat_ids] = True
        keep = ok
        t_tr = t_act[keep]
        s_tr = s_act[keep]
        p_tr = proj[keep]
        kept_flat = act_idx[keep]

        # per step: the emitted points inside the trim disk, with their flat
        # curve ids and trapezoid weights.  A curve crosses the disk along
        # about a diameter at most, and both walks emit its start point
        trim_r = self.support_radius + 4 * self.spacing
        trim2 = trim_r * trim_r
        capacity = len(kept_flat) * int(2.0 * trim_r / self.step + 2)
        points = _Buffer(capacity, width=2)
        ids = _Buffer(capacity, dtype=np.int64)
        coeff = _Buffer(capacity)

        def emit(p, local_idx, weights):
            sel = np.flatnonzero(p[:, 0] * p[:, 0] + p[:, 1] * p[:, 1] <= trim2)
            points.extend(np.take(p, sel, axis=0))
            ids.extend(kept_flat[local_idx[sel]])
            coeff.extend(weights[sel])

        stop_rect = pf.domain.shrunk(2.0 * self.step)
        _, _, stalled, steps = _trace_batch(
            pf, t_tr, s_tr, p_tr, self.step,
            stop_rect=stop_rect,
            support_stop=trim_r + 2 * self.step,
            emit=emit,
        )
        failed[kept_flat[stalled]] = True
        points, ids, coeff = points.finish(), ids.finish(), coeff.finish()
        drop = failed[ids]
        if drop.any():
            keep = ~drop
            points, ids, coeff = np.compress(keep, points, axis=0), ids[keep], coeff[keep]
        coeff *= np.asarray(self.mu(self.t_grid[ids // ns], points), dtype=float)
        traced = time.perf_counter()
        matrix = self._assemble_forward(points, coeff, ids)
        self._plan = _ForwardPlan(points=points, coeff=coeff, curve_id=ids,
                                  failed=failed, n_failed=int(failed.sum()),
                                  n_curves=n_curves, matrix=matrix,
                                  bands=_RowBands(matrix))
        self.stats.update(plan_s=traced - start, failed_curves=self._plan.n_failed,
                          plan_curves=n_curves, plan_points=len(coeff),
                          plan_bytes=int(points.nbytes + coeff.nbytes + ids.nbytes
                                         + failed.nbytes),
                          trace_steps=steps,
                          **_matrix_stats("m", matrix, time.perf_counter() - traced),
                          workers=self.workers)

    def _assemble_forward(self, points, coeff, ids):
        """M, assembled in blocks of at most ``chunk_t`` times.

        Points are grouped by block with a stable sort.  A block is the
        sparse product D Ty (Gustavson's row-by-row algorithm, ACM TOMS 4,
        1978, as SciPy's ``csr_matmat``): D has a row per (curve, x pixel)
        and a column per point, holding its x taps times its weight, and Ty
        a row per point, holding its y taps.  Product entry ((curve, ix), iy)
        is M's (curve, ix * ny + iy), exact zeros dropped; it sums its terms
        in (x tap, point, y tap) order, its row's points in plan order,
        whatever the block size or the thread.  The blocks run on the
        threads of ``_run_blocks`` and are appended to M in row order.
        """
        ns = len(self.s_grid)
        n_curves = ns * len(self.t_grid)
        nx, ny = self.nx, self.ny
        npx = nx * ny
        rows_per_block = self.chunk_t * ns
        n_blocks = -(-n_curves // rows_per_block)
        # block ids in the smallest unsigned type: little memory, and NumPy
        # radix-sorts them up to 16 bits
        by_block = np.argsort((ids // rows_per_block).astype(np.min_scalar_type(n_blocks - 1)),
                              kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(ids // rows_per_block,
                                                            minlength=n_blocks))])

        def block(b):
            sel = by_block[bounds[b]:bounds[b + 1]]
            r0 = b * rows_per_block
            nrows = min(rows_per_block, n_curves - r0)
            cx = (points[sel, 0] - self.origin[0]) / self.spacing
            cy = (points[sel, 1] - self.origin[1]) / self.spacing
            # map_coordinates(mode="constant") reads zero outside [0, n - 1]
            inside = (cx >= 0.0) & (cx <= nx - 1) & (cy >= 0.0) & (cy <= ny - 1)
            ix, wx = _spline_taps(cx[inside], nx)
            iy, wy = _spline_taps(cy[inside], ny)
            sel = sel[inside]
            m = len(sel)
            n_d = nrows * nx
            # a point has 16 tap pairs, so a product of at most 16 m entries
            itype = np.int32 if max(16 * m, n_d) < 2**31 else np.int64
            # D's entries tap by tap, each tap's in point order
            d_rows, d_vals = np.empty((4, m), itype), np.empty((4, m))
            np.add((ids[sel] - r0) * nx, ix.T, out=d_rows, casting="unsafe")
            np.multiply(coeff[sel], wx.T, out=d_vals)
            d = np.empty(n_d + 1, itype), np.empty(4 * m, itype), np.empty(4 * m)
            _sparsetools.coo_tocsr(n_d, m, 4 * m, d_rows,
                                   np.tile(np.arange(m, dtype=itype), 4), d_vals, *d)
            c_ptr, c_col, c_val = (np.empty(n_d + 1, itype), np.empty(16 * m, itype),
                                   np.empty(16 * m))
            _sparsetools.csr_matmat(n_d, ny, *d, np.arange(0, 4 * m + 1, 4, dtype=itype),
                                    iy.astype(itype), wy, c_ptr, c_col, c_val)
            nnz = int(c_ptr[-1])
            x_offset = np.tile(np.arange(0, npx, ny, dtype=np.int32), nrows)
            cols = np.repeat(x_offset, np.diff(c_ptr)) + c_col[:nnz]
            # exact-size arrays: a block waiting to be appended holds its entries only
            return np.diff(c_ptr[::nx]), cols, c_val[:nnz].copy()

        # a point's 4 x 4 taps bound M's entries; the reserve costs address
        # space only, as pages are touched when written
        matrix = _RowBlocks(npx, 16 * len(ids), rows=n_curves)
        _run_blocks(n_blocks, block, min(_worker_count(), n_blocks),
                    consume=lambda entries: matrix.append(*entries))
        return matrix.tocsr()

    @property
    def plan(self):
        if self._plan is None:
            self._build_plan()
        return self._plan

    @property
    def workers(self):
        """The most threads a product with an assembled matrix of this
        transform runs on (0 before either matrix is built)."""
        built = [self._adj_bands] + ([self._plan.bands] if self._plan is not None else [])
        return max((b.workers for b in built if b is not None), default=0)

    # -- forward --------------------------------------------------------------

    def forward(self, f):
        """Apply the curve-integral transform to an ImageGrid.

        ``f.values`` may carry leading stack axes, ``(..., nx, ny)``; the
        sinogram's values are then ``(..., ns, nt)``.  The stack is
        prefiltered by one matmul per axis and multiplied by M in one pass
        over it (``_RowBands.matvec`` on a block of columns), and every
        slice has the bits of a forward of that slice alone.  Failed curves
        are NaN in every slice, and the NaN budget is checked once, as for
        one image.
        """
        if (f.nx != self.nx or f.ny != self.ny
                or abs(f.spacing - self.spacing) > 1e-12):
            raise ValueError("image grid does not match the planned geometry")
        plan = self.plan
        values = np.asarray(f.values, dtype=float)
        ns, nt = len(self.s_grid), len(self.t_grid)
        # a stack of k images, each prefiltered like one image alone
        coef = (self._prefilter_x @ values.reshape((-1, self.nx, self.ny))
                @ self._prefilter_y.T)
        k = coef.shape[0]
        acc = plan.bands.matvec(coef.reshape(k, self.nx * self.ny).T)  # row j * ns + i
        out = np.ascontiguousarray(acc.reshape(nt, ns, k).transpose(2, 1, 0))
        if plan.n_failed:
            if plan.n_failed > self.nan_budget * plan.n_curves:
                raise NumericBudgetError(
                    f"{plan.n_failed} failed curve traces exceed the NaN budget")
            out[:, plan.failed.reshape(nt, ns).T] = np.nan
        return Sinogram(self.s_grid.copy(), self.t_grid.copy(),
                        out.reshape(values.shape[:-2] + (ns, nt)))

    # -- adjoint ----------------------------------------------------------------

    def _pixel_points(self):
        xs = self.origin[0] + self.spacing * np.arange(self.nx)
        ys = self.origin[1] + self.spacing * np.arange(self.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def _build_adjoint_tables(self):
        """K (rows pixels, columns (s, t) samples indexed like the rows of
        M), assembled in blocks of pixels whose scratch fits in
        ``_BLOCK_BYTES``.

        Per pixel and time the phase value phi(t, x) is read on the s grid;
        values off the grid, and off-branch samples, contribute zero, which
        realizes the data cutoff.  The phase's time factor is computed once
        per build, and |grad phi| at the gradient's own shape: once per time
        where it depends on t alone (static and rigid phases).  A block's
        entries come out in (pixel, time, tap) order, the order of K's rows.
        """
        start = time.perf_counter()
        pf = self.pf
        pts = self._pixel_points()
        npx = pts.shape[0]
        ns, nt = len(self.s_grid), len(self.t_grid)
        s0 = self.s_grid[0]
        ds = self.s_grid[1] - self.s_grid[0]
        dt = float(self.t_grid[1] - self.t_grid[0]) if nt > 1 else 1.0
        # about 80 bytes of scratch per (pixel, time, s-tap)
        px_per_block = max(1, _BLOCK_BYTES // (80 * 4 * nt))
        n_blocks = -(-npx // px_per_block)
        t = self.t_grid
        factor = pf._time_factor(t)

        def block(b):
            # (pixel, time) arrays
            x = pts[b * px_per_block:(b + 1) * px_per_block, None, :]
            mask = pf.branch_mask(t, x)
            phi, g = pf._eval_grad_at(t, factor, x)
            sc = (np.where(mask, phi, np.nan) - s0) / ds
            wj = (np.asarray(self.mu(t, x), dtype=float)
                  * np.sqrt(g[..., 0] * g[..., 0] + g[..., 1] * g[..., 1]))
            flat = np.flatnonzero(np.isfinite(sc) & (sc >= 0.0) & (sc <= ns - 1.0))
            pix = flat // nt
            idx, w = _spline_taps(sc.ravel()[flat], ns)
            # a pixel's entries by time, then by tap: the taps' (m, 4) rows
            cols, vals = np.empty(idx.shape, np.int64), np.empty(w.shape)
            np.add(((flat - pix * nt) * ns)[:, None], idx, out=cols)
            np.multiply((dt * wj.ravel()[flat])[:, None], w, out=vals)
            return np.bincount(pix, minlength=len(x)) * 4, cols.ravel(), vals.ravel()

        matrix = _RowBlocks(ns * nt, 4 * npx * nt, rows=npx)
        _run_blocks(n_blocks, block, min(_worker_count(), n_blocks),
                    consume=lambda entries: matrix.append(*entries))
        self._adj_tables = matrix.tocsr()
        self._adj_bands = _RowBands(self._adj_tables)
        self.stats.update(**_matrix_stats("k", self._adj_tables, time.perf_counter() - start),
                          workers=self.workers)

    def adjoint(self, g):
        """Apply the adjoint: per-pixel time quadrature of mu * J * g(phi, t).

        Phase values outside the s grid (and off-branch samples) contribute
        zero, realizing the data cutoff.  NaN samples read as zero.

        ``g.values`` may carry leading stack axes, ``(..., ns, nt)``; the
        image's values are then ``(..., nx, ny)``, K is read once for the
        whole stack, and every slice has the bits of an adjoint of that
        slice alone.
        """
        if len(g.s_grid) != len(self.s_grid) or len(g.t_grid) != len(self.t_grid):
            raise ValueError("sinogram does not match the planned geometry")
        if self._adj_tables is None:
            self._build_adjoint_tables()
        values = np.asarray(g.values, dtype=float)
        ns, nt = len(self.s_grid), len(self.t_grid)
        # rows of each slice of ``data`` are its prefiltered s columns, one
        # per time
        data = (np.nan_to_num(values.reshape((-1, ns, nt))).transpose(0, 2, 1)
                @ self._prefilter_s.T)
        k = data.shape[0]
        img = self._adj_bands.matvec(data.reshape(k, nt * ns).T)   # a row per pixel
        img = np.ascontiguousarray(img.T).reshape(values.shape[:-2] + (self.nx, self.ny))
        return ImageGrid(self.nx, self.ny, self.spacing, self.origin.copy(), img,
                         self.support_radius)


def forward_levelset(pf, mu, f, sino_spec, **kwargs):
    """One-shot level-set forward transform (see LevelSetTransform)."""
    op = LevelSetTransform(pf, mu, f, sino_spec, **kwargs)
    return op.forward(f)


def adjoint(pf, mu, g, image_like, **kwargs):
    """One-shot adjoint of the level-set transform for data g."""
    spec = SinoSpec(ns=g.ns, nt=g.nt,
                    t_range=(float(g.t_grid[0]),
                             float(g.t_grid[0]) + g.nt * g.dt),
                    s_range=(float(g.s_grid[0]), float(g.s_grid[-1])))
    op = LevelSetTransform(pf, mu, image_like, spec, **kwargs)
    return op.adjoint(g)


# ---------------------------------------------------------------------------
# Lagrangian (straight-line) forward
# ---------------------------------------------------------------------------


def integrate_lines(f, s_vals, beta_vals, motion=None, mu_material=None):
    """Line integrals of mu(t, z) f(psi_t(z)) over z . omega(beta) = s.

    ``s_vals``/``beta_vals`` are flat arrays of equal length.  The motion and
    material weight are evaluated at t = beta; with neither supplied this is
    the plain straight-line integral of f (used for fan-ray synthesis).  The
    trapezoid rule runs at half-pixel steps along each line, and f is read
    through its cubic spline.
    """
    s_vals = np.asarray(s_vals, dtype=float)
    beta_vals = np.asarray(beta_vals, dtype=float)
    n = len(s_vals)
    h = _LINE_STEP_PX * f.spacing
    r = f.support_radius + 4 * f.spacing
    n_tau = int(math.ceil(2 * r / h)) + 1
    tau = np.linspace(-r, r, n_tau)
    vals = ndimage.spline_filter(np.asarray(f.values, dtype=float), order=3, mode="constant")

    out = np.zeros(n)
    chunk = max(1, int(4e6 // n_tau))
    dtau = tau[1] - tau[0]
    for k0 in range(0, n, chunk):
        k1 = min(k0 + chunk, n)
        b = beta_vals[k0:k1, None]
        s = s_vals[k0:k1, None]
        zx = s * np.cos(b) - tau[None, :] * np.sin(b)
        zy = s * np.sin(b) + tau[None, :] * np.cos(b)
        z = np.stack([zx, zy], axis=-1)
        if motion is not None:
            xpts = motion.forward(b, z)
        else:
            xpts = z
        coords = np.stack(
            [(xpts[..., 0] - f.origin[0]) / f.spacing,
             (xpts[..., 1] - f.origin[1]) / f.spacing], axis=0
        )
        samples = ndimage.map_coordinates(
            vals, coords.reshape(2, -1), order=3, mode="constant",
            cval=0.0, prefilter=False,
        ).reshape(zx.shape)
        if mu_material is not None:
            samples = samples * np.asarray(mu_material(b, z), dtype=float)
        block = samples.sum(axis=1) - 0.5 * (samples[:, 0] + samples[:, -1])
        out[k0:k1] = block * dtau
    return out


def forward_lagrangian(motion, mu_material, f, sino_spec):
    """Dynamic forward in material coordinates: integrate mu(t, z) f(psi_t(z))
    over the straight lines z . omega(t) = s (see ``integrate_lines``)."""
    t_lo, t_hi = sino_spec.t_range if sino_spec.t_range is not None else (0.0, TWO_PI)
    t_grid = t_lo + (t_hi - t_lo) * np.arange(sino_spec.nt) / sino_spec.nt
    if sino_spec.s_range is not None:
        s_lo, s_hi = sino_spec.s_range
    else:
        half = 1.05 * f.support_radius
        s_lo, s_hi = -half, half
    s_grid = np.linspace(s_lo, s_hi, sino_spec.ns)
    S, T = np.meshgrid(s_grid, t_grid, indexing="ij")
    vals = integrate_lines(
        f, S.ravel(), T.ravel(), motion=motion, mu_material=mu_material,
    ).reshape(len(s_grid), len(t_grid))
    return Sinogram(s_grid, t_grid, vals)


def lagrangian_to_levelset_weight(motion, mu_material):
    """The level-set weight matching a material-coordinate forward.

    Pushing Eq-(1.1)-style data through z = psi_t^{-1}(x) and converting the
    delta integral to an arc integral over {phi = s}, phi = psi_t^{-1} . omega,
    yields

        mu_hat(t, x) = |det D psi_t^{-1}(x)| * mu(t, psi_t^{-1}(x)) / |grad phi|

    with grad phi = (D psi_t^{-1}(x))^T omega(t): z, the determinant and the
    gradient all come from one ``inverse_jacobian`` call.  For a motion with
    ``jacobian_per_time`` the determinant and the gradient are per time and
    broadcast against mu, which has the shape of (t, x).
    """

    class _PushforwardWeight:
        name = "pushforward"

        def eval(self, t, x):
            z, jac = motion.inverse_jacobian(t, x)
            det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
            g = _transpose_apply(jac, omega(t))
            J = np.hypot(g[..., 0], g[..., 1])
            return np.abs(det) * np.asarray(mu_material(t, z), dtype=float) / J

        __call__ = eval

    return _PushforwardWeight()


# ---------------------------------------------------------------------------
# normal operator
# ---------------------------------------------------------------------------


class NormalOperator:
    """N = sum_i chi_iX A* (chi_iY A .) and its symmetrized variant
    sum_i sqrt(chi_iX) A* (chi_iY A (sqrt(chi_iX) .)).

    An apply makes one forward and one adjoint whatever the chart count, so
    it reads each assembled matrix once: the plain variant forwards f alone,
    the symmetric variant the stack of the charts' sqrt(chi_iX)-weighted
    images, and both take one adjoint of the stack of chi_iY-weighted
    sinograms.  The charts' images are weighted and summed in chart order,
    so the result has the bits of the chart-by-chart sum.  Principal symbols
    agree.  Reconstructions use the plain variant: the true image solves its
    equations for any atlas, the symmetrized ones only where each chi_iX is
    0 or 1, and the solvers need no symmetry.
    """

    def __init__(self, transform, atlas=None, symmetric=False):
        self.transform = transform
        self.atlas = atlas if atlas is not None else CutoffAtlas.trivial()
        self.symmetric = symmetric
        self._weights = None

    def _chart_weights(self):
        """Computed once: the image-side weights, chi_iX or for the symmetric
        variant sqrt(chi_iX), as (charts, nx, ny), and chi_iY as (charts,
        ns, nt)."""
        if self._weights is None:
            tr = self.transform
            pix = tr._pixel_points()
            x = np.stack([self.atlas.chart_chi_x(c, pix).reshape(tr.nx, tr.ny)
                          for c in self.atlas.charts])
            if self.symmetric:
                np.sqrt(x, out=x)
            S, T = np.meshgrid(tr.s_grid, tr.t_grid, indexing="ij")
            y = np.stack([self.atlas.chart_chi_y(c, S, T) for c in self.atlas.charts])
            self._weights = x, y
        return self._weights

    def _chart_sum(self, g):
        """sum_i w_i A* (chi_iY g_i) in one adjoint, for ``g.values`` holding
        one sinogram per chart, ``(charts, ns, nt)``, or one for all charts,
        ``(ns, nt)``."""
        x, y = self._chart_weights()
        images = self.transform.adjoint(g.like(g.values * y)).values
        out = np.zeros(images.shape[1:])
        for w, img in zip(x, images):
            out += w * img
        return out

    def apply(self, f):
        _require_single(f.values, "image")
        x, _ = self._chart_weights()
        images = f.like(f.values * x) if self.symmetric else f   # one per chart
        return f.like(self._chart_sum(self.transform.forward(images)))

    def back_data(self, g):
        """The data-side half of the normal equations: for the symmetric
        variant sum_i sqrt(chi_iX) A* (chi_iY g)."""
        _require_single(g.values, "sinogram")
        tr = self.transform
        return ImageGrid(tr.nx, tr.ny, tr.spacing, tr.origin.copy(), self._chart_sum(g),
                         tr.support_radius)


def _require_single(values, kind):
    """Refuse a stack where one image or sinogram is meant: broadcasting
    would pair its slices with the charts, or fail, without saying why."""
    if values.ndim != 2:
        raise ValueError(f"expected one {kind} of 2 axes, got values of shape "
                         f"{values.shape}")


def apply_normal(pf, mu, atlas, f, sino_spec, **kwargs):
    """One-shot microlocally cutoff normal operator applied to f: a
    transform built for ``sino_spec`` and the plain (not symmetrized)
    NormalOperator."""
    transform = LevelSetTransform(pf, mu, f, sino_spec, **kwargs)
    return NormalOperator(transform, atlas).apply(f)
