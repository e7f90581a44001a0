"""Configuration, file formats and the experiment pipeline.

Grid files are a raw little-endian float64 payload (row-major) next to a
JSON sidecar carrying kind, dims, geometry metadata and a CRC64 checksum of
the payload.  Configuration is a strict JSON document (unknown keys are
rejected at every level) naming builtin phase/motion/weight families.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import ndimage

from .errors import ConfigError, OutOfRangeError
from .geometry import (
    TWO_PI,
    BumpWeight,
    UnitWeight,
    make_dynamic_phase,
    make_fanbeam_phase,
    make_motion,
    make_static_phase,
)
from .operators import ImageGrid, SinoSpec, Sinogram

DEFAULT_SEED = 0xC0FFEE


# ---------------------------------------------------------------------------
# CRC64 (ECMA-182) for payload checksums
# ---------------------------------------------------------------------------

_CRC64_POLY = 0x42F0E1EBA9EA3693
_CRC64_CHUNK = 128      # bytes per lane of the chunk-parallel CRC
_CRC64_TABLE = None     # (256,) uint64: one byte through the register
_CRC64_SHIFTS = []      # [j]: (8, 256) uint64 tables appending CHUNK * 2**j zero bytes


def _crc64_table():
    global _CRC64_TABLE
    if _CRC64_TABLE is None:
        table = []
        for i in range(256):
            crc = i << 56
            for _ in range(8):
                if crc & (1 << 63):
                    crc = ((crc << 1) ^ _CRC64_POLY) & 0xFFFFFFFFFFFFFFFF
                else:
                    crc = (crc << 1) & 0xFFFFFFFFFFFFFFFF
            table.append(crc)
        _CRC64_TABLE = np.array(table, dtype=np.uint64)
    return _CRC64_TABLE


def _crc64_apply(crc, tables):
    """The linear map given by per-byte ``tables`` applied to uint64 ``crc``."""
    out = tables[0][crc & np.uint64(0xFF)]
    for b in range(1, 8):
        out ^= tables[b][(crc >> np.uint64(8 * b)) & np.uint64(0xFF)]
    return out


def _crc64_shift(level):
    """Tables of the map crc(a) -> crc(a followed by CHUNK * 2**level zero
    bytes), built by repeated squaring of the one-chunk map."""
    # every byte value at every byte position of the register
    entries = np.arange(256, dtype=np.uint64) << (np.uint64(8) * np.arange(8, dtype=np.uint64))[:, None]
    if not _CRC64_SHIFTS:
        table = _crc64_table()
        crc = entries
        for _ in range(_CRC64_CHUNK):
            crc = table[crc >> np.uint64(56)] ^ (crc << np.uint64(8))
        _CRC64_SHIFTS.append(crc)
    while len(_CRC64_SHIFTS) <= level:
        _CRC64_SHIFTS.append(_crc64_apply(_crc64_apply(entries, _CRC64_SHIFTS[-1]),
                                          _CRC64_SHIFTS[-1]))
    return _CRC64_SHIFTS[level]


def crc64(data):
    """CRC64/ECMA-182 of a bytes-like object, as a 16-hex-digit string.

    The CRC has zero initial value and is linear, so leading zero bytes
    leave it unchanged and crc(a + b) = crc(a followed by len(b) zero bytes)
    ^ crc(b).  The data, zero-padded at the front to whole chunks, is run
    through the byte table one column at a time for all chunks at once; the
    chunk CRCs are then combined pairwise with the zero-byte shift tables.
    """
    table = _crc64_table()
    buf = np.frombuffer(bytes(data), dtype=np.uint8)
    lanes = -(-len(buf) // _CRC64_CHUNK)
    padded = np.zeros(lanes * _CRC64_CHUNK, dtype=np.uint8)
    padded[len(padded) - len(buf):] = buf
    crc = np.zeros(lanes, dtype=np.uint64)
    idx = np.empty(lanes, dtype=np.uint64)
    for col in padded.reshape(lanes, _CRC64_CHUNK).T.astype(np.uint64):
        np.right_shift(crc, np.uint64(56), out=idx)
        idx ^= col
        crc <<= np.uint64(8)
        crc ^= table[idx]
    level = 0
    while len(crc) > 1:
        if len(crc) % 2:       # a leading zero chunk
            crc = np.concatenate([np.zeros(1, dtype=np.uint64), crc])
        crc = _crc64_apply(crc[0::2], _crc64_shift(level)) ^ crc[1::2]
        level += 1
    return f"{int(crc[0]) if len(crc) else 0:016x}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_PHASE_KEYS = {
    "static": {"family"},
    "dynamic": {"family", "motion", "use_analytic"},
    "fanbeam": {"family", "R", "support_radius", "t_margin"},
}
_MOTION_KEYS = {
    "identity": {"name"},
    "rotation": {"name", "rate"},
    "affine": {"name", "amplitude"},
    "breathing": {"name", "amplitude", "r_flat", "r_support"},
}
_WEIGHT_KEYS = {
    "unit": {"name"},
    "bump": {"name", "amplitude", "center", "width"},
}
_TOP_KEYS = {"phase", "weight", "t_range", "image", "sinogram", "atlas", "seed",
             "interp", "chunk_t", "phantom"}
_IMAGE_KEYS = {"nx", "support_radius"}
_SINO_KEYS = {"ns", "nt", "s_range"}
_ATLAS_KEYS = {"n_charts"}
_ELLIPSE_KEYS = {"center", "semi_axes", "angle", "density"}


def _reject_unknown(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _check_number(d, key, where, minimum, kind=int):
    """``d[key]`` converted to ``kind``, or None if absent; ConfigError
    unless it converts to a finite value of at least ``minimum``."""
    if key not in d:
        return None
    try:
        value = kind(d[key])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be a number, got {d[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {d[key]!r}")
    if value < minimum:
        raise ConfigError(f"{where}.{key} must be at least {minimum}, got {d[key]!r}")
    return value


def _check_real(d, key, where):
    """``_check_number`` for a float of any sign."""
    return _check_number(d, key, where, -math.inf, kind=float)


def _check_positive(d, key, where):
    """``_check_number`` for a float that must be above 0."""
    if _check_number(d, key, where, 0.0, kind=float) == 0.0:
        raise ConfigError(f"{where}.{key} must be positive, got {d[key]!r}")


def _finite_pair(value):
    """``value`` as a list of two finite floats, or None if it is not one."""
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            pair = [float(value[0]), float(value[1])]
            if math.isfinite(pair[0]) and math.isfinite(pair[1]):
                return pair
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _check_range(value, where):
    """``value`` as two floats; ConfigError unless it is two finite,
    increasing numbers."""
    pair = _finite_pair(value)
    if pair is None or not pair[0] < pair[1]:
        raise ConfigError(f"{where} must be two finite, increasing numbers, got {value!r}")
    return pair


def _check_ellipse(e, where):
    """ConfigError unless the phantom entry ``e`` has only known keys, a
    numeric center pair, a positive semi_axes pair and, if given, a numeric
    angle and density."""
    if not isinstance(e, dict):
        raise ConfigError(f"{where} must be an object, got {e!r}")
    _reject_unknown(e, _ELLIPSE_KEYS, where)
    _check_real(e, "angle", where)
    _check_real(e, "density", where)
    if _finite_pair(e.get("center")) is None:
        raise ConfigError(f"{where}.center must be two numbers, got {e.get('center')!r}")
    axes = _finite_pair(e.get("semi_axes"))
    if axes is None or min(axes) <= 0.0:
        raise ConfigError(f"{where}.semi_axes must be two positive numbers, "
                          f"got {e.get('semi_axes')!r}")


@dataclass
class GeometryConfig:
    """Validated experiment configuration; canonical JSON round-trips
    bit-exactly (sorted keys, fixed separators)."""

    phase: dict
    weight: dict
    image: dict
    sinogram: dict
    atlas: dict
    t_range: list | None = None
    seed: int = DEFAULT_SEED
    interp: str = "cubic"
    chunk_t: int = 4
    phantom: list | None = None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "config root")
        phase = dict(raw.get("phase", {"family": "static"}))
        fam = phase.get("family")
        if fam not in _PHASE_KEYS:
            raise ConfigError(f"unknown phase family {fam!r}")
        _reject_unknown(phase, _PHASE_KEYS[fam], f"phase ({fam})")
        # each family's numbers are checked here; the ranges that depend on
        # several of them are checked by the constructors in build_geometry
        if fam == "dynamic":
            motion = dict(phase.get("motion", {"name": "identity"}))
            name = motion.get("name")
            if name not in _MOTION_KEYS:
                raise ConfigError(f"unknown motion family {name!r}")
            _reject_unknown(motion, _MOTION_KEYS[name], f"motion ({name})")
            for key in sorted(_MOTION_KEYS[name] - {"name"}):
                _check_real(motion, key, f"motion ({name})")
            phase["motion"] = motion
        elif fam == "fanbeam":
            _check_positive(phase, "R", "phase (fanbeam)")
            _check_positive(phase, "support_radius", "phase (fanbeam)")
            _check_number(phase, "t_margin", "phase (fanbeam)", 0.0, kind=float)
        weight = dict(raw.get("weight", {"name": "unit"}))
        wname = weight.get("name")
        if wname not in _WEIGHT_KEYS:
            raise ConfigError(f"unknown weight family {wname!r}")
        _reject_unknown(weight, _WEIGHT_KEYS[wname], f"weight ({wname})")
        if wname == "bump":
            _check_real(weight, "amplitude", "weight (bump)")
            _check_positive(weight, "width", "weight (bump)")
            if "center" in weight and _finite_pair(weight["center"]) is None:
                raise ConfigError(f"weight (bump).center must be two numbers, "
                                  f"got {weight['center']!r}")
        image = dict(raw.get("image", {"nx": 64, "support_radius": 1.0}))
        _reject_unknown(image, _IMAGE_KEYS, "image")
        sinogram = dict(raw.get("sinogram", {}))
        _reject_unknown(sinogram, _SINO_KEYS, "sinogram")
        atlas = dict(raw.get("atlas", {"n_charts": 1}))
        _reject_unknown(atlas, _ATLAS_KEYS, "atlas")
        # the smallest sizes the transform and its grids can use: two
        # pixels, and two samples per axis to give a spacing
        _check_number(image, "nx", "image", 2)
        _check_positive(image, "support_radius", "image")
        _check_number(sinogram, "ns", "sinogram", 2)
        _check_number(sinogram, "nt", "sinogram", 2)
        _check_number(atlas, "n_charts", "atlas", 1)
        chunk_t = _check_number(raw, "chunk_t", "config", 1)
        seed = _check_number(raw, "seed", "config", 0)
        interp = raw.get("interp", "cubic")
        if interp != "cubic":
            raise ConfigError(f"interp must be 'cubic', got {interp!r}: the bilinear "
                              "spline was removed")
        t_range = raw.get("t_range")
        if t_range is not None:
            t_range = _check_range(t_range, "t_range")
        if sinogram.get("s_range") is not None:
            _check_range(sinogram["s_range"], "sinogram.s_range")
        phantom = raw.get("phantom")
        if phantom is not None and not isinstance(phantom, list):
            raise ConfigError("phantom must be a list of ellipse specs")
        for k, e in enumerate(phantom or ()):
            _check_ellipse(e, f"phantom[{k}]")
        return cls(phase=phase, weight=weight, image=image, sinogram=sinogram,
                   atlas=atlas, t_range=t_range,
                   seed=DEFAULT_SEED if seed is None else seed, interp=interp,
                   chunk_t=4 if chunk_t is None else chunk_t, phantom=phantom)

    @classmethod
    def from_json(cls, text):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        out = {k: v for k, v in asdict(self).items() if v is not None}
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def build_geometry(config):
    """Instantiate (phase, weight, sino_spec, image factory) from a config.

    A range the constructors refuse, such as a fan source inside the domain
    or a breathing amplitude that folds the motion, is a ConfigError."""
    phase_cfg = config.phase
    fam = phase_cfg["family"]
    image_kw = {"nx": int(config.image.get("nx", 64)),
                "support_radius": float(config.image.get("support_radius", 1.0))}
    wcfg = dict(config.weight)
    wname = wcfg.pop("name")
    try:
        if fam == "static":
            pf = make_static_phase()
        elif fam == "dynamic":
            mcfg = dict(phase_cfg["motion"])
            name = mcfg.pop("name")
            motion = make_motion(name, **mcfg)
            pf = make_dynamic_phase(motion, use_analytic=phase_cfg.get("use_analytic", True))
        else:
            pf = make_fanbeam_phase(
                float(phase_cfg.get("R", 3.0)),
                support_radius=float(phase_cfg.get("support_radius",
                                                   1.05 * image_kw["support_radius"])),
                t_margin=float(phase_cfg.get("t_margin", 0.05)),
            )
        if wname == "unit":
            mu = UnitWeight()
        else:
            if "center" in wcfg:
                wcfg["center"] = tuple(wcfg["center"])
            mu = BumpWeight(**wcfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.t_range is not None:
        pf.t_range = tuple(config.t_range)
    nx = image_kw["nx"]
    sino = config.sinogram
    spec = SinoSpec(
        ns=int(sino.get("ns", int(nx * 1.05) + 1)),
        nt=int(sino.get("nt", 180)),
        s_range=tuple(sino["s_range"]) if sino.get("s_range") else None,
    )
    return pf, mu, spec, image_kw


# ---------------------------------------------------------------------------
# grid files
# ---------------------------------------------------------------------------


def write_grid_file(path, obj, geometry_hash=""):
    """Write an ImageGrid or Sinogram as payload + JSON sidecar.  A stack of
    them is refused: the sidecar's dims describe one."""
    if isinstance(obj, (ImageGrid, Sinogram)) and obj.values.ndim != 2:
        raise ValueError(f"cannot write a stack of values of shape {obj.values.shape}")
    if isinstance(obj, ImageGrid):
        sidecar = {
            "kind": "image",
            "dims": [obj.nx, obj.ny],
            "spacing": obj.spacing,
            "origin": list(map(float, obj.origin)),
            "support_radius": obj.support_radius,
        }
        payload = np.ascontiguousarray(obj.values, dtype="<f8").tobytes()
    elif isinstance(obj, Sinogram):
        sidecar = {
            "kind": "sinogram",
            "dims": [obj.ns, obj.nt],
            "s_grid": [float(obj.s_grid[0]), float(obj.s_grid[-1])],
            "t_grid": [float(obj.t_grid[0]), float(obj.t_grid[-1])],
        }
        payload = np.ascontiguousarray(obj.values, dtype="<f8").tobytes()
    else:
        raise TypeError("expected ImageGrid or Sinogram")
    sidecar["geometry"] = geometry_hash
    sidecar["checksum"] = crc64(payload)
    with open(path, "wb") as fh:
        fh.write(payload)
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
    return sidecar


def read_grid_file(path):
    """Read a grid file back; verifies checksum and dims.  A file that
    cannot be opened is a ConfigError."""
    try:
        with open(str(path) + ".json") as fh:
            sidecar = json.load(fh)
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from None
    if crc64(payload) != sidecar["checksum"]:
        raise ConfigError(f"checksum mismatch reading {path}")
    dims = sidecar["dims"]
    data = np.frombuffer(payload, dtype="<f8")
    if len(data) != dims[0] * dims[1]:
        raise ConfigError(f"payload length does not match dims in {path}")
    data = data.reshape(dims).astype(float)
    if sidecar["kind"] == "image":
        return ImageGrid(dims[0], dims[1], sidecar["spacing"],
                         np.asarray(sidecar["origin"]), data,
                         sidecar["support_radius"]), sidecar
    s0, s1 = sidecar["s_grid"]
    t0, t1 = sidecar["t_grid"]
    return Sinogram(np.linspace(s0, s1, dims[0]),
                    np.linspace(t0, t1, dims[1]), data), sidecar


def write_pgm16(path, array):
    """16-bit binary PGM quicklook of a 2-D array, scaled from its finite
    minimum (0) to its finite maximum (65535); [0, 1] when nothing is
    finite.  NaN is rendered as 0."""
    a = np.asarray(array, dtype=float)
    finite = a[np.isfinite(a)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    span = (hi - lo) if hi > lo else 1.0
    scaled = np.clip(np.nan_to_num(a, nan=lo) - lo, 0, span) / span
    img = (scaled * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n65535\n".encode())
        fh.write(img.tobytes())


# ---------------------------------------------------------------------------
# fan-beam rebinning
# ---------------------------------------------------------------------------


def fanbeam_convert(g_fan, R, ns, n_beta, s_range=None, beta_range=None,
                    weight_jacobian=False):
    """Rebin fan data (s-axis = fan angle gamma, t-axis = source angle t)
    onto the parallel grid (s, beta) through s = R sin gamma,
    beta = t + gamma - pi/2.

    Bilinear interpolation of samples; the Jacobian R cos(gamma) is recorded
    (and applied only when ``weight_jacobian``: rebinning moves samples, not
    measures).  Target cells without fan coverage are NaN and counted;
    raises OutOfRangeError if nothing is covered.
    """
    gamma = g_fan.s_grid
    t_grid = g_fan.t_grid
    if np.max(np.abs(gamma)) >= 0.5 * math.pi:
        raise OutOfRangeError("fan angles must satisfy |gamma| < pi/2")
    if s_range is None:
        smax = R * math.sin(float(np.max(np.abs(gamma)))) * 0.98
        s_range = (-smax, smax)
    if beta_range is None:
        beta_range = (float(t_grid[0] + gamma[0] - 0.5 * math.pi),
                      float(t_grid[-1] + gamma[-1] - 0.5 * math.pi))
    s_par = np.linspace(s_range[0], s_range[1], ns)
    b_par = np.linspace(beta_range[0], beta_range[1], n_beta)
    SS, BB = np.meshgrid(s_par, b_par, indexing="ij")
    if np.max(np.abs(SS)) >= R:
        raise OutOfRangeError("target |s| must be below the source radius")
    GG = np.arcsin(SS / R)
    TT = BB - GG + 0.5 * math.pi

    dg = gamma[1] - gamma[0]
    dt = t_grid[1] - t_grid[0]
    full_circle = abs(len(t_grid) * dt - TWO_PI) < 1e-9
    tt = TT - t_grid[0]
    if full_circle:
        tt = np.mod(tt, TWO_PI)
    ci = tt / dt
    cj = (GG - gamma[0]) / dg
    vals = g_fan.values.T  # (nt, ngamma) for (t, gamma) coordinates
    if weight_jacobian:
        vals = vals * (R * np.cos(gamma))[None, :]
    if full_circle:
        mode = "grid-wrap"
        valid = (cj >= 0) & (cj <= len(gamma) - 1)
    else:
        mode = "constant"
        valid = (ci >= 0) & (ci <= len(t_grid) - 1) & (cj >= 0) & (cj <= len(gamma) - 1)
    out = ndimage.map_coordinates(vals, np.stack([ci.ravel(), cj.ravel()]),
                                  order=1, mode=mode, cval=np.nan).reshape(ns, n_beta)
    out = np.where(valid, out, np.nan)
    n_uncovered = int(np.sum(~np.isfinite(out)))
    if n_uncovered == out.size:
        raise OutOfRangeError("no target cell is covered by the fan data")
    return Sinogram(s_par, b_par, out), {"jacobian": "R*cos(gamma)",
                                         "jacobian_applied": bool(weight_jacobian),
                                         "uncovered_cells": n_uncovered}
