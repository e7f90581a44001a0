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
import sys
from dataclasses import dataclass, asdict
from typing import NamedTuple

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
from .operators import ImageGrid, SinoSpec, Sinogram, default_ns

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

# One table states every config value: its JSON type and range, and its
# default.  A block is a dict of key -> _Key; a block whose ``selector`` key
# names a family is a _Families; [block] is a list of blocks.  Any other
# kind is a (description, test) pair.  Ranges that depend on several values,
# such as a fan source inside the domain, are left to the constructors.


def _real(v):
    """A JSON number a finite float can hold: an int or a float, not a bool
    or a string.  The bound refuses NaN and infinities, and an int too large
    to convert."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _pair(v):
    return isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_real, v))


def _count(minimum):
    return (f"an integer of at least {minimum}",
            lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum)


_NUMBER = ("a finite number", _real)
_POSITIVE = ("a positive number", lambda v: _real(v) and v > 0)
_NONNEGATIVE = ("a number of at least 0", lambda v: _real(v) and v >= 0)
_BOOLEAN = ("true or false", lambda v: isinstance(v, bool))
_PAIR = ("two finite numbers", _pair)
_NUMBERS = ("a non-empty list of finite numbers",
            lambda v: isinstance(v, list) and len(v) > 0 and all(map(_real, v)))
_AMPLITUDES = ("a list of finite numbers including 0", lambda v: _NUMBERS[1](v) and 0 in v)
_POSITIVE_PAIR = ("two positive numbers", lambda v: _pair(v) and min(v) > 0)
_RANGE = ("two finite, increasing numbers", lambda v: _pair(v) and v[0] < v[1])
_CUBIC = ("'cubic' (the bilinear spline was removed)", lambda v: v == "cubic")
_REQUIRED = object()


class _Key(NamedTuple):
    """A value's kind and default.  A default of None is left to the code
    that receives the value, which gets it only when given: a constructor's
    own default, or one build_geometry works out."""
    kind: object
    default: object = None


class _Families(NamedTuple):
    selector: str
    tables: dict


def _filled(block, table):
    """``block`` and the table's defaults of the values it leaves out."""
    return {**{k: d for k, (_, d) in table.items() if d is not None and d is not _REQUIRED},
            **block}


# the smallest sizes the transform and its grids can use: two pixels, and
# two samples per axis to give a spacing
_IMAGE = {"nx": _Key(_count(2), 64), "support_radius": _Key(_POSITIVE, 1.0)}
_SINOGRAM = {"ns": _Key(_count(2)),     # default_ns(nx), in build_geometry
             "nt": _Key(_count(2), 180), "s_range": _Key(_RANGE)}
_ATLAS = {"n_charts": _Key(_count(1), 1)}
_MOTION = _Families("name", {
    "identity": {},
    "rotation": {"rate": _Key(_NUMBER)},
    "affine": {"amplitude": _Key(_NUMBER)},
    "breathing": {k: _Key(_NUMBER) for k in ("amplitude", "r_flat", "r_support")},
})
_PHASE = _Families("family", {
    "static": {},
    "dynamic": {"motion": _Key(_MOTION, {"name": "identity"}), "use_analytic": _Key(_BOOLEAN)},
    # support_radius: 1.05 times the image's, in build_geometry
    "fanbeam": {"R": _Key(_POSITIVE, 3.0), "support_radius": _Key(_POSITIVE),
                "t_margin": _Key(_NONNEGATIVE)},
})
_WEIGHT = _Families("name", {
    "unit": {},
    "bump": {"amplitude": _Key(_NUMBER), "center": _Key(_PAIR), "width": _Key(_POSITIVE)},
})
_ELLIPSE = {"center": _Key(_PAIR, _REQUIRED), "semi_axes": _Key(_POSITIVE_PAIR, _REQUIRED),
            "angle": _Key(_NUMBER), "density": _Key(_NUMBER)}
# an absent block is stored as its default: in full for the image and the
# atlas, empty for the sinogram, as the config hash has always had them
_CONFIG = {
    "phase": _Key(_PHASE, {"family": "static"}),
    "weight": _Key(_WEIGHT, {"name": "unit"}),
    "image": _Key(_IMAGE, _filled({}, _IMAGE)),
    "sinogram": _Key(_SINOGRAM, {}),
    "atlas": _Key(_ATLAS, _filled({}, _ATLAS)),
    "t_range": _Key(_RANGE),
    "seed": _Key(_count(0)),
    "interp": _Key(_CUBIC),
    "chunk_t": _Key(_count(1)),
    "phantom": _Key([_ELLIPSE]),
}


def _check(kind, value, path):
    """``value`` as the config stores it; ConfigError naming ``path`` unless
    it is of ``kind``.  An absent block is stored as its default, an absent
    number is not stored."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_check(kind[0], v, f"{path}[{k}]") for k, v in enumerate(value)]
    if isinstance(kind, (dict, _Families)) and not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'} must be an object, got {value!r}")
    if isinstance(kind, _Families):
        name = value.get(kind.selector)
        if not isinstance(name, str) or name not in kind.tables:
            raise ConfigError(f"{path}.{kind.selector} must be one of "
                              f"{sorted(kind.tables)}, got {name!r}")
        rest = {k: v for k, v in value.items() if k != kind.selector}
        return {kind.selector: name, **_check(kind.tables[name], rest, path)}
    if isinstance(kind, dict):
        unknown = set(value) - set(kind)
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown, key=str)} in "
                              f"{path or 'config root'}")
        out = {}
        for key, (sub, default) in kind.items():
            where = f"{path}.{key}" if path else key
            if key in value:
                out[key] = _check(sub, value[key], where)
            elif default is _REQUIRED:
                raise ConfigError(f"{where} is required")
            elif isinstance(sub, (dict, _Families)):
                out[key] = dict(default)
        return out
    what, ok = kind
    if not ok(value):
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return value


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
        values = _check(_CONFIG, raw, "")
        if "t_range" in values:     # stored as floats, as it always was
            values["t_range"] = [float(t) for t in values["t_range"]]
        return cls(**values)

    @classmethod
    def from_json(cls, text):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: "
                              f"{exc.msg}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def settings(self, block):
        """The values of ``block`` ("phase", "weight", "image", "sinogram" or
        "atlas"): those given, and the table's defaults of the others, but
        not the defaults that a constructor states."""
        values = getattr(self, block)
        kind = _CONFIG[block].kind
        if isinstance(kind, _Families):
            kind = kind.tables[values[kind.selector]]
        return _filled(values, kind)


_WEIGHTS = {"unit": UnitWeight, "bump": BumpWeight}


def build_geometry(config):
    """Instantiate (phase, weight, sino_spec, image factory) from a config.

    A range the constructors refuse, such as a fan source inside the domain
    or a breathing amplitude that folds the motion, is a ConfigError."""
    image = config.settings("image")
    image_kw = {"nx": image["nx"], "support_radius": float(image["support_radius"])}
    phase = config.settings("phase")
    family = phase.pop("family")
    weight = config.settings("weight")
    try:
        if family == "static":
            pf = make_static_phase()
        elif family == "dynamic":
            pf = make_dynamic_phase(make_motion(**phase.pop("motion")), **phase)
        else:
            phase.setdefault("support_radius", 1.05 * image_kw["support_radius"])
            pf = make_fanbeam_phase(**phase)
        mu = _WEIGHTS[weight.pop("name")](**weight)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.t_range is not None:
        pf.t_range = tuple(config.t_range)
    sino = config.settings("sinogram")
    sino.setdefault("ns", default_ns(image_kw["nx"]))
    if "s_range" in sino:
        sino["s_range"] = tuple(sino["s_range"])
    return pf, mu, SinoSpec(**sino), image_kw


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
    beta = t + gamma - pi/2.  gamma is the fan-beam phase's label, so a fan
    transform's sinogram rebins as it is.

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
