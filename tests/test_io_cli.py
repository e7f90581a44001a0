import json
import math
import os

import numpy as np
import pytest

from curvetomo import (
    ConfigError,
    GeometryConfig,
    OutOfRangeError,
    Sinogram,
    build_geometry,
    crc64,
    fanbeam_convert,
    fan_to_parallel,
    make_image_grid,
    read_grid_file,
    write_grid_file,
    write_pgm16,
)
from curvetomo.cli import main
from curvetomo.operators import integrate_lines
from curvetomo.phantom import EllipseSpec, render_phantom


# ---------------------------------------------------------------------------
# checksums and grid files
# ---------------------------------------------------------------------------


def test_crc64_reference_vector():
    # ECMA-182 check value for the ASCII digits "123456789"
    assert crc64(b"123456789") == "6c40df5f0b497347"


def _crc64_bytewise(data):
    """CRC64/ECMA-182 one byte at a time: the textbook table-driven loop."""
    table = []
    for i in range(256):
        crc = i << 56
        for _ in range(8):
            crc = ((crc << 1) ^ (0x42F0E1EBA9EA3693 if crc >> 63 else 0)) & 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    crc = 0
    for byte in bytes(data):
        crc = (table[((crc >> 56) ^ byte) & 0xFF] ^ (crc << 8)) & 0xFFFFFFFFFFFFFFFF
    return f"{crc:016x}"


def test_crc64_matches_bytewise_loop():
    """Chunk-parallel CRC against the per-byte loop, around one chunk and on
    a sinogram-sized payload whose length is no multiple of the chunk."""
    from curvetomo.io_cli import _CRC64_CHUNK

    data = np.random.default_rng(61).integers(0, 256, 98 * 1024 + 37, dtype=np.uint8).tobytes()
    assert _crc64_bytewise(b"123456789") == "6c40df5f0b497347"
    for n in (0, 1, _CRC64_CHUNK - 1, _CRC64_CHUNK, _CRC64_CHUNK + 1, len(data)):
        assert crc64(data[:n]) == _crc64_bytewise(data[:n]), n
    assert crc64(bytearray(data[:1000])) == crc64(memoryview(data)[:1000])


def test_grid_file_checksum_roundtrip(tmp_path):
    """A 68 x 180 sinogram file carries the per-byte CRC of its payload and
    reads back unchanged."""
    g = Sinogram(np.linspace(-1, 1, 68), np.linspace(0, 6, 180),
                 np.random.default_rng(62).standard_normal((68, 180)))
    path = tmp_path / "sino.grid"
    written = write_grid_file(path, g)
    assert written["checksum"] == _crc64_bytewise(path.read_bytes())
    back, sidecar = read_grid_file(path)
    assert sidecar["checksum"] == written["checksum"]
    np.testing.assert_array_equal(back.values, g.values)


def test_grid_file_roundtrip_image(tmp_path):
    img = make_image_grid(24, values=np.arange(576, dtype=float).reshape(24, 24))
    path = tmp_path / "img.grid"
    write_grid_file(path, img, geometry_hash="abc")
    back, sidecar = read_grid_file(path)
    np.testing.assert_array_equal(back.values, img.values)
    assert back.spacing == img.spacing
    assert sidecar["kind"] == "image"
    assert sidecar["geometry"] == "abc"


def test_grid_file_roundtrip_sinogram(tmp_path):
    g = Sinogram(np.linspace(-1, 1, 11), np.linspace(0, 6, 7),
                 np.random.default_rng(0).standard_normal((11, 7)))
    path = tmp_path / "sino.grid"
    write_grid_file(path, g)
    back, sidecar = read_grid_file(path)
    np.testing.assert_array_equal(back.values, g.values)
    np.testing.assert_allclose(back.s_grid, g.s_grid)
    np.testing.assert_allclose(back.t_grid, g.t_grid)


def test_grid_file_refuses_stacks(tmp_path):
    """A stacked image or sinogram is not written: its dims would not
    describe the payload, and reading it back would fail."""
    img = make_image_grid(8, values=np.zeros((2, 8, 8)))
    g = Sinogram(np.linspace(-1, 1, 11), np.linspace(0, 6, 7), np.zeros((3, 11, 7)))
    for i, obj in enumerate((img, g)):
        with pytest.raises(ValueError):
            write_grid_file(tmp_path / f"stack{i}.grid", obj)
        assert not (tmp_path / f"stack{i}.grid").exists()


def test_grid_file_checksum_detects_corruption(tmp_path):
    img = make_image_grid(8, values=np.ones((8, 8)))
    path = tmp_path / "img.grid"
    write_grid_file(path, img)
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        read_grid_file(path)


def test_pgm16_header(tmp_path):
    path = tmp_path / "x.pgm"
    write_pgm16(path, np.random.default_rng(0).uniform(0, 1, (5, 7)))
    data = path.read_bytes()
    assert data.startswith(b"P5\n7 5\n65535\n")
    assert len(data) == len(b"P5\n7 5\n65535\n") + 5 * 7 * 2


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_roundtrip_bit_exact():
    text = json.dumps({
        "phase": {"family": "dynamic", "motion": {"name": "rotation", "rate": -1.0}},
        "weight": {"name": "unit"},
        "image": {"nx": 32, "support_radius": 1.0},
        "sinogram": {"ns": 33, "nt": 60},
        "atlas": {"n_charts": 1},
    })
    cfg = GeometryConfig.from_json(text)
    once = cfg.to_json()
    again = GeometryConfig.from_json(once).to_json()
    assert once == again
    assert cfg.hash() == GeometryConfig.from_json(once).hash()


@pytest.mark.parametrize("raw", [
    {"phase": {"family": "nope"}},
    {"phase": {"family": "static", "extra": 1}},
    {"phase": {"family": "dynamic", "motion": {"name": "rotation", "warp": 2}}},
    {"weight": {"name": "unit", "gain": 3}},
    {"sinogram": {"ns": 16, "rows": 2}},
    {"unknown_top": True},
    {"t_range": [2.0, 1.0]},
    {"interp": "linear"},
])
def test_config_rejects_unknown_keys(raw):
    with pytest.raises(ConfigError):
        GeometryConfig.from_dict(raw)


_ROTATION_ATLAS = {  # perfbench's cli_rotation_atlas config at seed 1
    "phase": {"family": "dynamic", "motion": {"name": "rotation", "rate": 0.3}},
    "weight": {"name": "unit"}, "image": {"nx": 64, "support_radius": 1.0},
    "sinogram": {"ns": 68, "nt": 180}, "atlas": {"n_charts": 2}, "seed": 1,
    "phantom": [{"center": [-0.12, 0.08], "semi_axes": [0.5, 0.5], "angle": 0.0,
                 "density": 1.0450463696325936},
                {"center": [0.24718750000000003, -0.2528125], "semi_axes": [0.32, 0.15],
                 "angle": 0.4363323129985824, "density": 0.5224324723568622}],
}


@pytest.mark.parametrize("raw, digest", [
    ({}, "46d90c2abfa50bfe"),
    ({"phase": {"family": "dynamic", "motion": {"name": "breathing", "amplitude": 0.05}},
      "weight": {"name": "unit"}, "image": {"nx": 128, "support_radius": 1.0},
      "sinogram": {"ns": 135, "nt": 360}, "atlas": {"n_charts": 1}, "seed": 12648430},
     "0217318fe179d780"),
    ({"phase": {"family": "fanbeam", "R": 3.0, "t_margin": 0.05}, "image": {"nx": 16}},
     "1ab5538fcadaeade"),
    ({"t_range": [0, 3], "image": {"nx": 16},
      "sinogram": {"ns": 17, "nt": 24, "s_range": [-1.2, 1]},
      "weight": {"name": "bump", "amplitude": 0.2, "center": [0.1, 0], "width": 0.5},
      "phantom": [{"center": [0.0, 0.1], "semi_axes": [0.3, 0.2], "angle": 0.5},
                  {"center": [-0.2, 0], "semi_axes": [0.2, 0.2], "density": 2}]},
     "27f1684950b28426"),
    (_ROTATION_ATLAS, "2a35d058caa9d8b5"),
    ({"phase": {"family": "dynamic"}}, "e8fc1b1d45eb7e40"),
], ids=["empty", "readme", "fan", "ranges_bump_phantom", "rotation_atlas", "dynamic_default"])
def test_config_hash_pinned(raw, digest):
    """The config hash every manifest and grid sidecar records: the stored
    form of a config (which defaults are written in, t_range as floats, the
    other numbers as given) must not drift."""
    assert GeometryConfig.from_dict(raw).hash() == digest


def test_config_malformed_json_diagnostics():
    with pytest.raises(ConfigError) as exc:
        GeometryConfig.from_json("{broken")
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_build_geometry_families():
    for phase in ({"family": "static"},
                  {"family": "dynamic", "motion": {"name": "breathing", "amplitude": 0.05}},
                  {"family": "fanbeam", "R": 3.0}):
        cfg = GeometryConfig.from_dict({"phase": phase, "image": {"nx": 16}})
        pf, mu, spec, image_kw = build_geometry(cfg)
        assert image_kw["nx"] == 16
        assert spec.nt > 0


# ---------------------------------------------------------------------------
# fan-beam rebinning
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fan_data():
    """Fan sinogram of the default-ish phantom synthesized by straight-ray
    integrals from the source circle."""
    f = render_phantom([EllipseSpec(center=(-0.1, 0.1), semi_axes=(0.45, 0.45), density=1.0),
                        EllipseSpec(center=(0.3, -0.2), semi_axes=(0.25, 0.1),
                                    angle=0.4, density=0.7)], 96)
    R = 3.0
    nt, ngam = 160, 100
    t_grid = np.linspace(0.0, 2 * math.pi, nt, endpoint=False)
    gmax = math.asin(1.05 / R)
    g_grid = np.linspace(-gmax, gmax, ngam)
    T, G = np.meshgrid(t_grid, g_grid, indexing="ij")
    S, B, _ = fan_to_parallel(T, G, R)
    vals = integrate_lines(f, S.ravel(), B.ravel()).reshape(nt, ngam)
    return f, R, Sinogram(g_grid, t_grid, vals.T)


def test_fan_rebin_two_path(fan_data):
    f, R, g_fan = fan_data
    g_par, info = fanbeam_convert(g_fan, R, ns=90, n_beta=140,
                                  s_range=(-0.95, 0.95), beta_range=(0.5, 5.5))
    SS, BB = np.meshgrid(g_par.s_grid, g_par.t_grid, indexing="ij")
    ref = integrate_lines(f, SS.ravel(), BB.ravel()).reshape(g_par.values.shape)
    ok = np.isfinite(g_par.values)
    assert ok.mean() > 0.95
    rel = math.sqrt(np.nansum((g_par.values - ref) ** 2) / np.sum(ref[ok] ** 2))
    assert rel < 0.03
    assert info["jacobian_applied"] is False


def test_fan_rebin_exact_coordinate_map():
    """Rebinning a smooth synthetic field recovers f(t(s, beta), gamma(s));
    in particular gamma = 0 maps to (s = 0, beta = t - pi/2)."""
    R = 3.0
    nt, ngam = 240, 81
    t_grid = np.linspace(0.0, 2 * math.pi, nt, endpoint=False)
    g_grid = np.linspace(-0.3, 0.3, ngam)

    def field(t, gamma):
        return np.cos(t) + 0.5 * np.sin(2 * t) * gamma + gamma**2

    T, G = np.meshgrid(t_grid, g_grid, indexing="ij")
    g_fan = Sinogram(g_grid, t_grid, field(T, G).T)
    g_par, _ = fanbeam_convert(g_fan, R, ns=33, n_beta=64,
                               s_range=(-0.8, 0.8), beta_range=(0.0, 6.0))
    SS, BB = np.meshgrid(g_par.s_grid, g_par.t_grid, indexing="ij")
    GG = np.arcsin(SS / R)
    TT = BB - GG + math.pi / 2
    expected = field(TT, GG)
    err = np.nanmax(np.abs(g_par.values - expected))
    assert err < 2e-3  # bilinear interpolation of a smooth field
    # the s = 0 row is the gamma = 0 column relabeled by beta = t - pi/2
    mid = len(g_par.s_grid) // 2
    assert g_par.s_grid[mid] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(g_par.values[mid], field(g_par.t_grid + math.pi / 2, 0.0),
                               atol=2e-3)


def test_fan_rebin_s_range_scales_with_R(fan_data):
    _, R, g_fan = fan_data
    a, _ = fanbeam_convert(g_fan, R, ns=16, n_beta=16)
    b, _ = fanbeam_convert(g_fan, 2 * R, ns=16, n_beta=16)
    assert b.s_grid[-1] == pytest.approx(2 * a.s_grid[-1], rel=1e-9)


def test_fan_rebin_out_of_range(fan_data):
    _, R, g_fan = fan_data
    with pytest.raises(OutOfRangeError):
        fanbeam_convert(g_fan, R, ns=8, n_beta=8, s_range=(2.9, 2.99))


# ---------------------------------------------------------------------------
# CLI pipelines
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "phase": {"family": "static"},
        "image": {"nx": 32},
        "sinogram": {"ns": 35, "nt": 60},
        "seed": 7,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_phantom_forward_adjoint(small_config, tmp_path):
    out1 = str(tmp_path / "run1")
    assert main(["phantom", "--config", small_config, "--out-dir", out1]) == 0
    out2 = str(tmp_path / "run2")
    assert main(["forward", "--config", small_config, "--out-dir", out2,
                 "--image", os.path.join(out1, "phantom.grid")]) == 0
    out3 = str(tmp_path / "run3")
    assert main(["adjoint-test", "--config", small_config, "--out-dir", out3,
                 "--pairs", "2"]) == 0
    manifest = json.loads((tmp_path / "run3" / "manifest.json").read_text())
    assert manifest["metrics"]["adjoint_discrepancy"] < 1e-3
    assert manifest["config_hash"]
    for out in (out2, out3):
        _assert_workers_recorded(out)
    _assert_set_up_stats_recorded(out2, small_config, "m")
    _assert_set_up_stats_recorded(out3, small_config, "mk")


def _assert_workers_recorded(out_dir):
    """The manifest records how many row bands applied the operators."""
    from curvetomo import operators

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        workers = json.load(fh)["metrics"]["workers"]
    assert 1 <= workers <= operators._worker_count()


def _assert_set_up_stats_recorded(out_dir, config_path, matrices):
    """The manifest carries the transform's set-up stats for the assembled
    ``matrices`` ("m", "mk"): positive build times, and the failed curves,
    plan size, tracer steps, nnz and bytes of a transform built from the
    same config."""
    from curvetomo.cli import _transform

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        metrics = json.load(fh)["metrics"]
    with open(config_path) as fh:
        _, _, tr = _transform(GeometryConfig.from_json(fh.read()))
    tr._build_adjoint_tables()
    plan = tr.plan
    assert metrics["plan_s"] > 0.0
    assert metrics["failed_curves"] == plan.n_failed
    assert metrics["plan_curves"] == plan.n_curves == len(tr.s_grid) * len(tr.t_grid)
    assert metrics["plan_points"] == len(plan.points) == len(plan.coeff) > 0
    assert metrics["plan_bytes"] == sum(a.nbytes for a in (plan.points, plan.coeff,
                                                           plan.curve_id, plan.failed))
    assert metrics["trace_steps"] == tr.stats["trace_steps"] >= metrics["plan_points"] // 2
    for name, matrix in (("m", tr.plan.matrix), ("k", tr._adj_tables)):
        if name not in matrices:
            assert f"{name}_nnz" not in metrics
            continue
        assert metrics[f"{name}_assembly_s"] > 0.0
        assert metrics[f"{name}_nnz"] == matrix.nnz > 0
        assert metrics[f"{name}_bytes"] == (matrix.data.nbytes + matrix.indices.nbytes
                                            + matrix.indptr.nbytes)


def test_cli_bad_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"phase": {"family": "static", "x": 1}}')
    assert main(["phantom", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    bad.write_text("{nope")
    assert main(["phantom", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    # numbers no consumer can use are refused when the config is read; all
    # but n_charts (read by the atlas of `normal` and `reconstruct`) once
    # crashed `adjoint-test` with a traceback
    for raw in ({"chunk_t": 0}, {"chunk_t": "x"}, {"sinogram": {"ns": 1, "nt": 8}},
                {"sinogram": {"nt": 1}}, {"image": {"nx": 0}}, {"image": {"nx": 1}},
                {"image": {"nx": 16, "support_radius": 0}}, {"atlas": {"n_charts": 0}},
                {"seed": -1}, {"sinogram": {"ns": float("nan")}}):
        bad.write_text(json.dumps(raw))
        assert main(["adjoint-test", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 2, raw
    # the removed bilinear spline, and ranges and phantom entries that once
    # crashed `phantom` or `forward` with a traceback, or ran on a
    # descending s grid or an infinite t range
    ellipse = {"center": [0.0, 0.1], "semi_axes": [0.3, 0.2]}
    for raw in ({"interp": "linear"}, {"t_range": 5}, {"t_range": ["a", 1]}, {"t_range": [0]},
                {"t_range": [0, "inf"]}, {"sinogram": {"s_range": [1]}},
                {"sinogram": {"s_range": [1, -1]}},
                {"phantom": [{"semi_axes": [0.3, 0.2]}]},
                {"phantom": [dict(ellipse, center=[0.0, "x"])]},
                {"phantom": [dict(ellipse, semi_axes=[0.3, 0.0])]},
                {"phantom": [ellipse, 3]},
                # family numbers and phantom keys that once crashed with a
                # traceback, or, for the misspelt "angel", were ignored
                {"phase": {"family": "dynamic", "motion": {"name": "rotation", "rate": "x"}}},
                {"weight": {"name": "bump", "center": 5}},
                {"phantom": [dict(ellipse, density="x")]},
                {"phantom": [dict(ellipse, angel=0.5)]}):
        bad.write_text(json.dumps(raw))
        for command in (["phantom"], ["forward", "--image", str(tmp_path / "none.grid")]):
            assert main(command + ["--config", str(bad),
                                   "--out-dir", str(tmp_path / "o")]) == 2, (command, raw)
    # values the config checked in one form and the program used in another:
    # each ran (exit 0) on a number other than the one the hash records, or
    # crashed with a traceback.  Counts are JSON integers, so 16.0 is refused.
    small = {"image": {"nx": 16}, "sinogram": {"ns": 9, "nt": 8}}
    rotation = {"family": "dynamic", "motion": {"name": "rotation"}}
    for raw in ({"phantom": [dict(ellipse, center=["0", "0"])]},
                {"phantom": [dict(ellipse, semi_axes=["0.3", 0.2])]},
                {"sinogram": {"s_range": ["-1", 1]}},
                {"image": {"nx": 16.7}}, {"image": {"nx": 16.0}}, {"image": {"nx": "16"}},
                {"image": {"nx": 16, "support_radius": "1"}},
                {"seed": True}, {"chunk_t": 1.5}, {"atlas": {"n_charts": 2.5}},
                {"phase": dict(rotation, motion={"name": "rotation", "rate": "0.3"})},
                {"phase": dict(rotation, motion={"name": "rotation", "rate": True})},
                {"weight": {"name": "bump", "center": ["0.1", 0]}},
                {"phase": {"family": "dynamic", "use_analytic": "no"}}):
        bad.write_text(json.dumps(dict(small, **raw)))
        assert main(["phantom", "--config", str(bad),
                     "--out-dir", str(tmp_path / "o")]) == 2, raw
    # ranges the phase constructors refuse: a fan source inside the domain's
    # corner radius, a breathing amplitude beyond the taper bound
    for raw in ({"phase": {"family": "fanbeam", "R": 0.5}},
                {"phase": {"family": "dynamic", "motion": {"name": "breathing", "amplitude": 2}}}):
        bad.write_text(json.dumps(dict(raw, image={"nx": 16})))
        for command in (["phantom"], ["adjoint-test"]):
            assert main(command + ["--config", str(bad),
                                   "--out-dir", str(tmp_path / "o")]) == 2, (command, raw)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 16x16 config and a sinogram forwarded from its phantom."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"image": {"nx": 16}, "sinogram": {"ns": 9, "nt": 8}}))
    assert main(["phantom", "--config", str(cfg), "--out-dir", str(root / "ph")]) == 0
    assert main(["forward", "--config", str(cfg), "--out-dir", str(root / "fwd"),
                 "--image", str(root / "ph" / "phantom.grid")]) == 0
    return root


@pytest.mark.parametrize("args", [
    ["visibility", "--point", "0.1"],        # once broadcast to (0.1, 0.1)
    ["visibility", "--point", "nan,0"],
    ["visibility", "--point", "a,b"],
    ["visibility", "--n-dirs", "4"],         # visibility_map needs 8
    ["symbol", "--point", "0.1,0.2,0.3"],
    ["symbol", "--n-dirs", "0"],             # once a header-only CSV
    ["adjoint-test", "--pairs", "0"],        # once a passing check of no pairs
    ["reconstruct", "--data", "{sino}", "--iters", "-3"],
    ["stability", "--amplitudes", "x"],
    ["stability", "--samples", "0"],
    ["perturb-sweep", "--deltas", "0,y"],
    ["check-bolker", "--grid", "0"],
    ["check-bolker", "--times", "0"],
    ["phantom", "--config", "{root}/missing.json"],
    ["reconstruct", "--data", "{root}/nofile"],
    # float flags once taken unchecked: a NaN tolerance passed every check,
    # a NaN Tikhonov weight wrote a NaN reconstruction, and the rest exited
    # 0, 1 or 4
    ["adjoint-test", "--tol", "nan"],
    ["reconstruct", "--data", "{sino}", "--tol", "-1"],
    ["reconstruct", "--data", "{sino}", "--tikhonov", "nan"],
    ["symbol", "--xi-norm", "nan"],
    ["symbol", "--xi-norm", "0"],
    ["fanbeam-convert", "--data", "{sino}", "--R", "nan"],
    ["fanbeam-convert", "--data", "{sino}", "--R", "-3"],
    ["stability", "--amplitudes", "0.02"],   # no static reference
    ["adjoint-test", "--seed", "-5"],        # once NumPy's ValueError
    ["phantom", "--wavefront-samples", "4"],  # once silently raised to 8
], ids=lambda a: " ".join(a))
def test_cli_bad_argument_exit_2(tiny_run, args):
    """Malformed points, lists and counts, and unreadable config or data
    files, exit 2, from argparse or as config errors; each once exited 0
    or crashed with a traceback."""
    args = [a.format(root=tiny_run, sino=tiny_run / "fwd" / "sinogram.grid") for a in args]
    if "--config" not in args:
        args += ["--config", str(tiny_run / "cfg.json")]
    try:
        code = main(args + ["--out-dir", str(tiny_run / "bad")])
    except SystemExit as exc:
        code = exc.code
    assert code == 2


def test_cli_seed_zero_recorded(tiny_run):
    """--seed 0 is a seed, not an absent one: the manifest once recorded the
    config's seed instead."""
    out = tiny_run / "seed0"
    assert main(["phantom", "--config", str(tiny_run / "cfg.json"), "--seed", "0",
                 "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0


def test_cli_limited_angle_visibility_exit_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phase": {"family": "static"},
        "image": {"nx": 16},
        "t_range": [0.0, math.pi / 3],
    }))
    code = main(["visibility", "--config", str(cfg), "--out-dir", str(tmp_path / "v"),
                 "--point", "0.2,0.1", "--n-dirs", "16", "--require-full"])
    assert code == 4


def test_cli_limited_angle_atlas_exit_4(tmp_path):
    """An atlas request under limited-angle data reports the uncovered
    directions and exits 4."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phase": {"family": "static"},
        "image": {"nx": 16},
        "sinogram": {"ns": 19, "nt": 30},
        "t_range": [0.0, math.pi / 3],
        "atlas": {"n_charts": 2},
    }))
    out1 = str(tmp_path / "ph")
    assert main(["phantom", "--config", str(cfg), "--out-dir", out1]) == 0
    code = main(["normal", "--config", str(cfg), "--out-dir", str(tmp_path / "n"),
                 "--image", os.path.join(out1, "phantom.grid")])
    assert code == 4


def test_cli_check_bolker_and_symbol(small_config, tmp_path):
    out = str(tmp_path / "cb")
    assert main(["check-bolker", "--config", small_config, "--out-dir", out,
                 "--grid", "5", "--times", "2"]) == 0
    rows = (tmp_path / "cb" / "bolker.csv").read_text().strip().splitlines()
    assert rows[0] == "t,x1,x2,h,rank,det"
    assert len(rows) > 10
    out2 = str(tmp_path / "sym")
    assert main(["symbol", "--config", small_config, "--out-dir", out2,
                 "--point", "0.2,0.0", "--n-dirs", "4"]) == 0
    assert (tmp_path / "sym" / "symbol.csv").exists()


def test_cli_reconstruct_and_normal(small_config, tmp_path):
    out1 = str(tmp_path / "ph")
    assert main(["phantom", "--config", small_config, "--out-dir", out1]) == 0
    out2 = str(tmp_path / "fw")
    assert main(["forward", "--config", small_config, "--out-dir", out2,
                 "--image", os.path.join(out1, "phantom.grid")]) == 0
    out3 = str(tmp_path / "rec")
    assert main(["reconstruct", "--config", small_config, "--out-dir", out3,
                 "--data", os.path.join(out2, "sinogram.grid"), "--iters", "8"]) == 0
    rec, sidecar = read_grid_file(os.path.join(out3, "reconstruction.grid"))
    truth, _ = read_grid_file(os.path.join(out1, "phantom.grid"))
    rel = np.linalg.norm(rec.values - truth.values) / np.linalg.norm(truth.values)
    assert rel < 0.5  # 8 iterations at 32^2: crude but clearly converging
    report = json.loads((tmp_path / "rec" / "solve_report.json").read_text())
    assert report["iterations"] <= 8
    assert len(report["iteration_s"]) == report["iterations"]
    assert all(t > 0.0 for t in report["iteration_s"])
    out4 = str(tmp_path / "nrm")
    assert main(["normal", "--config", small_config, "--out-dir", out4,
                 "--image", os.path.join(out1, "phantom.grid")]) == 0
    assert (tmp_path / "nrm" / "normal.grid").exists()
    for out in (out2, out3, out4):
        _assert_workers_recorded(out)
    for out in (out3, out4):
        _assert_set_up_stats_recorded(out, small_config, "mk")


@pytest.mark.parametrize("solver, iters", [("cg", 8), ("landweber", 30)])
def test_cli_reconstruct_atlas_is_unbiased(solver, iters, tmp_path):
    """`reconstruct` solves the plain cutoff normal equations, which the true
    image solves for any atlas: through 2 x 2 overlapping charts it comes as
    close to the phantom as through the trivial atlas.  The symmetrized
    equations reweight the image where charts overlap: their error here is
    0.23 against 0.06 with CG, and 0.22 against 0.10 with Landweber."""
    errors = []
    for n_charts in (1, 2):
        cfg = tmp_path / f"cfg{n_charts}.json"
        cfg.write_text(json.dumps({
            "phase": {"family": "dynamic", "motion": {"name": "rotation", "rate": 0.3}},
            "image": {"nx": 32}, "sinogram": {"ns": 35, "nt": 60},
            "atlas": {"n_charts": n_charts}, "seed": 1,
        }))
        out = tmp_path / f"c{n_charts}"
        assert main(["phantom", "--config", str(cfg), "--out-dir", str(out / "ph")]) == 0
        assert main(["forward", "--config", str(cfg), "--out-dir", str(out / "fw"),
                     "--image", str(out / "ph" / "phantom.grid")]) == 0
        assert main(["reconstruct", "--config", str(cfg), "--out-dir", str(out / "rec"),
                     "--data", str(out / "fw" / "sinogram.grid"), "--iters", str(iters),
                     "--tol", "0", "--solver", solver]) == 0
        rec, _ = read_grid_file(out / "rec" / "reconstruction.grid")
        truth, _ = read_grid_file(out / "ph" / "phantom.grid")
        errors.append(np.linalg.norm(rec.values - truth.values) / np.linalg.norm(truth.values))
    assert errors[1] <= 1.25 * errors[0], errors


def test_cli_stability_and_perturb(small_config, tmp_path):
    out = str(tmp_path / "st")
    assert main(["stability", "--config", small_config, "--out-dir", out,
                 "--family", "breathing", "--amplitudes", "0.0,0.05",
                 "--samples", "3", "--nx", "24", "--nt", "40"]) == 0
    payload = json.loads((tmp_path / "st" / "stability.json").read_text())
    assert "0.05" in payload["median_ratio"]
    out2 = str(tmp_path / "pw")
    assert main(["perturb-sweep", "--config", small_config, "--out-dir", out2,
                 "--deltas", "0.0,0.01,0.03", "--nx", "24", "--nt", "40"]) == 0
    payload = json.loads((tmp_path / "pw" / "perturb.json").read_text())
    assert payload["ratios"][0] < 1e-10


def test_cli_adjoint_test_numeric_failure_exit_3(small_config, tmp_path):
    code = main(["adjoint-test", "--config", small_config, "--pairs", "1",
                 "--tol", "1e-12", "--out-dir", str(tmp_path / "at")])
    assert code == 3


def test_cli_fanbeam_convert(tmp_path):
    cfg = tmp_path / "fan.json"
    cfg.write_text(json.dumps({"phase": {"family": "fanbeam", "R": 3.0},
                               "image": {"nx": 24}}))
    t_grid = np.linspace(0.0, 2 * math.pi, 60, endpoint=False)
    g_grid = np.linspace(-0.3, 0.3, 21)
    T, G = np.meshgrid(t_grid, g_grid, indexing="ij")
    fan = Sinogram(g_grid, t_grid, (np.cos(T) + G**2).T)
    write_grid_file(tmp_path / "fan.grid", fan)
    out = str(tmp_path / "rb")
    assert main(["fanbeam-convert", "--config", str(cfg), "--out-dir", out,
                 "--data", str(tmp_path / "fan.grid"), "--ns", "15",
                 "--n-beta", "30"]) == 0
    manifest = json.loads((tmp_path / "rb" / "manifest.json").read_text())
    assert manifest["metrics"]["jacobian"] == "R*cos(gamma)"
    assert manifest["metrics"]["R"] == 3.0
    # a fan config's R is the radius; --R may repeat it but not contradict
    # it (once ignored without a word)
    rebin = ["fanbeam-convert", "--data", str(tmp_path / "fan.grid"), "--ns", "15",
             "--n-beta", "30"]
    assert main(rebin + ["--config", str(cfg), "--R", "3", "--out-dir", out]) == 0
    assert main(rebin + ["--config", str(cfg), "--R", "5",
                         "--out-dir", str(tmp_path / "rb5")]) == 2
    # without a fan config, --R is the radius
    payloads = []
    for R in ("3", "5"):
        od = tmp_path / f"static{R}"
        assert main(rebin + ["--R", R, "--out-dir", str(od)]) == 0
        assert json.loads((od / "manifest.json").read_text())["metrics"]["R"] == float(R)
        payloads.append((od / "parallel.grid").read_bytes())
    assert payloads[0] != payloads[1]


def test_cli_manifest_lists_every_output(tiny_run, tmp_path):
    """Every subcommand's manifest lists exactly the files it wrote, besides
    itself and the grids' sidecars, each with the CRC64 of its bytes (a
    grid file is its payload)."""
    grids = {"image": str(tiny_run / "ph" / "phantom.grid"),
             "sino": str(tiny_run / "fwd" / "sinogram.grid")}
    small = ["--nx", "16", "--nt", "8"]
    commands = [
        ["phantom", "--wavefront-samples", "8"],
        ["forward", "--image", grids["image"]],
        ["adjoint-test", "--pairs", "1", "--tol", "1"],
        ["check-bolker", "--grid", "3", "--times", "1"],
        ["visibility", "--n-dirs", "8"],
        ["symbol", "--n-dirs", "2"],
        ["normal", "--image", grids["image"]],
        ["reconstruct", "--data", grids["sino"], "--iters", "2"],
        ["stability", "--amplitudes", "0,0.05", "--samples", "1"] + small,
        ["perturb-sweep", "--deltas", "0,0.01"] + small,
        ["fanbeam-convert", "--data", grids["sino"], "--ns", "5", "--n-beta", "6"],
    ]
    for command in commands:
        out = tmp_path / command[0]
        assert main(command + ["--config", str(tiny_run / "cfg.json"),
                               "--out-dir", str(out)]) == 0, command
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        written = {p.name for p in out.iterdir()
                   if p.name != "manifest.json" and not p.name.endswith(".grid.json")}
        assert set(outputs) == written, command
        for name, checksum in outputs.items():
            assert checksum == crc64((out / name).read_bytes()), (command, name)


def test_cli_reproducibility_byte_identical(small_config, tmp_path):
    """Identical config + seed + chunk size => byte-identical payloads."""
    outs = []
    for name in ("a", "b"):
        od = str(tmp_path / name)
        assert main(["phantom", "--config", small_config, "--out-dir", od]) == 0
        assert main(["forward", "--config", small_config, "--out-dir", od + "f",
                     "--image", os.path.join(od, "phantom.grid")]) == 0
        outs.append((tmp_path / (name)) / "phantom.grid")
        outs.append((tmp_path / (name + "f")) / "sinogram.grid")
    assert outs[0].read_bytes() == outs[2].read_bytes()
    assert outs[1].read_bytes() == outs[3].read_bytes()
