import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coreg.geomodels import (ControlPoint, ControlPointArrays, FittedModel,
                             ModelSpec, fit, model_spec_from_name)
from coreg.raster import (
    _EDGE_TOL,
    GeoTransform,
    RasterGrid,
    SingularTransformError,
    load_raster,
    sample_bilinear,
    save_raster,
    warp,
)
from coreg.synthgen import identity_warp, translation_warp

from conftest import as_grid, texture


finite = st.floats(min_value=-1e5, max_value=1e5,
                   allow_nan=False, allow_infinity=False)


def gt_strategy():
    # realistic georeferencing: pixel scale well above float rounding of the
    # origin magnitude, shear a small fraction of the pixel scale
    nonzero = st.floats(min_value=0.5, max_value=100.0).flatmap(
        lambda m: st.sampled_from([m, -m]))
    small = st.floats(min_value=-0.1, max_value=0.1)
    return st.builds(GeoTransform, origin_x=finite, origin_y=finite,
                     pixel_w=nonzero, pixel_h=nonzero,
                     row_rot=small, col_rot=small)


# -- save / load -----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 31),
       gt_strategy(), st.booleans())
def test_save_load_round_trip_bitwise(tmp_path_factory, h, w, seed, gt,
                                      with_nodata):
    rng = np.random.default_rng(seed)
    data = rng.random((h, w)).astype(np.float32)
    grid = RasterGrid(data, gt, crs_tag="EPSG:32633",
                      nodata=-9999.0 if with_nodata else None)
    path = tmp_path_factory.mktemp("rt") / "g.bin"
    save_raster(grid, path)
    back = load_raster(path)
    assert np.array_equal(back.data, grid.data)
    assert back.geotransform == grid.geotransform
    assert back.crs_tag == grid.crs_tag
    assert back.nodata == grid.nodata


def test_one_by_one_grid_round_trips(tmp_path):
    grid = as_grid([[0.5]])
    save_raster(grid, tmp_path / "one.bin")
    assert np.array_equal(load_raster(tmp_path / "one.bin").data, grid.data)


def test_payload_size_mismatch_rejected(tmp_path):
    from coreg.raster import RasterFormatError

    grid = as_grid(np.zeros((4, 10), dtype=np.float32))
    save_raster(grid, tmp_path / "g.bin")
    raw = (tmp_path / "g.bin").read_bytes()
    (tmp_path / "g.bin").write_bytes(raw[:-8])
    with pytest.raises(RasterFormatError, match="payload"):
        load_raster(tmp_path / "g.bin")


def test_load_holds_one_copy_of_the_payload(tmp_path):
    data = np.random.default_rng(3).random((512, 512), dtype=np.float32)
    holed = data.copy()
    holed[::7, 100:300] = -9999.0
    # a sentinel's holes become NaN in the array read, not in a copy
    for grid, bound in ((as_grid(data), 1.25),
                        (as_grid(holed, nodata=-9999.0), 1.5)):
        save_raster(grid, tmp_path / "g.bin")
        tracemalloc.start()
        try:
            back = load_raster(tmp_path / "g.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, grid.data, equal_nan=True)
        assert peak <= bound * grid.data.nbytes


def test_save_writes_the_payload_without_a_copy(tmp_path):
    data = np.random.default_rng(4).random((1024, 1024), dtype=np.float32)
    data[200:600, 300:700] = np.nan
    # NaN is written as the sentinel in row chunks, not in a frame copy
    for nodata, bound in ((None, 0.05), (-9999.0, 1.0)):
        grid = as_grid(data, nodata=nodata)
        peak = _traced_peak(save_raster, grid, tmp_path / "g.bin")
        assert peak <= bound * grid.data.nbytes
        back = load_raster(tmp_path / "g.bin")
        assert np.array_equal(back.data, data, equal_nan=True)


def test_pgm_save_and_load_hold_bounded_memory(tmp_path):
    data = np.random.default_rng(5).integers(1, 65536, (1024, 1024))
    data = data.astype(np.float32)
    data[200:600, 300:700] = np.nan
    grid = as_grid(data, nodata=0.0)
    # the samples are checked, then rounded and written, in row chunks
    peak = _traced_peak(save_raster, grid, tmp_path / "g.pgm")
    assert peak <= 0.5 * grid.data.nbytes
    # the big-endian samples are read once, then converted
    peak = _traced_peak(load_raster, tmp_path / "g.pgm")
    assert peak <= 1.6 * grid.data.nbytes
    back = load_raster(tmp_path / "g.pgm")
    assert np.array_equal(back.data, data, equal_nan=True)


@pytest.mark.parametrize("value, named", [
    (np.nan, "NaN samples.*numeric nodata"),
    (0.5, "integral samples"),
    (70000.0, r"\[0, 65535\], got \[1.0, 70000.0\]"),
    (-1.0, r"\[0, 65535\], got \[-1.0, 1.0\]"),
])
def test_invalid_pgm_grid_raises_and_writes_no_payload(tmp_path, value, named):
    from coreg.raster import RasterFormatError

    data = np.ones((300, 300), dtype=np.float32)
    # in the second row chunk of the save, after the first has passed
    data[250, 7] = value
    path = tmp_path / "g.pgm"
    with pytest.raises(RasterFormatError,
                       match="^" + re.escape(f"{path}: ") + ".*" + named):
        save_raster(as_grid(data), path)
    assert not path.exists()


@pytest.mark.parametrize("io", ["save", "load"])
def test_unsupported_extension_raises_naming_the_file(tmp_path, io):
    from coreg.raster import RasterFormatError

    path = tmp_path / "g.tif"
    path.write_bytes(b"")
    with pytest.raises(RasterFormatError, match="^" + re.escape(
            f"{path}: unsupported raster extension '.tif'")):
        if io == "save":
            save_raster(as_grid(np.ones((2, 2), dtype=np.float32)), path)
        else:
            load_raster(path)


_GT_HEADER = "gt=500000.0,10.0,0.0,4000000.0,0.0,-10.0\ncrs=EPSG:32633\n"


@pytest.mark.parametrize("content,named", [
    (b"", "truncated pgm header"),
    (b"P5\n4 ", "truncated pgm header"),
    (b"P5\nx 2 65535\n", "bad pgm header: .*b'x'"),
    (b"P5\n4 2 65535.0\n", "bad pgm header: .*b'65535.0'"),
    # -2 x -2 samples would pass the 8-byte payload check
    (b"P5\n-2 -2\n65535\n" + bytes(8), "bad size -2x-2"),
    (b"P5\n0 4\n65535\n", "bad size 0x4"),
], ids=["empty", "truncated", "non-integer-size", "non-integer-maxval",
        "negative-size", "zero-size"])
def test_bad_pgm_header_raises_naming_the_file(tmp_path, content, named):
    from coreg.raster import RasterFormatError

    path = tmp_path / "g.pgm"
    path.write_bytes(content)
    with pytest.raises(RasterFormatError,
                       match="^" + re.escape(f"{path}: ") + named):
        load_raster(path)


@pytest.mark.parametrize("suffix", [".bin", ".pgm"])
def test_sentinel_holes_load_as_nan_and_save_back_identical(tmp_path, suffix):
    levels = np.random.default_rng(6).integers(1, 65536, (20, 30))
    levels[3:6, 4:9] = 0
    levels[17, 29] = 0
    if suffix == ".bin":
        sentinel = -9999.0
        data = np.where(levels == 0, sentinel, levels / 7.0)
        payload = data.astype("<f4").tobytes()
        header = "width=30\nheight=20\ndtype=float32\n"
    else:
        sentinel = 0.0
        data = levels
        payload = b"P5\n30 20\n65535\n" + levels.astype(">u2").tobytes()
        header = "width=30\nheight=20\ndtype=uint16\n"
    original = tmp_path / f"orig{suffix}"
    original.write_bytes(payload)
    header += _GT_HEADER + f"nodata={sentinel!r}\n"
    original.with_suffix(".hdr").write_text(header)

    grid = load_raster(original)
    holes = levels == 0
    assert grid.nodata == sentinel
    assert np.array_equal(np.isnan(grid.data), holes)
    assert np.array_equal(grid.data[~holes],
                          data[~holes].astype(np.float32))
    save_raster(grid, tmp_path / f"back{suffix}")
    assert (tmp_path / f"back{suffix}").read_bytes() == payload
    assert (tmp_path / "back.hdr").read_text() == header


def test_nan_in_a_grid_with_a_sentinel_is_written_as_the_sentinel(tmp_path):
    # the one lossy case: in memory a NaN sample and a hole are the same
    data = np.array([[1.0, np.nan], [-9999.0, 4.0]], dtype=np.float32)
    grid = as_grid(data, nodata=-9999.0)
    assert data[1, 0] == -9999.0     # the caller's array is not written
    assert np.isnan(grid.data[1, 0])
    save_raster(grid, tmp_path / "g.bin")
    written = np.fromfile(tmp_path / "g.bin", dtype="<f4")
    assert written.tolist() == [1.0, -9999.0, -9999.0, 4.0]
    back = load_raster(tmp_path / "g.bin")
    assert np.array_equal(back.data, grid.data, equal_nan=True)


def _edit_header(tmp_path, edit):
    """Save a small grid as g.bin, then rewrite its header's lines through
    ``edit``; a None result deletes the header."""
    save_raster(as_grid(np.zeros((4, 10), dtype=np.float32)), tmp_path / "g.bin")
    hdr = tmp_path / "g.hdr"
    lines = edit(hdr.read_text().splitlines())
    if lines is None:
        hdr.unlink()
    else:
        hdr.write_text("".join(line + "\n" for line in lines))


def test_header_comments_and_blank_lines_are_skipped(tmp_path):
    _edit_header(tmp_path, lambda lines: ["# written by hand", ""] + lines)
    assert load_raster(tmp_path / "g.bin").data.shape == (4, 10)


@pytest.mark.parametrize("edit,named", [
    (lambda lines: None, r"g\.hdr"),
    (lambda lines: [ln for ln in lines if not ln.startswith("gt=")], r"g\.bin"),
    (lambda lines: lines + ["crs SYNTH"], r"g\.hdr.*'crs SYNTH'"),
    (lambda lines: lines + ["no_data=-9999"], r"g\.hdr.*'no_data'"),
], ids=["missing-sidecar", "missing-gt", "malformed-line", "unknown-key"])
def test_bad_header_raises_naming_the_file(tmp_path, edit, named):
    from coreg.raster import RasterFormatError

    _edit_header(tmp_path, edit)
    with pytest.raises(RasterFormatError, match=named):
        load_raster(tmp_path / "g.bin")


def _replace_line(key, value):
    return lambda lines: [ln for ln in lines if not ln.startswith(key + "=")] \
        + [f"{key}={value}"]


@pytest.mark.parametrize("key,value,named", [
    ("width", "x", "invalid literal for int.*'x'"),
    ("height", "4.0", "invalid literal for int.*'4.0'"),
    ("nodata", "abc", "could not convert string to float: 'abc'"),
    ("gt", "0.0,1.0,0.0,0.0,0.0", "needs 6 comma-separated terms"),
    ("gt", "0.0,1.0,0.0,0.0,0.0,y", "could not convert string to float: 'y'"),
    ("gt", "nan,1.0,0.0,0.0,0.0,1.0", "not a finite number: 'nan'"),
], ids=["width", "height", "nodata", "gt-terms", "gt-number", "gt-finite"])
def test_bad_header_value_raises_naming_the_file(tmp_path, key, value, named):
    from coreg.raster import RasterFormatError

    _edit_header(tmp_path, _replace_line(key, value))
    with pytest.raises(RasterFormatError, match="^" + re.escape(
            f"{tmp_path / 'g.hdr'}: bad {key}= value: ") + named):
        load_raster(tmp_path / "g.bin")


@pytest.mark.parametrize("key", ["width", "height"])
def test_bad_pgm_sidecar_size_raises_naming_the_file(tmp_path, key):
    from coreg.raster import RasterFormatError

    path = tmp_path / "g.pgm"
    save_raster(as_grid(np.ones((4, 10), dtype=np.float32)), path)
    hdr = path.with_suffix(".hdr")
    hdr.write_text("".join(line + "\n" for line in _replace_line(key, "ten")(
        hdr.read_text().splitlines())))
    with pytest.raises(RasterFormatError, match="^" + re.escape(
            f"{hdr}: bad {key}= value: ") + "invalid literal for int"):
        load_raster(path)


# -- geotransform ----------------------------------------------------------


def test_pixel_to_geo_identity():
    gt = GeoTransform(0.0, 0.0, 1.0, 1.0)
    assert gt.pixel_to_geo(3, 7) == (3.0, 7.0)


def test_pixel_to_geo_utm_hand_values():
    gt = GeoTransform(500000.0, 4000000.0, 10.0, -10.0)
    assert gt.pixel_to_geo(0, 0) == (500000.0, 4000000.0)
    assert gt.pixel_to_geo(100, 50) == (501000.0, 3999500.0)


@settings(max_examples=60, deadline=None)
@given(gt_strategy(), st.floats(-2000, 2000), st.floats(-2000, 2000))
def test_geo_pixel_round_trip(gt, col, row):
    x, y = gt.pixel_to_geo(col, row)
    c2, r2 = gt.geo_to_pixel(x, y)
    assert abs(c2 - col) < 1e-9 * max(1.0, abs(col))
    assert abs(r2 - row) < 1e-9 * max(1.0, abs(row))


def test_singular_geotransform_rejected():
    gt = GeoTransform(0.0, 0.0, 0.0, 1.0, row_rot=0.0)
    with pytest.raises(SingularTransformError):
        gt.geo_to_pixel(1.0, 1.0)


# -- sampling --------------------------------------------------------------


def test_sample_integer_coordinates_exact():
    grid = as_grid(np.arange(12, dtype=np.float32).reshape(3, 4))
    for r in range(3):
        for c in range(4):
            assert sample_bilinear(grid, c, r) == grid.data[r, c]


def test_sample_midpoint_symmetry():
    grid = as_grid([[0.0, 0.0], [2.0, 2.0]], nodata=-1.0)
    assert sample_bilinear(grid, 0.5, 0.5) == 1.0


def test_sample_out_of_bounds_is_nodata():
    grid = as_grid([[1.0, 2.0], [3.0, 4.0]], nodata=-7.0)
    assert np.isnan(sample_bilinear(grid, -0.5, 0.0))
    assert np.isnan(sample_bilinear(as_grid([[1.0]]), -0.5, 0.0))


def test_sample_one_rounding_error_outside_is_the_edge_value():
    grid = as_grid(np.arange(20.0).reshape(4, 5))
    assert sample_bilinear(grid, 2.0, -1e-16) == 2.0
    assert sample_bilinear(grid, 4.0 + 1e-13, 1.0) == 9.0
    assert np.isnan(sample_bilinear(grid, 2.0, -1e-3))


def _compaction_sample_bilinear(grid, col, row):
    """The sampler as it was before it gathered every position: it compacts
    the in-grid positions, interpolates them and scatters them back into a
    float64 frame of NaN. Kept as the reference."""
    cols = np.asarray(col, dtype=np.float64)
    rows = np.asarray(row, dtype=np.float64)
    scalar = cols.ndim == 0 and rows.ndim == 0
    cols, rows = np.broadcast_arrays(cols, rows)
    out = np.full(cols.shape, np.nan, dtype=np.float64)

    h, w = grid.data.shape
    inb = ((cols >= -_EDGE_TOL) & (cols <= w - 1 + _EDGE_TOL)
           & (rows >= -_EDGE_TOL) & (rows <= h - 1 + _EDGE_TOL)
           & np.isfinite(cols) & np.isfinite(rows))
    if np.any(inb):
        c = np.clip(cols[inb], 0, w - 1)
        r = np.clip(rows[inb], 0, h - 1)
        c0 = np.minimum(np.floor(c).astype(np.intp), max(w - 2, 0))
        r0 = np.minimum(np.floor(r).astype(np.intp), max(h - 2, 0))
        c1 = np.minimum(c0 + 1, w - 1)
        r1 = np.minimum(r0 + 1, h - 1)
        fc = c - c0
        fr = r - r0
        data = grid.data
        v00 = data[r0, c0].astype(np.float64)
        v01 = data[r0, c1].astype(np.float64)
        v10 = data[r1, c0].astype(np.float64)
        v11 = data[r1, c1].astype(np.float64)
        vals = ((1 - fr) * ((1 - fc) * v00 + fc * v01)
                + fr * ((1 - fc) * v10 + fc * v11))
        bad = (np.isnan(v00) | np.isnan(v01)
               | np.isnan(v10) | np.isnan(v11))
        vals[bad] = np.nan
        out[inb] = vals
    if scalar:
        return float(out)
    return out


def _positions(rng, extent, n):
    """Positions across and beyond [0, extent - 1]: uniform ones, whole
    pixels, the edges nudged inside and beyond _EDGE_TOL, NaN and +-inf."""
    hi = extent - 1.0
    special = [0.0, hi, -0.5 * _EDGE_TOL, hi + 0.5 * _EDGE_TOL,
               -2.0 * _EDGE_TOL, hi + 2.0 * _EDGE_TOL, -1e-16, hi + 1e-13,
               np.nan, np.inf, -np.inf]
    pos = rng.uniform(-1.5, extent + 0.5, n)
    pos[::3] = np.floor(pos[::3])
    pos[rng.integers(0, n, 2 * len(special))] = np.repeat(special, 2)
    return pos


def _assert_bitwise(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", [(6, 7), (1, 9), (9, 1), (1, 1), (2, 2)])
@pytest.mark.parametrize("nodata", [None, "nan", -9999.0, 0.1])
def test_sample_equals_the_compaction_sampler(shape, nodata):
    rng = np.random.default_rng([shape[0], shape[1], 7])
    data = rng.uniform(-2.0, 2.0, shape).astype(np.float32)
    holes = rng.random(shape) < 0.15
    if nodata is None:
        data[holes] = np.nan    # NaN samples propagate when undeclared
    else:
        nodata = np.nan if nodata == "nan" else nodata
        data[holes] = nodata
    grid = as_grid(data, nodata=nodata)
    h, w = shape
    cols, rows = _positions(rng, w, 400), _positions(rng, h, 400)
    _assert_bitwise(sample_bilinear(grid, cols, rows),
                    _compaction_sample_bilinear(grid, cols, rows))
    # 0-d inputs return floats; mixed shapes broadcast
    for c, r in zip(cols[:40], rows[:40]):
        _assert_bitwise(sample_bilinear(grid, c, r),
                        _compaction_sample_bilinear(grid, c, r))
    c2, r2 = cols[:12].reshape(3, 4, 1), rows[:5]
    _assert_bitwise(sample_bilinear(grid, c2, r2),
                    _compaction_sample_bilinear(grid, c2, r2))
    _assert_bitwise(sample_bilinear(grid, c2, 0.5),
                    _compaction_sample_bilinear(grid, c2, 0.5))
    empty = np.empty(0)
    _assert_bitwise(sample_bilinear(grid, empty, empty),
                    _compaction_sample_bilinear(grid, empty, empty))


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_allocates_under_100_bytes_per_point():
    n = 65536
    rng = np.random.default_rng(11)
    grid = as_grid(rng.random((256, 256)).astype(np.float32), nodata=-1.0)
    cols = rng.uniform(-4.0, 260.0, n)
    rows = rng.uniform(-4.0, 260.0, n)
    assert _traced_peak(sample_bilinear, grid, cols, rows) / n <= 100.0


# -- warp ------------------------------------------------------------------


def test_warp_identity_model_equals_resample():
    img = texture(96, seed=4)
    sensed = as_grid(img)
    out, _ = warp(sensed, identity_warp(), sensed.geotransform, 96, 96)
    assert np.allclose(out.data, img, atol=1e-6)


def test_warp_translation_matches_shifted_truth():
    img = texture(128, seed=5)
    sensed = as_grid(img)
    out, _ = warp(sensed, translation_warp(5.0, -3.0), sensed.geotransform,
                  128, 128)
    # model maps target coords to sensed coords, so row r samples r-3
    valid = out.data[4:124, 6:120]
    truth = img[1:121, 11:125]
    c = np.corrcoef(valid.ravel(), truth.ravel())[0, 1]
    assert c > 0.999


def test_warp_outside_extent_is_nodata():
    sensed = as_grid(texture(32, seed=6), nodata=-5.0)
    out, _ = warp(sensed, translation_warp(100.0, 0.0), sensed.geotransform,
                  32, 32)
    assert np.isnan(out.data).all()
    assert out.nodata == -5.0


def test_warp_inverse_recovers_image():
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(8)
    img = gaussian_filter(rng.random((160, 160)), 3.0).astype(np.float32)
    sensed = as_grid(img)
    fwd = translation_warp(4.5, -2.25)
    inv = translation_warp(-4.5, 2.25)
    warped, _ = warp(sensed, fwd, sensed.geotransform, 160, 160)
    back, _ = warp(RasterGrid(warped.data, sensed.geotransform), inv,
                   sensed.geotransform, 160, 160)
    interior = (slice(8, 152), slice(8, 152))
    err = back.data[interior] - img[interior]
    rms = float(np.sqrt(np.mean(err ** 2)))
    assert rms < 0.02 * (img.max() - img.min())


def test_warp_counts_model_failures_not_extent_misses():
    # u = X / (1 - X/32), v = Y / (1 - X/32): the denominator is exactly 0
    # on column 32 and at least 1/32 in magnitude everywhere else. Columns
    # past 32 map outside the sensed extent, which is not a model failure.
    pole = ModelSpec("projective", 10)
    den = [1.0, -1.0 / 32.0, 0.0]
    model = FittedModel.from_coefficients(pole, [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0], den, den)
    sensed = as_grid(texture(48, seed=9), nodata=-5.0)
    out, failures = warp(sensed, model, sensed.geotransform, 48, 40)
    assert failures == 40
    assert np.isnan(out.data[:, 32]).all()
    assert out.nodata == -5.0


def _cubic_field(n):
    def field(x, y, z=0.0):
        u = 2.0 * x / (n - 1) - 1.0
        v = 2.0 * y / (n - 1) - 1.0
        return (x + 12.0 + 6.0 * u * v + 3.0 * u ** 3 + 0.004 * z,
                y - 9.0 + 5.0 * v * v - 2.0 * u * v * v - 0.003 * z)
    return field


@pytest.mark.parametrize("name", ["poly3", "proj22", "rfm3_distinct"])
def test_warp_allocates_its_output_plus_under_4_mib(name):
    n = 768
    field = _cubic_field(n)
    yy, xx = np.mgrid[0:n, 0:n]
    dem = as_grid((250.0 + 200.0 * np.sin(xx / 97.0) * np.cos(yy / 131.0))
                  .astype(np.float32))
    rng = np.random.default_rng(5)
    X, Y = rng.uniform(0.0, n - 1.0, (2, 120))
    Z = sample_bilinear(dem, X, Y)
    model = fit(model_spec_from_name(name),
                ControlPointArrays(X, Y, *field(X, Y, Z), Z))
    sensed = as_grid(texture(n, seed=12))
    peak = _traced_peak(warp, sensed, model, sensed.geotransform, n, n, dem)
    assert peak <= n * n * 4 + 4 * 2 ** 20


def _per_pixel_warp(sensed, model, target_gt, width, height, dem=None):
    """warp evaluating the model at every pixel's map position, as on a
    sheared target grid: the reference for the lattice evaluation."""
    rr, cc = np.mgrid[0:height, 0:width].astype(np.float64)
    gx, gy = target_gt.pixel_to_geo(cc, rr)
    inputs = [gx, gy]
    if model.spec.dims == 3:
        if dem.geotransform == target_gt and dem.data.shape == (height, width):
            inputs.append(dem.data.astype(np.float64))
        else:
            inputs.append(sample_bilinear(
                dem, *dem.geotransform.geo_to_pixel(gx, gy)))
    px, py = model.apply(*inputs)
    ok = np.isfinite(px) & np.isfinite(py)
    failures = 0
    if not model.has_unit_denominators:
        finite_in = np.logical_and.reduce([np.isfinite(a) for a in inputs])
        failures = int(np.count_nonzero(finite_in & ~ok))
    sc, sr = sensed.geotransform.geo_to_pixel(px, py)
    sc[~ok] = np.nan
    return sample_bilinear(sensed, sc, sr).astype(np.float32), failures


def _planted_warp_inputs(name, dem_kind, n=80):
    """A model of ``name`` fitted to a smooth field, with a north-up target
    grid and a textured sensed image on it; for a model over (X, Y, Z) a
    DEM on the target grid, off it (finer, shifted pixels), or on it with a
    nodata hole."""
    gt = GeoTransform(500.0, 900.0, 2.0, -2.0)
    field = _cubic_field(2 * n)
    dem = None
    if dem_kind is not None:
        dem_gt = gt if dem_kind != "off-grid" else \
            GeoTransform(497.3, 903.1, 1.5, -1.5)
        m = n if dem_kind != "off-grid" else 2 * n
        yy, xx = np.mgrid[0:m, 0:m]
        relief = 250.0 + 200.0 * np.sin(xx / 17.0) * np.cos(yy / 23.0)
        if dem_kind == "hole":
            relief[30:36, 40:44] = -9999.0
        dem = as_grid(relief, gt=dem_gt, nodata=-9999.0)
    rng = np.random.default_rng(8)
    cols, rows = rng.uniform(0.0, n - 1.0, (2, 150))
    # control points clear of the hole's bilinear neighbourhood
    clear = ~((cols > 38) & (cols < 45) & (rows > 28) & (rows < 37))
    x, y = gt.pixel_to_geo(cols[clear], rows[clear])
    heights = np.zeros_like(x)
    if dem is not None:
        heights = sample_bilinear(dem, *dem.geotransform.geo_to_pixel(x, y))
    sx, sy = gt.pixel_to_geo(*field(cols[clear], rows[clear], heights))
    cps = [ControlPoint(*map(float, p), ref_z=None if dem is None else z)
           for *p, z in zip(x, y, sx, sy, heights.tolist())]
    model = fit(model_spec_from_name(name), cps)
    sensed = as_grid(texture(n, seed=13), gt=gt, nodata=-5.0)
    return sensed, model, gt, dem


@pytest.mark.parametrize("name,dem_kind", [
    ("poly3", None), ("proj22", None), ("rfm3_distinct", "on-grid"),
    ("rfm3_distinct", "off-grid"), ("rfm2_shared", "hole")],
    ids=lambda a: a or "no-dem")
def test_lattice_warp_matches_the_per_pixel_warp(name, dem_kind):
    sensed, model, gt, dem = _planted_warp_inputs(name, dem_kind)
    n = sensed.width
    out, failures = warp(sensed, model, gt, n, n, dem)
    want, want_failures = _per_pixel_warp(sensed, model, gt, n, n, dem)
    assert failures == want_failures == 0
    assert out.nodata == -5.0
    fill = np.isnan(out.data)
    assert np.array_equal(fill, np.isnan(want))
    assert 0 < fill.sum() < n * n
    if dem_kind == "hole":
        assert fill[30:36, 40:44].all()
    # the model's sums differ by rounding, the samples by at most 1 ulp
    np.testing.assert_array_max_ulp(out.data[~fill], want[~fill], maxulp=1)


@pytest.mark.parametrize("name,dem_kind", [
    ("proj22", None), ("rfm2_distinct", "off-grid")])
def test_sheared_target_grid_warps_pixel_by_pixel(monkeypatch, name,
                                                    dem_kind):
    sensed, model, gt, dem = _planted_warp_inputs(name, dem_kind)
    sheared = GeoTransform(gt.origin_x, gt.origin_y, gt.pixel_w, gt.pixel_h,
                           row_rot=0.05, col_rot=-0.03)

    def refuse(*args):
        raise AssertionError("a sheared grid has no lattice")

    monkeypatch.setattr(FittedModel, "apply_lattice", refuse)
    n = sensed.width
    out, failures = warp(sensed, model, sheared, n, n, dem)
    want, want_failures = _per_pixel_warp(sensed, model, sheared, n, n, dem)
    assert failures == want_failures
    assert out.nodata == -5.0
    assert np.array_equal(out.data, want, equal_nan=True)
