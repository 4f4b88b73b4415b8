import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coreg.geomodels import ControlPoint, FittedModel, ModelSpec, fit
from coreg.raster import (
    EmptyOverlapError,
    GeoTransform,
    RasterGrid,
    SingularTransformError,
    Window,
    crop_to_overlap,
    load_raster,
    read_window,
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


# -- crop_to_overlap -------------------------------------------------------


def test_crop_identity_when_extents_match():
    ref = as_grid(texture(64, seed=1))
    sensed = as_grid(texture(64, seed=2))
    out = crop_to_overlap(sensed, ref, margin=0)
    assert np.array_equal(out.data, sensed.data)
    assert out.geotransform == sensed.geotransform


def test_crop_centered_with_margin():
    sensed = as_grid(texture(400, seed=3))
    ref_gt = GeoTransform(100.0, 100.0, 1.0, 1.0)
    ref = as_grid(np.zeros((200, 200), dtype=np.float32), ref_gt)
    out = crop_to_overlap(sensed, ref, margin=10)
    assert (out.data.shape[1], out.data.shape[0]) == (220, 220)
    assert out.geotransform.origin_x == 90.0
    assert out.geotransform.origin_y == 90.0
    # retained samples are copies, never resampled
    assert np.array_equal(out.data, sensed.data[90:310, 90:310])


def test_crop_disjoint_extents():
    sensed = as_grid(np.zeros((50, 50), dtype=np.float32))
    ref = as_grid(np.zeros((50, 50), dtype=np.float32),
                  GeoTransform(1000.0, 1000.0, 1.0, 1.0))
    with pytest.raises(EmptyOverlapError):
        crop_to_overlap(sensed, ref, margin=0)


def test_read_window_exact_block():
    grid = as_grid(np.arange(36, dtype=np.float32).reshape(6, 6))
    block = read_window(grid, Window(col0=2, row0=1, w=3, h=2))
    assert np.array_equal(block, grid.data[1:3, 2:5])


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
    assert sample_bilinear(grid, -0.5, 0.0) == -7.0
    assert np.isnan(sample_bilinear(as_grid([[1.0]]), -0.5, 0.0))


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
    assert np.all(out.data == -5.0)


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
    assert np.all(out.data[:, 32] == -5.0)
