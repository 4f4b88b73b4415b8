import math

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from coreg import cfog
from coreg.cfog import (
    M,
    REACH,
    SIGMA,
    DescriptorVolume,
    build_cfog,
    gradient_xy,
    orientation_channels,
    smooth_3d,
)

from conftest import texture


def test_constant_image_has_zero_gradients_and_volume():
    img = np.full((20, 20), 3.5, dtype=np.float32)
    gx, gy = gradient_xy(img)
    assert not gx.any() and not gy.any()
    assert not build_cfog(img).values.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_descriptor_keeps_the_image_float_dtype(dtype):
    vol = build_cfog(texture(24, seed=27).astype(dtype))
    assert vol.values.dtype == dtype


def test_integer_images_are_described_in_float64():
    img = (255 * texture(24, seed=28)).astype(np.uint8)
    assert build_cfog(img).values.dtype == np.float64


def test_volume_keeps_a_float32_array_without_copying():
    values = np.zeros((3, 4, 5), dtype=np.float32)
    assert DescriptorVolume(values=values).values is values


def test_every_stage_keeps_channel_major_planes():
    img = texture(21, 13, seed=30)
    gx, gy = gradient_xy(img)
    raw = orientation_channels(gx, gy)
    assert M == 9 and raw.shape == (M,) + img.shape
    assert smooth_3d(raw).shape == (M,) + img.shape
    assert build_cfog(img).values.shape == (M,) + img.shape
    region = (slice(3, 20), slice(2, 9))
    assert build_cfog(img, region=region).values.shape == (M, 17, 7)


def test_gradient_rejects_tiny_images():
    with pytest.raises(ValueError):
        gradient_xy(np.zeros((2, 2)))


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (9, 9), elements=st.floats(0, 1)))
def test_gradient_transpose_symmetry(img):
    gx, gy = gradient_xy(img)
    gxt, gyt = gradient_xy(img.T)
    assert np.array_equal(gxt, gy.T)
    assert np.array_equal(gyt, gx.T)


def test_diagonal_gradient_projects_to_sqrt2():
    gx = np.ones((5, 5))
    gy = np.ones((5, 5))
    channels = orientation_channels(gx, gy)
    # channel i responds |cos(t) + sin(t)| = sqrt(2) |cos(t - 45 deg)| at
    # t = i * 20 degrees
    for i in range(M):
        t = i * math.pi / M
        assert np.allclose(channels[i],
                           math.sqrt(2.0) * abs(math.cos(t - math.pi / 4)))


def test_impulse_smoothing_matches_separable_oracle():
    # an impulse in the last channel spreads circularly into channel 0
    raw = np.zeros((M, 9, 9))
    raw[M - 1, 4, 4] = 1.0
    out = smooth_3d(raw)

    radius = math.ceil(3 * SIGMA)
    assert REACH == radius + 1 == 4
    i = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(i ** 2) / (2 * SIGMA ** 2))
    g /= g.sum()
    zk = np.asarray(cfog._Z_KERNEL)
    expected = np.zeros_like(raw)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            for dz, wz in ((-1, zk[0]), (0, zk[1]), (1, zk[2])):
                expected[(M - 1 + dz) % M, 4 + dy, 4 + dx] = (
                    g[dy + radius] * g[dx + radius] * wz)
    assert expected[0].any() and not expected[1:M - 2].any()
    assert np.allclose(out, expected, atol=1e-12)


def test_smoothing_preserves_total_mass_on_padded_volume():
    rng = np.random.default_rng(21)
    raw = np.zeros((9, 16, 16))
    raw[:, 5:11, 5:11] = rng.random((9, 6, 6))
    mass = raw.sum()  # smooth_3d overwrites raw
    out = smooth_3d(raw)
    assert np.isclose(out.sum(), mass, rtol=1e-6)


def test_gamma_remap_keeps_descriptor_direction():
    img = texture(160, seed=22).astype(np.float64)
    v1 = build_cfog(img).values
    v2 = build_cfog(np.sqrt(img)).values
    n1 = np.linalg.norm(v1, axis=0)
    n2 = np.linalg.norm(v2, axis=0)
    ok = (n1 > 0) & (n2 > 0)
    cos = np.einsum("kij,kij->ij", v1, v2)[ok]
    assert float(np.mean(cos)) > 0.9


def _unnormalized(img):
    """The whole image's volume before the per-pixel normalization."""
    return smooth_3d(orientation_channels(*gradient_xy(img)))


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, (12, 12), elements=st.floats(0, 1)))
def test_descriptor_is_nonnegative(img):
    assert np.all(_unnormalized(img) >= 0)
    assert np.all(build_cfog(img).values >= 0)


def test_additive_offset_invariance():
    img = texture(48, seed=23).astype(np.float64)
    a = build_cfog(img).values
    b = build_cfog(img + 17.0).values
    assert np.allclose(a, b, atol=1e-9)


def test_global_scaling_behaviour():
    img = texture(48, seed=24).astype(np.float64)
    raw_a = _unnormalized(img)
    raw_b = _unnormalized(3.0 * img)
    assert np.allclose(raw_b, 3.0 * raw_a, rtol=1e-9)

    norm_a = build_cfog(img).values
    norm_b = build_cfog(3.0 * img).values
    assert np.allclose(norm_a, norm_b, atol=1e-9)


def test_channel_rotation_commutes_with_smoothing():
    rng = np.random.default_rng(25)
    raw = rng.random((9, 10, 10))
    a = smooth_3d(np.roll(raw, 1, axis=0))
    b = np.roll(smooth_3d(raw), 1, axis=0)
    assert np.allclose(a, b, atol=1e-12)


def _oracle_cfog(img, normalize, m=9, sigma=0.8,
                 z_kernel=(0.25, 0.5, 0.25)):
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    pad = np.pad(img, 1, mode="edge")
    gx = 0.5 * (pad[1:-1, 2:] - pad[1:-1, :-2])
    gy = 0.5 * (pad[2:, 1:-1] - pad[:-2, 1:-1])

    vol = np.zeros((m, h, w))
    for i in range(m):
        theta = i * math.pi / m
        vol[i] = np.abs(math.cos(theta) * gx + math.sin(theta) * gy)

    radius = math.ceil(3 * sigma)
    idx = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(idx ** 2) / (2 * sigma ** 2))
    g /= g.sum()

    def conv_nearest(arr, axis):
        out = np.zeros_like(arr)
        n = arr.shape[axis]
        for k, off in enumerate(range(-radius, radius + 1)):
            pos = np.clip(np.arange(n) - off, 0, n - 1)
            out += g[k] * np.take(arr, pos, axis=axis)
        return out

    vol = conv_nearest(conv_nearest(vol, 1), 2)
    zout = np.zeros_like(vol)
    for k, off in enumerate((-1, 0, 1)):
        zout += z_kernel[k] * np.take(vol, (np.arange(m) - off) % m, axis=0)
    if normalize:
        norms = np.linalg.norm(zout, axis=0, keepdims=True)
        zout = np.divide(zout, norms, out=np.zeros_like(zout),
                         where=norms > 0)
    return zout


@pytest.mark.parametrize("normalize", [False, True])
def test_matches_brute_force_oracle(normalize):
    img = texture(16, seed=26).astype(np.float64)
    want = _oracle_cfog(img, normalize)
    # the float64 oracle against each volume precision
    for dtype, atol in ((np.float64, 1e-9), (np.float32, 1e-6)):
        data = img.astype(dtype)
        got = build_cfog(data).values if normalize else _unnormalized(data)
        assert got.dtype == dtype
        assert np.allclose(got, want, atol=atol)


def _grown_crop(img, region):
    """The part of ``img`` a region's descriptor sees, and where the
    region sits in it."""
    rows, cols = region
    h, w = img.shape
    r_lo, r_hi, _ = rows.indices(h)
    c_lo, c_hi, _ = cols.indices(w)
    top, left = max(r_lo - REACH, 0), max(c_lo - REACH, 0)
    crop = img[top:min(r_hi + REACH, h), left:min(c_hi + REACH, w)]
    return crop, (slice(r_lo - top, r_hi - top),
                  slice(c_lo - left, c_hi - left))


def _three_pass_reference(img, region, normalize):
    """The descriptor as three passes over the whole reach-grown crop:
    convolve1d over rows, then columns, then orientations (wrap), then the
    crop to ``region`` and the normalization."""
    crop, (rows, cols) = _grown_crop(img, region)
    vol = orientation_channels(*gradient_xy(crop))
    kernel = cfog._GAUSSIAN
    convolve1d = scipy.ndimage.convolve1d
    vol = convolve1d(vol, kernel, axis=1, mode="nearest")
    vol = convolve1d(vol, kernel, axis=2, mode="nearest")
    vol = convolve1d(vol, np.asarray(cfog._Z_KERNEL), axis=0, mode="wrap")
    vol = vol[:, rows, cols].copy()
    if normalize:
        norms = vol[0] * vol[0]
        for plane in vol[1:]:
            norms += plane * plane
        np.sqrt(norms, out=norms)
        np.divide(vol, norms, out=vol, where=norms > 0)
    return vol


@pytest.mark.parametrize("region", [
    (slice(9, 37), slice(6, 29)),
    (slice(0, 24), slice(10, 40)),
], ids=["interior", "edges"])
@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_descriptor_equals_the_three_pass_reference_bitwise(region, normalize,
                                                            dtype):
    img = texture(48, 40, seed=31).astype(dtype)
    # a flat patch gives zero vectors; in float32 the tiny step inside it
    # gives vectors whose squares underflow
    img[12:30, 10:22] = 0.0
    img[25, 12] = 1e-39
    if normalize:
        got = build_cfog(img, region=region).values
    else:
        crop, keep = _grown_crop(img, region)
        got = smooth_3d(orientation_channels(*gradient_xy(crop)), keep=keep)
    want = _three_pass_reference(img, region, normalize)
    assert got.dtype == want.dtype == dtype
    assert not want.any(axis=0).all()
    assert ((want > 0) & (want < 1e-30)).any() == (
        dtype == np.float32 or not normalize)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_smoothing_only_the_kept_part_equals_cropping_the_whole(dtype):
    raw = np.random.default_rng(32).random((M, 17, 23)).astype(dtype)
    keep = (slice(4, 13), slice(2, 20))
    whole = smooth_3d(raw.copy())
    out = np.empty((M, 9, 18), dtype)
    kept = smooth_3d(raw.copy(), keep=keep, out=out)
    assert kept is out
    assert kept.tobytes() == whole[(slice(None),) + keep].tobytes()
