import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from coreg import matcher
from coreg.cfog import M, DescriptorVolume, build_cfog
from coreg.keypoints import BlockGridParams, InterestPoint, detect_block_fast
from coreg.matcher import (
    MatchParams,
    correspondences_from_csv,
    correspondences_to_csv,
    match_all,
    phase_correlate_3d,
    predict_search_center,
)
from coreg.raster import GeoTransform, RasterGrid
from coreg.synthgen import SynthSpec, generate, translation_warp

from conftest import as_grid, texture


def _vol(seed, h=32, w=32, m=4):
    rng = np.random.default_rng(seed)
    return DescriptorVolume(values=rng.random((m, h, w)))


# -- phase correlation -----------------------------------------------------


def test_zero_shift_on_identical_volumes():
    v = _vol(1)
    x0, y0, peak = phase_correlate_3d(v, v)
    assert (x0, y0) == (0.0, 0.0)
    assert peak > 0


def test_recovers_planted_circular_shift():
    t = _vol(2)
    s = DescriptorVolume(values=np.roll(t.values, (-12, 7), axis=(1, 2)))
    x0, y0, _ = phase_correlate_3d(t, s)
    assert (x0, y0) == (7.0, -12.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(-15, 15), st.integers(-15, 15))
def test_circular_shift_exactness_and_bounds(seed, dx, dy):
    t = _vol(seed)
    s = DescriptorVolume(values=np.roll(t.values, (dy, dx), axis=(1, 2)))
    x0, y0, _ = phase_correlate_3d(t, s)
    assert (x0, y0) == (float(dx), float(dy))
    assert abs(x0) <= 16 and abs(y0) <= 16


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(-10, 10), st.integers(-10, 10))
def test_swap_negates_offset(seed, dx, dy):
    t = _vol(seed)
    s = DescriptorVolume(values=np.roll(t.values, (dy, dx), axis=(1, 2)))
    fx, fy, _ = phase_correlate_3d(t, s)
    bx, by, _ = phase_correlate_3d(s, t)
    assert (bx, by) == (-fx, -fy)


def test_phase_correlation_is_deterministic():
    t, s = _vol(3), _vol(4)
    assert phase_correlate_3d(t, s) == phase_correlate_3d(t, s)


def test_flat_volume_gives_no_match():
    flat = DescriptorVolume(values=np.zeros((4, 16, 16)))
    assert phase_correlate_3d(flat, _vol(5, 16, 16)) is None
    # a zero search volume, and a zero template smaller than the search frame
    assert phase_correlate_3d(_vol(5, 16, 16), flat) is None
    small = DescriptorVolume(values=np.zeros((4, 8, 12), dtype=np.float32))
    assert phase_correlate_3d(small, _vol(6, 16, 16)) is None


def test_channel_counts_must_agree():
    with pytest.raises(ValueError, match="channel counts differ: 4 vs 3"):
        phase_correlate_3d(_vol(9, m=4), _vol(10, m=3))


@pytest.mark.parametrize("t_shape", [(4, 33, 32), (4, 32, 33)])
def test_template_must_fit_the_search_frame(t_shape):
    t = DescriptorVolume(values=np.ones(t_shape))
    frame = r"template \(4, 3[23], 3[23]\) exceeds search frame \(4, 32, 32\)"
    with pytest.raises(ValueError, match=frame):
        phase_correlate_3d(t, _vol(11))


def test_non_finite_cross_power_gives_no_match():
    s = _vol(6)
    s.values[1, 3, 4] = np.nan
    assert phase_correlate_3d(_vol(7), s) is None


def test_float32_volumes_recover_a_planted_shift():
    t = DescriptorVolume(values=_vol(8).values.astype(np.float32))
    s = DescriptorVolume(values=np.roll(t.values, (5, -9), axis=(1, 2)))
    x0, y0, _ = phase_correlate_3d(t, s)
    assert (x0, y0) == (-9.0, 5.0)


def test_true_peak_dominates_spurious_peak():
    big = texture(300, seed=31)
    t = build_cfog(big[100:164, 100:164])
    right = build_cfog(big[90:218, 90:218])
    wrong = build_cfog(big[170:298, 10:138])
    _, _, p_true = phase_correlate_3d(t, right)
    _, _, p_false = phase_correlate_3d(t, wrong)
    assert p_true > 1.5 * p_false


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t_shape, frame", [
    ((50, 50, 9), (100, 100)), ((100, 100, 9), (200, 200)),
    ((7, 5, 3), (15, 17)), ((1, 1, 1), (4, 5)), ((33, 20, 8), (40, 41)),
    ((16, 16, 5), (16, 16)), ((12, 3, 4), (13, 30)),
])
def test_template_spectrum_is_the_padded_rfftn(t_shape, frame, dtype):
    from scipy import fft

    rng = np.random.default_rng(list(t_shape + frame))
    t = rng.random(t_shape).astype(dtype)
    h, w = frame
    m = t_shape[2]
    # the channel-last spectrum, as planes, is the planes' spectrum
    want = np.ascontiguousarray(
        fft.rfftn(t, s=(m, h, w), axes=(2, 0, 1)).transpose(2, 0, 1))
    planes = np.ascontiguousarray(t.transpose(2, 0, 1))
    assert np.array_equal(
        fft.rfftn(planes, s=(m, h, w), axes=(0, 1, 2)).view(np.uint8),
        want.view(np.uint8))
    # templates are also planes of a larger channel-major descriptor
    framed = np.zeros((m, t_shape[0] + 5, t_shape[1] + 4), dtype)
    framed[:, 2:-3, 1:-3] = planes
    for template in (planes, framed[:, 2:-3, 1:-3]):
        got = matcher._padded_spectrum(template, h, w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def _divide_and_sum(T, S):
    """The normalization and channel sum as they were done on channel-last
    (h, w, m) spectra: a masked divide by the magnitude, then
    ``sum(axis=2)``; None when the cross-power spectrum is all zero or not
    finite."""
    cross = np.multiply(np.conjugate(T, out=T), S, out=S)
    mag = np.abs(cross)
    guard = matcher.SPECTRUM_GUARD * mag.max()
    if not (np.isfinite(guard) and guard > 0.0):
        return None
    strong = mag >= guard
    np.divide(cross, mag, out=cross, where=strong)
    cross[~strong] = 0.0
    return cross.sum(axis=2)


def _dividing_cross_power(t, s):
    """The channel-summed cross-power spectrum as it was formed from
    channel-last (h, w, m) volumes."""
    from scipy import fft

    h, w, m = s.shape
    return _divide_and_sum(fft.rfftn(t, s=(m, h, w), axes=(2, 0, 1)),
                           fft.rfftn(s, axes=(2, 0, 1)))


def _cross_power_cases():
    rng = np.random.default_rng(41)
    for dtype in (np.float32, np.float64):
        for (h, w), (th, tw), m in (((200, 200), (100, 100), 9),
                                    ((40, 41), (33, 20), 8),
                                    ((31, 16), (9, 16), 1),
                                    ((24, 30), (11, 7), 5)):
            s = rng.random((h, w, m)).astype(dtype)
            t = rng.random((th, tw, m)).astype(dtype)
            yield "random", t, s
            if m > 1:
                # all-zero channels on either side
                s0, t0 = s.copy(), t.copy()
                s0[..., m // 2] = 0.0
                t0[..., 0] = 0.0
                yield "zero channels", t0, s0
            # nearly constant templates: most bins fall below the guard
            yield "weak bins", (1.0 + 1e-7 * t).astype(dtype), s
    # a constant against a column checkerboard: the spectra share no bin
    s = np.ones((4, 4, 2))
    s[:, 1::2] = -1.0
    yield "all zero", np.ones((2, 2, 2)), s
    yield "not finite", np.ones((2, 2, 2)), np.where(s > 0, np.nan, s)


def _assert_within_summing_rounding(got, want, m):
    """The plane-by-plane channel sum differs from the channel-last pairwise
    one by rounding only: at most 2*m*eps at every element, each summand
    having magnitude at most 1."""
    assert got.dtype == want.dtype and got.shape == want.shape
    eps = np.finfo(want.real.dtype).eps
    err = np.abs(got.astype(np.complex128) - want.astype(np.complex128))
    assert err.max() <= 2 * m * eps


def test_cross_power_matches_the_channel_last_divide_and_sum():
    kinds = set()
    for kind, t, s in _cross_power_cases():
        want = _dividing_cross_power(t, s)
        got = matcher._summed_cross_power(
            np.ascontiguousarray(t.transpose(2, 0, 1)),
            np.ascontiguousarray(s.transpose(2, 0, 1)))
        assert (got is None) == (want is None), kind
        if want is not None:
            _assert_within_summing_rounding(got, want, s.shape[2])
        kinds.add((kind, want is None))
    assert kinds == {("random", False), ("zero channels", False),
                     ("weak bins", False), ("all zero", True),
                     ("not finite", True)}


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_signed_zeros_normalize_as_the_divide(monkeypatch, dtype):
    # spectra with exact zeros of either sign in real and imaginary parts
    rng = np.random.default_rng(43)
    S, T = (rng.standard_normal((2, 9, 20, 11))
            + 1j * rng.standard_normal((2, 9, 20, 11))).astype(dtype)
    for spectrum in (S, T):
        parts = spectrum.view(spectrum.real.dtype).reshape(-1)
        picked = rng.random(parts.size)
        parts[picked < 0.2] = 0.0
        parts[picked > 0.8] = -0.0
    monkeypatch.setattr(matcher, "_padded_spectrum", lambda t, h, w: T.copy())
    monkeypatch.setattr(scipy.fft, "rfftn", lambda s, axes: S.copy())
    got = matcher._summed_cross_power(None, np.empty((9, 20, 20)))
    want = _divide_and_sum(np.ascontiguousarray(T.transpose(1, 2, 0)),
                           np.ascontiguousarray(S.transpose(1, 2, 0)))
    _assert_within_summing_rounding(got, want, 9)


def test_weak_bins_cases_hold_nonzero_bins_below_the_guard():
    from scipy import fft

    cases = [(t, s) for kind, t, s in _cross_power_cases()
             if kind == "weak bins"]
    nonzero = []
    for t, s in cases:
        h, w, m = s.shape
        mag = np.abs(np.conjugate(fft.rfftn(t, s=(m, h, w), axes=(2, 0, 1)))
                     * fft.rfftn(s, axes=(2, 0, 1)))
        weak = mag < matcher.SPECTRUM_GUARD * mag.max()
        assert weak.any() and not weak.all()
        nonzero.append(bool((mag[weak] > 0).any()))
    # a float32 (31, 16, 1) frame rounds every weak bin to zero
    assert len(cases) == 8 and sum(nonzero) == 7


# -- search-window prediction ----------------------------------------------


def test_predict_center_identical_geotransforms():
    grid = as_grid(texture(64, seed=32))
    pt = InterestPoint(col=20, row=30, score=1.0)
    assert predict_search_center(pt, grid, grid) == (20, 30)


def test_predict_center_offset_origin():
    gt_ref = GeoTransform(0.0, 0.0, 10.0, 10.0)
    gt_sen = GeoTransform(30.0, 30.0, 10.0, 10.0)
    ref = as_grid(texture(64, seed=33), gt_ref)
    sen = as_grid(texture(64, seed=34), gt_sen)
    pt = InterestPoint(col=20, row=30, score=1.0)
    assert predict_search_center(pt, ref, sen) == (17, 27)


# -- match_all -------------------------------------------------------------


def _pair_with_shift(dx, dy, size=256, seed=35):
    big = texture(size + 64, seed=seed)
    ref = big[32:32 + size, 32:32 + size]
    sen = big[32 - dy:32 - dy + size, 32 - dx:32 - dx + size]
    return as_grid(ref), as_grid(sen)


def test_identical_images_match_at_zero_offset():
    ref, _ = _pair_with_shift(0, 0)
    params = MatchParams(template_size=64, search_size=128)
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=2, border=70))
    assert pts
    for pt in pts:
        (c,), _ = match_all([pt], ref, ref, params)
        assert (c.sensed_col, c.sensed_row) == (c.ref_col, c.ref_row)


def test_translated_copy_matches_exactly():
    ref, sen = _pair_with_shift(5, 3)
    params = MatchParams(template_size=64, search_size=128)
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=2, border=70))
    assert pts
    for pt in pts:
        (c,), _ = match_all([pt], ref, sen, params)
        assert (c.sensed_col - c.ref_col, c.sensed_row - c.ref_row) == (5, 3)


def test_window_off_the_edge_is_skipped():
    ref, sen = _pair_with_shift(0, 0, size=128)
    params = MatchParams(template_size=64, search_size=128)
    corrs, stats = match_all([InterestPoint(col=10, row=64, score=1.0)], ref,
                             sen, params)
    assert corrs == [] and stats.skipped == {"template-window": 1}


def test_match_all_empty_input():
    ref, sen = _pair_with_shift(0, 0, size=128)
    corrs, stats = match_all([], ref, sen, MatchParams())
    assert corrs == [] and stats.attempted == 0


def test_match_all_is_permutation_independent():
    ref, sen = _pair_with_shift(4, -2)
    params = MatchParams(template_size=64, search_size=128)
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=3, border=70))
    fwd, _ = match_all(pts, ref, sen, params)
    rev, _ = match_all(pts[::-1], ref, sen, params)
    key = lambda c: (c.ref_col, c.ref_row)
    assert sorted(fwd, key=key) == sorted(rev, key=key)


@pytest.fixture(scope="module")
def distorted_corpus_pair():
    spec = SynthSpec(size=768, warp=translation_warp(5.0, 3.0),
                     radiometry="gamma", gamma=0.4, speckle_var=0.05,
                     seed=41)
    ref, sen, _, _ = generate(spec)
    return ref, sen


def test_radiometric_distortion_survival_rate(distorted_corpus_pair):
    ref, sen = distorted_corpus_pair
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=17, border=110))
    assert len(pts) >= 120
    corrs, stats = match_all(pts, ref, sen, MatchParams())
    assert stats.matched >= 0.95 * len(pts)
    good = sum(1 for c in corrs
               if abs(c.sensed_col - c.ref_col - 5) <= 1
               and abs(c.sensed_row - c.ref_row - 3) <= 1)
    assert good >= 0.95 * len(pts)


@pytest.fixture(scope="module")
def identity_pair_600():
    ref, sen, _, _ = generate(SynthSpec(size=600, seed=3))
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=4, border=100))
    return ref, sen, pts


@pytest.mark.parametrize("sentinel", [np.nan, -9999.0])
def test_windows_touching_nodata_are_skipped(identity_pair_600, sentinel):
    ref, sen, pts = identity_pair_600
    data = sen.data.copy()
    data[:, :150] = sentinel
    gapped = as_grid(data, sen.geotransform, sen.crs_tag, nodata=sentinel)
    params = MatchParams()
    corrs, stats = match_all(pts, ref, gapped, params)
    # identical geotransforms: the search window starts at col - S/2
    half = params.search_size // 2
    touching = [pt for pt in pts if pt.col - half < 150]
    assert touching
    assert stats.skipped == {"nodata": len(touching)}
    assert len(corrs) == len(pts) - len(touching)
    for c in corrs:
        assert c.ref_col - half >= 150
        assert (c.sensed_col, c.sensed_row) == (c.ref_col, c.ref_row)


@pytest.fixture(scope="module")
def shifted_pair_600():
    """A (3, -2) px translation whose sensed image has a hole at rows
    150-170, cols 302-320: 2 px right of the search window of the point at
    (200, 200)."""
    ref, sen, _, _ = generate(SynthSpec(size=600, seed=3,
                                        warp=translation_warp(3, -2)))
    return ref, sen


def _with_hole(grid, sentinel):
    data = grid.data.copy()
    data[150:171, 302:321] = sentinel
    return as_grid(data, grid.geotransform, grid.crs_tag, nodata=sentinel)


@pytest.mark.parametrize("sentinel", [np.nan, -9999.0])
def test_hole_next_to_a_search_window_does_not_move_its_match(
        shifted_pair_600, sentinel):
    ref, sen = shifted_pair_600
    gapped = _with_hole(sen, sentinel)
    corrs, stats = match_all([InterestPoint(col=200, row=200, score=1.0)],
                             ref, gapped, MatchParams())
    assert stats.matched == 1
    c = corrs[0]
    assert (c.sensed_col - c.ref_col, c.sensed_row - c.ref_row) == (3, -2)
    assert c.peak > 0


# one row per strip tile, and one tile taller than the images
@pytest.mark.parametrize("tile_rows", [1, 10 ** 6])
def test_window_volumes_equal_the_whole_image_descriptor(
        shifted_pair_600, monkeypatch, tile_rows):
    ref, sen = shifted_pair_600
    gapped = _with_hole(sen, np.nan)
    # plus a search window 2 px from the hole, inside the descriptor's reach
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=4, border=100))
    pts.append(InterestPoint(col=200, row=200, score=1.0))
    calls = []
    phase_correlate = matcher.phase_correlate_3d

    def recording(t_vol, s_vol, subpixel=False):
        # search volumes are views into a strip that later tiles overwrite
        calls.append((t_vol.values.copy(), s_vol.values.copy()))
        return phase_correlate(t_vol, s_vol, subpixel)

    monkeypatch.setattr(matcher, "_STRIP_TILE", tile_rows)
    monkeypatch.setattr(matcher, "phase_correlate_3d", recording)
    params = MatchParams()
    _, stats = match_all(pts, ref, gapped, params)

    ref_whole = build_cfog(ref.data).values
    sen_whole = build_cfog(np.nan_to_num(gapped.data, nan=0.0)).values
    T, S = params.template_size, params.search_size
    expected = []
    for pt in pts:
        pc, pr = predict_search_center(pt, ref, gapped)
        expected.append((
            ref_whole[:, pt.row - T // 2:pt.row + T // 2,
                      pt.col - T // 2:pt.col + T // 2],
            sen_whole[:, pr - S // 2:pr + S // 2, pc - S // 2:pc + S // 2]))
    screened = sum(stats.skipped.get(reason, 0) for reason in
                   ("template-window", "search-window", "nodata", "flat"))
    assert stats.skipped.get("nodata", 0) >= 1
    assert len(calls) == len(pts) - screened >= 8
    found = []
    for t, s in calls:
        assert t.dtype == s.dtype == np.float32
        hits = [k for k, (te, se) in enumerate(expected)
                if te.shape == t.shape and se.shape == s.shape
                and np.array_equal(t, te) and np.array_equal(s, se)]
        assert len(hits) == 1
        found += hits
    assert len(set(found)) == len(calls)


def test_match_all_memory_is_bounded_by_the_sensed_strip():
    ref, sen = _pair_with_shift(3, -2, size=1024, seed=37)
    params = MatchParams()
    grid = np.linspace(100, 924, 8).astype(int)
    pts = [InterestPoint(col=int(c), row=int(r), score=1.0)
           for r in grid for c in grid]
    strip_bytes = ((params.search_size + matcher._STRIP_TILE) * sen.width
                   * M * 4)
    tracemalloc.start()
    try:
        corrs, stats = match_all(pts, ref, sen, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.matched == len(pts) == 64
    assert all((c.sensed_col - c.ref_col, c.sensed_row - c.ref_row) == (3, -2)
               for c in corrs)
    assert peak <= 3 * strip_bytes, f"{peak / strip_bytes:.2f} strips"


def test_correspondence_csv_round_trip():
    ref, sen = _pair_with_shift(4, -2)
    params = MatchParams(template_size=64, search_size=128)
    pts = detect_block_fast(ref.data, BlockGridParams(n_blocks=2, border=70))
    corrs, _ = match_all(pts, ref, sen, params)
    text = correspondences_to_csv(corrs)
    assert correspondences_from_csv(text) == corrs
    assert correspondences_to_csv(correspondences_from_csv(text)) == text
