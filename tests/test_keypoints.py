import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from coreg import keypoints
from coreg.keypoints import (
    _ARC_MEMBERS,
    CIRCLE,
    BlockGridParams,
    _resolve_threshold,
    detect_block_fast,
    fast_score_map,
)
from coreg.synthgen import SynthSpec, cubic_truth, generate

from conftest import as_grid, texture


def fast_score(image, col, row, threshold):
    """Segment-test corner score at one pixel at least 3 px inside the
    image, through fast_score_map on its 7 x 7 neighbourhood."""
    data = np.asarray(image)
    assert 3 <= row < data.shape[0] - 3 and 3 <= col < data.shape[1] - 3
    window = data[row - 3:row + 4, col - 3:col + 4]
    return float(fast_score_map(window, threshold)[3, 3])


def _selecting_score_map(data, threshold):
    """fast_score_map as it was before its second pass multiplied by the
    arc bit: |d_i| - threshold is selected with np.where."""
    data = np.asarray(data)
    h, w = data.shape
    scores = np.zeros((h, w), dtype=np.float64)
    if h < 7 or w < 7:
        return scores
    for y0 in range(3, h - 3, keypoints._STRIP_ROWS):
        y1 = min(y0 + keypoints._STRIP_ROWS, h - 3)
        n = y1 - y0
        block = np.asarray(data[y0 - 3:y1 + 3, :], dtype=np.float64)
        center = block[3:3 + n, 3:w - 3]

        def diff(i):
            dc, dr = CIRCLE[i]
            return block[3 + dr:3 + dr + n, 3 + dc:w - 3 + dc] - center

        bright = np.zeros(center.shape, dtype=np.uint16)
        dark = np.zeros(center.shape, dtype=np.uint16)
        for i in reversed(range(len(CIRCLE))):
            d = diff(i)
            bright <<= 1
            bright |= d > threshold
            dark <<= 1
            dark |= d < -threshold
        members = _ARC_MEMBERS[bright] | _ARC_MEMBERS[dark]

        strip_score = scores[y0:y1, 3:w - 3]
        for i in range(len(CIRCLE)):
            contrib = np.abs(diff(i))
            contrib -= threshold
            strip_score += np.where(members & np.uint16(1 << i), contrib, 0.0)
    return scores


def _full_frame_detection(data, params, nodata=None):
    """detect_block_fast as it was before it scored the interior alone: the
    whole frame is scored, the border zeroed, and each block sorted."""
    data = np.asarray(data)
    if nodata is not None:
        data = np.where(data == np.float32(nodata), np.float32(np.nan), data)
    border = max(params.border, 3)
    threshold = _resolve_threshold(data, params.fast_threshold)
    scores = _selecting_score_map(data, threshold)
    scores[:border], scores[-border:] = 0.0, 0.0
    scores[:, :border], scores[:, -border:] = 0.0, 0.0
    return _lexsort_selection(scores, params.n_blocks, params.k_per_block)


@pytest.fixture(scope="module")
def flat_scene_reference():
    """The 768 px reference of the flat-scene benchmark scene (seed 2)."""
    spec = SynthSpec(size=768, warp=cubic_truth(2048), radiometry="gamma",
                     gamma=0.8, speckle_var=0.005, seed=2)
    return generate(spec)[0].data


def test_constant_image_yields_nothing():
    img = np.full((64, 64), 0.7, dtype=np.float32)
    assert detect_block_fast(img, BlockGridParams(n_blocks=4)) == []


def test_single_bright_dot_hand_score():
    img = np.zeros((16, 16), dtype=np.float32)
    img[8, 8] = 1.0
    # every circle pixel is darker than the dot by 1.0: a 16-long arc
    score = fast_score(img, 8, 8, threshold=0.2)
    assert np.isclose(score, 16 * (1.0 - 0.2))
    pts = detect_block_fast(img, BlockGridParams(n_blocks=1,
                                                 fast_threshold=0.2))
    assert [(p.col, p.row) for p in pts] == [(8, 8)]


def test_step_edge_is_not_a_corner():
    img = np.zeros((32, 32), dtype=np.float32)
    img[:, 16:] = 1.0
    # a straight bi-level edge splits the circle into arcs shorter than 9
    for col in (15, 16, 17):
        for row in (8, 16, 24):
            assert fast_score(img, col, row, threshold=0.1) == 0.0
    assert detect_block_fast(img, BlockGridParams(n_blocks=2,
                                                  fast_threshold=0.1)) == []


def test_large_grid_is_capped_and_covers_responsive_blocks():
    img = texture(2000, seed=11)
    params = BlockGridParams(n_blocks=20, k_per_block=1)
    pts = detect_block_fast(img, params)
    assert len(pts) <= 400

    thr = 0.02 * float(img.max() - img.min())
    scores = fast_score_map(img, thr)
    border = max(params.border, 3)
    scores[:border], scores[-border:] = 0.0, 0.0
    scores[:, :border], scores[:, -border:] = 0.0, 0.0
    got = {(p.row // 100, p.col // 100) for p in pts}
    bh = bw = 2000 // 20
    for by in range(20):
        for bx in range(20):
            block = scores[by * bh:(by + 1) * bh, bx * bw:(bx + 1) * bw]
            if np.any(block > 0):
                assert (by, bx) in got


def test_single_block_top_k_matches_exhaustive_sort():
    img = texture(64, seed=12)
    params = BlockGridParams(n_blocks=1, k_per_block=5, fast_threshold=0.05)
    pts = detect_block_fast(img, params)
    scores = fast_score_map(img, 0.05)
    scores[:3], scores[-3:] = 0.0, 0.0
    scores[:, :3], scores[:, -3:] = 0.0, 0.0
    rs, cs = np.nonzero(scores > 0)
    order = np.lexsort((cs, rs, -scores[rs, cs]))
    expected = [(cs[i], rs[i], scores[rs[i], cs[i]]) for i in order[:5]]
    assert [(p.col, p.row, p.score) for p in pts] == expected


def _lexsort_selection(scores, n, k):
    """Top K per block by sorting every positive score of the block."""
    h, w = scores.shape
    bh, bw = h // n, w // n
    found = []
    for by in range(n):
        r0, r1 = by * bh, h if by == n - 1 else (by + 1) * bh
        for bx in range(n):
            c0, c1 = bx * bw, w if bx == n - 1 else (bx + 1) * bw
            sub = scores[r0:r1, c0:c1]
            rs, cs = np.nonzero(sub > 0)
            order = np.lexsort((cs, rs, -sub[rs, cs]))
            found += [(c0 + cs[i], r0 + rs[i], sub[rs[i], cs[i]])
                      for i in order[:k]]
    return found


@pytest.mark.parametrize("k", [1, 3])
def test_partitioned_top_k_equals_the_full_lexsort(monkeypatch, k):
    rng = np.random.default_rng(15)
    scores = np.zeros((60, 60))
    # few distinct levels: ties at, above and below the K-th score
    scores[rng.random(scores.shape) < 0.5] = 1.0
    scores += rng.integers(0, 4, scores.shape) * (scores > 0)
    scores[20:40, 20:40] = 2.0               # a block tied throughout
    scores[33:35, 40:43] = 9.0               # more maxima than K
    scores[40:60, 0:20] = 0.0                # a block with one candidate
    scores[50, 5] = 0.5
    # a score map is zero within 3 px of its edges
    bordered = scores.copy()
    bordered[:3], bordered[-3:] = 0.0, 0.0
    bordered[:, :3], bordered[:, -3:] = 0.0, 0.0
    monkeypatch.setattr(keypoints, "fast_score_map",
                        lambda data, threshold: bordered.copy())
    params = BlockGridParams(n_blocks=3, k_per_block=k, border=3)
    pts = detect_block_fast(np.zeros(scores.shape), params)
    expected = _lexsort_selection(bordered, 3, k)
    assert [(p.col, p.row, p.score) for p in pts] == expected
    assert len(expected) == 8 * k + 1


@pytest.mark.parametrize("k, expected", [
    (1, [(5, 1, 5.0), (2, 7, 2.0), (10, 10, 7.0)]),
    (3, [(5, 1, 5.0), (1, 2, 5.0), (4, 2, 5.0),
         (2, 7, 2.0), (3, 9, 0.5),
         (10, 10, 7.0), (9, 6, 3.0), (7, 8, 3.0)]),
])
def test_block_selection_on_a_hand_built_score_map(monkeypatch, k, expected):
    scores = np.zeros((12, 12))
    # block (0, 0): three maxima tied, one lower score
    scores[2, 4] = scores[1, 5] = scores[2, 1] = 5.0
    scores[0, 0] = 1.0
    # block (0, 1): nothing above zero
    scores[2, 8], scores[4, 10] = -1.0, -2.0
    # block (1, 0): two positive scores, fewer than K = 3
    scores[9, 3], scores[7, 2], scores[8, 4] = 0.5, 2.0, -3.0
    # block (1, 1): one maximum, then four scores tied for second place
    scores[10, 10] = 7.0
    scores[8, 11] = scores[8, 7] = scores[11, 6] = scores[6, 9] = 3.0
    monkeypatch.setattr(keypoints, "fast_score_map",
                        lambda data, threshold: scores.copy())
    params = BlockGridParams(n_blocks=2, k_per_block=k, border=3)
    pts = detect_block_fast(np.zeros(scores.shape), params)
    assert [(p.col, p.row, p.score) for p in pts] == expected


@pytest.mark.parametrize("strip_rows", [1, 7, 41])
def test_score_map_is_the_same_for_every_strip_height(monkeypatch,
                                                       strip_rows):
    img = texture(40, seed=16)
    img[np.random.default_rng(16).random(img.shape) < 0.05] = np.nan
    expected = fast_score_map(img, 0.05)
    monkeypatch.setattr(keypoints, "_STRIP_ROWS", strip_rows)
    got = fast_score_map(img, 0.05)
    assert np.array_equal(got, expected)
    assert (expected > 0).sum() > 50


@settings(max_examples=25, deadline=None)
@given(arrays(np.float32, (24, 24),
              elements=st.floats(0, 1, width=32)),
       st.integers(1, 3), st.integers(1, 2))
def test_block_budget_and_score_consistency(img, n, k):
    params = BlockGridParams(n_blocks=n, k_per_block=k, fast_threshold=0.05)
    pts = detect_block_fast(img, params)
    assert len(pts) <= n * n * k

    bh = bw = 24 // n
    counts = {}
    for p in pts:
        key = (min(p.row // bh, n - 1), min(p.col // bw, n - 1))
        counts[key] = counts.get(key, 0) + 1
        assert p.score == fast_score(img, p.col, p.row, 0.05)
        assert p.score > 0
    assert all(c <= k for c in counts.values())


def test_iid_noise_occupies_nearly_every_block():
    rng = np.random.default_rng(13)
    img = rng.standard_normal((400, 400)).astype(np.float32)
    pts = detect_block_fast(img, BlockGridParams(n_blocks=10))
    occupied = {(p.row // 40, p.col // 40) for p in pts}
    assert len(occupied) >= 95


def test_detection_is_deterministic():
    img = texture(128, seed=14)
    params = BlockGridParams(n_blocks=4, k_per_block=2)
    assert detect_block_fast(img, params) == detect_block_fast(img, params)


def _maximal_arc(flags):
    """Circle indices of the longest run of True, wrapping from 15 to 0."""
    if all(flags):
        return list(range(16))
    start = flags.index(False)
    best, run = [], []
    for k in range(1, 17):
        i = (start + k) % 16
        if flags[i]:
            run.append(i)
        else:
            best = max(best, run, key=len)
            run = []
    return best


def _oracle_score(img, col, row, threshold):
    """The segment-test score as the module docstring defines it, per pixel:
    the sum of |d| - threshold over the maximal run of >= 9 circle pixels
    all brighter than center+threshold or all darker than center-threshold,
    added in circle index order."""
    center = float(img[row, col])
    d = [float(img[row + dr, col + dc]) - center for dc, dr in CIRCLE]
    for flags in ([x > threshold for x in d], [-x > threshold for x in d]):
        arc = _maximal_arc(flags)
        if len(arc) >= 9:
            total = 0.0
            for i in sorted(arc):
                total += abs(d[i]) - threshold
            return total, arc, d
    return 0.0, [], d


def _oracle_images():
    rng = np.random.default_rng(21)
    noisy = rng.random((40, 40)).astype(np.float32)
    noisy[rng.random(noisy.shape) < 0.05] = np.nan
    # integer levels with threshold 1: many differences equal it exactly
    levels = rng.integers(0, 4, (40, 40)).astype(np.float32)
    planted = np.zeros((24, 24), dtype=np.float32)
    planted[8, 8] = 1.0                      # a full 16-arc
    for i in (12, 13, 14, 15, 0, 1, 2, 3, 4):  # an arc across 15 -> 0
        dc, dr = CIRCLE[i]
        planted[16 + dr, 16 + dc] = -1.0
    planted[16, 16] = 0.0
    return [(noisy, 0.1), (texture(40, seed=22), 0.05), (levels, 1.0),
            (planted, 0.5)]


def test_score_map_equals_the_per_pixel_oracle():
    wraps = full = ties = 0
    for img, threshold in _oracle_images():
        scores = fast_score_map(img, threshold)
        h, w = img.shape
        for row in range(3, h - 3):
            for col in range(3, w - 3):
                expected, arc, d = _oracle_score(img, col, row, threshold)
                assert scores[row, col] == expected, (row, col)
                wraps += 0 in arc and 15 in arc and len(arc) < 16
                full += len(arc) == 16
                ties += len(arc) > 0 and threshold in map(abs, d)
    assert wraps and full and ties


def _bits(a):
    return a.view(np.int64)


def test_score_map_is_bitwise_the_selecting_score_map(flat_scene_reference):
    rng = np.random.default_rng(24)
    images = [(img, threshold) for img, threshold in _oracle_images()]
    images.append((rng.standard_normal((90, 70)), 0.3))
    ref = flat_scene_reference
    threshold = _resolve_threshold(ref, None)
    for fill in (np.nan, -9999.0):
        holed = ref.copy()
        holed[100:180, 300:420] = fill
        holed[700:, :50] = fill
        holed[rng.random(holed.shape) < 0.001] = fill
        images.append((holed, threshold))
    images.append((ref, threshold))
    for img, threshold in images:
        got = fast_score_map(img, threshold)
        want = _selecting_score_map(img, threshold)
        assert np.array_equal(_bits(got), _bits(want))
    assert np.count_nonzero(got) > 10000


@pytest.mark.parametrize("shape, n, k, border", [
    ((100, 93), 7, 2, 9), ((64, 80), 3, 1, 0), ((64, 80), 5, 3, 2),
    ((61, 61), 4, 2, 3), ((120, 90), 6, 1, 25), ((40, 40), 1, 4, 17),
])
def test_interior_detection_equals_full_frame_scoring(shape, n, k, border):
    img = texture(*shape, seed=sum(shape) + border)
    img[np.random.default_rng(border).random(shape) < 0.02] = np.nan
    params = BlockGridParams(n_blocks=n, k_per_block=k, border=border)
    pts = detect_block_fast(img, params)
    assert [(p.col, p.row, p.score) for p in pts] == \
        _full_frame_detection(img, params)
    assert pts


def test_interior_detection_of_a_sentinel_image(flat_scene_reference):
    data = flat_scene_reference.copy()
    data[:, :120] = -9999.0
    data[400:470, 500:560] = -9999.0
    grid = as_grid(data, nodata=-9999.0)
    params = BlockGridParams(n_blocks=8, border=50)
    pts = detect_block_fast(grid, params)
    assert [(p.col, p.row, p.score) for p in pts] == \
        _full_frame_detection(data, params, nodata=-9999.0)
    assert len(pts) >= 50


def test_negative_threshold_is_rejected():
    for threshold in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="fast_threshold"):
            BlockGridParams(fast_threshold=threshold)


def test_score_map_temporaries_stay_within_a_fixed_bound_per_pixel():
    img = texture(768, seed=23)
    bound = 64 * img.size  # bytes; includes the float64 result (8 B/px)
    tracemalloc.start()
    try:
        fast_score_map(img, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"{peak / img.size:.0f} B/px"


@pytest.fixture(scope="module")
def reference_600():
    return generate(SynthSpec(size=600, seed=3))[0]


def test_sentinel_nodata_is_ignored_like_nan(reference_600):
    images = []
    for fill in (np.nan, -9999.0):
        data = reference_600.data.copy()
        data[:, :100] = fill
        images.append(as_grid(data, reference_600.geotransform, nodata=fill))
    images.append(images[0].data)   # the bare array, with no grid to copy
    found, peaks = [], []
    for image in images:
        tracemalloc.start()
        try:
            found.append(detect_block_fast(image, BlockGridParams(n_blocks=4,
                                                                  border=50)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(found[0]) == 16
    assert found[2] == found[1] == found[0]
    # neither grid is copied whole (1.4 MiB) for detection
    assert max(peaks[:2]) <= peaks[2] + 2 ** 20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_infinite_samples_score_as_nan_does(dtype):
    img = texture(512, seed=24).astype(dtype)
    rng = np.random.default_rng(24)
    # 0.1 % of the samples in runs of four, alternately +inf and -inf: the
    # ends of a run are 3 px apart, a circle offset, where inf - inf once
    # warned
    rows = rng.integers(0, 512, 66)
    cols = rng.integers(0, 509, 66)
    signs = np.where(np.arange(rows.size) % 2, np.inf, -np.inf)
    holed, infinite = img.copy(), img.copy()
    for dc in range(4):
        holed[rows, cols + dc] = np.nan
        infinite[rows, cols + dc] = signs
    before = infinite.copy()
    params = BlockGridParams(n_blocks=8)
    threshold = _resolve_threshold(holed, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = detect_block_fast(holed, params)
        got = detect_block_fast(infinite, params)
        scores = fast_score_map(infinite, threshold)
    assert got == want and len(want) == 64
    assert np.array_equal(scores, fast_score_map(holed, threshold))
    assert np.isfinite(scores).all()
    # the caller's array is not written
    assert np.array_equal(infinite, before)


def _copy_threshold(data):
    """The automatic threshold from a copy of the finite samples."""
    finite = data[np.isfinite(data)]
    if finite.size == 0:
        return 0.0
    return 0.02 * float(finite.max() - finite.min())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_threshold_is_the_range_of_the_finite_samples(dtype):
    rng = np.random.default_rng(4)
    img = rng.uniform(-3.0, 7.0, (40, 50)).astype(dtype)
    img[rng.random(img.shape) < 0.2] = np.nan
    img[0, 0], img[5, 9], img[17, 3] = np.inf, -np.inf, np.inf
    assert _resolve_threshold(img, None) == _copy_threshold(img)
    assert _resolve_threshold(img, None) > 0.0
    for fill in (np.nan, np.inf, -np.inf):
        blank = np.full((9, 9), fill, dtype=dtype)
        assert _resolve_threshold(blank, None) == _copy_threshold(blank) == 0.0
    blank[2, 2] = np.nan
    assert _resolve_threshold(blank, None) == 0.0
    assert _resolve_threshold(img, 0.25) == 0.25
    levels = rng.integers(0, 65536, (9, 9)).astype(np.uint16)
    assert _resolve_threshold(levels, None) == _copy_threshold(levels)
