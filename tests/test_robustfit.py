import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coreg.matcher import Correspondence
from coreg.robustfit import (
    RansacDegeneracyError,
    RansacParams,
    _fit_affine,
    _pixel_arrays,
    ransac_filter,
    select_top_k,
)


def _corr(rc, rr, sc, sr):
    return Correspondence(ref_col=rc, ref_row=rr, sensed_col=sc, sensed_row=sr,
                          ref_x=rc, ref_y=rr, sensed_x=sc, sensed_y=sr,
                          peak=1.0)


def _affine_corrs(n, seed, noise=0.0, M=(1.01, 0.02, 5.0, -0.015, 0.99, -3.0)):
    rng = np.random.default_rng(seed)
    a, b, c, d, e, f = M
    out = []
    for _ in range(n):
        rc, rr = rng.uniform(0, 500, 2)
        sc = a * rc + b * rr + c + rng.normal(0, noise)
        sr = d * rc + e * rr + f + rng.normal(0, noise)
        out.append(_corr(rc, rr, sc, sr))
    return out


def _with_outliers(seed, n_in=70, n_out=30):
    rng = np.random.default_rng(seed)
    inliers = _affine_corrs(n_in, seed, noise=0.3)
    outliers = []
    for _ in range(n_out):
        rc, rr = rng.uniform(0, 500, 2)
        ang = rng.uniform(0, 2 * np.pi)
        mag = rng.uniform(20, 60)
        outliers.append(_corr(rc, rr,
                              1.01 * rc + 0.02 * rr + 5.0 + mag * np.cos(ang),
                              -0.015 * rc + 0.99 * rr - 3.0 + mag * np.sin(ang)))
    return inliers, outliers


def test_clean_affine_data_has_no_outliers():
    corrs = _affine_corrs(50, seed=1)
    inl, out = ransac_filter(corrs, RansacParams(seed=0))
    assert out == [] and inl == corrs


@pytest.mark.parametrize("seed", range(10))
def test_planted_outliers_recovered_exactly(seed):
    inliers, outliers = _with_outliers(seed)
    corrs = inliers + outliers
    inl, out = ransac_filter(corrs, RansacParams(inlier_tol=3.0, seed=seed))
    assert set(map(id, out)) == set(map(id, outliers))
    assert set(map(id, inl)) == set(map(id, inliers))


def test_partition_is_exhaustive_and_disjoint():
    inliers, outliers = _with_outliers(99)
    corrs = inliers + outliers
    inl, out = ransac_filter(corrs, RansacParams(seed=3))
    assert len(inl) + len(out) == len(corrs)
    ids = [id(c) for c in inl] + [id(c) for c in out]
    assert sorted(ids) == sorted(id(c) for c in corrs)


def test_inlier_residuals_within_tolerance():
    inliers, outliers = _with_outliers(7)
    corrs = inliers + outliers
    tol = 3.0
    inl, _ = ransac_filter(corrs, RansacParams(inlier_tol=tol, seed=7))
    M = _fit_affine(*_pixel_arrays(inl))
    for c in inl:
        pc = M[0, 0] * c.ref_col + M[0, 1] * c.ref_row + M[0, 2]
        pr = M[1, 0] * c.ref_col + M[1, 1] * c.ref_row + M[1, 2]
        assert np.hypot(pc - c.sensed_col, pr - c.sensed_row) <= tol + 1e-6


def test_same_seed_same_partition():
    inliers, outliers = _with_outliers(11)
    corrs = inliers + outliers
    p = RansacParams(seed=5)
    assert ransac_filter(corrs, p) == ransac_filter(corrs, p)


def test_loosening_tolerance_never_shrinks_inliers():
    inliers, outliers = _with_outliers(13)
    corrs = inliers + outliers
    tight, _ = ransac_filter(corrs, RansacParams(inlier_tol=2.0, seed=2))
    loose, _ = ransac_filter(corrs, RansacParams(inlier_tol=8.0, seed=2))
    assert len(loose) >= len(tight)


def test_collinear_points_raise_degeneracy():
    corrs = [_corr(float(i), 2.0 * i, float(i), 2.0 * i) for i in range(20)]
    with pytest.raises(RansacDegeneracyError):
        ransac_filter(corrs, RansacParams(seed=0))


def test_too_few_correspondences_rejected():
    with pytest.raises(ValueError):
        ransac_filter([_corr(0, 0, 0, 0)], RansacParams())


def test_bad_params_rejected():
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            RansacParams(inlier_tol=tol)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        RansacParams(seed=-1)


# -- selection ---------------------------------------------------------------


def test_select_all_orders_by_residual():
    corrs = _affine_corrs(30, seed=19, noise=1.0)
    sel = select_top_k(corrs, len(corrs))
    assert sorted(map(id, sel)) == sorted(map(id, corrs))
    M = _fit_affine(*_pixel_arrays(corrs))
    res = []
    for c in sel:
        pc = M[0, 0] * c.ref_col + M[0, 1] * c.ref_row + M[0, 2]
        pr = M[1, 0] * c.ref_col + M[1, 1] * c.ref_row + M[1, 2]
        res.append(float(np.hypot(pc - c.sensed_col, pr - c.sensed_row)))
    assert res == sorted(res)


def test_select_143_of_318():
    corrs = _affine_corrs(318, seed=23, noise=1.0)
    assert len(select_top_k(corrs, 143)) == 143


def test_select_more_than_available_rejected():
    with pytest.raises(ValueError):
        select_top_k(_affine_corrs(5, seed=29), 6)
