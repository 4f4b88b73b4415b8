import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreg import metrics
from coreg.geomodels import (ControlPoint, DegenerateFitError, ModelSpec,
                             all_model_specs, fit, model_spec_from_name)
from coreg.matcher import Correspondence
from coreg.metrics import (
    checkpoint_rmse,
    misreg_to_csv,
    misregistration,
    split_checkpoints,
    sweep,
    sweep_to_csv,
    to_control_points,
)
from coreg.raster import GeoTransform
from coreg.synthgen import translation_warp

from conftest import as_grid


def _corr(rx, ry, sx, sy):
    return Correspondence(ref_col=rx, ref_row=ry, sensed_col=sx, sensed_row=sy,
                          ref_x=rx, ref_y=ry, sensed_x=sx, sensed_y=sy,
                          peak=1.0)


def _grid_corrs(n, seed, fn=lambda x, y: (x, y), jitter=0.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, 900, n)
    ys = rng.uniform(0, 900, n)
    out = []
    for x, y in zip(xs, ys):
        sx, sy = fn(x, y)
        out.append(_corr(x, y, sx + rng.normal(0, jitter) if jitter else sx,
                         sy + rng.normal(0, jitter) if jitter else sy))
    return out


# -- shift statistics --------------------------------------------------------


def test_coregistered_pairs_report_zero():
    rep = misregistration(_grid_corrs(25, seed=0))
    assert rep.count == 25
    assert rep.mean_abs_dx == 0.0
    assert rep.mean_abs_dy == 0.0
    assert rep.mean_ds == 0.0
    assert rep.max_ds == 0.0
    assert rep.std_ds == 0.0


def test_shift_means_hand_case():
    # dx of +1, -1, 0: signed mean would cancel to 0, absolute mean is 2/3
    corrs = [_corr(0, 0, 1, 0), _corr(5, 5, 4, 5), _corr(9, 2, 9, 2)]
    rep = misregistration(corrs)
    assert abs(rep.mean_abs_dx - 2.0 / 3.0) < 1e-12
    assert rep.mean_abs_dy == 0.0
    assert abs(rep.mean_ds - 2.0 / 3.0) < 1e-12
    assert rep.max_ds == 1.0
    assert rep.min_ds == 0.0


def test_pixel_size_scales_shifts():
    rep = misregistration([_corr(0, 0, 10, -5)], pixel_size=2.5)
    assert rep.dx[0] == 4.0
    assert rep.dy[0] == -2.0
    assert rep.ds[0] == math.hypot(4.0, 2.0)


def test_no_pairs_rejected():
    with pytest.raises(ValueError):
        misregistration([])


@pytest.mark.parametrize("pixel_size", [0.0, -2.5, float("nan")])
def test_bad_pixel_size_rejected(pixel_size):
    with pytest.raises(ValueError, match="pixel_size"):
        misregistration([_corr(0, 0, 1, 1)], pixel_size=pixel_size)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=1, max_size=20))
def test_ds_is_euclidean_length_of_shift(shifts):
    corrs = [_corr(3.0 * i, 7.0, 3.0 * i + dx, 7.0 + dy)
             for i, (dx, dy) in enumerate(shifts)]
    rep = misregistration(corrs)
    assert np.allclose(rep.ds ** 2, rep.dx ** 2 + rep.dy ** 2, rtol=1e-12)
    assert rep.max_ds >= rep.mean_ds >= rep.min_ds >= 0.0


def test_misreg_csv_has_row_per_pair_and_summary():
    corrs = [_corr(0, 0, 1, 0), _corr(5, 5, 4, 5)]
    text = misreg_to_csv(misregistration(corrs))
    lines = text.strip().splitlines()
    assert lines[0] == "dx_px,dy_px,ds_px"
    assert len([ln for ln in lines if "," in ln]) == 3
    assert lines[1] == "1.0,0.0,1.0"
    assert any(ln.startswith("# mean_abs_dx_px=") for ln in lines)


# -- checkpoint scoring ------------------------------------------------------


def test_hand_rmse_from_two_residuals():
    # residual lengths 3 and 4: mean square 12.5
    model = translation_warp(0.0, 0.0)
    cps = [ControlPoint(0, 0, 3, 0), ControlPoint(10, 10, 10, 14)]
    score = checkpoint_rmse(model, cps)
    assert abs(score.rmse - math.sqrt(12.5)) < 1e-12
    assert score.max_residual == 4.0
    assert abs(score.mean_distance - 3.5) < 1e-12
    assert score.n_used == 2
    assert score.n_excluded == 0


@pytest.mark.parametrize("pixel_size", [0.0, -1.0, float("nan")])
def test_checkpoint_rmse_rejects_a_bad_pixel_size(pixel_size):
    cps = [ControlPoint(0, 0, 3, 0), ControlPoint(10, 10, 10, 14)]
    with pytest.raises(ValueError) as info:
        checkpoint_rmse(translation_warp(0.0, 0.0), cps, pixel_size)
    with pytest.raises(ValueError) as misreg:
        misregistration([_corr(0, 0, 1, 1)], pixel_size=pixel_size)
    assert str(info.value) == str(misreg.value) == (
        f"pixel_size must be > 0, got {pixel_size}")


def test_exact_model_scores_zero():
    def quad(x, y):
        u, v = x / 500.0, y / 500.0
        return x + 3 * u * v, y - 2 * u ** 2

    cps = [ControlPoint(x, y, *quad(x, y))
           for x, y in np.random.default_rng(1).uniform(0, 900, (30, 2))]
    model = fit(ModelSpec("polynomial", 2), cps)
    score = checkpoint_rmse(model, cps)
    assert score.rmse < 1e-9
    assert score.max_residual < 1e-9


def test_rmse_is_fixed_point_under_matching_residual():
    model = translation_warp(0.0, 0.0)
    cps = [ControlPoint(0, 0, 3, 0), ControlPoint(10, 0, 10, 3)]
    base = checkpoint_rmse(model, cps)
    cps.append(ControlPoint(20, 20, 20 + base.rmse, 20))
    grown = checkpoint_rmse(model, cps)
    assert abs(grown.rmse - base.rmse) < 1e-12


def test_empty_checkpoints_rejected():
    with pytest.raises(ValueError):
        checkpoint_rmse(translation_warp(0, 0), [])


def test_height_model_needs_heights_on_every_checkpoint():
    cps = [ControlPoint(x, y, x + 1.0, y - 2.0, ref_z=float(x % 7))
           for x, y in np.random.default_rng(4).uniform(0, 500, (12, 2))]
    model = fit(ModelSpec("rfm", 1, "unit"), cps)
    assert checkpoint_rmse(model, cps).rmse < 1e-9
    with pytest.raises(ValueError, match="ref_z"):
        checkpoint_rmse(model, [replace(cp, ref_z=None) for cp in cps])


def test_nan_predictions_are_excluded_not_averaged():
    from coreg.geomodels import FittedModel, model_spec_from_name

    spec = model_spec_from_name("rfm1_distinct")
    b = spec.basis_size
    num = np.zeros(b)
    num[1] = 1.0
    den = np.zeros(b)
    den[0] = 1.0
    den[1] = 1.0  # vanishes at X = -1
    model = FittedModel.from_coefficients(spec, num, num, den_x=den, den_y=den)
    # both coordinates evaluate X / (1 + X): exact at 0.5, pole at -1
    cps = [ControlPoint(-1.0, 0.0, 0.0, 0.0, ref_z=0.0),
           ControlPoint(0.5, 0.0, 1.0 / 3.0, 1.0 / 3.0, ref_z=0.0)]
    score = checkpoint_rmse(model, cps)
    assert score.n_used == 1
    assert score.n_excluded == 1
    assert score.rmse < 1e-12


# -- holdout split -----------------------------------------------------------


def test_split_is_a_partition():
    cps = to_control_points(_grid_corrs(143, seed=2,
                                        fn=lambda x, y: (x + 2, y - 1)))
    cks, fitset = split_checkpoints(cps, 48, seed=0)
    assert cks.X.size == 48
    assert fitset.X.size == 95
    # every field of a point travels with it
    rows = lambda r: set(zip(r.X, r.Y, r.u, r.v))
    assert rows(fitset) | rows(cks) == rows(cps)
    assert not rows(fitset) & rows(cks)
    assert cks.Z is None and fitset.Z is None


def test_split_is_deterministic():
    cps = to_control_points(_grid_corrs(100, seed=3))
    a, _ = split_checkpoints(cps, 30, seed=7)
    b, _ = split_checkpoints(cps, 30, seed=7)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    c, _ = split_checkpoints(cps, 30, seed=8)
    assert not np.array_equal(a.X, c.X)


def test_split_spreads_checkpoints_spatially():
    # clustered corpus: dense blob plus sparse far corner; a stratified
    # draw must keep sampling the corner instead of the blob only
    rng = np.random.default_rng(4)
    blob = [(x, y) for x, y in rng.uniform(0, 100, (120, 2))]
    corner = [(x, y) for x, y in rng.uniform(900, 1000, (20, 2))]
    cps = to_control_points([_corr(x, y, x, y) for x, y in blob + corner])
    cks, _ = split_checkpoints(cps, 28, seed=0)
    assert np.sum(cks.X > 500) >= 3


def test_split_draws_round_robin_across_cells():
    # 6 checkpoints: a 3x3 cell grid over [0, 90]^2, of which three cells
    # are occupied: A (points 0-4), B (5-7) and C (8)
    pts = [(0, 0), (5, 5), (10, 10), (15, 0), (20, 5),
           (70, 5), (80, 10), (75, 0), (90, 90)]
    cps = to_control_points([_corr(x, y, x, y) for x, y in pts])
    cks, rest = split_checkpoints(cps, 6, seed=0)
    # rounds A B C, A B, A: C runs out after one round, and the sixth
    # checkpoint ends the third round before B's last point
    assert [pts.index(p) for p in zip(cks.X, cks.Y)] == [1, 6, 8, 0, 5, 3]
    assert [pts.index(p) for p in zip(rest.X, rest.Y)] == [2, 4, 7]


def test_split_names_both_counts_when_too_few():
    cps = to_control_points([_corr(x, x, x, x) for x in range(5)])
    with pytest.raises(ValueError, match=r"^5 checkpoints need at least 6 "
                                         r"correspondences, got 5$"):
        split_checkpoints(cps, 5, seed=0)
    with pytest.raises(ValueError,
                       match=r"^n_checkpoints must be >= 1, got 0$"):
        split_checkpoints(cps, 0, seed=0)


def test_to_control_points_copies_map_coords():
    corrs = _grid_corrs(5, seed=5, fn=lambda x, y: (x + 2, y - 1))
    cps = to_control_points(corrs)
    assert np.array_equal(cps.X, [c.ref_x for c in corrs])
    assert np.array_equal(cps.Y, [c.ref_y for c in corrs])
    assert np.array_equal(cps.u, cps.X + 2)
    assert np.array_equal(cps.v, cps.Y - 1)
    assert all(a.dtype == np.float64 and a.flags.c_contiguous
               for a in cps[:4])
    assert cps.Z is None


# -- model comparison sweep --------------------------------------------------


def _cubic_field(x, y):
    u, v = x / 450.0 - 1.0, y / 450.0 - 1.0
    return (x + 12 + 30 * u * v - 14 * v ** 2 + 10 * u ** 3,
            y + 24 - 18 * u ** 2 + 22 * u * v + 10 * v ** 3)


def test_sweep_shape_and_ordering():
    corrs = _grid_corrs(143, seed=6, fn=_cubic_field, jitter=0.05)
    specs = [ModelSpec("polynomial", n) for n in (1, 2, 3)]
    counts = list(range(25, 96, 10))
    results = sweep(specs, corrs, 48, counts, seed=0)
    assert [r.spec.name for r in results] == ["poly1", "poly2", "poly3"]
    for res in results:
        assert res.cp_counts == counts
        assert len(res.rmse) == 8
        assert all(v is not None and v >= 0 for v in res.rmse)
    by = {r.spec.name: r.rmse for r in results}
    # the generating field is order 3: the cubic fit wins at every count
    for i in range(8):
        assert by["poly3"][i] <= by["poly2"][i] + 1e-9
        assert by["poly3"][i] <= by["poly1"][i] + 1e-9


def test_sweep_is_deterministic():
    corrs = _grid_corrs(120, seed=8, fn=_cubic_field, jitter=0.1)
    specs = [ModelSpec("polynomial", 1), ModelSpec("projective", 10)]
    a = sweep(specs, corrs, 30, [25, 60], seed=3)
    b = sweep(specs, corrs, 30, [25, 60], seed=3)
    assert [r.rmse for r in a] == [r.rmse for r in b]


def test_sweep_rejects_impossible_counts():
    corrs = _grid_corrs(60, seed=9)
    with pytest.raises(ValueError):
        sweep([ModelSpec("polynomial", 1)], corrs, 30, [40], seed=0)


def test_sweep_rejects_a_bad_pixel_size_instead_of_failing_every_cell():
    corrs = _grid_corrs(80, seed=10, fn=_cubic_field, jitter=0.1)
    with pytest.raises(ValueError, match="pixel_size must be > 0, got -1"):
        sweep([ModelSpec("polynomial", 1)], corrs, 20, [25], seed=0,
              pixel_size=-1)


def test_sweep_of_height_models_needs_a_dem():
    corrs = _grid_corrs(80, seed=10, fn=_cubic_field, jitter=0.1)
    with pytest.raises(ValueError, match="DEM"):
        sweep([ModelSpec("rfm", 1, "unit")], corrs, 20, [25], seed=0)


def test_sweep_csv_layout():
    corrs = _grid_corrs(80, seed=10, fn=_cubic_field, jitter=0.1)
    results = sweep([ModelSpec("polynomial", 1)], corrs, 20, [25, 50], seed=0)
    lines = sweep_to_csv(results).strip().splitlines()
    assert lines[0] == ("model,cp_count,rmse_px,max_residual_px,"
                        "mean_distance_px,warning")
    assert len(lines) == 3
    assert lines[1].startswith("poly1,25,")
    assert lines[2].startswith("poly1,50,")


def test_sweep_carries_each_fit_warning_to_its_csv_cell():
    corrs = _grid_corrs(143, seed=6, fn=_cubic_field, jitter=0.5)
    specs = [model_spec_from_name(n) for n in ("poly1", "proj22", "proj38")]
    counts = [40, 60, 95]
    results = sweep(specs, corrs, 48, counts, seed=0)
    # the control points of each cell, drawn as sweep draws them
    rng = np.random.default_rng(0)
    _, rest = split_checkpoints(to_control_points(corrs), 48, rng)
    cps = rest.take(rng.permutation(rest.X.size))
    rows = iter(sweep_to_csv(results).strip().splitlines()[1:])
    for res in results:
        for count, warning in zip(counts, res.warning):
            assert warning == fit(res.spec, cps.take(slice(count))).warning
            assert next(rows).split(",")[5] == (warning or "")
    assert any(w for res in results for w in res.warning)


# the fit-warp sweep in miniature: 143 noisy points on the cubic field, a
# height field under them, 48 checkpoints and six control point counts
_FIT_WARP_COUNTS = [40, 50, 60, 70, 80, 95]


def _fit_warp_corpus():
    corrs = _grid_corrs(143, seed=6, fn=_cubic_field, jitter=0.15)
    rows, cols = np.mgrid[0:96, 0:96]
    heights = 250 + 200 * np.sin(rows / 17.0) * np.cos(cols / 23.0)
    dem = as_grid(heights, gt=GeoTransform(-20.0, -20.0, 10.0, 10.0))
    return corrs, dem


def test_sweep_cells_equal_fits_of_control_point_lists():
    corrs, dem = _fit_warp_corpus()
    specs = all_model_specs()
    results = sweep(specs, corrs, 48, _FIT_WARP_COUNTS, seed=0, dem=dem)
    # the control points of each cell, drawn as sweep draws them, as lists
    rng = np.random.default_rng(0)
    checks, rest = split_checkpoints(to_control_points(corrs, dem), 48, rng)
    rest = rest.take(rng.permutation(rest.X.size))
    checkpoints, shuffled = ([ControlPoint(*map(float, row))
                              for row in zip(*record)]
                             for record in (checks, rest))
    for res in results:
        for i, count in enumerate(_FIT_WARP_COUNTS):
            try:
                model = fit(res.spec, shuffled[:count])
                score = checkpoint_rmse(model, checkpoints)
            except (DegenerateFitError, ValueError):
                assert res.rmse[i] is None
                continue
            assert res.rmse[i] == score.rmse
            assert res.max_residual[i] == score.max_residual
            assert res.mean_distance[i] == score.mean_distance
            assert res.warning[i] == model.warning
    # rational fits that divide by ~0 are among the cells
    assert any(w for res in results for w in res.warning)


def test_a_dem_miss_at_a_checkpoint_names_its_index_in_corrs():
    corrs, dem = _fit_warp_corpus()
    # the split ignores heights: the third checkpoint, seen without a DEM
    checks, _ = split_checkpoints(to_control_points(corrs), 48,
                                  np.random.default_rng(0))
    i = next(k for k, c in enumerate(corrs) if c.ref_x == checks.X[2])
    assert i != 2
    # a nodata pixel under that point (no point before it in corrs reads it)
    col, row = dem.geotransform.geo_to_pixel(corrs[i].ref_x, corrs[i].ref_y)
    data = dem.data.copy()
    data[int(row), int(col)] = np.nan
    holed = as_grid(data, gt=dem.geotransform, nodata=np.nan)
    with pytest.raises(ValueError, match=f"control point {i} at "
                       rf"\({corrs[i].ref_x}, {corrs[i].ref_y}\) is outside "
                       "the DEM or hits nodata"):
        sweep([model_spec_from_name("rfm1_unit")], corrs, 48, [40], seed=0,
              dem=holed)


def test_sweep_calls_fit_and_scoring_once_per_cell(monkeypatch):
    corrs, dem = _fit_warp_corpus()
    specs = all_model_specs()
    calls = {"fit": 0, "checkpoint_rmse": 0}
    for name in calls:
        real = getattr(metrics, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(metrics, name, spy)
    results = sweep(specs, corrs, 48, _FIT_WARP_COUNTS, seed=0, dem=dem)
    scored = sum(r is not None for res in results for r in res.rmse)
    assert calls == {"fit": len(specs) * len(_FIT_WARP_COUNTS),
                     "checkpoint_rmse": scored}
