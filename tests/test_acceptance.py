"""End-to-end acceptance gates for the registration pipeline.

Each test asserts one numbered criterion and prints a single PASS/FAIL line;
the summary block at the end of the run repeats every line. Criterion 2's
second clause states that raw-intensity matching must break down on the
radiometric corpus; measured behaviour contradicts it (see the README), so
that test fails by design rather than loosening the threshold.
"""

import time

import numpy as np
import pytest

from coreg.cfog import build_cfog
from coreg.cli import main
from coreg.config import PipelineConfig
from coreg.geomodels import (ControlPoint, FittedModel, ModelSpec,
                             all_model_specs, fit, min_cp_count)
from coreg.keypoints import detect_block_fast
from coreg.matcher import (correspondences_from_csv, match_all,
                           phase_correlate_3d)
from coreg.metrics import checkpoint_rmse, misregistration
from coreg.robustfit import RansacParams, ransac_filter
from coreg.synthgen import SynthSpec, cubic_truth, generate, translation_warp
from coreg.raster import save_raster

from conftest import poly_basis_3d, record_criterion


EXPECTED_MIN_CP = {
    "poly1": 3, "poly2": 6, "poly3": 10, "poly4": 15, "poly5": 21,
    "proj10": 5, "proj22": 11, "proj38": 19,
    "rfm1_unit": 4, "rfm1_shared": 6, "rfm1_distinct": 7,
    "rfm2_unit": 10, "rfm2_shared": 15, "rfm2_distinct": 19,
    "rfm3_unit": 20, "rfm3_shared": 30, "rfm3_distinct": 39,
}


def test_criterion_1_exact_shift_recovery_and_speed():
    ref = generate(SynthSpec(size=128, seed=17))[0].data.astype(np.float64)
    base = build_cfog(ref)

    rng = np.random.default_rng(99)
    errors = 0
    times = []
    for _ in range(500):
        dx = int(rng.integers(-40, 41))
        dy = int(rng.integers(-40, 41))
        rolled = np.roll(np.roll(ref, dy, axis=0), dx, axis=1)
        vol = build_cfog(rolled)
        t0 = time.perf_counter()
        x0, y0, _ = phase_correlate_3d(base, vol)
        times.append(time.perf_counter() - t0)
        if (x0, y0) != (float(dx), float(dy)):
            errors += 1
    mean_ms = float(np.mean(times) * 1e3)
    max_ms = float(np.max(times) * 1e3)
    record_criterion(
        "criterion-1 shift-recovery",
        errors == 0 and mean_ms < 20.0,
        f"errors={errors}/500, mean={mean_ms:.2f}ms, max={max_ms:.2f}ms")


def test_criterion_2_descriptor_vs_raw_robustness():
    hits = {"cfog": 0, "raw": 0}
    totals = {"cfog": 0, "raw": 0}
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        dx = int(rng.integers(-30, 31))
        dy = int(rng.integers(-30, 31))
        ref, sen, _, _ = generate(SynthSpec(
            size=448, seed=2000 + seed,
            warp=translation_warp(float(dx), float(dy)),
            radiometry="gamma", gamma=0.4, speckle_var=0.05))
        pts = detect_block_fast(ref, PipelineConfig(n_blocks=2,
                                                    k_per_block=1),
                                border=110)
        for mode in ("cfog", "raw"):
            corrs, stats = match_all(pts, ref, sen,
                                     PipelineConfig(descriptor=mode))
            totals[mode] += stats.attempted
            for c in corrs:
                err = np.hypot(c.sensed_col - c.ref_col - dx,
                               c.sensed_row - c.ref_row - dy)
                hits[mode] += bool(err <= 1.0)
    cfog_rate = hits["cfog"] / totals["cfog"]
    raw_rate = hits["raw"] / totals["raw"]
    record_criterion(
        "criterion-2 radiometric-robustness",
        cfog_rate >= 0.95 and raw_rate < 0.70,
        f"cfog={cfog_rate:.3f} (need >=0.95), raw={raw_rate:.3f} "
        f"(need <0.70); gamma+speckle alone does not break whitened "
        f"raw-intensity correlation on this corpus")


def _family_truth(spec, rng):
    """A mild invertible model of the given family, for consistent CPs."""
    b = spec.basis_size
    num_x = rng.normal(0, 0.05, b)
    num_x[1] += 1.0
    num_y = rng.normal(0, 0.05, b)
    num_y[2] += 1.0
    den_x = den_y = None
    if spec.family in ("projective", "rfm") and spec.denom_mode != "unit":
        den_x = np.zeros(b)
        den_x[0] = 1.0
        den_x[1:] = rng.normal(0, 0.02, b - 1)
        if spec.family == "rfm" and spec.denom_mode == "shared":
            den_y = den_x.copy()
        else:
            den_y = np.zeros(b)
            den_y[0] = 1.0
            den_y[1:] = rng.normal(0, 0.02, b - 1)
    return FittedModel.from_coefficients(spec, num_x, num_y,
                                         den_x=den_x, den_y=den_y)


def test_criterion_3_minimum_cp_interpolation():
    # at the minimum count the shared-denominator systems carry one surplus
    # equation, so the CPs must come from a model of the same family for an
    # exact fit to exist at all; every family gets consistent data
    rng = np.random.default_rng(300)
    table_ok = True
    worst = 0.0
    worst_name = ""
    for spec in all_model_specs():
        if min_cp_count(spec) != EXPECTED_MIN_CP[spec.name]:
            table_ok = False
        n = min_cp_count(spec)
        truth = _family_truth(spec, rng)
        xs = rng.uniform(-1, 1, n)
        ys = rng.uniform(-1, 1, n)
        zs = rng.uniform(-1, 1, n)
        if spec.family == "rfm":
            sx, sy = truth.apply(xs, ys, zs)
        else:
            sx, sy = truth.apply(xs, ys)
        cps = [ControlPoint(float(x), float(y), float(u), float(v),
                            ref_z=float(z) if spec.family == "rfm" else None)
               for x, y, u, v, z in zip(xs, ys, sx, sy, zs)]
        model = fit(spec, cps)
        r = float(np.max(model.cp_residuals))
        if r > worst:
            worst, worst_name = r, spec.name
    record_criterion(
        "criterion-3 min-cp-interpolation",
        table_ok and worst < 1e-9,
        f"17 models, worst residual {worst:.2e} ({worst_name}), "
        f"min-cp table {'ok' if table_ok else 'WRONG'}")


def test_criterion_4_unit_rfm_degenerates_to_polynomial():
    rng = np.random.default_rng(31)
    n = 90
    X = rng.uniform(0, 2000, n)
    Y = rng.uniform(0, 2000, n)
    Z = rng.uniform(0, 500, n)
    u = X + 8 + 0.01 * X - 0.004 * Y + 3e-6 * X * Y + rng.normal(0, 0.4, n)
    v = Y - 5 + 0.006 * Y + 2e-6 * X * X + rng.normal(0, 0.4, n)
    cps = [ControlPoint(*map(float, t)) for t in zip(X, Y, u, v, Z)]
    ex = rng.uniform(0, 2000, 1000)
    ey = rng.uniform(0, 2000, 1000)
    ez = rng.uniform(0, 500, 1000)

    def axis(a):
        off = 0.5 * float(a.max() + a.min())
        sc = 0.5 * float(a.max() - a.min()) or 1.0
        return off, sc

    worst = 0.0
    for order in (1, 2, 3):
        model = fit(ModelSpec("rfm", order, "unit"), cps)
        mx, my = model.apply(ex, ey, ez)
        # independent comparator: plain least squares on the same monomials
        offs = [axis(a) for a in (X, Y, Z, u, v)]
        Bf = poly_basis_3d((X - offs[0][0]) / offs[0][1],
                           (Y - offs[1][0]) / offs[1][1],
                           (Z - offs[2][0]) / offs[2][1], order)
        cu = np.linalg.lstsq(Bf, (u - offs[3][0]) / offs[3][1], rcond=None)[0]
        cv = np.linalg.lstsq(Bf, (v - offs[4][0]) / offs[4][1], rcond=None)[0]
        Be = poly_basis_3d((ex - offs[0][0]) / offs[0][1],
                           (ey - offs[1][0]) / offs[1][1],
                           (ez - offs[2][0]) / offs[2][1], order)
        ox = Be @ cu * offs[3][1] + offs[3][0]
        oy = Be @ cv * offs[4][1] + offs[4][0]
        worst = max(worst, float(np.max(np.hypot(mx - ox, my - oy))))
    record_criterion("criterion-4 rfm-unit-degeneracy", worst < 1e-9,
                     f"orders 1-3, max prediction gap {worst:.2e}")


def test_criterion_5_ransac_exact_outlier_recovery():
    from coreg.matcher import Correspondence

    M = (1.01, 0.02, 5.0, -0.015, 0.99, -3.0)
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        xs = rng.uniform(0, 2000, 100)
        ys = rng.uniform(0, 2000, 100)
        sx = M[0] * xs + M[1] * ys + M[2] + rng.uniform(-0.9, 0.9, 100)
        sy = M[3] * xs + M[4] * ys + M[5] + rng.uniform(-0.9, 0.9, 100)
        bad = rng.permutation(100)[:30]
        ang = rng.uniform(0, 2 * np.pi, 30)
        mag = rng.uniform(20, 60, 30)
        sx[bad] += mag * np.cos(ang)
        sy[bad] += mag * np.sin(ang)
        corrs = [Correspondence(x, y, u, v, x, y, u, v, 1.0)
                 for x, y, u, v in zip(xs, ys, sx, sy)]
        inliers, outliers = ransac_filter(
            corrs, RansacParams(inlier_tol=3.0, seed=seed))
        wins += {id(c) for c in outliers} == {id(corrs[i]) for i in bad}
    record_criterion("criterion-5 ransac-recovery", wins >= 99,
                     f"exact outlier sets {wins}/100")


# -- criteria 6 and 7 share one full-size scene ------------------------------


@pytest.fixture(scope="module")
def flat_scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("flat_scene")
    size = 2048
    truth = cubic_truth(size)
    assert float(np.max(truth.cp_residuals)) < 1e-9
    ref, sen, _, _ = generate(SynthSpec(size=size, warp=truth,
                                        radiometry="gamma", gamma=0.8,
                                        speckle_var=0.005, seed=6))
    save_raster(ref, root / "ref.bin")
    save_raster(sen, root / "sen.bin")
    cfg = root / "pipeline.cfg"
    cfg.write_text("inlier_tol = 35\nsubpixel = true\nseed = 0\n")

    t0 = time.perf_counter()
    assert main(["match", "--ref", str(root / "ref.bin"),
                 "--sensed", str(root / "sen.bin"), "--config", str(cfg),
                 "--out-dir", str(root / "run")]) == 0
    assert main(["register", "--ref", str(root / "ref.bin"),
                 "--sensed", str(root / "sen.bin"),
                 "--corr", str(root / "run" / "correspondences.csv"),
                 "--model", "poly3", "--config", str(cfg),
                 "--out-dir", str(root / "reg")]) == 0
    wall = time.perf_counter() - t0

    assert main(["sweep", "--corr", str(root / "run" / "correspondences.csv"),
                 "--models", "poly1,poly3,proj10,proj22", "--cp-counts", "95",
                 "--checkpoints", "48", "--config", str(cfg),
                 "--out-dir", str(root / "swp")]) == 0

    report = {}
    for line in (root / "reg" / "register_report.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        report.setdefault(key, value)
    corrs = correspondences_from_csv(
        (root / "run" / "correspondences.csv").read_text())
    rmse_at_95 = {}
    sweep_lines = (root / "swp" / "sweep.csv").read_text().strip().splitlines()
    for line in sweep_lines[1:]:
        parts = line.split(",")
        rmse_at_95[parts[0]] = float(parts[2])
    return dict(truth=truth, size=size, wall=wall, report=report,
                corrs=corrs, rmse=rmse_at_95)


def _truth_mean_ds(truth, xs, ys):
    tx, ty = truth.apply(xs, ys)
    return float(np.mean(np.hypot(tx - xs, ty - ys)))


def test_criterion_6_flat_scene_end_to_end(flat_scene):
    fs = flat_scene
    grid = np.linspace(0, fs["size"] - 1, 64)
    gx, gy = np.meshgrid(grid, grid)
    scene_mean = _truth_mean_ds(fs["truth"], gx.ravel(), gy.ravel())

    xs = np.array([c.ref_x for c in fs["corrs"]])
    ys = np.array([c.ref_y for c in fs["corrs"]])
    truth_mean = _truth_mean_ds(fs["truth"], xs, ys)
    measured = float(fs["report"]["input_mean_ds_px"])
    rmse = float(fs["report"]["checkpoint_rmse_px"])

    ok = (20.0 <= scene_mean <= 30.0
          and abs(measured - truth_mean) <= 0.5
          and rmse <= 1.0
          and fs["wall"] < 60.0)
    record_criterion(
        "criterion-6 flat-scene-pipeline", ok,
        f"scene_mean={scene_mean:.2f}px, measured={measured:.3f} vs "
        f"truth={truth_mean:.3f} (|diff|<=0.5), poly3 rmse={rmse:.3f} "
        f"(<=1.0), wall={fs['wall']:.1f}s (<60)")


def test_criterion_7_model_ranking(flat_scene):
    rmse = flat_scene["rmse"]
    ratio = rmse["poly1"] / rmse["poly3"]
    ok = ratio > 10.0 and rmse["proj10"] > rmse["proj22"]
    record_criterion(
        "criterion-7 model-ranking", ok,
        f"poly1/poly3 rmse ratio {ratio:.1f} (>10), "
        f"proj10={rmse['proj10']:.2f} > proj22={rmse['proj22']:.2f}")


def test_criterion_8_statistic_hand_oracles():
    from coreg.matcher import Correspondence

    def corr(rx, sx):
        return Correspondence(rx, 2.0, sx, 2.0, rx, 2.0, sx, 2.0, 1.0)

    rep = misregistration([corr(0.0, 1.0), corr(5.0, 4.0), corr(9.0, 9.0)])
    shifts_ok = (abs(rep.mean_abs_dx - 2.0 / 3.0) < 1e-12
                 and abs(rep.mean_abs_dy) < 1e-12
                 and abs(rep.mean_ds - 2.0 / 3.0) < 1e-12)

    cps = [ControlPoint(0, 0, 3, 0), ControlPoint(10, 10, 10, 14)]
    score = checkpoint_rmse(translation_warp(0.0, 0.0), cps)
    rmse_ok = (abs(score.rmse - np.sqrt(12.5)) < 1e-12
               and score.max_residual == 4.0)
    record_criterion(
        "criterion-8 hand-oracles", shifts_ok and rmse_ok,
        f"mean_abs_dx={rep.mean_abs_dx!r}, rmse={score.rmse!r}")


def test_criterion_9_cli_determinism(tmp_path):
    recipe = tmp_path / "recipe.txt"
    recipe.write_text(
        "size=256\nseed=11\nradiometry=gamma\ngamma=0.6\nspeckle_var=0.01\n"
        "warp_family=polynomial\nwarp_order=1\n"
        "warp_num_x=3.0e0 1.0e0 0.0e0\nwarp_den_x=1.0e0 0.0e0 0.0e0\n"
        "warp_num_y=-2.0e0 0.0e0 1.0e0\nwarp_den_y=1.0e0 0.0e0 0.0e0\n")

    def run_all(tag):
        base = tmp_path / tag
        assert main(["synth", "--spec", str(recipe),
                     "--out-dir", str(base / "s")]) == 0
        ref = str(base / "s" / "reference.bin")
        sen = str(base / "s" / "sensed.bin")
        dem = str(base / "s" / "dem.bin")
        corr = str(base / "m" / "correspondences.csv")
        assert main(["match", "--ref", ref, "--sensed", sen,
                     "--template-size", "48", "--search-size", "96",
                     "--blocks", "10",
                     "--out-dir", str(base / "m")]) == 0
        assert main(["measure", "--corr", corr,
                     "--out-dir", str(base / "e")]) == 0
        assert main(["fit", "--corr", corr, "--model", "rfm1_unit",
                     "--dem", dem, "--checkpoints", "8",
                     "--out-dir", str(base / "f")]) == 0
        assert main(["sweep", "--corr", corr, "--models", "poly1,poly2",
                     "--cp-counts", "10,15", "--checkpoints", "8",
                     "--out-dir", str(base / "w")]) == 0
        assert main(["register", "--ref", ref, "--sensed", sen,
                     "--corr", corr, "--model", "poly1",
                     "--checkpoints", "8", "--out-dir", str(base / "r")]) == 0
        names = ["s/reference.bin", "s/sensed.bin", "s/dem.bin",
                 "s/truth.model", "s/manifest.txt",
                 "m/correspondences.csv", "m/correspondences_raw.csv",
                 "m/match_stats.txt", "e/misreg.csv",
                 "f/rfm1_unit.model", "f/fit_report.txt", "w/sweep.csv",
                 "r/registered.bin", "r/poly1.model", "r/register_report.txt"]
        return [(base / n).read_bytes() for n in names]

    same = run_all("first") == run_all("second")
    record_criterion("criterion-9 determinism", same,
                     "six subcommands, run twice, all artifacts byte-identical"
                     if same else "artifact bytes differ between runs")
