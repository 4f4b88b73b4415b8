import numpy as np
import pytest

from coreg.cli import main
from coreg.matcher import (CSV_HEADER, Correspondence, correspondences_from_csv,
                           correspondences_to_csv)
from coreg.raster import load_raster, save_raster
from coreg.synthgen import SynthSpec, generate, translation_warp

from conftest import as_grid, texture


def _report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out.setdefault(key, value)
    return out


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """Identity pair on disk plus a matched correspondence set."""
    root = tmp_path_factory.mktemp("scene")
    ref, sen, _, dem = generate(SynthSpec(size=256, seed=4))
    save_raster(ref, root / "ref.bin")
    save_raster(sen, root / "sen.bin")
    save_raster(dem, root / "dem.bin")
    run = root / "match"
    rc = main(["match", "--ref", str(root / "ref.bin"),
               "--sensed", str(root / "sen.bin"),
               "--template-size", "48", "--search-size", "96",
               "--blocks", "8", "--out-dir", str(run)])
    assert rc == 0
    return root, run


def test_synth_writes_complete_bundle(tmp_path):
    spec_file = tmp_path / "recipe.txt"
    spec_file.write_text("size=64\nseed=5\nspeckle_var=0.01\n")
    rc = main(["synth", "--spec", str(spec_file),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out"
    for name in ("reference.bin", "reference.hdr", "sensed.bin", "sensed.hdr",
                 "dem.bin", "dem.hdr", "truth.model", "manifest.txt"):
        assert (out / name).exists(), name
    ref = load_raster(out / "reference.bin")
    assert ref.data.shape == (64, 64)
    assert "seed=5" in (out / "manifest.txt").read_text()


def test_synth_seed_flag_overrides_manifest(tmp_path):
    spec_file = tmp_path / "recipe.txt"
    spec_file.write_text("size=64\nseed=5\n")
    rc = main(["synth", "--spec", str(spec_file), "--seed", "9",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "seed=9" in (tmp_path / "out" / "manifest.txt").read_text()


def test_match_on_identity_pair_reports_zero_offsets(scene):
    root, run = scene
    corrs = correspondences_from_csv((run / "correspondences.csv").read_text())
    assert len(corrs) >= 20
    for c in corrs:
        assert c.sensed_x == c.ref_x
        assert c.sensed_y == c.ref_y
    stats = _report(run / "match_stats.txt")
    assert int(stats["ransac_outliers"]) == 0
    assert int(stats["selected"]) == len(corrs)
    raw = (run / "correspondences_raw.csv").read_text().splitlines()
    assert raw[0] == CSV_HEADER + ",inlier"
    assert all(line.endswith(",1") for line in raw[1:])


def test_measure_of_identity_matches_is_zero(scene, tmp_path):
    _, run = scene
    rc = main(["measure", "--corr", str(run / "correspondences.csv"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "misreg.csv").read_text()
    assert "# mean_ds_px=0.0" in text
    assert "# max_ds_px=0.0" in text


def test_measure_hand_rows(tmp_path):
    rows = [CSV_HEADER]
    for rx, sx in ((0.0, 1.0), (5.0, 4.0), (9.0, 9.0)):
        rows.append(",".join(repr(v) for v in
                             (rx, 2.0, sx, 2.0, rx, 2.0, sx, 2.0, 1.0)))
    corr = tmp_path / "c.csv"
    corr.write_text("\n".join(rows) + "\n")
    rc = main(["measure", "--corr", str(corr), "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "misreg.csv").read_text()
    assert f"# mean_abs_dx_px={2.0 / 3.0!r}" in text
    assert "# mean_abs_dy_px=0.0" in text
    assert f"# mean_ds_px={2.0 / 3.0!r}" in text


def test_register_identity_scores_zero(scene, tmp_path):
    root, run = scene
    rc = main(["register", "--ref", str(root / "ref.bin"),
               "--sensed", str(root / "sen.bin"),
               "--corr", str(run / "correspondences.csv"),
               "--model", "poly1", "--checkpoints", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = _report(tmp_path / "register_report.txt")
    assert rep["model"] == "poly1"
    assert float(rep["checkpoint_rmse_px"]) < 1e-9
    assert float(rep["input_mean_ds_px"]) == 0.0
    assert float(rep["eval_failure_fraction"]) == 0.0
    assert (tmp_path / "poly1.model").exists()
    registered = load_raster(tmp_path / "registered.bin")
    ref = load_raster(root / "ref.bin")
    assert registered.data.shape == ref.data.shape


def test_fit_report_round_trips_model(scene, tmp_path):
    _, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "proj10", "--checkpoints", "8",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = _report(tmp_path / "fit_report.txt")
    assert rep["model"] == "proj10"
    assert rep["parameters"] == "10"
    assert rep["min_cp_count"] == "5"
    assert float(rep["checkpoint_rmse_px"]) < 1e-6
    from coreg.geomodels import FittedModel
    model = FittedModel.from_text((tmp_path / "proj10.model").read_text())
    assert model.spec.name == "proj10"


def test_sweep_writes_expected_grid(scene, tmp_path):
    _, run = scene
    rc = main(["sweep", "--corr", str(run / "correspondences.csv"),
               "--models", "poly1,poly2", "--cp-counts", "10,15",
               "--checkpoints", "8", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "model,cp_count,rmse_px,max_residual_px,mean_distance_px"
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["poly1", "10"], ["poly1", "15"], ["poly2", "10"], ["poly2", "15"]]
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) < 1e-6


def test_rfm_fit_needs_dem(scene, tmp_path, capsys):
    _, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "rfm1_unit", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error kind=" in err
    assert "DEM" in err


def test_rfm_fit_with_dem_succeeds(scene, tmp_path):
    root, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "rfm1_unit", "--dem", str(root / "dem.bin"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "rfm1_unit.model").exists()


def test_crs_mismatch_fails_cleanly(tmp_path, capsys):
    a = as_grid(texture(64, seed=1), crs_tag="EPSG:32633")
    b = as_grid(texture(64, seed=1), crs_tag="EPSG:4326")
    save_raster(a, tmp_path / "a.bin")
    save_raster(b, tmp_path / "b.bin")
    rc = main(["match", "--ref", str(tmp_path / "a.bin"),
               "--sensed", str(tmp_path / "b.bin"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error kind=" in capsys.readouterr().err


def test_header_only_corr_file_fails_cleanly(tmp_path, capsys):
    corr = tmp_path / "empty.csv"
    corr.write_text(CSV_HEADER + "\n")
    rc = main(["measure", "--corr", str(corr), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error kind=ValueError" in capsys.readouterr().err


def test_unknown_model_name_fails_cleanly(scene, tmp_path, capsys):
    _, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "poly9", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error kind=ValueError" in capsys.readouterr().err


def test_artifacts_are_deterministic(tmp_path):
    spec_file = tmp_path / "recipe.txt"
    spec_file.write_text(
        "size=256\nseed=11\nradiometry=gamma\ngamma=0.6\nspeckle_var=0.01\n"
        "warp_family=polynomial\nwarp_order=1\n"
        "warp_num_x=3.0e0 1.0e0 0.0e0\nwarp_den_x=1.0e0 0.0e0 0.0e0\n"
        "warp_num_y=-2.0e0 0.0e0 1.0e0\nwarp_den_y=1.0e0 0.0e0 0.0e0\n")

    def one(tag):
        base = tmp_path / tag
        assert main(["synth", "--spec", str(spec_file),
                     "--out-dir", str(base / "s")]) == 0
        assert main(["match", "--ref", str(base / "s" / "reference.bin"),
                     "--sensed", str(base / "s" / "sensed.bin"),
                     "--template-size", "48", "--search-size", "96",
                     "--blocks", "6", "--margin", "20",
                     "--out-dir", str(base / "m")]) == 0
        assert main(["measure", "--corr", str(base / "m" / "correspondences.csv"),
                     "--out-dir", str(base / "m")]) == 0
        assert main(["register", "--ref", str(base / "s" / "reference.bin"),
                     "--sensed", str(base / "s" / "sensed.bin"),
                     "--corr", str(base / "m" / "correspondences.csv"),
                     "--model", "poly1", "--checkpoints", "8",
                     "--out-dir", str(base / "r")]) == 0
        names = ["s/reference.bin", "s/sensed.bin", "s/truth.model",
                 "m/correspondences.csv", "m/correspondences_raw.csv",
                 "m/match_stats.txt", "m/misreg.csv",
                 "r/registered.bin", "r/poly1.model", "r/register_report.txt"]
        return [(base / n).read_bytes() for n in names]

    assert one("first") == one("second")


def test_registration_repairs_translation(tmp_path):
    ref, sen, truth, _ = generate(SynthSpec(
        size=256, seed=12, warp=translation_warp(6.0, -4.0),
        radiometry="gamma", gamma=0.6))
    save_raster(ref, tmp_path / "ref.bin")
    save_raster(sen, tmp_path / "sen.bin")
    assert main(["match", "--ref", str(tmp_path / "ref.bin"),
                 "--sensed", str(tmp_path / "sen.bin"),
                 "--template-size", "48", "--search-size", "96",
                 "--blocks", "6", "--margin", "20",
                 "--out-dir", str(tmp_path / "m")]) == 0
    corrs = correspondences_from_csv(
        (tmp_path / "m" / "correspondences.csv").read_text())
    dx = np.array([c.sensed_x - c.ref_x for c in corrs])
    dy = np.array([c.sensed_y - c.ref_y for c in corrs])
    assert np.allclose(dx, 6.0) and np.allclose(dy, -4.0)
    assert main(["register", "--ref", str(tmp_path / "ref.bin"),
                 "--sensed", str(tmp_path / "sen.bin"),
                 "--corr", str(tmp_path / "m" / "correspondences.csv"),
                 "--model", "poly1", "--checkpoints", "8",
                 "--out-dir", str(tmp_path / "r")]) == 0
    rep = _report(tmp_path / "r" / "register_report.txt")
    assert float(rep["checkpoint_rmse_px"]) < 0.05
    assert abs(float(rep["input_mean_ds_px"]) - np.hypot(6.0, 4.0)) < 0.05

    registered = load_raster(tmp_path / "r" / "registered.bin")
    inner = (slice(30, 226), slice(30, 226))
    a = registered.data[inner].astype(np.float64)
    # registered carries sensed intensities, so compare against the
    # gamma-mapped reference rather than the raw one
    b = np.clip(generate(SynthSpec(size=256, seed=12))[0].data[inner], 0, 1) ** 0.6
    corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert corr > 0.99


def _register_planted(tmp_path, model, field, xs, ys, dem=None):
    """Register a 64x64 identity-georeferenced pair through ``model`` fitted
    to exact correspondences ``field(x, y, z)`` on the grid ``xs`` x ``ys``
    (z from ``dem``, 0 without one); returns the register report."""
    img = as_grid(texture(64, seed=3))
    save_raster(img, tmp_path / "ref.bin")
    save_raster(img, tmp_path / "sen.bin")
    extra = []
    if dem is not None:
        save_raster(dem, tmp_path / "dem.bin")
        extra = ["--dem", str(tmp_path / "dem.bin")]
    corrs = []
    for y in ys:
        for x in xs:
            z = float(dem.data[int(y), int(x)]) if dem is not None else 0.0
            u, v = field(float(x), float(y), z)
            corrs.append(Correspondence(float(x), float(y), u, v,
                                        float(x), float(y), u, v, 1.0))
    (tmp_path / "c.csv").write_text(correspondences_to_csv(corrs))
    rc = main(["register", "--ref", str(tmp_path / "ref.bin"),
               "--sensed", str(tmp_path / "sen.bin"),
               "--corr", str(tmp_path / "c.csv"), "--model", model,
               "--checkpoints", "8", *extra,
               "--out-dir", str(tmp_path / "r")])
    assert rc == 0
    return _report(tmp_path / "r" / "register_report.txt")


@pytest.mark.parametrize("nodata", [-9999.0, float("nan")])
def test_register_dem_hole_is_not_a_model_failure(tmp_path, nodata):
    rows, cols = np.mgrid[0:64, 0:64]
    relief = 100.0 + 30.0 * np.sin(cols / 9.0) * np.cos(rows / 13.0)
    relief[30:34, 30:34] = nodata
    dem = as_grid(relief, nodata=nodata)
    grid = np.arange(4, 64, 8)     # control points clear of the hole

    def field(x, y, z):
        den = 1.0 + 0.002 * x
        return (x + 1.5 + 0.01 * z) / den, (y - 0.5) / den

    rep = _register_planted(tmp_path, "rfm1_distinct", field, grid, grid, dem)
    assert "warning" not in rep
    assert float(rep["eval_failure_fraction"]) == 0.0


def test_register_counts_projective_pole_inside_frame(tmp_path):
    # control points span x in [0, 40]; the planted denominator vanishes on
    # column 50, inside the 64-pixel frame but outside the fitted hull
    def field(x, y, z):
        den = 1.0 - x / 50.0
        return (x + 2.0) / den, (y - 1.0) / den

    rep = _register_planted(tmp_path, "proj10", field,
                            np.arange(0, 41, 8), np.arange(2, 64, 12))
    # exactly the 64 pixels of the pole column
    assert float(rep["eval_failure_fraction"]) == 64 / (64 * 64)


def test_main_runs_where_the_c_library_has_no_mallopt(monkeypatch, tmp_path):
    import coreg.cli

    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(coreg.cli.ctypes, "CDLL", NoMallopt)
    corr = tmp_path / "c.csv"
    corr.write_text(CSV_HEADER + "\n" + ",".join(["1.0"] * 9) + "\n")
    assert main(["measure", "--corr", str(corr),
                 "--out-dir", str(tmp_path)]) == 0
