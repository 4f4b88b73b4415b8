from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import coreg.cli
from coreg.cli import main
from coreg.config import PipelineConfig
from coreg.geomodels import model_spec_from_name
from coreg.keypoints import detect_block_fast
from coreg.matcher import (CSV_HEADER, Correspondence, correspondences_from_csv,
                           correspondences_to_csv, match_all)
from coreg.metrics import sweep, sweep_to_csv
from coreg.raster import GeoTransform, load_raster, save_raster
from coreg.synthgen import (SynthSpec, cubic_truth, generate,
                            translation_warp)

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


@pytest.mark.parametrize("line, named", [
    ("size=abc", "bad size= value: invalid literal for int() with base 10: "
                 "'abc'"),
    ("gamma=1,5", "bad gamma= value: could not convert string to float: "
                  "'1,5'"),
    ("warp_order=x", "bad warp_order= value: invalid literal for int() with "
                     "base 10: 'x'"),
    ("warp_norm=" + " ".join(["0.0"] * 11),
     "bad warp_norm= value: needs 10 numbers, got 11"),
    ("warp_norm=0.0", "bad warp_norm= value: needs 10 numbers, got 1"),
])
def test_bad_recipe_value_names_the_key_and_the_file(tmp_path, capsys, line,
                                                     named):
    spec_file = tmp_path / "bad.txt"
    spec_file.write_text(f"seed=5\n{line}\n")
    rc = main(["synth", "--spec", str(spec_file),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error kind=ValueError msg={spec_file}: manifest: {named}\n")


@pytest.mark.parametrize("line, named", [
    ("texture=blobs", "manifest: unknown key 'texture'"),
    ("radiometry=log", "radiometry must be identity or gamma, got 'log'"),
])
def test_removed_recipe_options_are_rejected(tmp_path, capsys, line, named):
    spec_file = tmp_path / "old.txt"
    spec_file.write_text(f"size=64\n{line}\n")
    rc = main(["synth", "--spec", str(spec_file),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error kind=ValueError msg={spec_file}: {named}\n")
    assert not (tmp_path / "out").exists()


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


def test_register_reads_only_the_reference_header(scene, tmp_path, capsys,
                                                  monkeypatch):
    """The reference sets the output grid alone: its samples are not loaded,
    garbage samples of the right size give the same outputs, and a short
    payload still fails."""
    root, run = scene
    loaded = []

    def spy(path):
        loaded.append(Path(path))
        return load_raster(path)

    monkeypatch.setattr(coreg.cli, "load_raster", spy)
    garbage = tmp_path / "garbage"
    garbage.mkdir()
    size = (root / "ref.bin").stat().st_size
    (garbage / "ref.bin").write_bytes(b"\xff\x7f\x00\x01" * (size // 4))
    (garbage / "ref.hdr").write_text((root / "ref.hdr").read_text())

    def register(ref, out):
        return main(["register", "--ref", str(ref),
                     "--sensed", str(root / "sen.bin"),
                     "--corr", str(run / "correspondences.csv"),
                     "--model", "poly1", "--checkpoints", "10",
                     "--out-dir", str(out)])

    assert register(root / "ref.bin", tmp_path / "a") == 0
    assert register(garbage / "ref.bin", tmp_path / "b") == 0
    assert loaded == [root / "sen.bin"] * 2
    for name in ("registered.bin", "registered.hdr", "poly1.model",
                 "register_report.txt"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name

    (garbage / "ref.bin").write_bytes(bytes(size - 4))
    capsys.readouterr()
    assert register(garbage / "ref.bin", tmp_path / "c") == 1
    assert capsys.readouterr().err == (
        f"error kind=RasterFormatError msg={garbage / 'ref.bin'}: payload is "
        f"{size - 4} bytes, header implies {size}\n")
    assert not (tmp_path / "c" / "registered.bin").exists()


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
    assert lines[0] == ("model,cp_count,rmse_px,max_residual_px,"
                        "mean_distance_px,warning")
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["poly1", "10"], ["poly1", "15"], ["poly2", "10"], ["poly2", "15"]]
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) < 1e-6


def test_sweep_prints_the_ranking_and_writes_the_same_grid(scene, tmp_path,
                                                          capsys):
    _, run = scene
    corr = run / "correspondences.csv"
    names = ("poly3", "proj22", "poly1")
    rc = main(["sweep", "--corr", str(corr), "--models", ",".join(names),
               "--cp-counts", "12,17", "--checkpoints", "8",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    results = sweep([model_spec_from_name(n) for n in names],
                    correspondences_from_csv(corr.read_text()), 8, [12, 17],
                    seed=0)
    assert (tmp_path / "sweep.csv").read_bytes() == \
        sweep_to_csv(results).encode()

    out = capsys.readouterr().out.splitlines()
    head = out.index("checkpoint rmse at 17 control points (best first):")
    rmse = {res.spec.name: res.rmse[-1] for res in results}
    # exact data: both polynomials fit, proj22 is degenerate and goes last
    assert rmse["proj22"] is None
    assert out[head + 1:] == [
        f"  poly1 {rmse['poly1']:.4g} px",
        f"  poly3 {rmse['poly3']:.4g} px",
        "  proj22 fit failed",
    ]
    assert rmse["poly1"] < rmse["poly3"]


def test_sweep_ranking_marks_fits_that_warn(tmp_path, capsys):
    # a noisy cubic field, which the 38-term projective fit bends through
    # a near-zero denominator
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0, 900, (2, 120))
    u, v = xs / 450 - 1, ys / 450 - 1
    sx = xs + 30 * u * v + 10 * u ** 3 + rng.normal(0, 0.5, 120)
    sy = ys - 18 * u ** 2 + 10 * v ** 3 + rng.normal(0, 0.5, 120)
    corrs = [Correspondence(*p, *p, peak=1.0) for p in zip(xs, ys, sx, sy)]
    (tmp_path / "c.csv").write_text(correspondences_to_csv(corrs))
    rc = main(["sweep", "--corr", str(tmp_path / "c.csv"),
               "--models", "poly3,proj38", "--cp-counts", "40,60",
               "--checkpoints", "40", "--out-dir", str(tmp_path)])
    assert rc == 0
    results = sweep([model_spec_from_name(n) for n in ("poly3", "proj38")],
                    corrs, 40, [40, 60], seed=0)
    poly3, proj38 = results
    assert poly3.warning == [None, None]
    assert proj38.warning[-1] == "denominator-near-zero"
    out = capsys.readouterr().out.splitlines()
    assert f"  poly3 {poly3.rmse[-1]:.4g} px" in out
    assert (f"  proj38 {proj38.rmse[-1]:.4g} px "
            "warning=denominator-near-zero") in out


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


@pytest.fixture
def far_dem(scene, tmp_path):
    """A DEM of the scene's size placed where it covers no point."""
    root, _ = scene
    dem = load_raster(root / "dem.bin")
    path = tmp_path / "far_dem.bin"
    save_raster(as_grid(dem.data, GeoTransform(1e6, 1e6, 1.0, 1.0)), path)
    return str(path)


@pytest.mark.parametrize("argv", [
    ["fit", "--model", "poly3"],
    ["sweep", "--models", "poly1,poly3", "--cp-counts", "10,15",
     "--checkpoints", "8"],
], ids=["fit-poly3", "sweep-poly1-poly3"])
def test_2d_models_ignore_the_dem(scene, far_dem, tmp_path, argv):
    _, run = scene
    rc = main(argv + ["--corr", str(run / "correspondences.csv"),
                      "--dem", far_dem, "--out-dir", str(tmp_path)])
    assert rc == 0


def test_height_model_needs_the_dem_under_every_point(scene, far_dem,
                                                     tmp_path, capsys):
    _, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "rfm1_unit", "--dem", far_dem,
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error kind=ValueError" in err
    assert "control point 0 at" in err


def test_dem_gap_names_the_row_of_the_correspondence_file(tmp_path, capsys):
    # the scene and matches of criterion 9, with the DEM blanked under row 30
    recipe = tmp_path / "recipe.txt"
    recipe.write_text(
        "size=256\nseed=11\nradiometry=gamma\ngamma=0.6\nspeckle_var=0.01\n"
        "warp_family=polynomial\nwarp_order=1\n"
        "warp_num_x=3.0e0 1.0e0 0.0e0\nwarp_den_x=1.0e0 0.0e0 0.0e0\n"
        "warp_num_y=-2.0e0 0.0e0 1.0e0\nwarp_den_y=1.0e0 0.0e0 0.0e0\n")
    assert main(["synth", "--spec", str(recipe),
                 "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["match", "--ref", str(tmp_path / "s" / "reference.bin"),
                 "--sensed", str(tmp_path / "s" / "sensed.bin"),
                 "--template-size", "48", "--search-size", "96",
                 "--blocks", "10",
                 "--out-dir", str(tmp_path / "m")]) == 0
    corr = tmp_path / "m" / "correspondences.csv"
    row = correspondences_from_csv(corr.read_text())[30]
    dem = load_raster(tmp_path / "s" / "dem.bin")
    c, r = (int(p) for p in dem.geotransform.geo_to_pixel(row.ref_x,
                                                          row.ref_y))
    data = dem.data.copy()
    data[r:r + 2, c:c + 2] = np.nan
    save_raster(as_grid(data, dem.geotransform), tmp_path / "holed.bin")
    rc = main(["fit", "--corr", str(corr), "--model", "rfm1_unit",
               "--dem", str(tmp_path / "holed.bin"), "--checkpoints", "8",
               "--out-dir", str(tmp_path / "f")])
    assert rc == 1
    assert "control point 30 at" in capsys.readouterr().err


def test_fit_holds_out_only_with_the_checkpoints_flag(scene, tmp_path):
    _, run = scene
    corr = run / "correspondences.csv"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("n_checkpoints = 8\n")
    rc = main(["fit", "--corr", str(corr), "--model", "poly1",
               "--config", str(cfg), "--out-dir", str(tmp_path / "all")])
    assert rc == 0
    rep = _report(tmp_path / "all" / "fit_report.txt")
    n = len(correspondences_from_csv(corr.read_text()))
    assert rep["cp_count"] == str(n)
    assert "checkpoints" not in rep
    rc = main(["fit", "--corr", str(corr), "--model", "poly1",
               "--checkpoints", "8", "--out-dir", str(tmp_path / "held")])
    assert rc == 0
    rep = _report(tmp_path / "held" / "fit_report.txt")
    assert (rep["cp_count"], rep["checkpoints"]) == (str(n - 8), "8")


def test_fit_rejects_a_negative_pixel_size(scene, tmp_path, capsys):
    _, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "poly1", "--checkpoints", "3",
               "--pixel-size", "-1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error kind=ValueError msg=pixel_size must be > 0, got -1.0\n")
    assert not (tmp_path / "fit_report.txt").exists()


def test_bad_cp_counts_fail_cleanly(scene, tmp_path, capsys):
    _, run = scene
    rc = main(["sweep", "--corr", str(run / "correspondences.csv"),
               "--models", "poly1", "--cp-counts", "ten",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error kind=ValueError" in capsys.readouterr().err


def test_bad_config_value_names_the_key_and_the_file(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("top_k = abc\n")
    rc = main(["match", "--config", str(cfg), "--ref", "r.bin",
               "--sensed", "s.bin", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error kind=ValueError msg={cfg}: bad top_k= value: invalid literal "
        "for int() with base 10: 'abc'\n")


@pytest.mark.parametrize("row, named", [
    ("abc,0,0,0,0,0,0,0,1", "bad ref_col value: could not convert string to "
                            "float: 'abc'"),
    ("0,0,0,0,0,0,0,0,nan", "bad peak value: not a finite number: 'nan'"),
    ("0,0,0,0,0,inf,0,0,1", "bad ref_y value: not a finite number: 'inf'"),
    ("0,0,0,0,0,0,0,0,1,7", "expected 9 columns, got 10"),
    ("0,0,0,0,0,0,0,1", "expected 9 columns, got 8"),
])
def test_bad_correspondence_value_names_file_line_and_column(tmp_path, capsys,
                                                             row, named):
    # the blank line counts: the bad row is line 4 of the file
    corr = tmp_path / "bad.csv"
    corr.write_text(f"{CSV_HEADER}\n1,1,1,1,1,1,1,1,1\n\n{row}\n")
    rc = main(["measure", "--corr", str(corr), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error kind=ValueError msg={corr}: line 4: {named}\n")
    assert not (tmp_path / "misreg.csv").exists()


@pytest.mark.parametrize("size", ["0", "-100"])
def test_nonpositive_template_size_fails_before_any_stage(scene, tmp_path,
                                                          capsys, size):
    root, _ = scene
    rc = main(["match", "--ref", str(root / "ref.bin"),
               "--sensed", str(root / "sen.bin"), "--template-size", size,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err == ("error kind=ValueError msg=template_size must be > 0, "
                   f"got {size}\n")
    assert "stage=" not in out


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_match_seed_fails_before_any_stage(scene, tmp_path, capsys,
                                                    where):
    root, _ = scene
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("seed = -1\n")
    seed = (["--seed", "-1"] if where == "flag"
            else ["--config", str(cfg)])
    rc = main(["match", "--ref", str(root / "ref.bin"),
               "--sensed", str(root / "sen.bin"), *seed,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err == "error kind=ValueError msg=seed must be >= 0, got -1\n"
    assert "stage=" not in out


@pytest.mark.parametrize("where", ["flag", "recipe"])
def test_negative_synth_seed_fails_before_generating(tmp_path, capsys, where):
    spec_file = tmp_path / "recipe.txt"
    spec_file.write_text("size=64\n" + ("seed=-1\n" if where == "recipe"
                                        else "seed=5\n"))
    seed = ["--seed", "-1"] if where == "flag" else []
    rc = main(["synth", "--spec", str(spec_file), *seed,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith("error kind=ValueError msg=")
    assert err.endswith("seed must be >= 0, got -1\n")
    assert "stage=" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--spec", "r.txt", "--config", "p.cfg"],
    ["synth", "--spec", "r.txt", "--threads", "2"],
    ["measure", "--corr", "c.csv", "--config", "p.cfg"],
    ["measure", "--corr", "c.csv", "--seed", "5"],
    ["measure", "--corr", "c.csv", "--threads", "2"],
    ["fit", "--corr", "c.csv", "--model", "poly1", "--threads", "2"],
    ["sweep", "--corr", "c.csv", "--threads", "2"],
    ["register", "--ref", "r.bin", "--sensed", "s.bin", "--corr", "c.csv",
     "--model", "poly1", "--threads", "2"],
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, read", [
    (["synth", "--spec", "r.txt", "--seed", "3"], {"seed": 3}),
    (["match", "--ref", "r.bin", "--sensed", "s.bin", "--config", "p.cfg",
      "--seed", "3", "--threads", "2"],
     {"config": "p.cfg", "seed": 3, "threads": 2}),
    (["fit", "--corr", "c.csv", "--model", "poly1", "--config", "p.cfg",
      "--seed", "3"], {"config": "p.cfg", "seed": 3}),
    (["sweep", "--corr", "c.csv", "--config", "p.cfg", "--seed", "3"],
     {"config": "p.cfg", "seed": 3}),
    (["register", "--ref", "r.bin", "--sensed", "s.bin", "--corr", "c.csv",
      "--model", "poly1", "--config", "p.cfg", "--seed", "3"],
     {"config": "p.cfg", "seed": 3}),
])
def test_subcommands_take_the_shared_flags_they_read(argv, read):
    args = coreg.cli.build_parser().parse_args([*argv, "--out-dir", "o"])
    assert {name: getattr(args, name) for name in read} == read


def test_crs_mismatch_fails_cleanly(tmp_path, capsys):
    a = as_grid(texture(64, seed=1), crs_tag="EPSG:32633")
    b = as_grid(texture(64, seed=1), crs_tag="EPSG:4326")
    save_raster(a, tmp_path / "a.bin")
    save_raster(b, tmp_path / "b.bin")
    rc = main(["match", "--ref", str(tmp_path / "a.bin"),
               "--sensed", str(tmp_path / "b.bin"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error kind=CrsMismatchError" in capsys.readouterr().err


def test_disjoint_extents_fail_naming_the_skips(tmp_path, capsys):
    save_raster(as_grid(texture(128, seed=1)), tmp_path / "a.bin")
    save_raster(as_grid(texture(128, seed=2),
                        GeoTransform(1000.0, 1000.0, 1.0, 1.0)),
                tmp_path / "b.bin")
    rc = main(["match", "--ref", str(tmp_path / "a.bin"),
               "--sensed", str(tmp_path / "b.bin"),
               "--template-size", "48", "--search-size", "96",
               "--blocks", "2", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error kind=ValueError" in err and "search-window=" in err


@pytest.fixture(scope="module")
def framed(tmp_path_factory):
    """A 640 px sensed frame on disk around a reference cut to its central
    400 px and georeferenced where it was cut."""
    root = tmp_path_factory.mktemp("framed")
    ref, sen, _, _ = generate(SynthSpec(size=640, seed=6,
                                        warp=translation_warp(3.0, -2.0)))
    ox, oy = ref.geotransform.pixel_to_geo(120.0, 120.0)
    ref = as_grid(ref.data[120:520, 120:520],
                  replace(ref.geotransform, origin_x=ox, origin_y=oy),
                  crs_tag=ref.crs_tag)
    save_raster(ref, root / "ref.bin")
    save_raster(sen, root / "sen.bin")
    return root, ref, sen


def test_sensed_pixels_index_the_sensed_file(framed, tmp_path):
    root, _, _ = framed
    assert main(["match", "--ref", str(root / "ref.bin"),
                 "--sensed", str(root / "sen.bin"), "--blocks", "4",
                 "--out-dir", str(tmp_path)]) == 0
    sensed_gt = load_raster(root / "sen.bin").geotransform
    corrs = correspondences_from_csv(
        (tmp_path / "correspondences.csv").read_text())
    assert len(corrs) >= 10
    for c in corrs:
        assert sensed_gt.pixel_to_geo(c.sensed_col, c.sensed_row) == (
            c.sensed_x, c.sensed_y)


def test_matching_the_whole_frame_equals_matching_its_footprint(framed):
    _, ref, sen = framed
    cfg = PipelineConfig(n_blocks=4)
    points = detect_block_fast(ref, cfg, border=cfg.template_size // 2)
    # the reference footprint in the sensed frame plus 100 px on each side
    ox, oy = sen.geotransform.pixel_to_geo(20.0, 20.0)
    part = as_grid(sen.data[20:620, 20:620],
                   replace(sen.geotransform, origin_x=ox, origin_y=oy),
                   crs_tag=sen.crs_tag)
    whole, whole_stats = match_all(points, ref, sen, cfg)
    cut, cut_stats = match_all(points, ref, part, cfg)
    assert whole_stats == cut_stats and whole_stats.matched == len(points)
    assert ([(c.ref_x, c.ref_y, c.sensed_x, c.sensed_y, c.peak) for c in whole]
            == [(c.ref_x, c.ref_y, c.sensed_x, c.sensed_y, c.peak)
                for c in cut])
    assert [(c.sensed_col, c.sensed_row) for c in whole] == [
        (c.sensed_col + 20, c.sensed_row + 20) for c in cut]


def test_header_only_corr_file_fails_cleanly(tmp_path, capsys):
    corr = tmp_path / "empty.csv"
    corr.write_text(CSV_HEADER + "\n")
    rc = main(["measure", "--corr", str(corr), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error kind=ValueError" in capsys.readouterr().err


def test_register_on_a_header_only_corr_file_names_both_counts(
        scene, tmp_path, capsys):
    root, _ = scene
    corr = tmp_path / "empty.csv"
    corr.write_text(CSV_HEADER + "\n")
    rc = main(["register", "--ref", str(root / "ref.bin"),
               "--sensed", str(root / "sen.bin"), "--corr", str(corr),
               "--model", "poly1", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error kind=ValueError msg=48 checkpoints need at least 49 "
        "correspondences, got 0\n")


def test_unknown_model_name_fails_cleanly(scene, tmp_path, capsys):
    _, run = scene
    rc = main(["fit", "--corr", str(run / "correspondences.csv"),
               "--model", "poly9", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error kind=ValueError" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_empty_model_list_fails_cleanly(scene, tmp_path, capsys, where):
    _, run = scene
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("models = ,\n")
    models = (["--models", ""] if where == "flag"
              else ["--config", str(cfg)])
    rc = main(["sweep", "--corr", str(run / "correspondences.csv"), *models,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    given = "''" if where == "flag" else "','"
    assert capsys.readouterr().err == (
        "error kind=ValueError msg=models must name at least one model, "
        f"got {given}\n")
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_grid_finer_than_the_reference_fails_cleanly(scene, tmp_path,
                                                     capsys):
    root, _ = scene
    rc = main(["match", "--ref", str(root / "ref.bin"),
               "--sensed", str(root / "sen.bin"), "--blocks", "1000",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error kind=ValueError msg=n_blocks (1000) exceeds the image's "
        "shorter side (256 px)\n")
    assert not (tmp_path / "out" / "correspondences.csv").exists()


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
                     "--blocks", "6",
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


def test_match_artifacts_do_not_depend_on_threads(tmp_path):
    ref, sen, _, _ = generate(SynthSpec(
        size=320, seed=13, warp=translation_warp(2.5, -1.25),
        radiometry="gamma", gamma=0.6, speckle_var=0.01))
    save_raster(ref, tmp_path / "ref.bin")
    save_raster(sen, tmp_path / "sen.bin")
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text("subpixel = true\n")

    def run(threads):
        out = tmp_path / f"threads{threads}"
        assert main(["match", "--ref", str(tmp_path / "ref.bin"),
                     "--sensed", str(tmp_path / "sen.bin"),
                     "--config", str(cfg), "--threads", str(threads),
                     "--template-size", "48", "--search-size", "96",
                     "--blocks", "6", "--out-dir", str(out)]) == 0
        return [(out / name).read_bytes() for name in (
            "correspondences.csv", "correspondences_raw.csv",
            "match_stats.txt")]

    one, two = run(1), run(2)
    assert len(correspondences_from_csv(one[0].decode())) >= 10
    assert one == two


def test_registration_repairs_translation(tmp_path):
    ref, sen, truth, _ = generate(SynthSpec(
        size=256, seed=12, warp=translation_warp(6.0, -4.0),
        radiometry="gamma", gamma=0.6))
    save_raster(ref, tmp_path / "ref.bin")
    save_raster(sen, tmp_path / "sen.bin")
    assert main(["match", "--ref", str(tmp_path / "ref.bin"),
                 "--sensed", str(tmp_path / "sen.bin"),
                 "--template-size", "48", "--search-size", "96",
                 "--blocks", "6",
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


def test_score_lines_count_the_checkpoints_a_model_cannot_evaluate():
    from coreg.cli import _score_lines
    from coreg.geomodels import ControlPoint, FittedModel
    from coreg.metrics import checkpoint_rmse

    spec = model_spec_from_name("rfm1_distinct")
    num = np.zeros(spec.basis_size)
    num[1] = 1.0
    den = np.zeros(spec.basis_size)
    den[0] = den[1] = 1.0
    # both coordinates evaluate X / (1 + X), whose denominator vanishes at
    # the first checkpoint; the other two are exact
    model = FittedModel.from_coefficients(spec, num, num, den_x=den, den_y=den)
    checks = [ControlPoint(-1.0, 0.0, 0.0, 0.0, ref_z=0.0),
              ControlPoint(0.5, 0.0, 1.0 / 3.0, 1.0 / 3.0, ref_z=0.0),
              ControlPoint(3.0, 0.0, 0.75, 0.75, ref_z=0.0)]
    lines = _score_lines(checkpoint_rmse(model, checks))
    assert lines[:2] == ["checkpoints=2", "checkpoints_excluded=1"]


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


def test_sentinel_and_nan_holes_give_the_same_run(tmp_path):
    """The same pair and DEM with -9999 holes under nodata=-9999 and with
    NaN holes under nodata=nan: matching and an rfm register agree to the
    byte, and the registered rasters differ only in their fill bytes."""
    ref, sen, _, dem = generate(SynthSpec(size=384, seed=4,
                                          warp=cubic_truth(384, 0.1)))
    holes = {"ref": (slice(300, 320), slice(40, 60)),
             "sen": (slice(150, 170), slice(180, 200)),
             "dem": (slice(0, 12), slice(150, 180))}
    runs = {}
    for fill in (-9999.0, np.nan):
        root = tmp_path / ("sentinel" if fill == -9999.0 else "nan")
        root.mkdir()
        for name, grid in (("ref", ref), ("sen", sen), ("dem", dem)):
            data = grid.data.copy()
            data[holes[name]] = fill
            save_raster(as_grid(data, grid.geotransform, grid.crs_tag,
                                nodata=fill), root / f"{name}.bin")
        assert main(["match", "--ref", str(root / "ref.bin"),
                     "--sensed", str(root / "sen.bin"),
                     "--template-size", "48", "--search-size", "96",
                     "--blocks", "8", "--out-dir", str(root / "m")]) == 0
        assert main(["register", "--ref", str(root / "ref.bin"),
                     "--sensed", str(root / "sen.bin"),
                     "--corr", str(root / "m" / "correspondences.csv"),
                     "--model", "rfm2_shared", "--dem", str(root / "dem.bin"),
                     "--checkpoints", "8", "--out-dir", str(root / "r")]) == 0
        runs[root.name] = root
    a, b = runs["sentinel"], runs["nan"]
    assert np.fromfile(a / "sen.bin", "<f4")[150 * 384 + 180] == -9999.0
    for name in ("m/correspondences.csv", "m/correspondences_raw.csv",
                 "m/match_stats.txt", "r/rfm2_shared.model",
                 "r/register_report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert int(_report(a / "m" / "match_stats.txt")["skipped_nodata"]) > 0

    reg_a = load_raster(a / "r" / "registered.bin")
    reg_b = load_raster(b / "r" / "registered.bin")
    assert (reg_a.nodata, np.isnan(reg_b.nodata)) == (-9999.0, True)
    assert np.array_equal(reg_a.data, reg_b.data, equal_nan=True)
    fill = np.isnan(reg_b.data)
    assert fill[:12, 150:180].all() and not fill.all()
    raw_a = np.fromfile(a / "r" / "registered.bin", "<f4").reshape(fill.shape)
    raw_b = np.fromfile(b / "r" / "registered.bin", "<f4").reshape(fill.shape)
    assert (raw_a[fill] == -9999.0).all()
    assert raw_a[~fill].tobytes() == raw_b[~fill].tobytes()
