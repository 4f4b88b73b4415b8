"""The benchmark's workloads: seeded inputs, one iteration's command sequence,
and checks of every output against the planted truth.

Scenes are 768 pixels, not the paper's 2048, so that a run measures about ten
iterations within its time budget. What the layers' costs depend on is kept:
the flat scene is the top-left 768-pixel window of the criterion-6 field, so
displacements and their gradients are those of the full scene, and an 8x8
grid keeps its ~100-pixel blocks with the same 100/200-pixel windows, so
per-window descriptor work relative to the image area stays close to the
full protocol's.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

# layer functions are called through their modules, whose attributes a traced
# iteration replaces
from coreg import cli, robustfit
from coreg.config import load_config
from coreg.geomodels import (ControlPoint, FittedModel, ModelSpec,
                             all_model_specs, fit)
from coreg.matcher import (Correspondence, correspondences_from_csv,
                           correspondences_to_csv)
from coreg.raster import load_raster, sample_bilinear, save_raster
from coreg.synthgen import SynthSpec, generate, spec_to_manifest

FIELD_SIZE = 2048         # frame of the criterion-6 displacement field
SCENE_SIZE = 768           # flat-scene and fit-warp frame
PIPELINE_CONFIG = "inlier_tol = 35\nsubpixel = true\nseed = 0\n"
GAMMA = 0.8
SPECKLE_VAR = 0.005

# half are mismatches, so select_top_k keeps 143 of ~300 inliers, the share
# criterion 6 selects; from more inliers it keeps only the most affine-like
# points, which flatters poly1 in the criterion-7 ranking
FIT_WARP_POINTS = 600
FIT_WARP_NOISE_PX = 0.15   # per-axis std of the planted sub-pixel noise
FIT_WARP_MISMATCH_PX = (80.0, 160.0)   # far outside inlier_tol = 35
FIT_WARP_TOP_K = 143
FIT_WARP_BORDER = 100
FIT_WARP_MODELS = ("poly3", "proj22", "rfm3_distinct")
# every count must reach rfm3_distinct's minimum of 39 control points
SWEEP_CP_COUNTS = (40, 50, 60, 70, 80, 95)
RANKING_CP_COUNT = 95

SYNTH_SIZE = 512


class CommandFailed(RuntimeError):
    """A coreg subcommand exited non-zero."""


def coreg(*args) -> float:
    """Run one coreg subcommand in-process; returns its wall time. The
    command's own progress lines are dropped so stdout stays the report."""
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in args])
    wall = time.perf_counter() - t0
    if rc != 0:
        raise CommandFailed(f"coreg {args[0]} exited {rc}: "
                            f"{err.getvalue().strip()}")
    return wall


def cubic_truth(size: int, scale: float = 1.0) -> FittedModel:
    """The criterion-6 order-3 displacement field over a ``size`` frame,
    amplitudes multiplied by ``scale`` (mean shift ~23 px at scale 1)."""

    def field(x, y):
        u = 2.0 * x / (size - 1) - 1.0
        v = 2.0 * y / (size - 1) - 1.0
        return (x + scale * (12 + 30 * u * v - 14 * v ** 2 + 10 * u ** 3),
                y + scale * (24 - 18 * u ** 2 + 22 * u * v + 10 * v ** 3))

    rng = np.random.default_rng(42)
    pts = rng.uniform(0, size - 1, (40, 2))
    cps = [ControlPoint(float(x), float(y), *map(float, field(x, y)))
           for x, y in pts]
    return fit(ModelSpec("polynomial", 3), cps)


def read_report(path: Path) -> dict:
    report = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        report.setdefault(key, value)
    return report


def planted_shift(truth: FittedModel, xs, ys):
    tx, ty = truth.apply(xs, ys)
    return np.hypot(tx - xs, ty - ys)


def truth_offsets(truth: FittedModel, corrs: list):
    """Per correspondence: planted shift magnitude and distance of the
    measured sensed position from the planted one."""
    xs = np.array([c.ref_x for c in corrs])
    ys = np.array([c.ref_y for c in corrs])
    tx, ty = truth.apply(xs, ys)
    sx = np.array([c.sensed_x for c in corrs])
    sy = np.array([c.sensed_y for c in corrs])
    return np.hypot(tx - xs, ty - ys), np.hypot(sx - tx, sy - ty)


def within(problems: list, label: str, value: float, lo: float, hi: float):
    if not lo <= value <= hi:
        problems.append(f"{label}={value!r} outside [{lo}, {hi}]")


class Workload:
    """One workload: ``setup`` writes the seeded inputs, ``iterate`` runs the
    command sequence into ``out`` and returns per-stage wall times, and
    ``check`` returns (problems, quality figures) for the outputs in
    ``out``. ``artifacts`` lists the outputs that must be byte-identical
    across iterations."""

    name = ""
    artifacts: tuple = ()
    config = PIPELINE_CONFIG

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.inputs = inputs
        inputs.mkdir(parents=True, exist_ok=True)

    def _scene(self, field_size: int):
        """The flat scene: reference, sensed and DEM on disk, plus config.
        The criterion-6 field spans ``field_size`` pixels, cut to the
        frame's top-left corner when larger than the frame."""
        self.truth = cubic_truth(field_size)
        ref, sensed, _, dem = generate(SynthSpec(
            size=SCENE_SIZE, warp=self.truth, radiometry="gamma",
            gamma=GAMMA, speckle_var=SPECKLE_VAR, seed=self.seed))
        for grid, name in ((ref, "ref.bin"), (sensed, "sen.bin"),
                           (dem, "dem.bin")):
            save_raster(grid, self.inputs / name)
        (self.inputs / "pipeline.cfg").write_text(self.config,
                                                  encoding="utf-8")

    def register(self, out: Path, model: str, corr: Path) -> float:
        extra = ["--dem", self.inputs / "dem.bin"] if model.startswith("rfm") \
            else []
        return coreg("register", "--ref", self.inputs / "ref.bin",
                     "--sensed", self.inputs / "sen.bin", "--corr", corr,
                     "--model", model, "--config",
                     self.inputs / "pipeline.cfg", *extra,
                     "--out-dir", out / f"reg-{model}")

    def quality(self, out: Path, corrs: list, problems: list) -> dict:
        """Accuracy of the poly3 registration in ``out`` against the planted
        truth: criterion-6 tolerances, and the registered raster against the
        gamma-mapped reference (a second resampling of the speckle, hence
        half a speckle std more room than the synth check)."""
        report = read_report(out / "reg-poly3" / "register_report.txt")
        shift, err = truth_offsets(self.truth, corrs)
        measured = float(report["input_mean_ds_px"])
        rmse = float(report["checkpoint_rmse_px"])
        shift_error = abs(measured - float(np.mean(shift)))
        within(problems, "shift_error_px", shift_error, 0.0, 0.5)
        within(problems, "checkpoint_rmse_px", rmse, 0.0, 1.0)
        registered = relative_mad(
            load_raster(out / "reg-poly3" / "registered.bin").data,
            load_raster(self.inputs / "ref.bin"))
        within(problems, "registered_mad", registered, 0.0,
               1.5 * float(np.sqrt(SPECKLE_VAR)))
        return {"checkpoint_rmse_px": rmse, "shift_error_px": shift_error,
                "corr_within_1px_frac": float(np.mean(err <= 1.0)),
                "registered_mad": registered}


class FlatScene(Workload):
    name = "flat-scene"
    # criterion 6 holds out 48 of 143 correspondences; about a third of the
    # ~35 that an 8x8 grid yields here
    config = PIPELINE_CONFIG + "n_blocks = 8\nn_checkpoints = 12\n"
    artifacts = ("run/correspondences.csv", "run/correspondences_raw.csv",
                 "run/match_stats.txt", "reg-poly3/registered.bin",
                 "reg-poly3/registered.hdr", "reg-poly3/poly3.model",
                 "reg-poly3/register_report.txt")

    def setup(self):
        self._scene(FIELD_SIZE)

    def iterate(self, out: Path) -> dict:
        match_s = coreg("match", "--ref", self.inputs / "ref.bin",
                        "--sensed", self.inputs / "sen.bin",
                        "--config", self.inputs / "pipeline.cfg",
                        "--out-dir", out / "run")
        register_s = self.register(out, "poly3",
                                   out / "run" / "correspondences.csv")
        return {"match_s": match_s, "register_s": register_s}

    def check(self, out: Path):
        problems = []
        grid = np.linspace(0, SCENE_SIZE - 1, 64)
        gx, gy = np.meshgrid(grid, grid)
        within(problems, "scene_mean_shift_px",
               float(np.mean(planted_shift(self.truth, gx, gy))), 20.0, 30.0)
        corrs = correspondences_from_csv(
            (out / "run" / "correspondences.csv").read_text(encoding="utf-8"))
        return problems, self.quality(out, corrs, problems)


class FitWarp(Workload):
    name = "fit-warp"
    config = PIPELINE_CONFIG + "cp_counts = {}\n".format(
        ",".join(map(str, SWEEP_CP_COUNTS)))
    artifacts = ("sel/correspondences.csv", "sweep/sweep.csv") + tuple(
        f"reg-{m}/{f}" for m in FIT_WARP_MODELS
        for f in ("registered.bin", "registered.hdr", f"{m}.model",
                  "register_report.txt"))

    def setup(self):
        # the whole field over the frame: no matching here, and the model
        # ranking of criterion 7 depends on the field's shape over the frame
        self._scene(SCENE_SIZE)
        rng = np.random.default_rng([self.seed, 1])
        # only where a matcher's 200 px search window would fit
        xy = rng.uniform(FIT_WARP_BORDER, SCENE_SIZE - 1 - FIT_WARP_BORDER,
                         (FIT_WARP_POINTS, 2))
        tx, ty = self.truth.apply(xy[:, 0], xy[:, 1])
        tx = tx + rng.normal(0.0, FIT_WARP_NOISE_PX, FIT_WARP_POINTS)
        ty = ty + rng.normal(0.0, FIT_WARP_NOISE_PX, FIT_WARP_POINTS)
        bad = np.sort(rng.permutation(FIT_WARP_POINTS)[:FIT_WARP_POINTS // 2])
        ang = rng.uniform(0.0, 2.0 * np.pi, bad.size)
        mag = rng.uniform(*FIT_WARP_MISMATCH_PX, bad.size)
        tx[bad] += mag * np.cos(ang)
        ty[bad] += mag * np.sin(ang)
        self.corrs = [Correspondence(float(x), float(y), float(u), float(v),
                                     float(x), float(y), float(u), float(v),
                                     1.0)
                      for (x, y), u, v in zip(xy, tx, ty)]
        self.planted_outliers = set(bad.tolist())
        self.ransac = load_config(self.inputs / "pipeline.cfg").ransac_params()

    def iterate(self, out: Path) -> dict:
        t0 = time.perf_counter()
        inliers, self.outliers = robustfit.ransac_filter(self.corrs,
                                                         self.ransac)
        selected = robustfit.select_top_k(inliers, FIT_WARP_TOP_K)
        filter_s = time.perf_counter() - t0
        corr = out / "sel" / "correspondences.csv"
        corr.parent.mkdir(parents=True, exist_ok=True)
        corr.write_text(correspondences_to_csv(selected), encoding="utf-8")
        stages = {"filter_s": filter_s}
        stages["sweep_s"] = coreg(
            "sweep", "--corr", corr, "--dem", self.inputs / "dem.bin",
            "--config", self.inputs / "pipeline.cfg",
            "--out-dir", out / "sweep")
        stages["register_s"] = sum(self.register(out, m, corr)
                                   for m in FIT_WARP_MODELS)
        return stages

    def check(self, out: Path):
        problems = []
        index = {id(c): i for i, c in enumerate(self.corrs)}
        recovered = {index[id(c)] for c in self.outliers}
        if recovered != self.planted_outliers:
            problems.append(
                f"ransac outliers differ from the planted set: "
                f"{len(recovered ^ self.planted_outliers)} disagree")
        rmse = {}
        lines = (out / "sweep" / "sweep.csv").read_text(
            encoding="utf-8").strip().splitlines()
        for line in lines[1:]:
            model, count, value = line.split(",")[:3]
            if int(count) == RANKING_CP_COUNT and value:
                rmse[model] = float(value)
        expected_rows = len(all_model_specs()) * len(SWEEP_CP_COUNTS)
        if len(lines) - 1 != expected_rows:
            problems.append(f"sweep.csv has {len(lines) - 1} rows, not "
                            f"{expected_rows}")
        try:
            ratio = rmse["poly1"] / rmse["poly3"]
            if not (ratio > 10.0 and rmse["proj10"] > rmse["proj22"]):
                problems.append(
                    f"criterion-7 ranking fails: poly1/poly3={ratio:.2f}, "
                    f"proj10={rmse['proj10']:.3f}, "
                    f"proj22={rmse['proj22']:.3f}")
        except KeyError as exc:
            problems.append(f"sweep has no rmse for {exc} at "
                            f"{RANKING_CP_COUNT} control points")
        corrs = correspondences_from_csv(
            (out / "sel" / "correspondences.csv").read_text(encoding="utf-8"))
        for model in FIT_WARP_MODELS:
            report = read_report(out / f"reg-{model}" / "register_report.txt")
            if not np.isfinite(float(report["checkpoint_rmse_px"])):
                problems.append(f"{model} checkpoint rmse is not finite")
        return problems, self.quality(out, corrs, problems)


class Synth(Workload):
    name = "synth"
    artifacts = tuple(f"synth/{f}" for f in (
        "reference.bin", "reference.hdr", "sensed.bin", "sensed.hdr",
        "dem.bin", "dem.hdr", "truth.model", "manifest.txt"))

    def setup(self):
        """Writes the recipe and generates the same pair in-process: the
        command's rasters must equal the library's."""
        scale = SYNTH_SIZE / FIELD_SIZE
        self.truth = cubic_truth(SYNTH_SIZE, scale)
        spec = SynthSpec(size=SYNTH_SIZE, warp=self.truth, radiometry="gamma",
                         gamma=GAMMA, speckle_var=SPECKLE_VAR, seed=self.seed)
        (self.inputs / "recipe.txt").write_text(spec_to_manifest(spec),
                                                encoding="utf-8")
        ref, sensed, _, _ = generate(spec)
        self.expected = {"reference.bin": ref.data, "sensed.bin": sensed.data}

    def iterate(self, out: Path) -> dict:
        return {"synth_s": coreg("synth", "--spec", self.inputs / "recipe.txt",
                                 "--out-dir", out / "synth")}

    def check(self, out: Path):
        problems = []
        grids = {name: load_raster(out / "synth" / name)
                 for name in self.expected}
        for name, data in self.expected.items():
            if not np.array_equal(grids[name].data, data):
                problems.append(f"{name} differs from the library's pair")
        truth = FittedModel.from_text(
            (out / "synth" / "truth.model").read_text(encoding="utf-8"))
        mad = relative_mad(pullback(grids["sensed.bin"], truth),
                           grids["reference.bin"])
        within(problems, "pullback_mad", mad, 0.0, float(np.sqrt(SPECKLE_VAR)))
        return problems, {"pullback_mad": mad}


def relative_mad(values: np.ndarray, reference) -> float:
    """Median |values / reference**gamma - 1| over finite values where the
    gamma-mapped reference is at least 0.2. Speckle is unit-mean gamma noise
    of std sqrt(SPECKLE_VAR); a model error of a quarter pixel already moves
    the statistic past one std, a wrong model far beyond."""
    expected = np.clip(reference.data.astype(np.float64), 0.0, 1.0) ** GAMMA
    keep = np.isfinite(values) & (expected >= 0.2)
    return float(np.median(np.abs(values[keep] / expected[keep] - 1.0)))


def pullback(sensed, truth: FittedModel) -> np.ndarray:
    """The sensed raster sampled at the planted position of every
    reference pixel."""
    n = sensed.height
    rr, cc = np.mgrid[0:n, 0:n].astype(np.float64)
    px, py = truth.apply(cc, rr)
    return sample_bilinear(sensed, px, py)


WORKLOADS = {cls.name: cls for cls in (FlatScene, FitWarp, Synth)}
