"""Command-line pipeline: synth, match, measure, fit, sweep, register.

Every subcommand is deterministic under a fixed seed and fixed inputs; wall
times go to stdout only, never into output files, so repeated runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from .config import PipelineConfig, load_config, parse_cp_counts
from .geomodels import (DegenerateFitError, InsufficientControlPointsError,
                        fit as fit_model, min_cp_count, model_spec_from_name)
from .matcher import (correspondences_from_csv, correspondences_to_csv,
                      match_all)
from .metrics import (checkpoint_rmse, holdout, misreg_to_csv,
                      misregistration, sweep, sweep_to_csv, to_control_points)
from .keypoints import detect_block_fast
from .raster import (RasterError, load_raster, read_raster_header,
                     save_raster, warp)
from .robustfit import RansacDegeneracyError, ransac_filter, select_top_k
from .synthgen import (NonInvertibleWarpError, generate, spec_from_manifest,
                       spec_to_manifest)

_KNOWN_ERRORS = (RasterError, ValueError, RansacDegeneracyError,
                 DegenerateFitError, InsufficientControlPointsError,
                 NonInvertibleWarpError, OSError)


@contextlib.contextmanager
def _timer(stage: str):
    """Prints a stage's wall time to stdout, unless the stage fails; output
    files never carry it."""
    t0 = time.perf_counter()
    yield
    print(f"stage={stage} wall_s={time.perf_counter() - t0:.3f}")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _base_config(args) -> PipelineConfig:
    """The --config file (or the defaults) overridden by every flag given;
    each such flag stores into the field of the same name."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name, None) is not None}
    if "cp_counts" in overrides:
        overrides["cp_counts"] = parse_cp_counts(overrides["cp_counts"])
    return replace(cfg, **overrides).validate()


def _parse_file(path, parse):
    """``parse`` of the text of the file at ``path``; a ValueError it raises
    is raised again with the path in front."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def run_synth(args) -> int:
    spec = _parse_file(args.spec, spec_from_manifest)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out = _out_dir(args)
    with _timer("synth"):
        reference, sensed, truth, dem = generate(spec)
    for grid, name in ((reference, "reference.bin"), (sensed, "sensed.bin"),
                       (dem, "dem.bin")):
        save_raster(grid, out / name)
        print(f"wrote {out / name}")
    _write(out / "truth.model", truth.to_text())
    _write(out / "manifest.txt", spec_to_manifest(spec))
    return 0


def run_match(args) -> int:
    cfg = _base_config(args)
    ref = load_raster(args.ref)
    sensed = load_raster(args.sensed)
    out = _out_dir(args)

    with _timer("detect"):
        points = detect_block_fast(ref, cfg.block_params())
    with _timer("match"), scipy.fft.set_workers(cfg.threads):
        corrs, stats = match_all(points, ref, sensed, cfg.match_params())

    if len(corrs) < 3:
        skipped = " ".join(f"{reason}={n}"
                           for reason, n in sorted(stats.skipped.items()))
        raise ValueError(f"only {len(corrs)} correspondences found "
                         f"(skipped: {skipped or 'none'}); "
                         "cannot filter mismatches")
    with _timer("filter"):
        inliers, outliers = ransac_filter(corrs, cfg.ransac_params())
        k = min(cfg.top_k, len(inliers))
        selected = select_top_k(inliers, k) if k else []

    _write(out / "correspondences.csv", correspondences_to_csv(selected))
    inlier_ids = {id(c) for c in inliers}
    raw_csv = correspondences_to_csv(corrs).splitlines()
    raw_lines = [raw_csv[0] + ",inlier"]
    raw_lines += [line + f",{int(id(c) in inlier_ids)}"
                  for line, c in zip(raw_csv[1:], corrs)]
    _write(out / "correspondences_raw.csv", "\n".join(raw_lines) + "\n")

    lines = [
        f"interest_points={len(points)}",
        f"attempted={stats.attempted}",
        f"matched={stats.matched}",
    ]
    for reason in sorted(stats.skipped):
        lines.append(f"skipped_{reason}={stats.skipped[reason]}")
    lines += [
        f"ransac_inliers={len(inliers)}",
        f"ransac_outliers={len(outliers)}",
        f"selected={len(selected)}",
    ]
    _write(out / "match_stats.txt", "\n".join(lines) + "\n")
    return 0


def run_measure(args) -> int:
    corrs = _parse_file(args.corr, correspondences_from_csv)
    with _timer("measure"):
        report = misregistration(corrs, pixel_size=args.pixel_size)
    _write(_out_dir(args) / "misreg.csv", misreg_to_csv(report))
    return 0


def _fit_with_optional_holdout(cfg, corrs, spec, dem, n_holdout, pixel_size):
    if spec.dims == 2:
        dem = None  # a model over (X, Y) ignores --dem
    elif dem is None:
        raise ValueError(f"{spec.name} requires a DEM")
    if not n_holdout:
        cps = to_control_points(corrs, dem)
        return fit_model(spec, cps), None, len(cps)
    checks, cps = holdout(corrs, n_holdout, cfg.seed, dem)
    model = fit_model(spec, cps)
    return model, checkpoint_rmse(model, checks, pixel_size), len(cps)


def _score_lines(score) -> list:
    """A checkpoint score as report lines."""
    return [f"checkpoints={score.n_used}",
            f"checkpoints_excluded={score.n_excluded}",
            f"checkpoint_rmse_px={score.rmse!r}",
            f"checkpoint_max_px={score.max_residual!r}",
            f"checkpoint_mean_px={score.mean_distance!r}"]


def run_fit(args) -> int:
    cfg = _base_config(args)
    corrs = _parse_file(args.corr, correspondences_from_csv)
    spec = model_spec_from_name(args.model)
    dem = load_raster(args.dem) if args.dem else None
    out = _out_dir(args)

    with _timer("fit"):
        # nothing is held out unless --checkpoints is given
        model, score, n_cps = _fit_with_optional_holdout(
            cfg, corrs, spec, dem, args.n_checkpoints, args.pixel_size)

    _write(out / f"{spec.name}.model", model.to_text())
    lines = [
        f"model={spec.name}",
        f"parameters={spec.param_count}",
        f"min_cp_count={min_cp_count(spec)}",
        f"cp_count={n_cps}",
        f"fit_rmse_map_units={float(np.sqrt(np.mean(model.cp_residuals ** 2)))!r}",
    ]
    if score is not None:
        lines += _score_lines(score)
    if model.warning:
        lines.append(f"warning={model.warning}")
    _write(out / "fit_report.txt", "\n".join(lines) + "\n")
    return 0


def run_sweep(args) -> int:
    cfg = _base_config(args)
    corrs = _parse_file(args.corr, correspondences_from_csv)
    dem = load_raster(args.dem) if args.dem else None
    specs = cfg.model_specs()
    with _timer("sweep"):
        results = sweep(specs, corrs, cfg.n_checkpoints, cfg.cp_counts,
                        cfg.seed, pixel_size=args.pixel_size, dem=dem)
    _write(_out_dir(args) / "sweep.csv", sweep_to_csv(results))

    # stdout only: sweep.csv stays the one artifact
    ranking = sorted((math.inf if res.rmse[-1] is None else res.rmse[-1],
                      res.spec.name, res.warning[-1]) for res in results)
    print(f"checkpoint rmse at {max(cfg.cp_counts)} control points "
          "(best first):")
    for rmse, name, warning in ranking:
        shown = "fit failed" if rmse == math.inf else f"{rmse:.4g} px"
        print(f"  {name} {shown}" + (f" warning={warning}" if warning else ""))
    return 0


def run_register(args) -> int:
    cfg = _base_config(args)
    # the reference grid is the output grid: its samples are never read
    ref = read_raster_header(args.ref)
    sensed = load_raster(args.sensed)
    corrs = _parse_file(args.corr, correspondences_from_csv)
    spec = model_spec_from_name(args.model)
    dem = load_raster(args.dem) if args.dem else None
    pixel_size = args.pixel_size
    if pixel_size is None:
        pixel_size = abs(ref.geotransform.pixel_w)
    out = _out_dir(args)

    with _timer("fit"):
        model, score, n_cps = _fit_with_optional_holdout(
            cfg, corrs, spec, dem, cfg.n_checkpoints, pixel_size)
    with _timer("warp"):
        registered, eval_failures = warp(
            sensed, model, ref.geotransform, ref.width, ref.height, dem=dem)
    save_raster(registered, out / "registered.bin")
    print(f"wrote {out / 'registered.bin'}")
    _write(out / f"{spec.name}.model", model.to_text())

    misreg = misregistration(corrs, pixel_size=pixel_size)
    fail_frac = eval_failures / (ref.width * ref.height)
    lines = [
        f"model={spec.name}",
        f"cp_count={n_cps}",
        *_score_lines(score),
        f"input_mean_ds_px={misreg.mean_ds!r}",
        f"eval_failure_fraction={fail_frac!r}",
        f"output=registered.bin",
    ]
    if model.warning:
        lines.append(f"warning={model.warning}")
    if fail_frac > 0.10:
        lines.append("warning=model-evaluation-failures-exceed-10-percent")
    _write(out / "register_report.txt", "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sub):
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--out-dir", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreg",
        description="Co-register a radiometrically dissimilar sensed raster "
                    "to a reference raster")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a ground-truthed test pair")
    _add_common(p)
    p.add_argument("--spec", required=True, help="flat key=value recipe file")
    p.set_defaults(func=run_synth)

    p = subs.add_parser("match", help="detect correspondences between rasters")
    _add_common(p)
    p.add_argument("--ref", required=True)
    p.add_argument("--sensed", required=True)
    p.add_argument("--template-size", type=int, default=None)
    p.add_argument("--search-size", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None, dest="n_blocks")
    p.add_argument("--top-k", type=int, default=None)
    p.set_defaults(func=run_match)

    p = subs.add_parser("measure", help="misregistration statistics of "
                                        "matched correspondences")
    _add_common(p)
    p.add_argument("--corr", required=True)
    p.add_argument("--pixel-size", type=float, default=1.0)
    p.set_defaults(func=run_measure)

    p = subs.add_parser("fit", help="fit one transformation model")
    _add_common(p)
    p.add_argument("--corr", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dem")
    p.add_argument("--checkpoints", type=int, default=None,
                   dest="n_checkpoints")
    p.add_argument("--pixel-size", type=float, default=1.0)
    p.set_defaults(func=run_fit)

    p = subs.add_parser("sweep", help="model accuracy across control point "
                                      "counts")
    _add_common(p)
    p.add_argument("--corr", required=True)
    p.add_argument("--dem")
    p.add_argument("--models", default=None)
    p.add_argument("--cp-counts", default=None)
    p.add_argument("--checkpoints", type=int, default=None,
                   dest="n_checkpoints")
    p.add_argument("--pixel-size", type=float, default=1.0)
    p.set_defaults(func=run_sweep)

    p = subs.add_parser("register", help="fit, score, and warp into "
                                         "registration")
    _add_common(p)
    p.add_argument("--ref", required=True)
    p.add_argument("--sensed", required=True)
    p.add_argument("--corr", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dem")
    p.add_argument("--checkpoints", type=int, default=None,
                   dest="n_checkpoints")
    p.add_argument("--pixel-size", type=float, default=None)
    p.set_defaults(func=run_register)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error kind={type(exc).__name__} msg={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
