"""Command-line pipeline: synth, match, measure, fit, sweep, register.

Every subcommand is deterministic under a fixed seed and fixed inputs; wall
times go to stdout only, never into output files, so repeated runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import fft as _fft

from .config import PipelineConfig, load_config, parse_cp_counts
from .geomodels import (DegenerateFitError, InsufficientControlPointsError,
                        fit as fit_model, min_cp_count, model_spec_from_name)
from .matcher import (correspondences_from_csv, correspondences_to_csv,
                      match_all)
from .metrics import (checkpoint_rmse, misreg_to_csv, misregistration,
                      split_checkpoints, sweep, sweep_to_csv,
                      to_control_points)
from .keypoints import detect_block_fast
from .raster import (RasterError, crop_to_overlap, load_raster, save_raster,
                     warp)
from .robustfit import RansacDegeneracyError, ransac_filter, select_top_k
from .synthgen import (NonInvertibleWarpError, generate, spec_from_manifest,
                       spec_to_manifest)

_KNOWN_ERRORS = (RasterError, ValueError, RansacDegeneracyError,
                 DegenerateFitError, InsufficientControlPointsError,
                 NonInvertibleWarpError, OSError)


class _Timer:
    """Prints stage wall times to stdout; output files never carry them."""

    def __init__(self, stage: str):
        self.stage = stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            dt = time.perf_counter() - self.t0
            print(f"stage={self.stage} wall_s={dt:.3f}")
        return False


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _base_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {}
    mapping = {
        "seed": "seed", "threads": "threads",
        "template_size": "template_size", "search_size": "search_size",
        "blocks": "n_blocks", "top_k": "top_k",
        "checkpoints": "n_checkpoints", "margin": "margin",
        "models": "models",
    }
    for arg_name, field in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "cp_counts", None) is not None:
        overrides["cp_counts"] = parse_cp_counts(args.cp_counts)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _load_corrs(path):
    return correspondences_from_csv(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Subcommands


def run_synth(args) -> int:
    spec = spec_from_manifest(Path(args.spec).read_text(encoding="utf-8"))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    out = _out_dir(args)
    with _Timer("synth"):
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

    with _Timer("crop"):
        cropped = crop_to_overlap(sensed, ref, cfg.margin)
    with _Timer("detect"):
        points = detect_block_fast(ref, cfg.block_params())
    with _Timer("match"), _fft.set_workers(cfg.threads):
        corrs, stats = match_all(points, ref, cropped, cfg.match_params())

    if len(corrs) < 3:
        raise ValueError(f"only {len(corrs)} correspondences found; "
                         "cannot filter mismatches")
    with _Timer("filter"):
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
    corrs = _load_corrs(args.corr)
    with _Timer("measure"):
        report = misregistration(corrs, pixel_size=args.pixel_size)
    _write(_out_dir(args) / "misreg.csv", misreg_to_csv(report))
    return 0


def _fit_with_optional_holdout(cfg, corrs, spec, dem, n_holdout, pixel_size):
    needs_dem = spec.family == "rfm"
    if needs_dem and dem is None:
        raise ValueError(f"{spec.name} requires a DEM")
    score = None
    if n_holdout:
        check_corrs, rest_corrs = split_checkpoints(corrs, n_holdout, cfg.seed)
        cps = to_control_points(rest_corrs, dem if needs_dem else None)
        checks = to_control_points(check_corrs, dem if needs_dem else None)
        model = fit_model(spec, cps)
        score = checkpoint_rmse(model, checks, pixel_size)
    else:
        cps = to_control_points(corrs, dem if needs_dem else None)
        model = fit_model(spec, cps)
    return model, score, len(cps)


def run_fit(args) -> int:
    cfg = _base_config(args)
    corrs = _load_corrs(args.corr)
    spec = model_spec_from_name(args.model)
    dem = load_raster(args.dem) if args.dem else None
    n_holdout = args.checkpoints if args.checkpoints is not None else 0
    out = _out_dir(args)

    with _Timer("fit"):
        model, score, n_cps = _fit_with_optional_holdout(
            cfg, corrs, spec, dem, n_holdout, args.pixel_size)

    _write(out / f"{spec.name}.model", model.to_text())
    lines = [
        f"model={spec.name}",
        f"parameters={spec.param_count}",
        f"min_cp_count={min_cp_count(spec)}",
        f"cp_count={n_cps}",
        f"fit_rmse_map_units={float(np.sqrt(np.mean(model.cp_residuals ** 2)))!r}",
    ]
    if score is not None:
        lines += [
            f"checkpoints={score.n_used}",
            f"checkpoint_rmse_px={score.rmse!r}",
            f"checkpoint_max_px={score.max_residual!r}",
            f"checkpoint_mean_px={score.mean_distance!r}",
        ]
    if model.warning:
        lines.append(f"warning={model.warning}")
    _write(out / "fit_report.txt", "\n".join(lines) + "\n")
    return 0


def run_sweep(args) -> int:
    cfg = _base_config(args)
    corrs = _load_corrs(args.corr)
    dem = load_raster(args.dem) if args.dem else None
    specs = cfg.model_specs()
    with _Timer("sweep"):
        results = sweep(specs, corrs, cfg.n_checkpoints, cfg.cp_counts,
                        cfg.seed, pixel_size=args.pixel_size, dem=dem)
    _write(_out_dir(args) / "sweep.csv", sweep_to_csv(results))
    return 0


def run_register(args) -> int:
    cfg = _base_config(args)
    ref = load_raster(args.ref)
    sensed = load_raster(args.sensed)
    corrs = _load_corrs(args.corr)
    spec = model_spec_from_name(args.model)
    dem = load_raster(args.dem) if args.dem else None
    pixel_size = args.pixel_size
    if pixel_size is None:
        pixel_size = abs(ref.geotransform.pixel_w)
    out = _out_dir(args)

    with _Timer("fit"):
        model, score, n_cps = _fit_with_optional_holdout(
            cfg, corrs, spec, dem, cfg.n_checkpoints, pixel_size)
    with _Timer("warp"):
        registered, eval_failures = warp(
            sensed, model, ref.geotransform, ref.width, ref.height,
            dem=dem if spec.family == "rfm" else None)
    save_raster(registered, out / "registered.bin")
    print(f"wrote {out / 'registered.bin'}")
    _write(out / f"{spec.name}.model", model.to_text())

    misreg = misregistration(corrs, pixel_size=pixel_size)
    fail_frac = eval_failures / (ref.width * ref.height)
    lines = [
        f"model={spec.name}",
        f"cp_count={n_cps}",
        f"checkpoints={score.n_used}",
        f"checkpoint_rmse_px={score.rmse!r}",
        f"checkpoint_max_px={score.max_residual!r}",
        f"checkpoint_mean_px={score.mean_distance!r}",
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


def _add_common(sub, out_required=True):
    sub.add_argument("--config", help="key = value configuration file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--out-dir", required=out_required, default=".")


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
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--margin", type=int, default=None)
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
    p.add_argument("--checkpoints", type=int, default=None)
    p.add_argument("--pixel-size", type=float, default=1.0)
    p.set_defaults(func=run_fit)

    p = subs.add_parser("sweep", help="model accuracy across control point "
                                      "counts")
    _add_common(p)
    p.add_argument("--corr", required=True)
    p.add_argument("--dem")
    p.add_argument("--models", default=None)
    p.add_argument("--cp-counts", default=None)
    p.add_argument("--checkpoints", type=int, default=None)
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
    p.add_argument("--checkpoints", type=int, default=None)
    p.add_argument("--pixel-size", type=float, default=None)
    p.set_defaults(func=run_register)

    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_memory() -> None:
    """Keep freed multi-megabyte blocks on the heap for reuse.

    The matcher allocates several ~3 MB arrays per point. Under glibc's
    default dynamic thresholds such blocks are returned to the operating
    system when freed and page-faulted in again for the next point (about
    270k minor faults in a 768x768 match, 33k with these settings). Blocks
    under 16 MB now come from the heap, which keeps up to 32 MB free. A
    no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _retain_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error kind={type(exc).__name__} msg={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
