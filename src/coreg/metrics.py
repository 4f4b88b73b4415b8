"""Misregistration statistics, checkpoint scoring, and the control point
count sweep harness.

Shifts are measured in pixels: geographic coordinate differences of matched
pairs divided by the pixel size. Checkpoint residuals score a fitted model
on held-out pairs; the sweep repeats that over a grid of models and control
point counts from one deterministic split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geomodels import (FittedModel, ModelSpec, ControlPoint,
                        DegenerateFitError, InsufficientControlPointsError,
                        attach_dem_heights, control_point_arrays, fit,
                        min_cp_count)
from .raster import RasterGrid


@dataclass
class MisregReport:
    """Per-pair shifts (signed dx, dy and their Euclidean length ds) plus
    the summary statistics, all in pixels. Mean dx/dy are means of absolute
    values; the per-point identity ds^2 = dx^2 + dy^2 holds exactly."""

    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    mean_abs_dx: float
    mean_abs_dy: float
    mean_ds: float
    max_ds: float
    min_ds: float
    std_ds: float
    count: int


def _check_pixel_size(pixel_size: float):
    if not pixel_size > 0:
        raise ValueError(f"pixel_size must be > 0, got {pixel_size}")


def misregistration(corrs: list, pixel_size: float = 1.0) -> MisregReport:
    """Shift statistics of matched pairs.

    dx = (sensed_x - ref_x) / pixel_size and analogously for dy, so a
    perfectly co-registered pair reports zeros everywhere.
    """
    if not corrs:
        raise ValueError("no correspondences to measure")
    _check_pixel_size(pixel_size)
    dx = np.array([(c.sensed_x - c.ref_x) / pixel_size for c in corrs])
    dy = np.array([(c.sensed_y - c.ref_y) / pixel_size for c in corrs])
    ds = np.hypot(dx, dy)
    return MisregReport(
        dx=dx, dy=dy, ds=ds,
        mean_abs_dx=float(np.mean(np.abs(dx))),
        mean_abs_dy=float(np.mean(np.abs(dy))),
        # the rounded mean of equal values can exceed them by an ulp
        mean_ds=float(np.clip(np.mean(ds), ds.min(), ds.max())),
        max_ds=float(ds.max()),
        min_ds=float(ds.min()),
        std_ds=float(ds.std()),
        count=len(corrs),
    )


def misreg_to_csv(report: MisregReport) -> str:
    lines = ["dx_px,dy_px,ds_px"]
    for dx, dy, ds in zip(report.dx, report.dy, report.ds):
        # plain-float repr; numpy scalar repr would leak np.float64(...)
        lines.append(f"{float(dx)!r},{float(dy)!r},{float(ds)!r}")
    lines += [
        f"# count={report.count}",
        f"# mean_abs_dx_px={report.mean_abs_dx!r}",
        f"# mean_abs_dy_px={report.mean_abs_dy!r}",
        f"# mean_ds_px={report.mean_ds!r}",
        f"# max_ds_px={report.max_ds!r}",
        f"# min_ds_px={report.min_ds!r}",
        f"# std_ds_px={report.std_ds!r}",
    ]
    return "\n".join(lines) + "\n"


@dataclass
class CheckpointScore:
    """Held-out accuracy of one fitted model, in pixels.

    rmse is the root of the mean squared Euclidean residual;
    mean_distance is the plain mean residual, reported alongside because
    the two are easy to conflate. Checkpoints where the model fails to
    evaluate are excluded and counted.
    """

    rmse: float
    max_residual: float
    mean_distance: float
    n_used: int
    n_excluded: int


def checkpoint_rmse(model: FittedModel, checkpoints,
                    pixel_size: float = 1.0) -> CheckpointScore:
    """Euclidean prediction residuals at held-out points: a list of
    ControlPoint or a ControlPointArrays record, in units of
    ``pixel_size`` (> 0)."""
    _check_pixel_size(pixel_size)
    X, Y, u, v, Z = control_point_arrays(checkpoints, model.spec)
    if X.size == 0:
        raise ValueError("no checkpoints to evaluate")
    px, py = model.apply(X, Y, Z)
    d = np.hypot(px - u, py - v) / pixel_size
    ok = np.isfinite(d)
    n_excluded = int((~ok).sum())
    d = d[ok]
    if d.size == 0:
        raise ValueError("model evaluation failed at every checkpoint")
    return CheckpointScore(
        rmse=float(np.sqrt(np.mean(d * d))),
        max_residual=float(d.max()),
        mean_distance=float(np.mean(d)),
        n_used=int(d.size),
        n_excluded=n_excluded,
    )


# ---------------------------------------------------------------------------
# Checkpoint / control point splitting


def to_control_points(corrs: list, dem: RasterGrid | None = None) -> list:
    """Correspondences as control points (map coordinates); heights attached
    from the DEM when one is given."""
    cps = [ControlPoint(ref_x=c.ref_x, ref_y=c.ref_y,
                        sensed_x=c.sensed_x, sensed_y=c.sensed_y)
           for c in corrs]
    if dem is not None:
        cps = attach_dem_heights(cps, dem)
    return cps


def split_checkpoints(corrs: list, n_checkpoints: int, seed) -> tuple[list, list]:
    """Deterministic spatially stratified holdout split.

    The reference extent is covered by a cell grid of about n_checkpoints
    cells; checkpoints are drawn round-robin across occupied cells (seeded
    order within each cell) so they spread over the scene instead of
    clustering. Returns (checkpoints, remainder), remainder in input order.
    """
    n = len(corrs)
    if not 1 <= n_checkpoints < n:
        raise ValueError(f"need 1 <= n_checkpoints < {n}, got {n_checkpoints}")
    g = math.ceil(math.sqrt(n_checkpoints))
    xs = np.array([c.ref_x for c in corrs])
    ys = np.array([c.ref_y for c in corrs])

    def cell_index(vals):
        lo, hi = vals.min(), vals.max()
        if hi == lo:
            return np.zeros(len(vals), dtype=int)
        return np.minimum((g * (vals - lo) / (hi - lo)).astype(int), g - 1)

    cell = cell_index(ys) * g + cell_index(xs)
    rng = np.random.default_rng(seed)
    groups = []
    for cid in np.unique(cell):
        members = np.nonzero(cell == cid)[0]
        rng.shuffle(members)
        groups.append(list(members))

    chosen = []
    while len(chosen) < n_checkpoints:
        progressed = False
        for grp in groups:
            if grp and len(chosen) < n_checkpoints:
                chosen.append(grp.pop())
                progressed = True
        if not progressed:
            break
    chosen_set = set(chosen)
    checkpoints = [corrs[i] for i in chosen]
    remainder = [c for i, c in enumerate(corrs) if i not in chosen_set]
    return checkpoints, remainder


def holdout(corrs: list, n_checkpoints: int, seed,
            dem: RasterGrid | None = None) -> tuple[list, list]:
    """split_checkpoints of the correspondences as control points (heights
    from the DEM when one is given, attached before the split, so an error
    names the point's index in ``corrs``): returns (checkpoints, control
    points)."""
    return split_checkpoints(to_control_points(corrs, dem), n_checkpoints, seed)


# ---------------------------------------------------------------------------
# Sweep


@dataclass
class SweepResult:
    """Checkpoint scores and fit warnings of one model across control point
    counts; None scores mark counts where the fit failed, None warnings
    counts with no warning or a failed fit."""

    spec: ModelSpec
    cp_counts: list
    rmse: list
    max_residual: list
    mean_distance: list
    warning: list
    n_checkpoints: int


def sweep(specs: list, corrs: list, n_checkpoints: int, cp_counts,
          seed, pixel_size: float = 1.0,
          dem: RasterGrid | None = None) -> list:
    """Fit every model at every control point count against one fixed
    checkpoint set.

    Checkpoints are drawn once (stratified, seeded); the remainder is
    shuffled once and each count takes its prefix, so larger counts extend
    smaller ones. Per-cell fit failures are recorded as absent values, never
    aborts; a ``pixel_size`` that is not > 0 fails before any fit.
    """
    _check_pixel_size(pixel_size)
    cp_counts = sorted({int(c) for c in cp_counts})
    if not cp_counts:
        raise ValueError("cp_counts is empty")
    if cp_counts[-1] + n_checkpoints > len(corrs):
        raise ValueError(
            f"need at least {cp_counts[-1] + n_checkpoints} correspondences "
            f"for {cp_counts[-1]} control points + {n_checkpoints} "
            f"checkpoints, got {len(corrs)}")
    for spec in specs:
        need = min_cp_count(spec)
        if cp_counts[0] < need:
            raise ValueError(f"cp_count {cp_counts[0]} is below the "
                             f"{spec.name} minimum of {need}")
    needs_dem = any(spec.dims == 3 for spec in specs)
    if needs_dem and dem is None:
        raise ValueError("sweeping rfm models requires a DEM")

    rng = np.random.default_rng(seed)
    checkpoints, rest = holdout(corrs, n_checkpoints, rng,
                                dem if needs_dem else None)
    perm = rng.permutation(len(rest))
    shuffled = [rest[i] for i in perm]
    # converted once, with heights if any model takes them (the others
    # drop them); each count fits a prefix
    widest = max(specs, key=lambda spec: spec.dims)
    cps, checks = (control_point_arrays(points, widest)
                   for points in (shuffled, checkpoints))

    results = []
    for spec in specs:
        rmses, maxes, means, warnings = [], [], [], []
        for count in cp_counts:
            try:
                model = fit(spec, cps.prefix(count))
                score = checkpoint_rmse(model, checks, pixel_size)
            except (DegenerateFitError, InsufficientControlPointsError,
                    ValueError):
                model = score = None
            rmses.append(score and score.rmse)
            maxes.append(score and score.max_residual)
            means.append(score and score.mean_distance)
            warnings.append(score and model.warning)
        results.append(SweepResult(spec=spec, cp_counts=list(cp_counts),
                                   rmse=rmses, max_residual=maxes,
                                   mean_distance=means, warning=warnings,
                                   n_checkpoints=n_checkpoints))
    return results


def sweep_to_csv(results: list) -> str:
    lines = ["model,cp_count,rmse_px,max_residual_px,mean_distance_px,"
             "warning"]
    for res in results:
        for i, count in enumerate(res.cp_counts):
            vals = (res.rmse[i], res.max_residual[i], res.mean_distance[i])
            cells = ["" if v is None else repr(v) for v in vals]
            cells.append(res.warning[i] or "")
            lines.append(f"{res.spec.name},{count}," + ",".join(cells))
    return "\n".join(lines) + "\n"
