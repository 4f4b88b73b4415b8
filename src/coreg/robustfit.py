"""Mismatch elimination by randomized hypothesize-and-verify, plus
residual-ranked correspondence selection.

Correspondences from template matching contain occasional gross errors
(repetitive texture, flat regions that slipped through). A global affine map
is estimated from minimal random samples of three; the hypothesis with the
largest consensus is refit by least squares and the data re-classified
against that final model, so every returned inlier is guaranteed to fall
within the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RansacDegeneracyError(RuntimeError):
    """Random sampling failed to produce a non-degenerate sample."""


_MIN_SAMPLE = 3
# the adaptive iteration budget's cap, and the probability it aims for of
# drawing at least one all-inlier sample
_MAX_ITERS = 5000
_CONFIDENCE = 0.999


@dataclass(frozen=True)
class RansacParams:
    inlier_tol: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if not self.inlier_tol > 0:
            raise ValueError(f"inlier_tol must be > 0, got {self.inlier_tol}")


def _pixel_arrays(corrs):
    rc = np.array([c.ref_col for c in corrs], dtype=np.float64)
    rr = np.array([c.ref_row for c in corrs], dtype=np.float64)
    sc = np.array([c.sensed_col for c in corrs], dtype=np.float64)
    sr = np.array([c.sensed_row for c in corrs], dtype=np.float64)
    return rc, rr, sc, sr


def _fit_affine(rc, rr, sc, sr) -> np.ndarray:
    """Least-squares 2x3 affine map (ref px -> sensed px)."""
    A = np.column_stack([rc, rr, np.ones_like(rc)])
    coeffs, _, rank, _ = np.linalg.lstsq(A, np.column_stack([sc, sr]), rcond=None)
    if rank < 3:
        raise RansacDegeneracyError("collinear points give no unique affine map")
    return coeffs.T


def _residuals(model, rc, rr, sc, sr):
    """Distances from the sensed points to the reference points mapped by
    the 2x3 affine ``model``."""
    with np.errstate(invalid="ignore", over="ignore"):
        pc = model[0, 0] * rc + model[0, 1] * rr + model[0, 2]
        pr = model[1, 0] * rc + model[1, 1] * rr + model[1, 2]
        d = np.hypot(pc - sc, pr - sr)
    return np.where(np.isfinite(d), d, np.inf)


def _needed_iters(inlier_ratio: float) -> int:
    w = inlier_ratio ** _MIN_SAMPLE
    if w >= 1.0 - 1e-15:
        return 1
    if w <= 0.0:
        return 1 << 62
    return int(math.ceil(math.log(1.0 - _CONFIDENCE) / math.log(1.0 - w)))


def ransac_filter(corrs: list, params: RansacParams) -> tuple[list, list]:
    """Partition correspondences into (inliers, outliers).

    The iteration budget adapts to the best inlier ratio seen so far, capped
    at _MAX_ITERS; degenerate samples are redrawn, failing after 100
    consecutive misses. The best consensus set is refit once by least
    squares and the whole input re-classified against that final model.
    """
    n = len(corrs)
    if n < _MIN_SAMPLE:
        raise ValueError(f"affine ransac needs at least {_MIN_SAMPLE} "
                         f"correspondences, got {n}")
    rc, rr, sc, sr = _pixel_arrays(corrs)

    rng = np.random.default_rng(params.seed)
    best_mask = None
    best_count = -1
    needed = _MAX_ITERS
    it = 0
    consecutive_bad = 0
    while it < min(needed, _MAX_ITERS):
        idx = rng.choice(n, size=_MIN_SAMPLE, replace=False)
        try:
            model = _fit_affine(rc[idx], rr[idx], sc[idx], sr[idx])
        except RansacDegeneracyError:
            consecutive_bad += 1
            if consecutive_bad >= 100:
                raise RansacDegeneracyError(
                    "100 consecutive degenerate samples; correspondences are "
                    "collinear or duplicated")
            continue
        consecutive_bad = 0
        it += 1
        mask = _residuals(model, rc, rr, sc, sr) <= params.inlier_tol
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            needed = _needed_iters(count / n)

    if best_mask is None or best_count < _MIN_SAMPLE:
        return [], list(corrs)

    final = _fit_affine(rc[best_mask], rr[best_mask], sc[best_mask],
                        sr[best_mask])
    final_mask = _residuals(final, rc, rr, sc, sr) <= params.inlier_tol
    inliers = [c for c, keep in zip(corrs, final_mask) if keep]
    outliers = [c for c, keep in zip(corrs, final_mask) if not keep]
    return inliers, outliers


def fit_global_affine(corrs: list) -> np.ndarray:
    """Least-squares affine over every correspondence (pixel coordinates)."""
    if len(corrs) < 3:
        raise ValueError(f"affine fit needs at least 3 correspondences, "
                         f"got {len(corrs)}")
    return _fit_affine(*_pixel_arrays(corrs))


def select_top_k(corrs: list, k: int) -> list:
    """The k correspondences with the smallest residuals against a global
    affine fit over all of them. Ties keep input order."""
    if k > len(corrs):
        raise ValueError(f"cannot select {k} of {len(corrs)} correspondences")
    px = _pixel_arrays(corrs)
    res = _residuals(_fit_affine(*px), *px)
    order = np.argsort(res, kind="stable")
    return [corrs[i] for i in order[:k]]
