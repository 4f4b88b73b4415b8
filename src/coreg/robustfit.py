"""Mismatch elimination by randomized hypothesize-and-verify, plus
residual-ranked correspondence selection.

Correspondences from template matching contain occasional gross errors
(repetitive texture, flat regions that slipped through). A global affine or
projective map is estimated from minimal random samples; the hypothesis with
the largest consensus is refit by least squares and the data re-classified
against that final model, so every returned inlier is guaranteed to fall
within the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RansacDegeneracyError(RuntimeError):
    """Random sampling failed to produce a non-degenerate sample."""


_MIN_SAMPLE = {"affine": 3, "projective": 4}


@dataclass(frozen=True)
class RansacParams:
    model: str = "affine"
    inlier_tol: float = 3.0
    max_iters: int = 5000
    confidence: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.model not in _MIN_SAMPLE:
            raise ValueError(f"model must be 'affine' or 'projective', "
                             f"got {self.model!r}")
        if self.inlier_tol <= 0:
            raise ValueError(f"inlier_tol must be > 0, got {self.inlier_tol}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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


def _fit_homography(rc, rr, sc, sr) -> np.ndarray:
    """Direct linear transform with coordinate normalization; 8 dof."""
    def normalizer(x, y):
        mx, my = x.mean(), y.mean()
        d = np.hypot(x - mx, y - my).mean()
        s = math.sqrt(2.0) / d if d > 0 else 1.0
        return np.array([[s, 0, -s * mx], [0, s, -s * my], [0, 0, 1.0]])

    Tr = normalizer(rc, rr)
    Ts = normalizer(sc, sr)
    rcn = Tr[0, 0] * rc + Tr[0, 2]
    rrn = Tr[1, 1] * rr + Tr[1, 2]
    scn = Ts[0, 0] * sc + Ts[0, 2]
    srn = Ts[1, 1] * sr + Ts[1, 2]

    n = rc.size
    A = np.zeros((2 * n, 9))
    A[0::2, 0] = rcn
    A[0::2, 1] = rrn
    A[0::2, 2] = 1.0
    A[0::2, 6] = -scn * rcn
    A[0::2, 7] = -scn * rrn
    A[0::2, 8] = -scn
    A[1::2, 3] = rcn
    A[1::2, 4] = rrn
    A[1::2, 5] = 1.0
    A[1::2, 6] = -srn * rcn
    A[1::2, 7] = -srn * rrn
    A[1::2, 8] = -srn
    _, s, Vt = np.linalg.svd(A)
    if s[7] <= 1e-9 * s[0]:
        raise RansacDegeneracyError("degenerate point configuration for a homography")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Ts) @ Hn @ Tr
    if abs(H[2, 2]) < 1e-300:
        raise RansacDegeneracyError("homography scale collapsed")
    return H / H[2, 2]


def _apply_homography(H, rc, rr):
    w = H[2, 0] * rc + H[2, 1] * rr + H[2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        sc = (H[0, 0] * rc + H[0, 1] * rr + H[0, 2]) / w
        sr = (H[1, 0] * rc + H[1, 1] * rr + H[1, 2]) / w
    bad = np.abs(w) < 1e-12
    if np.any(bad):
        sc = np.where(bad, np.inf, sc)
        sr = np.where(bad, np.inf, sr)
    return sc, sr


def _residuals(model, rc, rr, sc, sr):
    """Distances from the sensed points to the reference points mapped by
    ``model``: a 3x3 homography, or a 2x3 affine map evaluated as the
    homography with last row (0, 0, 1), whose w is exactly 1."""
    if len(model) == 2:
        model = np.vstack([model, (0.0, 0.0, 1.0)])
    pc, pr = _apply_homography(model, rc, rr)
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.hypot(pc - sc, pr - sr)
    return np.where(np.isfinite(d), d, np.inf)


def _needed_iters(inlier_ratio: float, sample_size: int, confidence: float) -> int:
    w = inlier_ratio ** sample_size
    if w >= 1.0 - 1e-15:
        return 1
    if w <= 0.0:
        return 1 << 62
    return int(math.ceil(math.log(1.0 - confidence) / math.log(1.0 - w)))


def ransac_filter(corrs: list, params: RansacParams) -> tuple[list, list]:
    """Partition correspondences into (inliers, outliers).

    The iteration budget adapts to the best inlier ratio seen so far, capped
    at max_iters; degenerate samples are redrawn, failing after 100
    consecutive misses. The best consensus set is refit once by least
    squares and the whole input re-classified against that final model.
    """
    kind = params.model
    s = _MIN_SAMPLE[kind]
    n = len(corrs)
    if n < s:
        raise ValueError(f"{kind} ransac needs at least {s} correspondences, "
                         f"got {n}")
    rc, rr, sc, sr = _pixel_arrays(corrs)
    fitter = _fit_affine if kind == "affine" else _fit_homography

    rng = np.random.default_rng(params.seed)
    best_mask = None
    best_count = -1
    needed = params.max_iters
    it = 0
    consecutive_bad = 0
    while it < min(needed, params.max_iters):
        idx = rng.choice(n, size=s, replace=False)
        try:
            model = fitter(rc[idx], rr[idx], sc[idx], sr[idx])
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
            needed = _needed_iters(count / n, s, params.confidence)

    if best_mask is None or best_count < s:
        return [], list(corrs)

    final = fitter(rc[best_mask], rr[best_mask], sc[best_mask], sr[best_mask])
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
