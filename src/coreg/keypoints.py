"""Corner scoring and block-gridded interest point selection.

The detector is the segment test on a 16-pixel Bresenham circle of radius 3:
a pixel is a corner when at least 9 contiguous circle pixels are all brighter
than center+threshold or all darker than center-threshold. The score is the
sum of |circle - center| - threshold over the maximal qualifying arc, so
stronger and longer arcs rank higher.

Selection partitions the image into an N x N block grid and keeps the top K
scorers per block, which forces the spatial spread that a global top-K would
not give on unevenly textured scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import RasterGrid


# Bresenham circle of radius 3, clockwise from 12 o'clock: (dcol, drow)
CIRCLE = (
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)

ARC_LENGTH = 9
# image rows per fast_score_map strip, bounding its temporaries on large scenes
_STRIP_ROWS = 512


@dataclass(frozen=True)
class InterestPoint:
    col: int
    row: int
    score: float


@dataclass(frozen=True)
class BlockGridParams:
    """Detection configuration.

    fast_threshold=None resolves to 2% of the image dynamic range at
    detection time. border keeps points far enough from the edges for a
    later template window; callers matching with template size T should pass
    border >= T/2.
    """

    n_blocks: int = 20
    k_per_block: int = 1
    fast_threshold: float | None = None
    border: int = 3

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.k_per_block < 1:
            raise ValueError(f"k_per_block must be >= 1, got {self.k_per_block}")
        if self.border < 0:
            raise ValueError(f"border must be >= 0, got {self.border}")


def fast_score_map(data: np.ndarray, threshold: float) -> np.ndarray:
    """Corner score for every pixel; zero within 3 px of the edges.

    Processed in row strips to bound memory on large scenes. The maximal-arc
    membership mask is the union of all fully-qualifying 9-windows, which
    equals the single maximal run (two disjoint 9-runs cannot fit on 16
    pixels).
    """
    data = np.asarray(data)
    h, w = data.shape
    scores = np.zeros((h, w), dtype=np.float64)
    if h < 7 or w < 7:
        return scores

    n16 = len(CIRCLE)
    for y0 in range(3, h - 3, _STRIP_ROWS):
        y1 = min(y0 + _STRIP_ROWS, h - 3)
        n = y1 - y0
        block = np.asarray(data[y0 - 3:y1 + 3, :], dtype=np.float64)
        center = block[3:3 + n, 3:w - 3]

        diffs = [block[3 + dr:3 + dr + n, 3 + dc:w - 3 + dc] - center
                 for dc, dr in CIRCLE]
        bright = [d > threshold for d in diffs]
        dark = [-d > threshold for d in diffs]

        strip_score = np.zeros_like(center)
        for flags in (bright, dark):
            all9 = []
            for j in range(n16):
                acc = flags[j].copy()
                for k in range(1, ARC_LENGTH):
                    acc &= flags[(j + k) % n16]
                all9.append(acc)
            for i in range(n16):
                in_run = all9[(i - ARC_LENGTH + 1) % n16].copy()
                for j in range(i - ARC_LENGTH + 2, i + 1):
                    in_run |= all9[j % n16]
                contrib = np.abs(diffs[i]) - threshold
                strip_score += np.where(in_run, contrib, 0.0)
        scores[y0:y1, 3:w - 3] = strip_score
    return scores


def fast_score(image, col: int, row: int, threshold: float) -> float:
    """Segment-test corner score at one pixel.

    The pixel must sit at least 3 px inside the image so the circle fits.
    Computed through the same code path as the full map, so the two agree
    bitwise.
    """
    data = getattr(image, "data", image)
    data = np.asarray(data)
    h, w = data.shape
    if not (3 <= col < w - 3 and 3 <= row < h - 3):
        raise ValueError(f"pixel ({col}, {row}) is within 3 px of the edge of "
                         f"a {w}x{h} image")
    window = data[row - 3:row + 4, col - 3:col + 4]
    return float(fast_score_map(window, threshold)[3, 3])


def _resolve_threshold(data: np.ndarray, threshold: float | None) -> float:
    if threshold is not None:
        return float(threshold)
    finite = data[np.isfinite(data)]
    if finite.size == 0:
        return 0.0
    return 0.02 * float(finite.max() - finite.min())


def detect_block_fast(image: RasterGrid, params: BlockGridParams) -> list:
    """Evenly distributed interest points: top K corner scores per grid block.

    Only strictly positive scores qualify, so flat blocks contribute nothing
    and the result can be smaller than N*N*K. Ties break toward smaller
    (row, col) for determinism.
    """
    data = image.data if isinstance(image, RasterGrid) else np.asarray(image)
    h, w = data.shape
    threshold = _resolve_threshold(data, params.fast_threshold)
    scores = fast_score_map(data, threshold)

    border = max(params.border, 3)
    if 2 * border >= min(h, w):
        return []
    valid = np.zeros((h, w), dtype=bool)
    valid[border:h - border, border:w - border] = True
    scores = np.where(valid, scores, 0.0)

    n = params.n_blocks
    bh = h // n
    bw = w // n
    points = []
    for by in range(n):
        r0 = by * bh
        r1 = h if by == n - 1 else (by + 1) * bh
        if r1 <= r0:
            continue
        for bx in range(n):
            c0 = bx * bw
            c1 = w if bx == n - 1 else (bx + 1) * bw
            if c1 <= c0:
                continue
            sub = scores[r0:r1, c0:c1]
            rs, cs = np.nonzero(sub > 0)
            if rs.size == 0:
                continue
            vals = sub[rs, cs]
            order = np.lexsort((cs, rs, -vals))
            for idx in order[:params.k_per_block]:
                points.append(InterestPoint(col=int(c0 + cs[idx]),
                                            row=int(r0 + rs[idx]),
                                            score=float(vals[idx])))
    return points
