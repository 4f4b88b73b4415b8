"""Corner scoring and block-gridded interest point selection.

The detector is the segment test on a 16-pixel Bresenham circle of radius 3:
a pixel is a corner when at least 9 contiguous circle pixels are all brighter
than center+threshold or all darker than center-threshold. The score is the
sum of |circle - center| - threshold over the maximal qualifying arc, so
stronger and longer arcs rank higher. The brighter and darker circle pixels
are packed into 16-bit masks, and a 65,536-entry table gives the maximal arc
of each mask (Rosten and Drummond, ECCV 2006).

Selection partitions the image into an N x N block grid and keeps the top K
scorers per block, which forces the spatial spread that a global top-K would
not give on unevenly textured scenes. Only the detection interior, the
image less its border, is scored: a score depends on the pixel's 7 x 7
neighbourhood alone, so scoring a crop grown by 3 px gives the interior's
scores exactly.
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
_STRIP_ROWS = 64


def _arc_members_table() -> np.ndarray:
    """For every 16-bit circle mask, the bits covered by some run of 9 set
    bits (wrapping): the maximal arc, as no two 9-runs on 16 are disjoint."""
    masks = np.arange(1 << 16, dtype=np.uint32)

    def rotate(m, k):  # bit i of the result is bit (i + k) % 16 of m
        return ((m >> k) | (m << (16 - k))) & 0xFFFF

    # bit j of starts: bits j..j+8 are all set
    starts = np.bitwise_and.reduce([rotate(masks, k)
                                    for k in range(ARC_LENGTH)])
    members = np.bitwise_or.reduce([rotate(starts, 16 - k)
                                    for k in range(ARC_LENGTH)])
    return members.astype(np.uint16)


_ARC_MEMBERS = _arc_members_table()


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
        # a negative threshold would let a pixel be brighter and darker at once
        if self.fast_threshold is not None and not self.fast_threshold >= 0:
            raise ValueError(f"fast_threshold must be >= 0, got "
                             f"{self.fast_threshold}")


def fast_score_map(data: np.ndarray, threshold: float) -> np.ndarray:
    """Corner score for every pixel; zero within 3 px of the edges.

    Processed in row strips to bound memory on large scenes. The first pass
    over the 16 circle offsets packs the brighter and darker circle pixels
    into ``uint16`` masks, which ``_ARC_MEMBERS`` maps to their maximal arcs
    (no pixel holds both, so the two are ORed); the second adds
    (|d_i| - threshold) times bit i, in circle order. Where the bit is clear
    that adds a signed zero, which leaves the sum as it is; a strip holding
    a non-finite sample, where the product could be NaN, adds a selected
    0.0 instead. Computing the differences twice keeps a few strip-sized
    arrays alive, not 16. NaN samples compare false and join no arc.
    ``threshold`` must be >= 0.
    """
    data = np.asarray(data)
    h, w = data.shape
    scores = np.zeros((h, w), dtype=np.float64)
    if h < 7 or w < 7:
        return scores

    for y0 in range(3, h - 3, _STRIP_ROWS):
        y1 = min(y0 + _STRIP_ROWS, h - 3)
        n = y1 - y0
        block = np.asarray(data[y0 - 3:y1 + 3, :], dtype=np.float64)
        center = block[3:3 + n, 3:w - 3]

        def diff(i):
            dc, dr = CIRCLE[i]
            return block[3 + dr:3 + dr + n, 3 + dc:w - 3 + dc] - center

        # bit i is circle pixel i: shift the flags in from the last offset
        bright = np.zeros(center.shape, dtype=np.uint16)
        dark = np.zeros(center.shape, dtype=np.uint16)
        for i in reversed(range(len(CIRCLE))):
            d = diff(i)
            bright <<= 1
            bright |= d > threshold
            dark <<= 1
            dark |= d < -threshold
        members = _ARC_MEMBERS[bright] | _ARC_MEMBERS[dark]

        strip_score = scores[y0:y1, 3:w - 3]
        finite = np.isfinite(block).all()
        for i in range(len(CIRCLE)):
            contrib = np.abs(diff(i))
            contrib -= threshold
            bit = (members >> i) & 1
            if finite:
                strip_score += np.multiply(contrib, bit, out=contrib)
            else:
                strip_score += np.where(bit, contrib, 0.0)
    return scores


def _resolve_threshold(data: np.ndarray, threshold: float | None) -> float:
    if threshold is not None:
        return float(threshold)
    if not np.issubdtype(data.dtype, np.floating):
        return 0.02 * float(data.max() - data.min())
    # the range of the finite samples, without copying them out
    finite = np.isfinite(data)
    lo = data.min(where=finite, initial=np.inf)
    hi = data.max(where=finite, initial=-np.inf)
    if hi < lo:
        return 0.0
    return 0.02 * float(hi - lo)


def _kth_largest(values: np.ndarray, k: int) -> float:
    """The k-th largest of ``values`` (their max when k is 1), or -inf when
    there are fewer than k."""
    if values.size < k:
        return -np.inf
    if k == 1:
        return values.max()
    return np.partition(values, values.size - k, axis=None)[values.size - k]


def detect_block_fast(image: RasterGrid, params: BlockGridParams) -> list:
    """Evenly distributed interest points: top K corner scores per grid block.

    Only strictly positive scores qualify, so flat blocks contribute nothing
    and the result can be smaller than N*N*K. Ties break toward smaller
    (row, col) for determinism. NaN samples (a grid's nodata) are outside
    the automatic threshold's range and belong to no arc; the frame is
    never copied. The threshold comes from the whole image, but only
    the pixels at least ``border`` (and 3) px inside it are scored, from a
    crop 3 px larger on each side.
    """
    data = image.data if isinstance(image, RasterGrid) else np.asarray(image)
    h, w = data.shape
    border = max(params.border, 3)
    if 2 * border >= min(h, w):
        return []
    threshold = _resolve_threshold(data, params.fast_threshold)
    # scores[r, c] is the score of pixel (off + r, off + c)
    off = border - 3
    scores = fast_score_map(data[off:h - off, off:w - off], threshold)

    n = params.n_blocks
    bh = h // n
    bw = w // n
    points = []
    for by in range(n):
        r0 = by * bh
        r1 = h if by == n - 1 else (by + 1) * bh
        for bx in range(n):
            c0 = bx * bw
            c1 = w if bx == n - 1 else (bx + 1) * bw
            # the block's scored part starts at pixel (top, left)
            top, left = max(r0, off), max(c0, off)
            sub = scores[top - off:max(r1 - off, 0),
                         left - off:max(c1 - off, 0)]
            # only positive scores at or above the K-th largest can rank in
            # the top K, ties included
            kth = _kth_largest(sub, params.k_per_block)
            keep = np.flatnonzero((sub >= kth) & (sub > 0))
            if keep.size == 0:
                continue
            rs, cs = np.divmod(keep, sub.shape[1])
            vals = sub[rs, cs]
            order = np.lexsort((cs, rs, -vals))
            for idx in order[:params.k_per_block]:
                points.append(InterestPoint(col=int(left + cs[idx]),
                                            row=int(top + rs[idx]),
                                            score=float(vals[idx])))
    return points
