"""Dense orientated-gradient descriptor volumes.

Each pixel gets a vector of M = 9 absolute directional gradient responses
|cos(theta)*gx + sin(theta)*gy| for theta spread evenly over [0, 180),
smoothed spatially by a Gaussian of SIGMA = 0.8 px and along the orientation
axis by the circular kernel (0.25, 0.5, 0.25), then divided by its L2 norm:
the CFOG descriptor of Ye et al. (IEEE TGRS 2019), whose settings are fixed.
The result is a structural descriptor that survives strong nonlinear
radiometric differences between sensors: it depends on gradients only, so
additive offsets vanish and, after the normalization, global gain does too.

A described region is smoothed from a crop grown by the descriptor's
reach, and no pass smooths what is thrown away: the Gaussian runs down the
columns of the whole crop, then along the rows of the kept rows only, and
the orientation kernel runs over the kept pixels only, straight into the
output planes. Every pass does the arithmetic of smoothing the whole crop,
so the result is bitwise the same.

Volumes keep the float precision of the image: float32 in, float32 out;
anything else is described in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

# orientation channels over [0, 180)
M = 9
# Gaussian std, in pixels, of the spatial pooling
SIGMA = 0.8
_RADIUS = math.ceil(3.0 * SIGMA)
# how far a pixel's descriptor sees: one pixel for the central difference
# plus the Gaussian radius. A pixel at least this far from a crop's edge has
# the same descriptor in the crop as in the whole image.
REACH = 1 + _RADIUS
_GAUSSIAN = np.exp(-np.arange(-_RADIUS, _RADIUS + 1.0) ** 2
                   / (2.0 * SIGMA * SIGMA))
_GAUSSIAN /= _GAUSSIAN.sum()
# weights convolved circularly along the orientation axis
_Z_KERNEL = (0.25, 0.5, 0.25)


@dataclass
class DescriptorVolume:
    """(m, height, width) stack of nonnegative channel planes, float32 or
    float64; a float array is kept as given, not copied."""

    values: np.ndarray

    def __post_init__(self):
        vals = _as_float(self.values)
        if vals.ndim != 3:
            raise ValueError(f"descriptor volume must be 3-D, got {vals.shape}")
        self.values = vals


def _as_float(values) -> np.ndarray:
    vals = np.asarray(values)
    if vals.dtype in (np.float32, np.float64):
        return vals
    return vals.astype(np.float64)


def gradient_xy(image) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients with replicate borders.

    gx(c, r) = (I(c+1, r) - I(c-1, r)) / 2 and analogously for gy; at the
    borders the missing neighbor is replicated, halving the one-sided
    difference there.
    """
    data = _as_float(image)
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise ValueError(f"image must be at least 3x3 for gradients, "
                         f"got {data.shape}")
    padded = np.pad(data, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 0.5
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 0.5
    return gx, gy


def orientation_channels(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Absolute directional gradient responses for the M angles i*180/M
    degrees.

    The absolute value folds opposite gradient directions together, which is
    what makes the descriptor insensitive to contrast inversions between
    modalities. Returns (M, h, w) planes.
    """
    if gx.shape != gy.shape:
        raise ValueError(f"gradient shapes differ: {gx.shape} vs {gy.shape}")
    vol = np.empty((M,) + gx.shape, dtype=np.result_type(gx, gy))
    for i in range(M):
        th = i * (math.pi / M)
        np.abs(math.cos(th) * gx + math.sin(th) * gy, out=vol[i])
    return vol


def smooth_3d(raw: np.ndarray, keep=None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Separable spatial Gaussian (replicate borders) over (m, h, w) planes,
    followed by circular convolution along the orientation axis.

    Orientation is periodic over 180 degrees, so channel 0 and channel m-1
    are neighbors: the orientation pass wraps around. ``keep``, a
    (rows, cols) pair of slices, returns only that part of the planes
    (default: all of them): the Gaussian runs down the columns (axis 1) of
    every row, then along the rows (axis 2) of the kept rows only, and the
    orientation pass covers the kept rows and columns only, so no pass
    smooths what is thrown away. The axis-2 pass writes into ``raw``'s
    buffer, so ``raw`` is overwritten. The result, written into ``out``
    when given, keeps the float dtype of ``raw``.
    """
    rows, cols = keep or (slice(None), slice(None))
    convolve1d = scipy.ndimage.convolve1d
    smoothed = np.empty(raw.shape, raw.dtype)
    convolve1d(raw, _GAUSSIAN, axis=1, mode="nearest", output=smoothed)
    convolve1d(smoothed[:, rows], _GAUSSIAN, axis=2, mode="nearest",
               output=raw[:, rows])
    s = raw[:, rows, cols]
    if out is None:
        out = np.empty(s.shape, raw.dtype)
    # ndimage's arithmetic for a symmetric 3-tap kernel, one plane at a
    # time: s[i] * w1 + (s[i-1] + s[i+1]) * w0 in float64, rounded once to
    # the volume's dtype, so the planes equal convolve1d(mode="wrap") bitwise
    w0, w1, _ = _Z_KERNEL
    acc = np.empty(s.shape[1:])
    centre = np.empty(s.shape[1:])
    m = len(s)
    for i in range(m):
        np.add(s[i - 1], s[(i + 1) % m], out=acc, dtype=np.float64)
        acc *= w0
        acc += np.multiply(s[i], w1, out=centre, dtype=np.float64)
        out[i] = acc
    return out


def _normalize(planes: np.ndarray):
    """Divide (m, h, w) planes in place by their per-pixel L2 norm, which is
    accumulated one plane at a time. A pixel whose norm is not positive (a
    zero vector, or one whose squares underflow) is divided by 1 instead,
    so it stays as it is."""
    norms = planes[0] * planes[0]
    for plane in planes[1:]:
        norms += plane * plane
    np.sqrt(norms, out=norms)
    norms[~(norms > 0)] = 1.0
    planes /= norms


def build_cfog(image, *, region=None,
               out: np.ndarray | None = None) -> DescriptorVolume:
    """Full descriptor pipeline: gradients, orientation channels, smoothing
    and per-pixel L2 normalization (zero vectors stay zero).

    ``region``, a (rows, cols) pair of slices, describes that part of the
    image alone (default: all of it), smoothed over the kept pixels only
    (see ``smooth_3d``); ``out``, an (M, rows, cols) array of the image's
    float dtype, receives the planes in place of a new array. The image is
    described in one pass, so the caller bounds the temporaries by the crop
    it passes. A region's descriptor depends on the pixels within REACH of
    it alone, so it equals the whole-image descriptor there bitwise.
    """
    data = _as_float(image)
    h, w = data.shape
    rows, cols = region or (slice(None), slice(None))
    r_lo, r_hi, _ = rows.indices(h)
    c_lo, c_hi, _ = cols.indices(w)
    shape = (M, r_hi - r_lo, c_hi - c_lo)
    if out is None:
        out = np.empty(shape, dtype=data.dtype)
    elif out.shape != shape or out.dtype != data.dtype:
        raise ValueError(f"out must be a {shape} {data.dtype} array, got "
                         f"{out.shape} {out.dtype}")
    top, left = max(r_lo - REACH, 0), max(c_lo - REACH, 0)
    gx, gy = gradient_xy(data[top:min(r_hi + REACH, h),
                              left:min(c_hi + REACH, w)])
    smooth_3d(orientation_channels(gx, gy),
              keep=(slice(r_lo - top, r_hi - top),
                    slice(c_lo - left, c_hi - left)), out=out)
    _normalize(out)
    return DescriptorVolume(values=out)
