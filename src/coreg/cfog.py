"""Dense orientated-gradient descriptor volumes.

Each pixel gets an m-vector of absolute directional gradient responses
|cos(theta)*gx + sin(theta)*gy| for theta spread evenly over [0, 180),
smoothed spatially by a small Gaussian and along the orientation axis by a
circular 3-tap kernel. The result is a structural descriptor that survives
strong nonlinear radiometric differences between sensors: it depends on
gradients only, so additive offsets vanish and (after per-pixel
normalization) global gain does too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class CfogParams:
    """Descriptor configuration.

    m: orientation channel count over [0, 180).
    sigma_spatial: Gaussian std in pixels for spatial pooling.
    z_kernel: weights convolved circularly along the orientation axis.
    """

    m: int = 9
    sigma_spatial: float = 0.8
    z_kernel: tuple = (0.25, 0.5, 0.25)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 orientation channels, got {self.m}")
        if self.sigma_spatial <= 0:
            raise ValueError(f"sigma_spatial must be > 0, got {self.sigma_spatial}")
        if abs(sum(self.z_kernel) - 1.0) > 1e-9:
            raise ValueError(f"z_kernel must sum to 1, got {self.z_kernel}")


@dataclass
class DescriptorVolume:
    """(height, width, m) stack of nonnegative channel responses."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3:
            raise ValueError(f"descriptor volume must be 3-D, got {vals.shape}")
        self.values = vals

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def m(self) -> int:
        return self.values.shape[2]


def _as_array(image) -> np.ndarray:
    data = getattr(image, "data", image)
    return np.asarray(data, dtype=np.float64)


def gradient_xy(image) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradients with replicate borders.

    gx(c, r) = (I(c+1, r) - I(c-1, r)) / 2 and analogously for gy; at the
    borders the missing neighbor is replicated, halving the one-sided
    difference there.
    """
    data = _as_array(image)
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise ValueError(f"image must be at least 3x3 for gradients, "
                         f"got {data.shape}")
    padded = np.pad(data, 1, mode="edge")
    gx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 0.5
    gy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 0.5
    return gx, gy


def orientation_channels(gx: np.ndarray, gy: np.ndarray, m: int) -> np.ndarray:
    """Absolute directional gradient responses for m angles i*180/m degrees.

    The absolute value folds opposite gradient directions together, which is
    what makes the descriptor insensitive to contrast inversions between
    modalities.
    """
    if gx.shape != gy.shape:
        raise ValueError(f"gradient shapes differ: {gx.shape} vs {gy.shape}")
    if m < 2:
        raise ValueError(f"need at least 2 orientation channels, got {m}")
    thetas = np.arange(m) * (math.pi / m)
    vol = np.empty(gx.shape + (m,), dtype=np.float64)
    for i, th in enumerate(thetas):
        vol[:, :, i] = np.abs(math.cos(th) * gx + math.sin(th) * gy)
    return vol


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def smooth_3d(raw: np.ndarray, params: CfogParams) -> DescriptorVolume:
    """Separable spatial Gaussian (replicate borders) followed by circular
    convolution along the orientation axis.

    Orientation is periodic over 180 degrees, so channel 0 and channel m-1
    are neighbors; the wrap mode encodes that adjacency.
    """
    kernel = _gaussian_kernel(params.sigma_spatial)
    out = ndimage.convolve1d(raw, kernel, axis=0, mode="nearest")
    out = ndimage.convolve1d(out, kernel, axis=1, mode="nearest")
    out = ndimage.convolve1d(out, np.asarray(params.z_kernel, dtype=np.float64),
                             axis=2, mode="wrap")
    return DescriptorVolume(values=out)


def build_cfog(image, params: CfogParams | None = None,
               normalize: bool = True) -> DescriptorVolume:
    """Full descriptor pipeline: gradients, orientation channels, smoothing,
    optional per-pixel L2 normalization (zero vectors stay zero)."""
    if params is None:
        params = CfogParams()
    gx, gy = gradient_xy(image)
    vol = smooth_3d(orientation_channels(gx, gy, params.m), params)
    if normalize:
        norms = np.sqrt(np.sum(vol.values * vol.values, axis=2, keepdims=True))
        np.divide(vol.values, norms, out=vol.values, where=norms > 0)
    return vol
