"""Ground-truthed synthetic test pairs.

The real scenes behind the method are multi-gigabyte satellite products;
tests need small, seeded, fully characterized stand-ins. A reference scene
is seeded multi-octave value noise (optionally with step-edged discs so
corner detectors have strong responses). The sensed counterpart is the
reference pulled back through a known geometric warp, remapped radiometrically
(gamma or log compression emulating a different sensor), and multiplied by
unit-mean speckle noise. The exact warp is returned as a fitted-model object
so accuracy claims can be checked against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .geomodels import FittedModel, ModelSpec, Normalization
from .raster import GeoTransform, RasterGrid, sample_bilinear

# check_invertible probes a grid of this many samples per axis
_INVERTIBLE_SAMPLES = 25
# invert_warp_grid: fixed-point iteration cap, and the largest per-point step
# that ends the iteration
_INVERT_MAX_ITERS = 80
_INVERT_TOL = 1e-12


class NonInvertibleWarpError(RuntimeError):
    """The requested warp folds or collapses somewhere over the scene."""


def identity_warp() -> FittedModel:
    return FittedModel.from_coefficients(
        ModelSpec("polynomial", 1), num_x=[0.0, 1.0, 0.0], num_y=[0.0, 0.0, 1.0])


def translation_warp(tx: float, ty: float) -> FittedModel:
    return FittedModel.from_coefficients(
        ModelSpec("polynomial", 1), num_x=[tx, 1.0, 0.0], num_y=[ty, 0.0, 1.0])


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic pair.

    warp maps reference map coordinates to sensed map coordinates (None
    means identity). radiometry is applied to the warped intensities:
    'gamma' raises [0,1] values to the given power, 'log' applies a
    logarithmic compression. speckle_var is the variance of the
    multiplicative unit-mean noise.
    """

    size: int = 512
    texture: str = "fractal"
    warp: FittedModel | None = None
    radiometry: str = "identity"
    gamma: float = 0.4
    speckle_var: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")
        if self.texture not in ("fractal", "blobs"):
            raise ValueError(f"texture must be 'fractal' or 'blobs', "
                             f"got {self.texture!r}")
        if self.radiometry not in ("identity", "gamma", "log"):
            raise ValueError(f"radiometry must be identity, gamma or log, "
                             f"got {self.radiometry!r}")
        if self.speckle_var < 0:
            raise ValueError(f"speckle_var must be >= 0, got {self.speckle_var}")


# ---------------------------------------------------------------------------
# Texture


def _value_noise(h: int, w: int, rng, spacings, weights) -> np.ndarray:
    """Sum of bilinearly upsampled random lattices, one per octave."""
    out = np.zeros((h, w), dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    cols = np.arange(w, dtype=np.float64)
    for spacing, weight in zip(spacings, weights):
        lat_h = h // spacing + 2
        lat_w = w // spacing + 2
        lattice = rng.random((lat_h, lat_w))
        rr, cc = np.meshgrid(rows / spacing, cols / spacing, indexing="ij")
        out += weight * ndimage.map_coordinates(lattice, [rr, cc], order=1)
    lo, hi = out.min(), out.max()
    if hi > lo:
        out = (out - lo) / (hi - lo)
    return out


def _texture(spec: SynthSpec, rng) -> np.ndarray:
    max_spacing = max(4, spec.size // 8)
    spacings = [s for s in (2, 4, 8, 16, 32, 64, 128, 256) if s <= max_spacing]
    # fine octaves dominate so spectra stay broadband, and the saturating
    # tone curve turns the smooth noise into full-contrast step edges;
    # gradient-based matching and corner detection both starve without them
    weights = [1.0 / float(np.sqrt(s)) for s in spacings]
    scene = _value_noise(spec.size, spec.size, rng, spacings, weights)
    scene = 0.5 + 0.5 * np.tanh(6.0 * (scene - 0.5))
    lo, hi = scene.min(), scene.max()
    if hi > lo:
        scene = (scene - lo) / (hi - lo)
    if spec.texture == "blobs":
        # opaque discs add the step edges that corner detection feeds on
        n_discs = max(16, (spec.size // 64) ** 2)
        for _ in range(n_discs):
            cy, cx = rng.uniform(0, spec.size, size=2)
            radius = rng.uniform(4.0, 16.0)
            value = rng.uniform(0.0, 1.0)
            r0 = max(0, int(cy - radius) - 1)
            r1 = min(spec.size, int(cy + radius) + 2)
            c0 = max(0, int(cx - radius) - 1)
            c1 = min(spec.size, int(cx + radius) + 2)
            if r1 <= r0 or c1 <= c0:
                continue
            yy, xx = np.mgrid[r0:r1, c0:c1]
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
            scene[r0:r1, c0:c1][mask] = value
    return scene


# ---------------------------------------------------------------------------
# Warp handling


def check_invertible(warp: FittedModel, x0: float, y0: float,
                     x1: float, y1: float) -> None:
    """Finite-difference Jacobian sign/magnitude check over the footprint."""
    xs = np.linspace(x0, x1, _INVERTIBLE_SAMPLES)
    ys = np.linspace(y0, y1, _INVERTIBLE_SAMPLES)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    h = 0.5
    uxp, vxp = warp.apply(X + h, Y)
    uxm, vxm = warp.apply(X - h, Y)
    uyp, vyp = warp.apply(X, Y + h)
    uym, vym = warp.apply(X, Y - h)
    dux = (uxp - uxm) / (2 * h)
    dvx = (vxp - vxm) / (2 * h)
    duy = (uyp - uym) / (2 * h)
    dvy = (vyp - vym) / (2 * h)
    det = dux * dvy - duy * dvx
    if not np.all(np.isfinite(det)):
        raise NonInvertibleWarpError("warp evaluation failed over the footprint")
    if det.min() < 0.0 < det.max():
        raise NonInvertibleWarpError(
            "warp Jacobian determinant changes sign over the footprint; "
            "the mapping folds")
    if np.abs(det).min() <= 1e-3:
        raise NonInvertibleWarpError(
            f"warp Jacobian determinant magnitude reaches "
            f"{np.abs(det).min():.3e} over the footprint; the mapping "
            f"collapses")


def invert_warp_grid(warp: FittedModel, tx: np.ndarray, ty: np.ndarray):
    """Solve warp(rx, ry) = (tx, ty) per point by fixed-point iteration.

    Writing the warp as identity plus displacement, each step replaces the
    estimate with target minus displacement; this converges whenever the
    displacement gradient magnitude stays below 1. Returns (rx, ry, ok)
    where ok flags points whose forward image lands within 1e-6 of the
    target.
    """
    rx = tx.astype(np.float64).copy()
    ry = ty.astype(np.float64).copy()
    for _ in range(_INVERT_MAX_ITERS):
        fx, fy = warp.apply(rx, ry)
        new_rx = rx + (tx - fx)
        new_ry = ry + (ty - fy)
        delta = np.maximum(np.abs(new_rx - rx), np.abs(new_ry - ry))
        rx, ry = new_rx, new_ry
        if float(np.nanmax(delta)) < _INVERT_TOL:
            break
    fx, fy = warp.apply(rx, ry)
    err = np.hypot(fx - tx, fy - ty)
    ok = np.isfinite(err) & (err < 1e-6)
    return rx, ry, ok


# ---------------------------------------------------------------------------
# Generation


def _apply_radiometry(vals: np.ndarray, spec: SynthSpec) -> np.ndarray:
    if spec.radiometry == "identity":
        return vals
    clipped = np.clip(vals, 0.0, 1.0)
    if spec.radiometry == "gamma":
        return clipped ** spec.gamma
    a = 60.0
    return np.log1p(a * clipped) / np.log1p(a)


def generate(spec: SynthSpec):
    """Build one synthetic pair.

    Returns (reference, sensed, truth, dem). The sensed image is the
    reference resampled through the inverse of the truth warp, so truth maps
    reference coordinates to the sensed positions where the same content
    landed. Sensed pixels whose source falls outside the reference are 0.
    """
    rng = np.random.default_rng(spec.seed)
    gt = GeoTransform(origin_x=0.0, origin_y=0.0, pixel_w=1.0, pixel_h=1.0)
    crs = "SYNTH"

    scene = _texture(spec, rng)
    reference = RasterGrid(data=scene.astype(np.float32), geotransform=gt,
                           crs_tag=crs)

    dem_spacings = ([s for s in (64, 128, 256) if s <= spec.size // 2]
                    or [max(4, spec.size // 4)])
    relief = _value_noise(spec.size, spec.size, rng, dem_spacings,
                          [float(np.sqrt(s)) for s in dem_spacings])
    dem = RasterGrid(data=(500.0 * relief).astype(np.float32),
                     geotransform=gt, crs_tag=crs)

    truth = spec.warp if spec.warp is not None else identity_warp()
    if truth.spec.family == "rfm":
        raise ValueError("synthetic truth warps must be 2-D "
                         "(polynomial or projective)")
    n = spec.size
    check_invertible(truth, 0.0, 0.0, float(n - 1), float(n - 1))

    sensed = np.zeros((n, n), dtype=np.float64)
    cols = np.arange(n, dtype=np.float64)
    chunk = 256
    for r0 in range(0, n, chunk):
        r1 = min(r0 + chunk, n)
        rows = np.arange(r0, r1, dtype=np.float64)
        rr, cc = np.meshgrid(rows, cols, indexing="ij")
        tx, ty = gt.pixel_to_geo(cc, rr)
        sx, sy, ok = invert_warp_grid(truth, tx, ty)
        src_c, src_r = gt.geo_to_pixel(sx, sy)
        vals = sample_bilinear(reference, src_c, src_r)
        vals = np.where(ok & np.isfinite(vals), vals, 0.0)
        sensed[r0:r1, :] = vals

    sensed = _apply_radiometry(sensed, spec)
    if spec.speckle_var > 0:
        shape = 1.0 / spec.speckle_var
        sensed = sensed * rng.gamma(shape, scale=spec.speckle_var,
                                    size=sensed.shape)
    sensed_grid = RasterGrid(data=sensed.astype(np.float32), geotransform=gt,
                             crs_tag=crs)
    return reference, sensed_grid, truth, dem


# ---------------------------------------------------------------------------
# Manifest round trip (flat key=value recipe files for the CLI)


def spec_to_manifest(spec: SynthSpec) -> str:
    lines = [
        f"size={spec.size}",
        f"texture={spec.texture}",
        f"radiometry={spec.radiometry}",
        f"gamma={spec.gamma!r}",
        f"speckle_var={spec.speckle_var!r}",
        f"seed={spec.seed}",
    ]
    warp = spec.warp if spec.warp is not None else identity_warp()
    lines.append(f"warp_family={warp.spec.family}")
    lines.append(f"warp_order={warp.spec.order}")
    if warp.spec.denom_mode is not None:
        lines.append(f"warp_denom_mode={warp.spec.denom_mode}")

    def fmt(vec):
        return " ".join(f"{c:.17e}" for c in vec)

    lines.append(f"warp_num_x={fmt(warp.num_x)}")
    lines.append(f"warp_den_x={fmt(warp.den_x)}")
    lines.append(f"warp_num_y={fmt(warp.num_y)}")
    lines.append(f"warp_den_y={fmt(warp.den_y)}")
    lines.append(f"warp_norm={fmt(warp.norm.as_tuple())}")
    return "\n".join(lines) + "\n"


def spec_from_manifest(text: str) -> SynthSpec:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"manifest line {lineno}: expected key=value, "
                             f"got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()

    warp = None
    if "warp_family" in entries:
        mspec = ModelSpec(entries["warp_family"], int(entries["warp_order"]),
                          entries.get("warp_denom_mode"))

        def vec(key):
            return np.array([float(t) for t in entries[key].split()])

        norm = Normalization(*(float(t) for t in entries["warp_norm"].split())) \
            if "warp_norm" in entries else Normalization.identity()
        warp = FittedModel(spec=mspec, num_x=vec("warp_num_x"),
                           den_x=vec("warp_den_x"), num_y=vec("warp_num_y"),
                           den_y=vec("warp_den_y"), norm=norm)
    return SynthSpec(
        size=int(entries.get("size", 512)),
        texture=entries.get("texture", "fractal"),
        warp=warp,
        radiometry=entries.get("radiometry", "identity"),
        gamma=float(entries.get("gamma", 0.4)),
        speckle_var=float(entries.get("speckle_var", 0.0)),
        seed=int(entries.get("seed", 0)),
    )
