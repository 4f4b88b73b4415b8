"""Ground-truthed synthetic test pairs.

The real scenes behind the method are multi-gigabyte satellite products;
tests need small, seeded, fully characterized stand-ins. A reference scene
is seeded multi-octave value noise, saturated by a tone curve into the step
edges that corner detectors respond to. The sensed counterpart is the
reference pulled back through a known geometric warp, optionally raised to a
gamma power (emulating a different sensor), and multiplied by unit-mean
speckle noise. The exact warp is returned as a fitted-model object so
accuracy claims can be checked against ground truth.

The pull-back inverts the warp by a chord Newton iteration: steps through
a frozen inverse Jacobian until each point's step, or the error bound that
the ratio of its last two steps gives, falls below a tolerance (one still
moving at the step cap is not ok). The warp is first inverted at the nodes
of a regular lattice; the frame is then inverted in whole-row chunks, each
pixel started and stepped from the nodes' solutions and inverse Jacobians,
bilinearly upsampled as value noise is, about two warp evaluations per
pixel. A seeded pixel that fails is solved again unseeded.

The sensed frame is streamed: it is allocated once in float32, and each
chunk of the inversion is sampled, remapped, multiplied by its own speckle
draw (the draws follow each other as one full-frame draw would) and cast
into its rows, so beyond the three float32 rasters only the float64 noise
frame being built, and chunk-sized temporaries, are ever held.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geomodels import MODEL_FIELDS, ControlPoint, FittedModel, ModelSpec, fit
from .raster import GeoTransform, RasterGrid, parse_records, sample_bilinear

# check_invertible probes a grid of this many samples per axis
_INVERTIBLE_SAMPLES = 25
# invert_warp_grid: step cap, the largest per-point step, or bound on the
# error left after it, that ends the iteration, and the forward-difference
# step of its Jacobian (a power of two, so r + h is exact for map
# coordinates below 2**42)
_INVERT_MAX_ITERS = 200
_INVERT_TOL = 1e-12
_JACOBIAN_STEP = 2.0 ** -10
# generate builds noise this many pixels at a time, and inverts the warp in
# whole-row chunks of about _INVERT_CHUNK_PIXELS, so the solver's arrays
# stay in cache
_CHUNK_PIXELS = 65536
_INVERT_CHUNK_PIXELS = 16384
# the frame inversion's lattice: a node every this many pixels per axis,
# the last at or past the frame's last row and column
_LATTICE_STEP = 8


class NonInvertibleWarpError(RuntimeError):
    """The requested warp folds or collapses somewhere over the scene."""


def identity_warp() -> FittedModel:
    return FittedModel.from_coefficients(
        ModelSpec("polynomial", 1), num_x=[0.0, 1.0, 0.0], num_y=[0.0, 0.0, 1.0])


def translation_warp(tx: float, ty: float) -> FittedModel:
    return FittedModel.from_coefficients(
        ModelSpec("polynomial", 1), num_x=[tx, 1.0, 0.0], num_y=[ty, 0.0, 1.0])


def cubic_truth(size: int, scale: float = 1.0) -> FittedModel:
    """The order-3 warp of the flat-scene protocol over a ``size`` frame.

    An analytic displacement field, 20-30 px on average at ``scale`` 1 and
    inside a +-50 px matching budget, with its amplitudes multiplied by
    ``scale``, fitted exactly (to rounding) from 40 seeded control points.
    """

    def field(x, y):
        u = 2.0 * x / (size - 1) - 1.0
        v = 2.0 * y / (size - 1) - 1.0
        return (x + scale * (12 + 30 * u * v - 14 * v ** 2 + 10 * u ** 3),
                y + scale * (24 - 18 * u ** 2 + 22 * u * v + 10 * v ** 3))

    rng = np.random.default_rng(42)
    pts = rng.uniform(0, size - 1, (40, 2))
    cps = [ControlPoint(float(x), float(y), *map(float, field(x, y)))
           for x, y in pts]
    return fit(ModelSpec("polynomial", 3), cps)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic pair.

    warp maps reference map coordinates to sensed map coordinates (None
    means identity). radiometry is applied to the warped intensities:
    'gamma' raises [0,1] values to the given power. speckle_var is the
    variance of the multiplicative unit-mean noise.
    """

    size: int = 512
    warp: FittedModel | None = None
    radiometry: str = "identity"
    gamma: float = 0.4
    speckle_var: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.size < 16:
            raise ValueError(f"size must be >= 16, got {self.size}")
        if self.radiometry not in ("identity", "gamma"):
            raise ValueError(f"radiometry must be identity or gamma, "
                             f"got {self.radiometry!r}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 <= self.speckle_var < np.inf:
            raise ValueError(f"speckle_var must be finite and >= 0, got "
                             f"{self.speckle_var}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Texture


def _lerp_weights(n: int, spacing: int):
    """Lattice index and weight of the next node for n pixels along an axis."""
    pos = np.arange(n, dtype=np.float64) / spacing
    idx = np.floor(pos).astype(np.intp)
    return idx, pos - idx


def _add_upsampled(out, lattice, rows, cols, weight=1.0, part=None):
    """Add weight times lattice, bilinearly upsampled, into out: its last
    two axes are interpolated along rows, then along columns, with the
    _lerp_weights pairs rows and cols (the node past a pixel on the last
    node is clipped to it). part is an optional buffer shaped like out."""
    (r, fr), (c, fc) = rows, cols
    fr = fr[:, None]
    up = lattice.take(r, axis=-2, mode="clip") * (1.0 - fr)
    up += lattice.take(r + 1, axis=-2, mode="clip") * fr
    up *= weight
    part = np.take(up, c, axis=-1, out=part, mode="clip")
    part *= 1.0 - fc
    out += part
    np.take(up, c + 1, axis=-1, out=part, mode="clip")
    part *= fc
    out += part


def _value_noise(h: int, w: int, rng, spacings, weights) -> np.ndarray:
    """Sum of bilinearly upsampled random lattices, one per octave.

    The frame is summed in blocks of about _CHUNK_PIXELS, all octaves per
    block, so the block stays in cache.
    """
    octaves = [(rng.random((h // s + 2, w // s + 2)), weight,
                _lerp_weights(h, s), _lerp_weights(w, s))
               for s, weight in zip(spacings, weights)]
    out = np.zeros((h, w), dtype=np.float64)
    step = max(1, _CHUNK_PIXELS // w)
    tmp = np.empty((min(step, h), w), dtype=np.float64)
    for r0 in range(0, h, step):
        block = out[r0:r0 + step]
        for lattice, weight, (r, fr), cols in octaves:
            _add_upsampled(block, lattice, (r[r0:r0 + step], fr[r0:r0 + step]),
                           cols, weight, tmp[:len(block)])
    _normalize(out)
    return out


def _normalize(a: np.ndarray) -> None:
    """Stretch a onto [0, 1] in place, unless it is constant."""
    lo, hi = a.min(), a.max()
    if hi > lo:
        a -= lo
        a /= hi - lo


def _texture(n: int, rng) -> np.ndarray:
    """The n x n reference scene, on [0, 1]."""
    max_spacing = max(4, n // 8)
    spacings = [s for s in (2, 4, 8, 16, 32, 64, 128, 256) if s <= max_spacing]
    # fine octaves dominate so spectra stay broadband, and the saturating
    # tone curve turns the smooth noise into full-contrast step edges;
    # gradient-based matching and corner detection both starve without them
    weights = [1.0 / float(np.sqrt(s)) for s in spacings]
    scene = _value_noise(n, n, rng, spacings, weights)
    # 0.5 + 0.5 * tanh(6 * (scene - 0.5)), in place
    scene -= 0.5
    scene *= 6.0
    np.tanh(scene, out=scene)
    scene *= 0.5
    scene += 0.5
    _normalize(scene)
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


def invert_warp_grid(warp: FittedModel, tx: np.ndarray, ty: np.ndarray,
                     seed=None):
    """Solve warp(rx, ry) = (tx, ty) per point by a chord Newton iteration.

    Unseeded, writing the warp as identity plus displacement, one
    fixed-point step r1 = 2t - warp(t) lands close to the solution while the
    displacement gradient stays small; the Jacobian is taken there once, by
    forward differences, and its 2x2 inverse is kept frozen. ``seed`` gives
    both instead: six arrays shaped like tx, the inverse displacement
    (ux, uy) that starts the iteration at t + u, and the entries (a, b, c, d)
    of the frozen inverse [[a, b], [c, d]], which also takes the first step.
    Each step adds J^-1 (t - warp(r)). A chord step contracts the error
    linearly, so once two successive chord steps shrink by rho < 1/2, the
    error left after the second is at most rho / (1 - rho) times it. A point
    retires, and is evaluated no more, after its first step below
    _INVERT_TOL, or one whose error bound is, or one that is not finite;
    the rest stop after _INVERT_MAX_ITERS steps, and an all-non-finite input
    stops after its first evaluation. Returns (rx, ry, ok) where ok flags
    retired points at a finite position whose last step was taken from a
    forward image within 1e-6 of the target: a point still moving at the
    cap is not ok, whatever its residual. A seeded point with a finite
    target that is not ok is solved again unseeded.
    """
    shape = np.shape(tx)
    tx = np.asarray(tx, dtype=np.float64).ravel()
    ty = np.asarray(ty, dtype=np.float64).ravel()
    gx, gy = tx, ty
    if seed is None:
        x, y, inverse = gx.copy(), gy.copy(), None
    else:
        ux, uy, *inverse = (np.ravel(s) for s in seed)
        x, y = gx + ux, gy + uy
    rx, ry = np.empty(gx.size), np.empty(gx.size)
    ok = np.zeros(gx.size, dtype=bool)
    live = np.arange(gx.size)
    # per live point, its last chord step (None before the first)
    last = None
    # non-finite points are reported through ok, not warnings
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(_INVERT_MAX_ITERS):
            fx, fy = warp.apply(x, y)
            if inverse is None and k:
                inverse = _inverse_jacobian(warp, x, y, fx, fy)
            # the residual t - warp(r), written over warp(r)
            ex = np.subtract(gx, fx, out=fx)
            ey = np.subtract(gy, fy, out=fy)
            dx, dy = ex, ey
            if inverse is not None:
                a, b, c, d = inverse
                dx, dy = a * ex + b * ey, c * ex + d * ey
            x += dx
            y += dy
            moved = np.maximum(np.abs(dx), np.abs(dy))
            keep = (moved >= _INVERT_TOL) & (moved < np.inf)
            if inverse is not None:
                if last is not None:
                    rho = moved / last
                    keep &= ~((rho < 0.5)
                              & (rho / (1.0 - rho) * moved < _INVERT_TOL))
                last = moved
            if not keep.all():
                done = np.flatnonzero(~keep)
                at = live[done]
                rx[at], ry[at] = px, py = x[done], y[done]
                ok[at] = ((np.hypot(ex[done], ey[done]) < 1e-6)
                          & np.isfinite(px) & np.isfinite(py))
                keep = np.flatnonzero(keep)
                live, gx, gy, x, y = (v[keep] for v in (live, gx, gy, x, y))
                if inverse is not None:
                    last, *inverse = (v[keep] for v in (last, *inverse))
            if not live.size:
                break
        rx[live], ry[live] = x, y
    if seed is not None:
        redo = np.flatnonzero(~ok & np.isfinite(tx) & np.isfinite(ty))
        if redo.size:
            rx[redo], ry[redo], ok[redo] = invert_warp_grid(warp, tx[redo],
                                                            ty[redo])
    return rx.reshape(shape), ry.reshape(shape), ok.reshape(shape)


def _inverse_jacobian(warp: FittedModel, rx, ry, fx, fy):
    """Entries (a, b, c, d) of the inverse [[a, b], [c, d]] of warp's
    forward-difference Jacobian at (rx, ry), where warp(rx, ry) = (fx, fy)."""
    h = _JACOBIAN_STEP
    ux, vx = warp.apply(rx + h, ry)
    uy, vy = warp.apply(rx, ry + h)
    # columns of h * J, then h / det(h * J) = 1 / (h * det J)
    ux -= fx
    vx -= fy
    uy -= fx
    vy -= fy
    scale = h / (ux * vy - uy * vx)
    return vy * scale, -uy * scale, -vx * scale, ux * scale


def _lattice_seed(warp: FittedModel, n: int):
    """The seed of invert_warp_grid over an n x n frame: seed(r0, r1) gives
    the six planes of frame rows r0..r1, the inverse displacement and
    inverse Jacobian of the warp at lattice nodes every _LATTICE_STEP
    pixels, upsampled. A node that is not ok has NaN planes, so the pixels
    seeded from it retire after one step and are solved again unseeded."""
    nodes = np.arange(0.0, n - 1 + _LATTICE_STEP, _LATTICE_STEP)
    ny, nx = np.meshgrid(nodes, nodes, indexing="ij")
    lx, ly, ok = invert_warp_grid(warp, nx, ny)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        fx, fy = warp.apply(lx, ly)
        planes = np.stack([lx - nx, ly - ny,
                           *_inverse_jacobian(warp, lx, ly, fx, fy)])
    planes[:, ~ok] = np.nan
    idx, w = _lerp_weights(n, _LATTICE_STEP)

    def seed(r0: int, r1: int) -> np.ndarray:
        out = np.zeros((len(planes), r1 - r0, n))
        with np.errstate(invalid="ignore", over="ignore"):
            _add_upsampled(out, planes, (idx[r0:r1], w[r0:r1]), (idx, w))
        return out

    return seed


def invert_frame(warp: FittedModel, n: int):
    """Invert warp over the n x n frame whose map coordinates are its pixel
    indices, yielding (r0, r1, rx, ry, ok) for chunks of whole rows, each
    seeded from the lattice (see _lattice_seed)."""
    seed = _lattice_seed(warp, n)
    step = max(1, _INVERT_CHUNK_PIXELS // n)
    cols = np.arange(n, dtype=np.float64)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        ty, tx = np.meshgrid(np.arange(r0, r1, dtype=np.float64), cols,
                             indexing="ij")
        yield (r0, r1, *invert_warp_grid(warp, tx, ty, seed(r0, r1)))


# ---------------------------------------------------------------------------
# Generation


def _apply_radiometry(vals: np.ndarray, spec: SynthSpec) -> np.ndarray:
    if spec.radiometry == "identity":
        return vals
    return np.clip(vals, 0.0, 1.0) ** spec.gamma


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

    reference = RasterGrid(data=_texture(spec.size, rng).astype(np.float32),
                           geotransform=gt, crs_tag=crs)

    dem_spacings = ([s for s in (64, 128, 256) if s <= spec.size // 2]
                    or [max(4, spec.size // 4)])
    relief = _value_noise(spec.size, spec.size, rng, dem_spacings,
                          [float(np.sqrt(s)) for s in dem_spacings])
    relief *= 500.0
    dem = RasterGrid(data=relief.astype(np.float32), geotransform=gt,
                     crs_tag=crs)
    del relief

    truth = spec.warp if spec.warp is not None else identity_warp()
    if truth.spec.dims == 3:
        raise ValueError("synthetic truth warps must be 2-D "
                         "(polynomial or projective)")
    n = spec.size
    check_invertible(truth, 0.0, 0.0, float(n - 1), float(n - 1))

    # gt maps pixel indices to themselves, so the frame's map coordinates
    # are its pixel indices, in the truth's and the reference's frames;
    # each chunk is finished in float64 and cast into its rows, and its
    # speckle draw follows the previous chunk's, as one full-frame draw would
    sensed = np.empty((n, n), dtype=np.float32)
    for r0, r1, sx, sy, ok in invert_frame(truth, n):
        vals = sample_bilinear(reference, sx, sy)
        vals = _apply_radiometry(np.where(ok & np.isfinite(vals), vals, 0.0),
                                 spec)
        if spec.speckle_var > 0:
            vals *= rng.gamma(1.0 / spec.speckle_var,
                              scale=spec.speckle_var, size=vals.shape)
        sensed[r0:r1] = vals
    sensed_grid = RasterGrid(data=sensed, geotransform=gt, crs_tag=crs)
    return reference, sensed_grid, truth, dem


# ---------------------------------------------------------------------------
# Manifest round trip (flat key=value recipe files for the CLI)


# the recipe keys besides the warp's, in file order, each with its parser;
# the warp's are its model fields prefixed with warp_
_MANIFEST_KEYS = {"size": int, "radiometry": str, "gamma": float,
                  "speckle_var": float, "seed": int}
_RECIPE_PARSERS = {**_MANIFEST_KEYS,
                   **{f"warp_{key}": parse for key, parse in MODEL_FIELDS.items()}}


def spec_to_manifest(spec: SynthSpec) -> str:
    lines = [f"{key}={getattr(spec, key)}" for key in _MANIFEST_KEYS]
    warp = spec.warp if spec.warp is not None else identity_warp()
    fields = warp.to_fields()
    fields["norm"] = fields.pop("norm")  # written last
    lines += [f"warp_{key}={value}" for key, value in fields.items()]
    return "\n".join(lines) + "\n"


def spec_from_manifest(text: str) -> SynthSpec:
    """Read a recipe written by spec_to_manifest, or by hand: keys left out
    take SynthSpec's defaults, no warp_* keys mean no warp, and a warp
    without warp_norm has the identity normalization. Raises ValueError
    naming a malformed line, an unknown key or the key of a bad value."""
    try:
        values = parse_records(text, _RECIPE_PARSERS)
    except ValueError as exc:
        raise ValueError(f"manifest: {exc}") from None
    fields = {key.removeprefix("warp_"): values.pop(key)
              for key in list(values) if key.startswith("warp_")}
    return SynthSpec(
        warp=FittedModel.from_fields(fields) if fields else None, **values)
