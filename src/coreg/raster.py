"""Raster data model: grids with affine georeferencing, file I/O, cropping,
bilinear sampling, and model-driven warping.

Two self-contained file formats are supported:

* Format A (``.bin`` + ``.hdr``): little-endian float32 row-major payload with
  an ASCII sidecar header carrying size, geotransform, CRS tag and optional
  nodata sentinel.
* Format B (``.pgm`` + ``.hdr``): binary 16-bit PGM (``P5``, maxval 65535,
  big-endian samples) with the same sidecar for georeferencing.

Both round-trip bit-exactly. Grids store samples as float32; pixel indices
follow the point convention (integer ``(col, row)`` is the sample location,
and the geotransform origin is the map position of sample ``(0, 0)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


# output pixels per warp chunk: the chunk's ~25 temporaries stay in cache, and
# the allocator reuses their memory rather than returning it to the operating
# system and page-faulting it back in for every chunk, as it does for
# megabyte-sized chunks
_WARP_CHUNK_PIXELS = 16384


class RasterError(Exception):
    """Base class for raster handling failures."""


class RasterFormatError(RasterError):
    """Malformed or unsupported raster file."""


class CrsMismatchError(RasterError):
    """Two grids do not share a coordinate reference system tag."""


class EmptyOverlapError(RasterError):
    """Requested geographic overlap is empty."""


class SingularTransformError(RasterError):
    """Geotransform linear part is not invertible."""


@dataclass(frozen=True)
class GeoTransform:
    """Affine map between pixel indices and map coordinates.

    map_x = origin_x + col * pixel_w + row * row_rot
    map_y = origin_y + col * col_rot + row * pixel_h

    ``pixel_h`` is conventionally negative for north-up grids. ``row_rot`` and
    ``col_rot`` are the shear terms (zero for axis-aligned grids).
    """

    origin_x: float
    origin_y: float
    pixel_w: float
    pixel_h: float
    row_rot: float = 0.0
    col_rot: float = 0.0

    def determinant(self) -> float:
        return self.pixel_w * self.pixel_h - self.row_rot * self.col_rot

    @property
    def invertible(self) -> bool:
        scale = max(abs(self.pixel_w), abs(self.pixel_h),
                    abs(self.row_rot), abs(self.col_rot), 1e-300)
        return abs(self.determinant()) > 1e-14 * scale * scale

    def pixel_to_geo(self, col, row):
        """Map fractional pixel indices to map coordinates (vectorized)."""
        col = np.asarray(col, dtype=float)
        row = np.asarray(row, dtype=float)
        x = self.origin_x + col * self.pixel_w + row * self.row_rot
        y = self.origin_y + col * self.col_rot + row * self.pixel_h
        if x.ndim == 0:
            return float(x), float(y)
        return x, y

    def geo_to_pixel(self, x, y):
        """Exact inverse of :meth:`pixel_to_geo`.

        Raises:
            SingularTransformError: if the linear part has no inverse.
        """
        if not self.invertible:
            raise SingularTransformError(
                f"geotransform linear part is singular: {self}")
        det = self.determinant()
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = x - self.origin_x
        dy = y - self.origin_y
        col = (dx * self.pixel_h - dy * self.row_rot) / det
        row = (dy * self.pixel_w - dx * self.col_rot) / det
        if col.ndim == 0:
            return float(col), float(row)
        return col, row

    def to_header_value(self) -> str:
        terms = (self.origin_x, self.pixel_w, self.row_rot,
                 self.origin_y, self.col_rot, self.pixel_h)
        return ",".join(repr(float(t)) for t in terms)

    @classmethod
    def from_header_value(cls, value: str) -> "GeoTransform":
        parts = value.split(",")
        if len(parts) != 6:
            raise RasterFormatError(f"gt= needs 6 comma-separated terms, got {value!r}")
        ox, pw, rr, oy, cr, ph = (float(p) for p in parts)
        return cls(origin_x=ox, origin_y=oy, pixel_w=pw, pixel_h=ph,
                   row_rot=rr, col_rot=cr)


IDENTITY_GT = GeoTransform(0.0, 0.0, 1.0, 1.0)


@dataclass
class RasterGrid:
    """Single-band image with a geotransform and CRS tag.

    ``data`` is a (height, width) float32 array; it is coerced on
    construction and treated as immutable afterwards.
    """

    data: np.ndarray
    geotransform: GeoTransform = IDENTITY_GT
    crs_tag: str = ""
    nodata: float | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"raster data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"raster must be at least 1x1, got {arr.shape}")
        self.data = arr

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def is_nodata(self, values) -> np.ndarray:
        """Boolean mask of samples equal to the nodata sentinel."""
        values = np.asarray(values)
        if self.nodata is None:
            return np.zeros(values.shape, dtype=bool)
        if math.isnan(self.nodata):
            return np.isnan(values)
        return values == np.float32(self.nodata)


@dataclass(frozen=True)
class Window:
    """Pixel-aligned rectangle: top-left corner plus size."""

    col0: int
    row0: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"window size must be >= 1, got {self.w}x{self.h}")

    def fits_in(self, grid: RasterGrid) -> bool:
        return (self.col0 >= 0 and self.row0 >= 0
                and self.col0 + self.w <= grid.width
                and self.row0 + self.h <= grid.height)


def read_window(grid: RasterGrid, win: Window) -> np.ndarray:
    """Extract a window as a copied float32 array."""
    if not win.fits_in(grid):
        raise ValueError(f"window {win} does not fit in {grid.width}x{grid.height} grid")
    return grid.data[win.row0:win.row0 + win.h, win.col0:win.col0 + win.w].copy()


# ---------------------------------------------------------------------------
# File I/O


def _write_header(path: Path, grid: RasterGrid, dtype: str) -> None:
    lines = [
        f"width={grid.width}",
        f"height={grid.height}",
        f"dtype={dtype}",
        f"gt={grid.geotransform.to_header_value()}",
        f"crs={grid.crs_tag}",
    ]
    if grid.nodata is not None:
        lines.append(f"nodata={repr(float(grid.nodata))}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_header(path: Path) -> dict:
    if not path.exists():
        raise RasterFormatError(f"missing sidecar header {path}")
    entries = {}
    for lineno, line in enumerate(path.read_text(encoding="ascii").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RasterFormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _header_geo(entries: dict, path: Path):
    if "gt" not in entries:
        raise RasterFormatError(f"{path}: header lacks gt=")
    gt = GeoTransform.from_header_value(entries["gt"])
    crs = entries.get("crs", "")
    nodata = float(entries["nodata"]) if "nodata" in entries else None
    return gt, crs, nodata


def save_raster(grid: RasterGrid, path) -> None:
    """Write a grid to ``path`` (Format A for ``.bin``, Format B for ``.pgm``).

    The sidecar header ``<stem>.hdr`` is written next to the payload. A saved
    file reloads to a bitwise-equal grid; Format B additionally requires the
    samples to be integers in [0, 65535].
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".bin":
        path.write_bytes(grid.data.astype("<f4", copy=False).tobytes())
        _write_header(path.with_suffix(".hdr"), grid, "float32")
    elif suffix == ".pgm":
        rounded = np.rint(grid.data.astype(np.float64))
        if not np.all(np.abs(grid.data.astype(np.float64) - rounded) <= 1e-6):
            raise RasterFormatError(
                "pgm output requires integral samples; use .bin for float data")
        if rounded.min() < 0 or rounded.max() > 65535:
            raise RasterFormatError(
                f"pgm samples must lie in [0, 65535], got "
                f"[{rounded.min()}, {rounded.max()}]")
        header = f"P5\n{grid.width} {grid.height}\n65535\n".encode("ascii")
        path.write_bytes(header + rounded.astype(">u2").tobytes())
        _write_header(path.with_suffix(".hdr"), grid, "uint16")
    else:
        raise RasterFormatError(f"unsupported raster extension {suffix!r} "
                                "(expected .bin or .pgm)")


def _load_bin(path: Path) -> RasterGrid:
    entries = _read_header(path.with_suffix(".hdr"))
    for key in ("width", "height", "dtype"):
        if key not in entries:
            raise RasterFormatError(f"{path}: header lacks {key}=")
    if entries["dtype"] != "float32":
        raise RasterFormatError(
            f"{path}: unsupported sample type {entries['dtype']!r}")
    width, height = int(entries["width"]), int(entries["height"])
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: bad size {width}x{height}")
    payload = path.read_bytes()
    expected = width * height * 4
    if len(payload) != expected:
        raise RasterFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    gt, crs, nodata = _header_geo(entries, path)
    return RasterGrid(data=data.copy(), geotransform=gt, crs_tag=crs, nodata=nodata)


def _tokenize_pgm(buf: bytes):
    """Yield whitespace-separated PGM header tokens, skipping # comments."""
    i = 0
    while True:
        while i < len(buf) and buf[i:i + 1].isspace():
            i += 1
        if i < len(buf) and buf[i:i + 1] == b"#":
            while i < len(buf) and buf[i:i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(buf) and not buf[i:i + 1].isspace():
            i += 1
        if start == i:
            raise RasterFormatError("truncated pgm header")
        yield buf[start:i], i


def _load_pgm(path: Path) -> RasterGrid:
    buf = path.read_bytes()
    tokens = _tokenize_pgm(buf)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise RasterFormatError(f"{path}: not a binary pgm (magic {magic!r})")
        w_tok, _ = next(tokens)
        h_tok, _ = next(tokens)
        maxval_tok, end = next(tokens)
    except StopIteration:
        raise RasterFormatError(f"{path}: truncated pgm header") from None
    width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    if maxval != 65535:
        raise RasterFormatError(f"{path}: unsupported sample type (maxval {maxval})")
    payload = buf[end + 1:]
    expected = width * height * 2
    if len(payload) != expected:
        raise RasterFormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    entries = _read_header(path.with_suffix(".hdr"))
    if "width" in entries and int(entries["width"]) != width:
        raise RasterFormatError(f"{path}: sidecar width disagrees with pgm header")
    if "height" in entries and int(entries["height"]) != height:
        raise RasterFormatError(f"{path}: sidecar height disagrees with pgm header")
    gt, crs, nodata = _header_geo(entries, path)
    return RasterGrid(data=data.astype(np.float32), geotransform=gt,
                      crs_tag=crs, nodata=nodata)


def load_raster(path) -> RasterGrid:
    """Load a grid from a Format A (``.bin``) or Format B (``.pgm``) file."""
    path = Path(path)
    if not path.exists():
        raise RasterFormatError(f"no such raster file: {path}")
    suffix = path.suffix.lower()
    if suffix == ".bin":
        return _load_bin(path)
    if suffix == ".pgm":
        return _load_pgm(path)
    raise RasterFormatError(f"unsupported raster extension {suffix!r} "
                            "(expected .bin or .pgm)")


# ---------------------------------------------------------------------------
# Sampling, cropping, warping


def sample_bilinear(grid: RasterGrid, col, row):
    """Bilinear interpolation at fractional pixel coordinates.

    Accepts scalars or arrays. Positions whose 2x2 neighborhood leaves the
    grid, or touches a nodata sample, evaluate to the grid's nodata sentinel
    (NaN when the grid declares none).
    """
    cols = np.asarray(col, dtype=np.float64)
    rows = np.asarray(row, dtype=np.float64)
    scalar = cols.ndim == 0 and rows.ndim == 0
    cols, rows = np.broadcast_arrays(cols, rows)
    fill = float(grid.nodata) if grid.nodata is not None else np.nan
    out = np.full(cols.shape, fill, dtype=np.float64)

    h, w = grid.data.shape
    inb = ((cols >= 0) & (cols <= w - 1) & (rows >= 0) & (rows <= h - 1)
           & np.isfinite(cols) & np.isfinite(rows))
    if np.any(inb):
        c = cols[inb]
        r = rows[inb]
        c0 = np.minimum(np.floor(c).astype(np.intp), max(w - 2, 0))
        r0 = np.minimum(np.floor(r).astype(np.intp), max(h - 2, 0))
        c1 = np.minimum(c0 + 1, w - 1)
        r1 = np.minimum(r0 + 1, h - 1)
        fc = c - c0
        fr = r - r0
        data = grid.data
        v00 = data[r0, c0].astype(np.float64)
        v01 = data[r0, c1].astype(np.float64)
        v10 = data[r1, c0].astype(np.float64)
        v11 = data[r1, c1].astype(np.float64)
        vals = ((1 - fr) * ((1 - fc) * v00 + fc * v01)
                + fr * ((1 - fc) * v10 + fc * v11))
        if grid.nodata is not None:
            bad = (grid.is_nodata(v00) | grid.is_nodata(v01)
                   | grid.is_nodata(v10) | grid.is_nodata(v11))
            vals[bad] = fill
        out[inb] = vals
    if scalar:
        return float(out)
    return out


def crop_to_overlap(sensed: RasterGrid, reference: RasterGrid,
                    margin: int = 0) -> RasterGrid:
    """Restrict ``sensed`` to the reference's geographic bounding box plus a
    margin (in sensed pixels), clamped to the sensed extent.

    Pure slicing: retained samples are bitwise-identical to the originals and
    the geotransform is shifted so map positions are preserved.
    """
    if sensed.crs_tag != reference.crs_tag:
        raise CrsMismatchError(
            f"crs mismatch: sensed={sensed.crs_tag!r} reference={reference.crs_tag!r}")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")

    rw, rh = reference.width, reference.height
    corners_c = np.array([0.0, rw - 1.0, 0.0, rw - 1.0])
    corners_r = np.array([0.0, 0.0, rh - 1.0, rh - 1.0])
    gx, gy = reference.geotransform.pixel_to_geo(corners_c, corners_r)
    sc, sr = sensed.geotransform.geo_to_pixel(gx, gy)

    col0 = int(np.floor(sc.min())) - margin
    col1 = int(np.ceil(sc.max())) + margin
    row0 = int(np.floor(sr.min())) - margin
    row1 = int(np.ceil(sr.max())) + margin
    col0 = max(col0, 0)
    row0 = max(row0, 0)
    col1 = min(col1, sensed.width - 1)
    row1 = min(row1, sensed.height - 1)
    if col0 > col1 or row0 > row1:
        raise EmptyOverlapError("sensed and reference extents do not overlap")

    data = sensed.data[row0:row1 + 1, col0:col1 + 1].copy()
    ox, oy = sensed.geotransform.pixel_to_geo(float(col0), float(row0))
    gt = replace(sensed.geotransform, origin_x=ox, origin_y=oy)
    return RasterGrid(data=data, geotransform=gt, crs_tag=sensed.crs_tag,
                      nodata=sensed.nodata)


def warp(sensed: RasterGrid, model, target_gt: GeoTransform,
         width: int, height: int,
         dem: RasterGrid | None = None) -> tuple[RasterGrid, int]:
    """Resample ``sensed`` onto a target grid through a fitted model.

    The model maps reference map coordinates to sensed map coordinates; each
    output pixel is evaluated at its own map position (with a DEM height for
    rational function models) and the sensed grid is sampled bilinearly.
    Pixels that fall outside the sensed extent, hit nodata, or fail model
    evaluation become nodata in the output.

    Returns (grid, eval_failures): the count of pixels whose inputs (map
    position and, for rfm, a DEM height) are finite but whose model output
    is not, i.e. failures of the model itself (rational denominator
    collapse) rather than DEM gaps or positions outside the sensed image.
    """
    needs_dem = model.spec.family == "rfm"
    if needs_dem and dem is None:
        raise ValueError("rfm warp requires a DEM")

    fill = float(sensed.nodata) if sensed.nodata is not None else np.nan
    out = np.full((height, width), fill, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    chunk_rows = max(1, _WARP_CHUNK_PIXELS // width)
    eval_failures = 0
    for r0 in range(0, height, chunk_rows):
        r1 = min(r0 + chunk_rows, height)
        rr, cc = np.meshgrid(np.arange(r0, r1, dtype=np.float64), cols,
                             indexing="ij")
        gx, gy = target_gt.pixel_to_geo(cc, rr)
        inputs = [gx, gy]
        if needs_dem:
            dc, dr = dem.geotransform.geo_to_pixel(gx, gy)
            gz = sample_bilinear(dem, dc, dr)
            if dem.nodata is not None and not math.isnan(dem.nodata):
                gz[gz == dem.nodata] = np.nan
            inputs.append(gz)
        px, py = model.apply(*inputs)
        ok = np.isfinite(px) & np.isfinite(py)
        if not model.has_unit_denominators:
            finite_in = np.logical_and.reduce([np.isfinite(a) for a in inputs])
            eval_failures += int(np.count_nonzero(finite_in & ~ok))
        sc, sr = sensed.geotransform.geo_to_pixel(px, py)
        sc = np.where(ok, sc, np.nan)
        sr = np.where(ok, sr, np.nan)
        out[r0:r1, :] = sample_bilinear(sensed, sc, sr)

    nodata = sensed.nodata if sensed.nodata is not None else float("nan")
    grid = RasterGrid(data=out.astype(np.float32), geotransform=target_gt,
                      crs_tag=sensed.crs_tag, nodata=nodata)
    return grid, eval_failures
