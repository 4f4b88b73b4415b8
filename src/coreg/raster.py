"""Raster data model: grids with affine georeferencing, file I/O, windows,
bilinear sampling, and model-driven warping.

Two self-contained file formats are supported:

* Format A (``.bin`` + ``.hdr``): little-endian float32 row-major payload with
  an ASCII sidecar header carrying size, geotransform, CRS tag and optional
  nodata sentinel (in memory, nodata is NaN; see RasterGrid).
* Format B (``.pgm`` + ``.hdr``): binary 16-bit PGM (``P5``, maxval 65535,
  big-endian samples) with the same sidecar for georeferencing.

Both round-trip bit-exactly, and either's header can be read and checked
without its samples (``read_raster_header``). Grids store samples as float32; pixel indices
follow the point convention (integer ``(col, row)`` is the sample location,
and the geotransform origin is the map position of sample ``(0, 0)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


_SAVE_CHUNK_PIXELS = 65536  # samples per chunk of a saved payload
# output pixels per warp chunk: the chunk's float64 coordinates, model
# outputs and sampler buffers (2.6 MB at their peak for a poly3 model, 3.7 MB
# for rfm3) stay in cache, and the allocator reuses their memory rather than
# returning it to the operating system and page-faulting it back in for every
# chunk, as it does for megabyte-sized chunks
_WARP_CHUNK_PIXELS = 16384
# sample positions this far (in pixels) outside the grid are clipped onto its
# edge: a model that maps a pixel exactly onto the edge may land one rounding
# error outside it
_EDGE_TOL = 1e-9


class RasterError(Exception):
    """Base class for raster handling failures."""


class RasterFormatError(RasterError):
    """Malformed or unsupported raster file."""


class CrsMismatchError(RasterError):
    """Two grids do not share a coordinate reference system tag."""


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
            raise ValueError(f"needs 6 comma-separated terms, got {value!r}")
        ox, pw, rr, oy, cr, ph = map(finite_float, parts)
        return cls(origin_x=ox, origin_y=oy, pixel_w=pw, pixel_h=ph,
                   row_rot=rr, col_rot=cr)


IDENTITY_GT = GeoTransform(0.0, 0.0, 1.0, 1.0)


@dataclass
class RasterGrid:
    """Single-band image with a geotransform and CRS tag.

    ``data`` is a (height, width) float32 array, coerced on construction and
    immutable afterwards. NaN marks nodata: samples equal to ``nodata``, the
    sentinel of the grid's file, become NaN here (in a copy).
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
        if self.nodata is not None and not math.isnan(self.nodata):
            holes = arr == np.float32(self.nodata)
            if holes.any():
                arr = np.where(holes, np.float32(np.nan), arr)
        self.data = arr

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


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


def finite_float(value: str) -> float:
    """``float(value)``, rejecting NaN and infinities with ValueError."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def parse_records(text: str, parsers: dict, sep: str = "=") -> dict:
    """The ``key<sep>value`` lines of a text file as a dict of values, each
    parsed by ``parsers[key]``: the table holds every key the file may have
    and raises ValueError from a parser that rejects its stripped string.
    Blank lines and ``#`` comments are skipped; a later line overrides an
    earlier one. Raises ValueError naming a line with no separator, a key
    not in the table (``unknown key 'k'``) or the key of a value that does
    not parse (``bad k= value: <the parser's reason>``). Headers, recipes
    and configuration files use ``=``, model files a space."""
    records = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, found, value = line.partition(sep)
        if not found:
            raise ValueError(f"line {lineno}: expected key{sep}value, got {line!r}")
        key = key.strip()
        if key not in parsers:
            raise ValueError(f"unknown key {key!r}")
        try:
            records[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"bad {key}= value: {exc}") from None
    return records


# a misspelt key (say no_data=) fails rather than being dropped silently
_HEADER_PARSERS = {"width": int, "height": int, "dtype": str, "crs": str,
                   "gt": GeoTransform.from_header_value, "nodata": float}


def _read_header(path: Path) -> dict:
    if not path.exists():
        raise RasterFormatError(f"missing sidecar header {path}")
    try:
        return parse_records(path.read_text(encoding="ascii"), _HEADER_PARSERS)
    except ValueError as exc:
        raise RasterFormatError(f"{path}: {exc}") from None


def _saved_rows(grid: RasterGrid):
    """Yield the grid's samples in chunks of whole rows of about
    _SAVE_CHUNK_PIXELS, with NaN written as a numeric ``nodata`` sentinel."""
    step = max(1, _SAVE_CHUNK_PIXELS // grid.width)
    for r0 in range(0, grid.height, step):
        rows = grid.data[r0:r0 + step]
        if grid.nodata is not None and not math.isnan(grid.nodata):
            rows = np.where(np.isnan(rows), np.float32(grid.nodata), rows)
        yield rows


def _check_pgm_samples(grid: RasterGrid, path: Path) -> None:
    lo, hi = np.inf, -np.inf
    for rows in _saved_rows(grid):
        if np.isnan(rows).any():
            raise RasterFormatError(f"{path}: pgm output cannot hold NaN "
                                    "samples: give the grid a numeric "
                                    "nodata sentinel")
        rounded = np.rint(rows)
        with np.errstate(invalid="ignore"):
            if not np.all(np.abs(rows - rounded) <= 1e-6):
                raise RasterFormatError(f"{path}: pgm output requires "
                                        "integral samples; use .bin for "
                                        "float data")
        lo, hi = min(lo, rounded.min()), max(hi, rounded.max())
    if lo < 0 or hi > 65535:
        raise RasterFormatError(
            f"{path}: pgm samples must lie in [0, 65535], got [{lo}, {hi}]")


def save_raster(grid: RasterGrid, path) -> None:
    """Write a grid to ``path`` (Format A for ``.bin``, Format B for ``.pgm``).

    The sidecar header ``<stem>.hdr`` is written next to the payload. NaN
    samples are written as a numeric ``nodata`` sentinel, even those that
    were NaN in the file. A saved file reloads to a bitwise-equal grid;
    Format B additionally requires the samples to be integers in [0, 65535],
    checked before the payload is written; both write it in row chunks.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".bin":
        with open(path, "wb") as f:
            for rows in _saved_rows(grid):
                rows.astype("<f4", copy=False).tofile(f)
        _write_header(path.with_suffix(".hdr"), grid, "float32")
    elif suffix == ".pgm":
        _check_pgm_samples(grid, path)
        with open(path, "wb") as f:
            f.write(f"P5\n{grid.width} {grid.height}\n65535\n".encode("ascii"))
            for rows in _saved_rows(grid):
                np.rint(rows).astype(">u2").tofile(f)
        _write_header(path.with_suffix(".hdr"), grid, "uint16")
    else:
        raise RasterFormatError(f"{path}: unsupported raster extension "
                                f"{suffix!r} (expected .bin or .pgm)")


@dataclass(frozen=True)
class RasterHeader:
    """What a raster file says of its grid, read without its samples: the
    size and georeferencing (as on RasterGrid), and the numpy type and byte
    offset of the samples in the payload file."""

    width: int
    height: int
    geotransform: GeoTransform
    crs_tag: str
    nodata: float | None
    sample_type: str
    offset: int


def _bin_header(path: Path):
    """A Format A file's sidecar entries, size, sample type and offset."""
    entries = _read_header(path.with_suffix(".hdr"))
    for key in ("width", "height", "dtype"):
        if key not in entries:
            raise RasterFormatError(f"{path}: header lacks {key}=")
    if entries["dtype"] != "float32":
        raise RasterFormatError(
            f"{path}: unsupported sample type {entries['dtype']!r}")
    width, height = entries["width"], entries["height"]
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: bad size {width}x{height}")
    size = path.stat().st_size
    expected = width * height * 4
    if size != expected:
        raise RasterFormatError(
            f"{path}: payload is {size} bytes, header implies {expected}")
    return entries, width, height, "<f4", 0


def _tokenize_pgm(f, path: Path):
    """Yield the whitespace-separated PGM header tokens of the binary file f,
    read from ``path``, skipping # comments, each with the offset of the
    byte after it."""
    while True:
        c = f.read(1)
        while c.isspace():
            c = f.read(1)
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
            continue
        token = b""
        while c and not c.isspace():
            token += c
            c = f.read(1)
        if not token:
            raise RasterFormatError(f"{path}: truncated pgm header")
        yield token, f.tell() - len(c)


def _pgm_header(path: Path):
    """A Format B file's sidecar entries, size, sample type and offset; the
    header is read a byte at a time."""
    with open(path, "rb") as f:
        tokens = _tokenize_pgm(f, path)
        magic, _ = next(tokens)
        if magic != b"P5":
            raise RasterFormatError(f"{path}: not a binary pgm (magic {magic!r})")
        w_tok, _ = next(tokens)
        h_tok, _ = next(tokens)
        maxval_tok, end = next(tokens)
    try:
        width, height, maxval = map(int, (w_tok, h_tok, maxval_tok))
    except ValueError as exc:
        raise RasterFormatError(f"{path}: bad pgm header: {exc}") from None
    if width < 1 or height < 1:
        raise RasterFormatError(f"{path}: bad size {width}x{height}")
    if maxval != 65535:
        raise RasterFormatError(f"{path}: unsupported sample type (maxval {maxval})")
    payload = max(path.stat().st_size - (end + 1), 0)
    expected = width * height * 2
    if payload != expected:
        raise RasterFormatError(
            f"{path}: payload is {payload} bytes, header implies {expected}")
    entries = _read_header(path.with_suffix(".hdr"))
    for key, size in (("width", width), ("height", height)):
        if entries.get(key, size) != size:
            raise RasterFormatError(
                f"{path}: sidecar {key} disagrees with pgm header")
    return entries, width, height, ">u2", end + 1


def read_raster_header(path) -> RasterHeader:
    """The header of a Format A (``.bin``) or Format B (``.pgm``) file,
    checked as ``load_raster`` checks it (the keys, the sample type, and the
    payload size against the file's size), without reading the samples."""
    path = Path(path)
    if not path.exists():
        raise RasterFormatError(f"no such raster file: {path}")
    suffix = path.suffix.lower()
    if suffix not in (".bin", ".pgm"):
        raise RasterFormatError(f"{path}: unsupported raster extension "
                                f"{suffix!r} (expected .bin or .pgm)")
    entries, width, height, sample_type, offset = (
        _bin_header if suffix == ".bin" else _pgm_header)(path)
    if "gt" not in entries:
        raise RasterFormatError(f"{path}: header lacks gt=")
    return RasterHeader(width, height, entries["gt"], entries.get("crs", ""),
                        entries.get("nodata"), sample_type, offset)


def load_raster(path) -> RasterGrid:
    """Load a grid from a Format A (``.bin``) or Format B (``.pgm``) file.

    The samples are read once, into the array the grid keeps (a Format B
    file's big-endian samples are freed once converted); the grid gets its
    sentinel after construction, so the frame is compared with it once,
    here, and masked in place."""
    header = read_raster_header(path)
    data = np.fromfile(path, dtype=header.sample_type,
                       count=header.width * header.height,
                       offset=header.offset).astype(np.float32, copy=False)
    grid = RasterGrid(data.reshape(header.height, header.width),
                      header.geotransform, crs_tag=header.crs_tag)
    nodata = grid.nodata = header.nodata
    if nodata is not None:
        np.copyto(grid.data, np.float32(np.nan),
                  where=grid.data == np.float32(nodata))
    return grid


# ---------------------------------------------------------------------------
# Sampling, warping


def sample_bilinear(grid: RasterGrid, col, row):
    """Bilinear interpolation at fractional pixel coordinates.

    Accepts scalars or arrays (broadcast against each other); returns a float
    for scalars, else a float64 array. Positions whose 2x2 neighborhood
    leaves the grid evaluate to NaN, and a NaN (nodata) neighbour makes
    the sample NaN through the arithmetic, even at zero weight. Positions
    within _EDGE_TOL of the grid are clipped onto its edge.

    Every position is gathered, none compacted: positions outside the grid
    (NaN and infinite ones too) read pixel 0, and NaN is written over them
    at the end.
    """
    cols, rows = np.broadcast_arrays(np.asarray(col, dtype=np.float64),
                                     np.asarray(row, dtype=np.float64))
    shape = cols.shape
    h, w = grid.data.shape
    # comparisons with NaN are false, so non-finite positions are outside
    outside = np.ravel(~((cols >= -_EDGE_TOL) & (cols <= w - 1 + _EDGE_TOL)
                         & (rows >= -_EDGE_TOL) & (rows <= h - 1 + _EDGE_TOL)))
    fc = np.ravel(np.clip(cols, 0, w - 1))
    fr = np.ravel(np.clip(rows, 0, h - 1))
    np.copyto(fc, 0.0, where=outside)
    np.copyto(fr, 0.0, where=outside)
    # the top-left neighbour and the fractions; whole numbers below 2**53
    # are exact in float64, so the flat index is formed there
    c0 = np.floor(fc)
    r0 = np.floor(fr)
    np.minimum(c0, max(w - 2, 0), out=c0)
    np.minimum(r0, max(h - 2, 0), out=r0)
    fc -= c0
    fr -= r0
    r0 *= w
    r0 += c0
    idx = r0.astype(np.intp)
    # a 1-pixel-wide or -tall grid has no second column or row
    dc = 1 if w > 1 else 0
    dr = w if h > 1 else 0
    flat = grid.data.ravel()
    v00 = flat.take(idx)
    idx += dc
    v01 = flat.take(idx)
    idx += dr
    v11 = flat.take(idx)
    idx -= dc
    v10 = flat.take(idx)
    del idx

    # (1-fr)*((1-fc)*v00 + fc*v01) + fr*((1-fc)*v10 + fc*v11), operand for
    # operand, in the buffers of c0 (the output), r0, fc and fr
    gc = np.subtract(1, fc, out=r0)
    top = np.add(np.multiply(gc, v00, out=c0), fc * v01, out=c0)
    bot = np.add(np.multiply(gc, v10, out=gc),
                 np.multiply(fc, v11, out=fc), out=gc)
    out = np.add(np.multiply(1 - fr, top, out=top),
                 np.multiply(fr, bot, out=fr), out=top)
    np.copyto(out, np.nan, where=outside)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def warp(sensed: RasterGrid, model, target_gt: GeoTransform,
         width: int, height: int,
         dem: RasterGrid | None = None) -> tuple[RasterGrid, int]:
    """Resample ``sensed`` onto a target grid through a fitted model.

    The model maps reference map coordinates to sensed map coordinates; each
    output pixel is evaluated at its own map position (with a DEM height for
    rational function models, read directly when the DEM shares the target
    grid and sampled bilinearly otherwise) and the sensed grid is sampled
    bilinearly.
    On a target grid without shear, map x depends only on the column and
    map y only on the row, so the model is evaluated on that lattice
    (FittedModel.apply_lattice) from one coordinate per column and per row;
    a sheared grid evaluates every pixel's map position (FittedModel.apply).
    Pixels that fall outside the sensed extent, hit nodata, or fail model
    evaluation are NaN in the output, which keeps the sensed grid's
    sentinel (NaN when it declares none). Each chunk of output rows is
    sampled straight into the float32 output; a failed model evaluation is
    marked by a NaN sensed column, which the sampler fills.

    Returns (grid, eval_failures): the count of pixels whose inputs (map
    position and, for rfm, a DEM height) are finite but whose model output
    is not, i.e. failures of the model itself (rational denominator
    collapse) rather than DEM gaps or positions outside the sensed image.
    """
    needs_dem = model.spec.dims == 3
    if needs_dem:
        if dem is None:
            raise ValueError(f"{model.spec.name} warp requires a DEM")
        # a DEM on the target grid is read, not sampled, at each pixel
        on_grid = (dem.geotransform == target_gt
                   and dem.data.shape == (height, width))

    lattice = target_gt.row_rot == 0 and target_gt.col_rot == 0
    out = np.empty((height, width), dtype=np.float32)
    cols = np.arange(width, dtype=np.float64)
    rows = np.arange(height, dtype=np.float64)[:, None]
    if lattice:  # the map x of each column and the map y of each row
        gx, _ = target_gt.pixel_to_geo(cols, 0.0)
        _, gy = target_gt.pixel_to_geo(0.0, rows)
    chunk_rows = max(1, _WARP_CHUNK_PIXELS // width)
    eval_failures = 0
    for r0 in range(0, height, chunk_rows):
        r1 = min(r0 + chunk_rows, height)
        if lattice:
            x, y = gx, gy[r0:r1]   # (width,) and (rows, 1): they broadcast
        else:
            x, y = target_gt.pixel_to_geo(cols, rows[r0:r1])
        z = None
        if needs_dem and on_grid:
            z = dem.data[r0:r1].astype(np.float64)
        elif needs_dem:
            z = sample_bilinear(dem, *dem.geotransform.geo_to_pixel(x, y))
        px, py = (model.apply_lattice(x, y[:, 0], z) if lattice
                  else model.apply(x, y, z))
        ok = np.isfinite(px) & np.isfinite(py)
        if not model.has_unit_denominators:
            finite_in = np.isfinite(x) & np.isfinite(y)
            if z is not None:
                finite_in = finite_in & np.isfinite(z)
            eval_failures += int(np.count_nonzero(finite_in & ~ok))
        sc, sr = sensed.geotransform.geo_to_pixel(px, py)
        sc[~ok] = np.nan
        out[r0:r1] = sample_bilinear(sensed, sc, sr)

    nodata = math.nan if sensed.nodata is None else sensed.nodata
    return RasterGrid(out, target_gt, sensed.crs_tag, nodata), eval_failures
