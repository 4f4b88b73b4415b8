"""Correspondence detection by frequency-domain matching of descriptor
volumes.

For each reference interest point, the initial georeferencing predicts a
search window in the sensed image. Points whose windows do not fit, touch a
non-finite sample (NaN is nodata), or hold flat content are skipped first. The
rest are sorted by search-window row. The sensed image is described through
one rolling (m, h, w) float32 strip, ``search_size + _STRIP_TILE`` rows
tall over the search windows' column extent: when a window runs past the
strip, the rows still needed move to its top and ``build_cfog`` writes the
next rows straight into its planes in tiles of ``_STRIP_TILE``, so every
sensed row is described once and every search volume is a view into the
strip. Each refill is described only over the column extent of the
windows that read its rows, not over every window's. Each template is
described on its own. Every block is described from a crop grown by the
descriptor's reach, with non-finite samples set to 0, so a window's
descriptor equals the whole-image descriptor restricted to that window
whatever the tiling. ``build_cfog`` describes each block in one pass, so the
strip is the one tiling that bounds the descriptor's memory.

Each pair is correlated in one pass: the template volume is zero-padded
into the search frame, both (m, h, w) volumes are 3D-FFT'd, and the
normalized cross-power spectrum's inverse transform concentrates into a
sharp peak at the true offset. Matching content shifts only spatially, so
the peak is searched in the channel-0 slice of the correlation volume
alone, which is a 2D inverse of the spectrum summed over the channel axis;
no match is rejected for where its energy falls along the channel axis. A
point is skipped as ``unreliable-peak`` when a descriptor volume is all zero
or the cross-power spectrum is all zero or not finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy

from .cfog import M, REACH, DescriptorVolume, build_cfog
from .keypoints import InterestPoint
from .raster import CrsMismatchError, RasterGrid, Window, finite_float

# spectral bins weaker than this fraction of the strongest are zeroed
# instead of phase-normalized
SPECTRUM_GUARD = 1e-12
# sensed rows described per tile of the rolling strip, which holds one
# search window plus one tile
_STRIP_TILE = 64


@dataclass(frozen=True)
class MatchParams:
    """Template matching configuration. Sizes are in pixels and must both be
    even (window centers sit at size/2)."""

    template_size: int = 100
    search_size: int = 200
    subpixel: bool = False
    descriptor: str = "cfog"

    def __post_init__(self):
        if self.template_size <= 0:
            raise ValueError(
                f"template_size must be > 0, got {self.template_size}")
        if self.search_size <= self.template_size:
            raise ValueError(
                f"search_size ({self.search_size}) must exceed template_size "
                f"({self.template_size})")
        if self.template_size % 2 or self.search_size % 2:
            raise ValueError("template_size and search_size must be even")
        if self.descriptor not in ("cfog", "raw"):
            raise ValueError(f"unknown descriptor mode {self.descriptor!r}")


@dataclass(frozen=True)
class Correspondence:
    """A matched point pair in pixel and map coordinates."""

    ref_col: float
    ref_row: float
    sensed_col: float
    sensed_row: float
    ref_x: float
    ref_y: float
    sensed_x: float
    sensed_y: float
    peak: float


@dataclass
class MatchStats:
    """Side report of a matching run: what was skipped and why."""

    attempted: int = 0
    matched: int = 0
    skipped: dict = field(default_factory=dict)

    def skip(self, reason: str):
        self.skipped[reason] = self.skipped.get(reason, 0) + 1


def predict_search_center(ref_point: InterestPoint, ref: RasterGrid,
                          sensed: RasterGrid) -> tuple[int, int]:
    """Sensed-image pixel predicted to correspond to the reference point,
    from georeferencing alone (rounded to the nearest integer pixel); the
    two grids share a CRS tag."""
    gx, gy = ref.geotransform.pixel_to_geo(float(ref_point.col),
                                           float(ref_point.row))
    col, row = sensed.geotransform.geo_to_pixel(gx, gy)
    return int(round(col)), int(round(row))


def _parabola_offset(c_minus: float, c_0: float, c_plus: float) -> float:
    denom = c_minus - 2.0 * c_0 + c_plus
    if denom >= 0.0:
        return 0.0
    off = 0.5 * (c_minus - c_plus) / denom
    return float(np.clip(off, -0.5, 0.5))


def _padded_spectrum(t: np.ndarray, h: int, w: int) -> np.ndarray:
    """``rfftn(t, s=(m, h, w), axes=(0, 1, 2))`` of (m, rows, cols) planes
    zero-padded to h x w, without transforming the padding rows: the planes
    are transformed along columns, then channels, and only then padded to h
    along rows, in rfftn's own axis order, so the spectrum is bitwise the
    same."""
    fft = scipy.fft
    return fft.fft(fft.fft(fft.rfft(t, n=w, axis=2), axis=0, overwrite_x=True),
                   n=h, axis=1)


def _summed_cross_power(t: np.ndarray, s: np.ndarray):
    """The normalized cross-power spectrum of (m, rows, cols) template
    planes zero-padded into the (m, h, w) search planes, summed over the
    channels: an (h, w // 2 + 1) array, or None when it is all zero or not
    finite. Each bin is normalized by one multiply with 1/|c|; bins weaker
    than ``SPECTRUM_GUARD`` times the strongest are zeroed instead.
    """
    _, h, w = s.shape
    S = scipy.fft.rfftn(s, axes=(0, 1, 2))
    T = _padded_spectrum(t, h, w)
    # formed in S's buffer; complex products use fused multiply-adds, so
    # operand order fixes the last bits
    cross = np.multiply(np.conjugate(T, out=T), S, out=S)
    mag = np.abs(cross)
    guard = SPECTRUM_GUARD * mag.max()
    if not (np.isfinite(guard) and guard > 0.0):
        return None
    weak = mag < guard
    with np.errstate(divide="ignore", invalid="ignore"):
        cross *= np.reciprocal(mag, out=mag)
    cross[weak] = 0.0
    return cross.sum(axis=0)


def phase_correlate_3d(t_vol: DescriptorVolume, s_vol: DescriptorVolume,
                       subpixel: bool = False):
    """Translation between two (m, h, w) descriptor volumes via the
    normalized cross-power spectrum.

    The template volume is zero-padded into the search volume's spatial
    frame (top-left corner), so a template matching content displaced by d
    from the search origin peaks at index d. Both volumes share the channel
    convention, so the displacement has no channel component; the peak is
    read from the channel-0 slice of the correlation volume, which pins that
    model instead of letting channel-axis noise wobble the argmax. That
    slice is the 2D inverse of the spectrum summed over the channel axis
    (divided by m), so the columns carry the halved real-FFT axis and the
    channel axis is collapsed before the inverse. Returns (x0, y0, peak)
    with x0/y0 unwrapped to signed offsets (indices beyond half the frame
    wrap negative), or None when an input volume is all zero or the
    cross-power spectrum is all zero or not finite.
    """
    t = t_vol.values
    s = s_vol.values
    if t.shape[0] != s.shape[0]:
        raise ValueError(f"channel counts differ: {t.shape[0]} vs {s.shape[0]}")
    if t.shape[1] > s.shape[1] or t.shape[2] > s.shape[2]:
        raise ValueError(f"template {t.shape} exceeds search frame {s.shape}")

    m, h, w = s.shape
    total = _summed_cross_power(t, s)
    if total is None:
        return None
    corr = scipy.fft.irfftn(total, s=(h, w)) / m

    ri, ci = np.unravel_index(int(np.argmax(corr)), corr.shape)
    peak = float(corr[ri, ci])

    x0 = float(ci) if ci <= w / 2 else float(ci) - w
    y0 = float(ri) if ri <= h / 2 else float(ri) - h
    if subpixel:
        x0 += _parabola_offset(float(corr[ri, (ci - 1) % w]), peak,
                               float(corr[ri, (ci + 1) % w]))
        y0 += _parabola_offset(float(corr[(ri - 1) % h, ci]), peak,
                               float(corr[(ri + 1) % h, ci]))
    return x0, y0, peak


def _screen(ref_point: InterestPoint, ref_grid: RasterGrid,
            sensed_grid: RasterGrid, params: MatchParams):
    """The point's (template window, search window), or the reason it is
    skipped before any descriptor is built."""
    T = params.template_size
    S = params.search_size

    t_win = Window(ref_point.col - T // 2, ref_point.row - T // 2, T, T)
    if not t_win.fits_in(ref_grid):
        return "template-window"

    pc, pr = predict_search_center(ref_point, ref_grid, sensed_grid)
    s_win = Window(pc - S // 2, pr - S // 2, S, S)
    if not s_win.fits_in(sensed_grid):
        return "search-window"

    t_data = ref_grid.data[t_win.row0:t_win.row0 + T, t_win.col0:t_win.col0 + T]
    s_data = sensed_grid.data[s_win.row0:s_win.row0 + S,
                              s_win.col0:s_win.col0 + S]
    if not (np.isfinite(t_data).all() and np.isfinite(s_data).all()):
        return "nodata"
    if np.ptp(t_data) == 0 or np.ptp(s_data) == 0:
        return "flat"
    return t_win, s_win


def _describe(grid: RasterGrid, win: Window, params: MatchParams,
              out: np.ndarray | None = None) -> DescriptorVolume:
    """Descriptor volume of one window, written into ``out``'s (m, h, w)
    planes when given: built from the window grown by the descriptor's
    reach and clipped to the grid, with non-finite samples set to 0, so it
    equals the whole-image descriptor of the zero-filled grid there."""
    r0, c0 = max(win.row0 - REACH, 0), max(win.col0 - REACH, 0)
    data = grid.data[r0:min(win.row0 + win.h + REACH, grid.height),
                     c0:min(win.col0 + win.w + REACH, grid.width)].copy()
    data[~np.isfinite(data)] = 0.0
    region = (slice(win.row0 - r0, win.row0 - r0 + win.h),
              slice(win.col0 - c0, win.col0 - c0 + win.w))
    if params.descriptor == "cfog":
        return build_cfog(data, region=region, out=out)
    if out is None:
        return DescriptorVolume(values=data[region][None])
    out[0] = data[region]
    return DescriptorVolume(values=out)


def _strip_volumes(grid: RasterGrid, wins: list, params: MatchParams):
    """Yield the descriptor volume of each search window in ``wins`` (sorted
    by top row), as an (m, h, w) view into one rolling strip of
    ``search_size + _STRIP_TILE`` sensed rows (fewer if the windows span
    fewer) over the windows' column extent; a view is valid until the next
    one is drawn.

    When a window runs past the strip, the rows it still needs move to the
    top and the rest of the strip is described, straight into its planes, in
    tiles of at most ``_STRIP_TILE`` rows, so every sensed row is described
    once. A refill is described over the column extent of the windows that
    read its rows only; no window reads the strip's other columns there."""
    c0 = min(win.col0 for win in wins)
    c1 = max(win.col0 + win.w for win in wins)
    end = max(win.row0 + win.h for win in wins)
    m = 1 if params.descriptor == "raw" else M
    rows = min(params.search_size + _STRIP_TILE, end - wins[0].row0)
    strip = np.empty((m, rows, c1 - c0), dtype=np.float32)
    top = bottom = 0  # strip[:, :bottom - top] holds sensed rows top:bottom
    for win in wins:
        if win.row0 + win.h > bottom:
            keep = max(bottom - win.row0, 0)
            strip[:, :keep] = strip[:, bottom - top - keep:bottom - top]
            top, bottom = win.row0, win.row0 + keep
            stop = min(top + rows, end)
            # only the windows that read rows bottom:stop need their columns
            meet = [w for w in wins if w.row0 < stop and w.row0 + w.h > bottom]
            left = min(w.col0 for w in meet)
            right = max(w.col0 + w.w for w in meet)
            while bottom < stop:
                n = min(_STRIP_TILE, stop - bottom)
                _describe(grid, Window(left, bottom, right - left, n), params,
                          out=strip[:, bottom - top:bottom - top + n,
                                    left - c0:right - c0])
                bottom += n
        yield DescriptorVolume(values=strip[
            :, win.row0 - top:win.row0 - top + win.h,
            win.col0 - c0:win.col0 - c0 + win.w])


def _locate(ref_point: InterestPoint, s_win: Window, result,
            ref_grid: RasterGrid, sensed_grid: RasterGrid,
            params: MatchParams):
    """The correspondence a correlation result gives, or a skip reason."""
    if result is None:
        return "unreliable-peak"
    x0, y0, peak = result

    span = params.search_size - params.template_size
    if not (0 <= round(x0) <= span and 0 <= round(y0) <= span):
        return "offset-bound"

    # subpixel refinement may nudge past the window edge; keep the
    # correspondence inside the searchable range
    off_x = float(np.clip(x0 - span / 2.0, -span / 2.0, span / 2.0))
    off_y = float(np.clip(y0 - span / 2.0, -span / 2.0, span / 2.0))
    # the search window is centred on the predicted pixel
    sensed_col = s_win.col0 + params.search_size // 2 + off_x
    sensed_row = s_win.row0 + params.search_size // 2 + off_y
    rx, ry = ref_grid.geotransform.pixel_to_geo(float(ref_point.col),
                                                float(ref_point.row))
    sx, sy = sensed_grid.geotransform.pixel_to_geo(sensed_col, sensed_row)
    return Correspondence(ref_col=float(ref_point.col),
                          ref_row=float(ref_point.row),
                          sensed_col=float(sensed_col),
                          sensed_row=float(sensed_row),
                          ref_x=rx, ref_y=ry, sensed_x=sx, sensed_y=sy,
                          peak=peak)


def match_all(points: list, ref_grid: RasterGrid, sensed_grid: RasterGrid,
              params: MatchParams) -> tuple[list, MatchStats]:
    """Match every interest point, preserving input order; skipped points are
    omitted from the list and tallied by reason in the stats. Sensed pixel
    coordinates index ``sensed_grid``; grids whose CRS tags differ raise
    CrsMismatchError before any point is screened."""
    if ref_grid.crs_tag != sensed_grid.crs_tag:
        raise CrsMismatchError(f"crs mismatch: ref={ref_grid.crs_tag!r} "
                               f"sensed={sensed_grid.crs_tag!r}")
    outcomes = [_screen(pt, ref_grid, sensed_grid, params) for pt in points]
    order = sorted((k for k, wins in enumerate(outcomes)
                    if not isinstance(wins, str)),
                   key=lambda k: outcomes[k][1].row0)
    if order:
        s_vols = _strip_volumes(sensed_grid, [outcomes[k][1] for k in order],
                                params)
        for k, s_vol in zip(order, s_vols):
            t_win, s_win = outcomes[k]
            result = phase_correlate_3d(_describe(ref_grid, t_win, params),
                                        s_vol, subpixel=params.subpixel)
            outcomes[k] = _locate(points[k], s_win, result, ref_grid,
                                  sensed_grid, params)

    stats = MatchStats(attempted=len(points))
    corrs = []
    for outcome in outcomes:
        if isinstance(outcome, str):
            stats.skip(outcome)
        else:
            stats.matched += 1
            corrs.append(outcome)
    return corrs, stats


# ---------------------------------------------------------------------------
# CSV round trip

CSV_HEADER = ("ref_col,ref_row,sensed_col,sensed_row,"
              "ref_x,ref_y,sensed_x,sensed_y,peak")


def correspondences_to_csv(corrs: list) -> str:
    lines = [CSV_HEADER]
    for c in corrs:
        lines.append(",".join(repr(float(v)) for v in (
            c.ref_col, c.ref_row, c.sensed_col, c.sensed_row,
            c.ref_x, c.ref_y, c.sensed_x, c.sensed_y, c.peak)))
    return "\n".join(lines) + "\n"


def correspondences_from_csv(text: str) -> list:
    lines = [(lineno, line) for lineno, line
             in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError("correspondence CSV must start with the header "
                         f"{CSV_HEADER!r}")
    corrs = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"line {lineno}: expected 9 columns, got {len(parts)}")
        vals = []
        for column, part in zip(CSV_HEADER.split(","), parts):
            try:
                vals.append(finite_float(part))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad {column} value: "
                                 f"{exc}") from None
        corrs.append(Correspondence(*vals))
    return corrs
