"""Correspondence detection by frequency-domain matching of descriptor
volumes.

For each reference interest point, the initial georeferencing predicts a
search window in the sensed image. Descriptor volumes are built for the
template and search windows and correlated in one pass: the template volume
is zero-padded into the search frame, both are 3D-FFT'd, and the normalized
cross-power spectrum's inverse transform concentrates into a sharp peak at
the true offset. Matching content shifts only spatially, so the peak is
searched in the channel-0 slice of the correlation volume alone; no match is
rejected for where its energy falls along the channel axis. A point is
skipped as ``unreliable-peak`` only when a descriptor volume, or the
cross-power spectrum, is all zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .cfog import CfogParams, DescriptorVolume, build_cfog
from .keypoints import InterestPoint
from .raster import CrsMismatchError, RasterGrid, Window, read_window

# spectral bins weaker than this fraction of the strongest are zeroed
# instead of phase-normalized
SPECTRUM_GUARD = 1e-12


@dataclass(frozen=True)
class MatchParams:
    """Template matching configuration. Sizes are in pixels and must both be
    even (window centers sit at size/2)."""

    template_size: int = 100
    search_size: int = 200
    cfog: CfogParams = field(default_factory=CfogParams)
    normalize: bool = True
    subpixel: bool = False
    descriptor: str = "cfog"

    def __post_init__(self):
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
    from georeferencing alone (rounded to the nearest integer pixel)."""
    if ref.crs_tag != sensed.crs_tag:
        raise CrsMismatchError(
            f"crs mismatch: ref={ref.crs_tag!r} sensed={sensed.crs_tag!r}")
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


def phase_correlate_3d(t_vol: DescriptorVolume, s_vol: DescriptorVolume,
                       subpixel: bool = False):
    """Translation between two descriptor volumes via the normalized
    cross-power spectrum.

    The template volume is zero-padded into the search volume's spatial
    frame (top-left corner), so a template matching content displaced by d
    from the search origin peaks at index d. Both volumes share the channel
    convention, so the displacement has no channel component; the peak is
    read from the channel-0 slice of the correlation volume, which pins that
    model instead of letting channel-axis noise wobble the argmax. Returns
    (x0, y0, peak) with x0/y0 unwrapped to signed offsets (indices beyond
    half the frame wrap negative), or None when an input volume is all zero.
    """
    t = t_vol.values
    s = s_vol.values
    if t.shape[2] != s.shape[2]:
        raise ValueError(f"channel counts differ: {t.shape[2]} vs {s.shape[2]}")
    if t.shape[0] > s.shape[0] or t.shape[1] > s.shape[1]:
        raise ValueError(f"template {t.shape} exceeds search frame {s.shape}")
    if not t.any() or not s.any():
        return None

    if t.shape != s.shape:
        padded = np.zeros_like(s)
        padded[:t.shape[0], :t.shape[1], :] = t
        t = padded

    S = _fft.rfftn(s)
    T = _fft.rfftn(t)
    cross = S * np.conj(T)
    mag = np.abs(cross)
    guard = SPECTRUM_GUARD * mag.max()
    if guard == 0.0:
        return None
    ratio = np.zeros_like(cross)
    np.divide(cross, mag, out=ratio, where=mag >= guard)
    corr = _fft.irfftn(ratio, s=s.shape)[:, :, 0]

    ri, ci = np.unravel_index(int(np.argmax(corr)), corr.shape)
    peak = float(corr[ri, ci])

    h, w = corr.shape
    x0 = float(ci) if ci <= w / 2 else float(ci) - w
    y0 = float(ri) if ri <= h / 2 else float(ri) - h
    if subpixel:
        x0 += _parabola_offset(corr[ri, (ci - 1) % w], corr[ri, ci],
                               corr[ri, (ci + 1) % w])
        y0 += _parabola_offset(corr[(ri - 1) % h, ci], corr[ri, ci],
                               corr[(ri + 1) % h, ci])
    return x0, y0, peak


def _window_volume(data: np.ndarray, params: MatchParams) -> DescriptorVolume:
    if params.descriptor == "raw":
        return DescriptorVolume(values=np.asarray(data, np.float64)[:, :, None])
    return build_cfog(data, params.cfog, normalize=params.normalize)


def _match_point(ref_point: InterestPoint, ref_grid: RasterGrid,
                 sensed_grid: RasterGrid, params: MatchParams):
    """Core matcher: returns (Correspondence | None, skip reason | None)."""
    T = params.template_size
    S = params.search_size

    t_win = Window(ref_point.col - T // 2, ref_point.row - T // 2, T, T)
    if not t_win.fits_in(ref_grid):
        return None, "template-window"

    pc, pr = predict_search_center(ref_point, ref_grid, sensed_grid)
    s_win = Window(pc - S // 2, pr - S // 2, S, S)
    if not s_win.fits_in(sensed_grid):
        return None, "search-window"

    t_data = read_window(ref_grid, t_win)
    s_data = read_window(sensed_grid, s_win)
    if np.ptp(t_data) == 0 or np.ptp(s_data) == 0:
        return None, "flat"

    result = phase_correlate_3d(_window_volume(t_data, params),
                                _window_volume(s_data, params),
                                subpixel=params.subpixel)
    if result is None:
        return None, "unreliable-peak"
    x0, y0, peak = result

    span = S - T
    if not (0 <= round(x0) <= span and 0 <= round(y0) <= span):
        return None, "offset-bound"

    # subpixel refinement may nudge past the window edge; keep the
    # correspondence inside the searchable range
    off_x = float(np.clip(x0 - span / 2.0, -span / 2.0, span / 2.0))
    off_y = float(np.clip(y0 - span / 2.0, -span / 2.0, span / 2.0))
    sensed_col = pc + off_x
    sensed_row = pr + off_y
    rx, ry = ref_grid.geotransform.pixel_to_geo(float(ref_point.col),
                                                float(ref_point.row))
    sx, sy = sensed_grid.geotransform.pixel_to_geo(sensed_col, sensed_row)
    corr = Correspondence(ref_col=float(ref_point.col),
                          ref_row=float(ref_point.row),
                          sensed_col=float(sensed_col),
                          sensed_row=float(sensed_row),
                          ref_x=rx, ref_y=ry, sensed_x=sx, sensed_y=sy,
                          peak=peak)
    return corr, None


def match_point(ref_point: InterestPoint, ref_grid: RasterGrid,
                sensed_grid: RasterGrid,
                params: MatchParams) -> Correspondence | None:
    """Match one reference interest point into the sensed image; None when
    the point is skipped (window does not fit, flat content, or unreliable
    correlation peak)."""
    corr, _ = _match_point(ref_point, ref_grid, sensed_grid, params)
    return corr


def match_all(points: list, ref_grid: RasterGrid, sensed_grid: RasterGrid,
              params: MatchParams) -> tuple[list, MatchStats]:
    """Match every interest point, preserving input order; skipped points are
    omitted from the list and tallied by reason in the stats."""
    stats = MatchStats()
    corrs = []
    for pt in points:
        stats.attempted += 1
        corr, reason = _match_point(pt, ref_grid, sensed_grid, params)
        if corr is None:
            stats.skip(reason)
        else:
            stats.matched += 1
            corrs.append(corr)
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("correspondence CSV must start with the header "
                         f"{CSV_HEADER!r}")
    corrs = []
    for lineno, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        if len(parts) < 9:
            raise ValueError(f"line {lineno}: expected 9 columns, got {len(parts)}")
        vals = [float(p) for p in parts[:9]]
        corrs.append(Correspondence(*vals))
    return corrs
