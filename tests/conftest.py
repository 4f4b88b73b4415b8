import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from coreg.geomodels import _basis
from coreg.raster import GeoTransform, RasterGrid


def texture(h, w=None, seed=0):
    """Broadband test image in [0, 1] with real step edges."""
    rng = np.random.default_rng(seed)
    img = gaussian_filter(rng.random((h, w or h)), 1.5)
    img = np.tanh(8.0 * (img - img.mean()) / (img.std() + 1e-12))
    lo, hi = img.min(), img.max()
    return ((img - lo) / (hi - lo)).astype(np.float32)


def poly_basis_3d(X, Y, Z, order):
    """Monomials X^i Y^j Z^k with i+j+k <= order, in the models' graded
    order (total degree, then descending powers of X, then of Y)."""
    return _basis((X, Y, Z), order)


def as_grid(data, gt=None, crs_tag="", nodata=None):
    return RasterGrid(np.asarray(data, dtype=np.float32),
                      gt or GeoTransform(0.0, 0.0, 1.0, 1.0),
                      crs_tag=crs_tag, nodata=nodata)


@pytest.fixture(scope="session")
def textured_512():
    return texture(512, seed=7)


_ACCEPTANCE = []


def record_criterion(name: str, ok: bool, detail: str):
    _ACCEPTANCE.append((name, ok, detail))
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, ok, detail in _ACCEPTANCE:
        terminalreporter.write_line(
            f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
