import numpy as np
import pytest

from coreg.geomodels import (
    DENOM_EPS,
    ControlPoint,
    DegenerateFitError,
    FittedModel,
    InsufficientControlPointsError,
    ModelSpec,
    Normalization,
    all_model_specs,
    attach_dem_heights,
    fit,
    min_cp_count,
    model_spec_from_name,
    poly_basis,
    poly_basis_3d,
)
from coreg.raster import GeoTransform, RasterGrid
from coreg.synthgen import identity_warp, translation_warp

from conftest import as_grid


EXPECTED_TABLE = {
    "poly1": (6, 3), "poly2": (12, 6), "poly3": (20, 10),
    "poly4": (30, 15), "poly5": (42, 21),
    "proj10": (10, 5), "proj22": (22, 11), "proj38": (38, 19),
    "rfm1_unit": (8, 4), "rfm1_shared": (11, 6), "rfm1_distinct": (14, 7),
    "rfm2_unit": (20, 10), "rfm2_shared": (29, 15), "rfm2_distinct": (38, 19),
    "rfm3_unit": (40, 20), "rfm3_shared": (59, 30), "rfm3_distinct": (78, 39),
}


def _cps_2d(n, seed, fn=None, z=False):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-100, 400, n)
    ys = rng.uniform(50, 600, n)
    zs = rng.uniform(0, 80, n) if z else [None] * n
    out = []
    for x, y, zz in zip(xs, ys, zs):
        if fn is None:
            sx = 1.2 * x - 0.1 * y + 8.0 + rng.normal(0, 0.5)
            sy = 0.05 * x + 0.9 * y - 4.0 + rng.normal(0, 0.5)
        else:
            sx, sy = fn(x, y) if not z else fn(x, y, zz)
        out.append(ControlPoint(float(x), float(y), float(sx), float(sy),
                                ref_z=None if zz is None else float(zz)))
    return out


# -- taxonomy ----------------------------------------------------------------


def test_seventeen_models_enumerated():
    specs = all_model_specs()
    assert len(specs) == 17
    assert {s.name for s in specs} == set(EXPECTED_TABLE)


@pytest.mark.parametrize("name", sorted(EXPECTED_TABLE))
def test_parameter_and_min_cp_table(name):
    spec = model_spec_from_name(name)
    params, min_cp = EXPECTED_TABLE[name]
    assert spec.param_count == params
    assert min_cp_count(spec) == min_cp


def test_unknown_model_name_rejected():
    with pytest.raises(ValueError):
        model_spec_from_name("poly9")


# -- bases -------------------------------------------------------------------


def test_poly_basis_order1_is_affine():
    b = poly_basis(np.array([4.0]), np.array([9.0]), 1)
    assert b.shape == (1, 3)
    assert list(b[0]) == [1.0, 4.0, 9.0]


def test_poly_basis_order2_hand_expansion():
    b = poly_basis(np.array([2.0]), np.array([3.0]), 2)
    assert list(b[0]) == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]


def test_poly_basis_order5_term_count():
    b = poly_basis(np.zeros(1), np.zeros(1), 5)
    assert b.shape == (1, 21)


def test_poly_basis_3d_order3_term_count():
    b = poly_basis_3d(np.zeros(1), np.zeros(1), np.zeros(1), 3)
    assert b.shape == (1, 20)


# -- evaluation --------------------------------------------------------------


def test_identity_model_is_identity():
    x, y = identity_warp().apply(7.0, -2.0)
    assert (x, y) == (7.0, -2.0)


def test_translation_model_hand_values():
    x, y = translation_warp(5.0, -3.0).apply(0.0, 0.0)
    assert (x, y) == (5.0, -3.0)


def test_residuals_match_reapplication():
    cps = _cps_2d(40, seed=1)
    model = fit(ModelSpec("polynomial", 2), cps)
    sx, sy = model.apply(np.array([c.ref_x for c in cps]),
                         np.array([c.ref_y for c in cps]))
    res = np.hypot(sx - [c.sensed_x for c in cps],
                   sy - [c.sensed_y for c in cps])
    assert np.allclose(res, model.cp_residuals, atol=1e-9)


def _random_model(spec, seed):
    """Seeded coefficients; denominators stay within [0.5, 1.5] for inputs
    inside the normalized box, so both evaluation paths are well defined."""
    rng = np.random.default_rng(seed)
    b = spec.basis_size
    num_x, num_y = rng.normal(0.0, 1.0, (2, b))
    den_x = den_y = None
    if spec.family == "projective" or spec.denom_mode in ("shared", "distinct"):
        den_x, den_y = np.hstack([np.ones((2, 1)),
                                  rng.uniform(-0.5, 0.5, (2, b - 1)) / b])
        if spec.denom_mode == "shared":
            den_y = den_x
    norm = Normalization(250.0, 260.0, -40.0, 140.0, 30.0, 25.0,
                         240.0, 255.0, 120.0, 135.0)
    return FittedModel.from_coefficients(spec, num_x, num_y, den_x, den_y, norm)


@pytest.mark.parametrize("spec", all_model_specs(), ids=lambda s: s.name)
def test_apply_equals_monomial_matrix_product(spec):
    model = _random_model(spec, seed=spec.basis_size)
    rng = np.random.default_rng(17)
    xs = rng.uniform(-10.0, 510.0, (40, 30))
    ys = rng.uniform(-180.0, 100.0, (40, 30))
    zs = rng.uniform(5.0, 55.0, (40, 30))
    Xn, Yn, Zn = model.norm.fwd_in(xs, ys, zs)
    if spec.family == "rfm":
        A = poly_basis_3d(Xn, Yn, Zn, spec.basis_order)
        u, v = model.apply(xs, ys, zs)
    else:
        A = poly_basis(Xn, Yn, spec.basis_order)
        u, v = model.apply(xs, ys)
    ref_u, ref_v = model.norm.inv_out((A @ model.num_x) / (A @ model.den_x),
                                      (A @ model.num_y) / (A @ model.den_y))
    assert u.shape == v.shape == xs.shape
    for got, want in ((u, ref_u), (v, ref_v)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_apply_scalar_input_returns_python_floats():
    for spec in (ModelSpec("polynomial", 3), ModelSpec("projective", 22),
                 ModelSpec("rfm", 2, "distinct")):
        x, y = _random_model(spec, seed=1).apply(12.5, -3.0, 20.0)
        assert type(x) is float and type(y) is float


def test_apply_broadcasts_column_against_row():
    for spec in (ModelSpec("polynomial", 4), ModelSpec("projective", 38),
                 ModelSpec("rfm", 3, "shared")):
        model = _random_model(spec, seed=2)
        col = np.linspace(0.0, 500.0, 7)[:, None]
        row = np.linspace(-150.0, 90.0, 5)[None, :]
        u, v = model.apply(col, row, 30.0)
        assert u.shape == v.shape == (7, 5)
        X, Y = np.broadcast_arrays(col, row)
        fu, fv = model.apply(X.copy(), Y.copy(), np.full(X.shape, 30.0))
        assert np.array_equal(u, fu) and np.array_equal(v, fv)


def test_denominator_zero_crossing_is_nan_exactly_below_eps():
    # den_x = 1 - X/32 crosses zero at X = 32; den_y never does
    model = FittedModel.from_coefficients(
        ModelSpec("projective", 10), [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [1.0, -1.0 / 32.0, 0.0], [1.0, 0.0, 0.0])
    xs = 32.0 + np.array([-1.0, -1e-9, -1e-11, -1e-14, 0.0, 1e-14, 1e-11,
                          1e-9, 1.0, 4.0])
    ys = np.linspace(-3.0, 3.0, xs.size)
    u, v = model.apply(xs, ys)
    den = poly_basis(xs, ys, 1) @ model.den_x
    assert np.array_equal(np.isnan(u), np.abs(den) < DENOM_EPS)
    assert np.isnan(u).sum() == 5
    assert np.array_equal(v, ys)


# -- fitting -----------------------------------------------------------------


def test_minimum_cp_interpolation_poly3():
    def cubic(x, y):
        u, v = x / 300.0, y / 300.0
        return (10 + 5 * u - 2 * v + u * v - 0.5 * v ** 3,
                -4 + u + 3 * v + u ** 2 - 0.2 * u ** 3)

    cps = _cps_2d(10, seed=2, fn=cubic)
    model = fit(ModelSpec("polynomial", 3), cps)
    assert float(np.max(model.cp_residuals)) < 1e-9


def test_too_few_cps_rejected():
    cps = _cps_2d(5, seed=3)
    with pytest.raises(InsufficientControlPointsError):
        fit(ModelSpec("polynomial", 2), cps)


def test_collinear_cps_are_degenerate():
    cps = [ControlPoint(float(i), 2.0 * i, float(i), 2.0 * i)
           for i in range(12)]
    with pytest.raises(DegenerateFitError):
        fit(ModelSpec("polynomial", 1), cps)


def test_projective_recovery_from_exact_data():
    def proj(x, y):
        w1 = 1.0 + 1e-4 * x - 5e-5 * y
        w2 = 1.0 + 2e-4 * x + 1e-4 * y
        return ((5.0 + 1.02 * x + 0.03 * y) / w1,
                (-3.0 - 0.01 * x + 0.98 * y) / w2)

    cps = _cps_2d(20, seed=4, fn=proj)
    model = fit(model_spec_from_name("proj10"), cps)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-100, 400, 1000)
    ys = rng.uniform(50, 600, 1000)
    px, py = model.apply(xs, ys)
    tx, ty = proj(xs, ys)
    assert float(np.max(np.hypot(px - tx, py - ty))) < 1e-8


def test_rfm_unit_equals_3d_polynomial():
    rng = np.random.default_rng(6)

    def surf(x, y, z):
        u, v, w = x / 300.0, y / 300.0, z / 80.0
        return (3 * u - v + 0.5 * u * v + 0.1 * w ** 2 + rng.normal(0, 0.3),
                u + 2 * v - 0.3 * w + 0.2 * v ** 2 + rng.normal(0, 0.3))

    cps = _cps_2d(80, seed=7, fn=surf, z=True)
    for order in (1, 2, 3):
        unit = fit(ModelSpec("rfm", order, "unit"), cps)
        # a unit denominator leaves a plain polynomial in (X, Y, Z)
        xs = np.random.default_rng(8).uniform(-100, 400, 1000)
        ys = np.random.default_rng(9).uniform(50, 600, 1000)
        zs = np.random.default_rng(10).uniform(0, 80, 1000)
        ux, uy = unit.apply(xs, ys, zs)

        basis = poly_basis_3d(
            (xs - unit.norm.x_off) / unit.norm.x_scale,
            (ys - unit.norm.y_off) / unit.norm.y_scale,
            (zs - unit.norm.z_off) / unit.norm.z_scale, order)
        nx = basis @ unit.num_x * unit.norm.u_scale + unit.norm.u_off
        ny = basis @ unit.num_y * unit.norm.v_scale + unit.norm.v_off
        assert np.allclose(ux, nx, atol=1e-9)
        assert np.allclose(uy, ny, atol=1e-9)


def test_rfm_requires_heights():
    cps = _cps_2d(25, seed=11)
    with pytest.raises(ValueError):
        fit(ModelSpec("rfm", 1, "unit"), cps)


def test_poly_capacity_never_hurts_fit_rmse():
    cps = _cps_2d(60, seed=12)
    rmses = []
    for order in (1, 2, 3, 4, 5):
        model = fit(ModelSpec("polynomial", order), cps)
        rmses.append(float(np.sqrt(np.mean(model.cp_residuals ** 2))))
    for lo, hi in zip(rmses[1:], rmses[:-1]):
        assert lo <= hi + 1e-10


def test_normalization_only_conditions_the_solve():
    def quad(x, y):
        u, v = x / 300.0, y / 300.0
        return (2 + u - v + 0.3 * u * v, -1 + 0.5 * u + v - 0.2 * u ** 2)

    cps = _cps_2d(30, seed=13, fn=quad)
    a = fit(ModelSpec("polynomial", 2), cps, normalize=True)
    b = fit(ModelSpec("polynomial", 2), cps, normalize=False)
    rng = np.random.default_rng(14)
    xs = rng.uniform(-100, 400, 200)
    ys = rng.uniform(50, 600, 200)
    ax, ay = a.apply(xs, ys)
    bx, by = b.apply(xs, ys)
    assert float(np.max(np.hypot(ax - bx, ay - by))) < 1e-6


# -- serialization -----------------------------------------------------------


def test_model_text_round_trip():
    cps = _cps_2d(30, seed=15)
    model = fit(model_spec_from_name("proj10"), cps)
    text = model.to_text()
    back = FittedModel.from_text(text)
    assert back.spec == model.spec
    assert np.array_equal(back.num_x, model.num_x)
    assert np.array_equal(back.den_x, model.den_x)
    assert np.array_equal(back.num_y, model.num_y)
    assert np.array_equal(back.den_y, model.den_y)
    assert back.to_text() == text


# -- DEM attachment ----------------------------------------------------------


def test_constant_dem_heights():
    dem = as_grid(np.full((40, 40), 50.0, dtype=np.float32))
    cps = _cps_2d(10, seed=16)
    cps = [ControlPoint(c.ref_x % 30 + 2, c.ref_y % 30 + 2,
                        c.sensed_x, c.sensed_y) for c in cps]
    out = attach_dem_heights(cps, dem)
    assert all(c.ref_z == 50.0 for c in out)


def test_ramp_dem_heights_exact():
    cols = np.arange(40, dtype=np.float32)
    dem = as_grid(np.tile(0.01 * cols, (40, 1)))
    cps = [ControlPoint(12.25, 7.5, 0.0, 0.0),
           ControlPoint(3.0, 30.0, 0.0, 0.0)]
    out = attach_dem_heights(cps, dem)
    assert np.isclose(out[0].ref_z, 0.1225)
    assert np.isclose(out[1].ref_z, 0.03)


def test_cp_outside_dem_names_the_index():
    dem = as_grid(np.zeros((10, 10), dtype=np.float32))
    cps = [ControlPoint(5.0, 5.0, 0.0, 0.0),
           ControlPoint(500.0, 5.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="1"):
        attach_dem_heights(cps, dem)
