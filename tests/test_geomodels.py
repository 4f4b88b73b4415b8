import math

import numpy as np
import pytest

from coreg import geomodels
from coreg.geomodels import (
    DENOM_EPS,
    _basis,
    _denominator_warning,
    _exponents,
    _gn_step,
    ControlPoint,
    DegenerateFitError,
    FittedModel,
    InsufficientControlPointsError,
    ModelSpec,
    Normalization,
    all_model_specs,
    control_point_arrays,
    fit,
    min_cp_count,
    model_spec_from_name,
)
from coreg.matcher import Correspondence
from coreg.metrics import to_control_points
from coreg.raster import GeoTransform, RasterGrid, sample_bilinear, warp
from coreg.synthgen import identity_warp, translation_warp

from conftest import as_grid, texture


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
    # sweep rows follow this order
    assert [s.name for s in specs] == list(EXPECTED_TABLE)
    assert all(model_spec_from_name(s.name) == s for s in specs)


@pytest.mark.parametrize("name", sorted(EXPECTED_TABLE))
def test_parameter_and_min_cp_table(name):
    spec = model_spec_from_name(name)
    params, min_cp = EXPECTED_TABLE[name]
    assert spec.param_count == params
    assert min_cp_count(spec) == min_cp


def test_unknown_model_name_rejected():
    with pytest.raises(ValueError):
        model_spec_from_name("poly9")


@pytest.mark.parametrize("name", [
    "poly0", "poly6", "proj11", "rfm4_shared", "rfm2", "rfm2_bogus",
    "poly3_shared", "proj22_unit", "affine", ""])
def test_malformed_model_names_rejected(name):
    with pytest.raises(ValueError):
        model_spec_from_name(name)


@pytest.mark.parametrize("name", ["proj1_0", "poly 3", "poly03"])
def test_non_canonical_model_names_rejected(name):
    # int() accepts underscores, spaces and leading zeros
    with pytest.raises(ValueError, match="not canonical"):
        model_spec_from_name(name)


@pytest.mark.parametrize("args", [
    ("polynomial", 3, "shared"), ("rfm", 2), ("projective", 3),
    ("affine", 1)], ids=lambda a: "-".join(map(str, a)))
def test_invalid_model_specs_rejected(args):
    with pytest.raises(ValueError):
        ModelSpec(*args)


# -- bases -------------------------------------------------------------------


def test_poly_basis_order1_is_affine():
    b = _basis((np.array([4.0]), np.array([9.0])), 1)
    assert b.shape == (1, 3)
    assert list(b[0]) == [1.0, 4.0, 9.0]


def test_poly_basis_order2_hand_expansion():
    # [1, X, Y, X^2, XY, Y^2]
    b = _basis((np.array([2.0]), np.array([3.0])), 2)
    assert list(b[0]) == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]


def test_poly_basis_order5_term_count():
    b = _basis((np.zeros(1), np.zeros(1)), 5)
    assert b.shape == (1, 21)


def test_poly_basis_3d_order3_term_count():
    b = _basis((np.zeros(1), np.zeros(1), np.zeros(1)), 3)
    assert b.shape == (1, 20)


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_basis_is_bitwise_the_product_of_axis_powers(order, dims):
    axes = list(np.random.default_rng(order * dims).uniform(-1, 1, (dims, 97)))
    # each monomial as the left-to-right product of freshly raised powers
    expected = np.stack([math.prod(a ** e for a, e in zip(axes, exps))
                         for exps in _exponents(order, dims)], axis=-1)
    assert _basis(axes, order).tobytes() == expected.tobytes()


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
        A = _basis((Xn, Yn, Zn), spec.basis_order)
        u, v = model.apply(xs, ys, zs)
    else:
        A = _basis((Xn, Yn), spec.basis_order)
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
    den = _basis((xs, ys), 1) @ model.den_x
    assert np.array_equal(np.isnan(u), np.abs(den) < DENOM_EPS)
    assert np.isnan(u).sum() == 5
    assert np.array_equal(v, ys)


def _lattice(seed=3):
    """Column x, row y and a heights frame with a two-pixel hole."""
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-10.0, 510.0, 37))
    ys = np.sort(rng.uniform(-180.0, 100.0, 23))
    zs = rng.uniform(5.0, 55.0, (23, 37))
    zs[4, 9] = zs[17, 30] = np.nan
    return xs, ys, zs


@pytest.mark.parametrize("spec", all_model_specs(), ids=lambda s: s.name)
def test_lattice_equals_apply_at_every_lattice_point(spec):
    model = _random_model(spec, seed=spec.basis_size)
    xs, ys, zs = _lattice()
    u, v = model.apply_lattice(xs, ys, zs)
    ref_u, ref_v = model.apply(xs[None, :], ys[:, None], zs)
    assert u.shape == v.shape == zs.shape
    for got, want in ((u, ref_u), (v, ref_v)):
        # a DEM hole is NaN for a model over (X, Y, Z) and nowhere else
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got).sum() == (2 if spec.dims == 3 else 0)
        ok = ~np.isnan(want)
        assert np.max(np.abs(got[ok] - want[ok])) <= \
            1e-12 * np.max(np.abs(want[ok]))


def test_lattice_requires_heights_for_a_height_model():
    model = _random_model(ModelSpec("rfm", 2, "shared"), seed=4)
    xs, ys, _ = _lattice()
    with pytest.raises(ValueError, match="ref_z"):
        model.apply_lattice(xs, ys)


@pytest.mark.parametrize("name", ["proj10", "rfm1_distinct"])
def test_lattice_nan_where_apply_is_nan(name):
    # den_x = 1 - X/32 vanishes on the lattice column X = 32 exactly
    spec = model_spec_from_name(name)
    model = _random_model(spec, seed=6)
    den_x = np.zeros(spec.basis_size)
    den_x[:2] = 1.0, -1.0 / 32.0
    model = FittedModel.from_coefficients(spec, model.num_x, model.num_y,
                                          den_x, model.den_y)
    xs = 32.0 + np.array([-3.0, -1e-9, -1e-14, 0.0, 1e-14, 1e-9, 2.0])
    ys = np.linspace(-2.0, 2.0, 5)
    zs = np.full((5, 7), 0.5)
    u, v = model.apply_lattice(xs, ys, zs)
    ref_u, ref_v = model.apply(xs[None, :], ys[:, None], zs)
    assert np.array_equal(np.isnan(u), np.isnan(ref_u))
    assert np.array_equal(np.isnan(v), np.isnan(ref_v))
    assert np.isnan(u).sum(axis=0).tolist() == [0, 0, 5, 5, 5, 0, 0]
    assert not np.isnan(v).any()


def _probe_warning(model, has_z):
    """The denominator probe on a meshgrid of the normalized box."""
    axis = np.linspace(-1.0, 1.0, 21)
    if model.spec.dims == 2:
        A = _basis(np.meshgrid(axis, axis), model.spec.basis_order)
    else:
        heights = np.linspace(-1.0, 1.0, 5) if has_z else np.zeros(1)
        A = _basis(np.meshgrid(axis, axis, heights), model.spec.basis_order)
    dens = (A @ model.den_x, A @ model.den_y)
    return ("denominator-near-zero"
            if min(float(np.min(d)) for d in dens) < 1e-6 else None)


@pytest.mark.parametrize("spec", all_model_specs(), ids=lambda s: s.name)
def test_denominator_warning_probes_the_normalized_box(spec):
    warned = 0
    for seed in range(12):
        model = _random_model(spec, seed)
        # push the denominators until some cross zero inside the box
        den_x, den_y = (np.concatenate([[1.0], 8.0 * seed * d[1:]])
                        for d in (model.den_x, model.den_y))
        model = FittedModel.from_coefficients(spec, model.num_x, model.num_y,
                                              den_x, den_y)
        for has_z in (False, True):
            got = _denominator_warning(model, has_z)
            assert got == _probe_warning(model, has_z)
            warned += got is not None
    assert warned == 0 if model.has_unit_denominators else warned > 0


# -- fitting -----------------------------------------------------------------


def test_minimum_cp_interpolation_poly3():
    def cubic(x, y):
        u, v = x / 300.0, y / 300.0
        return (10 + 5 * u - 2 * v + u * v - 0.5 * v ** 3,
                -4 + u + 3 * v + u ** 2 - 0.2 * u ** 3)

    cps = _cps_2d(10, seed=2, fn=cubic)
    model = fit(ModelSpec("polynomial", 3), cps)
    assert float(np.max(model.cp_residuals)) < 1e-9


@pytest.mark.parametrize("name", ["poly3", "rfm2_unit"])
def test_unit_denominator_fit_takes_one_svd(monkeypatch, name):
    spec = model_spec_from_name(name)
    cps = _cps_2d(60, seed=8, z=spec.dims == 3,
                  fn=lambda x, y, z=0.0: (x + 0.001 * x * y + 0.1 * z,
                                          y - 0.002 * x * x))
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or svd(*a, **k))
    model = fit(spec, cps)
    assert len(calls) == 1
    # each coordinate solved as by its own SVD of the design matrix
    X, Y, u, v, Z = control_point_arrays(cps, spec)
    axes = [a for a in model.norm.fwd_in(X, Y, Z) if a is not None]
    A = _basis(axes, spec.basis_order)
    U, sv, Vt = svd(A, full_matrices=False)
    for coeffs, obs in zip((model.num_x, model.num_y),
                           model.norm.fwd_out(u, v)):
        assert np.array_equal(coeffs, Vt.T @ ((U.T @ obs) / sv))


def test_too_few_cps_rejected():
    cps = _cps_2d(5, seed=3)
    with pytest.raises(InsufficientControlPointsError):
        fit(ModelSpec("polynomial", 2), cps)


def test_collinear_cps_are_degenerate():
    cps = [ControlPoint(float(i), 2.0 * i, float(i), 2.0 * i)
           for i in range(12)]
    with pytest.raises(DegenerateFitError):
        fit(ModelSpec("polynomial", 1), cps)


@pytest.mark.parametrize("name", ["proj10", "rfm2_shared", "rfm2_distinct"])
def test_projective_recovery_from_exact_data(name):
    # exact data from a model of the same family, well above the minimum
    # count, so the linearized solve and its refinement must recover it
    spec = model_spec_from_name(name)
    truth = _random_model(spec, seed=4)
    rng = np.random.default_rng(5)

    def sample(n):
        return (rng.uniform(-10.0, 510.0, n), rng.uniform(-180.0, 100.0, n),
                rng.uniform(5.0, 55.0, n))

    xs, ys, zs = sample(3 * min_cp_count(spec))
    sx, sy = truth.apply(xs, ys, zs)
    has_z = spec.family == "rfm"
    cps = [ControlPoint(float(x), float(y), float(u), float(v),
                        ref_z=float(z) if has_z else None)
           for x, y, u, v, z in zip(xs, ys, sx, sy, zs)]
    model = fit(spec, cps)
    xs, ys, zs = sample(1000)
    px, py = model.apply(xs, ys, zs)
    tx, ty = truth.apply(xs, ys, zs)
    assert float(np.max(np.hypot(px - tx, py - ty))) < 1e-8


def _rational_system_shapes():
    """(rows, columns) of the augmented Gauss-Newton system of each rational
    model at its minimum count and at 40 and 95 control points."""
    for spec in all_model_specs():
        k = {"shared": 2, "distinct": 1}.get(spec.denominators)
        if k is None:
            continue
        b = spec.basis_size
        for n in (min_cp_count(spec), 40, 95):
            yield pytest.param(k * n, (k + 1) * b, id=f"{spec.name}-{n}")


@pytest.mark.parametrize("rows,cols", _rational_system_shapes())
def test_gauss_newton_step_equals_lstsq(rows, cols):
    system = np.random.default_rng(rows * cols).standard_normal((rows, cols))
    want, *_ = np.linalg.lstsq(system[:, :-1], system[:, -1], rcond=None)
    got = _gn_step(system)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["proj22", "rfm2_shared"])
def test_zero_jacobian_column_ends_the_refinement(monkeypatch, name):
    spec = model_spec_from_name(name)
    cps = _cps_2d(60, seed=9, z=spec.dims == 3,
                  fn=lambda x, y, z=0.0: (x + 0.001 * x * y + 0.1 * z,
                                          y - 0.002 * x * x))
    monkeypatch.setattr(geomodels, "_GN_MAX_ITERS", 0)
    start = fit(spec, cps)
    monkeypatch.undo()

    calls = []

    def zero_column_step(system):
        calls.append(system.shape)
        system = system.copy()
        system[:, 1] = 0.0
        return _gn_step(system)

    monkeypatch.setattr(geomodels, "_gn_step", zero_column_step)
    model = fit(spec, cps)
    # one step per rational solve, each rejected or stopped by LinAlgError:
    # the model is the linearized start
    assert len(calls) == {"shared": 1, "distinct": 2}[spec.denominators]
    for key in ("num_x", "den_x", "num_y", "den_y"):
        assert np.array_equal(getattr(model, key), getattr(start, key))


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

        basis = _basis(
            ((xs - unit.norm.x_off) / unit.norm.x_scale,
             (ys - unit.norm.y_off) / unit.norm.y_scale,
             (zs - unit.norm.z_off) / unit.norm.z_scale), order)
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


def test_model_text_without_norm_rejected():
    text = fit(model_spec_from_name("poly1"), _cps_2d(10, seed=15)).to_text()
    stripped = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("norm "))
    with pytest.raises(ValueError, match="norm"):
        FittedModel.from_text(stripped)


@pytest.mark.parametrize("edit, named", [
    (lambda text: text + "scale 2.0\n", "unknown key 'scale'"),
    (lambda text: text.replace("order 1\n", "order 3.5\n"),
     "bad order= value: invalid literal for int() with base 10: '3.5'"),
    (lambda text: text.replace("\nnorm ", "\nnorm 0.0 "),
     "bad norm= value: needs 10 numbers, got 11"),
    (lambda text: text.replace("\nnum_x ", "\nnum_x 1.0 x "),
     "bad num_x= value: could not convert string to float: 'x'"),
], ids=["unknown-line", "order", "norm-count", "coefficient"])
def test_bad_model_text_names_the_key(edit, named):
    text = fit(model_spec_from_name("poly1"), _cps_2d(10, seed=15)).to_text()
    with pytest.raises(ValueError) as info:
        FittedModel.from_text(edit(text))
    assert str(info.value) == named


def test_model_line_must_name_the_fitted_model():
    text = fit(model_spec_from_name("poly1"), _cps_2d(10, seed=15)).to_text()
    assert text.startswith("model poly1\n")
    with pytest.raises(ValueError) as info:
        FittedModel.from_text(text.replace("model poly1\n", "model proj10\n"))
    assert str(info.value) == ("model line names 'proj10' but the fields "
                               "describe 'poly1'")


def test_model_text_with_warning_and_comment_round_trips():
    model = fit(model_spec_from_name("rfm1_distinct"),
                _cps_2d(40, seed=16, z=True))
    model.warning = "denominator-near-zero"
    text = model.to_text()
    assert text.endswith("warning denominator-near-zero\n")
    back = FittedModel.from_text("# fitted by hand\n\n" + text)
    assert back.spec == model.spec
    assert back.norm == model.norm
    assert back.warning == model.warning
    assert back.to_text() == text


# -- DEM attachment ----------------------------------------------------------


def _dem_heights(xy, dem):
    """The heights that to_control_points samples from ``dem`` at the
    reference map positions ``xy``."""
    corrs = [Correspondence(ref_col=x, ref_row=y, sensed_col=0.0,
                            sensed_row=0.0, ref_x=x, ref_y=y, sensed_x=0.0,
                            sensed_y=0.0, peak=1.0) for x, y in xy]
    return to_control_points(corrs, dem).Z


def test_constant_dem_heights():
    dem = as_grid(np.full((40, 40), 50.0, dtype=np.float32))
    xy = [(c.ref_x % 30 + 2, c.ref_y % 30 + 2) for c in _cps_2d(10, seed=16)]
    assert np.all(_dem_heights(xy, dem) == 50.0)


def test_ramp_dem_heights_exact():
    cols = np.arange(40, dtype=np.float32)
    dem = as_grid(np.tile(0.01 * cols, (40, 1)))
    z = _dem_heights([(12.25, 7.5), (3.0, 30.0)], dem)
    assert z.dtype == np.float64
    assert np.isclose(z[0], 0.1225)
    assert np.isclose(z[1], 0.03)


def test_dem_fill_and_holes_give_no_height():
    # 0.1 has no exact float32 value: the hole's samples are float32(0.1),
    # and they must read as nodata, never as a height
    data = np.full((10, 10), 50.0, dtype=np.float32)
    data[4:6, 4:6] = 0.1
    dem = as_grid(data, nodata=0.1)
    inside = (1.5, 1.5)
    assert _dem_heights([inside], dem)[0] == 50.0
    for bad in ((50.0, 50.0), (4.5, 4.5)):
        with pytest.raises(ValueError, match="control point 1 at"):
            _dem_heights([inside, bad, bad], dem)

    # u = X + Z / 1000, v = Y: the DEM shares the target grid, so only the
    # hole's own pixels have no height; they are nodata, and no model failure
    spec = ModelSpec("rfm", 1, "distinct")
    model = FittedModel.from_coefficients(spec, [0.0, 1.0, 0.0, 1e-3],
                                          [0.0, 0.0, 1.0, 0.0])
    sensed = as_grid(np.arange(100, dtype=np.float32).reshape(10, 10),
                     nodata=-5.0)
    out, failures = warp(sensed, model, sensed.geotransform, 10, 10, dem)
    assert failures == 0
    hole = np.zeros((10, 10), dtype=bool)
    hole[4:6, 4:6] = True
    hole[:, 9] = True   # column 9 maps past the sensed extent
    assert out.nodata == -5.0
    assert np.isnan(out.data[hole]).all()
    assert not np.isnan(out.data[~hole]).any()


def _height_shift_rfm():
    """u = X + Z / 1000, v = Y."""
    return FittedModel.from_coefficients(ModelSpec("rfm", 1, "distinct"),
                                         [0.0, 1.0, 0.0, 1e-3],
                                         [0.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("nodata", [np.nan, -9999.0])
def test_dem_hole_neighbours_keep_their_own_heights(nodata):
    heights = (100.0 * np.arange(25, dtype=np.float32)).reshape(5, 5)
    data = heights.copy()
    data[2, 2] = nodata
    dem = as_grid(data, nodata=nodata)
    sensed = as_grid(texture(8, seed=3), nodata=-5.0)
    model = _height_shift_rfm()
    out, failures = warp(sensed, model, dem.geotransform, 5, 5, dem)
    assert failures == 0
    assert out.nodata == -5.0
    assert np.isnan(out.data[2, 2])
    rr, cc = np.mgrid[0:5, 0:5].astype(np.float64)
    want = sample_bilinear(sensed, *model.apply(cc, rr, heights))
    keep = np.ones((5, 5), dtype=bool)
    keep[2, 2] = False
    assert np.array_equal(out.data[keep], want[keep].astype(np.float32))


def test_on_grid_dem_read_equals_the_sampled_heights():
    # a DEM one row and column larger than the target is sampled, at whole
    # pixels, and must give the same heights as the on-grid read
    rng = np.random.default_rng(4)
    big = as_grid((500.0 * rng.random((41, 41))).astype(np.float32))
    dem = as_grid(big.data[:40, :40])
    sensed = as_grid(texture(48, seed=5))
    read, _ = warp(sensed, _height_shift_rfm(), dem.geotransform, 40, 40, dem)
    sampled, _ = warp(sensed, _height_shift_rfm(), dem.geotransform, 40, 40,
                      big)
    assert np.array_equal(read.data, sampled.data)


def test_height_interpolated_to_the_sentinel_is_a_height():
    dem = as_grid(np.array([[-9998.0, -10000.0], [-9998.0, -10000.0]],
                           dtype=np.float32), nodata=-9999.0)
    assert _dem_heights([(0.5, 0.5)], dem)[0] == -9999.0


def test_cp_outside_dem_names_the_index():
    dem = as_grid(np.zeros((10, 10), dtype=np.float32))
    with pytest.raises(ValueError,
                       match=r"control point 1 at \(500\.0, 5\.0\)"):
        _dem_heights([(5.0, 5.0), (500.0, 5.0)], dem)
