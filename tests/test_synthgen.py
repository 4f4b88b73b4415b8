import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from coreg import synthgen
from coreg.geomodels import (FittedModel, ModelSpec, Normalization,
                             model_spec_from_name)
from coreg.raster import RasterGrid, sample_bilinear
from coreg.synthgen import (
    NonInvertibleWarpError,
    SynthSpec,
    _lattice_seed,
    _value_noise,
    check_invertible,
    cubic_truth,
    generate,
    identity_warp,
    invert_frame,
    invert_warp_grid,
    spec_from_manifest,
    spec_to_manifest,
    translation_warp,
)


def _poly2(num_x, num_y):
    return FittedModel.from_coefficients(ModelSpec("polynomial", 2),
                                         num_x=num_x, num_y=num_y)


# -- spec validation ---------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(size=8),
    dict(radiometry="log"),
    dict(radiometry="exp"),
    dict(speckle_var=-0.1),
    dict(speckle_var=float("nan")),
    dict(speckle_var=float("inf")),
    dict(radiometry="gamma", gamma=-1.0),
    dict(gamma=0.0),
    dict(gamma=float("nan")),
])
def test_bad_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        SynthSpec(**kwargs)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SynthSpec(seed=-1)


def test_rfm_truth_rejected():
    spec = ModelSpec("rfm", 1, "unit")
    b = spec.basis_size
    warp = FittedModel.from_coefficients(spec, np.zeros(b), np.zeros(b))
    with pytest.raises(ValueError):
        generate(SynthSpec(size=32, warp=warp))


# -- generation --------------------------------------------------------------


def test_identity_pair_is_bitwise_equal():
    ref, sen, truth, dem = generate(SynthSpec(size=64, seed=3))
    assert np.array_equal(ref.data, sen.data)
    assert truth.apply(10.0, 20.0) == (10.0, 20.0)
    assert ref.crs_tag == sen.crs_tag == dem.crs_tag
    assert ref.geotransform == sen.geotransform
    assert dem.data.shape == (64, 64)
    assert float(dem.data.min()) >= 0.0
    assert float(dem.data.max()) <= 500.0


def test_same_seed_reproduces_bitwise():
    spec = SynthSpec(size=64, warp=translation_warp(3.0, -2.0),
                     radiometry="gamma", gamma=0.5, speckle_var=0.02, seed=9)
    a = generate(spec)
    b = generate(spec)
    for ga, gb in zip((a[0], a[1], a[3]), (b[0], b[1], b[3])):
        assert np.array_equal(ga.data, gb.data)
    c = generate(SynthSpec(size=64, warp=translation_warp(3.0, -2.0),
                           radiometry="gamma", gamma=0.5, speckle_var=0.02,
                           seed=10))
    assert not np.array_equal(a[1].data, c[1].data)


def test_integer_translation_moves_content_exactly():
    # truth sends ref (x, y) to sensed (x+7, y+4): the sensed image holds
    # the reference shifted down-right, zero padded on the entry edges
    ref, sen, truth, _ = generate(SynthSpec(size=48,
                                            warp=translation_warp(7.0, 4.0),
                                            seed=1))
    assert np.array_equal(sen.data[4:, 7:], ref.data[:-4, :-7])
    assert np.all(sen.data[:4, :] == 0.0)
    assert np.all(sen.data[:, :7] == 0.0)


def test_gamma_radiometry_is_pointwise_power():
    base = generate(SynthSpec(size=48, seed=5))
    out = generate(SynthSpec(size=48, seed=5, radiometry="gamma", gamma=0.4))
    assert np.allclose(out[1].data,
                       np.clip(base[0].data, 0, 1) ** 0.4, atol=1e-6)


def test_speckle_preserves_mean_brightness():
    clean = generate(SynthSpec(size=256, seed=7))
    noisy = generate(SynthSpec(size=256, seed=7, speckle_var=0.05))
    ratio = float(noisy[1].data.mean() / clean[1].data.mean())
    assert abs(ratio - 1.0) < 0.01
    assert not np.array_equal(noisy[1].data, clean[1].data)


def _map_coordinates_noise(h, w, rng, spacings, weights):
    """Value noise upsampled by map_coordinates over full-frame meshes."""
    out = np.zeros((h, w), dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    cols = np.arange(w, dtype=np.float64)
    for spacing, weight in zip(spacings, weights):
        lattice = rng.random((h // spacing + 2, w // spacing + 2))
        rr, cc = np.meshgrid(rows / spacing, cols / spacing, indexing="ij")
        out += weight * ndimage.map_coordinates(lattice, [rr, cc], order=1)
    lo, hi = out.min(), out.max()
    if hi > lo:
        out = (out - lo) / (hi - lo)
    return out


@pytest.mark.parametrize("h, w, spacings", [
    (77, 130, (2, 4, 8, 16)),
    (700, 200, (2, 4, 8, 16, 32)),
    (64, 64, (64, 128)),
])
def test_separable_noise_matches_map_coordinates(h, w, spacings):
    weights = [1.0 / np.sqrt(s) for s in spacings]
    got = _value_noise(h, w, np.random.default_rng(5), spacings, weights)
    want = _map_coordinates_noise(h, w, np.random.default_rng(5), spacings,
                                  weights)
    assert float(np.max(np.abs(got - want))) <= 1e-12


def test_generate_temporaries_stay_within_a_fixed_bound_per_pixel():
    spec = SynthSpec(size=768, warp=cubic_truth(2048), radiometry="gamma",
                     gamma=0.8, speckle_var=0.005, seed=2)
    tracemalloc.start()
    try:
        generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 768 ** 2 <= 64.0


def _whole_frame_generate(spec: SynthSpec):
    """generate's rasters in one full-frame pass: the texture stretch and
    the DEM scale as expressions, and the sensed frame finished in float64
    under one speckle draw of the frame's shape before its cast."""
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    spacings = [s for s in (2, 4, 8, 16, 32, 64, 128, 256)
                if s <= max(4, n // 8)]
    scene = _value_noise(n, n, rng, spacings,
                         [1.0 / float(np.sqrt(s)) for s in spacings])
    scene = 0.5 + 0.5 * np.tanh(6.0 * (scene - 0.5))
    synthgen._normalize(scene)
    reference = RasterGrid(data=scene.astype(np.float32))
    dem_spacings = ([s for s in (64, 128, 256) if s <= n // 2]
                    or [max(4, n // 4)])
    relief = _value_noise(n, n, rng, dem_spacings,
                          [float(np.sqrt(s)) for s in dem_spacings])
    dem = (500.0 * relief).astype(np.float32)
    sensed = np.empty((n, n))
    for r0, r1, sx, sy, ok in invert_frame(spec.warp, n):
        vals = sample_bilinear(reference, sx, sy)
        sensed[r0:r1] = np.where(ok & np.isfinite(vals), vals, 0.0)
    sensed = synthgen._apply_radiometry(sensed, spec)
    if spec.speckle_var > 0:
        sensed = sensed * rng.gamma(1.0 / spec.speckle_var,
                                    scale=spec.speckle_var, size=sensed.shape)
    return reference.data, sensed.astype(np.float32), dem


@pytest.mark.parametrize("chunk_pixels", [1, 1000])
@pytest.mark.parametrize("radiometry, speckle_var", [
    ("identity", 2.0), ("gamma", 0.05)])
def test_streamed_sensed_frame_equals_the_whole_frame_pass(
        monkeypatch, chunk_pixels, radiometry, speckle_var):
    # 96 px is one inversion chunk by default, so the oracle's sensed frame
    # is a single pass; the patched chunks are 1 and 10 rows
    spec = SynthSpec(size=96, warp=cubic_truth(96, 0.1), radiometry=radiometry,
                     gamma=0.7, speckle_var=speckle_var, seed=17)
    want = _whole_frame_generate(spec)
    monkeypatch.setattr(synthgen, "_INVERT_CHUNK_PIXELS", chunk_pixels)
    reference, sensed, _, dem = generate(spec)
    got = (reference.data, sensed.data, dem.data)
    assert (sensed.data == 0.0).any() and (sensed.data > 0.0).any()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float32
        assert g.tobytes() == w.tobytes()


# -- warp inversion ----------------------------------------------------------


def test_invert_translation_exactly():
    warp = translation_warp(7.0, 4.0)
    tx = np.array([10.0, 0.0])
    ty = np.array([5.0, 0.0])
    sx, sy, ok = invert_warp_grid(warp, tx, ty)
    assert ok.all()
    assert np.allclose(sx, tx - 7.0, atol=1e-12)
    assert np.allclose(sy, ty - 4.0, atol=1e-12)


def test_invert_mild_quadratic_round_trip():
    warp = _poly2(num_x=[5.0, 1.0, 0.02, 1e-4, 0.0, 0.0],
                  num_y=[-3.0, 0.0, 1.0, 0.0, 1e-4, 0.0])
    rng = np.random.default_rng(8)
    tx = rng.uniform(20, 200, 50)
    ty = rng.uniform(20, 200, 50)
    sx, sy, ok = invert_warp_grid(warp, tx, ty)
    assert ok.all()
    fx, fy = warp.apply(sx, sy)
    assert float(np.max(np.hypot(fx - tx, fy - ty))) < 1e-9


class _CountingWarp:
    """Forwards apply to a model and counts the calls and the points."""

    def __init__(self, model):
        self.model = model
        self.calls = 0
        self.points = 0

    def apply(self, *args):
        self.calls += 1
        self.points += np.broadcast(*args).size
        return self.model.apply(*args)


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_all_non_finite_input_stops_after_one_step(fill):
    warp = _CountingWarp(cubic_truth(256))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sx, sy, ok = invert_warp_grid(warp, np.full(3, fill), np.full(3, fill))
    assert not ok.any()
    # only warp(t), whose residual decides ok
    assert warp.calls == 1


def _fixed_point_inverse(warp, tx, ty):
    """Plain fixed-point inversion, r <- r + (t - warp(r))."""
    rx, ry = tx.copy(), ty.copy()
    with np.errstate(all="ignore"):
        for _ in range(80):
            fx, fy = warp.apply(rx, ry)
            new_rx, new_ry = rx + (tx - fx), ry + (ty - fy)
            delta = np.maximum(np.abs(new_rx - rx), np.abs(new_ry - ry))
            rx, ry = new_rx, new_ry
            if float(np.nanmax(delta)) < 1e-12:
                break
        fx, fy = warp.apply(rx, ry)
        err = np.hypot(fx - tx, fy - ty)
    return rx, ry, np.isfinite(err) & (err < 1e-6)


def _random_warp(rng, name, size):
    """Identity plus a random field of the named family over a size frame,
    with coefficients in [-1, 1]-normalized coordinates."""
    spec = model_spec_from_name(name)
    b = spec.basis_size
    amp = rng.uniform(0.02, 0.3)
    num_x = amp * rng.uniform(-1, 1, b) / np.sqrt(b)
    num_y = amp * rng.uniform(-1, 1, b) / np.sqrt(b)
    num_x[1] += 1.0
    num_y[2] += 1.0
    den_x = den_y = None
    if spec.family == "projective":
        den_x = np.concatenate([[1.0], 0.1 * amp * rng.uniform(-1, 1, b - 1)])
        den_y = np.concatenate([[1.0], 0.1 * amp * rng.uniform(-1, 1, b - 1)])
    half = (size - 1) / 2.0
    norm = Normalization(half, half, half, half, 0.0, 1.0,
                         half, half, half, half)
    return FittedModel.from_coefficients(spec, num_x, num_y, den_x, den_y,
                                         norm=norm)


def _invertible_draws(size, count=120, seed=11):
    """Random near-identity warps over a size frame that pass
    check_invertible, cycling through poly2, poly3 and proj10."""
    rng = np.random.default_rng(seed)
    tested = 0
    while tested < count:
        warp = _random_warp(rng, ("poly2", "poly3", "proj10")[tested % 3],
                            size)
        try:
            check_invertible(warp, 0.0, 0.0, size - 1.0, size - 1.0)
        except NonInvertibleWarpError:
            continue
        tested += 1
        yield warp


def test_chord_newton_agrees_with_the_fixed_point_oracle():
    size = 96
    rr, cc = np.mgrid[0:size, 0:size].astype(np.float64)
    converged = 0
    for warp in _invertible_draws(size):
        ox, oy, oracle_ok = _fixed_point_inverse(warp, cc, rr)
        if not oracle_ok.all():
            continue
        converged += 1
        sx, sy, ok = invert_warp_grid(warp, cc, rr)
        assert ok.all()
        assert float(np.max(np.abs(sx - ox))) <= 1e-6
        assert float(np.max(np.abs(sy - oy))) <= 1e-6
    assert converged >= 100


def _inverted_frame(warp, n):
    """invert_frame's chunks joined into (rx, ry, ok) over the frame."""
    parts = list(invert_frame(warp, n))
    assert [p[0] for p in parts] == [0] + [p[1] for p in parts[:-1]]
    assert parts[-1][1] == n
    return [np.concatenate([p[k] for p in parts]) for k in (2, 3, 4)]


def _lattice_nodes_ok(warp, n):
    """Whether the warp inverts at every node of invert_frame's lattice."""
    nodes = np.arange(0.0, n - 1 + synthgen._LATTICE_STEP,
                      synthgen._LATTICE_STEP)
    ny, nx = np.meshgrid(nodes, nodes, indexing="ij")
    return invert_warp_grid(warp, nx, ny)[2].all()


def test_seeded_frame_inversion_agrees_with_the_unseeded_solve():
    size = 96
    rr, cc = np.mgrid[0:size, 0:size].astype(np.float64)
    bad_lattices = 0
    for warp in _invertible_draws(size):
        ux, uy, uok = invert_warp_grid(warp, cc, rr)
        sx, sy, ok = _inverted_frame(warp, size)
        assert np.array_equal(ok, uok)
        assert float(np.max(np.abs(sx[ok] - ux[ok]), initial=0.0)) <= 1e-9
        assert float(np.max(np.abs(sy[ok] - uy[ok]), initial=0.0)) <= 1e-9
        # a node that is not ok seeds NaN, and its pixels are solved again
        bad_lattices += not _lattice_nodes_ok(warp, size)
    assert bad_lattices == 4


def _solve_recording_redos(monkeypatch, warp, tx, ty, seed):
    """invert_warp_grid(warp, tx, ty, seed), and the (tx, ty, seed) of each
    call it makes to itself."""
    resolved = []
    solve = synthgen.invert_warp_grid

    def spy(warp, tx, ty, seed=None):
        resolved.append((np.array(tx), np.array(ty), seed))
        return solve(warp, tx, ty, seed)

    monkeypatch.setattr(synthgen, "invert_warp_grid", spy)
    result = invert_warp_grid(warp, tx, ty, seed)
    monkeypatch.undo()
    return result, resolved


def test_seeded_pixels_that_fail_are_solved_again_unseeded(monkeypatch):
    # this poly3 draw distorts most near its bottom-left corner, where the
    # interpolated inverse Jacobian is too poor and the seeded iteration
    # diverges for a few dozen pixels that the unseeded solve inverts
    size = 96
    *_, warp = _invertible_draws(size, count=14, seed=12)
    rr, cc = np.mgrid[0:size, 0:size].astype(np.float64)
    seed = _lattice_seed(warp, size)(0, size)
    # the seeded solve calls itself, unseeded, on the points that failed
    (sx, sy, ok), [(tx, ty, no_seed)] = _solve_recording_redos(
        monkeypatch, warp, cc, rr, seed)
    assert no_seed is None
    redo = np.zeros((size, size), dtype=bool)
    redo[ty.astype(int), tx.astype(int)] = True
    assert np.array_equal(cc[redo], tx) and np.array_equal(rr[redo], ty)
    assert 0 < np.count_nonzero(redo) < 100
    ux, uy, uok = invert_warp_grid(warp, cc, rr)
    assert uok.all() and ok.all()
    np.testing.assert_array_equal(sx[redo], ux[redo])
    np.testing.assert_array_equal(sy[redo], uy[redo])


def test_points_still_moving_at_the_step_cap_are_solved_again(monkeypatch):
    # on this draw, with a cap of 80 steps, some seeded pixels ended within
    # 1e-6 of the target but 1.8e-6 px from the converged solve, and
    # unseeded, pixel (95, 0) ended 7.5e-7 px from it yet counted as ok
    size = 96
    *_, warp = _invertible_draws(size, count=14, seed=12)
    rr, cc = np.mgrid[0:size, 0:size].astype(np.float64)
    solves = [_inverted_frame(warp, size), invert_warp_grid(warp, cc, rr)]
    monkeypatch.setattr(synthgen, "_INVERT_MAX_ITERS", 2000)
    cx, cy, converged = invert_warp_grid(warp, cc, rr)
    assert converged.all()
    for sx, sy, ok in solves:
        assert ok.all()
        assert float(np.max(np.abs(sx - cx))) <= 1e-9
        assert float(np.max(np.abs(sy - cy))) <= 1e-9


def test_a_seeded_point_moving_at_the_step_cap_is_not_ok(monkeypatch):
    # seeded or not, a point still moving at the cap is not ok
    monkeypatch.setattr(synthgen, "_INVERT_MAX_ITERS", 1)
    tx, ty = np.meshgrid(np.arange(5.0), np.arange(4.0))
    warp = _CountingWarp(translation_warp(0.5, -2.0))
    zero, one = np.zeros_like(tx), np.ones_like(tx)
    # one exact step: the residual is 0, but the point is still moving; its
    # new position is not evaluated, nor is the unseeded redo's
    rx, ry, ok = invert_warp_grid(warp, tx, ty, (zero, zero, one, zero,
                                                 zero, one))
    assert np.array_equal(rx, tx - 0.5) and np.array_equal(ry, ty + 2.0)
    assert not ok.any()
    assert warp.calls == 2
    # unseeded too: the first step is a fixed-point step of 0.5 px
    rx, ry, ok = invert_warp_grid(warp, tx, ty)
    assert np.array_equal(rx, tx - 0.5) and np.array_equal(ry, ty + 2.0)
    assert not ok.any()
    # a point that starts at its solution retires on its first step
    _, _, ok = invert_warp_grid(warp, tx, ty, (-0.5 * one, 2.0 * one, one,
                                               zero, zero, one))
    assert ok.all()


def _affine_targets_and_solution():
    """An affine warp A r + b, A^-1, 4000 targets over a 200 px frame,
    their solutions, and start offsets from them of 1e-6 to 1 px."""
    warp = FittedModel.from_coefficients(
        ModelSpec("polynomial", 1), num_x=[3.0, 1.1, 0.2],
        num_y=[-2.0, 0.1, 0.9])
    a = np.array([[1.1, 0.2], [0.1, 0.9]])
    rng = np.random.default_rng(5)
    tx, ty = rng.uniform(0, 200, (2, 4000))
    sx, sy = np.linalg.solve(a, np.stack([tx - 3.0, ty + 2.0]))
    off = rng.uniform(-1, 1, (2, tx.size)) * 10.0 ** rng.uniform(-6, 0,
                                                                 tx.size)
    return warp, np.linalg.inv(a), tx, ty, sx, sy, off


@pytest.mark.parametrize("rho", [0.3, 0.9])
def test_error_left_at_retirement_is_bounded_by_the_step_ratio(rho):
    # a frozen inverse (1 - rho) A^-1 makes every step shrink the error by
    # exactly rho: below 1/2 the step ratio retires a point once the error
    # it bounds is below _INVERT_TOL; above it only a step below
    # _INVERT_TOL does, leaving up to rho / (1 - rho) times that
    warp, inv, tx, ty, sx, sy, off = _affine_targets_and_solution()
    seed = (sx + off[0] - tx, sy + off[1] - ty,
            *(np.full(tx.size, (1.0 - rho) * v) for v in inv.ravel()))
    rx, ry, ok = invert_warp_grid(warp, tx, ty, seed)
    assert ok.all()
    err = np.maximum(np.abs(rx - sx), np.abs(ry - sy))
    bound = synthgen._INVERT_TOL * (1.0 if rho < 0.5 else rho / (1.0 - rho))
    assert float(err.max()) <= bound + 8 * np.spacing(200.0)


def test_the_fixed_point_step_does_not_start_the_step_ratio():
    # the fixed-point step is the 10 px shift and the first chord step about
    # 2e-5 px: their ratio would retire the points on a residual of 2e-5 px
    warp = _CountingWarp(FittedModel.from_coefficients(
        ModelSpec("polynomial", 1), num_x=[10.0, 1.0 + 1e-7, 0.0],
        num_y=[-5.0, 0.0, 1.0 - 1e-7]))
    t = np.linspace(0.0, 200.0, 11)
    rx, ry, ok = invert_warp_grid(warp, t, t)
    assert ok.all()
    assert float(np.max(np.abs(rx - (t - 10.0) / (1.0 + 1e-7)))) <= 1e-12
    assert float(np.max(np.abs(ry - (t + 5.0) / (1.0 - 1e-7)))) <= 1e-12
    # warp(t), warp(r1), the two Jacobian columns, then warp(r2)
    assert warp.calls == 5


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_a_seeded_point_with_a_non_finite_step_is_solved_again(
        monkeypatch, fill):
    # every point starts at its solution, so its residual is 0; the point
    # whose frozen inverse holds a non-finite entry steps to NaN
    warp, inv, tx, ty, sx, sy, _ = _affine_targets_and_solution()
    tx, ty, sx, sy = tx[:5], ty[:5], sx[:5], sy[:5]
    a, b, c, d = (np.full(5, v) for v in inv.ravel())
    a[2] = fill
    (rx, ry, ok), [(redo_x, redo_y, no_seed)] = _solve_recording_redos(
        monkeypatch, warp, tx, ty, (sx - tx, sy - ty, a, b, c, d))
    assert no_seed is None
    assert np.array_equal(redo_x, tx[2:3]) and np.array_equal(redo_y, ty[2:3])
    assert ok.all() and np.isfinite(rx).all() and np.isfinite(ry).all()
    ux, uy, _ = invert_warp_grid(warp, tx[2:3], ty[2:3])
    assert rx[2] == ux[0] and ry[2] == uy[0]


@pytest.mark.parametrize("scale, start", [(0.0, 0.5), (-0.5, 1e-8)])
def test_a_seeded_point_that_stalls_or_diverges_is_solved_again(
        monkeypatch, scale, start):
    # a zero frozen inverse stops every point where it starts, 0.5 px off,
    # at a step of 0; a frozen inverse of -A^-1 / 2 grows every step by 1.5,
    # a ratio that must not retire a point while its residual is still
    # below 1e-6 px
    warp, inv, tx, ty, sx, sy, _ = _affine_targets_and_solution()
    seed = (sx + start - tx, sy - start - ty,
            *(np.full(tx.size, scale * v) for v in inv.ravel()))
    (rx, ry, ok), [(redo_x, _, no_seed)] = _solve_recording_redos(
        monkeypatch, warp, tx, ty, seed)
    assert no_seed is None and np.array_equal(redo_x, tx)
    assert ok.all()
    err = np.maximum(np.abs(rx - sx), np.abs(ry - sy))
    assert float(err.max()) <= synthgen._INVERT_TOL + 8 * np.spacing(200.0)


def _fold_past_the_frame(n):
    """x' = x - x^2 / (4n - 2): increasing over the frame, with no inverse
    for targets past x' = n - 1/2, such as the last lattice node when it
    lies past the frame."""
    return _poly2(num_x=[0.0, 1.0, 0.0, -1.0 / (4 * n - 2), 0.0, 0.0],
                  num_y=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("n", [16, 17, 18, 24, 25, 97])
@pytest.mark.parametrize("make_warp", [lambda n: cubic_truth(n, 0.2),
                                       _fold_past_the_frame])
def test_frame_inversion_on_the_lattice_edge(n, make_warp):
    # the last lattice node lies on the frame's last row and column (17, 25,
    # 97), 1 px past them (16, 24) or 7 px past them (18)
    warp = make_warp(n)
    rr, cc = np.mgrid[0:n, 0:n].astype(np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ux, uy, uok = invert_warp_grid(warp, cc, rr)
        sx, sy, ok = _inverted_frame(warp, n)
    assert np.array_equal(ok, uok)
    assert float(np.max(np.abs(sx[ok] - ux[ok]), initial=0.0)) <= 1e-9
    assert float(np.max(np.abs(sy[ok] - uy[ok]), initial=0.0)) <= 1e-9


def test_retired_points_bound_the_work_of_a_stray_point():
    # a few draws hold pixels whose inverse leaves the probed frame and
    # never converges; the points that converged stop being evaluated
    size = 96
    rr, cc = np.mgrid[0:size, 0:size].astype(np.float64)
    strays = 0
    for warp in _invertible_draws(size):
        counted = _CountingWarp(warp)
        _, _, ok = invert_warp_grid(counted, cc, rr)
        if ok.all():
            continue
        strays += 1
        assert counted.points <= 12 * size * size
    assert strays == 4


def test_flat_scene_frame_inverts_in_under_2_5_evaluations_per_pixel():
    warp = _CountingWarp(cubic_truth(2048))
    _, _, ok = _inverted_frame(warp, 768)
    assert ok.all()
    assert warp.points <= 2.5 * 768 ** 2


def test_criterion_6_chunk_inverts_in_seven_warp_evaluations():
    # the bottom 256 rows of the 2048-pixel flat-scene field, where the
    # displacement gradient is largest
    warp = _CountingWarp(cubic_truth(2048))
    rr, cc = np.mgrid[1792:2048, 0:2048].astype(np.float64)
    sx, sy, ok = invert_warp_grid(warp, cc, rr)
    assert ok.all()
    assert warp.calls <= 7


def test_folding_warp_rejected():
    # x' = (X - 24)^2 / 48: Jacobian determinant changes sign at X = 24
    fold = _poly2(num_x=[12.0, -1.0, 0.0, 1.0 / 48.0, 0.0, 0.0],
                  num_y=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NonInvertibleWarpError):
        check_invertible(fold, 0.0, 0.0, 47.0, 47.0)
    with pytest.raises(NonInvertibleWarpError):
        generate(SynthSpec(size=48, warp=fold))


def test_collapsing_warp_rejected():
    # x' = X / 1e5 squeezes the footprint to a sliver
    squash = _poly2(num_x=[0.0, 1e-5, 0.0, 0.0, 0.0, 0.0],
                    num_y=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NonInvertibleWarpError):
        check_invertible(squash, 0.0, 0.0, 47.0, 47.0)


# -- manifest ----------------------------------------------------------------


def test_manifest_round_trip_with_warp():
    warp = _poly2(num_x=[5.0, 1.0, 0.02, 1e-4, 0.0, 0.0],
                  num_y=[-3.0, 0.0, 1.0, 0.0, 1e-4, 2e-5])
    spec = SynthSpec(size=96, warp=warp, radiometry="gamma",
                     gamma=0.55, speckle_var=0.03, seed=21)
    text = spec_to_manifest(spec)
    back = spec_from_manifest(text)
    assert (back.size, back.radiometry) == (96, "gamma")
    assert back.gamma == 0.55
    assert back.speckle_var == 0.03
    assert back.seed == 21
    assert back.warp.spec == warp.spec
    assert np.array_equal(back.warp.num_x, warp.num_x)
    assert np.array_equal(back.warp.num_y, warp.num_y)
    assert spec_to_manifest(back) == text


def test_manifest_defaults_and_identity_warp():
    spec = spec_from_manifest("size=32\n")
    assert spec.size == 32
    assert spec.warp is None
    gen = spec_from_manifest(spec_to_manifest(SynthSpec(size=32)))
    x, y = gen.warp.apply(4.0, 9.0)
    assert (x, y) == (4.0, 9.0)


def test_manifest_garbage_line_rejected():
    with pytest.raises(ValueError):
        spec_from_manifest("size=32\nnot a key value line\n")


def test_manifest_unknown_key_rejected():
    # a misspelt speckle_var must not generate a speckle-free scene
    with pytest.raises(ValueError, match="'speckle'"):
        spec_from_manifest("size=32\nspeckle=0.05\n")


def test_manifest_without_warp_norm_reads_as_identity_norm():
    # the criterion-9 recipe
    spec = spec_from_manifest(
        "size=256\nseed=11\nradiometry=gamma\ngamma=0.6\nspeckle_var=0.01\n"
        "warp_family=polynomial\nwarp_order=1\n"
        "warp_num_x=3.0e0 1.0e0 0.0e0\nwarp_den_x=1.0e0 0.0e0 0.0e0\n"
        "warp_num_y=-2.0e0 0.0e0 1.0e0\nwarp_den_y=1.0e0 0.0e0 0.0e0\n")
    assert spec.warp.norm == Normalization()
    assert spec.warp.apply(10.0, 20.0) == (13.0, 18.0)
    assert spec_to_manifest(spec).endswith(
        "warp_norm=" + " ".join(["0.00000000000000000e+00",
                                 "1.00000000000000000e+00"] * 5) + "\n")


def test_manifest_round_trips_an_rfm_denom_mode():
    rng = np.random.default_rng(22)
    warp = FittedModel.from_coefficients(
        model_spec_from_name("rfm1_shared"), rng.normal(size=4),
        rng.normal(size=4), [1.0, 0.1, 0.0, 0.02], [1.0, 0.1, 0.0, 0.02],
        Normalization(*rng.uniform(1.0, 2.0, 10)))
    text = spec_to_manifest(SynthSpec(size=32, warp=warp))
    assert "warp_denom_mode=shared\n" in text
    back = spec_from_manifest(text)
    assert back.warp.spec == warp.spec
    assert back.warp.norm == warp.norm
    for key in ("num_x", "den_x", "num_y", "den_y"):
        assert np.array_equal(getattr(back.warp, key), getattr(warp, key))
    assert spec_to_manifest(back) == text
