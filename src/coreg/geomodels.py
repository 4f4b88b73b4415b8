"""Geometric transformation models mapping reference coordinates to sensed
coordinates, with least-squares estimation.

Three families are provided:

* ``polynomial`` -- 2D polynomials of order 1..5 in (X, Y).
* ``projective`` -- extended projective models with 10, 22, or 38 parameters:
  each output coordinate is an independent rational of two 2D polynomials of
  order 1..3 (denominator constant fixed at 1).
* ``rfm`` -- rational function models of order 1..3 in (X, Y, Z) with three
  denominator modes: ``unit`` (both denominators identically 1), ``shared``
  (one common denominator), ``distinct`` (a denominator per coordinate).

All fits normalize coordinates per axis into [-1, 1] before solving; raw
high-order monomials of map coordinates (~1e6 m) would destroy conditioning.
Rational fits are linearized, solved, then refined by Gauss-Newton iterations
on the true residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .raster import RasterGrid, sample_bilinear


class InsufficientControlPointsError(ValueError):
    """Fewer control points than the model minimum."""


class DegenerateFitError(RuntimeError):
    """Control point configuration leaves the design matrix rank-deficient."""


_PROJECTIVE_ORDER = {10: 1, 22: 2, 38: 3}
_RFM_DENOM_MODES = ("unit", "shared", "distinct")

# |denominator| below this (normalized units) marks an evaluation failure
DENOM_EPS = 1e-12
# rank cutoff relative to the largest singular value of the design matrix
RANK_RTOL = 1e-10
# points per FittedModel.apply block: a block's power tables and running sums
# (about 14 arrays of 128 KiB) stay in cache between the passes over them
_APPLY_BLOCK = 16384


@dataclass(frozen=True)
class ControlPoint:
    """A matched reference/sensed coordinate pair in map units.

    ``ref_z`` is the reference-side elevation in meters, required only by
    rational function models.
    """

    ref_x: float
    ref_y: float
    sensed_x: float
    sensed_y: float
    ref_z: float | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Declaration of one transformation model.

    ``order`` is family-dependent: polynomial order 1..5, projective
    parameter count 10|22|38, rfm order 1..3. ``denom_mode`` applies to rfm
    only.
    """

    family: str
    order: int
    denom_mode: str | None = None

    def __post_init__(self):
        if self.family == "polynomial":
            if self.order not in (1, 2, 3, 4, 5):
                raise ValueError(f"polynomial order must be 1..5, got {self.order}")
            if self.denom_mode is not None:
                raise ValueError("denom_mode applies to rfm only")
        elif self.family == "projective":
            if self.order not in _PROJECTIVE_ORDER:
                raise ValueError(
                    f"projective parameter count must be 10, 22 or 38, got {self.order}")
            if self.denom_mode is not None:
                raise ValueError("denom_mode applies to rfm only")
        elif self.family == "rfm":
            if self.order not in (1, 2, 3):
                raise ValueError(f"rfm order must be 1..3, got {self.order}")
            if self.denom_mode not in _RFM_DENOM_MODES:
                raise ValueError(f"rfm denom_mode must be one of "
                                 f"{_RFM_DENOM_MODES}, got {self.denom_mode!r}")
        else:
            raise ValueError(f"unknown model family {self.family!r}")

    @property
    def name(self) -> str:
        if self.family == "polynomial":
            return f"poly{self.order}"
        if self.family == "projective":
            return f"proj{self.order}"
        return f"rfm{self.order}_{self.denom_mode}"

    @property
    def basis_order(self) -> int:
        """Polynomial order of the underlying basis."""
        if self.family == "projective":
            return _PROJECTIVE_ORDER[self.order]
        return self.order

    @property
    def basis_size(self) -> int:
        n = self.basis_order
        if self.family == "rfm":
            return (n + 1) * (n + 2) * (n + 3) // 6
        return (n + 1) * (n + 2) // 2

    @property
    def param_count(self) -> int:
        b = self.basis_size
        if self.family == "polynomial":
            return 2 * b
        if self.family == "projective":
            return self.order
        if self.denom_mode == "unit":
            return 2 * b
        if self.denom_mode == "shared":
            return 3 * b - 1
        return 4 * b - 2


def model_spec_from_name(name: str) -> ModelSpec:
    """Parse a canonical model name like ``poly3``, ``proj22``, ``rfm2_shared``."""
    if name.startswith("poly"):
        return ModelSpec("polynomial", int(name[4:]))
    if name.startswith("proj"):
        return ModelSpec("projective", int(name[4:]))
    if name.startswith("rfm"):
        head, _, mode = name.partition("_")
        if mode:
            return ModelSpec("rfm", int(head[3:]), mode)
    raise ValueError(f"unknown model name {name!r}")


def all_model_specs() -> list[ModelSpec]:
    """Every supported model: 5 polynomial + 3 projective + 9 rfm."""
    specs = [ModelSpec("polynomial", n) for n in range(1, 6)]
    specs += [ModelSpec("projective", p) for p in (10, 22, 38)]
    specs += [ModelSpec("rfm", n, mode)
              for n in (1, 2, 3) for mode in _RFM_DENOM_MODES]
    return specs


def min_cp_count(spec: ModelSpec) -> int:
    """Smallest control point count that determines the model.

    Polynomials and per-coordinate rationals need one point per unknown of a
    single coordinate equation; the shared-denominator rfm couples both
    equations, so each point contributes two.
    """
    b = spec.basis_size
    if spec.family == "polynomial":
        return b
    if spec.family == "projective":
        return 2 * b - 1
    if spec.denom_mode == "unit":
        return b
    if spec.denom_mode == "shared":
        return -(-(3 * b - 1) // 2)
    return 2 * b - 1


# ---------------------------------------------------------------------------
# Monomial bases


def _exponents_2d(order: int) -> list[tuple[int, int]]:
    # total degree ascending, then descending power of X
    return [(i, deg - i)
            for deg in range(order + 1)
            for i in range(deg, -1, -1)]


def _exponents_3d(order: int) -> list[tuple[int, int, int]]:
    return [(i, j, deg - i - j)
            for deg in range(order + 1)
            for i in range(deg, -1, -1)
            for j in range(deg - i, -1, -1)]


def poly_basis(X, Y, order: int) -> np.ndarray:
    """Monomials X^i Y^j with i+j <= order, stacked along the last axis.

    Ordered by total degree then by descending i: order 2 gives
    [1, X, Y, X^2, XY, Y^2].
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    return np.stack([X ** i * Y ** j for i, j in _exponents_2d(order)], axis=-1)


def poly_basis_3d(X, Y, Z, order: int) -> np.ndarray:
    """Monomials X^i Y^j Z^k with i+j+k <= order, same graded ordering."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    return np.stack([X ** i * Y ** j * Z ** k
                     for i, j, k in _exponents_3d(order)], axis=-1)


def _monomial_sums(axes, exponents, coeff_vecs) -> list:
    """For each coefficient vector c, the sum over k of c[k] times monomial k
    of the equal-shape arrays ``axes``, where monomial k raises axis a to
    ``exponents[k][a]``.

    Powers come from per-axis tables built by repeated multiplication, and
    each monomial is added into every sum in place, so the (N, basis)
    monomial matrix is never formed. ``exponents[0]`` is the constant.
    """
    order = max(max(e) for e in exponents)
    tables = []
    for a in axes:
        table = [None, a]
        for _ in range(2, order + 1):
            table.append(table[-1] * a)
        tables.append(table)
    shape = axes[0].shape
    sums = [np.full(shape, c[0]) for c in coeff_vecs]
    product = np.empty(shape)
    scaled = np.empty(shape)
    for k, exps in enumerate(exponents[1:], 1):
        factors = [table[e] for table, e in zip(tables, exps) if e]
        monomial = factors[0]
        if len(factors) > 1:
            monomial = np.multiply(factors[0], factors[1], out=product)
            for f in factors[2:]:
                monomial *= f
        for total, c in zip(sums, coeff_vecs):
            np.multiply(monomial, c[k], out=scaled)
            total += scaled
    return sums


# ---------------------------------------------------------------------------
# Normalization


def _axis_norm(values: np.ndarray) -> tuple[float, float]:
    lo = float(values.min())
    hi = float(values.max())
    off = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo)
    if scale == 0.0:
        scale = 1.0
    return off, scale


@dataclass(frozen=True)
class Normalization:
    """Per-axis affine rescaling applied before monomial evaluation.

    Inputs (X, Y, Z) and outputs (x, y) each get an offset/scale pair so the
    fit sees coordinates in [-1, 1]. Stored with the model so evaluation is
    self-contained.
    """

    x_off: float = 0.0
    x_scale: float = 1.0
    y_off: float = 0.0
    y_scale: float = 1.0
    z_off: float = 0.0
    z_scale: float = 1.0
    u_off: float = 0.0
    u_scale: float = 1.0
    v_off: float = 0.0
    v_scale: float = 1.0

    @classmethod
    def identity(cls) -> "Normalization":
        return cls()

    @classmethod
    def from_points(cls, X, Y, u, v, Z=None) -> "Normalization":
        x_off, x_scale = _axis_norm(np.asarray(X, float))
        y_off, y_scale = _axis_norm(np.asarray(Y, float))
        u_off, u_scale = _axis_norm(np.asarray(u, float))
        v_off, v_scale = _axis_norm(np.asarray(v, float))
        z_off, z_scale = (0.0, 1.0) if Z is None else _axis_norm(np.asarray(Z, float))
        return cls(x_off, x_scale, y_off, y_scale, z_off, z_scale,
                   u_off, u_scale, v_off, v_scale)

    def fwd_in(self, X, Y, Z=None):
        Xn = (np.asarray(X, float) - self.x_off) / self.x_scale
        Yn = (np.asarray(Y, float) - self.y_off) / self.y_scale
        if Z is None:
            return Xn, Yn, None
        Zn = (np.asarray(Z, float) - self.z_off) / self.z_scale
        return Xn, Yn, Zn

    def fwd_out(self, u, v):
        return ((np.asarray(u, float) - self.u_off) / self.u_scale,
                (np.asarray(v, float) - self.v_off) / self.v_scale)

    def inv_out(self, un, vn):
        return un * self.u_scale + self.u_off, vn * self.v_scale + self.v_off

    def as_tuple(self) -> tuple:
        return (self.x_off, self.x_scale, self.y_off, self.y_scale,
                self.z_off, self.z_scale, self.u_off, self.u_scale,
                self.v_off, self.v_scale)


# ---------------------------------------------------------------------------
# Fitted model


@dataclass
class FittedModel:
    """One solved transformation: per-coordinate numerator/denominator
    coefficients over the spec's monomial basis, plus the normalization.

    Denominator vectors span the full basis with the constant fixed at 1;
    polynomial and unit-denominator models store [1, 0, ..., 0].
    """

    spec: ModelSpec
    num_x: np.ndarray
    den_x: np.ndarray
    num_y: np.ndarray
    den_y: np.ndarray
    norm: Normalization = field(default_factory=Normalization.identity)
    warning: str | None = None
    cp_residuals: np.ndarray | None = None

    def __post_init__(self):
        b = self.spec.basis_size
        self.num_x = np.asarray(self.num_x, dtype=np.float64)
        self.den_x = np.asarray(self.den_x, dtype=np.float64)
        self.num_y = np.asarray(self.num_y, dtype=np.float64)
        self.den_y = np.asarray(self.den_y, dtype=np.float64)
        for label, vec in (("num_x", self.num_x), ("den_x", self.den_x),
                           ("num_y", self.num_y), ("den_y", self.den_y)):
            if vec.shape != (b,):
                raise ValueError(f"{label} must have {b} coefficients for "
                                 f"{self.spec.name}, got {vec.shape}")
        if self.den_x[0] != 1.0 or self.den_y[0] != 1.0:
            raise ValueError("denominator constant terms must equal 1")

    @property
    def coeffs_x(self) -> np.ndarray:
        return np.concatenate([self.num_x, self.den_x[1:]])

    @property
    def coeffs_y(self) -> np.ndarray:
        return np.concatenate([self.num_y, self.den_y[1:]])

    @property
    def param_count(self) -> int:
        return self.spec.param_count

    @classmethod
    def from_coefficients(cls, spec: ModelSpec, num_x, num_y,
                          den_x=None, den_y=None,
                          norm: Normalization | None = None) -> "FittedModel":
        """Build a model from explicit coefficients (ground-truth warps)."""
        b = spec.basis_size
        unit = np.zeros(b)
        unit[0] = 1.0
        return cls(spec=spec,
                   num_x=np.asarray(num_x, float),
                   den_x=unit.copy() if den_x is None else np.asarray(den_x, float),
                   num_y=np.asarray(num_y, float),
                   den_y=unit.copy() if den_y is None else np.asarray(den_y, float),
                   norm=norm if norm is not None else Normalization.identity())

    @property
    def has_unit_denominators(self) -> bool:
        """Both denominators are identically 1, as in every polynomial and
        rfm ``unit`` model, so evaluation cannot divide by zero."""
        return bool((self.den_x[1:] == 0).all() and (self.den_y[1:] == 0).all())

    def apply(self, ref_x, ref_y, ref_z=None):
        """Evaluate the model at reference coordinates.

        Returns sensed (x, y) in map units, broadcast over the inputs, as
        Python floats for scalar inputs. Points where a denominator
        magnitude falls below DENOM_EPS evaluate to NaN. ``ref_z`` is
        required for rfm and ignored otherwise.
        """
        coords = (ref_x, ref_y)
        if self.spec.family == "rfm":
            if ref_z is None:
                raise ValueError("rational function model evaluation needs ref_z")
            coords += (ref_z,)
        coords = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64)
                                       for c in coords))
        shape = coords[0].shape
        flat = [c.ravel() for c in coords]
        u = np.empty(flat[0].size)
        v = np.empty(flat[0].size)
        for start in range(0, u.size, _APPLY_BLOCK):
            block = slice(start, start + _APPLY_BLOCK)
            u[block], v[block] = self._apply_block(*(c[block] for c in flat))
        if not shape:
            return float(u[0]), float(v[0])
        return u.reshape(shape), v.reshape(shape)

    def _apply_block(self, X, Y, Z=None):
        axes = self.norm.fwd_in(X, Y, Z)
        if Z is None:
            axes = axes[:2]
            exponents = _exponents_2d(self.spec.basis_order)
        else:
            exponents = _exponents_3d(self.spec.basis_order)
        if self.has_unit_denominators:
            # x / 1.0 == x, so skipping the denominators is exact
            un, vn = _monomial_sums(axes, exponents, (self.num_x, self.num_y))
        else:
            num_u, num_v, den_u, den_v = _monomial_sums(
                axes, exponents, (self.num_x, self.num_y, self.den_x, self.den_y))
            with np.errstate(divide="ignore", invalid="ignore"):
                un = np.where(np.abs(den_u) < DENOM_EPS, np.nan, num_u / den_u)
                vn = np.where(np.abs(den_v) < DENOM_EPS, np.nan, num_v / den_v)
        return self.norm.inv_out(un, vn)

    # -- text serialization

    def to_text(self) -> str:
        def fmt(vec):
            return " ".join(f"{c:.17e}" for c in vec)

        lines = [
            f"model {self.spec.name}",
            f"family {self.spec.family}",
            f"order {self.spec.order}",
        ]
        if self.spec.denom_mode is not None:
            lines.append(f"denom_mode {self.spec.denom_mode}")
        lines.append("norm " + fmt(self.norm.as_tuple()))
        lines.append("num_x " + fmt(self.num_x))
        lines.append("den_x " + fmt(self.den_x))
        lines.append("num_y " + fmt(self.num_y))
        lines.append("den_y " + fmt(self.den_y))
        if self.warning:
            lines.append(f"warning {self.warning}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FittedModel":
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            fields[key] = value
        for key in ("family", "order", "norm", "num_x", "den_x", "num_y", "den_y"):
            if key not in fields:
                raise ValueError(f"model text lacks {key!r} line")
        spec = ModelSpec(fields["family"], int(fields["order"]),
                         fields.get("denom_mode"))
        norm = Normalization(*(float(t) for t in fields["norm"].split()))
        vecs = {k: np.array([float(t) for t in fields[k].split()])
                for k in ("num_x", "den_x", "num_y", "den_y")}
        return cls(spec=spec, norm=norm, warning=fields.get("warning"), **vecs)


# ---------------------------------------------------------------------------
# Fitting


def _solve_lsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares via SVD with an explicit rank gate."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise DegenerateFitError(
            f"design matrix is rank deficient ({A.shape[0]}x{A.shape[1]}, "
            f"singular value ratio {s[-1] / max(s[0], 1e-300):.2e})")
    return Vt.T @ ((U.T @ b) / s)


def _rational_rmse(A, num, den_free, obs):
    den = 1.0 + A[:, 1:] @ den_free
    if np.any(np.abs(den) < DENOM_EPS):
        return np.inf
    r = (A @ num) / den - obs
    return float(np.sqrt(np.mean(r * r)))


def _refine_rational(A, obs, num, den_free, max_iters=10, tol=1e-10):
    """Gauss-Newton on the true rational residual, starting from the
    linearized solution. Worsening steps are rejected."""
    b = A.shape[1]
    best = _rational_rmse(A, num, den_free, obs)
    for _ in range(max_iters):
        den = 1.0 + A[:, 1:] @ den_free
        if np.any(np.abs(den) < DENOM_EPS):
            break
        pred = (A @ num) / den
        r = pred - obs
        J = np.hstack([A / den[:, None],
                       -(pred / den)[:, None] * A[:, 1:]])
        try:
            delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        cand_num = num + delta[:b]
        cand_den = den_free + delta[b:]
        cand = _rational_rmse(A, cand_num, cand_den, obs)
        if not math.isfinite(cand) or cand >= best:
            break
        improvement = best - cand
        num, den_free, best = cand_num, cand_den, cand
        if improvement < tol:
            break
    return num, den_free


def _fit_rational(A: np.ndarray, obs: np.ndarray):
    """Per-coordinate rational fit: N(X)/D(X) with D constant fixed at 1.

    Linearized equations N - obs*D_free = obs, then Gauss-Newton refinement.
    """
    design = np.hstack([A, -obs[:, None] * A[:, 1:]])
    theta = _solve_lsq(design, obs)
    b = A.shape[1]
    num, den_free = _refine_rational(A, obs, theta[:b], theta[b:])
    return num, den_free


def _fit_rational_shared(A: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Joint fit of both coordinates through one common denominator."""
    n, b = A.shape
    zeros = np.zeros_like(A)
    design = np.vstack([
        np.hstack([A, zeros, -u[:, None] * A[:, 1:]]),
        np.hstack([zeros, A, -v[:, None] * A[:, 1:]]),
    ])
    rhs = np.concatenate([u, v])
    theta = _solve_lsq(design, rhs)
    num_u, num_v = theta[:b], theta[b:2 * b]
    den_free = theta[2 * b:]

    best = math.hypot(_rational_rmse(A, num_u, den_free, u),
                      _rational_rmse(A, num_v, den_free, v))
    for _ in range(10):
        den = 1.0 + A[:, 1:] @ den_free
        if np.any(np.abs(den) < DENOM_EPS):
            break
        pred_u = (A @ num_u) / den
        pred_v = (A @ num_v) / den
        r = np.concatenate([pred_u - u, pred_v - v])
        J = np.vstack([
            np.hstack([A / den[:, None], zeros,
                       -(pred_u / den)[:, None] * A[:, 1:]]),
            np.hstack([zeros, A / den[:, None],
                       -(pred_v / den)[:, None] * A[:, 1:]]),
        ])
        try:
            delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        cand = (num_u + delta[:b], num_v + delta[b:2 * b], den_free + delta[2 * b:])
        score = math.hypot(_rational_rmse(A, cand[0], cand[2], u),
                           _rational_rmse(A, cand[1], cand[2], v))
        if not math.isfinite(score) or score >= best:
            break
        improvement = best - score
        num_u, num_v, den_free = cand
        best = score
        if improvement < 1e-10:
            break
    return num_u, num_v, den_free


def _with_unit_constant(den_free: np.ndarray) -> np.ndarray:
    return np.concatenate([[1.0], den_free])


def _denominator_warning(model: FittedModel, has_z: bool) -> str | None:
    """Probe each denominator over the normalized CP bounding box; the fit
    maps that box to [-1, 1] per axis, so a sign change or near-zero sample
    there means the model divides by ~0 inside the data hull."""
    if model.has_unit_denominators:
        return None
    axis = np.linspace(-1.0, 1.0, 21)
    if model.spec.family == "rfm":
        zs = np.linspace(-1.0, 1.0, 5) if has_z else np.array([0.0])
        Xn, Yn, Zn = np.meshgrid(axis, axis, zs, indexing="ij")
        A = poly_basis_3d(Xn.ravel(), Yn.ravel(), Zn.ravel(),
                          model.spec.basis_order)
    else:
        Xn, Yn = np.meshgrid(axis, axis, indexing="ij")
        A = poly_basis(Xn.ravel(), Yn.ravel(), model.spec.basis_order)
    for den in (model.den_x, model.den_y):
        if np.min(A @ den) < 1e-6:
            return "denominator-near-zero"
    return None


def fit(spec: ModelSpec, cps: list, normalize: bool = True) -> FittedModel:
    """Least-squares fit of ``spec`` to control points.

    Raises:
        InsufficientControlPointsError: fewer points than min_cp_count.
        DegenerateFitError: rank-deficient configuration.
        ValueError: non-finite coordinates, or rfm without elevations.
    """
    need = min_cp_count(spec)
    if len(cps) < need:
        raise InsufficientControlPointsError(
            f"{spec.name} needs at least {need} control points, got {len(cps)}")

    X = np.array([cp.ref_x for cp in cps], dtype=np.float64)
    Y = np.array([cp.ref_y for cp in cps], dtype=np.float64)
    u = np.array([cp.sensed_x for cp in cps], dtype=np.float64)
    v = np.array([cp.sensed_y for cp in cps], dtype=np.float64)
    Z = None
    if spec.family == "rfm":
        if any(cp.ref_z is None for cp in cps):
            raise ValueError("rfm fit requires ref_z on every control point")
        Z = np.array([cp.ref_z for cp in cps], dtype=np.float64)
    stacked = [X, Y, u, v] + ([Z] if Z is not None else [])
    if not all(np.all(np.isfinite(a)) for a in stacked):
        raise ValueError("control points contain non-finite coordinates")

    if normalize:
        norm = Normalization.from_points(X, Y, u, v, Z)
    else:
        norm = Normalization.identity()
    Xn, Yn, Zn = norm.fwd_in(X, Y, Z)
    un, vn = norm.fwd_out(u, v)

    b = spec.basis_size
    unit_den = np.zeros(b)
    unit_den[0] = 1.0

    if spec.family == "rfm":
        A = poly_basis_3d(Xn, Yn, Zn, spec.basis_order)
    else:
        A = poly_basis(Xn, Yn, spec.basis_order)

    if spec.family == "polynomial" or (spec.family == "rfm"
                                       and spec.denom_mode == "unit"):
        num_x = _solve_lsq(A, un)
        num_y = _solve_lsq(A, vn)
        den_x = unit_den
        den_y = unit_den.copy()
    elif spec.family == "rfm" and spec.denom_mode == "shared":
        num_x, num_y, den_free = _fit_rational_shared(A, un, vn)
        den_x = _with_unit_constant(den_free)
        den_y = den_x.copy()
    else:
        nx, dx = _fit_rational(A, un)
        ny, dy = _fit_rational(A, vn)
        num_x, den_x = nx, _with_unit_constant(dx)
        num_y, den_y = ny, _with_unit_constant(dy)

    model = FittedModel(spec=spec, num_x=num_x, den_x=den_x,
                        num_y=num_y, den_y=den_y, norm=norm)
    has_z = Z is not None and float(Z.max() - Z.min()) > 0.0
    model.warning = _denominator_warning(model, has_z)

    px, py = model.apply(X, Y, Z)
    model.cp_residuals = np.hypot(px - u, py - v)
    return model


def attach_dem_heights(cps: list, dem: RasterGrid) -> list:
    """Return control points with ref_z set from bilinear DEM samples.

    Raises ValueError naming the first point that falls outside the DEM or
    on nodata.
    """
    out = []
    for i, cp in enumerate(cps):
        c, r = dem.geotransform.geo_to_pixel(cp.ref_x, cp.ref_y)
        z = sample_bilinear(dem, c, r)
        if not math.isfinite(z) or bool(dem.is_nodata(z)):
            raise ValueError(
                f"control point {i} at ({cp.ref_x}, {cp.ref_y}) is outside "
                f"the DEM or hits nodata")
        out.append(replace(cp, ref_z=float(z)))
    return out
