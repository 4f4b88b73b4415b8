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
on the true residual, each step solved from R of one QR of the augmented
system [J | r]; one solver serves every denominator mode.

A fitted model is evaluated at scattered points (``FittedModel.apply``) or on
a lattice of column and row coordinates (``FittedModel.apply_lattice``), where
each monomial is an outer product and each polynomial a few small matrix
products; a warp onto a grid without shear and the denominator probe of a fit
use the lattice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass, field
from typing import NamedTuple

import numpy as np

from .raster import parse_records


class InsufficientControlPointsError(ValueError):
    """Fewer control points than the model minimum."""


class DegenerateFitError(RuntimeError):
    """Control point configuration leaves the design matrix rank-deficient."""


_COEFF_VECTORS = ("num_x", "den_x", "num_y", "den_y")

# |denominator| below this (normalized units) marks an evaluation failure
DENOM_EPS = 1e-12
# rank cutoff relative to the largest singular value of the design matrix
RANK_RTOL = 1e-10
# Gauss-Newton refinement of rational fits: iteration cap, and the score
# improvement below which a step ends the refinement
_GN_MAX_ITERS = 10
_GN_TOL = 1e-10
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


class _Family(NamedTuple):
    prefix: str  # of the model names
    basis_orders: dict  # allowed order -> polynomial order of the basis
    dims: int  # monomial axes: 3 where the basis includes the height Z
    denominators: dict  # allowed denom_mode -> unit, shared or distinct


# the 17 models; all_model_specs, and so the rows of a sweep, follow this order
_FAMILIES = {
    "polynomial": _Family("poly", {n: n for n in (1, 2, 3, 4, 5)}, 2,
                          {None: "unit"}),
    "projective": _Family("proj", {10: 1, 22: 2, 38: 3}, 2,
                          {None: "distinct"}),
    "rfm": _Family("rfm", {n: n for n in (1, 2, 3)}, 3,
                   {mode: mode for mode in ("unit", "shared", "distinct")}),
}


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
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.order not in row.basis_orders:
            raise ValueError(f"{self.family} order must be one of "
                             f"{tuple(row.basis_orders)}, got {self.order}")
        if self.denom_mode not in row.denominators:
            raise ValueError(f"{self.family} denom_mode must be one of "
                             f"{tuple(row.denominators)}, got {self.denom_mode!r}")

    @property
    def name(self) -> str:
        mode = f"_{self.denom_mode}" if self.denom_mode is not None else ""
        return f"{_FAMILIES[self.family].prefix}{self.order}{mode}"

    @property
    def basis_order(self) -> int:
        """Polynomial order of the underlying basis."""
        return _FAMILIES[self.family].basis_orders[self.order]

    @property
    def dims(self) -> int:
        """Monomial axes: 2 over (X, Y), or 3 where the model also takes the
        reference height Z."""
        return _FAMILIES[self.family].dims

    @property
    def basis_size(self) -> int:
        return len(_exponents(self.basis_order, self.dims))

    @property
    def denominators(self) -> str:
        """``unit`` (both denominators are 1), ``shared`` (one common
        denominator) or ``distinct`` (one per coordinate). A projective
        model is a 2D rational with distinct denominators."""
        return _FAMILIES[self.family].denominators[self.denom_mode]

    @property
    def param_count(self) -> int:
        # b numerator terms per coordinate, b - 1 free terms per denominator
        b = self.basis_size
        n_dens = {"unit": 0, "shared": 1, "distinct": 2}[self.denominators]
        return 2 * b + n_dens * (b - 1)


def model_spec_from_name(name: str) -> ModelSpec:
    """Parse a canonical model name like ``poly3``, ``proj22``, ``rfm2_shared``.

    A name that parses to a model but is not its name, such as ``poly03``,
    ``poly 3`` or ``proj1_0`` (``int`` takes zeros, spaces and underscores),
    is rejected."""
    for family, row in _FAMILIES.items():
        if name.startswith(row.prefix):
            order, mode = name[len(row.prefix):], None
            if None not in row.denominators:  # names end in _<denom_mode>
                order, _, mode = order.partition("_")
            spec = ModelSpec(family, int(order), mode or None)
            if spec.name != name:
                raise ValueError(f"model name {name!r} is not canonical "
                                 f"(did you mean {spec.name!r}?)")
            return spec
    raise ValueError(f"unknown model name {name!r}")


def all_model_specs() -> list[ModelSpec]:
    """Every supported model: 5 polynomial + 3 projective + 9 rfm."""
    return [ModelSpec(family, order, mode)
            for family, row in _FAMILIES.items()
            for order in row.basis_orders for mode in row.denominators]


def min_cp_count(spec: ModelSpec) -> int:
    """Smallest control point count that determines the model: each point
    gives one equation per coordinate, so half the parameter count."""
    return math.ceil(spec.param_count / 2)


# ---------------------------------------------------------------------------
# Monomial bases


@functools.cache  # every model evaluation and fit asks again
def _exponents(order: int, dims: int) -> tuple:
    """Exponent tuples of the monomials in ``dims`` axes of total degree at
    most ``order``: total degree ascending, then descending power of the
    first axis, then of the second."""
    candidates = itertools.product(range(order + 1), repeat=dims)
    return tuple(sorted((e for e in candidates if sum(e) <= order),
                        key=lambda e: (sum(e), [-x for x in e])))


def _basis(axes, order: int) -> np.ndarray:
    """The monomials of _exponents(order, len(axes)), stacked along the last
    axis; each is the left-to-right product of its axes' powers, and each
    power of an axis is taken once."""
    powers = [[np.asarray(a, dtype=np.float64) ** e for e in range(order + 1)]
              for a in axes]
    return np.stack([math.prod(p[e] for p, e in zip(powers, exps))
                     for exps in _exponents(order, len(axes))], axis=-1)


def _powers(values, order: int) -> list:
    """[values, values**2, ..., values**order], each power the previous one
    times ``values``."""
    powers = [values]
    for _ in range(1, order):
        powers.append(powers[-1] * values)
    return powers


def _monomial_sums(axes, exponents, coeff_vecs) -> list:
    """For each coefficient vector c, the sum over k of c[k] times monomial k
    of the equal-shape arrays ``axes``, where monomial k raises axis a to
    ``exponents[k][a]``.

    Powers come from per-axis tables, and each monomial is added into every
    sum in place, so the (N, basis) monomial matrix is never formed.
    ``exponents[0]`` is the constant.
    """
    order = max(max(e) for e in exponents)
    tables = [[None] + _powers(a, order) for a in axes]
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


def _lattice_sums(x, y, z, order: int, coeff_vecs) -> list:
    """_monomial_sums over the lattice of the vectors ``y`` (rows) and ``x``
    (columns), with heights ``z`` broadcast against the (rows, columns)
    frame, or None for monomials in (x, y) alone.

    A monomial x^a y^b z^e is an outer product, so per power e of z each
    sum is the matrix product (y powers) @ C[e] @ (x powers), where
    C[e][b, a] holds the coefficient of x^a y^b z^e; the parts are then
    added up weighted by the powers of z. Only z has per-point powers, and
    no per-point monomial is formed.
    """
    dims = 2 if z is None else 3
    exponents = _exponents(order, dims)
    col_powers = np.stack([np.ones_like(x)] + _powers(x, order))
    row_powers = np.stack([np.ones_like(y)] + _powers(y, order), axis=1)
    z_powers = [] if z is None else _powers(z, order)
    sums = []
    for c in coeff_vecs:
        C = np.zeros((len(z_powers) + 1, order + 1, order + 1))
        for k, (a, b, *e) in enumerate(exponents):
            C[e[0] if e else 0, b, a] = c[k]
        parts = row_powers @ C @ col_powers
        total = parts[0]
        for part, zp in zip(parts[1:], z_powers):
            total = total + part * zp
        sums.append(total)
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


def _numbers(value: str) -> np.ndarray:
    return np.array([float(t) for t in value.split()])


def _norm(value: str) -> Normalization:
    terms = value.split()
    if len(terms) != 10:
        raise ValueError(f"needs 10 numbers, got {len(terms)}")
    return Normalization(*map(float, terms))


# the fields of a model's text form, in file order, each with its parser
MODEL_FIELDS = {"family": str, "order": int, "denom_mode": str, "norm": _norm,
                **dict.fromkeys(_COEFF_VECTORS, _numbers)}


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
    norm: Normalization = field(default_factory=Normalization)
    warning: str | None = None
    cp_residuals: np.ndarray | None = None

    def __post_init__(self):
        b = self.spec.basis_size
        for key in _COEFF_VECTORS:
            vec = np.asarray(getattr(self, key), dtype=np.float64)
            setattr(self, key, vec)
            if vec.shape != (b,):
                raise ValueError(f"{key} must have {b} coefficients for "
                                 f"{self.spec.name}, got {vec.shape}")
        if self.den_x[0] != 1.0 or self.den_y[0] != 1.0:
            raise ValueError("denominator constant terms must equal 1")

    @classmethod
    def from_coefficients(cls, spec: ModelSpec, num_x, num_y,
                          den_x=None, den_y=None,
                          norm: Normalization | None = None) -> "FittedModel":
        """Build a model from explicit coefficients (ground-truth warps); a
        denominator left out is 1."""
        unit = np.eye(1, spec.basis_size)[0]
        return cls(spec=spec, num_x=num_x, num_y=num_y,
                   den_x=unit if den_x is None else den_x,
                   den_y=unit.copy() if den_y is None else den_y,
                   norm=norm if norm is not None else Normalization())

    @property
    def has_unit_denominators(self) -> bool:
        """Both denominators are identically 1, as in every polynomial and
        rfm ``unit`` model, so evaluation cannot divide by zero."""
        return bool((self.den_x[1:] == 0).all() and (self.den_y[1:] == 0).all())

    def _coefficient_vectors(self) -> tuple:
        """num_x, num_y, then den_x, den_y unless both are identically 1."""
        if self.has_unit_denominators:
            return self.num_x, self.num_y
        return self.num_x, self.num_y, self.den_x, self.den_y

    def _map_out(self, sums):
        """Sensed map coordinates from the monomial sums of the
        _coefficient_vectors: numerator over denominator, NaN where the
        denominator magnitude falls below DENOM_EPS. Unit denominators were
        skipped, which is exact since x / 1.0 == x."""
        un, vn, *dens = sums
        if dens:
            with np.errstate(divide="ignore", invalid="ignore"):
                un, vn = (np.where(np.abs(den) < DENOM_EPS, np.nan, num / den)
                          for num, den in ((un, dens[0]), (vn, dens[1])))
        return self.norm.inv_out(un, vn)

    def apply(self, ref_x, ref_y, ref_z=None):
        """Evaluate the model at reference coordinates.

        Returns sensed (x, y) in map units, broadcast over the inputs, as
        Python floats for scalar inputs. Points where a denominator
        magnitude falls below DENOM_EPS evaluate to NaN. ``ref_z`` is
        required by a model over (X, Y, Z) and ignored otherwise.
        """
        coords = (ref_x, ref_y)
        if self.spec.dims == 3:
            if ref_z is None:
                raise ValueError(f"{self.spec.name} evaluation needs ref_z")
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
        axes = [a for a in self.norm.fwd_in(X, Y, Z) if a is not None]
        exponents = _exponents(self.spec.basis_order, len(axes))
        return self._map_out(_monomial_sums(axes, exponents,
                                            self._coefficient_vectors()))

    def apply_lattice(self, ref_x, ref_y, ref_z=None):
        """Evaluate the model on the lattice of the reference map x of each
        column (vector ``ref_x``) and map y of each row (vector ``ref_y``).

        Returns sensed (x, y) as (rows, columns) arrays: apply(ref_x[None, :],
        ref_y[:, None], ref_z) up to rounding in the sums, with NaN at the
        same points. ``ref_z``, the heights broadcast against that frame, is
        required by a model over (X, Y, Z) and ignored otherwise.
        """
        if self.spec.dims == 3 and ref_z is None:
            raise ValueError(f"{self.spec.name} evaluation needs ref_z")
        xn, yn, zn = self.norm.fwd_in(ref_x, ref_y,
                                      ref_z if self.spec.dims == 3 else None)
        return self._map_out(_lattice_sums(xn, yn, zn, self.spec.basis_order,
                                           self._coefficient_vectors()))

    # -- text serialization: the fields of a model file, which a synthetic
    # scene's manifest also carries as its warp_* keys

    def to_fields(self) -> dict:
        """The model's text fields in file order: family, order, denom_mode
        (rfm only), norm and the four coefficient vectors, each number
        written with 17 significant digits so that it reads back exactly."""
        fields = {"family": self.spec.family, "order": str(self.spec.order)}
        if self.spec.denom_mode is not None:
            fields["denom_mode"] = self.spec.denom_mode
        numbers = {"norm": astuple(self.norm),
                   **{key: getattr(self, key) for key in _COEFF_VECTORS}}
        for key, vec in numbers.items():
            fields[key] = " ".join(f"{c:.17e}" for c in vec)
        return fields

    @classmethod
    def from_fields(cls, fields: dict) -> "FittedModel":
        """Inverse of to_fields on values parsed by MODEL_FIELDS: a missing
        ``norm`` is the identity and ``warning`` None; others are required."""
        for key in ("family", "order") + _COEFF_VECTORS:
            if key not in fields:
                raise ValueError(f"model lacks the {key!r} field")
        spec = ModelSpec(fields["family"], fields["order"],
                         fields.get("denom_mode"))
        return cls(spec=spec, norm=fields.get("norm", Normalization()),
                   warning=fields.get("warning"),
                   **{key: fields[key] for key in _COEFF_VECTORS})

    def to_text(self) -> str:
        lines = [f"model {self.spec.name}"]
        lines += [f"{key} {value}" for key, value in self.to_fields().items()]
        if self.warning:
            lines.append(f"warning {self.warning}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FittedModel":
        fields = parse_records(
            text, {"model": str, **MODEL_FIELDS, "warning": str}, sep=" ")
        if "norm" not in fields:
            raise ValueError("model text lacks 'norm' line")
        model = cls.from_fields(fields)
        named = fields.get("model", model.spec.name)
        if named != model.spec.name:
            raise ValueError(f"model line names {named!r} but the fields "
                             f"describe {model.spec.name!r}")
        return model


# ---------------------------------------------------------------------------
# Fitting


def _solve_lsq(A: np.ndarray, *rhs: np.ndarray) -> list:
    """Least squares via one SVD of ``A`` with an explicit rank gate: the
    solution for each right-hand side, each solved on its own."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise DegenerateFitError(
            f"design matrix is rank deficient ({A.shape[0]}x{A.shape[1]}, "
            f"singular value ratio {s[-1] / max(s[0], 1e-300):.2e})")
    return [Vt.T @ ((U.T @ b) / s) for b in rhs]


def _rational_score(A, params, obs):
    """Root of the summed squared per-coordinate RMSEs of the rationals
    over the design ``A`` with the parameter vector ``params`` (see
    _fit_rational) against obs[i]; inf when the denominator vanishes at a
    control point. With one coordinate this is its RMSE. Returns (score,
    den, preds): the denominator at the control points and each
    coordinate's prediction (None when the denominator vanishes)."""
    b = A.shape[1]
    den = 1.0 + A[:, 1:] @ params[len(obs) * b:]
    if np.any(np.abs(den) < DENOM_EPS):
        return np.inf, den, None
    preds = [(A @ params[i * b:(i + 1) * b]) / den for i in range(len(obs))]
    rmses = []
    for p, o in zip(preds, obs):
        r = p - o
        rmses.append(float(np.sqrt(np.mean(r * r))))
    return math.hypot(*rmses), den, preds


def _fill_system(system, A, den, weights, rhs):
    """Write in place the stacked system whose row block i holds A / den on
    coordinate i's numerator columns, -weights[i] times A's non-constant
    columns on the denominator columns, and rhs[i] in the last column. The
    other coordinates' numerator columns keep their zeros."""
    n, b = A.shape
    for i, (w, r) in enumerate(zip(weights, rhs)):
        rows = system[i * n:(i + 1) * n]
        np.divide(A, den[:, None], out=rows[:, i * b:(i + 1) * b])
        np.multiply(-w[:, None], A[:, 1:], out=rows[:, -b:-1])
        rows[:, -1] = r


def _gn_step(system: np.ndarray) -> np.ndarray:
    """The least-squares solution delta of J delta = r, where ``system`` is
    the augmented [J | r] with J of full column rank p: R of one QR of the
    system, Q never formed, gives R[:p, :p] delta = R[:p, p]. Raises
    LinAlgError when R[:p, :p] is singular."""
    p = system.shape[1] - 1
    R = np.linalg.qr(system, mode="r")
    return np.linalg.solve(R[:p, :p], R[:p, p])


def _fit_rational(A: np.ndarray, obs: list):
    """Fit one numerator per observation vector over one common denominator
    with its constant fixed at 1: N_i(X) / D(X) ~ obs[i].

    Solves the linearized equations N_i - obs[i] * D_free = obs[i] jointly,
    then runs Gauss-Newton on the true rational residual, rejecting any
    step that does not lower the score. Returns (nums, den_free).
    """
    n, b = A.shape
    k = len(obs)
    # columns: the numerator of each observation vector in obs order, the
    # free denominator terms, then the right-hand side; every solve and
    # step rewrites this one array
    system = np.zeros((k * n, (k + 1) * b))
    _fill_system(system, A, np.ones(n), obs, obs)
    # a contiguous right-hand side: U.T @ b rounds differently on a strided b
    (params,) = _solve_lsq(system[:, :-1], system[:, -1].copy())

    best, den, preds = _rational_score(A, params, obs)
    for _ in range(_GN_MAX_ITERS):
        if preds is None:
            break
        # the Jacobian of the predictions, and the residual o - p
        _fill_system(system, A, den, [p / den for p in preds],
                     [o - p for p, o in zip(preds, obs)])
        try:
            delta = _gn_step(system)
        except np.linalg.LinAlgError:
            break
        cand = params + delta
        score, *scored = _rational_score(A, cand, obs)
        if not math.isfinite(score) or score >= best:
            break
        improvement = best - score
        params, best = cand, score
        den, preds = scored
        if improvement < _GN_TOL:
            break
    return [params[i * b:(i + 1) * b] for i in range(k)], params[k * b:]


def _with_unit_constant(den_free: np.ndarray) -> np.ndarray:
    return np.concatenate([[1.0], den_free])


def _denominator_warning(model: FittedModel, has_z: bool) -> str | None:
    """Probe each denominator on a 21x21 lattice over the normalized CP
    bounding box (at 5 heights across it for a model over (X, Y, Z) whose
    points differ in height, else at height 0); the fit maps that box to
    [-1, 1] per axis, so a sign change or near-zero sample there means the
    model divides by ~0 inside the data hull."""
    if model.has_unit_denominators:
        return None
    axis = np.linspace(-1.0, 1.0, 21)
    z = None
    if model.spec.dims == 3:
        z = np.linspace(-1.0, 1.0, 5) if has_z else np.zeros(1)
        z = z[:, None, None]
    for den in _lattice_sums(axis, axis, z, model.spec.basis_order,
                             (model.den_x, model.den_y)):
        if np.min(den) < 1e-6:
            return "denominator-near-zero"
    return None


class ControlPointArrays(NamedTuple):
    """Control points as float64 arrays: reference map coordinates X, Y,
    sensed map coordinates u, v, and reference heights Z (None for a model
    over (X, Y)). Its length is 5, the field count: ``X.size`` counts."""

    X: np.ndarray
    Y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    Z: np.ndarray | None

    def take(self, index) -> "ControlPointArrays":
        """The points that ``index`` selects: a slice, indices or a mask."""
        return ControlPointArrays(*(a if a is None else a[index]
                                    for a in self))


def control_point_arrays(cps, spec: ModelSpec) -> ControlPointArrays:
    """The control points ``cps``, a list of ControlPoint or a
    ControlPointArrays record, as the record that ``spec`` takes: heights
    only for a model over (X, Y, Z). Raises ValueError when ``spec`` takes
    heights and a point has no ``ref_z``."""
    if isinstance(cps, ControlPointArrays):
        X, Y, u, v, Z = cps
    else:
        X, Y, u, v = (np.array([getattr(cp, key) for cp in cps],
                               dtype=np.float64)
                      for key in ("ref_x", "ref_y", "sensed_x", "sensed_y"))
        Z = None
        if spec.dims == 3 and all(cp.ref_z is not None for cp in cps):
            Z = np.array([cp.ref_z for cp in cps], dtype=np.float64)
    if spec.dims == 2:
        return ControlPointArrays(X, Y, u, v, None)
    if Z is None:
        raise ValueError(f"{spec.name} requires ref_z on every control point")
    return ControlPointArrays(X, Y, u, v, Z)


def fit(spec: ModelSpec, cps) -> FittedModel:
    """Least-squares fit of ``spec`` to control points: a list of
    ControlPoint or a ControlPointArrays record.

    Raises:
        InsufficientControlPointsError: fewer points than min_cp_count.
        DegenerateFitError: rank-deficient configuration.
        ValueError: non-finite coordinates, or rfm without elevations.
    """
    X, Y, u, v, Z = control_point_arrays(cps, spec)
    need = min_cp_count(spec)
    if X.size < need:
        raise InsufficientControlPointsError(
            f"{spec.name} needs at least {need} control points, got {X.size}")
    stacked = [X, Y, u, v] + ([Z] if Z is not None else [])
    if not all(np.all(np.isfinite(a)) for a in stacked):
        raise ValueError("control points contain non-finite coordinates")

    norm = Normalization.from_points(X, Y, u, v, Z)
    un, vn = norm.fwd_out(u, v)
    A = _basis([a for a in norm.fwd_in(X, Y, Z) if a is not None],
               spec.basis_order)

    # nums: numerator per coordinate; dens: its denominator's free terms
    mode = spec.denominators
    if mode == "unit":
        nums = _solve_lsq(A, un, vn)
        dens = [np.zeros(A.shape[1] - 1)] * 2
    elif mode == "shared":
        nums, den_free = _fit_rational(A, [un, vn])
        dens = [den_free] * 2
    else:
        fits = [_fit_rational(A, [obs]) for obs in (un, vn)]
        nums = [num for (num,), _ in fits]
        dens = [den_free for _, den_free in fits]

    model = FittedModel(spec=spec,
                        num_x=nums[0], den_x=_with_unit_constant(dens[0]),
                        num_y=nums[1], den_y=_with_unit_constant(dens[1]),
                        norm=norm)
    has_z = Z is not None and float(Z.max() - Z.min()) > 0.0
    model.warning = _denominator_warning(model, has_z)

    # the model at the control points, from the design matrix of the fit
    px, py = model._map_out([A @ c for c in model._coefficient_vectors()])
    model.cp_residuals = np.hypot(px - u, py - v)
    return model
