"""Three coordinate models of hyperbolic space at curvature -1.

Points live in the Klein ball, the Poincare ball, or on the upper sheet of
the Lorentz hyperboloid.  All operations are pure functions; conversions
between models are isometries and tangent vectors move with the associated
pushforward maps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

EPS_BALL = 1e-7
# largest argument at which atanh is evaluated, here and in the autodiff tape
ATANH_MAX = 1.0 - 1e-15
# input gate for "nearly valid" Lorentz data; stored values are renormalized
_LORENTZ_INPUT_TOL = 1e-6


class Model(str, enum.Enum):
    KLEIN = "klein"
    POINCARE = "poincare"
    LORENTZ = "lorentz"


def clamp_to_ball(coords) -> np.ndarray:
    """Rescale coords onto norm 1 - EPS_BALL when they fall outside the ball."""
    coords = np.asarray(coords, dtype=np.float64)
    norm = float(np.linalg.norm(coords))
    limit = 1.0 - EPS_BALL
    if norm > limit:
        coords = coords * (limit / norm)
    return coords


def _as_vector(coords, min_size: int) -> np.ndarray:
    arr = np.asarray(coords, dtype=np.float64)
    if arr.ndim != 1 or arr.size < min_size:
        raise ValueError(f"expected a 1-d vector of length >= {min_size}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class KleinPoint:
    """Point of the Klein ball; coordinates are clamped to norm <= 1 - EPS_BALL."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", clamp_to_ball(_as_vector(self.coords, 1)))

    @property
    def model(self) -> Model:
        return Model.KLEIN

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class PoincarePoint:
    """Point of the Poincare ball; same clamping policy as the Klein ball."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", clamp_to_ball(_as_vector(self.coords, 1)))

    @property
    def model(self) -> Model:
        return Model.POINCARE

    @property
    def dim(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class LorentzPoint:
    """Point on the upper hyperboloid sheet, stored as [time, spatial...].

    The time component is recomputed as sqrt(1 + |spatial|^2) on construction,
    so the Minkowski constraint <x, x> = -1 holds for every stored point.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.coords, 2).copy()
        time = float(np.sqrt(1.0 + float(arr[1:] @ arr[1:])))
        if arr[0] <= 0.0 or abs(arr[0] - time) > _LORENTZ_INPUT_TOL * max(1.0, time):
            raise ValueError("coordinates do not lie on the upper hyperboloid sheet")
        arr[0] = time
        object.__setattr__(self, "coords", arr)

    @property
    def model(self) -> Model:
        return Model.LORENTZ

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    @property
    def time(self) -> float:
        return float(self.coords[0])

    @property
    def spatial(self) -> np.ndarray:
        return self.coords[1:]


Point = Union[KleinPoint, PoincarePoint, LorentzPoint]

_POINT_TYPES = {
    Model.KLEIN: KleinPoint,
    Model.POINCARE: PoincarePoint,
    Model.LORENTZ: LorentzPoint,
}


def make_point(model: Model, coords) -> Point:
    return _POINT_TYPES[Model(model)](coords)


def origin(model: Model, dim: int) -> Point:
    model = Model(model)
    if model is Model.LORENTZ:
        coords = np.zeros(dim + 1)
        coords[0] = 1.0
        return LorentzPoint(coords)
    return _POINT_TYPES[model](np.zeros(dim))


def minkowski_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(-a[0] * b[0] + a[1:] @ b[1:])


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent vector attached to a base point of a named model.

    Lorentz components are projected onto the Minkowski-orthogonal complement
    of the base, so <base, components> = 0 holds exactly for stored vectors.
    """

    model: Model
    base: Point
    components: np.ndarray

    def __post_init__(self):
        model = Model(self.model)
        object.__setattr__(self, "model", model)
        if self.base.model is not model:
            raise ValueError(f"base point model {self.base.model} does not match {model}")
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.shape != self.base.coords.shape:
            raise ValueError("components length must match the model dimensionality")
        if not np.all(np.isfinite(comp)):
            raise ValueError("components must be finite")
        if model is Model.LORENTZ:
            residual = minkowski_inner(self.base.coords, comp)
            if abs(residual) > _LORENTZ_INPUT_TOL * max(1.0, float(np.linalg.norm(comp))):
                raise ValueError("components are not Minkowski-orthogonal to the base")
            comp = comp + residual * self.base.coords
        object.__setattr__(self, "components", comp)


def tangent(base: Point, components) -> TangentVector:
    return TangentVector(base.model, base, components)


def zero_tangent(base: Point) -> TangentVector:
    return TangentVector(base.model, base, np.zeros_like(base.coords))


# ---------------------------------------------------------------------------
# metric quantities


def lorentz_factor(x: KleinPoint) -> float:
    """Dilation factor 1 / sqrt(1 - |x|^2) of a Klein ball point."""
    return 1.0 / float(np.sqrt(1.0 - x.coords @ x.coords))


def poincare_conformal_factor(x: PoincarePoint) -> float:
    """Conformal scale 2 / (1 - |x|^2) of a Poincare ball point."""
    return 2.0 / float(1.0 - x.coords @ x.coords)


def metric_inner(x: Point, u: TangentVector, v: TangentVector) -> float:
    """Riemannian inner product of u and v in the tangent space at x."""
    if u.model is not x.model or v.model is not x.model:
        raise ValueError("tangent vectors do not belong to the model of x")
    a, b = u.components, v.components
    if isinstance(x, KleinPoint):
        c = x.coords
        s = 1.0 - float(c @ c)
        return float((a @ b) / s + (c @ a) * (c @ b) / s**2)
    if isinstance(x, PoincarePoint):
        rho = poincare_conformal_factor(x)
        return float(rho * rho * (a @ b))
    return minkowski_inner(a, b)


def metric_norm(x: Point, u: TangentVector) -> float:
    return float(np.sqrt(max(metric_inner(x, u, u), 0.0)))


def klein_metric_inverse(x: KleinPoint) -> np.ndarray:
    """Inverse metric matrix (1 - |x|^2)(I - x x^T) of the Klein ball at x."""
    c = x.coords
    s = 1.0 - float(c @ c)
    return s * (np.eye(c.size) - np.outer(c, c))


# ---------------------------------------------------------------------------
# conversions between models


def convert_point(p: Point, dst: Model) -> Point:
    dst = Model(dst)
    if p.model is dst:
        return p
    if isinstance(p, PoincarePoint):
        klein = KleinPoint(2.0 * p.coords / (1.0 + float(p.coords @ p.coords)))
        return klein if dst is Model.KLEIN else convert_point(klein, dst)
    if isinstance(p, LorentzPoint):
        klein = KleinPoint(p.spatial / p.time)
        return klein if dst is Model.KLEIN else convert_point(klein, dst)
    c = p.coords
    if dst is Model.POINCARE:
        return PoincarePoint(c / (1.0 + float(np.sqrt(1.0 - c @ c))))
    lam = lorentz_factor(p)
    return LorentzPoint(np.concatenate(([lam], lam * c)))


def pushforward(v: TangentVector, dst: Model) -> TangentVector:
    """Carry v to the corresponding tangent space of the dst model."""
    dst = Model(dst)
    if v.model is dst:
        return v
    if v.model is Model.POINCARE:
        x, u = v.base.coords, v.components
        q = 1.0 + float(x @ x)
        comp = 2.0 * u / q - 4.0 * float(x @ u) / q**2 * x
        out = TangentVector(Model.KLEIN, convert_point(v.base, Model.KLEIN), comp)
        return out if dst is Model.KLEIN else pushforward(out, dst)
    if v.model is Model.LORENTZ:
        xt, xs = v.base.time, v.base.spatial
        vt, vs = v.components[0], v.components[1:]
        comp = -vt / xt**2 * xs + vs / xt
        out = TangentVector(Model.KLEIN, convert_point(v.base, Model.KLEIN), comp)
        return out if dst is Model.KLEIN else pushforward(out, dst)
    x, u = v.base.coords, v.components
    if dst is Model.POINCARE:
        s = float(np.sqrt(1.0 - x @ x))
        comp = u / (1.0 + s) + float(x @ u) / (s * (1.0 + s) ** 2) * x
        return TangentVector(Model.POINCARE, convert_point(v.base, Model.POINCARE), comp)
    lam = lorentz_factor(v.base)
    radial = float(x @ u) * lam**3
    comp = np.concatenate(([radial], lam * u + radial * x))
    return TangentVector(Model.LORENTZ, convert_point(v.base, Model.LORENTZ), comp)


# ---------------------------------------------------------------------------
# distances, geodesics, exponential and logarithmic maps


def _acosh_clamped(arg: float) -> float:
    return float(np.arccosh(max(arg, 1.0)))


def distance(x: Point, y: Point) -> float:
    """Geodesic distance between two points of the same model."""
    if x.model is not y.model:
        raise ValueError("distance requires points of the same model")
    if isinstance(x, KleinPoint):
        a, b = x.coords, y.coords
        arg = (1.0 - float(a @ b)) / float(np.sqrt((1.0 - a @ a) * (1.0 - b @ b)))
        return _acosh_clamped(arg)
    if isinstance(x, PoincarePoint):
        a, b = x.coords, y.coords
        d2 = float((a - b) @ (a - b))
        arg = 1.0 + 2.0 * d2 / float((1.0 - a @ a) * (1.0 - b @ b))
        return _acosh_clamped(arg)
    return _acosh_clamped(-minkowski_inner(x.coords, y.coords))


def _sinhc(t: float) -> float:
    if abs(t) < 1e-6:
        return 1.0 + t * t / 6.0
    return float(np.sinh(t) / t)


def _lorentz_from_spatial(spatial: np.ndarray) -> LorentzPoint:
    # recomputing the time component restores the sheet constraint exactly
    time = np.sqrt(1.0 + float(spatial @ spatial))
    return LorentzPoint(np.concatenate(([time], spatial)))


def _require_based_at(x: Point, v: TangentVector) -> None:
    if v.model is not x.model:
        raise ValueError("tangent vector does not belong to the model of x")
    if not np.array_equal(v.base.coords, x.coords):
        raise ValueError("tangent vector is not based at x")


def geodesic_unit(x: Point, v: TangentVector, t: float) -> Point:
    """Point at arclength t along the unit-speed geodesic from x with velocity v."""
    _require_based_at(x, v)
    speed = metric_inner(x, v, v)
    if abs(speed - 1.0) > 1e-8:
        raise ValueError(f"geodesic velocity must be unit speed, got squared speed {speed}")
    if isinstance(x, KleinPoint):
        c, u = x.coords, v.components
        lam2 = 1.0 / (1.0 - float(c @ c))
        # lambda^2 factor: required for d(gamma(0), gamma(t)) = |t|
        den = np.cosh(t) + lam2 * float(c @ u) * np.sinh(t)
        return KleinPoint(c + np.sinh(t) * u / den)
    if isinstance(x, LorentzPoint):
        out = np.cosh(t) * x.coords + np.sinh(t) * v.components
        return _lorentz_from_spatial(out[1:])
    return exp_map(x, TangentVector(x.model, x, t * v.components))


def exp_map(x: Point, v: TangentVector) -> Point:
    """Endpoint of the geodesic segment leaving x with tangent v."""
    _require_based_at(x, v)
    if isinstance(x, KleinPoint):
        c, u = x.coords, v.components
        t = metric_norm(x, v)
        lam2 = 1.0 / (1.0 - float(c @ c))
        # tanh(t)/t form of the geodesic: stays finite for arbitrarily long steps
        tc = _tanhc(t)
        den = 1.0 + lam2 * float(c @ u) * tc
        return KleinPoint(c + tc * u / den)
    if isinstance(x, PoincarePoint):
        from .gyro import mobius_add  # local import to avoid a module cycle

        rho = poincare_conformal_factor(x)
        n = float(np.linalg.norm(v.components))
        step = 0.5 * rho * _tanhc(0.5 * rho * n) * v.components
        return mobius_add(x, PoincarePoint(step))
    t = float(np.sqrt(max(minkowski_inner(v.components, v.components), 0.0)))
    out = np.cosh(t) * x.coords + _sinhc(t) * v.components
    return _lorentz_from_spatial(out[1:])


def _tanhc(t: float) -> float:
    if abs(t) < 1e-6:
        return 1.0 - t * t / 3.0
    return float(np.tanh(t) / t)


def _atanhc(t: float) -> float:
    if abs(t) < 1e-6:
        return 1.0 + t * t / 3.0
    return float(np.arctanh(min(t, ATANH_MAX)) / t)


def log_map(x: Point, y: Point) -> TangentVector:
    """Tangent vector at x whose exponential reaches y."""
    if x.model is not y.model:
        raise ValueError("log_map requires points of the same model")
    if isinstance(x, KleinPoint):
        u = y.coords - x.coords
        un = float(np.sqrt(metric_quadratic_klein(x.coords, u)))
        if un == 0.0:
            return zero_tangent(x)
        return TangentVector(Model.KLEIN, x, distance(x, y) / un * u)
    if isinstance(x, PoincarePoint):
        from .gyro import mobius_add

        w = mobius_add(PoincarePoint(-x.coords), y).coords
        rho = poincare_conformal_factor(x)
        return TangentVector(Model.POINCARE, x, (2.0 / rho) * _atanhc(float(np.linalg.norm(w))) * w)
    alpha = max(-minkowski_inner(x.coords, y.coords), 1.0)
    w = y.coords - alpha * x.coords
    denom = float(np.sqrt(max(alpha * alpha - 1.0, 0.0)))
    ratio = _acosh_clamped(alpha) / denom if denom > 0.0 else 1.0
    return TangentVector(Model.LORENTZ, x, ratio * w)


def metric_quadratic_klein(c: np.ndarray, u: np.ndarray) -> float:
    s = 1.0 - float(c @ c)
    return float((u @ u) / s + (c @ u) ** 2 / s**2)


# ---------------------------------------------------------------------------
# parallel transport from the origin


def _require_origin_base(v: TangentVector) -> None:
    base = v.base.coords
    at_origin = (
        abs(base[0] - 1.0) < 1e-12 and float(np.linalg.norm(base[1:])) < 1e-12
        if v.model is Model.LORENTZ
        else float(np.linalg.norm(base)) < 1e-12
    )
    if not at_origin:
        raise ValueError("transport_from_origin requires a vector based at the origin")


def transport_from_origin(x: Point, v: TangentVector) -> TangentVector:
    """Parallel transport of an origin tangent vector to the tangent space at x."""
    if v.model is not x.model:
        raise ValueError("tangent vector does not belong to the model of x")
    _require_origin_base(v)
    if isinstance(x, KleinPoint):
        c, u = x.coords, v.components
        s = float(np.sqrt(1.0 - c @ c))
        return TangentVector(Model.KLEIN, x, s * (u - float(c @ u) / (1.0 + s) * c))
    if isinstance(x, PoincarePoint):
        return TangentVector(Model.POINCARE, x, (1.0 - float(x.coords @ x.coords)) * v.components)
    c, u = x.coords, v.components
    coef = minkowski_inner(c, u) / (1.0 + x.time)
    o = np.zeros_like(c)
    o[0] = 1.0
    return TangentVector(Model.LORENTZ, x, u + coef * (o + c))


def _klein_transport_origin_broken(x: KleinPoint, v: TangentVector) -> TangentVector:
    """Known-bad closed form for the Klein origin transport.

    Its radial component violates metric preservation; it exists only so the
    verification suites can demonstrate that they catch the defect.
    """
    _require_origin_base(v)
    c, u = x.coords, v.components
    s = float(np.sqrt(1.0 - c @ c))
    if 1.0 - s == 0.0:
        return TangentVector(Model.KLEIN, x, u.copy())
    coef = float(c @ u) * (s - 2.0) / (1.0 - s)
    return TangentVector(Model.KLEIN, x, coef * c + s * u)
