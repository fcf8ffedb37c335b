"""Three coordinate models of hyperbolic space at curvature -1.

Points live in the Klein ball, the Poincare ball, or on the upper sheet of
the Lorentz hyperboloid.  All operations are pure functions; conversions
between models are isometries and tangent vectors move with the associated
pushforward maps.

Every operation is one function on rows (`convert_point`, `pushforward`,
`metric_inner`, `distance`, `exp_map`, `log_map`, `transport_from_origin`,
`lorentz_factor`, `clamp_to_ball`): it takes (N, d) arrays, one point or
tangent vector per row, and returns (N, d) rows, (N,) scalars or an (N, 1)
column; a single point is a (1, d) row.  Ball rows are Klein or Poincare
coordinates, hyperboloid rows are [time, spatial...].  Rows may be
zero-padded: a point of a lower dimension, with zeros appended, maps to the
same result with zeros appended.  That holds bit for bit because every row
reduction goes through `row_dots`, which sums each row left to right: numpy
sums a C-ordered last axis pairwise, so two or more sums write their
products with the summed axis outermost (column-major for (N, d) rows) and
add them term by term, from an initial -0.0, and a single sum keeps its
prefix sums (see its docstring).  Each function that returns points or
tangent vectors checks every row for finiteness, clamps ball rows to norm
1 - EPS_BALL and puts hyperboloid rows back on the sheet; the hyperboloid
tangents built here are tangent by construction, and only a vector that is
not is projected, once (`lorentz_tangent_rows`).  Rows that come from
outside, a checkpoint's bias or a `convert` input, are checked by
`check_point`, which rescales nothing.  The geodesic from x with unit
velocity v is at arclength t the point `exp_map(model, x, t v)`, and the
Mobius addition (`mobius_add`, which `gyro` imports) is written here beside
the Poincare exp.
"""

from __future__ import annotations

import enum

import numpy as np

EPS_BALL = 1e-7
# largest atanh argument, of `_RATIOS["atanhc"]` in `nn`'s tape and of `gyro.einstein_scalar`
ATANH_MAX = 1.0 - 1e-15
# input gate for "nearly valid" Lorentz data: `check_point` accepts a point this
# far off the sheet, relative to its time, as given (`convert` puts it back on the sheet)
_LORENTZ_INPUT_TOL = 1e-6


class Model(str, enum.Enum):
    KLEIN = "klein"
    POINCARE = "poincare"
    LORENTZ = "lorentz"


# ---------------------------------------------------------------------------
# row helpers


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the others; (N, d)
    rows give an (N, 1) column.

    Each sum runs left to right, so zero entries appended to a row leave its
    value unchanged, bit for bit, and no row depends on the others.  numpy
    sums a contiguous axis pairwise, in blocks of 8, which would regroup the
    terms by the row length.  When the batch holds two or more sums, of any
    shape, the products are written to a buffer whose summed last axis is
    outermost and whose other axes are in C order: column-major for (N, d)
    rows, and for stacked (N, k, d) matrices the order in which the product
    reads them, so the multiply writes as it reads.  numpy then adds term j
    into every total in one contiguous pass, in term order; `initial=-0.0`
    starts each total from the one value that leaves the first term as it
    is (numpy's default start, +0.0, turns a sum of -0.0 terms into +0.0).
    A single sum keeps the prefix sums' last term: that buffer would be
    contiguous, and summed pairwise.
    """
    if a.size > a.shape[-1] or b.size > b.shape[-1]:
        shape = np.broadcast(a, b).shape
        out = np.empty(shape[-1:] + shape[:-1], np.result_type(a, b)).transpose((*range(1, len(shape)), 0))
        return np.add.reduce(np.multiply(a, b, out=out), axis=-1, keepdims=True, initial=-0.0)
    return np.add.accumulate(a * b, axis=-1)[..., -1:]


def minkowski_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Minkowski products -a_0 b_0 + a_s . b_s, as an (N, 1) column."""
    return row_dots(a[:, 1:], b[:, 1:]) - a[:, :1] * b[:, :1]


def _finite(rows: np.ndarray, what: str = "coordinates") -> np.ndarray:
    if np.count_nonzero(np.isfinite(rows)) != rows.size:
        raise ValueError(f"{what} must be finite")
    return rows


def clamp_to_ball(rows: np.ndarray) -> np.ndarray:
    """Check finite ball rows; rescale each onto norm 1 - EPS_BALL when it
    falls outside the ball."""
    limit = 1.0 - EPS_BALL
    norm = np.sqrt(row_dots(_finite(rows), rows))
    return rows * (limit / np.maximum(norm, limit))


def _peak_split(rows: np.ndarray):
    """Columns of each finite row's largest |x| and the norm of the row divided
    by it: two finite factors of a norm whose square overflows."""
    peak = np.abs(rows).max(axis=1, keepdims=True)
    return peak, np.sqrt(row_dots(rows / peak, rows / peak))


@np.errstate(over="ignore")
def lorentz_rows(spatial: np.ndarray) -> np.ndarray:
    """Hyperboloid rows [sqrt(1 + |s|^2), s] from finite spatial rows s.  Where
    |s|^2 overflows, sqrt(1 + |s|^2) rounds to |s|, so such a row's time is
    its norm, the product of `_peak_split`'s factors; a norm past the float64
    maximum is no point, and raises ValueError.  Overflow is ignored by the
    np.errstate decorator, which numpy enters and resets per call."""
    time = np.sqrt(1.0 + row_dots(_finite(spatial), spatial))
    big = np.isinf(time[:, 0])
    if np.count_nonzero(big):
        peak, unit = _peak_split(spatial[big])
        time[big] = _finite(peak * unit)
    return np.concatenate((time, spatial), axis=1)


def lorentz_tangent_rows(base: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Rows comp + <base, comp> base: the Minkowski-orthogonal projection of
    comp onto the tangent space at the hyperboloid rows base, for vectors
    that are not tangent: it multiplies comp's rounding by base's time squared."""
    return comp + minkowski_rows(base, comp) * base


def lorentz_factor(c: np.ndarray) -> np.ndarray:
    """Lorentz factors 1 / sqrt(1 - |c|^2) of Klein rows, as a column."""
    return 1.0 / np.sqrt(1.0 - row_dots(c, c))


def mobius_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mobius addition of the rows of a and b on the Poincare ball."""
    dot = row_dots(a, b)
    na, nb = row_dots(a, a), row_dots(b, b)
    num = (1.0 + 2.0 * dot + nb) * a + (1.0 - na) * b
    return clamp_to_ball(num / (1.0 + 2.0 * dot + na * nb))


# -- smooth ratio functions f(t)/t (removable singularities at zero) ----------

# Below the switch f(t)/t is its series 1 + c2 t^2 + c4 t^4, which is exact to
# float64 there.  Above it the slope (f'(t) - f(t)/t)/t subtracts two values
# near 1; at t >= 1e-3 that leaves at least nine correct digits.
_SERIES_SWITCH = 1e-3

# f, f', c2, c4
_RATIOS = {
    "tanhc": (np.tanh, lambda t: 1.0 - np.square(np.tanh(t)), -1.0 / 3.0, 2.0 / 15.0),
    # atanh is evaluated at most at ATANH_MAX, and so is its slope
    "atanhc": (
        lambda t: np.arctanh(np.minimum(t, ATANH_MAX)),
        # np.square, as a numpy scalar's ** 2 calls pow, which can round otherwise than x * x
        lambda t: 1.0 / (1.0 - np.square(np.minimum(t, ATANH_MAX))),
        1.0 / 3.0,
        1.0 / 5.0,
    ),
    "sinhc": (np.sinh, np.cosh, 1.0 / 6.0, 1.0 / 120.0),
    "asinhc": (np.arcsinh, lambda t: 1.0 / np.sqrt(1.0 + t * t), -1.0 / 6.0, 3.0 / 40.0),
}


def _holds_true(mask) -> bool:
    """Whether a mask holds a True: an array's np.count_nonzero, or a scalar's
    own truth value, 20x as fast as np.count_nonzero of a numpy scalar."""
    return np.count_nonzero(mask) if isinstance(mask, np.ndarray) else mask


def smooth_ratio(name: str, t: np.ndarray) -> np.ndarray:
    """f(t)/t, named tanhc, atanhc, sinhc or asinhc; t >= 0.

    The series runs only when a row is below the switch, tested by a lone
    row's numpy scalar's truth value or an array's np.count_nonzero, as in
    `nn` (ndarray.any() costs 3x as much on one row).  Forward passes take
    only this value; `smooth_slope` gives its slope, which only the network's
    backward reads.  Overflow gives inf or nan; callers that can overflow run
    this under np.errstate and check their outputs.
    """
    f, _, c2, c4 = _RATIOS[name]
    small = t < _SERIES_SWITCH
    if not _holds_true(small):
        return f(t) / t
    s = np.where(small, 1.0, t)
    t2 = t * t
    return np.where(small, 1.0 + t2 * (c2 + t2 * c4), f(s) / s)


def smooth_slope(name: str, t: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """The slope of `smooth_ratio(name, t)`, given as `ratio`, in t for the tape's
    closed-form backwards; same switch, series and overflow behaviour."""
    _, df, c2, c4 = _RATIOS[name]
    small = t < _SERIES_SWITCH
    if not _holds_true(small):
        return (df(t) - ratio) / t
    s = np.where(small, 1.0, t)
    return np.where(small, t * (2.0 * c2 + 4.0 * c4 * (t * t)), (df(s) - ratio) / s)


# ---------------------------------------------------------------------------
# points


def check_point(model: Model, x: np.ndarray, what: str = "point") -> np.ndarray:
    """Check that the 1-d vector x is a point of model, and return it as given.

    Nothing is rescaled.  x holds a coordinate (a time and one more on the
    hyperboloid), and all are finite.  A ball point has every |x_i| < 1, so
    no square overflows, and then a squared norm below 1, summed by
    `row_dots` as `clamp_to_ball` sums it, whatever the BLAS build.  The
    error names a point outside the ball `what`.  A hyperboloid point [time,
    spatial...] has time > 0, tested before it is compared, and lies within
    _LORENTZ_INPUT_TOL t of the time t = sqrt(1 + |spatial|^2) >= 1 of
    `lorentz_rows`.  Raises ValueError.
    """
    width = 2 if model is Model.LORENTZ else 1
    if x.ndim != 1 or x.size < width:
        raise ValueError(f"expected a 1-d vector of length >= {width}, got shape {x.shape}")
    _finite(x)
    if model is not Model.LORENTZ:
        if np.count_nonzero(np.abs(x) >= 1.0) or row_dots(x, x)[0] >= 1.0:
            raise ValueError(f"{what} lies outside the open unit ball")
        return x
    time, sheet = x[0], lorentz_rows(x[None, 1:])[0, 0]
    if time <= 0.0 or abs(time - sheet) > _LORENTZ_INPUT_TOL * sheet:
        raise ValueError("coordinates do not lie on the upper hyperboloid sheet")
    return x


def origin(model: Model, dim: int) -> np.ndarray:
    """The origin of model, a string or a `Model`, in dimension dim as a (1, d)
    row: zeros, with time 1 on the hyperboloid."""
    if Model(model) is Model.LORENTZ:
        return np.concatenate((np.ones((1, 1)), np.zeros((1, dim))), axis=1)
    return np.zeros((1, dim))


# ---------------------------------------------------------------------------
# metric quantities


def metric_inner(model: Model, x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Riemannian inner products of tangent rows a and b at the rows x, (N,)."""
    if model is Model.KLEIN:
        s = 1.0 - row_dots(x, x)
        out = row_dots(a, b) / s + row_dots(x, a) * row_dots(x, b) / s**2
    elif model is Model.POINCARE:
        out = np.square(2.0 / (1.0 - row_dots(x, x))) * row_dots(a, b)  # the conformal factor, squared
    else:
        out = minkowski_rows(a, b)
    return out[:, 0]


# ---------------------------------------------------------------------------
# conversions between models: through Klein coordinates, except that Poincare
# and Lorentz rows convert directly.  A Klein row is clamped 8.41 from the
# origin (atanh(1 - EPS_BALL)), where the Poincare clamp sits 16.8 out, so a
# Poincare point past 8.41 would come back from Klein coordinates at 8.41.


def _to_klein(src: Model, x: np.ndarray) -> np.ndarray:
    if src is Model.POINCARE:
        return clamp_to_ball(2.0 * x / (1.0 + row_dots(x, x)))
    if src is Model.LORENTZ:
        return clamp_to_ball(x[:, 1:] / x[:, :1])
    return x


def convert_point(src: Model, dst: Model, x: np.ndarray) -> np.ndarray:
    """Rows of src-model points in dst-model coordinates.  Poincare rows x map
    to the hyperboloid rows of spatial part 2x / (1 - |x|^2), and hyperboloid
    rows [t, s] to the Poincare rows s / (1 + t)."""
    if src is dst:
        return x
    if src is Model.POINCARE and dst is Model.LORENTZ:
        return lorentz_rows(2.0 * x / (1.0 - row_dots(x, x)))
    if src is Model.LORENTZ and dst is Model.POINCARE:
        return clamp_to_ball(x[:, 1:] / (1.0 + x[:, :1]))
    c = _to_klein(src, x)
    if dst is Model.POINCARE:
        return clamp_to_ball(c / (1.0 + np.sqrt(1.0 - row_dots(c, c))))
    if dst is Model.LORENTZ:
        return lorentz_rows(lorentz_factor(c) * c)
    return c


def pushforward(src: Model, dst: Model, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tangent rows u at the src-model rows x, carried to the dst model by the
    differentials of `convert_point`'s maps, so Poincare and Lorentz tangents
    also pass directly.  A Poincare tangent's hyperboloid time is s.ds / t,
    tangent at the row [t, s] up to rounding, and a Klein tangent u at c
    becomes [r, lam u + r c], r = lam^3 c.u, with lam the Lorentz factor of c,
    tangent at [lam, lam c]; both are returned as built, not projected."""
    if src is dst:
        return u
    if src is Model.POINCARE and dst is Model.LORENTZ:
        q, y = 1.0 - row_dots(x, x), convert_point(src, dst, x)
        ds = 2.0 * u / q + 4.0 * row_dots(x, u) / q**2 * x
        return _finite(np.concatenate((row_dots(y[:, 1:], ds) / y[:, :1], ds), axis=1), "components")
    if src is Model.LORENTZ and dst is Model.POINCARE:
        up = 1.0 + x[:, :1]
        return _finite((u[:, 1:] - u[:, :1] * x[:, 1:] / up) / up, "components")
    if src is Model.POINCARE:
        q = 1.0 + row_dots(x, x)
        u = _finite(2.0 * u / q - 4.0 * row_dots(x, u) / q**2 * x, "components")
    elif src is Model.LORENTZ:
        xt = x[:, :1]
        u = _finite(-u[:, :1] / xt**2 * x[:, 1:] + u[:, 1:] / xt, "components")
    c = _to_klein(src, x)
    if dst is Model.POINCARE:
        s = np.sqrt(1.0 - row_dots(c, c))
        return _finite(u / (1.0 + s) + row_dots(c, u) / (s * (1.0 + s) ** 2) * c, "components")
    if dst is Model.LORENTZ:
        lam = lorentz_factor(c)
        radial = row_dots(c, u) * lam**3
        return _finite(np.concatenate((radial, lam * u + radial * c), axis=1), "components")
    return u


# ---------------------------------------------------------------------------
# distances, geodesics, exponential and logarithmic maps


def _distance(model: Model, x: np.ndarray, y: np.ndarray):
    """`distance` as a column, and 1 - |p|^2 of the ball points p of x and y."""
    if model is Model.LORENTZ:
        up_x, up_y = 1.0 + x[:, :1], 1.0 + y[:, :1]
        x, y, sx, sy = x[:, 1:] / up_x, y[:, 1:] / up_y, 2.0 / up_x, 2.0 / up_y
    else:
        sx, sy = 1.0 - row_dots(x, x), 1.0 - row_dots(y, y)
    u = y - x
    if model is Model.KLEIN:
        return np.arcsinh(np.sqrt((sx * row_dots(u, u) + row_dots(x, u) ** 2) / (sx * sy))), sx, sy
    return 2.0 * np.arcsinh(np.sqrt(row_dots(u, u) / (sx * sy))), sx, sy


def distance(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geodesic distances between the rows of x and y, (N,), from cosh d - 1 =
    2 sinh^2(d/2), which keeps the digits of nearby points.  With u = y - x and
    s_p = 1 - |p|^2: sinh^2 d = (s_x |u|^2 + (x.u)^2) / (s_x s_y) on the Klein
    ball, sinh^2(d/2) = |u|^2 / (s_x s_y) on the Poincare ball, and hyperboloid
    rows [t, z] take the Poincare form at p = z / (1 + t), s_p = 2 / (1 + t):
    their own sinh^2(d/2) = <u, u> / 4 cancels for far-apart rows."""
    return _distance(model, x, y)[0][:, 0]


def exp_map(model: Model, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Endpoints of the geodesic segments leaving the rows x with tangents v."""
    if model is Model.KLEIN:
        s, xv = 1.0 - row_dots(x, x), row_dots(x, v)
        t = np.sqrt(np.maximum(row_dots(v, v) / s + xv * xv / s**2, 0.0))  # metric norm of v
        lam2 = 1.0 / s
        # tanh(t)/t form of the geodesic: stays finite for arbitrarily long steps
        tc = smooth_ratio("tanhc", t)
        return clamp_to_ball(x + tc * v / (1.0 + lam2 * xv * tc))
    if model is Model.POINCARE:
        half = 1.0 / (1.0 - row_dots(x, x))  # half the conformal factor
        step = half * smooth_ratio("tanhc", half * np.sqrt(row_dots(v, v))) * v
        return mobius_add(x, clamp_to_ball(step))
    return lorentz_rows(_lorentz_geodesic_end(x, v)[:, 1:])


@np.errstate(over="ignore", invalid="ignore")  # the sheet rows are checked
def _lorentz_geodesic_end(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cosh|v| x + sinhc|v| v, the hyperboloid's exp_x(v) before `lorentz_rows`
    puts it back on the sheet; overflow is ignored by the np.errstate
    decorator, which numpy enters and resets per call."""
    t = np.sqrt(np.maximum(minkowski_rows(v, v), 0.0))
    return np.cosh(t) * x + smooth_ratio("sinhc", t) * v


def log_map(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tangent rows at x, of metric length d = `distance`, whose exponentials
    reach the rows y.  The Mobius difference (-x) + y and the hyperboloid's
    y - cosh(d) x are written as y - x less a multiple of sinh^2(d/2) x; on
    the hyperboloid its spatial part, whose time is x_s.u_s / x_t, so the
    rows' rounded times stay out of y - x."""
    d, sx, sy = _distance(model, x, y)
    if model is Model.KLEIN:
        return _finite(np.sqrt(sx / sy) / smooth_ratio("sinhc", d) * (y - x), "components")
    q = np.square(np.sinh(0.5 * d))
    if model is Model.POINCARE:
        return _finite(sx / sy * (y - x - sy * q * x) / smooth_ratio("sinhc", d), "components")
    xs = x[:, 1:]
    us = (y[:, 1:] - xs - 2.0 * q * xs) / smooth_ratio("sinhc", d)
    return _finite(np.concatenate((row_dots(xs, us) / x[:, :1], us), axis=1), "components")


# ---------------------------------------------------------------------------
# parallel transport from the origin


def transport_from_origin(model: Model, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Parallel transport of origin tangent rows v to the tangent spaces at the
    rows x; on the hyperboloid v + <x, v> / (1 + t) (o + x) at x = [t, s]."""
    if model is Model.KLEIN:
        s = np.sqrt(1.0 - row_dots(x, x))
        return _finite(s * (v - row_dots(x, v) / (1.0 + s) * x), "components")
    if model is Model.POINCARE:
        return _finite((1.0 - row_dots(x, x)) * v, "components")
    o_plus_x = x.copy()
    o_plus_x[:, 0] += 1.0
    return _finite(v + minkowski_rows(x, v) / o_plus_x[:, :1] * o_plus_x, "components")
