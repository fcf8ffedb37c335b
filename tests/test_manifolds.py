"""Unit tests for the coordinate models: conversions, metric, geodesics, transport.

Every operation takes (N, d) rows; a single point or tangent vector is a
(1, d) row."""

import math
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperklein.manifolds import (
    EPS_BALL,
    Model,
    check_point,
    clamp_to_ball,
    convert_point,
    distance,
    exp_map,
    log_map,
    lorentz_factor,
    lorentz_rows,
    lorentz_tangent_rows,
    metric_inner,
    minkowski_rows,
    origin,
    pushforward,
    row_dots,
    transport_from_origin,
)
from hyperklein.nn import _clamp_lorentz_radius, _riemannian_bias_grad

LN3 = 1.0986122886681098  # atanh(0.8)
K, P, L = Model.KLEIN, Model.POINCARE, Model.LORENTZ


def row(*coords):
    """One point or tangent vector as a (1, d) row."""
    return np.array([coords], dtype=np.float64)


def sample_klein(rng, dim, max_norm=0.95):
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return (rng.uniform(0.0, max_norm) * direction)[None]


class TestPointTypes:
    # a vector from outside is a point of a model if `check_point` accepts
    # it; it rescales nothing, and `clamp_to_ball` and `lorentz_rows` put an
    # accepted row onto the ball's clamp radius or back onto the sheet
    def test_klein_clamps_to_ball(self):
        with pytest.raises(ValueError, match="point lies outside the open unit ball"):
            check_point(K, np.array([3.0, 4.0]))
        p = clamp_to_ball(row(3.0, 4.0))[0]
        assert np.linalg.norm(p) == pytest.approx(1.0 - EPS_BALL, abs=1e-15)
        np.testing.assert_allclose(p, np.array([0.6, 0.8]) * (1.0 - EPS_BALL))
        assert check_point(K, p) is p

    def test_interior_point_unchanged(self):
        x = np.array([0.5, 0.0])
        assert check_point(K, x) is x
        np.testing.assert_array_equal(clamp_to_ball(x[None])[0], x)

    def test_boundary_input_clamps(self):
        with pytest.raises(ValueError, match="bias lies outside the open unit ball"):
            check_point(P, np.array([1.0, 0.0]), "bias")
        np.testing.assert_allclose(clamp_to_ball(row(1.0, 0.0)), [[1.0 - EPS_BALL, 0.0]])

    def test_lorentz_time_renormalized(self):
        x = np.array([np.sqrt(2.0) + 1e-9, 1.0, 0.0])
        assert check_point(L, x) is x
        p = lorentz_rows(x[None, 1:])
        assert minkowski_rows(p, p)[0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert p[0, 0] == pytest.approx(np.sqrt(2.0))

    def test_lorentz_rejects_far_off_sheet(self):
        for x in ([2.0, 1.0, 0.0], [-np.sqrt(2.0), 1.0, 0.0]):
            with pytest.raises(ValueError, match="coordinates do not lie on the upper hyperboloid sheet"):
                check_point(L, np.array(x))

    def test_lorentz_rejects_a_norm_past_the_float_maximum(self):
        # the time sqrt(1 + |s|^2) of such a spatial row is not a float64
        with pytest.raises(ValueError, match="coordinates must be finite"):
            check_point(L, np.array([1e308, 1.7e308, 1.7e308]))

    def test_tangent_dim_mismatch(self):
        # a tangent row whose width is not its base point's does not broadcast
        with pytest.raises(ValueError):
            exp_map(K, row(0.1, 0.2), row(1.0, 0.0, 0.0))

    def test_lorentz_tangent_projected_orthogonal(self):
        x = row(np.sqrt(2.0), 1.0, 0.0)
        v = lorentz_tangent_rows(x, row(5.0, 1.0, 0.3))
        assert abs(minkowski_rows(x, v)[0, 0]) < 1e-12


_directions = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8)
_huge = st.floats(-1.7e308, 1.7e308)


def _unit_row(direction):
    """direction as a unit (1, d) row; a zero row is the first axis."""
    u = np.array([direction])
    norm = np.linalg.norm(u)
    if norm == 0.0:
        u[0, 0], norm = 1.0, 1.0
    return u / norm


def _refuses(model, x):
    """Whether check_point raises ValueError on x, with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            check_point(model, x)
        except ValueError:
            return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=st.sampled_from(list(Model)), direction=_directions, length=st.floats(0.0, 1e3))
def test_check_point_accepts_every_row_the_operations_make(model, direction, length):
    # exp_map from the origin, the ball clamp, the sheet and the optimizer's
    # radius cap make rows that check_point accepts as they are, so a
    # trained model never fails its bias check
    u = length * _unit_row(direction)
    if model is Model.LORENTZ:
        # cosh overflows past 710, where exp_map raises and makes no row
        o, v = origin(L, u.shape[1]), np.pad(_unit_row(direction), ((0, 0), (1, 0)))
        far = exp_map(L, o, min(length, 700.0) * v)
        made = [lorentz_rows(u), far, _clamp_lorentz_radius(far)]
    else:
        made = [clamp_to_ball(u), exp_map(model, origin(model, u.shape[1]), u)]
    for (x,) in made:
        assert not _refuses(model, x) and check_point(model, x) is x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    model=st.sampled_from([K, P]),
    rest=st.lists(_huge, max_size=6),
    big=st.floats(1.0, 1.7e308).flatmap(lambda x: st.sampled_from([x, -x])),
    direction=_directions,
    radius=st.floats(1.0 + 1e-12, 1e300),
)
def test_check_point_refuses_ball_rows_on_or_past_the_sphere(model, rest, big, direction, radius):
    # an entry of size >= 1, anywhere up to the float64 maximum, or a norm >= 1
    assert _refuses(model, np.array([*rest[:2], big, *rest[2:]]))
    assert _refuses(model, radius * _unit_row(direction)[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    model=st.sampled_from([K, P]),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=16),
    ulps=st.integers(-4, 4),
)
def test_check_point_sums_a_ball_row_as_the_clamp_does(model, direction, ulps):
    # a row within a few ulps of the sphere is a point exactly when `row_dots`,
    # the clamp's left-to-right sum, puts its squared norm below 1; the BLAS
    # dot product it used to take sums in another order
    x = _unit_row(direction)[0] * (1.0 + ulps * np.finfo(float).epsneg)
    assert _refuses(model, x) == (row_dots(x, x)[0] >= 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    time=st.floats(-1.7e308, 0.0),
    spatial=st.lists(_huge, min_size=1, max_size=6),
    direction=_directions,
    length=st.floats(0.0, 1e300),
    off=st.floats(2e-6, 1e3).flatmap(lambda x: st.sampled_from([x, -x / (1.0 + x)])),
)
def test_check_point_refuses_hyperboloid_rows_off_the_upper_sheet(time, spatial, direction, length, off):
    # a time <= 0, or a time off sqrt(1 + |s|^2) by a factor 1 + off
    assert _refuses(L, np.array([time, *spatial]))
    x = lorentz_rows(length * _unit_row(direction))[0]
    x[0] *= 1.0 + off
    assert _refuses(L, x)


class TestLorentzFactor:
    def test_origin(self):
        assert lorentz_factor(row(0.0, 0.0))[0, 0] == 1.0

    def test_radius_08(self):
        assert lorentz_factor(row(0.8, 0.0))[0, 0] == pytest.approx(1.6666666667, abs=1e-10)

    def test_radius_06(self):
        assert lorentz_factor(row(0.6, 0.0))[0, 0] == pytest.approx(1.25, abs=1e-12)


class TestMetricInner:
    def test_identity_at_origin(self):
        o, u = np.zeros((1, 2)), row(1.0, 0.0)
        assert metric_inner(K, o, u, u)[0] == pytest.approx(1.0)

    def test_klein_radial(self):
        x, u = row(0.8, 0.0), row(0.36, 0.0)
        assert metric_inner(K, x, u, u)[0] == pytest.approx(1.0, abs=1e-12)

    def test_lorentz_spatial_axis(self):
        x, u = row(1.0, 0.0), row(0.0, 1.0)
        assert metric_inner(L, x, u, u)[0] == pytest.approx(1.0)


class TestConversions:
    def test_poincare_to_klein(self):
        out = convert_point(P, K, row(0.5, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-15)

    def test_klein_to_poincare(self):
        out = convert_point(K, P, row(0.8, 0.0))
        np.testing.assert_allclose(out[0], [0.5, 0.0], atol=1e-15)

    def test_lorentz_to_klein(self):
        out = convert_point(L, K, row(np.sqrt(2.0), 1.0, 0.0))
        np.testing.assert_allclose(out[0], [0.7071067811865475, 0.0], atol=1e-12)

    def test_klein_to_lorentz(self):
        out = convert_point(K, L, row(0.8, 0.0))
        np.testing.assert_allclose(out[0], [5.0 / 3.0, 4.0 / 3.0, 0.0], atol=1e-12)

    def test_identity_conversion_is_same_point(self):
        p = row(0.3, 0.1)
        assert convert_point(K, K, p) is p

    def test_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dim = int(rng.integers(1, 17))
            p = sample_klein(rng, dim)
            for dst in (P, L):
                back = convert_point(dst, K, convert_point(K, dst, p))
                np.testing.assert_allclose(back, p, atol=1e-12)

    def test_poincare_lorentz_direct(self):
        rng = np.random.default_rng(8)
        p = sample_klein(rng, 3)
        via_b = convert_point(P, L, convert_point(K, P, p))
        direct = convert_point(K, L, p)
        np.testing.assert_allclose(via_b, direct, atol=1e-12)


class TestPushforward:
    def test_klein_to_poincare_at_origin(self):
        out = pushforward(K, P, np.zeros((1, 2)), row(2.0, 0.0))
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-15)

    def test_poincare_to_klein_at_origin(self):
        out = pushforward(P, K, np.zeros((1, 2)), row(1.0, 0.0))
        np.testing.assert_allclose(out[0], [2.0, 0.0], atol=1e-15)

    def test_klein_to_lorentz_at_origin(self):
        out = pushforward(K, L, np.zeros((1, 2)), row(1.0, 0.0))
        np.testing.assert_allclose(out[0], [0.0, 1.0, 0.0], atol=1e-15)

    def test_metric_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            x = sample_klein(rng, dim)
            u = rng.normal(size=(1, dim))
            w = rng.normal(size=(1, dim))
            ref = metric_inner(K, x, u, w)[0]
            for dst in (P, L):
                y = convert_point(K, dst, x)
                got = metric_inner(dst, y, pushforward(K, dst, x, u), pushforward(K, dst, x, w))[0]
                assert got == pytest.approx(ref, abs=1e-8)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(12)
        x = sample_klein(rng, 4)
        u = rng.normal(size=(1, 4))
        back = pushforward(L, K, convert_point(K, L, x), pushforward(K, L, x, u))
        np.testing.assert_allclose(back, u, atol=1e-12)


class TestDistance:
    def test_coincident(self):
        p = row(0.3, 0.4)
        assert distance(K, p, p)[0] == 0.0

    def test_origin_to_radius_08(self):
        assert distance(K, np.zeros((1, 2)), row(0.8, 0.0))[0] == pytest.approx(LN3, abs=1e-10)

    def test_two_general_points(self):
        d = distance(K, row(0.5, 0.0), row(0.0, 0.5))[0]
        assert d == pytest.approx(0.7953654612239056, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x, y = sample_klein(rng, 5), sample_klein(rng, 5)
        assert distance(K, x, y)[0] == pytest.approx(distance(K, y, x)[0], abs=1e-14)

    def test_isometry_across_models(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dim = int(rng.integers(1, 17))
            x, y = sample_klein(rng, dim), sample_klein(rng, dim)
            d = distance(K, x, y)[0]
            for dst in (P, L):
                dd = distance(dst, convert_point(K, dst, x), convert_point(K, dst, y))[0]
                assert dd == pytest.approx(d, abs=1e-9)


def _unit(model, x, v):
    """v scaled to unit metric norm at x."""
    return v / np.sqrt(metric_inner(model, x, v, v)[0])


class TestGeodesics:
    def test_klein_through_origin(self):
        out = exp_map(K, np.zeros((1, 2)), LN3 * row(1.0, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-12)

    def test_time_zero_returns_start(self):
        rng = np.random.default_rng(5)
        x = sample_klein(rng, 3)
        u = _unit(K, x, rng.normal(size=(1, 3)))
        out = exp_map(K, x, 0.0 * u)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_lorentz_geodesic(self):
        out = exp_map(L, row(1.0, 0.0), row(0.0, 1.0))
        np.testing.assert_allclose(out[0], [1.5430806348152437, 1.1752011936438014], atol=1e-10)

    @pytest.mark.parametrize("model", [K, P])
    def test_long_arclength_reaches_the_clamped_boundary(self, model):
        # sinh and cosh of 800 overflow; the exponential map's tanh form saturates
        x = convert_point(K, model, row(0.3, -0.2))
        out = exp_map(model, x, 800.0 * _unit(model, x, row(1.0, 0.5)))
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out) == pytest.approx(1.0 - EPS_BALL, abs=1e-15)

    def test_lorentz_time_past_the_squared_norm_overflow(self):
        # at 700 the spatial norm is about 5e303, so |s|^2 overflows; the time
        # is the scaled norm, with no RuntimeWarning (which fails the run)
        x, v = row(1.0, 0.0, 0.0), row(0.0, 0.6, 0.8)
        out = exp_map(L, x, 700.0 * v)[0]
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(math.hypot(*out[1:]), rel=1e-15)
        # from about 711 on cosh itself overflows
        with pytest.raises(ValueError, match="coordinates must be finite"):
            exp_map(L, x, 712.0 * v)

    @pytest.mark.parametrize("model", list(Model))
    def test_unit_speed(self, model):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            x = convert_point(K, model, sample_klein(rng, dim))
            u = _unit(model, x, _random_tangent(rng, model, x))
            t = float(rng.uniform(-5.0, 5.0))
            y = exp_map(model, x, t * u)
            assert distance(model, x, y)[0] == pytest.approx(abs(t), abs=1e-7)


def _random_tangent(rng, model, x):
    """A normal tangent row at the point row x; a hyperboloid one is projected."""
    if model is L:
        return lorentz_tangent_rows(x, np.pad(rng.normal(size=(1, x.shape[1] - 1)), ((0, 0), (1, 0))))
    return rng.normal(size=x.shape)


class TestExpLog:
    def test_exp_origin_radial(self):
        out = exp_map(K, np.zeros((1, 2)), row(LN3, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-12)

    @pytest.mark.parametrize("model", list(Model))
    def test_exp_zero_is_identity(self, model):
        x = convert_point(K, model, row(0.4, -0.2))
        out = exp_map(model, x, np.zeros_like(x))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_poincare_origin_exp(self):
        out = exp_map(P, np.zeros((1, 2)), row(0.5493061443340548, 0.0))
        np.testing.assert_allclose(out[0], [0.5, 0.0], atol=1e-12)

    def test_log_origin_radial(self):
        v = log_map(K, np.zeros((1, 2)), row(0.8, 0.0))
        np.testing.assert_allclose(v[0], [LN3, 0.0], atol=1e-10)

    def test_log_same_point_is_zero(self):
        p = row(0.3, 0.2)
        np.testing.assert_array_equal(log_map(K, p, p)[0], [0.0, 0.0])

    def test_klein_general_log_value(self):
        v = log_map(K, row(0.5, 0.0), row(0.0, 0.5))
        np.testing.assert_allclose(v[0], [-0.45092983110185167, 0.45092983110185167], atol=1e-12)

    def test_klein_general_exp_value(self):
        out = exp_map(K, row(0.5, 0.0), row(-0.5, 0.5))
        np.testing.assert_allclose(out[0], [-0.04740120736749149, 0.5474012073674915], atol=1e-12)

    @pytest.mark.parametrize("model", list(Model))
    def test_exp_log_inversion(self, model):
        rng = np.random.default_rng(13)
        for _ in range(150):
            dim = int(rng.integers(1, 9))
            x = convert_point(K, model, sample_klein(rng, dim))
            raw = _random_tangent(rng, model, x)
            n = np.sqrt(metric_inner(model, x, raw, raw)[0])
            if n == 0.0:
                continue
            v = raw * (rng.uniform(0.0, 3.0) / n)
            y = exp_map(model, x, v)
            back = log_map(model, x, y)
            np.testing.assert_allclose(back, v, atol=1e-7)

    @pytest.mark.parametrize("model", list(Model))
    def test_log_exp_round_trip(self, model):
        rng = np.random.default_rng(14)
        for _ in range(150):
            dim = int(rng.integers(1, 9))
            x = convert_point(K, model, sample_klein(rng, dim))
            y = convert_point(K, model, sample_klein(rng, dim))
            if distance(model, x, y)[0] > 5.0:
                continue
            out = exp_map(model, x, log_map(model, x, y))
            np.testing.assert_allclose(out, y, atol=1e-8)


def _boundary_rows(rng, n, dim):
    """n rows of radius 1 - 10^-U(0, 7), up to the clamp's 1 - EPS_BALL."""
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * (1.0 - 10.0 ** -rng.uniform(0.0, 7.0, size=(n, 1)))


@pytest.mark.parametrize("model", list(Model))
def test_log_has_the_distance_as_its_metric_length(model):
    # the Poincare log used to cap its length at 16.81: it scaled by atanh of
    # the Mobius difference's norm, which mobius_add clamps at 1 - EPS_BALL
    rng = np.random.default_rng(18)
    for dim in range(1, 9):
        x, y = _boundary_rows(rng, 200, dim), _boundary_rows(rng, 200, dim)
        if model is not P:
            # ball rows of the Klein chart; on the hyperboloid that is as far out
            # as the network's bias goes (time cosh 8.41), past which the
            # Minkowski norm of a tangent cancels in float64
            x, y = convert_point(K, model, x), convert_point(K, model, y)
        v = log_map(model, x, y)
        length = np.sqrt(metric_inner(model, x, v, v))
        np.testing.assert_allclose(length, distance(model, x, y), rtol=1e-6)


def test_poincare_log_of_opposite_boundary_points():
    x = row(0.99999, 0.0)
    v = log_map(P, x, -x)
    length = np.sqrt(metric_inner(P, x, v, v))[0]
    assert length == pytest.approx(distance(P, x, -x)[0], rel=1e-12)
    assert length == pytest.approx(4.0 * math.atanh(0.99999), rel=1e-9)


MP_DIGITS = 60


def _mp(values):
    return [mpmath.mpf(float(v)) for v in values]


def _mp_dot(a, b):
    return mpmath.fsum(p * q for p, q in zip(a, b))


def _mp_klein(x, y):
    """The Klein distance and log of the float rows x and y, at MP_DIGITS."""
    x, y = _mp(x), _mp(y)
    sx, sy = 1 - _mp_dot(x, x), 1 - _mp_dot(y, y)
    d = mpmath.acosh((1 - _mp_dot(x, y)) / mpmath.sqrt(sx * sy))
    u = [b - a for a, b in zip(x, y)]
    norm = mpmath.sqrt(_mp_dot(u, u) / sx + _mp_dot(x, u) ** 2 / sx**2)
    return d, [d / norm * c for c in u]


def _mp_poincare(x, y):
    """The Poincare distance and log, (1 - |x|^2) atanh|w| w / |w| with w the
    Mobius difference (-x) + y, of the float rows x and y, at MP_DIGITS."""
    x, y = _mp(x), _mp(y)
    sx, sy = 1 - _mp_dot(x, x), 1 - _mp_dot(y, y)
    u = [b - a for a, b in zip(x, y)]
    d = mpmath.acosh(1 + 2 * _mp_dot(u, u) / (sx * sy))
    xy, yy = _mp_dot(x, y), _mp_dot(y, y)
    w = [((1 - 2 * xy + yy) * -a + sx * b) / (1 - 2 * xy + _mp_dot(x, x) * yy) for a, b in zip(x, y)]
    nw = mpmath.sqrt(_mp_dot(w, w))
    return d, [sx * mpmath.atanh(nw) / nw * c for c in w]


def _mp_lorentz_distance(zx, zy):
    """The distance of the hyperboloid points whose spatial parts are the float
    rows zx and zy, with their exact times, at MP_DIGITS."""
    zx, zy = _mp(zx), _mp(zy)
    tx, ty = mpmath.sqrt(1 + _mp_dot(zx, zx)), mpmath.sqrt(1 + _mp_dot(zy, zy))
    return mpmath.acosh(tx * ty - _mp_dot(zx, zy))


def _mp_lorentz_log(zx, zy):
    """The log d / sinh d (y - cosh d x) of the hyperboloid points x and y
    whose spatial parts are the float rows zx and zy, at MP_DIGITS."""
    zx, zy = _mp(zx), _mp(zy)
    x, y = [mpmath.sqrt(1 + _mp_dot(zx, zx))] + zx, [mpmath.sqrt(1 + _mp_dot(zy, zy))] + zy
    cosh = x[0] * y[0] - _mp_dot(zx, zy)
    d = mpmath.acosh(cosh)
    return [d / mpmath.sinh(d) * (b - cosh * a) for a, b in zip(x, y)]


def _relative(got, want):
    """|got - want| / |want| for a float and an mpf, or two vectors."""
    if np.ndim(got) == 0:
        return abs(float((mpmath.mpf(float(got)) - want) / want))
    diff = [mpmath.mpf(float(g)) - w for g, w in zip(got, want)]
    return float(mpmath.sqrt(_mp_dot(diff, diff) / _mp_dot(want, want)))


def _unit_rows(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestAgainstMpmath:
    """`distance` and `log_map` against MP_DIGITS-digit references evaluated on
    the same float inputs.  cosh d of points 1e-10 apart is 1 + 5e-21, which
    float64 rounds to 1, so a form that takes arccosh of it loses every digit.
    """

    SEPARATIONS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)

    @pytest.mark.parametrize("model,reference", [(K, _mp_klein), (P, _mp_poincare)], ids=["klein", "poincare"])
    def test_ball_distance_and_log_of_nearby_points(self, model, reference):
        rng = np.random.default_rng(19)
        with mpmath.workdps(MP_DIGITS):
            for sep in self.SEPARATIONS:
                for _ in range(20):
                    dim = int(rng.integers(1, 9))
                    x = rng.uniform(0.0, 0.9) * _unit_rows(rng, dim)
                    y = x + sep * _unit_rows(rng, dim)
                    d_ref, log_ref = reference(x, y)
                    assert _relative(distance(model, x[None], y[None])[0], d_ref) <= 1e-14
                    assert _relative(log_map(model, x[None], y[None])[0], log_ref) <= 1e-14

    def test_lorentz_distance_of_nearby_points(self):
        # each row's time is rounded, an error of an ulp of t against the
        # separation: up to about 2e-10 at 1e-5 for these times, up to cosh 2
        rng = np.random.default_rng(20)
        with mpmath.workdps(MP_DIGITS):
            for sep in (1e-1, 1e-3, 1e-5):
                for _ in range(20):
                    dim = int(rng.integers(1, 9))
                    zx = math.sinh(rng.uniform(0.0, 2.0)) * _unit_rows(rng, dim)
                    zy = zx + sep * _unit_rows(rng, dim)
                    d = distance(L, lorentz_rows(zx[None]), lorentz_rows(zy[None]))[0]
                    assert _relative(d, _mp_lorentz_distance(zx, zy)) <= 1e-9

    def test_lorentz_log_of_nearby_points(self):
        # the log takes its time from the spatial part: the difference of the
        # rows' rounded times was a relative error of 5e-5 at separation 1e-10
        rng = np.random.default_rng(24)
        with mpmath.workdps(MP_DIGITS):
            for sep in self.SEPARATIONS:
                for _ in range(20):
                    dim = int(rng.integers(1, 9))
                    zx = math.sinh(rng.uniform(0.0, 2.0)) * _unit_rows(rng, dim)
                    zy = zx + sep * _unit_rows(rng, dim)
                    got = log_map(L, lorentz_rows(zx[None]), lorentz_rows(zy[None]))[0]
                    assert _relative(got, _mp_lorentz_log(zx, zy)) <= 1e-14

    def test_lorentz_distance_far_from_the_origin(self):
        # -<x, y> is a difference of products up to 4e4 for times up to 200,
        # which cancels to cosh d
        rng = np.random.default_rng(21)
        with mpmath.workdps(MP_DIGITS):
            for _ in range(100):
                dim = int(rng.integers(1, 9))
                while True:
                    zx = math.sinh(rng.uniform(2.0, math.acosh(200.0))) * _unit_rows(rng, dim)
                    x = lorentz_rows(zx[None])
                    v = _unit(L, x, _random_tangent(rng, L, x)) * rng.uniform(0.1, 8.0)
                    zy = exp_map(L, x, v)[0, 1:]
                    if 1.0 + zy @ zy <= 200.0**2:
                        break
                want = _mp_lorentz_distance(zx, zy)
                assert 0.1 <= want <= 8.0
                assert _relative(distance(L, x, lorentz_rows(zy[None]))[0], want) <= 1e-12


class TestPoincareLorentzConversion:
    """Poincare and Lorentz rows convert directly, at MP_DIGITS-digit
    references evaluated on the same float inputs.  Through Klein
    coordinates, whose clamp sits 8.41 from the origin, both points at these
    radii (12.2 and 16.8 from the origin) came back 8.41 out."""

    RADII = (0.99999, 1.0 - 1e-7)

    @staticmethod
    def _rows(rng, radius):
        """A Poincare row at radius, its tangent, and the hyperboloid row of
        the same point, with a tangent there."""
        dim = int(rng.integers(1, 9))
        unit = _unit_rows(rng, dim)
        x, u = radius * unit, rng.normal(size=dim)
        z = math.sinh(2.0 * math.atanh(radius)) * unit
        xl = lorentz_rows(z[None])
        return x, u, xl, np.concatenate(([u @ z / xl[0, 0]], u))  # t dt = z . dz

    @pytest.mark.parametrize("radius", RADII)
    def test_poincare_to_lorentz(self, radius):
        rng = np.random.default_rng(22)
        with mpmath.workdps(MP_DIGITS):
            for _ in range(20):
                x, u, _, _ = self._rows(rng, radius)
                y = convert_point(P, L, x[None])[0]
                X, U = _mp(x), _mp(u)
                q, xu = 1 - _mp_dot(X, X), _mp_dot(X, U)
                d = 2 * mpmath.atanh(mpmath.sqrt(_mp_dot(X, X)))
                assert _relative(math.acosh(y[0]), d) <= 1e-8
                assert _relative(y, [(2 - q) / q] + [2 * c / q for c in X]) <= 1e-8
                dt = 4 * xu / q**2
                pushed = pushforward(P, L, x[None], u[None])[0]
                assert _relative(pushed, [dt] + [2 * a / q + dt * c for a, c in zip(U, X)]) <= 1e-8

    @pytest.mark.parametrize("radius", RADII)
    def test_lorentz_to_poincare(self, radius):
        rng = np.random.default_rng(23)
        with mpmath.workdps(MP_DIGITS):
            for _ in range(20):
                _, _, xl, ul = self._rows(rng, radius)
                p = convert_point(L, P, xl)[0]
                (T, *Z), (UT, *UZ) = _mp(xl[0]), _mp(ul)
                d = mpmath.asinh(mpmath.sqrt(_mp_dot(Z, Z)))
                assert _relative(2.0 * math.atanh(np.linalg.norm(p)), d) <= 1e-8
                assert _relative(p, [c / (1 + T) for c in Z]) <= 1e-8
                pushed = pushforward(L, P, xl, ul[None])[0]
                assert _relative(pushed, [(a - c * UT / (1 + T)) / (1 + T) for a, c in zip(UZ, Z)]) <= 1e-8


class TestTransport:
    def test_at_origin_is_identity(self):
        v = row(0.3, -0.7)
        np.testing.assert_allclose(transport_from_origin(K, np.zeros((1, 2)), v), v)

    def test_orthogonal_case(self):
        out = transport_from_origin(K, row(0.8, 0.0), row(0.0, 1.0))
        np.testing.assert_allclose(out[0], [0.0, 0.6], atol=1e-12)

    def test_radial_case(self):
        out = transport_from_origin(K, row(0.8, 0.0), row(1.0, 0.0))
        np.testing.assert_allclose(out[0], [0.36, 0.0], atol=1e-12)

    def test_broken_form_differs_radially(self, broken_klein_transport):
        o, x, v = np.zeros((1, 2)), np.array([[0.8, 0.0]]), np.array([[1.0, 0.0]])
        out = broken_klein_transport(x, v)
        np.testing.assert_allclose(out, [[-1.64, 0.0]], atol=1e-12)
        # the defective form is not a linear isometry
        moved = metric_inner(K, x, out, out)[0]
        assert abs(moved - metric_inner(K, o, v, v)[0]) > 1.0

    @pytest.mark.parametrize("model", list(Model))
    def test_transport_preserves_metric(self, model):
        rng = np.random.default_rng(15)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            x = convert_point(K, model, sample_klein(rng, dim))
            o = origin(model, dim)
            u = _random_tangent(rng, model, o)
            w = _random_tangent(rng, model, o)
            lhs = metric_inner(model, x, transport_from_origin(model, x, u), transport_from_origin(model, x, w))
            assert lhs[0] == pytest.approx(metric_inner(model, o, u, w)[0], abs=1e-8)

    @pytest.mark.parametrize("dist", [2.0, 8.4, 12.2, 16.8])
    def test_lorentz_far_from_the_origin(self, dist):
        # against the closed form v + <x, v> / (1 + t) (o + x) at MP_DIGITS, on
        # the same float rows.  Its time x_s . v_s rounds as any dot product,
        # to an ulp of sum |x_i v_i| <= x_t |v|, so the error is measured on
        # that scale.  A projection of the result multiplied it by x_t^2: 2e-9
        # of |want| at 8.4 and 0.04 at 16.8, the Poincare clamp
        rng = np.random.default_rng(25)
        with mpmath.workdps(MP_DIGITS):
            for _ in range(25):
                dim = int(rng.integers(1, 9))
                x = lorentz_rows(math.sinh(dist) * _unit_rows(rng, dim)[None])
                v = np.pad(rng.normal(size=(1, dim)), ((0, 0), (1, 0)))
                got = transport_from_origin(L, x, v)[0]
                (t, *xs), (_, *vs) = _mp(x[0]), _mp(v[0])
                k = _mp_dot(xs, vs) / (1 + t)
                want = [k * (1 + t)] + [a + k * b for a, b in zip(vs, xs)]
                diff = [mpmath.mpf(float(g)) - w for g, w in zip(got, want)]
                assert float(mpmath.sqrt(_mp_dot(diff, diff))) <= 1e-14 * x[0, 0] * np.linalg.norm(v)

    def test_klein_equals_lorentz_conjugation(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            x = sample_klein(rng, dim)
            v = rng.normal(size=(1, dim))
            direct = transport_from_origin(K, x, v)
            xl = convert_point(K, L, x)
            moved = transport_from_origin(L, xl, pushforward(K, L, np.zeros((1, dim)), v))
            via = pushforward(L, K, xl, moved)
            np.testing.assert_allclose(direct, via, atol=1e-8)


_far = st.floats(0.0, 16.8)  # out to the Poincare clamp
# entries below 1e-100 are zero, as a norm would underflow in the bound
_entries = st.lists(st.floats(-1.0, 1.0).map(lambda a: a if abs(a) >= 1e-100 else 0.0), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dist=_far, direction=_entries, other=_far, turn=_entries, raw=_entries)
def test_lorentz_tangents_are_built_tangent(dist, direction, other, turn, raw):
    # transport, log and the Klein pushforward return their tangents as
    # built, unprojected; each is tangent up to the rounding of <x, u>.  The
    # Klein rows stop at the Klein clamp, 8.41 out
    dim = len(direction)
    x = lorentz_rows(math.sinh(dist) * _unit_row(direction))
    y = lorentz_rows(math.sinh(other) * _unit_row(np.resize(turn, dim)))
    v = np.resize(raw, (1, dim))
    c = clamp_to_ball(math.tanh(dist) * _unit_row(direction))
    for base, u in [
        (x, transport_from_origin(L, x, np.pad(v, ((0, 0), (1, 0))))),
        (x, log_map(L, x, y)),
        (convert_point(K, L, c), pushforward(K, L, c, v)),
    ]:
        assert abs(minkowski_rows(base, u)[0, 0]) <= 1e-14 * base[0, 0] * np.linalg.norm(u)


def klein_metric_inverse(c):
    """The inverse metric matrix of the Klein ball at the 1-d point c: the
    optimizer's Riemannian gradient of each unit vector, a column each."""
    return _riemannian_bias_grad(K, np.asarray(c, dtype=np.float64), np.eye(len(c)))


class TestKleinMetricInverse:
    def test_origin_identity(self):
        np.testing.assert_array_equal(klein_metric_inverse([0.0, 0.0]), np.eye(2))

    def test_radius_08(self):
        out = klein_metric_inverse([0.8, 0.0])
        np.testing.assert_allclose(out, [[0.1296, 0.0], [0.0, 0.36]], atol=1e-15)

    def test_one_dimensional(self):
        out = klein_metric_inverse([0.6])
        np.testing.assert_allclose(out, [[0.4096]], atol=1e-15)

    def test_product_with_metric_is_identity(self):
        # the Riemannian gradient of the metric times each unit vector is that
        # vector: the inverse metric times the metric is the identity
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            c = sample_klein(rng, dim)[0]
            s = 1.0 - float(c @ c)
            metric = np.eye(dim) / s + np.outer(c, c) / s**2
            np.testing.assert_allclose(klein_metric_inverse(c) @ metric, np.eye(dim), atol=1e-10)


class TestClampToBall:
    def test_interior(self):
        np.testing.assert_array_equal(clamp_to_ball(row(0.5, 0.0))[0], [0.5, 0.0])

    def test_boundary(self):
        np.testing.assert_allclose(clamp_to_ball(row(1.0, 0.0))[0], [1.0 - EPS_BALL, 0.0])

    def test_rescaling(self):
        np.testing.assert_allclose(
            clamp_to_ball(row(3.0, 4.0))[0], np.array([0.6, 0.8]) * (1.0 - EPS_BALL)
        )


ROWS = 64


def kernel_points(rng, model, dim=5):
    """ROWS points of model: Klein radii up to 1 - 1e-6, row 0 the origin."""
    direction = rng.normal(size=(ROWS, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0 - 1e-6, size=(ROWS, 1))
    radius[0], radius[1] = 0.0, 1.0 - 1e-6
    return convert_point(Model.KLEIN, model, radius * direction)


def kernel_tangents(rng, model, x):
    """Tangent rows at x of metric norm up to 3, row 0 zero."""
    raw = rng.normal(size=(ROWS, x.shape[1] - (model is Model.LORENTZ)))
    raw[0] = 0.0
    if model is Model.LORENTZ:
        raw = lorentz_tangent_rows(x, np.pad(raw, ((0, 0), (1, 0))))
    norm = np.sqrt(metric_inner(model, x, raw, raw))
    return raw * (rng.uniform(0.0, 3.0, size=ROWS) / np.where(norm > 0.0, norm, 1.0))[:, None]


def kernel_cases(model):
    rng = np.random.default_rng(40)
    x, y = kernel_points(rng, model), kernel_points(rng, model)
    u, w = kernel_tangents(rng, model, x), kernel_tangents(rng, model, x)
    unit = kernel_tangents(rng, model, x)
    unit[0] = kernel_tangents(rng, model, x)[1]
    unit /= np.sqrt(metric_inner(model, x, unit, unit))[:, None]
    o = convert_point(Model.KLEIN, model, np.zeros((ROWS, 5)))
    cases = {
        "metric_inner": (partial(metric_inner, model), (x, u, w)),
        "distance": (partial(distance, model), (x, y)),
        "exp": (partial(exp_map, model), (x, u)),
        "log": (partial(log_map, model), (x, y)),
        "geodesic": (partial(exp_map, model), (x, rng.uniform(-5.0, 5.0, size=(ROWS, 1)) * unit)),
        "transport": (partial(transport_from_origin, model), (x, kernel_tangents(rng, model, o))),
    }
    for dst in Model:
        if dst is not model:
            cases[f"convert_{dst.value}"] = (partial(convert_point, model, dst), (x,))
            cases[f"pushforward_{dst.value}"] = (partial(pushforward, model, dst), (x, u))
    return cases


@pytest.mark.parametrize(
    "model,kernel", [(m, k) for m in Model for k in kernel_cases(m)], ids=lambda v: getattr(v, "value", v)
)
def test_row_kernel_matches_one_row_calls_and_padding(check_row_kernel, model, kernel):
    fn, args = kernel_cases(model)[kernel]
    check_row_kernel(fn, args)


def test_broken_transport_row_kernel(check_row_kernel, broken_klein_transport):
    rng = np.random.default_rng(41)
    x = kernel_points(rng, Model.KLEIN)
    check_row_kernel(broken_klein_transport, (x, kernel_tangents(rng, Model.KLEIN, x)))


def test_exp_rows_check_every_row():
    x = np.zeros((3, 2))
    v = np.array([[0.1, 0.0], [np.nan, 0.0], [0.0, 0.2]])
    with pytest.raises(ValueError, match="must be finite"):
        exp_map(Model.KLEIN, x, v)


def test_kernel_rows_are_clamped_to_the_ball():
    x = np.array([[0.0, 0.0], [0.5, 0.0]])
    out = exp_map(Model.KLEIN, x, np.array([[50.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), [1.0 - EPS_BALL, 0.5], rtol=1e-15)


def dot_rows(rng, n, d):
    """n >= 3 rows of d terms of magnitudes 10^+-150 with zero-padded tails;
    row 0's products are all -0.0, row 1 holds an inf and row 2 a nan."""
    a = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-150, 151, size=(n, 1))
    b = rng.normal(size=(n, d))
    a[np.arange(d) >= rng.integers(1, d + 1, size=(n, 1))] = 0.0
    a[0], b[0] = 0.0, -np.abs(b[0])
    a[1, 0], a[2, d - 1] = np.inf, np.nan
    return a, b


@pytest.mark.parametrize("n,d", [(1, 1), (1, 16), (2, 9), (2, 16), (2000, 16), (301, 17)])
def test_row_dots_sum_left_to_right_bit_for_bit(left_to_right_dots, n, d):
    # numpy sums a contiguous axis pairwise; row_dots must not, so padding a
    # row with zeros cannot move its bits.  Its order comes from numpy's
    # reduction loop, which this holds to a plain sum on every path: one sum,
    # several sums from either operand or only after both broadcast, stacked
    # products, an empty batch and float32 rows.
    a, b = dot_rows(np.random.default_rng(n * 100 + d), max(n, 3), d)
    blocks = [(a[i : i + 1], b[i : i + 1]) for i in range(3)] if n == 1 else [(a[:n], b[:n])]
    for a, b in blocks:
        with np.errstate(all="ignore"):
            cases = [
                (a, b),
                (a, a),
                (a, b[:1]),
                (a[:1], b),
                (np.stack([a, b, a * b], axis=1), b[:, None]),
                (a[:, None], np.stack([a[0], b[0], a[0] * b[0]])[None]),
                (a[:0], b[:0]),
                ((np.sign(a) * b).astype(np.float32), b.astype(np.float32)),
            ]
            for x, y in cases:
                got, want = row_dots(x, y), left_to_right_dots(x, y)
                assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
