"""Unit tests for the Einstein gyrovector operations and Mobius counterparts.

Every operation takes (N, d) rows; a single point is a (1, d) row."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperklein.gyro import (
    einstein_add,
    einstein_matvec,
    einstein_midpoint,
    einstein_scalar,
    gyration,
    klein_geodesic_between,
    mobius_add,
)
from hyperklein.manifolds import Model, convert_point, distance, exp_map, log_map, transport_from_origin

K, P = Model.KLEIN, Model.POINCARE


def row(*coords):
    """One point or tangent vector as a (1, d) row."""
    return np.array([coords], dtype=np.float64)


def sample_klein(rng, dim, max_norm=0.95):
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    return (rng.uniform(0.0, max_norm) * direction)[None]


ball_coords = st.lists(
    st.floats(-0.55, 0.55, allow_nan=False, allow_infinity=False), min_size=2, max_size=2
).map(np.asarray)


class TestEinsteinAdd:
    def test_collinear_velocity_addition(self):
        out = einstein_add(row(0.5, 0.0), row(0.5, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-15)

    def test_right_identity(self):
        x = row(0.3, -0.2)
        np.testing.assert_allclose(einstein_add(x, row(0.0, 0.0)), x)

    def test_inverse(self):
        x = row(0.8, 0.0)
        out = einstein_add(-x, x)
        np.testing.assert_allclose(out[0], [0.0, 0.0], atol=1e-15)

    def test_general_pair_value(self):
        out = einstein_add(row(0.3, -0.2), row(0.4, 0.1))
        np.testing.assert_allclose(
            out[0], [0.626015621795772, -0.10643111276088748], atol=1e-14
        )

    def test_collinear_reduction(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            a, b = rng.uniform(-0.9, 0.9, size=2)
            out = einstein_add((a * d)[None], (b * d)[None])
            np.testing.assert_allclose(out[0], (a + b) / (1 + a * b) * d, atol=1e-12)

    @given(ball_coords, ball_coords)
    @settings(max_examples=80, deadline=None)
    def test_inverse_property(self, xc, yc):
        x = xc[None]
        out = einstein_add(-x, x)
        assert np.linalg.norm(out) < 1e-12


class TestEinsteinScalar:
    def test_doubling(self):
        out = einstein_scalar(2.0, row(0.5, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-15)

    def test_unit_scalar(self):
        x = row(0.3, -0.2)
        np.testing.assert_allclose(einstein_scalar(1.0, x), x, atol=1e-15)

    def test_zero_scalar(self):
        np.testing.assert_array_equal(einstein_scalar(0.0, row(0.3, -0.2))[0], [0.0, 0.0])

    def test_zero_point(self):
        np.testing.assert_array_equal(einstein_scalar(2.5, row(0.0, 0.0))[0], [0.0, 0.0])

    def test_general_value(self):
        out = einstein_scalar(0.7, row(0.3, -0.2))
        np.testing.assert_allclose(
            out[0], [0.21490357706159395, -0.14326905137439597], atol=1e-14
        )

    def test_matches_tangent_space_construction(self):
        rng = np.random.default_rng(1)
        o = np.zeros((1, 4))
        for _ in range(200):
            x = sample_klein(rng, 4)
            r = float(rng.uniform(-3.0, 3.0))
            direct = einstein_scalar(r, x)
            via = exp_map(K, o, r * log_map(K, o, x))
            np.testing.assert_allclose(direct, via, atol=1e-9)


class TestGyration:
    def test_second_argument_zero(self):
        x, z = row(0.5, 0.1), row(0.3, 0.1)
        np.testing.assert_allclose(gyration(x, row(0.0, 0.0), z), z, atol=1e-12)

    def test_parallel_arguments(self):
        x, z = row(0.5, 0.1), row(0.3, 0.1)
        np.testing.assert_allclose(gyration(x, x, z), z, atol=1e-12)

    def test_norm_preserved(self):
        out = gyration(row(0.5, 0.0), row(0.0, 0.5), row(0.3, 0.1))[0]
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm([0.3, 0.1]), abs=1e-10)
        np.testing.assert_allclose(out, [0.3112087098689504, 0.056117189003935845], atol=1e-12)

    def test_gyrocommutativity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x, y = sample_klein(rng, 3), sample_klein(rng, 3)
            lhs = einstein_add(x, y)
            rhs = gyration(x, y, einstein_add(y, x))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_left_gyroassociativity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y, z = (sample_klein(rng, 3) for _ in range(3))
            lhs = einstein_add(x, einstein_add(y, z))
            rhs = einstein_add(einstein_add(x, y), gyration(x, y, z))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_inner_product_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y, u, w = (sample_klein(rng, 3) for _ in range(4))
            gu = gyration(x, y, u)[0]
            gw = gyration(x, y, w)[0]
            assert gu @ gw == pytest.approx(u[0] @ w[0], abs=1e-9)


class TestMobiusAdd:
    def test_collinear(self):
        out = mobius_add(row(0.5, 0.0), row(0.5, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-15)

    def test_identities(self):
        x = row(0.3, -0.1)
        zero = row(0.0, 0.0)
        np.testing.assert_allclose(mobius_add(x, zero), x)
        np.testing.assert_allclose(mobius_add(zero, x), x)

    def test_consistency_with_einstein(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            xb = convert_point(K, P, sample_klein(rng, dim))
            yb = convert_point(K, P, sample_klein(rng, dim))
            lhs = convert_point(P, K, mobius_add(xb, yb))
            rhs = einstein_add(convert_point(P, K, xb), convert_point(P, K, yb))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestEinsteinMatvec:
    def test_identity_matrix(self):
        x = row(0.4, -0.3)
        np.testing.assert_allclose(einstein_matvec(np.eye(2)[None], x), x, atol=1e-14)

    def test_rotation_acts_linearly(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = einstein_matvec(rot[None], row(0.5, 0.0))
        np.testing.assert_allclose(out[0], [0.0, 0.5], atol=1e-14)

    def test_doubling(self):
        out = einstein_matvec(2.0 * np.eye(2)[None], row(0.5, 0.0))
        np.testing.assert_allclose(out[0], [0.8, 0.0], atol=1e-14)

    def test_zero_image_returns_origin(self):
        out = einstein_matvec(np.zeros((1, 3, 2)), row(0.5, 0.0))
        np.testing.assert_array_equal(out[0], np.zeros(3))

    def test_matches_tangent_space_construction(self):
        rng = np.random.default_rng(6)
        o2 = np.zeros((1, 2))
        for _ in range(200):
            m = rng.normal(size=(3, 2))
            x = sample_klein(rng, 2)
            direct = einstein_matvec(m[None], x)
            w = m @ log_map(K, o2, x)[0]
            via = exp_map(K, np.zeros((1, 3)), w[None])
            np.testing.assert_allclose(direct, via, atol=1e-10)

    def test_composition_property(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m1 = rng.normal(size=(2, 3))
            m2 = rng.normal(size=(3, 4))
            x = sample_klein(rng, 4)
            lhs = einstein_matvec((m1 @ m2)[None], x)
            rhs = einstein_matvec(m1[None], einstein_matvec(m2[None], x))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_scaling_property(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = rng.normal(size=(3, 3))
            r = float(rng.uniform(0.1, 3.0))
            x = sample_klein(rng, 3)
            lhs = einstein_matvec((r * m)[None], x)
            rhs = einstein_scalar(r, einstein_matvec(m[None], x))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_orthogonal_property(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            q, r = np.linalg.qr(rng.normal(size=(4, 4)))
            q = q * np.sign(np.diag(r))
            x = sample_klein(rng, 4)
            np.testing.assert_allclose(einstein_matvec(q[None], x)[0], q @ x[0], atol=1e-10)

    def test_tiny_point_maps_linearly(self):
        out = einstein_matvec(2.0 * np.eye(2)[None], row(1e-17, 0.0))
        np.testing.assert_array_equal(out[0], [2e-17, 0.0])

    def test_shape_mismatch(self):
        # a matrix whose columns do not match the point's dimension does not broadcast
        with pytest.raises(ValueError):
            einstein_matvec(np.eye(3)[None], row(0.1, 0.1))


class TestBiasTranslate:
    """The Klein layer translates by its bias point with one Einstein addition."""

    def test_zero_point(self):
        b = row(0.2, 0.6)
        np.testing.assert_allclose(einstein_add(row(0.0, 0.0), b), b)

    def test_equals_transported_exponential(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            x, b = sample_klein(rng, dim), sample_klein(rng, dim)
            o = np.zeros((1, dim))
            via = exp_map(K, x, transport_from_origin(K, x, log_map(K, o, b)))
            np.testing.assert_allclose(einstein_add(x, b), via, atol=1e-8)


class TestGeodesicBetween:
    def test_endpoints(self):
        rng = np.random.default_rng(11)
        x, y = sample_klein(rng, 3), sample_klein(rng, 3)
        np.testing.assert_allclose(klein_geodesic_between(x, y, 0.0), x, atol=1e-10)
        np.testing.assert_allclose(klein_geodesic_between(x, y, 1.0), y, atol=1e-10)

    def test_midpoint_through_origin(self):
        out = klein_geodesic_between(row(0.0, 0.0), row(0.8, 0.0), 0.5)
        np.testing.assert_allclose(out[0], [0.5, 0.0], atol=1e-12)

    def test_degenerate(self):
        x = row(0.5, 0.0)
        for t in (0.0, 0.3, 1.0, 2.0):
            np.testing.assert_allclose(klein_geodesic_between(x, x, t), x, atol=1e-12)

    def test_image_is_a_straight_chord(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x, y = sample_klein(rng, 2), sample_klein(rng, 2)
            chord = y[0] - x[0]
            chord /= np.linalg.norm(chord)
            for t in np.linspace(0.0, 1.0, 7):
                g = klein_geodesic_between(x, y, float(t))[0] - x[0]
                off = g - (g @ chord) * chord
                assert np.linalg.norm(off) < 1e-9


MP_DIGITS = 60


def _mp_lift(p):
    """The hyperboloid point gamma (1, p) of the float Klein row p, at MP_DIGITS."""
    p = [mpmath.mpf(float(c)) for c in p]
    gamma = 1 / mpmath.sqrt(1 - mpmath.fsum(c * c for c in p))
    return [gamma] + [gamma * c for c in p]


def _mp_cosh_distance(a, b):
    return a[0] * b[0] - mpmath.fsum(p * q for p, q in zip(a[1:], b[1:]))


@pytest.mark.parametrize("radius,bound", [(0.99999, 1e-10), (1.0 - 1e-7, 1e-8)])
def test_geodesic_points_lie_on_the_hyperboloid_geodesic(radius, bound):
    # a coordinate rounding at radius r moves a point about ulp / (1 - r^2):
    # 6e-12 and 6e-10 here.  The Einstein expression x + t (-x + y) missed by
    # up to 3.4 and 8.1, as its inner -x + y was clamped at 1 - EPS_BALL.
    rng = np.random.default_rng(22)
    with mpmath.workdps(MP_DIGITS):
        for _ in range(150):
            dim = int(rng.integers(2, 9))
            x, y = (radius * v / np.linalg.norm(v) for v in rng.normal(size=(2, dim)))
            t = rng.uniform(0.0, 1.0)
            xl, yl = _mp_lift(x), _mp_lift(y)
            d, s = mpmath.acosh(_mp_cosh_distance(xl, yl)), mpmath.mpf(t)
            want = [(mpmath.sinh((1 - s) * d) * a + mpmath.sinh(s * d) * b) / mpmath.sinh(d) for a, b in zip(xl, yl)]
            got = _mp_lift(klein_geodesic_between(x[None], y[None], t)[0])
            assert float(mpmath.acosh(max(_mp_cosh_distance(want, got), 1))) <= bound


class TestEinsteinMidpoint:
    def test_singleton(self):
        x = row(0.4, 0.1)
        np.testing.assert_allclose(einstein_midpoint(x, [1.0]), x)

    def test_symmetric_pair(self):
        x = row(0.4, 0.1)
        out = einstein_midpoint(np.vstack((x, -x)))
        np.testing.assert_allclose(out[0], [0.0, 0.0], atol=1e-15)

    def test_weighted_value(self):
        out = einstein_midpoint(np.vstack((row(0.8, 0.0), row(0.0, 0.0))))
        np.testing.assert_allclose(out[0], [0.5, 0.0], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty aggregation"):
            einstein_midpoint(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty aggregation"):
            einstein_midpoint(row(0.1, 0.1), [0.0])

    def test_inside_ball(self):
        rng = np.random.default_rng(13)
        pts = np.vstack([sample_klein(rng, 3, max_norm=0.999) for _ in range(5)])
        out = einstein_midpoint(pts, rng.uniform(0.0, 1.0, size=5))
        assert np.linalg.norm(out) < 1.0

    def test_two_rows_give_the_geodesic_midpoint(self):
        # the gamma-weighted average of two points is the point halfway along
        # their geodesic; the Einstein expression x + 1/2 (-x + y), which
        # klein_geodesic_between was, missed it by up to 1.2e-13 here
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(2000):
            dim = int(rng.integers(1, 9))
            x, y = sample_klein(rng, dim, max_norm=1.0 - 1e-7), sample_klein(rng, dim, max_norm=1.0 - 1e-7)
            mid = einstein_midpoint(np.vstack((x, y)))
            worst = max(worst, float(np.abs(mid - klein_geodesic_between(x, y, 0.5)).max()))
            d = distance(K, x, mid)[0]
            assert d == pytest.approx(distance(K, mid, y)[0], abs=1e-9)
        assert worst <= 1e-12


ROWS = 64


def ball_rows(rng, dim=5):
    """ROWS Klein points of radius up to 1 - 1e-6, row 0 the origin."""
    direction = rng.normal(size=(ROWS, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0 - 1e-6, size=(ROWS, 1))
    radius[0], radius[1] = 0.0, 1.0 - 1e-6
    return radius * direction


def gyro_kernel_cases():
    rng = np.random.default_rng(50)
    x, y, z = ball_rows(rng), ball_rows(rng), ball_rows(rng)
    xb, yb = (convert_point(K, P, p) for p in (x, y))
    r = rng.uniform(-3.0, 3.0, size=ROWS)
    t = rng.uniform(-1.0, 2.0, size=ROWS)
    return {
        "klein_geodesic_between": (klein_geodesic_between, (x, y, t)),
        "einstein_add": (einstein_add, (x, y)),
        "einstein_scalar": (einstein_scalar, (r, x)),
        "gyration": (gyration, (x, y, z)),
        "mobius_add": (mobius_add, (xb, yb)),
    }


@pytest.mark.parametrize("kernel", list(gyro_kernel_cases()))
def test_row_kernel_matches_one_row_calls_and_padding(check_row_kernel, kernel):
    fn, args = gyro_kernel_cases()[kernel]
    check_row_kernel(fn, args)


def test_matvec_row_kernel_matches_one_row_calls_and_padding(check_row_kernel):
    rng = np.random.default_rng(51)
    m = rng.normal(size=(ROWS, 4, 5))
    m[2] = 0.0
    x = ball_rows(rng)
    check_row_kernel(einstein_matvec, (m, x), pad=0)  # matrices pad on two axes, below
    padded = einstein_matvec(np.pad(m, ((0, 0), (0, 12), (0, 11))), np.pad(x, ((0, 0), (0, 11))))
    np.testing.assert_array_equal(padded, np.pad(einstein_matvec(m, x), ((0, 0), (0, 12))))
