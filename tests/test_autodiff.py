"""Gradient checks for the reverse-mode tape against central differences."""

import mpmath
import numpy as np
import pytest

from hyperklein import autodiff as ad
from hyperklein import nn
from hyperklein.autodiff import NumericalError, Tensor


def numeric_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        p, m = x.copy(), x.copy()
        p[i] += h
        m[i] -= h
        g[i] = (fn(p) - fn(m)) / (2 * h)
    return g


def check(fn, x, atol=1e-7):
    leaf = Tensor(x)
    out = fn(leaf)
    out.backward()
    numeric = numeric_grad(lambda a: float(fn(Tensor(a)).data), x)
    np.testing.assert_allclose(leaf.grad, numeric, atol=atol)


class TestArithmetic:
    def test_add_mul_chain(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        check(lambda t: ((t * 2.0 + 1.0) * t - t / 3.0).sum(), x)

    def test_division(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, size=(2, 3))
        check(lambda t: (1.0 / t + t / (t + 1.0)).sum(), x)

    def test_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        check(lambda t: (t @ Tensor(w)).sum(), x)
        leaf = Tensor(w)
        out = (Tensor(x) @ leaf).sum()
        out.backward()
        numeric = numeric_grad(lambda a: float((x @ a).sum()), w)
        np.testing.assert_allclose(leaf.grad, numeric, atol=1e-7)

    def test_broadcast_bias(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        b = rng.normal(size=3)
        leaf = Tensor(b)
        out = ((Tensor(x) + leaf) * (Tensor(x) * leaf)).sum()
        out.backward()
        numeric = numeric_grad(lambda a: float(((x + a) * (x * a)).sum()), b)
        np.testing.assert_allclose(leaf.grad, numeric, atol=1e-6)

    def test_sum_axis_keepdims(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 3))
        check(lambda t: ((t * t).sum(axis=1, keepdims=True) * t).sum(), x)

    def test_shared_gradient_is_not_written_in_place(self):
        # u + a hands one gradient array to both u and a, and u hands it on to
        # a and b; adding a's second share into that array would change b's
        leaf = Tensor(np.array([0.5, -1.0]))
        a, b = leaf * 2.0, leaf * 3.0
        u = a + b
        ((u + a) * 1.0).sum().backward()
        np.testing.assert_array_equal(leaf.grad, [7.0, 7.0])


class TestUnaryOps:
    def test_relu_gradient_zero_on_inactive(self):
        leaf = Tensor(np.array([-1.0, 0.0, 2.0]))
        ad.relu(leaf).sum().backward()
        np.testing.assert_array_equal(leaf.grad, [0.0, 0.0, 1.0])


SWITCH = ad._SERIES_SWITCH
BELOW, ABOVE = np.nextafter(SWITCH, 0.0), np.nextafter(SWITCH, 1.0)
# both sides of the series switch, and the range the cancellation used to spoil
NEAR_SWITCH = (1e-7, 1.01e-6, 3e-6, 1e-5, 1e-4, BELOW, SWITCH, ABOVE)


def mp_ratio_and_slope(exact, t_values):
    """f(t)/t and its slope in 50-digit arithmetic, by central differences."""
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-20")
        ratio = lambda s: exact(s) / s
        points = [mpmath.mpf(float(v)) for v in t_values]
        values = [float(ratio(v)) for v in points]
        slopes = [float((ratio(v + h) - ratio(v - h)) / (2 * h)) for v in points]
    return np.array(values), np.array(slopes)


class TestSmoothHelpers:
    @pytest.mark.parametrize(
        "name,exact",
        [
            ("tanhc", lambda t: mpmath.tanh(t) / t),
            ("atanhc", lambda t: mpmath.atanh(t) / t),
            ("sinhc", lambda t: mpmath.sinh(t) / t),
            ("asinhc", lambda t: mpmath.asinh(t) / t),
        ],
    )
    def test_agrees_with_exact_ratio(self, name, exact):
        t = np.array((1e-9,) + NEAR_SWITCH + (0.1, 0.5, 0.99))
        got, _ = ad.smooth_ratio(name, t)
        with mpmath.workdps(50):
            want = np.array([float(exact(mpmath.mpf(float(v)))) for v in t])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_value_and_grad_at_zero(self):
        for name in ("tanhc", "atanhc", "sinhc", "asinhc"):
            value, slope = ad.smooth_ratio(name, np.array([[0.0]]))
            assert value[0, 0] == 1.0
            assert slope[0, 0] == 0.0

    def test_gradient_continuity_across_switch(self):
        for name in ("tanhc", "atanhc", "sinhc", "asinhc"):
            value, slope = ad.smooth_ratio(name, np.array([BELOW, ABOVE]))
            assert value[0] == pytest.approx(value[1], rel=1e-15)
            assert slope[0] == pytest.approx(slope[1], rel=1e-9)

    @pytest.mark.parametrize(
        "name,exact,t_values",
        [
            ("tanhc", mpmath.tanh, NEAR_SWITCH + (0.1, 1.0, 5.0)),
            ("atanhc", mpmath.atanh, NEAR_SWITCH + (0.1, 0.5, 0.99)),
            ("sinhc", mpmath.sinh, NEAR_SWITCH + (0.1, 1.0, 5.0)),
            ("asinhc", mpmath.asinh, NEAR_SWITCH + (0.1, 1.0, 5.0)),
        ],
    )
    def test_gradient_matches_finite_differences(self, name, exact, t_values):
        t = np.array(t_values)
        value, slope = ad.smooth_ratio(name, t)
        want_value, want_slope = mp_ratio_and_slope(exact, t_values)
        np.testing.assert_allclose(value, want_value, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(slope, want_slope, rtol=1e-9, atol=0.0)

    def test_row_norm_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        scales = np.array([[1e-3], [0.1], [1.0], [5.0]])
        x = rng.normal(size=(4, 3)) * scales
        weights = rng.normal(size=(4, 1))
        check(lambda t: (ad.row_norm(t) * weights).sum(), x, atol=1e-8)

    def test_row_norm(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        leaf = Tensor(x)
        ad.row_norm(leaf).sum().backward()
        np.testing.assert_allclose(
            leaf.grad, x / np.linalg.norm(x, axis=1, keepdims=True), atol=1e-10
        )

    def test_row_norm_zero_row_finite(self):
        leaf = Tensor(np.zeros((1, 3)))
        ad.row_norm(leaf).sum().backward()
        assert np.isfinite(leaf.grad).all()


class TestNumericalGuard:
    # the checks run on the network's stage nodes, built the way nn builds them
    def test_overflow_names_the_op(self):
        rows, weight = np.array([[1e300]]), Tensor(np.array([[1e300]]))
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="overflow in hidden_linear"):
            nn._hidden_linear(rows, weight)

    def test_overflow_names_the_op_and_row(self):
        a = Tensor(np.array([[2.0], [1e300], [1.0]]))
        weight, bias = Tensor(np.array([[1e300]])), Tensor(np.zeros(1))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match=r"overflow in readout at row 1$"):
                nn._readout(a, weight, bias)

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(NumericalError):
            Tensor(np.array([np.nan]))
