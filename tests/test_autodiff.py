"""Gradient checks for the reverse-mode tape against central differences."""

import mpmath
import numpy as np
import pytest

from hyperklein import autodiff as ad
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
    @pytest.mark.parametrize(
        "op,low,high",
        [
            (ad.cosh, -2.0, 2.0),
            (ad.exp, -2.0, 2.0),
            (ad.log, 0.2, 3.0),
            (ad.sqrt, 0.2, 3.0),
        ],
    )
    def test_matches_finite_differences(self, op, low, high):
        rng = np.random.default_rng(5)
        x = rng.uniform(low, high, size=(3, 3))
        check(lambda t: (op(t) * op(t)).sum(), x, atol=1e-5)

    def test_relu_gradient_zero_on_inactive(self):
        leaf = Tensor(np.array([-1.0, 0.0, 2.0]))
        ad.relu(leaf).sum().backward()
        np.testing.assert_array_equal(leaf.grad, [0.0, 0.0, 1.0])


class TestStructuralOps:
    def test_concat_and_cols(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 1))
        la, lb = Tensor(a), Tensor(b)
        joined = ad.concat_cols([la, lb])
        left = (ad.cols(joined, 0, 2) * 2.0).sum()
        right = (ad.cols(joined, 2, None) * 5.0).sum()
        (left + right).backward()
        np.testing.assert_allclose(la.grad, np.full((3, 2), 2.0))
        np.testing.assert_allclose(lb.grad, np.full((3, 1), 5.0))

    def test_pick(self):
        x = np.arange(6.0).reshape(2, 3)
        idx = np.array([2, 0])
        leaf = Tensor(x)
        ad.pick(leaf, idx).sum().backward()
        expected = np.zeros((2, 3))
        expected[0, 2] = expected[1, 0] = 1.0
        np.testing.assert_array_equal(leaf.grad, expected)


class TestSmoothHelpers:
    @pytest.mark.parametrize(
        "helper,exact",
        [
            (ad.tanhc, lambda t: np.tanh(t) / t),
            (ad.atanhc, lambda t: np.arctanh(t) / t),
            (ad.sinhc, lambda t: np.sinh(t) / t),
            (ad.asinhc, lambda t: np.arcsinh(t) / t),
        ],
    )
    def test_agrees_with_exact_ratio(self, helper, exact):
        t = np.array([[1e-9], [1e-7], [1e-5], [0.1], [0.5]])
        got = helper(Tensor(t)).data
        np.testing.assert_allclose(got, exact(t), rtol=1e-10)

    def test_value_and_grad_at_zero(self):
        leaf = Tensor(np.array([[0.0]]))
        out = ad.tanhc(leaf)
        out.backward()
        assert out.data[0, 0] == 1.0
        assert np.isfinite(leaf.grad).all()

    def test_gradient_continuity_across_switch(self):
        for helper in (ad.tanhc, ad.atanhc, ad.sinhc, ad.asinhc):
            grads = []
            for t0 in (9.9e-7, 1.01e-6):
                leaf = Tensor(np.array([[t0]]))
                helper(leaf).backward()
                grads.append(leaf.grad[0, 0])
            assert grads[0] == pytest.approx(grads[1], abs=5e-8)

    @pytest.mark.parametrize(
        "helper,exact,t_values",
        [
            (ad.tanhc, mpmath.tanh, (1e-7, 1e-5, 0.1, 1.0, 5.0)),
            (ad.atanhc, mpmath.atanh, (1e-7, 1e-5, 0.1, 0.5, 0.99)),
            (ad.sinhc, mpmath.sinh, (1e-7, 1e-5, 0.1, 1.0, 5.0)),
            (ad.asinhc, mpmath.asinh, (1e-7, 1e-5, 0.1, 1.0, 5.0)),
        ],
    )
    def test_gradient_matches_finite_differences(self, helper, exact, t_values):
        t = np.array(t_values)[:, None]
        weights = np.array([[1.0], [-2.0], [0.5], [3.0], [-1.5]])
        leaf = Tensor(t)
        (helper(leaf) * weights).sum().backward()
        # central differences of f(t)/t in 50-digit arithmetic, so that the
        # float64 rounding of values near 1 does not swamp slopes of order t
        with mpmath.workdps(50):
            h = mpmath.mpf("1e-20")
            ratio = lambda s: exact(s) / s
            points = [mpmath.mpf(v) for v in t_values]
            slopes = [(ratio(v + h) - ratio(v - h)) / (2 * h) for v in points]
        want = weights * np.array([float(s) for s in slopes])[:, None]
        # above the switch the slope (f'(t) - f(t)/t)/t subtracts two values
        # near 1, so its absolute error is a few ulps of 1 over t
        tol = 1e-9 * np.abs(want) + 4 * np.finfo(float).eps * np.abs(weights) / t
        assert np.all(np.abs(leaf.grad - want) <= tol)

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
    def test_overflow_names_the_op(self):
        with pytest.raises(NumericalError, match="exp"):
            ad.exp(Tensor(np.array([1000.0])))

    def test_log_of_zero(self):
        with pytest.raises(NumericalError, match="log"):
            ad.log(Tensor(np.array([0.0])))

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(NumericalError):
            Tensor(np.array([np.nan]))
