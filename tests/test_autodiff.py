"""Tests for the tape's chain of stages, its numerical guard and the smooth ratios."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest

from hyperklein import autodiff, nn
from hyperklein.autodiff import NumericalError, Tensor
from hyperklein.manifolds import _SERIES_SWITCH as SWITCH
from hyperklein.manifolds import ATANH_MAX, Model
from hyperklein.manifolds import smooth_ratio, smooth_slope


class TestChain:
    def test_backward_walks_the_chain_once_from_last_to_first(self):
        # each stage's backward runs once, and what it returns is the
        # gradient that the stage before it receives
        calls = []

        def recorder(name, factor):
            def back(g):
                calls.append((name, g.copy()))
                return g * factor

            return back

        first = Tensor(np.array([0.5, -1.0]), None, recorder("first", 2.0), "first")
        middle = Tensor(first.data * 3.0, first, recorder("middle", 3.0), "middle")
        last = Tensor(middle.data + 1.0, middle, recorder("last", 5.0), "last")
        last.backward()
        assert [name for name, _ in calls] == ["last", "middle", "first"]
        np.testing.assert_array_equal(calls[0][1], [1.0, 1.0])
        np.testing.assert_array_equal(calls[1][1], [5.0, 5.0])
        np.testing.assert_array_equal(calls[2][1], [15.0, 15.0])


class TestUnaryOps:
    def test_relu_gradient_zero_on_inactive(self):
        received = []
        first = Tensor(np.array([-1.0, 0.0, 2.0]), None, received.append)
        nn._relu(first).backward()
        np.testing.assert_array_equal(received[0], [0.0, 0.0, 1.0])


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
        got = smooth_ratio(name, t)
        with mpmath.workdps(50):
            want = np.array([float(exact(mpmath.mpf(float(v)))) for v in t])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_value_and_grad_at_zero(self):
        for name in ("tanhc", "atanhc", "sinhc", "asinhc"):
            t = np.array([[0.0]])
            value = smooth_ratio(name, t)
            slope = smooth_slope(name, t, value)
            assert value[0, 0] == 1.0
            assert slope[0, 0] == 0.0

    def test_gradient_continuity_across_switch(self):
        for name in ("tanhc", "atanhc", "sinhc", "asinhc"):
            t = np.array([BELOW, ABOVE])
            value = smooth_ratio(name, t)
            slope = smooth_slope(name, t, value)
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
        value = smooth_ratio(name, t)
        slope = smooth_slope(name, t, value)
        want_value, want_slope = mp_ratio_and_slope(exact, t_values)
        np.testing.assert_allclose(value, want_value, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(slope, want_slope, rtol=1e-9, atol=0.0)


# the formulation that evaluates both the series and f(t)/t on every row
# and picks with np.where; f' takes t and f(t)
WHERE_FORMS = {
    "tanhc": (np.tanh, lambda t, f: 1.0 - f * f, -1.0 / 3.0, 2.0 / 15.0),
    "atanhc": (
        lambda t: np.arctanh(np.minimum(t, ATANH_MAX)),
        lambda t, f: 1.0 / (1.0 - np.minimum(t, ATANH_MAX) ** 2),
        1.0 / 3.0,
        1.0 / 5.0,
    ),
    "sinhc": (np.sinh, lambda t, f: np.cosh(t), 1.0 / 6.0, 1.0 / 120.0),
    "asinhc": (np.arcsinh, lambda t, f: 1.0 / np.sqrt(1.0 + t * t), -1.0 / 6.0, 3.0 / 40.0),
}


def where_ratio_and_slope(name, t):
    f, df, c2, c4 = WHERE_FORMS[name]
    small = t < SWITCH
    s = np.where(small, 1.0, t)
    fs = f(s)
    y = fs / s
    t2 = t * t
    ratio = np.where(small, 1.0 + t2 * (c2 + t2 * c4), y)
    slope = np.where(small, t * (2.0 * c2 + 4.0 * c4 * (t * t)), (df(s, fs) - y) / s)
    return ratio, slope


class TestSeriesOnlyWhereNeeded:
    # the series runs only when a row is below the switch; either way every
    # bit matches the np.where formulation
    @pytest.mark.parametrize("name", sorted(WHERE_FORMS))
    @pytest.mark.parametrize(
        "rows",
        [
            (SWITCH, ABOVE, 0.01, 0.5, 0.99, 3.0, 20.0),
            (0.0, 1e-9, BELOW, SWITCH, 0.01, 0.5, 0.99, 3.0),
            (np.nan, np.inf, SWITCH, 0.5),
            (np.nan, 0.0, np.inf, 1e-4),
        ],
        ids=["above", "mixed", "nan_inf", "nan_inf_mixed"],
    )
    def test_bits_match_the_where_formulation(self, name, rows):
        t = np.array(rows)[:, None]
        with np.errstate(all="ignore"):  # sinh(inf) / inf
            value = smooth_ratio(name, t)
            slope = smooth_slope(name, t, value)
            want_value, want_slope = where_ratio_and_slope(name, t)
        assert value.tobytes() == want_value.tobytes()
        assert slope.tobytes() == want_slope.tobytes()

    @pytest.mark.parametrize("name", sorted(WHERE_FORMS))
    def test_zero_row_warns_nothing_outside_errstate(self, name):
        # a RuntimeWarning fails the test run
        t = np.zeros((3, 1))
        value = smooth_ratio(name, t)
        np.testing.assert_array_equal(value, 1.0)
        np.testing.assert_array_equal(smooth_slope(name, t, value), 0.0)


def scalar_grid():
    """0, both sides of the switch, [0.9, 1), ATANH_MAX and above it, and
    710 and 711, where sinh and cosh overflow, with random values between."""
    rng = np.random.default_rng(29)
    edges = [0.0, BELOW, SWITCH, ABOVE, np.nextafter(ATANH_MAX, 0.0), ATANH_MAX, np.nextafter(ATANH_MAX, 2.0)]
    return np.concatenate(
        [
            edges + [1.0, 1.5, 710.0, 711.0],
            rng.uniform(0.0, SWITCH, 500),
            rng.uniform(SWITCH, 0.9, 5000),
            rng.uniform(0.9, 1.0, 5000),
            rng.uniform(1.0, 30.0, 500),
        ]
    )


class TestScalarRatios:
    # a lone row's per-row scalars are numpy scalars, so a ratio and its slope
    # must round a scalar as they round it inside a (1, N) row; a scalar's
    # ** 2 calls pow, which rounds some squares otherwise than an array's; a
    # scalar's switch is tested by its own truth value, an array's by a
    # count, and nan, +inf and 0-d arrays take the same branches either way
    @pytest.mark.parametrize("name", sorted(WHERE_FORMS))
    def test_scalar_bits_match_the_array_bits(self, name):
        t = np.concatenate((scalar_grid(), [np.nan, np.inf]))
        with np.errstate(all="ignore"):  # sinh(711) / 711
            value = smooth_ratio(name, t[None])
            slope = smooth_slope(name, t[None], value)
            for i, x in enumerate(t):
                for arg in (x, np.array(x)):
                    got = smooth_ratio(name, arg)
                    got_slope = smooth_slope(name, arg, got)
                    assert np.float64(got).tobytes() == value[0, i].tobytes(), (name, x, type(arg))
                    assert np.float64(got_slope).tobytes() == slope[0, i].tobytes(), (name, x, type(arg))
            empty = np.zeros((1, 0))
            assert smooth_ratio(name, empty).shape == smooth_slope(name, empty, empty).shape == (1, 0)


def one_unit_model(readout_weight, readout_bias=(0.0, 0.0), weight=((1.0,),)):
    """A Klein network with the bias at the origin and two classes."""
    weight = np.array(weight)
    return nn.HnnModel(Model.KLEIN, weight, np.zeros(len(weight)), np.array(readout_weight), np.array(readout_bias))


class TestNumericalGuard:
    # a pass whose returned arrays are not all finite scans its stage nodes,
    # in the order it built them, for the first one that holds a non-finite value
    def test_overflow_names_the_op(self):
        model = one_unit_model([[1.0], [0.0]], weight=[[1e308, 1e308]])
        with pytest.raises(NumericalError, match=r"overflow in hidden_linear at row 1$"):
            nn.forward(model, np.array([[0.0, 0.0], [3.0, 4.0]]))

    def test_overflow_names_the_op_and_row(self):
        model = one_unit_model([[1e308], [0.0]])
        with pytest.raises(NumericalError, match=r"overflow in readout at row 1$"):
            nn.forward(model, np.array([[0.5], [5.0]]))

    def test_check_names_the_column_as_the_row(self):
        # a stage holds one column per dataset row
        data = np.zeros((4, 6))
        data[2, 3] = np.inf
        data[0, 5] = np.nan
        with pytest.raises(NumericalError, match=r"^numerical overflow in relu at row 3$"):
            autodiff.check(Tensor(data, name="relu"))

    def test_overflow_in_the_loss_names_its_stage(self):
        # finite logits 2e308 apart; the loss node holds one number, no rows
        model = one_unit_model([[0.0], [0.0]], readout_bias=[1e308, -1e308])
        with pytest.raises(NumericalError, match=r"overflow in cross_entropy$"):
            nn.gradients(model, np.array([[0.5]]), np.array([1]))

    def test_overflow_after_finite_stages_is_in_backward(self):
        # every stage is finite, but dL/da = g R with g = (1, -1) overflows
        model = one_unit_model([[1.5e308], [-1.5e308]])
        with pytest.raises(NumericalError, match=r"^numerical overflow in backward$"):
            nn.gradients(model, np.array([[1e-10]]), np.array([1]))

    def test_non_finite_leaf_rejected(self):
        # every parameter is checked when its model is built, so the scan
        # needs only the stages
        nan = float("nan")
        with pytest.raises(ValueError, match="weight must be a finite 2-d matrix"):
            one_unit_model([[1.0], [0.0]], weight=[[nan]])
        with pytest.raises(ValueError, match="coordinates must be finite"):
            replace(one_unit_model([[1.0], [0.0]]), bias=[nan])
        with pytest.raises(ValueError, match="readout weight must be a finite 2-d matrix"):
            one_unit_model([[nan], [0.0]])
        with pytest.raises(ValueError, match="readout bias must be a finite 1-d vector"):
            one_unit_model([[1.0], [0.0]], readout_bias=[0.0, nan])
