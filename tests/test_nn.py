"""Tests for the hyperbolic layers, gradients, optimizer, and training loop."""

import copy
import warnings

import numpy as np
import pytest

from hyperklein import autodiff, nn
from hyperklein.autodiff import NumericalError
from hyperklein.data import gen_tree_dataset
from hyperklein.manifolds import (
    KleinPoint,
    Model,
    convert_point,
    distance,
    exp_map,
    make_point,
    minkowski_inner,
    origin,
    tangent,
)

LN3 = 1.0986122886681098


def identity_layer(flavor, dim):
    return nn.LayerParams(np.eye(dim), origin(flavor, dim))


def offset_bias_model(flavor, n, m, c, seed, scale=0.4):
    rng = np.random.default_rng(seed + 1000)
    model = nn.init_model(flavor, n, m, c, seed)
    o = origin(flavor, m)
    raw = rng.normal(size=o.coords.shape) * scale
    if flavor is Model.LORENTZ:
        raw[0] = 0.0
    model.hidden.bias = exp_map(o, tangent(o, raw))
    return model


class TestKleinLinear:
    def test_identity(self):
        x = KleinPoint([0.4, -0.1])
        out = nn.klein_linear(identity_layer(Model.KLEIN, 2), x)
        np.testing.assert_allclose(out.coords, x.coords, atol=1e-14)

    def test_rotation(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        params = nn.LayerParams(rot, origin(Model.KLEIN, 2))
        out = nn.klein_linear(params, KleinPoint([0.5, 0.0]))
        np.testing.assert_allclose(out.coords, [0.0, 0.5], atol=1e-14)

    def test_doubling(self):
        params = nn.LayerParams(2.0 * np.eye(2), origin(Model.KLEIN, 2))
        out = nn.klein_linear(params, KleinPoint([0.5, 0.0]))
        np.testing.assert_allclose(out.coords, [0.8, 0.0], atol=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            nn.klein_linear(identity_layer(Model.KLEIN, 3), KleinPoint([0.1, 0.1]))


class TestPoincareLinear:
    def test_identity(self):
        x = make_point(Model.POINCARE, [0.3, 0.2])
        out = nn.poincare_linear(identity_layer(Model.POINCARE, 2), x)
        np.testing.assert_allclose(out.coords, x.coords, atol=1e-12)

    def test_doubling_matches_klein(self):
        xb = make_point(Model.POINCARE, [0.2679491924311227, 0.0])
        params = nn.LayerParams(2.0 * np.eye(2), origin(Model.POINCARE, 2))
        out = nn.poincare_linear(params, xb)
        back = convert_point(out, Model.KLEIN)
        np.testing.assert_allclose(back.coords, [0.8, 0.0], atol=1e-12)

    def test_commutes_with_isometry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            weight = rng.normal(size=(m, n))
            bias_k = KleinPoint(rng.uniform(-0.4, 0.4, size=m))
            xk = KleinPoint(rng.uniform(-0.4, 0.4, size=n))
            klein_out = nn.klein_linear(nn.LayerParams(weight, bias_k), xk)
            poincare_out = nn.poincare_linear(
                nn.LayerParams(weight, convert_point(bias_k, Model.POINCARE)),
                convert_point(xk, Model.POINCARE),
            )
            np.testing.assert_allclose(
                convert_point(poincare_out, Model.KLEIN).coords, klein_out.coords, atol=1e-8
            )


class TestLorentzLinear:
    def test_identity(self):
        x = convert_point(KleinPoint([0.3, -0.2]), Model.LORENTZ)
        out = nn.lorentz_linear(identity_layer(Model.LORENTZ, 2), x)
        np.testing.assert_allclose(out.coords, x.coords, atol=1e-10)

    def test_origin_maps_to_origin(self):
        rng = np.random.default_rng(10)
        params = nn.LayerParams(rng.normal(size=(3, 2)), origin(Model.LORENTZ, 3))
        out = nn.lorentz_linear(params, origin(Model.LORENTZ, 2))
        np.testing.assert_allclose(out.coords, origin(Model.LORENTZ, 3).coords, atol=1e-12)

    def test_doubling_matches_klein(self):
        x = convert_point(KleinPoint([0.5, 0.0]), Model.LORENTZ)
        params = nn.LayerParams(2.0 * np.eye(2), origin(Model.LORENTZ, 2))
        out = nn.lorentz_linear(params, x)
        np.testing.assert_allclose(
            convert_point(out, Model.KLEIN).coords, [0.8, 0.0], atol=1e-10
        )

    def test_output_on_hyperboloid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            params = nn.LayerParams(
                rng.normal(size=(4, 3)),
                convert_point(KleinPoint(rng.uniform(-0.3, 0.3, size=4)), Model.LORENTZ),
            )
            x = convert_point(KleinPoint(rng.uniform(-0.4, 0.4, size=3)), Model.LORENTZ)
            out = nn.lorentz_linear(params, x)
            assert abs(minkowski_inner(out.coords, out.coords) + 1.0) < 1e-9


class TestActivation:
    def test_nonnegative_region_fixed(self):
        x = KleinPoint([0.3, 0.4])
        out = nn.hyperbolic_activation(Model.KLEIN, x)
        np.testing.assert_allclose(out.coords, x.coords, atol=1e-12)

    def test_origin_fixed(self):
        for flavor in Model:
            o = origin(flavor, 3)
            out = nn.hyperbolic_activation(flavor, o)
            np.testing.assert_allclose(out.coords, o.coords, atol=1e-15)

    def test_mixed_sign_value(self):
        out = nn.hyperbolic_activation(Model.KLEIN, KleinPoint([-0.5, 0.5]))
        np.testing.assert_allclose(out.coords, [0.0, 0.5533696351790970], atol=1e-12)


class TestReadout:
    def test_origin_gives_bias(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 3, seed=0)
        model.readout_bias = np.array([0.5, -1.0, 2.0])
        out = nn.readout_logits(model, origin(Model.KLEIN, 2))
        np.testing.assert_allclose(out, model.readout_bias)

    def test_identity_weights(self):
        model = nn.HnnModel(
            Model.KLEIN, identity_layer(Model.KLEIN, 2), np.eye(2), np.zeros(2)
        )
        out = nn.readout_logits(model, KleinPoint([0.8, 0.0]))
        np.testing.assert_allclose(out, [LN3, 0.0], atol=1e-10)

    def test_weight_scaling_linearity(self):
        model = nn.init_model(Model.KLEIN, 2, 3, 4, seed=1)
        model.readout_bias = np.linspace(-1, 1, 4)
        x = KleinPoint([0.2, -0.5, 0.1])
        base = nn.readout_logits(model, x) - model.readout_bias
        model.readout_weight = 2.0 * model.readout_weight
        doubled = nn.readout_logits(model, x) - model.readout_bias
        np.testing.assert_allclose(doubled, 2.0 * base, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert nn.cross_entropy(np.zeros(5), 2) == pytest.approx(1.6094379124341003, abs=1e-12)

    def test_saturated_no_overflow(self):
        assert nn.cross_entropy(np.array([1000.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_two_class_value(self):
        assert nn.cross_entropy(np.array([1.0, 0.0]), 0) == pytest.approx(
            0.3132616875182228, abs=1e-12
        )

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            nn.cross_entropy(np.zeros(3), 3)


class TestForward:
    def test_zero_row_reduces_to_bias_path(self):
        model = offset_bias_model(Model.KLEIN, 3, 4, 3, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # capping a zero-norm row must not warn
            logits = nn.forward(model, np.zeros((1, 3)))
        z = nn.hyperbolic_activation(Model.KLEIN, model.hidden.bias)
        np.testing.assert_allclose(logits[0], nn.readout_logits(model, z), atol=1e-12)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_rows_match_single_point_layers(self, flavor):
        # the single-point layers are the reference for the batched tape
        linear = {
            Model.KLEIN: nn.klein_linear,
            Model.POINCARE: nn.poincare_linear,
            Model.LORENTZ: nn.lorentz_linear,
        }[flavor]
        model = offset_bias_model(flavor, 3, 4, 3, seed=2)
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(6, 3))
        logits = nn.forward(model, rows)
        o = origin(flavor, 3)
        for row, got in zip(rows, logits):
            v = np.concatenate(([0.0], row)) if flavor is Model.LORENTZ else row
            h = linear(model.hidden, exp_map(o, tangent(o, v)))
            want = nn.readout_logits(model, nn.hyperbolic_activation(flavor, h))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rows_independent(self):
        model = offset_bias_model(Model.POINCARE, 3, 4, 3, seed=3)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 3))
        full = nn.forward(model, batch)
        for i in range(5):
            np.testing.assert_allclose(nn.forward(model, batch[i : i + 1])[0], full[i], atol=1e-12)

    def test_identical_rows_identical_logits(self):
        model = offset_bias_model(Model.LORENTZ, 3, 4, 3, seed=5)
        row = np.array([0.3, -1.0, 0.7])
        logits = nn.forward(model, np.stack([row, row]))
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_feature_dim_mismatch(self):
        model = nn.init_model(Model.KLEIN, 3, 4, 3, seed=6)
        with pytest.raises(ValueError):
            nn.forward(model, np.zeros((2, 5)))


def assert_gradients_match_finite_differences(model, feats, labels, h=1e-5, tol=1e-6):
    """Every coordinate of every parameter against central differences."""
    _, grads = nn.gradients(model, feats, labels)

    def loss_with(key, arr):
        trial = copy.deepcopy(model)
        if key == "weight":
            trial.hidden.weight = arr
        elif key == "bias":
            object.__setattr__(trial.hidden.bias, "coords", arr)
        else:
            setattr(trial, key, arr)
        return nn.gradients(trial, feats, labels)[0]

    current = {
        "weight": model.hidden.weight,
        "bias": model.hidden.bias.coords,
        "readout_weight": model.readout_weight,
        "readout_bias": model.readout_bias,
    }
    for key, base in current.items():
        assert grads[key].shape == base.shape
        for i in np.ndindex(base.shape):
            p, m = base.copy(), base.copy()
            p[i] += h
            m[i] -= h
            numeric = (loss_with(key, p) - loss_with(key, m)) / (2 * h)
            assert grads[key][i] == pytest.approx(numeric, abs=tol), (key, i)
    if model.flavor is Model.LORENTZ:
        # the loss reads the bias through its spatial part only
        assert grads["bias"][0] == 0.0


class TestGradients:
    @pytest.mark.parametrize("flavor", list(Model))
    def test_matches_finite_differences(self, flavor):
        rng = np.random.default_rng(12)
        model = offset_bias_model(flavor, 4, 3, 3, seed=7)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        assert_gradients_match_finite_differences(model, feats, labels)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_matches_finite_differences_large_weights(self, flavor):
        # hidden rows w = x W^T of norm about 3, where the layer's scalars
        # (1/gamma, the transported bias) are far from their values at 0
        rng = np.random.default_rng(20)
        model = offset_bias_model(flavor, 4, 3, 3, seed=21)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        norms = np.linalg.norm(nn._preprocess(feats) @ model.hidden.weight.T, axis=1)
        model.hidden.weight = model.hidden.weight * (3.0 / np.median(norms))
        assert_gradients_match_finite_differences(model, feats, labels)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_zero_rows_give_finite_gradients(self, flavor):
        # |w| = 0 sits on the series branch of every smooth ratio
        model = offset_bias_model(flavor, 3, 4, 3, seed=22)
        feats = np.zeros((3, 3))
        feats[1] = [0.5, -1.0, 2.0]
        _, grads = nn.gradients(model, feats, np.array([0, 1, 2]))
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert_gradients_match_finite_differences(model, feats, np.array([0, 1, 2]))

    def test_saturated_correct_logits_give_tiny_gradients(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 2, seed=8)
        model.readout_bias = np.array([50.0, -50.0])
        feats = np.random.default_rng(9).normal(size=(4, 2))
        labels = np.zeros(4, dtype=np.int64)
        _, grads = nn.gradients(model, feats, labels)
        total = sum(float(np.linalg.norm(g)) for g in grads.values())
        assert total < 1e-6

    def test_inactive_relu_blocks_gradient(self):
        # the single hidden coordinate is negative, so the activation zeroes it
        # and neither the weight nor the bias can receive any signal
        model = nn.HnnModel(
            Model.KLEIN,
            nn.LayerParams(np.array([[-1.0]]), origin(Model.KLEIN, 1)),
            np.array([[1.0], [0.5]]),
            np.zeros(2),
        )
        _, grads = nn.gradients(model, np.array([[1.0]]), np.array([0]))
        assert np.all(grads["weight"] == 0.0)
        assert np.all(grads["bias"] == 0.0)
        assert np.any(grads["readout_bias"] != 0.0)

    def test_labels_out_of_range(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 2, seed=10)
        with pytest.raises(ValueError):
            nn.gradients(model, np.zeros((1, 2)), np.array([2]))

    @pytest.mark.parametrize("flavor", list(Model))
    def test_arrays_share_no_memory(self, flavor):
        # the tape hands gradients on by reference, so a returned array must
        # not alias another gradient, a parameter or a later call's result
        model = offset_bias_model(flavor, 4, 3, 3, seed=13)
        feats = np.random.default_rng(14).normal(size=(5, 4))
        labels = np.array([0, 1, 2, 1, 0])
        first = list(nn.gradients(model, feats, labels)[1].values())
        second = list(nn.gradients(model, feats, labels)[1].values())
        hidden = model.hidden
        params = [hidden.weight, hidden.bias.coords, model.readout_weight, model.readout_bias]
        for i, g in enumerate(first):
            others = first[i + 1 :] + params + second
            assert not any(np.shares_memory(g, other) for other in others)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


def saturating_model(flavor):
    """Hidden weights x1e3 push the hidden layer past float64 saturation."""
    ds = gen_tree_dataset(6, 8, 0.1, 0)
    model = nn.init_model(flavor, ds.dim, 16, ds.n_classes, seed=0)
    model.hidden.weight = model.hidden.weight * 1e3
    return model, ds


def count_nodes(monkeypatch):
    counter = [0]
    init = autodiff.Tensor.__init__

    def counted(obj, *args, **kwargs):
        counter[0] += 1
        init(obj, *args, **kwargs)

    monkeypatch.setattr(autodiff.Tensor, "__init__", counted)
    return counter


class TestNumericalGuard:
    @pytest.mark.parametrize(
        "flavor,op", [(Model.KLEIN, "klein_layer"), (Model.LORENTZ, "lorentz_layer")]
    )
    def test_saturating_pass_names_the_op_and_row(self, flavor, op):
        model, ds = saturating_model(flavor)
        with pytest.raises(NumericalError, match=rf"overflow in {op} at row \d+$"):
            nn.forward(model, ds.features)
        with pytest.raises(NumericalError, match=rf"overflow in {op} at row \d+$"):
            nn.gradients(model, ds.features, ds.labels)

    def test_poincare_saturates_without_error(self):
        model, ds = saturating_model(Model.POINCARE)
        assert np.all(np.isfinite(nn.forward(model, ds.features)))
        loss, grads = nn.gradients(model, ds.features, ds.labels)
        assert np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())

    def test_train_names_op_row_flavor_and_epoch(self):
        model, ds = saturating_model(Model.KLEIN)
        with pytest.raises(NumericalError, match=r"overflow in klein_layer at row \d+ \(klein, epoch 0\)"):
            nn.train(model, ds, nn.TrainConfig(epochs=3))

    @pytest.mark.parametrize("flavor", list(Model))
    def test_finite_pass_builds_its_tape_once(self, flavor, monkeypatch):
        model = offset_bias_model(flavor, 4, 3, 3, seed=15)
        feats = np.random.default_rng(16).normal(size=(5, 4))
        labels = np.array([0, 1, 2, 1, 0])
        nodes = count_nodes(monkeypatch)
        run = nn._TapeRun(model, feats)
        nn._mean_cross_entropy(run.logits, labels)
        tape, nodes[0] = nodes[0], 0
        nn.gradients(model, feats, labels)
        assert nodes[0] == tape
        nodes[0] = 0
        nn._TapeRun(model, feats)
        forward_tape, nodes[0] = nodes[0], 0
        nn.forward(model, feats)
        assert nodes[0] == forward_tape
        nodes[0] = 0
        nn.hidden_tangent(model, feats)
        assert nodes[0] == forward_tape

    def test_saturating_pass_is_replayed(self, monkeypatch):
        model, ds = saturating_model(Model.KLEIN)
        nodes = count_nodes(monkeypatch)
        with pytest.raises(NumericalError):
            nn._TapeRun(model, ds.features)
        checked_only, nodes[0] = nodes[0], 0
        with pytest.raises(NumericalError):
            nn.forward(model, ds.features)
        assert nodes[0] > checked_only


class TestRiemannianAdam:
    def test_zero_gradients_leave_model_unchanged(self):
        model = offset_bias_model(Model.KLEIN, 3, 3, 3, seed=11)
        zero = {
            "weight": np.zeros_like(model.hidden.weight),
            "bias": np.zeros_like(model.hidden.bias.coords),
            "readout_weight": np.zeros_like(model.readout_weight),
            "readout_bias": np.zeros_like(model.readout_bias),
        }
        out = nn.riemannian_adam_step(nn.GradState(lr=0.1), model, zero)
        np.testing.assert_array_equal(out.hidden.weight, model.hidden.weight)
        np.testing.assert_array_equal(out.hidden.bias.coords, model.hidden.bias.coords)
        np.testing.assert_array_equal(out.readout_weight, model.readout_weight)

    def test_riemannian_gradient_at_origin_is_euclidean(self):
        bias = origin(Model.KLEIN, 3)
        g = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(nn._riemannian_bias_grad(bias, g), g, atol=1e-15)

    def test_first_step_magnitude_bounded_by_lr(self):
        model = nn.init_model(Model.KLEIN, 1, 1, 2, seed=12)
        grads = {
            "weight": np.zeros((1, 1)),
            "bias": np.array([0.7]),
            "readout_weight": np.zeros((2, 1)),
            "readout_bias": np.zeros(2),
        }
        out = nn.riemannian_adam_step(nn.GradState(lr=0.1), model, grads)
        moved = distance(model.hidden.bias, out.hidden.bias)
        assert 0.0 < moved <= 0.1 + 1e-9

    def test_lorentz_step_keeps_constraint(self):
        model = offset_bias_model(Model.LORENTZ, 2, 3, 2, seed=13)
        rng = np.random.default_rng(14)
        grads = {
            "weight": rng.normal(size=(3, 2)),
            "bias": rng.normal(size=4),
            "readout_weight": rng.normal(size=(2, 3)),
            "readout_bias": rng.normal(size=2),
        }
        state = nn.GradState(lr=0.05)
        for _ in range(5):
            model = nn.riemannian_adam_step(state, model, grads)
            c = model.hidden.bias.coords
            assert abs(minkowski_inner(c, c) + 1.0) < 1e-9


class TestTrain:
    def test_zero_epochs(self):
        ds = gen_tree_dataset(3, 6, 0.0, seed=0)
        model = nn.init_model(Model.KLEIN, ds.dim, 4, ds.n_classes, seed=0)
        out, metrics = nn.train(model, ds, nn.TrainConfig(epochs=0))
        assert metrics == []
        assert out is model

    def test_deterministic_metric_stream(self):
        ds = gen_tree_dataset(4, 8, 0.1, seed=1)
        runs = []
        for _ in range(2):
            model = nn.init_model(Model.KLEIN, ds.dim, 6, ds.n_classes, seed=3)
            _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=25, patience=25))
            runs.append([(m.epoch, m.train_loss, m.val_acc) for m in metrics])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("flavor", list(Model))
    def test_loss_decreases_over_fifty_epochs(self, flavor):
        ds = gen_tree_dataset(4, 8, 0.1, seed=2)
        model = nn.init_model(flavor, ds.dim, 8, ds.n_classes, seed=4)
        _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=50, patience=50))
        assert metrics[-1].train_loss < metrics[0].train_loss

    def test_early_stopping_bounds_epochs(self):
        ds = gen_tree_dataset(4, 8, 0.1, seed=5)
        model = nn.init_model(Model.KLEIN, ds.dim, 4, ds.n_classes, seed=6)
        _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=3000, patience=5))
        assert len(metrics) < 3000


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        for flavor in Model:
            model = offset_bias_model(flavor, 3, 4, 3, seed=15)
            path = tmp_path / f"{flavor.value}.json"
            nn.save_model(model, path, extra={"seed": 1, "config": {"lr": 0.01}})
            loaded, doc = nn.load_model(path)
            assert doc["seed"] == 1
            np.testing.assert_allclose(loaded.hidden.weight, model.hidden.weight, atol=1e-15)
            np.testing.assert_allclose(
                loaded.hidden.bias.coords, model.hidden.bias.coords, atol=1e-15
            )
            feats = np.random.default_rng(16).normal(size=(3, 3))
            np.testing.assert_allclose(
                nn.forward(loaded, feats), nn.forward(model, feats), atol=1e-12
            )


class TestFlavorParity:
    def test_corresponding_models_agree_on_logits(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, m, c = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 5))
            km = offset_bias_model(Model.KLEIN, n, m, c, seed=int(rng.integers(10000)))
            bm = nn.HnnModel(
                Model.POINCARE,
                nn.LayerParams(
                    km.hidden.weight / 2.0, convert_point(km.hidden.bias, Model.POINCARE)
                ),
                2.0 * km.readout_weight,
                km.readout_bias.copy(),
            )
            lm = nn.HnnModel(
                Model.LORENTZ,
                nn.LayerParams(
                    km.hidden.weight.copy(), convert_point(km.hidden.bias, Model.LORENTZ)
                ),
                km.readout_weight.copy(),
                km.readout_bias.copy(),
            )
            feats = rng.normal(size=(6, n)) * 2.0
            base = nn.forward(km, feats)
            np.testing.assert_allclose(nn.forward(bm, feats), base, atol=1e-6)
            np.testing.assert_allclose(nn.forward(lm, feats), base, atol=1e-6)

    def test_intermediate_points_stay_valid(self):
        rng = np.random.default_rng(18)
        for flavor in Model:
            model = offset_bias_model(flavor, 5, 6, 3, seed=19)
            feats = rng.normal(size=(50, 5)) * 8.0
            run = nn._TapeRun(model, feats)
            hidden = run.hidden_out
            assert np.all(np.isfinite(run.logits.data))
            if flavor is Model.LORENTZ:
                resid = np.abs(-hidden[:, 0] ** 2 + (hidden[:, 1:] ** 2).sum(axis=1) + 1.0)
                assert np.all(resid / np.maximum(1.0, hidden[:, 0] ** 2) < 1e-9)
            else:
                assert np.all(np.linalg.norm(hidden, axis=1) < 1.0)
