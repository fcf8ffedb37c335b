"""Hyperbolic neural networks in Klein, Poincare, and Lorentz coordinates.

The architecture is fixed at depth two: one hyperbolic linear layer, a
hyperbolic ReLU, and a Euclidean readout of class logits.  A feature row x
is read as a tangent vector at the origin o, so the input point is exp_o(x)
and the layer's tangent-space matrix action applies W to x itself.  With b
the hidden bias point, R and r the readout weight and bias:

    Klein     h = exp_o(W x) (+)_E b                  Einstein addition
    Poincare  h = exp_o(W x) (+)_M b                  Mobius addition
    Lorentz   h = exp_p(PT_{o->p} log_o b),  p = exp_o(W x)
    logits    = R relu(log_o h) + r

In the ball models exp_o(W x) is the gyro matrix action on exp_o(x), so
these layers are the gyrovector closed forms: one matrix action and one
gyro-addition for the bias.  The Lorentz layer has no such shortcut and
transports the bias explicitly.  The hyperbolic ReLU exp_o(relu(log_o h))
is followed by the readout's log_o, so the readout takes relu(log_o h).

`klein_linear`, `poincare_linear`, `lorentz_linear`, `hyperbolic_activation`
and `readout_logits` compute the same network one point at a time through
`gyro` and `manifolds`; they are the reference the batched tape is tested
against.

Gradients are exact, computed by the tape in `autodiff`; the optimizer is a
Riemannian Adam that retracts manifold-valued biases with the exponential map.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NumericalError, Tensor
from .manifolds import (
    EPS_BALL,
    KleinPoint,
    LorentzPoint,
    Model,
    PoincarePoint,
    Point,
    TangentVector,
    exp_map,
    klein_metric_inverse,
    log_map,
    make_point,
    minkowski_inner,
    origin,
    transport_from_origin,
)

MAX_FEATURE_NORM = 5.0


@dataclass
class LayerParams:
    """Weight matrix and manifold-valued bias of one hyperbolic linear layer."""

    weight: np.ndarray
    bias: Point

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2 or not np.all(np.isfinite(self.weight)):
            raise ValueError("weight must be a finite 2-d matrix")
        if self.bias.dim != self.weight.shape[0]:
            raise ValueError("bias dimension must match the weight output dimension")


@dataclass
class HnnModel:
    """Two-layer hyperbolic network: hyperbolic linear + Euclidean readout."""

    flavor: Model
    hidden: LayerParams
    readout_weight: np.ndarray
    readout_bias: np.ndarray

    def __post_init__(self):
        self.flavor = Model(self.flavor)
        if self.hidden.bias.model is not self.flavor:
            raise ValueError("bias model must match the network flavor")
        self.readout_weight = np.asarray(self.readout_weight, dtype=np.float64)
        self.readout_bias = np.asarray(self.readout_bias, dtype=np.float64)
        if self.readout_weight.shape[1] != self.hidden.weight.shape[0]:
            raise ValueError("readout width must match the hidden width")
        if self.readout_weight.shape[0] != self.readout_bias.size:
            raise ValueError("readout bias length must match the class count")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def in_dim(self) -> int:
        return self.hidden.weight.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden.weight.shape[0]

    @property
    def n_classes(self) -> int:
        return self.readout_bias.size


def init_model(flavor: Model, in_dim: int, hidden_dim: int, n_classes: int, seed: int) -> HnnModel:
    """Uniform(+-1/sqrt(fan_in)) weights, bias at the origin, zero readout bias."""
    rng = np.random.default_rng(seed)
    flavor = Model(flavor)
    w = rng.uniform(-1.0, 1.0, size=(hidden_dim, in_dim)) / np.sqrt(in_dim)
    wr = rng.uniform(-1.0, 1.0, size=(n_classes, hidden_dim)) / np.sqrt(hidden_dim)
    return HnnModel(
        flavor=flavor,
        hidden=LayerParams(weight=w, bias=origin(flavor, hidden_dim)),
        readout_weight=wr,
        readout_bias=np.zeros(n_classes),
    )


# ---------------------------------------------------------------------------
# tape building blocks (rows of points, one manifold point per row)


def _log_origin_ball(x: Tensor) -> Tensor:
    return ad.atanhc(ad.row_norm(x)) * x


def _exp_origin_ball(v: Tensor) -> Tensor:
    return ad.tanhc(ad.row_norm(v)) * v


def _einstein_add_rows(x: Tensor, b: Tensor) -> Tensor:
    dot = (x * b).sum(axis=1, keepdims=True)
    gx = 1.0 / ad.sqrt(1.0 - (x * x).sum(axis=1, keepdims=True))
    return (x + b * (1.0 / gx) + (gx / (1.0 + gx)) * dot * x) * (1.0 / (1.0 + dot))


def _mobius_add_rows(x: Tensor, b: Tensor) -> Tensor:
    dot = (x * b).sum(axis=1, keepdims=True)
    nx = (x * x).sum(axis=1, keepdims=True)
    nb = (b * b).sum()
    num = (1.0 + 2.0 * dot + nb) * x + (1.0 - nx) * b
    return num * (1.0 / (1.0 + 2.0 * dot + nx * nb))


def _lorentz_exp_origin(w: Tensor) -> Tensor:
    n = ad.row_norm(w)
    return ad.concat_cols([ad.cosh(n), ad.sinhc(n) * w])


def _lorentz_log_origin_spatial(x: Tensor) -> Tensor:
    s = ad.cols(x, 1, None)
    return ad.asinhc(ad.row_norm(s)) * s


def _as_row(t: Tensor) -> Tensor:
    out = Tensor(t.data[None, :], (t,), name="row")
    out._bk = lambda g: t._accumulate(g)
    return out


def _lorentz_bias_rows(h: Tensor, b: Tensor) -> Tensor:
    """Translate rows of h by the bias point b: exp_h(transport(log_o(b)))."""
    b = _as_row(b)
    b_s = ad.cols(b, 1, None)
    v_s = ad.asinhc(ad.row_norm(b_s)) * b_s  # origin tangent, time part zero
    h_t = ad.cols(h, 0, 1)
    h_s = ad.cols(h, 1, None)
    inner = (h_s * v_s).sum(axis=1, keepdims=True)
    coef = inner * (1.0 / (1.0 + h_t))
    p_t = coef * (1.0 + h_t)
    p_s = v_s + coef * h_s
    quad = (p_s * p_s).sum(axis=1, keepdims=True) - p_t * p_t
    t = ad.sqrt(ad.relu(quad) + 1e-32)
    p = ad.concat_cols([p_t, p_s])
    return ad.cosh(t) * h + ad.sinhc(t) * p


def _preprocess(features: np.ndarray) -> np.ndarray:
    """Cap feature rows at MAX_FEATURE_NORM to keep tanh saturation in check."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats * (MAX_FEATURE_NORM / np.maximum(norms, MAX_FEATURE_NORM))


class _TapeRun:
    """One differentiable forward pass over a batch of rows.

    The capped feature rows x are origin tangent vectors, so w = x W^T is
    the tangent-space matrix action, with no exp/log of x:

        Klein     hidden_out = exp_o(w) (+)_E b
        Poincare  hidden_out = exp_o(w) (+)_M b
        Lorentz   hidden_out = _lorentz_bias_rows(exp_o(w), b)
        all       tangent = log_o(hidden_out)  (spatial part for Lorentz)
                  logits = relu(tangent) R^T + r

    Holds the parameter leaves, `hidden_out` and `tangent`.
    """

    def __init__(self, model: HnnModel, features: np.ndarray):
        if features.shape[1] != model.in_dim:
            raise ValueError(
                f"feature dimension {features.shape[1]} does not match model input {model.in_dim}"
            )
        self.model = model
        self.weight = Tensor(model.hidden.weight)
        self.bias = Tensor(model.hidden.bias.coords)
        self.readout_weight = Tensor(model.readout_weight)
        self.readout_bias = Tensor(model.readout_bias)
        w = Tensor(_preprocess(features)) @ _transpose(self.weight)

        if model.flavor is Model.LORENTZ:
            self.hidden_out = _lorentz_bias_rows(_lorentz_exp_origin(w), self.bias)
            self.tangent = _lorentz_log_origin_spatial(self.hidden_out)
        else:
            add = _einstein_add_rows if model.flavor is Model.KLEIN else _mobius_add_rows
            self.hidden_out = add(_exp_origin_ball(w), self.bias)
            self.tangent = _log_origin_ball(self.hidden_out)

        self.logits = ad.relu(self.tangent) @ _transpose(self.readout_weight) + self.readout_bias


def _transpose(t: Tensor) -> Tensor:
    out = Tensor(t.data.T, (t,), name="transpose")
    out._bk = lambda g: t._accumulate(g.T)
    return out


# ---------------------------------------------------------------------------
# single-point layer operations (the batched tape computes the same values)


def klein_linear(params: LayerParams, x: KleinPoint) -> KleinPoint:
    """Klein layer: one gyro matrix action and one Einstein addition."""
    from .gyro import einstein_add, einstein_matvec

    return einstein_add(einstein_matvec(params.weight, x), params.bias)


def poincare_linear(params: LayerParams, x: PoincarePoint) -> PoincarePoint:
    """Poincare layer: Mobius matrix action plus Mobius bias addition."""
    from .gyro import mobius_add

    o_in = origin(Model.POINCARE, x.dim)
    w = params.weight @ log_map(o_in, x).components
    o_out = origin(Model.POINCARE, params.weight.shape[0])
    image = exp_map(o_out, TangentVector(Model.POINCARE, o_out, w))
    return mobius_add(image, params.bias)


def lorentz_linear(params: LayerParams, x: LorentzPoint) -> LorentzPoint:
    """Hyperboloid layer: tangent-space matrix action, then transported bias."""
    o_in = origin(Model.LORENTZ, x.dim)
    w = params.weight @ log_map(o_in, x).components[1:]
    o_out = origin(Model.LORENTZ, params.weight.shape[0])
    image = exp_map(o_out, TangentVector(Model.LORENTZ, o_out, np.concatenate(([0.0], w))))
    shift = transport_from_origin(image, log_map(o_out, params.bias))
    return exp_map(image, shift)


def hyperbolic_activation(flavor: Model, x: Point) -> Point:
    """ReLU conjugated through the tangent space at the origin."""
    flavor = Model(flavor)
    o = origin(flavor, x.dim)
    v = log_map(o, x).components
    if flavor is Model.LORENTZ:
        lifted = np.concatenate(([0.0], np.maximum(v[1:], 0.0)))
    else:
        lifted = np.maximum(v, 0.0)
    return exp_map(o, TangentVector(flavor, o, lifted))


def readout_logits(model: HnnModel, x: Point) -> np.ndarray:
    """Euclidean readout on the origin-tangent coordinates of x."""
    if x.model is not model.flavor:
        raise ValueError("point model does not match the network flavor")
    if x.dim != model.hidden_dim:
        raise ValueError("readout expects a point of the hidden width")
    v = log_map(origin(model.flavor, x.dim), x).components
    if model.flavor is Model.LORENTZ:
        v = v[1:]
    return model.readout_weight @ v + model.readout_bias


def forward(model: HnnModel, features) -> np.ndarray:
    """Class logits for each feature row; deterministic, rows independent."""
    return _TapeRun(model, np.asarray(features, dtype=np.float64)).logits.data.copy()


def hidden_tangent(model: HnnModel, features) -> np.ndarray:
    """Origin-tangent coordinates of the hyperbolic linear layer outputs."""
    return _TapeRun(model, np.asarray(features, dtype=np.float64)).tangent.data.copy()


def cross_entropy(logits, label: int) -> float:
    """Negative log softmax probability of the label, max-stabilized."""
    z = np.asarray(logits, dtype=np.float64)
    if not 0 <= int(label) < z.size:
        raise ValueError(f"label {label} out of range for {z.size} classes")
    shifted = z - z.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[int(label)])


def _mean_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    shift = logits.data.max(axis=1, keepdims=True)  # constant: gradient-free stabilizer
    shifted = logits - shift
    lse = ad.log(ad.exp(shifted).sum(axis=1, keepdims=True))
    per_row = lse.sum(axis=1) - ad.pick(shifted, labels)
    return per_row.sum() * (1.0 / labels.size)


def gradients(model: HnnModel, features, labels):
    """Mean cross-entropy and its exact gradients for every parameter."""
    feats = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= model.n_classes):
        raise ValueError("labels out of range")
    run = _TapeRun(model, feats)
    loss = _mean_cross_entropy(run.logits, labels)
    loss.backward()
    grads = {
        "weight": run.weight.grad,
        "bias": run.bias.grad,
        "readout_weight": run.readout_weight.grad,
        "readout_bias": run.readout_bias.grad,
    }
    return float(loss.data), grads


# ---------------------------------------------------------------------------
# Riemannian Adam


@dataclass
class GradState:
    """Adam accumulators; moments are kept coordinate-wise per parameter."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    moments: dict = field(default_factory=dict)

    def _update(self, key: str, grad: np.ndarray) -> np.ndarray:
        m, v = self.moments.get(key, (np.zeros_like(grad), np.zeros_like(grad)))
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self.moments[key] = (m, v)
        m_hat = m / (1.0 - self.beta1**self.step)
        v_hat = v / (1.0 - self.beta2**self.step)
        return m_hat / (np.sqrt(v_hat) + self.eps)


def _riemannian_bias_grad(bias: Point, grad: np.ndarray) -> np.ndarray:
    if isinstance(bias, KleinPoint):
        return klein_metric_inverse(bias) @ grad
    if isinstance(bias, PoincarePoint):
        scale = (1.0 - float(bias.coords @ bias.coords)) / 2.0
        return scale * scale * grad
    h = grad.copy()
    h[0] = -h[0]
    return h + minkowski_inner(bias.coords, h) * bias.coords


# ball-valued biases are clamped to radius 1 - EPS_BALL by construction; this
# caps a hyperboloid bias at the same hyperbolic distance from the origin
_MAX_BIAS_DISTANCE = float(np.arctanh(1.0 - EPS_BALL))
_MAX_BIAS_STEP = 1.0


def _clamp_lorentz_radius(p: LorentzPoint) -> LorentzPoint:
    limit = float(np.cosh(_MAX_BIAS_DISTANCE))
    if p.time <= limit:
        return p
    spatial = p.spatial * (np.sinh(_MAX_BIAS_DISTANCE) / np.linalg.norm(p.spatial))
    return LorentzPoint(np.concatenate(([limit], spatial)))


def riemannian_adam_step(state: GradState, model: HnnModel, grads: dict) -> HnnModel:
    """One optimizer step; Euclidean params use plain Adam, the bias retracts."""
    state.step += 1
    lr = state.lr
    new_weight = model.hidden.weight - lr * state._update("weight", grads["weight"])
    new_rw = model.readout_weight - lr * state._update("readout_weight", grads["readout_weight"])
    new_rb = model.readout_bias - lr * state._update("readout_bias", grads["readout_bias"])

    bias = model.hidden.bias
    rgrad = _riemannian_bias_grad(bias, grads["bias"])
    step_vec = -lr * state._update("bias", rgrad)
    if isinstance(bias, LorentzPoint):
        step_vec = step_vec + minkowski_inner(bias.coords, step_vec) * bias.coords
        # projecting the coordinate-wise step back to the tangent space can
        # inflate its arclength by O(time); a unit trust region keeps the
        # retraction well-conditioned in hyperboloid coordinates
        length = float(np.sqrt(max(minkowski_inner(step_vec, step_vec), 0.0)))
        if length > _MAX_BIAS_STEP:
            step_vec = step_vec * (_MAX_BIAS_STEP / length)
    new_bias = exp_map(bias, TangentVector(model.flavor, bias, step_vec))
    if isinstance(new_bias, LorentzPoint):
        new_bias = _clamp_lorentz_radius(new_bias)

    return HnnModel(
        flavor=model.flavor,
        hidden=LayerParams(weight=new_weight, bias=new_bias),
        readout_weight=new_rw,
        readout_bias=new_rb,
    )


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 5000
    patience: int = 100

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0 or self.patience < 1:
            raise ValueError("epochs must be >= 0 and patience >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_acc: float
    seconds: float


def accuracy(model: HnnModel, features, labels) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float((forward(model, features).argmax(axis=1) == labels).mean())


def train(model: HnnModel, dataset, config: TrainConfig):
    """Full-batch training with early stopping on validation accuracy.

    Returns the best-validation model and the per-epoch metric records.
    Epoch seconds cover the gradient and update work only.
    """
    train_x = dataset.features[dataset.train_idx]
    train_y = dataset.labels[dataset.train_idx]
    val_x = dataset.features[dataset.val_idx]
    val_y = dataset.labels[dataset.val_idx]

    metrics: list[EpochRecord] = []
    state = GradState(lr=config.lr)
    best_acc = -1.0
    best_model = model
    best_epoch = -1
    # accuracy on a small validation set is quantized to 1/|val|; epochs within
    # one vote of the best are statistically tied, and the later model on such
    # a plateau has the larger margins, so ties refresh the snapshot
    slack = min(1.5 / val_y.size, 0.05) if val_y.size else 0.0

    for epoch in range(config.epochs):
        start = time.perf_counter()
        loss, grads = gradients(model, train_x, train_y)
        model = riemannian_adam_step(state, model, grads)
        seconds = time.perf_counter() - start

        val_acc = accuracy(model, val_x, val_y) if val_y.size else float("nan")
        metrics.append(EpochRecord(epoch, loss, val_acc, seconds))

        if val_y.size and val_acc >= best_acc - slack:
            best_model = copy.deepcopy(model)
            best_epoch = epoch
        best_acc = max(best_acc, val_acc) if val_y.size else best_acc
        if val_y.size and epoch - best_epoch >= config.patience:
            break

    return (best_model if best_epoch >= 0 else model), metrics


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: HnnModel, path, extra: dict | None = None) -> None:
    doc = {
        "flavor": model.flavor.value,
        "dims": {"in": model.in_dim, "hidden": model.hidden_dim, "classes": model.n_classes},
        "weight": model.hidden.weight.tolist(),
        "bias": model.hidden.bias.coords.tolist(),
        "readout_weight": model.readout_weight.tolist(),
        "readout_bias": model.readout_bias.tolist(),
    }
    doc.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a checkpoint back; returns (model, full document)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    flavor = Model(doc["flavor"])
    model = HnnModel(
        flavor=flavor,
        hidden=LayerParams(
            weight=np.asarray(doc["weight"], dtype=np.float64),
            bias=make_point(flavor, np.asarray(doc["bias"], dtype=np.float64)),
        ),
        readout_weight=np.asarray(doc["readout_weight"], dtype=np.float64),
        readout_bias=np.asarray(doc["readout_bias"], dtype=np.float64),
    )
    return model, doc
