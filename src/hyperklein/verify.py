"""Property suites: every algebraic identity the library relies on, executable.

Each suite draws a deterministic sample stream, evaluates one identity through
two independent code paths, and reports the worst absolute error against a
pinned tolerance, with the inputs of the sample that has it.  The
conjugation oracles `_oracle_distance` and `_oracle_transport` recompute a
Klein distance or origin transport by mapping through the Lorentz or
Poincare model, which exercises entirely different formulas than the Klein
closed forms they check.

The geometry suites draw all their samples up front, each of dimension 1 to
16, zero-padded to width 16, and evaluate each side of their identity with
one call of a `manifolds` or `gyro` function on rows (one call per model
where the suite covers all three).  These keep padding zeros at zero, so a
padded sample gives the same errors as the unpadded one.  `_normal` zeroes
the padding of its draws in place.  `sample_ball` scales them to radii in
[0, 0.95], inside the clamp radius, so it calls no `clamp_to_ball`; it
builds the e_0 stand-in for a direction too short to normalise only when a
row needs one.  The matvec suites draw only each sample's own rows x cols
block of normals and scatter it into the padding; the orthogonal suite
factors its blocks with one batched QR per dimension.  Where the clamp to
the ball's radius has moved a point of an identity of Einstein matvecs along
its ray, that identity fixes only the directions, and those are compared.
The network suites
(`layer_commutation`, `gradient_check`, `forward_validity`,
`training_trend`) run the batched network through its public entry points
alone, which cap their inputs, so they read nothing of `nn`'s stages.
`gradient_check` holds each sample's exact gradients, from one
`nn.gradients` call, to central differences along one random unit
direction per parameter, the random-projection check of PyTorch's
`gradcheck(fast_mode=True)`.  The trial losses are a cross-entropy of this
module's own readout (`_readout`) of `nn.hidden_tangent`'s layer outputs:
a readout trial reads the moved readout array beside the sample's own
outputs and builds no model, and each weight or bias trial is one
`hidden_tangent` call on the model with that parameter moved.
`forward_validity` takes the same readout of the layer outputs once.
`training_trend` trains on the generated tree's train split alone.  Its
check reads only the first and last epochs' training losses, and a
validation pass never changes an update, so with no validation rows
`nn.train` computes the same losses without one.

The suites call the library's functions by module-level name, so a test shows
that a suite catches a defect by patching one, e.g. `verify.transport_from_origin`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn
from .data import Dataset, gen_tree_dataset
from .gyro import einstein_add, einstein_matvec, einstein_scalar, gyration, mobius_add
from .manifolds import (
    EPS_BALL,
    Model,
    clamp_to_ball,
    convert_point,
    distance,
    exp_map,
    log_map,
    lorentz_rows,
    lorentz_tangent_rows,
    metric_inner,
    origin,
    pushforward,
    row_dots,
    transport_from_origin,
)


@dataclass(frozen=True)
class PropertyReport:
    suite: str
    samples: int
    max_abs_error: float
    tolerance: float
    passed: bool
    worst_case_input: str
    # wall time of the run; not part of the deterministic JSON record
    seconds: float = field(default=0.0, compare=False)

    def to_json(self) -> str:
        return json.dumps({key: value for key, value in asdict(self).items() if key != "seconds"})


# every sample has dimension 1..WIDTH and is zero-padded to WIDTH
WIDTH = 16
_MODELS = (Model.KLEIN, Model.POINCARE, Model.LORENTZ)
_MODEL_NAMES = np.array([m.value for m in _MODELS])
_VIAS = (Model.POINCARE, Model.LORENTZ)


def _dims(rng, n):
    return rng.integers(1, WIDTH + 1, size=n)


def _mask(sizes):
    """(N, WIDTH) rows that are True on each row's first `size` entries."""
    return np.arange(WIDTH) < sizes[:, None]


def _normal(rng, dims):
    """Standard normal rows, zero past each row's dimension."""
    rows = rng.normal(size=(dims.size, WIDTH))
    rows *= _mask(dims)
    return rows


def _max_abs(diff):
    return np.max(np.abs(diff), axis=1)


def sample_ball(dims, rng: np.random.Generator) -> np.ndarray:
    """Klein rows of the given dimensions, zero-padded to WIDTH: uniform
    direction on the sphere, radius uniform in [0, 0.95].  A normal row too
    short to give a direction (norm below 1e-12) takes e_0.  No row needs
    `clamp_to_ball`: at radius 0.95 its scale would be exactly 1."""
    direction = _normal(rng, dims)
    norm = np.sqrt(row_dots(direction, direction))
    flat = norm < 1e-12
    if np.count_nonzero(flat):
        direction, norm = np.where(flat, np.eye(1, WIDTH), direction), np.where(flat, 1.0, norm)
    radius = rng.uniform(0.0, 0.95, size=(dims.size, 1))
    return radius * direction / norm


def _worst(err, **fields):
    """The largest entry of err and a JSON record of its row's inputs.

    A field (rows, n) or (rows, n, k), with per-row sizes n and k, records
    that row cut to n entries (an n x k matrix); a per-row array records the
    row's entry; any other value is recorded as it is.
    """
    i = int(np.argmax(err))

    def pick(value):
        if isinstance(value, tuple):
            rows, *sizes = value
            return rows[i][tuple(slice(int(n[i])) for n in sizes)].tolist()
        if isinstance(value, np.ndarray):
            return value[i].tolist()
        return value

    return float(err[i]), json.dumps({k: pick(v) for k, v in fields.items()})


def _worst_via(errs, **fields):
    """`_worst` over one error array per model in _VIAS, recording the model."""
    via = np.where(errs[1] > errs[0], _VIAS[1].value, _VIAS[0].value)
    return _worst(np.maximum(*errs), via=via, **fields)


# ---------------------------------------------------------------------------
# conjugation oracles


def _oracle_distance(x, y, via: Model):
    """Klein distances between the rows of x and y, (N,), computed in the model via."""
    return distance(via, convert_point(Model.KLEIN, via, x), convert_point(Model.KLEIN, via, y))


def _oracle_transport(x, v, via: Model = Model.LORENTZ):
    """Klein transport of the origin tangent rows v to the rows x, conjugated
    through the model via: carried there, transported, and carried back."""
    xv = convert_point(Model.KLEIN, via, x)
    moved = transport_from_origin(via, xv, pushforward(Model.KLEIN, via, np.zeros_like(x), v))
    return pushforward(via, Model.KLEIN, xv, moved)


# ---------------------------------------------------------------------------
# suites


def _suite_round_trip(samples, rng):
    dims = _dims(rng, samples)
    x = sample_ball(dims, rng)
    errs = [
        _max_abs(convert_point(via, Model.KLEIN, convert_point(Model.KLEIN, via, x)) - x)
        for via in _VIAS
    ]
    return _worst_via(errs, x=(x, dims))


def _suite_distance_isometry(samples, rng):
    dims = _dims(rng, samples)
    x, y = sample_ball(dims, rng), sample_ball(dims, rng)
    d = distance(Model.KLEIN, x, y)
    errs = [np.abs(_oracle_distance(x, y, via) - d) for via in _VIAS]
    return _worst_via(errs, x=(x, dims), y=(y, dims))


def _suite_pushforward_metric(samples, rng):
    dims = _dims(rng, samples)
    x = sample_ball(dims, rng)
    u, w = _normal(rng, dims), _normal(rng, dims)
    ref = metric_inner(Model.KLEIN, x, u, w)
    errs = []
    for via in _VIAS:
        y = convert_point(Model.KLEIN, via, x)
        pu, pw = (pushforward(Model.KLEIN, via, x, t) for t in (u, w))
        errs.append(np.abs(metric_inner(via, y, pu, pw) - ref))
    return _worst_via(errs, x=(x, dims), u=(u, dims), w=(w, dims))


def _tangent_rows(model, x, raw):
    """Tangent rows at x from WIDTH-wide raw rows: the Lorentz spatial part."""
    if model is Model.LORENTZ:
        return lorentz_tangent_rows(x, np.pad(raw, ((0, 0), (1, 0))))
    return raw


def _by_model(samples, dims, check, **extra):
    """Row i checks model i % 3.  check(model, rows) returns that model's
    errors and a dict of the point and tangent rows to record; the result
    is `_worst` over all rows."""
    err = np.zeros(samples)
    record = {}
    for k, model in enumerate(_MODELS):
        rows = slice(k, None, len(_MODELS))
        err[rows], arrays = check(model, rows)
        for key, value in arrays.items():
            if key not in record:
                record[key] = np.zeros((samples, WIDTH + 1))
            record[key][rows, : value.shape[1]] = value
    kind = np.arange(samples) % len(_MODELS)
    width = dims + (kind == 2)  # hyperboloid rows carry a time coordinate
    fields = {key: (value, width) for key, value in record.items()}
    return _worst(err, **fields, **extra, model=_MODEL_NAMES[kind])


def _unit_tangents(model, x, raw):
    v = _tangent_rows(model, x, raw)
    n = np.sqrt(np.maximum(metric_inner(model, x, v, v), 0.0))
    return v / np.where(n == 0.0, 1.0, n)[:, None]


def _suite_exp_log_inverse(samples, rng):
    dims = _dims(rng, samples)
    ball, raw = sample_ball(dims, rng), _normal(rng, dims)
    length = rng.uniform(0.0, 3.0, size=(samples, 1))

    def check(model, rows):
        x = convert_point(Model.KLEIN, model, ball[rows])
        v = _unit_tangents(model, x, raw[rows]) * length[rows]
        return _max_abs(log_map(model, x, exp_map(model, x, v)) - v), {"x": x, "v": v}

    return _by_model(samples, dims, check)


def _suite_geodesic_speed(samples, rng):
    dims = _dims(rng, samples)
    ball, raw = sample_ball(dims, rng), _normal(rng, dims)
    t = rng.uniform(-5.0, 5.0, size=samples)

    def check(model, rows):
        x = convert_point(Model.KLEIN, model, ball[rows])
        v = _unit_tangents(model, x, raw[rows])
        y = exp_map(model, x, t[rows, None] * v)
        return np.abs(distance(model, x, y) - np.abs(t[rows])), {"x": x, "v": v}

    return _by_model(samples, dims, check, t=t)


def _suite_transport_isometry(samples, rng):
    dims = _dims(rng, samples)
    ball = sample_ball(dims, rng)
    raw_u, raw_w = _normal(rng, dims), _normal(rng, dims)

    def check(model, rows):
        x = convert_point(Model.KLEIN, model, ball[rows])
        o = convert_point(Model.KLEIN, model, np.zeros_like(ball[rows]))
        u, w = _tangent_rows(model, o, raw_u[rows]), _tangent_rows(model, o, raw_w[rows])
        moved = metric_inner(model, x, transport_from_origin(model, x, u), transport_from_origin(model, x, w))
        return np.abs(moved - metric_inner(model, o, u, w)), {"x": x, "u": u, "w": w}

    return _by_model(samples, dims, check)


def _suite_transport_conjugation(samples, rng):
    dims = _dims(rng, samples)
    x, v = sample_ball(dims, rng), _normal(rng, dims)
    err = _max_abs(transport_from_origin(Model.KLEIN, x, v) - _oracle_transport(x, v))
    return _worst(err, x=(x, dims), v=(v, dims))


def _suite_scalar_mult_tangent(samples, rng):
    dims = _dims(rng, samples)
    x = sample_ball(dims, rng)
    r = rng.uniform(-3.0, 3.0, size=samples)
    o = np.zeros_like(x)
    via = exp_map(Model.KLEIN, o, r[:, None] * log_map(Model.KLEIN, o, x))
    return _worst(_max_abs(einstein_scalar(r, x) - via), x=(x, dims), r=r)


def _suite_transport_gyro(samples, rng):
    dims = _dims(rng, samples)
    x, raw = sample_ball(dims, rng), _normal(rng, dims)
    norm = np.sqrt(row_dots(raw, raw))
    v = raw * (rng.uniform(0.0, 2.0, size=(samples, 1)) / np.where(norm == 0.0, 1.0, norm))
    via = log_map(Model.KLEIN, x, einstein_add(x, exp_map(Model.KLEIN, np.zeros_like(x), v)))
    return _worst(_max_abs(transport_from_origin(Model.KLEIN, x, v) - via), x=(x, dims), v=(v, dims))


def _random_matrices(rng, rows, cols):
    """(N, WIDTH, WIDTH) matrices, normal / sqrt(cols) in each leading
    rows x cols block and zero outside it.  Only the blocks are drawn, one
    after the other, each in row-major order, and scattered into the zero
    padding that the row operations take."""
    block = _mask(rows)[:, :, None] & _mask(cols)[:, None, :]
    m = np.zeros(block.shape)
    m[block] = rng.normal(size=int((rows * cols).sum())) / np.repeat(np.sqrt(cols), rows * cols)
    return m


def _random_orthogonal(rng, dims):
    """(N, WIDTH, WIDTH) matrices, an orthogonal dims x dims block each and
    zero outside it: the Q factor of a `_random_matrices` block, with its
    columns' signs set by R's diagonal, from one batched QR per dimension."""
    a = _random_matrices(rng, dims, dims)
    q = np.zeros_like(a)
    for d in np.unique(dims):
        group = np.flatnonzero(dims == d)
        qd, r = np.linalg.qr(a[group, :d, :d])
        q[group, :d, :d] = qd * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q


# a kernel's output row at or above this norm may have been clamped to 1 - EPS_BALL
_CLAMPED = 1.0 - EPS_BALL - 1e-15


def _matvec_error(lhs, rhs, mid):
    """Per-row error of an identity lhs = rhs of Einstein matvecs whose
    right side maps the point mid once more.  Where lhs, rhs or mid lies on
    the clamp radius, the clamp has moved a point along its ray and the
    identity fixes only the directions, so those are compared; elsewhere the
    coordinates are."""
    nl, nr, nm = (np.sqrt(row_dots(p, p)) for p in (lhs, rhs, mid))
    clamped = np.maximum(np.maximum(nl, nr), nm)[:, 0] >= _CLAMPED
    direction = lhs / np.where(nl == 0.0, 1.0, nl) - rhs / np.where(nr == 0.0, 1.0, nr)
    return np.where(clamped, _max_abs(direction), _max_abs(lhs - rhs))


def _matvec(m, x):
    return np.einsum("nij,nj->ni", m, x)


def _suite_matvec_compose(samples, rng):
    dims, mid, out = (_dims(rng, samples) for _ in range(3))
    m1, m2 = _random_matrices(rng, out, mid), _random_matrices(rng, mid, dims)
    x = sample_ball(dims, rng)
    lhs = einstein_matvec(m1 @ m2, x)
    inner = einstein_matvec(m2, x)
    rhs = einstein_matvec(m1, inner)
    return _worst(
        _matvec_error(lhs, rhs, inner), x=(x, dims), m1=(m1, out, mid), m2=(m2, mid, dims), mid=mid, out=out
    )


def _suite_matvec_scale(samples, rng):
    dims, out = _dims(rng, samples), _dims(rng, samples)
    m = _random_matrices(rng, out, dims)
    r = rng.uniform(1e-3, 3.0, size=samples)
    x = sample_ball(dims, rng)
    lhs = einstein_matvec(r[:, None, None] * m, x)
    inner = einstein_matvec(m, x)
    rhs = einstein_scalar(r, inner)
    return _worst(_matvec_error(lhs, rhs, inner), x=(x, dims), r=r, m=(m, out, dims))


def _suite_matvec_orthogonal(samples, rng):
    dims = _dims(rng, samples)
    q = _random_orthogonal(rng, dims)
    x = sample_ball(dims, rng)
    err = _max_abs(einstein_matvec(q, x) - _matvec(q, x))
    return _worst(err, x=(x, dims), q=(q, dims, dims))


def _suite_matvec_tangent(samples, rng):
    dims, out = _dims(rng, samples), _dims(rng, samples)
    m = _random_matrices(rng, out, dims)
    x = sample_ball(dims, rng)
    o = np.zeros_like(x)
    via = exp_map(Model.KLEIN, o, _matvec(m, log_map(Model.KLEIN, o, x)))
    err = _max_abs(einstein_matvec(m, x) - via)
    return _worst(err, x=(x, dims), m=(m, out, dims), out=out)


def _suite_gyro_group(samples, rng):
    dims = _dims(rng, samples)
    x, y, z = (sample_ball(dims, rng) for _ in range(3))
    comm = einstein_add(x, y) - gyration(x, y, einstein_add(y, x))
    assoc = einstein_add(x, einstein_add(y, z)) - einstein_add(
        einstein_add(x, y), gyration(x, y, z)
    )
    err = np.maximum(_max_abs(comm), _max_abs(assoc))
    return _worst(err, x=(x, dims), y=(y, dims), z=(z, dims))


def _suite_gyration_inner(samples, rng):
    dims = _dims(rng, samples)
    x, y, u, w = (sample_ball(dims, rng) for _ in range(4))
    gu, gw = gyration(x, y, u), gyration(x, y, w)
    err = np.abs(row_dots(gu, gw) - row_dots(u, w))[:, 0]
    return _worst(err, x=(x, dims), y=(y, dims), u=(u, dims), w=(w, dims))


def _suite_mobius_einstein(samples, rng):
    dims = _dims(rng, samples)
    xb, yb = (convert_point(Model.KLEIN, Model.POINCARE, sample_ball(dims, rng)) for _ in range(2))
    lhs = convert_point(Model.POINCARE, Model.KLEIN, mobius_add(xb, yb))
    rhs = einstein_add(*(convert_point(Model.POINCARE, Model.KLEIN, p) for p in (xb, yb)))
    return _worst(_max_abs(lhs - rhs), x=(xb, dims), y=(yb, dims))


def _suite_oracle_consistency(samples, rng):
    dims = _dims(rng, samples)
    x, v = sample_ball(dims, rng), _normal(rng, dims)
    y = sample_ball(dims, rng)
    a, b = (_oracle_transport(x, v, via) for via in _VIAS[::-1])
    da, db = (_oracle_distance(x, y, via) for via in _VIAS[::-1])
    err = np.maximum(_max_abs(a - b), np.abs(da - db))
    return _worst(err, x=(x, dims), v=(v, dims), y=(y, dims))


def _corresponding_models(km: nn.HnnModel):
    """Poincare and Lorentz parameter sets computing the same function as km."""
    bias = km.bias[None]
    bm = replace(
        km,
        flavor=Model.POINCARE,
        weight=km.weight / 2.0,
        bias=convert_point(Model.KLEIN, Model.POINCARE, bias)[0],
        readout_weight=2.0 * km.readout_weight,
    )
    lm = replace(km, flavor=Model.LORENTZ, bias=convert_point(Model.KLEIN, Model.LORENTZ, bias)[0])
    return bm, lm


def _suite_layer_commutation(samples, rng):
    worst, arg = 0.0, ""
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        km = nn.init_model(Model.KLEIN, n, m, c, seed=int(rng.integers(2**31)))
        o = np.zeros((1, m))
        km = replace(km, bias=exp_map(Model.KLEIN, o, rng.normal(size=(1, m)) * 0.5)[0])
        bm, lm = _corresponding_models(km)
        feats = rng.normal(size=(8, n)) * 2.0
        base = nn.forward(km, feats)
        err = max(
            float(np.max(np.abs(nn.forward(bm, feats) - base))),
            float(np.max(np.abs(nn.forward(lm, feats) - base))),
        )
        if err > worst:
            worst, arg = err, json.dumps({"in_dim": n, "hidden": m, "classes": c})
    return worst, arg


def _suite_gradient_check(samples, rng):
    worst, arg = 0.0, ""
    for _ in range(samples):
        flavor = _MODELS[int(rng.integers(3))]
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 17))
        model = nn.init_model(flavor, n, m, c, seed=int(rng.integers(2**31)))
        o = origin(flavor, m)
        raw = rng.normal(size=o.shape) * 0.3
        if flavor is Model.LORENTZ:
            raw[:, 0] = 0.0
        model = replace(model, bias=exp_map(flavor, o, raw)[0])
        feats = rng.normal(size=(batch, n)) * 2.0
        labels = rng.integers(0, c, size=batch)
        _, grads = nn.gradients(model, feats, labels)
        err = _directional_error(model, feats, labels, grads, rng)
        if err > worst:
            worst, arg = err, json.dumps(
                {"flavor": flavor.value, "in_dim": n, "hidden": m, "classes": c, "batch": batch}
            )
    return worst, arg


def _readout(z, weight, bias):
    """Class logits, (B, C), of the layer outputs z, (B, m): R relu(z) + r."""
    return np.maximum(z, 0.0) @ weight.T + bias


def _cross_entropy(z, labels, weight, bias):
    """Mean cross-entropy of the readout R, r = weight, bias of the layer outputs z, (B, m)."""
    logits = _readout(z, weight, bias)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return np.mean(np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(labels.size), labels])


def _directional_error(model, feats, labels, grads, rng):
    """The worst relative error, over the parameters, of the gradient along
    one unit direction d drawn from rng against a central difference of
    `_cross_entropy` along d.  A step h = 1e-5 that moves an activation
    pattern (z > 0) crosses a ReLU kink, so h shrinks tenfold, down to 1e-8,
    where the difference is taken as it is.  A weight or bias trial is one
    `hidden_tangent` call on the model with that parameter moved; a readout
    trial reads the moved array beside the sample's own layer outputs and
    builds no model."""
    base = nn.hidden_tangent(model, feats)
    pattern = base > 0.0
    params = model.parameter_arrays()
    worst = 0.0
    for key, current in params.items():
        d = rng.normal(size=current.shape)
        if key == "bias" and model.flavor is Model.LORENTZ:
            d[0] = 0.0  # the layer reads only the spatial part
        d /= np.sqrt(np.sum(d * d))

        def trial(step):
            moved = {**params, key: current + step * d}
            z = base
            if key in ("weight", "bias"):
                if key == "bias" and model.flavor is Model.LORENTZ:
                    moved["bias"] = lorentz_rows(moved["bias"][None, 1:])[0]  # back onto the hyperboloid
                z = nn.hidden_tangent(replace(model, **{key: moved[key]}), feats)
            loss = _cross_entropy(z, labels, moved["readout_weight"], moved["readout_bias"])
            return loss, np.array_equal(z > 0.0, pattern)

        for h in 1e-5 / 10.0 ** np.arange(4):
            (up, same_up), (down, same_down) = trial(h), trial(-h)
            if same_up and same_down:
                break
        numeric, exact = (up - down) / (2.0 * h), float(np.sum(grads[key] * d))
        worst = max(worst, abs(exact - numeric) / max(1.0, abs(numeric), abs(exact)))
    return worst


def _suite_forward_validity(samples, rng):
    """The layer outputs of freshly initialised models, and this module's
    readout of them, are finite.

    Each model has a random flavor and size and takes 16 to 63 rows of
    normals scaled by up to 10, which the network caps, until `samples`
    rows are done.  A NumericalError of `nn.hidden_tangent`, or a
    non-finite tangent or logit of `_readout`, reports inf with the model's
    flavor and dimensions and the stage and row that failed; otherwise the
    error is 0.
    """
    rows_done = 0
    while rows_done < samples:
        flavor = _MODELS[int(rng.integers(3))]
        n, m, c = int(rng.integers(2, 17)), int(rng.integers(2, 17)), int(rng.integers(2, 6))
        batch = min(int(rng.integers(16, 64)), samples - rows_done)
        model = nn.init_model(flavor, n, m, c, seed=int(rng.integers(2**31)))
        feats = rng.normal(size=(batch, n)) * float(rng.uniform(0.1, 10.0))
        try:
            z = nn.hidden_tangent(model, feats)
            logits = _readout(z, model.readout_weight, model.readout_bias)
            bad = ~(np.isfinite(z).all(axis=1) & np.isfinite(logits).all(axis=1))
            error = f"non-finite tangent or readout at row {int(np.argmax(bad))}" if bad.any() else None
        except nn.NumericalError as err:
            error = str(err)
        if error:
            return float("inf"), json.dumps(
                {"flavor": flavor.value, "in_dim": n, "hidden": m, "classes": c, "error": error}
            )
        rows_done += batch
    return 0.0, ""


def _suite_training_trend(samples, rng):
    worst, arg = 0.0, ""
    ds = gen_tree_dataset(depth=4, feature_dim=8, noise_sigma=0.1, seed=int(rng.integers(2**31)))
    train_only = Dataset(ds.features, ds.labels, {"train": ds.train_idx})
    for flavor in _MODELS:
        model = nn.init_model(flavor, ds.dim, 8, ds.n_classes, seed=int(rng.integers(2**31)))
        _, metrics = nn.train(model, train_only, nn.TrainConfig(lr=0.01, epochs=50))
        drop = metrics[-1].train_loss - metrics[0].train_loss
        err = max(0.0, drop)
        if err >= worst:
            worst, arg = err, json.dumps({"flavor": flavor.value, "loss_delta": drop})
    return worst, arg


def _suite_boundary_stress(samples, rng):
    """Near the ball boundary only finiteness and validity are asserted."""
    dims = _dims(rng, samples)
    direction = _normal(rng, dims)
    direction /= np.maximum(np.sqrt(row_dots(direction, direction)), 1e-12)
    x = clamp_to_ball((1.0 - rng.uniform(1e-6, 1e-3, size=(samples, 1))) * direction)
    y = sample_ball(dims, rng)
    values = [distance(Model.KLEIN, x, y)]
    for via in _VIAS:
        values.append(_max_abs(convert_point(via, Model.KLEIN, convert_point(Model.KLEIN, via, x))))
    values.append(_max_abs(exp_map(Model.KLEIN, x, log_map(Model.KLEIN, x, y))))
    bad = np.where(np.isfinite(values).all(axis=0), 0.0, np.inf)
    added = einstein_add(x, y)
    overflow = np.maximum(np.sqrt(row_dots(added, added))[:, 0] - 1.0, 0.0)
    return _worst(np.maximum(bad, overflow), x=(x, dims), y=(y, dims))


_SUITES = {
    "round_trip": (_suite_round_trip, 10_000, 1e-12),
    "distance_isometry": (_suite_distance_isometry, 10_000, 1e-9),
    "pushforward_metric": (_suite_pushforward_metric, 10_000, 1e-8),
    "exp_log_inverse": (_suite_exp_log_inverse, 10_000, 1e-7),
    "geodesic_speed": (_suite_geodesic_speed, 10_000, 1e-7),
    "transport_isometry": (_suite_transport_isometry, 10_000, 1e-8),
    "transport_conjugation": (_suite_transport_conjugation, 10_000, 1e-8),
    "scalar_mult_tangent": (_suite_scalar_mult_tangent, 10_000, 1e-9),
    "transport_gyro": (_suite_transport_gyro, 10_000, 1e-8),
    "matvec_compose": (_suite_matvec_compose, 10_000, 1e-9),
    "matvec_scale": (_suite_matvec_scale, 10_000, 1e-9),
    "matvec_orthogonal": (_suite_matvec_orthogonal, 10_000, 1e-10),
    "matvec_tangent": (_suite_matvec_tangent, 10_000, 1e-10),
    "gyro_group": (_suite_gyro_group, 10_000, 1e-9),
    "gyration_inner": (_suite_gyration_inner, 10_000, 1e-9),
    "mobius_einstein": (_suite_mobius_einstein, 10_000, 1e-9),
    "oracle_consistency": (_suite_oracle_consistency, 10_000, 1e-9),
    "layer_commutation": (_suite_layer_commutation, 150, 1e-6),
    "gradient_check": (_suite_gradient_check, 100, 1e-5),
    "forward_validity": (_suite_forward_validity, 10_000, 1e-9),
    "training_trend": (_suite_training_trend, 1, 0.0),
    "boundary_stress": (_suite_boundary_stress, 2_000, 1e-9),
}


def suite_names() -> list:
    return list(_SUITES)


def run_suite(name: str, samples: int | None = None, seed: int = 0) -> PropertyReport:
    """Run one property suite deterministically and report the worst error."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    fn, default_samples, tol = _SUITES[name]
    n = default_samples if samples is None else int(samples)
    if n < 1:
        raise ValueError("samples must be >= 1")
    start = time.perf_counter()
    worst, arg = fn(n, np.random.default_rng(seed))
    seconds = time.perf_counter() - start
    return PropertyReport(name, n, worst, tol, bool(worst <= tol), arg, seconds)

