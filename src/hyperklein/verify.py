"""Property suites: every algebraic identity the library relies on, executable.

Each suite draws a deterministic sample stream, evaluates one identity through
two independent code paths, and reports the worst absolute error against a
pinned tolerance.  The hyperboloid-conjugation oracle recomputes any Klein
operation by mapping through the Lorentz model, which exercises entirely
different formulas than the Klein closed forms it checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import gen_tree_dataset
from .gyro import (
    einstein_add,
    einstein_matvec,
    einstein_scalar,
    gyration,
    mobius_add,
)
from .manifolds import (
    KleinPoint,
    Model,
    TangentVector,
    _klein_transport_origin_broken,
    convert_point,
    distance,
    exp_map,
    geodesic_unit,
    log_map,
    metric_inner,
    metric_norm,
    minkowski_inner,
    origin,
    pushforward,
    tangent,
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "samples": self.samples,
                "max_abs_error": self.max_abs_error,
                "tolerance": self.tolerance,
                "passed": self.passed,
                "worst_case_input": self.worst_case_input,
            }
        )


def sample_ball(dim: int, max_norm: float, rng: np.random.Generator) -> KleinPoint:
    """Uniform direction on the sphere, radius uniform in [0, max_norm]."""
    if not 0.0 < max_norm < 1.0:
        raise ValueError("max_norm must lie in (0, 1)")
    direction = rng.normal(size=dim)
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        direction = np.zeros(dim)
        direction[0] = 1.0
        norm = 1.0
    return KleinPoint(float(rng.uniform(0.0, max_norm)) * direction / norm)


def finite_diff_grad(fn, point: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a piecewise-smooth function.

    fn returns (value, pattern), where the array pattern names the smooth
    piece the input lies on, such as a ReLU activation pattern.  A difference
    across a kink estimates no derivative, so when x +- h lies on another
    piece than x, that coordinate's step shrinks tenfold, down to step/1000.
    """
    point = np.asarray(point, dtype=np.float64)
    _, piece = fn(point)
    grad = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        for h in step / 10.0 ** np.arange(4):
            plus = point.copy()
            minus = point.copy()
            plus[idx] += h
            minus[idx] -= h
            (up, up_piece), (down, down_piece) = fn(plus), fn(minus)
            if np.array_equal(up_piece, piece) and np.array_equal(down_piece, piece):
                break
        grad[idx] = (up - down) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# hyperboloid-conjugation oracle


def conjugation_oracle(op_name: str, inputs: dict, via: Model = Model.LORENTZ):
    """Evaluate a Klein operation by conjugating through another model.

    Supported ops: distance, exp, log, transport, geodesic.  Inputs are Klein
    points / origin tangents; the result comes back in Klein coordinates.
    """
    via = Model(via)
    if via is Model.KLEIN:
        raise ValueError("the oracle must route through a different model")
    if op_name == "distance":
        return distance(convert_point(inputs["x"], via), convert_point(inputs["y"], via))
    if op_name == "exp":
        x, v = inputs["x"], inputs["v"]
        out = exp_map(convert_point(x, via), pushforward(v, via))
        return convert_point(out, Model.KLEIN)
    if op_name == "log":
        x, y = inputs["x"], inputs["y"]
        out = log_map(convert_point(x, via), convert_point(y, via))
        return pushforward(out, Model.KLEIN)
    if op_name == "transport":
        x, v = inputs["x"], inputs["v"]
        out = transport_from_origin(convert_point(x, via), pushforward(v, via))
        return pushforward(out, Model.KLEIN)
    if op_name == "geodesic":
        x, v, t = inputs["x"], inputs["v"], inputs["t"]
        out = geodesic_unit(convert_point(x, via), pushforward(v, via), t)
        return convert_point(out, Model.KLEIN)
    raise ValueError(f"unknown oracle operation {op_name!r}")


# ---------------------------------------------------------------------------
# suites


def _dims(rng):
    return int(rng.integers(1, 17))


def _serialize(**kw):
    def conv(v):
        if isinstance(v, (KleinPoint,)):
            return v.coords.tolist()
        if isinstance(v, TangentVector):
            return v.components.tolist()
        if isinstance(v, np.ndarray):
            return v.tolist()
        return v

    return json.dumps({k: conv(v) for k, v in kw.items()})


def _suite_round_trip(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        x = sample_ball(_dims(rng), 0.95, rng)
        for via in (Model.POINCARE, Model.LORENTZ):
            back = convert_point(convert_point(x, via), Model.KLEIN)
            err = float(np.max(np.abs(back.coords - x.coords)))
            if err > worst:
                worst, arg = err, _serialize(x=x, via=via.value)
    return worst, arg


def _suite_distance_isometry(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x, y = sample_ball(dim, 0.95, rng), sample_ball(dim, 0.95, rng)
        d = distance(x, y)
        for via in (Model.POINCARE, Model.LORENTZ):
            err = abs(distance(convert_point(x, via), convert_point(y, via)) - d)
            if err > worst:
                worst, arg = err, _serialize(x=x, y=y, via=via.value)
    return worst, arg


def _suite_pushforward_metric(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x = sample_ball(dim, 0.95, rng)
        u = tangent(x, rng.normal(size=dim))
        w = tangent(x, rng.normal(size=dim))
        ref = metric_inner(x, u, w)
        for via in (Model.POINCARE, Model.LORENTZ):
            y = convert_point(x, via)
            err = abs(metric_inner(y, pushforward(u, via), pushforward(w, via)) - ref)
            if err > worst:
                worst, arg = err, _serialize(x=x, u=u, w=w, via=via.value)
    return worst, arg


def _suite_exp_log_inverse(samples, rng, **_):
    worst, arg = 0.0, ""
    count = 0
    while count < samples:
        dim = _dims(rng)
        model = (Model.KLEIN, Model.POINCARE, Model.LORENTZ)[count % 3]
        x = convert_point(sample_ball(dim, 0.95, rng), model)
        raw = rng.normal(size=dim)
        v = tangent(x, raw) if model is not Model.LORENTZ else _lorentz_tangent(x, raw)
        n = metric_norm(x, v)
        if n == 0.0:
            continue
        v = tangent(x, v.components * (float(rng.uniform(0.0, 3.0)) / n))
        back = log_map(x, exp_map(x, v))
        err = float(np.max(np.abs(back.components - v.components)))
        if err > worst:
            worst, arg = err, _serialize(x=x.coords, v=v, model=model.value)
        count += 1
    return worst, arg


def _lorentz_tangent(x, spatial):
    raw = np.concatenate(([0.0], spatial))
    raw = raw + minkowski_inner(x.coords, raw) * x.coords
    return TangentVector(Model.LORENTZ, x, raw)


def _suite_geodesic_speed(samples, rng, **_):
    worst, arg = 0.0, ""
    count = 0
    while count < samples:
        dim = _dims(rng)
        model = (Model.KLEIN, Model.POINCARE, Model.LORENTZ)[count % 3]
        x = convert_point(sample_ball(dim, 0.95, rng), model)
        raw = rng.normal(size=dim)
        v = tangent(x, raw) if model is not Model.LORENTZ else _lorentz_tangent(x, raw)
        n = metric_norm(x, v)
        if n == 0.0:
            continue
        v = tangent(x, v.components / n)
        t = float(rng.uniform(-5.0, 5.0))
        err = abs(distance(x, geodesic_unit(x, v, t)) - abs(t))
        if err > worst:
            worst, arg = err, _serialize(x=x.coords, v=v, t=t, model=model.value)
        count += 1
    return worst, arg


def _suite_transport_isometry(samples, rng, **_):
    worst, arg = 0.0, ""
    for i in range(samples):
        dim = _dims(rng)
        model = (Model.KLEIN, Model.POINCARE, Model.LORENTZ)[i % 3]
        x = convert_point(sample_ball(dim, 0.95, rng), model)
        o = origin(model, dim)
        raw_u, raw_w = rng.normal(size=dim), rng.normal(size=dim)
        u = tangent(o, raw_u) if model is not Model.LORENTZ else _lorentz_tangent(o, raw_u)
        w = tangent(o, raw_w) if model is not Model.LORENTZ else _lorentz_tangent(o, raw_w)
        err = abs(
            metric_inner(x, transport_from_origin(x, u), transport_from_origin(x, w))
            - metric_inner(o, u, w)
        )
        if err > worst:
            worst, arg = err, _serialize(x=x.coords, u=u, w=w, model=model.value)
    return worst, arg


def _suite_transport_conjugation(samples, rng, *, transport_fn=transport_from_origin, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x = sample_ball(dim, 0.95, rng)
        v = tangent(origin(Model.KLEIN, dim), rng.normal(size=dim))
        direct = transport_fn(x, v)
        via = conjugation_oracle("transport", {"x": x, "v": v})
        err = float(np.max(np.abs(direct.components - via.components)))
        if err > worst:
            worst, arg = err, _serialize(x=x, v=v)
    return worst, arg


def _suite_scalar_mult_tangent(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x = sample_ball(dim, 0.95, rng)
        r = float(rng.uniform(-3.0, 3.0))
        o = origin(Model.KLEIN, dim)
        direct = einstein_scalar(r, x)
        via = exp_map(o, tangent(o, r * log_map(o, x).components))
        err = float(np.max(np.abs(direct.coords - via.coords)))
        if err > worst:
            worst, arg = err, _serialize(x=x, r=r)
    return worst, arg


def _suite_transport_gyro(samples, rng, *, transport_fn=transport_from_origin, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x = sample_ball(dim, 0.95, rng)
        o = origin(Model.KLEIN, dim)
        raw = rng.normal(size=dim)
        norm = float(np.linalg.norm(raw))
        if norm == 0.0:
            continue
        v = tangent(o, raw * (float(rng.uniform(0.0, 2.0)) / norm))
        direct = transport_fn(x, v)
        via = log_map(x, einstein_add(x, exp_map(o, v)))
        err = float(np.max(np.abs(direct.components - via.components)))
        if err > worst:
            worst, arg = err, _serialize(x=x, v=v)
    return worst, arg


def _random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) / np.sqrt(cols)


def _suite_matvec_compose(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        mid, out = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        m1 = _random_matrix(rng, out, mid)
        m2 = _random_matrix(rng, mid, dim)
        x = sample_ball(dim, 0.95, rng)
        lhs = einstein_matvec(m1 @ m2, x)
        rhs = einstein_matvec(m1, einstein_matvec(m2, x))
        err = float(np.max(np.abs(lhs.coords - rhs.coords)))
        if err > worst:
            worst, arg = err, _serialize(x=x)
    return worst, arg


def _suite_matvec_scale(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        out = int(rng.integers(1, 17))
        m = _random_matrix(rng, out, dim)
        r = float(rng.uniform(1e-3, 3.0))
        x = sample_ball(dim, 0.95, rng)
        lhs = einstein_matvec(r * m, x)
        rhs = einstein_scalar(r, einstein_matvec(m, x))
        err = float(np.max(np.abs(lhs.coords - rhs.coords)))
        if err > worst:
            worst, arg = err, _serialize(x=x, r=r)
    return worst, arg


def _suite_matvec_orthogonal(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
        q = q * np.sign(np.diag(r))
        x = sample_ball(dim, 0.95, rng)
        err = float(np.max(np.abs(einstein_matvec(q, x).coords - q @ x.coords)))
        if err > worst:
            worst, arg = err, _serialize(x=x)
    return worst, arg


def _suite_matvec_tangent(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        out = int(rng.integers(1, 17))
        m = _random_matrix(rng, out, dim)
        x = sample_ball(dim, 0.95, rng)
        direct = einstein_matvec(m, x)
        o_in, o_out = origin(Model.KLEIN, dim), origin(Model.KLEIN, out)
        via = exp_map(o_out, tangent(o_out, m @ log_map(o_in, x).components))
        err = float(np.max(np.abs(direct.coords - via.coords)))
        if err > worst:
            worst, arg = err, _serialize(x=x)
    return worst, arg


def _suite_gyro_group(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x, y, z = (sample_ball(dim, 0.95, rng) for _ in range(3))
        comm = einstein_add(x, y).coords - gyration(x, y, einstein_add(y, x)).coords
        assoc = (
            einstein_add(x, einstein_add(y, z)).coords
            - einstein_add(einstein_add(x, y), gyration(x, y, z)).coords
        )
        err = max(float(np.max(np.abs(comm))), float(np.max(np.abs(assoc))))
        if err > worst:
            worst, arg = err, _serialize(x=x, y=y, z=z)
    return worst, arg


def _suite_gyration_inner(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x, y, u, w = (sample_ball(dim, 0.95, rng) for _ in range(4))
        gu, gw = gyration(x, y, u).coords, gyration(x, y, w).coords
        err = abs(float(gu @ gw) - float(u.coords @ w.coords))
        if err > worst:
            worst, arg = err, _serialize(x=x, y=y, u=u, w=w)
    return worst, arg


def _suite_mobius_einstein(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        xb = convert_point(sample_ball(dim, 0.95, rng), Model.POINCARE)
        yb = convert_point(sample_ball(dim, 0.95, rng), Model.POINCARE)
        lhs = convert_point(mobius_add(xb, yb), Model.KLEIN)
        rhs = einstein_add(convert_point(xb, Model.KLEIN), convert_point(yb, Model.KLEIN))
        err = float(np.max(np.abs(lhs.coords - rhs.coords)))
        if err > worst:
            worst, arg = err, _serialize(x=xb.coords, y=yb.coords)
    return worst, arg


def _suite_oracle_consistency(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        x = sample_ball(dim, 0.95, rng)
        v = tangent(origin(Model.KLEIN, dim), rng.normal(size=dim))
        a = conjugation_oracle("transport", {"x": x, "v": v}, via=Model.LORENTZ)
        b = conjugation_oracle("transport", {"x": x, "v": v}, via=Model.POINCARE)
        err = float(np.max(np.abs(a.components - b.components)))
        y = sample_ball(dim, 0.95, rng)
        err = max(
            err,
            abs(
                conjugation_oracle("distance", {"x": x, "y": y}, via=Model.LORENTZ)
                - conjugation_oracle("distance", {"x": x, "y": y}, via=Model.POINCARE)
            ),
        )
        if err > worst:
            worst, arg = err, _serialize(x=x, v=v, y=y)
    return worst, arg


def _corresponding_models(km: nn.HnnModel):
    """Poincare and Lorentz parameter sets computing the same function as km."""
    bm = nn.HnnModel(
        Model.POINCARE,
        nn.LayerParams(km.hidden.weight / 2.0, convert_point(km.hidden.bias, Model.POINCARE)),
        2.0 * km.readout_weight,
        km.readout_bias.copy(),
    )
    lm = nn.HnnModel(
        Model.LORENTZ,
        nn.LayerParams(km.hidden.weight.copy(), convert_point(km.hidden.bias, Model.LORENTZ)),
        km.readout_weight.copy(),
        km.readout_bias.copy(),
    )
    return bm, lm


def _suite_layer_commutation(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        km = nn.init_model(Model.KLEIN, n, m, c, seed=int(rng.integers(2**31)))
        o = origin(Model.KLEIN, m)
        km.hidden.bias = exp_map(o, tangent(o, rng.normal(size=m) * 0.5))
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


def _suite_gradient_check(samples, rng, **_):
    worst, arg = 0.0, ""
    for _ in range(samples):
        flavor = (Model.KLEIN, Model.POINCARE, Model.LORENTZ)[int(rng.integers(3))]
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 17))
        model = nn.init_model(flavor, n, m, c, seed=int(rng.integers(2**31)))
        o = origin(flavor, m)
        raw = rng.normal(size=o.coords.shape) * 0.3
        if flavor is Model.LORENTZ:
            raw[0] = 0.0
        model.hidden.bias = exp_map(o, TangentVector(flavor, o, raw))
        feats = rng.normal(size=(batch, n)) * 2.0
        labels = rng.integers(0, c, size=batch)
        _, grads = nn.gradients(model, feats, labels)
        err = _max_rel_grad_error(model, feats, labels, grads)
        if err > worst:
            worst, arg = err, json.dumps(
                {"flavor": flavor.value, "in_dim": n, "hidden": m, "classes": c, "batch": batch}
            )
    return worst, arg


def _max_rel_grad_error(model, feats, labels, grads):
    def loss_with(key, arr):
        trial = nn.HnnModel(
            model.flavor,
            nn.LayerParams(
                arr if key == "weight" else model.hidden.weight.copy(),
                _point_with(model.hidden.bias, arr) if key == "bias" else model.hidden.bias,
            ),
            arr if key == "readout_weight" else model.readout_weight.copy(),
            arr if key == "readout_bias" else model.readout_bias.copy(),
        )
        run = nn._TapeRun(trial, feats)
        loss = nn._mean_cross_entropy(run.logits, labels)
        return float(loss.data), run.tangent.data > 0.0

    worst = 0.0
    for key, current in (
        ("weight", model.hidden.weight),
        ("bias", model.hidden.bias.coords),
        ("readout_weight", model.readout_weight),
        ("readout_bias", model.readout_bias),
    ):
        numeric = finite_diff_grad(lambda a, k=key: loss_with(k, a), current)
        denom = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(grads[key])))
        worst = max(worst, float(np.max(np.abs(grads[key] - numeric) / denom)))
    return worst


def _point_with(point, coords):
    cls = type(point)
    fresh = object.__new__(cls)
    object.__setattr__(fresh, "coords", np.asarray(coords, dtype=np.float64))
    return fresh


def _suite_forward_validity(samples, rng, **_):
    worst, arg = 0.0, ""
    rows_done = 0
    while rows_done < samples:
        flavor = (Model.KLEIN, Model.POINCARE, Model.LORENTZ)[int(rng.integers(3))]
        n, m, c = int(rng.integers(2, 17)), int(rng.integers(2, 17)), int(rng.integers(2, 6))
        batch = min(int(rng.integers(16, 64)), samples - rows_done)
        model = nn.init_model(flavor, n, m, c, seed=int(rng.integers(2**31)))
        feats = rng.normal(size=(batch, n)) * float(rng.uniform(0.1, 10.0))
        run = nn._TapeRun(model, feats)
        hidden = run.hidden_out.data
        if not np.all(np.isfinite(run.logits.data)) or not np.all(np.isfinite(hidden)):
            return float("inf"), json.dumps({"flavor": flavor.value})
        if flavor is Model.LORENTZ:
            sumsq = (hidden[:, 1:] ** 2).sum(axis=1)
            resid = np.abs(-hidden[:, 0] ** 2 + sumsq + 1.0)
            err = float(np.max(resid / np.maximum(1.0, hidden[:, 0] ** 2)))
        else:
            norms = np.linalg.norm(hidden, axis=1)
            err = float(np.max(np.maximum(norms - 1.0, 0.0)))
        if err > worst:
            worst, arg = err, json.dumps({"flavor": flavor.value, "in_dim": n, "hidden": m})
        rows_done += batch
    return worst, arg


def _suite_training_trend(samples, rng, **_):
    worst, arg = 0.0, ""
    ds = gen_tree_dataset(depth=4, feature_dim=8, noise_sigma=0.1, seed=int(rng.integers(2**31)))
    for flavor in (Model.KLEIN, Model.POINCARE, Model.LORENTZ):
        model = nn.init_model(flavor, ds.dim, 8, ds.n_classes, seed=int(rng.integers(2**31)))
        _, metrics = nn.train(model, ds, nn.TrainConfig(lr=0.01, epochs=50, patience=50))
        drop = metrics[-1].train_loss - metrics[0].train_loss
        err = max(0.0, drop)
        if err >= worst:
            worst, arg = err, json.dumps({"flavor": flavor.value, "loss_delta": drop})
    return worst, arg


def _suite_boundary_stress(samples, rng, **_):
    """Near the ball boundary only finiteness and validity are asserted."""
    worst, arg = 0.0, ""
    for _ in range(samples):
        dim = _dims(rng)
        direction = rng.normal(size=dim)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        radius = 1.0 - float(rng.uniform(1e-6, 1e-3))
        x = KleinPoint(radius * direction)
        y = sample_ball(dim, 0.95, rng)
        values = [distance(x, y)]
        for via in (Model.POINCARE, Model.LORENTZ):
            back = convert_point(convert_point(x, via), Model.KLEIN)
            values.append(float(np.max(np.abs(back.coords))))
        v = log_map(x, y)
        values.append(float(np.max(np.abs(exp_map(x, v).coords))))
        bad = 0.0 if all(np.isfinite(values)) else float("inf")
        overflow = max(float(np.linalg.norm(einstein_add(x, y).coords)) - 1.0, 0.0)
        err = max(bad, overflow)
        if err > worst:
            worst, arg = err, _serialize(x=x, y=y)
    return worst, arg


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


def run_suite(name: str, samples: int | None = None, seed: int = 0, **kwargs) -> PropertyReport:
    """Run one property suite deterministically and report the worst error."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    fn, default_samples, tol = _SUITES[name]
    n = default_samples if samples is None else int(samples)
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    if n == 0:
        return PropertyReport(name, 0, 0.0, tol, True, "")
    rng = np.random.default_rng(seed)
    worst, arg = fn(n, rng, **kwargs)
    return PropertyReport(name, n, worst, tol, bool(worst <= tol), arg)


def run_all(samples: int | None = None, seed: int = 0, broken_transport: bool = False):
    """Every suite in order; optionally swap in the defective Klein transport."""
    reports = []
    for name in _SUITES:
        kwargs = {}
        if broken_transport and name in ("transport_conjugation", "transport_gyro"):
            kwargs["transport_fn"] = _klein_transport_origin_broken
        reports.append(run_suite(name, samples=samples, seed=seed, **kwargs))
    return reports
