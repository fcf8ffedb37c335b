"""Shared fixtures: synthetic datasets written in the on-disk JSON format, a
row-kernel checker, a plain-Python reference for `row_dots` and a known-bad
Klein transport."""

import json

import numpy as np
import pytest

from hyperklein.manifolds import row_dots

# node counts per class chosen to total 183 with every class stratifiable
TEXAS_CLASS_SIZES = (33, 18, 101, 21, 10)
TEXAS_FEATURES = 1703


def write_texas_like(path, seed=0):
    """183 nodes, 1703 sparse binary features, 5 separable classes."""
    rng = np.random.default_rng(seed)
    prototypes = rng.random((len(TEXAS_CLASS_SIZES), TEXAS_FEATURES)) < 0.06
    rows, labels = [], []
    for cls, size in enumerate(TEXAS_CLASS_SIZES):
        for _ in range(size):
            keep = rng.random(TEXAS_FEATURES) < 0.9
            background = rng.random(TEXAS_FEATURES) < 0.005
            rows.append(((prototypes[cls] & keep) | background).astype(float).tolist())
            labels.append(cls)
    order = rng.permutation(len(labels))
    doc = {
        "name": "texas-like",
        "features": [rows[i] for i in order],
        "labels": [labels[i] for i in order],
        "edges": [[0, 1], [1, 2]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def texas_file(tmp_path_factory):
    return write_texas_like(tmp_path_factory.mktemp("data") / "texas_like.json", seed=0)


def _rows_close(got, want, rtol):
    """Each row of got within rtol of want's row, relative to that row's norm."""
    got, want = got.reshape(len(got), -1), want.reshape(len(want), -1)
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= rtol * np.linalg.norm(want, axis=1)), err.max()


def _pad_columns(a, width):
    return np.pad(a, ((0, 0), (0, width))) if a.ndim == 2 else a


@pytest.fixture
def check_row_kernel():
    """Check a row kernel against its one-row calls and its zero-padded rows.

    fn(*args) must equal fn called on each row alone within 1e-15 of the
    row's norm; with `pad` zero columns appended to every 2-d argument it
    must give the same rows with `pad` zeros appended.
    """

    def check(fn, args, pad=11):
        whole = fn(*args)
        single = np.concatenate([fn(*(a[i : i + 1] for a in args)) for i in range(len(args[0]))])
        _rows_close(whole, single, 1e-15)
        padded = fn(*(_pad_columns(a, pad) for a in args))
        if whole.ndim == 2:
            assert np.all(padded[:, whole.shape[1] :] == 0.0)
            padded = padded[:, : whole.shape[1]]
        _rows_close(padded, whole, 1e-15)

    return check


@pytest.fixture
def left_to_right_dots():
    """`row_dots`' reference: each dot product a plain Python sum in the
    operands' dtype, first term first, broadcast over the leading axes."""

    def dots(a, b):
        a, b = np.broadcast_arrays(a, b)
        out = np.empty(a.shape[:-1] + (1,), np.result_type(a, b))
        for idx in np.ndindex(*a.shape[:-1]):
            terms = [x * y for x, y in zip(a[idx], b[idx])]
            total = terms[0]
            for term in terms[1:]:
                total += term
            out[idx] = total
        return out

    return dots


@pytest.fixture
def broken_klein_transport():
    """Known-bad closed form for the Klein origin transport, row by row.

    Its radial component violates metric preservation, so the verification
    suites must catch it when it stands in for `transport_from_origin`.
    """

    def transport(x, v):
        s = np.sqrt(1.0 - row_dots(x, x))
        gap = 1.0 - s
        coef = np.where(gap == 0.0, 0.0, row_dots(x, v) * (s - 2.0) / np.where(gap == 0.0, 1.0, gap))
        return coef * x + s * v

    return transport
