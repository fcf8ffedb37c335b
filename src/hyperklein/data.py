"""Dataset loading, stratified splits, and a synthetic tree generator.

The on-disk format is a single UTF-8 JSON document:

    {"name": str,
     "features": [[f, ...], ...],          # N rows of d finite numbers
     "labels": [int, ...],                 # N labels in [0, C)
     "splits": {"train": [...], "val": [...], "test": [...]},   # optional
     "edges": [[u, v], ...]}               # optional, accepted and ignored

Graph edges are retained in the format for forward compatibility but the
models here consume features only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class DataError(ValueError):
    """Raised for unparseable or invalid dataset files."""


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    splits: dict = field(default_factory=dict)
    name: str = "dataset"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        _validate(self.features, self.labels, self.splits)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def train_idx(self) -> np.ndarray:
        return np.asarray(self.splits.get("train", []), dtype=np.int64)

    @property
    def val_idx(self) -> np.ndarray:
        return np.asarray(self.splits.get("val", []), dtype=np.int64)

    @property
    def test_idx(self) -> np.ndarray:
        return np.asarray(self.splits.get("test", []), dtype=np.int64)


def _validate(features: np.ndarray, labels: np.ndarray, splits: dict) -> None:
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
        raise DataError("invalid dataset: features must be a non-empty N x d matrix")
    if not np.all(np.isfinite(features)):
        raise DataError("invalid dataset: features must be finite")
    if labels.shape != (features.shape[0],):
        raise DataError("invalid dataset: need one label per feature row")
    if np.any(labels < 0):
        raise DataError("invalid dataset: labels must be nonnegative")
    n_classes = int(labels.max()) + 1
    present = np.bincount(labels, minlength=n_classes)
    missing = np.nonzero(present == 0)[0]
    if missing.size:
        raise DataError(f"invalid dataset: class {int(missing[0])} has no members")
    n = features.shape[0]
    seen = np.zeros(n, dtype=np.int64)
    for part in ("train", "val", "test"):
        idx = np.asarray(splits.get(part, []), dtype=np.int64)
        if idx.size == 0:
            continue
        if idx.min() < 0 or idx.max() >= n:
            raise DataError(f"invalid dataset: {part} indices out of range")
        seen += np.bincount(idx, minlength=n)  # far cheaper than np.unique
        if seen.max() > 1:
            raise DataError("invalid dataset: split index sets must be disjoint")
    train = np.asarray(splits.get("train", []), dtype=np.int64)
    if train.size and not np.bincount(labels[train], minlength=n_classes).all():
        raise DataError("invalid dataset: every class must appear in the train split")


def _numbers(values, kinds: str, what: str, suspect=lambda array: True) -> np.ndarray:
    """The array numpy infers for values, of one of the dtype kinds.  numpy reads
    true and false as 1 and 0, so each value's type is checked too, unless
    `suspect(array)` rules a boolean out."""
    try:
        array = np.asarray(values)
    except ValueError as err:  # ragged rows
        raise DataError(f"invalid dataset: {err}") from err
    items = chain.from_iterable(values) if array.ndim == 2 else values if array.ndim == 1 else ()
    if array.size and (array.dtype.kind not in kinds or suspect(array) and bool in map(type, items)):
        raise DataError(f"invalid dataset: {what}")
    return array


def load_dataset(path) -> Dataset:
    """Parse and validate a dataset file; absent splits are left empty."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DataError(f"parse error: line {err.lineno}: {err.msg}") from err
    if not isinstance(doc, dict) or "features" not in doc or "labels" not in doc:
        raise DataError("invalid dataset: need 'features' and 'labels' fields")
    # a feature matrix can hide a boolean only as a 0 or a 1, and then only
    # if the text holds the word; the short label and split lists are type-scanned
    def suspect(array):
        return ((array == 0) | (array == 1)).any() and ("true" in text or "false" in text)

    features = _numbers(doc["features"], "iuf", "features must be numbers", suspect)
    labels = _numbers(doc["labels"], "iu", "labels must be integers")
    splits = dict(doc.get("splits") or {})
    splits = {k: _numbers(v, "iu", f"{k} indices must be integers") for k, v in splits.items()}
    return Dataset(features, labels, splits, str(doc.get("name", "dataset")))


def save_dataset(ds: Dataset, path) -> None:
    doc = {
        "name": ds.name,
        "features": ds.features.tolist(),
        "labels": ds.labels.tolist(),
    }
    if ds.splits:
        doc["splits"] = {k: np.asarray(v, dtype=np.int64).tolist() for k, v in ds.splits.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def split(ds: Dataset, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> Dataset:
    """Stratified-by-class shuffled split, deterministic in the seed."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != (3,) or np.any(ratios <= 0.0) or abs(ratios.sum() - 1.0) > 1e-9:
        raise DataError("ratios must be three positive numbers summing to 1")
    rng = np.random.default_rng(seed)
    parts = {"train": [], "val": [], "test": []}
    for cls in range(ds.n_classes):
        members = np.nonzero(ds.labels == cls)[0]
        if members.size < 3:
            raise DataError(f"class {cls} too small to stratify")
        members = rng.permutation(members)
        b1 = int(round(members.size * ratios[0]))
        b2 = int(round(members.size * (ratios[0] + ratios[1])))
        b1 = max(b1, 1)  # every class must land in train
        parts["train"].extend(members[:b1].tolist())
        parts["val"].extend(members[b1:b2].tolist())
        parts["test"].extend(members[b2:].tolist())
    splits = {k: sorted(v) for k, v in parts.items()}
    return Dataset(ds.features, ds.labels, splits, ds.name)


def gen_tree_dataset(depth: int, feature_dim: int, noise_sigma: float, seed: int) -> Dataset:
    """Complete binary tree with path-encoded features and depth labels.

    Node features are the root-to-node branch signs (+1 right, -1 left),
    zero-padded to feature_dim, plus Gaussian noise.  Labels are node depths,
    so class k has 2^k members; the shallow classes are too small for the
    stratified `split`, so proportional per-class splits (train first) are
    assigned here directly.
    """
    if depth < 2:
        raise DataError("tree depth must be at least 2")
    if feature_dim < depth:
        raise DataError("feature_dim must be at least the tree depth")
    rng = np.random.default_rng(seed)
    n = 2 ** (depth + 1) - 1
    features = np.zeros((n, feature_dim))
    labels = np.zeros(n, dtype=np.int64)
    for node in range(2, n + 1):  # 1-based heap order; root keeps the zero vector
        path = []
        cursor = node
        while cursor > 1:
            path.append(1.0 if cursor % 2 else -1.0)
            cursor //= 2
        path.reverse()
        features[node - 1, : len(path)] = path
        labels[node - 1] = len(path)
    features += rng.normal(scale=noise_sigma, size=features.shape) if noise_sigma > 0 else 0.0

    parts = {"train": [], "val": [], "test": []}
    for cls in range(depth + 1):
        members = rng.permutation(np.nonzero(labels == cls)[0])
        if members.size < 10:
            # shallow levels have too few nodes to support held-out copies
            parts["train"].extend(members.tolist())
            continue
        b1 = max(int(round(members.size * 0.6)), 1)
        b2 = max(int(round(members.size * 0.8)), b1)
        parts["train"].extend(members[:b1].tolist())
        parts["val"].extend(members[b1:b2].tolist())
        parts["test"].extend(members[b2:].tolist())
    splits = {k: sorted(v) for k, v in parts.items()}
    return Dataset(features, labels, splits, f"tree-d{depth}")
