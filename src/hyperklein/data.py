"""Dataset loading, stratified splits, and a synthetic tree generator.

The on-disk format is a single UTF-8 JSON document:

    {"name": str,
     "features": [[f, ...], ...],          # N rows of d finite numbers
     "labels": [int, ...],                 # N labels in [0, C)
     "splits": {"train": [...], "val": [...], "test": [...]},   # optional, or null
     "edges": [[u, v], ...]}               # optional, accepted and ignored

A dataset's splits are exactly `train`, `val` and `test`, each an int64
array of row indices that is empty when the split is absent; any other
split name is rejected.  Graph edges are retained in the format for forward
compatibility but the models here consume features only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


SPLITS = ("train", "val", "test")
# the shares of each class that `split` and `gen_tree_dataset` put in each split
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


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
        for part in self.splits:
            if part not in SPLITS:
                raise DataError(f"invalid dataset: unknown split {part!r}")
        self.splits = {part: np.asarray(self.splits.get(part, []), dtype=np.int64) for part in SPLITS}
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
        return self.splits["train"]

    @property
    def val_idx(self) -> np.ndarray:
        return self.splits["val"]

    @property
    def test_idx(self) -> np.ndarray:
        return self.splits["test"]


def _validate(features: np.ndarray, labels: np.ndarray, splits: dict) -> None:
    if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
        raise DataError("invalid dataset: features must be a non-empty N x d matrix")
    if not np.all(np.isfinite(features)):
        raise DataError("invalid dataset: features must be finite")
    if labels.shape != (features.shape[0],):
        raise DataError("invalid dataset: need one label per feature row")
    if np.any(labels < 0):
        raise DataError("invalid dataset: labels must be nonnegative")
    n = features.shape[0]
    n_classes = int(labels.max()) + 1
    # n rows fill at most n classes, so a label >= n leaves a class below n
    # empty, and only the labels below n are counted: no count array of a
    # huge label's size is made
    present = np.bincount(labels[labels < n], minlength=min(n_classes, n))
    missing = np.nonzero(present == 0)[0]
    if missing.size:
        raise DataError(f"invalid dataset: class {int(missing[0])} has no members")
    seen = np.zeros(n, dtype=np.int64)
    for part, idx in splits.items():
        if idx.ndim != 1:
            raise DataError(f"invalid dataset: {part} indices must be a flat list")
        if idx.size == 0:
            continue
        if idx.min() < 0 or idx.max() >= n:
            raise DataError(f"invalid dataset: {part} indices out of range")
        seen += np.bincount(idx, minlength=n)  # far cheaper than np.unique
        if seen.max() > 1:
            raise DataError("invalid dataset: split index sets must be disjoint")
    train = splits["train"]
    if train.size and not np.bincount(labels[train], minlength=n_classes).all():
        raise DataError("invalid dataset: every class must appear in the train split")


def json_numbers(values, kinds: str, refusal: Exception, suspect=lambda array: True) -> np.ndarray:
    """The array numpy infers for parsed JSON values, which must be numbers
    of the dtype kinds: the rule for dataset files and checkpoints.  Any
    other value, such as a string, an object or ragged rows, raises
    `refusal`.  numpy reads true and false as 1 and 0, so each value's type
    is checked too, unless `suspect(array)` rules a boolean out."""
    try:
        array = np.asarray(values)
    except ValueError as err:  # ragged rows
        raise refusal from err
    items = chain.from_iterable(values) if array.ndim == 2 else values if array.ndim == 1 else ()
    if array.size and (array.dtype.kind not in kinds or suspect(array) and bool in map(type, items)):
        raise refusal
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

    def refusal(what):
        return DataError(f"invalid dataset: {what}")

    features = json_numbers(doc["features"], "iuf", refusal("features must be numbers"), suspect)
    labels = json_numbers(doc["labels"], "iu", refusal("labels must be integers"))
    splits = {} if doc.get("splits") is None else doc["splits"]
    if not isinstance(splits, dict):
        raise DataError("invalid dataset: splits must be an object")
    splits = {k: json_numbers(v, "iu", refusal(f"{k} indices must be integers")) if k in SPLITS else v
              for k, v in splits.items()}
    return Dataset(features, labels, splits, str(doc.get("name", "dataset")))


def save_dataset(ds: Dataset, path) -> None:
    doc = {
        "name": ds.name,
        "features": ds.features.tolist(),
        "labels": ds.labels.tolist(),
    }
    if any(idx.size for idx in ds.splits.values()):
        doc["splits"] = {part: idx.tolist() for part, idx in ds.splits.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _stratified(labels: np.ndarray, rng, min_held_out: int) -> dict:
    """Sorted train/val/test indices from one permutation of each class, in
    class order, cut in the proportions `SPLIT_FRACTIONS`; a class of fewer
    than min_held_out members goes to train whole."""
    parts = {part: [] for part in SPLITS}
    train, val, _ = SPLIT_FRACTIONS
    for cls in range(int(labels.max()) + 1):
        members = rng.permutation(np.nonzero(labels == cls)[0])
        b1 = b2 = members.size
        if members.size >= min_held_out:
            b1, b2 = round(members.size * train), round(members.size * (train + val))
        for part, chunk in zip(SPLITS, np.split(members, [b1, b2])):
            parts[part].append(chunk)
    return {part: np.sort(np.concatenate(chunks)) for part, chunks in parts.items()}


def split(ds: Dataset, seed: int = 0) -> Dataset:
    """Stratified-by-class shuffled split (`_stratified`), deterministic in
    the seed.  Every class needs three members, and so gets a train member."""
    small = np.nonzero(np.bincount(ds.labels) < 3)[0]
    if small.size:
        raise DataError(f"class {int(small[0])} too small to stratify")
    splits = _stratified(ds.labels, np.random.default_rng(seed), min_held_out=0)
    return Dataset(ds.features, ds.labels, splits, ds.name)


def gen_tree_dataset(depth: int, feature_dim: int, noise_sigma: float, seed: int) -> Dataset:
    """Complete binary tree with path-encoded features and depth labels.

    Node features are the root-to-node branch signs (+1 right, -1 left),
    zero-padded to feature_dim, plus Gaussian noise.  Labels are node depths,
    so class k has 2^k members.  The splits are cut here in the proportions
    `SPLIT_FRACTIONS`, and a class of fewer than 10 members, too small for
    held-out copies, goes to train whole.
    """
    if depth < 2:
        raise DataError("tree depth must be at least 2")
    if feature_dim < depth:
        raise DataError("feature_dim must be at least the tree depth")
    rng = np.random.default_rng(seed)
    n = 2 ** (depth + 1) - 1
    features = np.zeros((n, feature_dim))
    labels = np.zeros(n, dtype=np.int64)
    # 1-based heap order, whose binary digits after the leading 1 spell the
    # path (1 right); the root keeps the zero vector
    for node in range(2, n + 1):
        path = [1.0 if bit == "1" else -1.0 for bit in bin(node)[3:]]
        features[node - 1, : len(path)] = path
        labels[node - 1] = len(path)
    features += rng.normal(scale=noise_sigma, size=features.shape) if noise_sigma > 0 else 0.0

    splits = _stratified(labels, rng, min_held_out=10)
    return Dataset(features, labels, splits, f"tree-d{depth}")
