"""Dataset loading, splitting, and the synthetic tree generator."""

import json

import numpy as np
import pytest

from hyperklein.data import (
    DataError,
    Dataset,
    gen_tree_dataset,
    load_dataset,
    save_dataset,
    split,
)


def softmax_train_accuracy(features, labels, iters=400, lr=0.5):
    """Plain multinomial logistic regression, full batch gradient descent."""
    n, d = features.shape
    c = int(labels.max()) + 1
    w = np.zeros((c, d))
    b = np.zeros(c)
    onehot = np.eye(c)[labels]
    for _ in range(iters):
        z = features @ w.T + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (g.T @ features)
        b -= lr * g.sum(axis=0)
    return float(((features @ w.T + b).argmax(axis=1) == labels).mean())


# integer and float features, a binary column, split indices 0 and 1
VALID_DOC = {
    "features": [[0.1, 1.0], [0.0, 2], [1, -1.0]],
    "labels": [0, 1, 1],
    "splits": {"train": [0, 1], "val": [2], "test": []},
}


def _set(*keys, value):
    def corrupt(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] = value

    return corrupt


COERCED_DOCS = {
    "fractional_label": (_set("labels", 1, value=1.7), "labels must be integers"),
    "boolean_label": (_set("labels", 1, value=True), "labels must be integers"),
    "string_feature": (_set("features", 0, 0, value="0.1"), "features must be numbers"),
    "boolean_feature": (_set("features", 0, 1, value=True), "features must be numbers"),
    "boolean_features": (
        _set("features", value=[[True], [False], [True]]),
        "features must be numbers",
    ),
    "fractional_split_index": (
        _set("splits", "train", 1, value=1.9),
        "train indices must be integers",
    ),
    "boolean_split_index": (
        _set("splits", "train", 1, value=True),
        "train indices must be integers",
    ),
}


class TestLoad:
    def test_texas_format_counts(self, texas_file):
        ds = load_dataset(texas_file)
        assert ds.n == 183
        assert ds.dim == 1703
        assert ds.n_classes == 5
        assert ds.train_idx.size == 0  # splits absent, left for `split`

    def test_missing_file(self, tmp_path):
        with pytest.raises((DataError, OSError)):
            load_dataset(tmp_path / "nope.json")

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"features": [[1.0]],\n "labels": [0,]}', encoding="utf-8")
        with pytest.raises(DataError, match="parse error: line 2"):
            load_dataset(path)

    def test_empty_features(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"features": [], "labels": []}), encoding="utf-8")
        with pytest.raises(DataError, match="invalid dataset"):
            load_dataset(path)

    def test_label_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.json"
        doc = {"features": [[1.0], [2.0], [3.0]], "labels": [0, 1, 3]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="invalid dataset"):
            load_dataset(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        doc = {"features": [[1.0], [2.0]], "labels": [0, -1]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="invalid dataset"):
            load_dataset(path)

    def test_integer_and_binary_features_load(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(VALID_DOC), encoding="utf-8")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.features, [[0.1, 1.0], [0.0, 2.0], [1.0, -1.0]])
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.train_idx, [0, 1])

    # numpy coerced each of these into the array it inferred, and training ran
    @pytest.mark.parametrize("case", sorted(COERCED_DOCS))
    def test_coercible_value_rejected(self, tmp_path, case):
        corrupt, message = COERCED_DOCS[case]
        doc = json.loads(json.dumps(VALID_DOC))
        corrupt(doc)
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"^invalid dataset: {message}$"):
            load_dataset(path)

    # the document holds the word true, so every value's type is checked
    def test_name_holding_true_loads(self, tmp_path):
        path = tmp_path / "untrue.json"
        path.write_text(json.dumps({**VALID_DOC, "name": "untrue"}), encoding="utf-8")
        ds = load_dataset(path)
        assert ds.name == "untrue"
        np.testing.assert_array_equal(ds.features, [[0.1, 1.0], [0.0, 2.0], [1.0, -1.0]])

    def test_scalar_features_beside_the_word_true_rejected(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"name": "untrue", "features": 5, "labels": [0]}), encoding="utf-8")
        with pytest.raises(DataError, match="features must be a non-empty N x d matrix"):
            load_dataset(path)

    # features with no 0 or 1 cannot hide a boolean, but the lists beside them still can
    @pytest.mark.parametrize(
        "corrupt,message",
        [
            (_set("labels", 1, value=True), "labels must be integers"),
            (_set("splits", "train", 1, value=True), "train indices must be integers"),
        ],
        ids=["label", "split_index"],
    )
    def test_boolean_beside_features_without_0_or_1_rejected(self, tmp_path, corrupt, message):
        doc = {**json.loads(json.dumps(VALID_DOC)), "features": [[0.5, 2.0], [-0.5, 3.0], [2.5, -1.5]]}
        corrupt(doc)
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"^invalid dataset: {message}$"):
            load_dataset(path)

    def test_edges_accepted_and_ignored(self, tmp_path):
        path = tmp_path / "edges.json"
        doc = {
            "features": [[1.0], [2.0]],
            "labels": [0, 1],
            "edges": [[0, 1]],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        ds = load_dataset(path)
        assert ds.n == 2

    def test_round_trip(self, tmp_path):
        ds = gen_tree_dataset(4, 8, 0.1, seed=5)
        path = tmp_path / "tree.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        for part in ("train", "val", "test"):
            np.testing.assert_array_equal(
                np.asarray(back.splits[part]), np.asarray(ds.splits[part])
            )
        assert back.name == ds.name

    def test_overlapping_splits_rejected(self):
        with pytest.raises(DataError, match="disjoint"):
            Dataset(
                np.ones((4, 2)),
                np.array([0, 1, 0, 1]),
                {"train": [0, 1], "val": [1], "test": []},
            )

    def test_repeated_split_index_rejected(self):
        with pytest.raises(DataError, match="disjoint"):
            Dataset(np.ones((4, 2)), np.array([0, 1, 0, 1]), {"train": [0, 1], "val": [2, 2]})

    @pytest.mark.parametrize(
        "indices", [[2], [1, 4, 99], "x", [True]], ids=["in_range", "out_of_range", "string", "boolean"]
    )
    def test_unknown_split_rejected(self, tmp_path, indices):
        # a misspelled split used to load as an empty val split, even out of
        # range; one of non-integers was refused as "valid indices must be integers"
        doc = {**VALID_DOC, "splits": {"train": [0, 1], "valid": indices, "test": []}}
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_dataset(path)
        assert str(err.value) == "invalid dataset: unknown split 'valid'"

    @pytest.mark.parametrize("indices", [[[0, 1]], [[]], 0], ids=["nested", "nested_empty", "scalar"])
    def test_split_indices_not_a_flat_list_rejected(self, tmp_path, indices):
        # a nested list used to fail in np.bincount, or to load as an empty split
        doc = {**VALID_DOC, "splits": {"train": indices, "val": [2], "test": []}}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="^invalid dataset: train indices must be a flat list$"):
            load_dataset(path)

    def test_null_splits_load_as_absent(self, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({**VALID_DOC, "splits": None}), encoding="utf-8")
        assert all(idx.size == 0 for idx in load_dataset(path).splits.values())

    def test_absent_splits_are_empty_int64_arrays(self):
        ds = Dataset(np.ones((4, 2)), np.array([0, 1, 0, 1]), {"train": [0, 1]})
        assert list(ds.splits) == ["train", "val", "test"]
        for idx in (ds.val_idx, ds.test_idx):
            assert idx.dtype == np.int64 and idx.size == 0

    def test_train_missing_class_rejected(self):
        with pytest.raises(DataError, match="every class"):
            Dataset(
                np.ones((4, 2)),
                np.array([0, 1, 0, 1]),
                {"train": [0, 2], "val": [1], "test": [3]},
            )


class TestSplit:
    def balanced(self, n=100, classes=5):
        rng = np.random.default_rng(0)
        return Dataset(rng.normal(size=(n, 4)), np.arange(n) % classes)

    def test_sizes(self):
        ds = split(self.balanced(), seed=1)
        assert ds.train_idx.size == 60
        assert ds.val_idx.size == 20
        assert ds.test_idx.size == 20

    def test_deterministic(self):
        a = split(self.balanced(), seed=9)
        b = split(self.balanced(), seed=9)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)

    def test_seed_changes_permutation_not_counts(self):
        base = self.balanced()
        sizes = set()
        seen = set()
        for seed in range(10):
            ds = split(base, seed=seed)
            sizes.add((ds.train_idx.size, ds.val_idx.size, ds.test_idx.size))
            counts = tuple(np.bincount(ds.labels[ds.train_idx], minlength=5))
            assert counts == (12, 12, 12, 12, 12)
            seen.add(tuple(ds.train_idx))
        assert sizes == {(60, 20, 20)}
        assert len(seen) > 1

    def test_partition(self):
        ds = split(self.balanced(97, 4), seed=3)
        joined = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        assert np.unique(joined).size == joined.size == 97

    def test_stratification_within_one(self):
        ds = split(self.balanced(97, 4), seed=3)
        for cls in range(4):
            members = (ds.labels == cls).sum()
            got = np.bincount(ds.labels[ds.train_idx], minlength=4)[cls]
            assert abs(got - 0.6 * members) <= 1.0

    def test_every_class_of_three_or_more_has_a_train_member(self):
        labels = np.repeat(np.arange(10), np.arange(3, 13))
        ds = split(Dataset(np.ones((labels.size, 2)), labels), seed=4)
        assert np.bincount(ds.labels[ds.train_idx]).tolist() == [round(0.6 * n) for n in range(3, 13)]

    def test_small_class_rejected(self):
        ds = Dataset(np.ones((5, 2)), np.array([0, 0, 0, 1, 1]))
        with pytest.raises(DataError, match="too small to stratify"):
            split(ds, seed=0)


class TestGenTree:
    def test_depth_four_counts(self):
        ds = gen_tree_dataset(4, 8, 0.1, seed=0)
        assert ds.n == 31
        assert ds.n_classes == 5

    def test_depth_six_counts(self):
        ds = gen_tree_dataset(6, 16, 0.1, seed=0)
        assert ds.n == 127
        assert ds.n_classes == 7

    def test_siblings_differ_in_one_sign(self):
        ds = gen_tree_dataset(4, 8, 0.0, seed=0)
        # heap children of node p (1-based) are 2p and 2p+1
        for parent in range(1, 16):
            left = ds.features[2 * parent - 1]
            right = ds.features[2 * parent]
            diff = np.nonzero(left != right)[0]
            assert diff.size == 1
            assert left[diff[0]] == -right[diff[0]]

    def test_labels_are_depths(self):
        ds = gen_tree_dataset(5, 8, 0.0, seed=0)
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [2**k for k in range(6)])

    def test_deterministic(self):
        a = gen_tree_dataset(4, 8, 0.3, seed=11)
        b = gen_tree_dataset(4, 8, 0.3, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_separability_probe(self):
        # depth is the count of filled coordinates, which no linear map of the
        # signed features can express; the magnitude probe is the linear one
        ds = gen_tree_dataset(6, 16, 0.1, seed=1)
        acc = softmax_train_accuracy(np.abs(ds.features), ds.labels)
        assert acc >= 0.9

    def test_every_class_in_train(self):
        ds = gen_tree_dataset(6, 16, 0.1, seed=2)
        assert np.unique(ds.labels[ds.train_idx]).size == ds.n_classes

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            gen_tree_dataset(1, 8, 0.1, seed=0)
        with pytest.raises(DataError):
            gen_tree_dataset(4, 3, 0.1, seed=0)
