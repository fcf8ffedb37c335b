"""Workload inputs, generated from the seed into files the program then reads.

Each workload names the dataset its train and inference operations use and
the epoch budget of one train run.  Every workload also runs the verification
suites, so that every end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hyperklein import data

# node counts per class chosen to total 183 with every class stratifiable
TEXAS_CLASS_SIZES = (33, 18, 101, 21, 10)
TEXAS_FEATURES = 1703


def write_texas_like(path, seed=0):
    """183 nodes, 1703 sparse binary features, 5 separable classes.

    A copy of the test fixture generator: the JSON it writes must stay
    byte-identical to the fixture's at the same seed.
    """
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


def _tree_writer(depth: int, feature_dim: int):
    def write(path, seed):
        data.save_dataset(data.gen_tree_dataset(depth, feature_dim, 0.1, seed), path)
        return path

    return write


@dataclass(frozen=True)
class Workload:
    write_dataset: Callable
    epochs: int
    smoke_epochs: int
    # cycles that include a verification pass; None means every cycle
    suite_cycles: int | None


_TREE_D10 = _tree_writer(10, 16)

WORKLOADS = {
    # 2,047 rows x 16 features: per-row elementwise tape work dominates;
    # 150 epochs converge far enough that test accuracy varies little by seed.
    # Only the first cycle runs a verification pass.
    "tree": Workload(_TREE_D10, epochs=150, smoke_epochs=5, suite_cycles=1),
    # the same train and inference operations, but every cycle also runs a
    # verification pass, so single-point gyro and manifolds calls dominate
    "selftest": Workload(_TREE_D10, epochs=150, smoke_epochs=5, suite_cycles=None),
    # 183 rows x 1,703 sparse features, no stored splits: the wide input map,
    # W x, Adam on 27k weights and the 1.5 MB JSON parse dominate.  Klein
    # training fails here (NumericalError near epoch 20), so the run reports
    # correct = false and BENCHMARK.json does not list it; smoke texas keeps
    # enough epochs for that failure.
    "texas": Workload(write_texas_like, epochs=100, smoke_epochs=32, suite_cycles=1),
}
