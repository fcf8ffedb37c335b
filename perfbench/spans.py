"""In-memory spans around the public functions of each layer, and the
per-layer metrics computed from them.

A span records its name, the operation context it ran in (for example
``klein.train`` or ``verify.gradient_check``), its parent span, its start and
end time, and the tape node counter at start and end.  Functions are patched
where they are looked up, in every hyperklein module that holds them, and
restored afterwards.  A span's self time is its duration minus the time of its
child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from hyperklein import autodiff, cli, data, gyro, manifolds, nn, verify

MODULES = (autodiff, cli, data, gyro, manifolds, nn, verify)

FUNCTION_SPANS = [
    (data.load_dataset, "data.load_dataset"),
    (cli._load_split_dataset, "data.load_split"),
    (data.split, "data.split"),
    (nn.init_model, "nn.init_model"),
    (nn.train, "nn.train"),
    (nn.gradients, "nn.gradients"),
    (nn.riemannian_adam_step, "nn.riemannian_adam_step"),
    (nn.accuracy, "nn.accuracy"),
    (nn.forward, "nn.forward"),
    (nn.save_model, "nn.save_model"),
    (nn.hidden_tangent, "nn.hidden_tangent"),
    (nn.load_model, "nn.load_model"),
]
GYRO_FUNCTIONS = ("einstein_add", "einstein_matvec", "einstein_scalar", "gyration", "mobius_add")
MANIFOLD_FUNCTIONS = (
    "exp_map",
    "log_map",
    "distance",
    "convert_point",
    "transport_from_origin",
    "pushforward",
    "metric_inner",
)
FUNCTION_SPANS += [(getattr(gyro, f), f"gyro.{f}") for f in GYRO_FUNCTIONS]
FUNCTION_SPANS += [(getattr(manifolds, f), f"manifolds.{f}") for f in MANIFOLD_FUNCTIONS]

# span record fields
NAME, CONTEXT, PARENT, START, END, NODES_START, NODES_END = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.context = ""
        self.nodes = 0
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, self.context, parent, 0.0, 0.0, self.nodes, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record):
        record[END] = time.perf_counter()
        record[NODES_END] = self.nodes
        self._stack.pop()

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextmanager
    def patched(self):
        """Route every looked-up reference to the traced functions."""
        saved = []
        for fn, name in FUNCTION_SPANS:
            wrapper = self.wrap(name, fn)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        tensor = autodiff.Tensor
        init, backward = tensor.__init__, tensor.backward

        def counted_init(obj, *args, **kwargs):
            self.nodes += 1
            init(obj, *args, **kwargs)

        tensor.__init__ = counted_init
        tensor.backward = self.wrap("autodiff.backward", backward)
        try:
            yield self
        finally:
            tensor.__init__, tensor.backward = init, backward
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def to_arrays(self):
        """Spans as columns, for writing out at the end of a run."""
        names = sorted({s[NAME] for s in self.spans} | {s[CONTEXT] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name": np.array([index[s[NAME]] for s in self.spans], dtype=np.int32),
            "context": np.array([index[s[CONTEXT]] for s in self.spans], dtype=np.int32),
            "parent": np.array([s[PARENT] for s in self.spans], dtype=np.int64),
            "start": np.array([s[START] for s in self.spans]),
            "end": np.array([s[END] for s in self.spans]),
            "nodes": np.array([s[NODES_END] - s[NODES_START] for s in self.spans], dtype=np.int64),
        }


def _median(values):
    return float(np.median(values))


def layer_metrics(tracer: Tracer, flavors, suites) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    spans = tracer.spans
    children, by_name = defaultdict(list), defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def nodes(i):
        return spans[i][NODES_END] - spans[i][NODES_START]

    def select(name, context=None):
        return [i for i in by_name[name] if context is None or spans[i][CONTEXT] == context]

    def child_time(i, names=None):
        return sum(dur(c) for c in children[i] if names is None or spans[c][NAME] in names)

    def median_ms(name, context):
        return (_median([dur(i) * 1e3 for i in select(name, context)]), "ms")

    out = {}
    loads = [i for i in select("data.load_dataset") if spans[i][CONTEXT].endswith(".train")]
    out["data.load_dataset_ms"] = (_median([dur(i) * 1e3 for i in loads]), "ms")
    # split time is what the CLI's load-and-split step adds to the load itself
    out["data.split_ms"] = (
        _median([(dur(i) - child_time(i, {"data.load_dataset"})) * 1e3
                 for i in select("data.load_split")]),
        "ms",
    )
    for f in flavors:
        train, infer = f"{f}.train", f"{f}.infer"
        grads = select("nn.gradients", train)
        epoch_ms, self_ms = [], []
        for i in select("nn.train", train):
            epochs = max(sum(spans[c][NAME] == "nn.gradients" for c in children[i]), 1)
            epoch_ms.append(dur(i) * 1e3 / epochs)
            self_ms.append((dur(i) - child_time(i)) * 1e3 / epochs)
        outputs_ms = [
            (dur(i) - child_time(i, {"data.load_split", "nn.init_model", "nn.train", "nn.accuracy"}))
            * 1e3
            for i in select("cli.main", train)
        ]
        out.update({
            f"{f}.nn.load_model_ms": median_ms("nn.load_model", infer),
            f"{f}.nn.train_ms_per_epoch": (_median(epoch_ms), "ms"),
            f"{f}.nn.train_self_ms_per_epoch": (_median(self_ms), "ms"),
            f"{f}.nn.gradients_ms": median_ms("nn.gradients", train),
            f"{f}.autodiff.backward_ms": median_ms("autodiff.backward", train),
            f"{f}.autodiff.tape_forward_ms": (
                _median([(dur(i) - child_time(i, {"autodiff.backward"})) * 1e3 for i in grads]),
                "ms",
            ),
            f"{f}.autodiff.nodes_per_step": (_median([nodes(i) for i in grads]), "count"),
            f"{f}.autodiff.nodes_per_forward": (
                _median([nodes(i) for i in select("nn.forward", infer)]), "count"),
            f"{f}.nn.riemannian_adam_step_ms": median_ms("nn.riemannian_adam_step", train),
            f"{f}.nn.accuracy_ms": median_ms("nn.accuracy", train),
            f"{f}.cli.outputs_ms": (_median(outputs_ms), "ms"),
        })
    for suite in suites:
        out[f"verify.{suite}_s"] = (sum(dur(i) for i in select(f"verify.{suite}")), "s")
    out["verify.gradient_check.gradients_calls"] = (
        len(select("nn.gradients", "verify.gradient_check")), "count")
    for prefix, names in (("gyro", GYRO_FUNCTIONS), ("manifolds", MANIFOLD_FUNCTIONS)):
        for fn in names:
            calls = select(f"{prefix}.{fn}")
            out[f"{prefix}.{fn}.calls"] = (len(calls), "count")
            out[f"{prefix}.{fn}.us_per_call"] = (
                sum(dur(i) for i in calls) * 1e6 / max(len(calls), 1), "us")
    return out
