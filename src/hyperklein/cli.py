"""Command-line front end: train, eval, convert, selftest.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error,
4 self-test failure.  All outputs are reproducible byte-for-byte given the
same configuration and seed; timing lives in metrics.json and on stderr
only, never in the deterministic CSV and JSON streams.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn, verify
from .autodiff import NumericalError
from .data import SPLITS, DataError, Dataset, load_dataset, split
from .manifolds import Model, check_point, clamp_to_ball, convert_point, lorentz_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_SELFTEST = 4


@dataclass
class RunConfig:
    command: str
    flavor: Model = Model.KLEIN
    hidden: int = 16
    seed: int = 42

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit value")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperklein", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run, training = RunConfig("train"), nn.TrainConfig()

    train_p = sub.add_parser("train", help="train one model and write metrics")
    train_p.add_argument("--data", required=True, help="dataset JSON file")
    train_p.add_argument("--model", choices=[m.value for m in Model], default=run.flavor.value)
    train_p.add_argument("--hidden", type=int, default=run.hidden)
    train_p.add_argument("--lr", type=float, default=training.lr)
    train_p.add_argument("--epochs", type=int, default=training.epochs)
    train_p.add_argument("--patience", type=int, default=training.patience)
    train_p.add_argument("--seed", type=int, default=run.seed)
    train_p.add_argument("--out", default=".", help="output directory")

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--data", required=True)
    eval_p.add_argument("--split", choices=[*SPLITS, "all"], default="test")
    eval_p.add_argument("--seed", type=int, default=run.seed, help="seed for splitting unsplit data")

    conv_p = sub.add_parser("convert", help="convert a CSV of points between models")
    conv_p.add_argument("--src", choices=[m.value for m in Model], required=True)
    conv_p.add_argument("--dst", choices=[m.value for m in Model], required=True)
    conv_p.add_argument("--input", required=True)
    conv_p.add_argument("--output", required=True)

    self_p = sub.add_parser("selftest", help="run every verification suite")
    self_p.add_argument("--samples", type=int, default=None, help="override per-suite sample count")
    self_p.add_argument("--seed", type=int, default=0)
    return parser


def _load_split_dataset(path, seed) -> Dataset:
    ds = load_dataset(path)
    if ds.train_idx.size == 0:
        ds = split(ds, seed=seed)
    return ds


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_loss_csv(path, metrics):
    lines = ["epoch,train_loss,val_acc"]
    lines += [f"{epoch},{_fmt(m.train_loss)},{_fmt(m.val_acc)}" for epoch, m in enumerate(metrics)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _principal_2d(tangents: np.ndarray) -> np.ndarray:
    centered = tangents - tangents.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2] if vt.shape[0] >= 2 else np.vstack([vt, np.zeros((2 - vt.shape[0], vt.shape[1]))])
    # fix component signs so output does not depend on SVD sign conventions
    for row in comps:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return centered @ comps.T


def _cmd_train(args) -> int:
    # every setting is checked before the output directory is made
    training = nn.TrainConfig(lr=args.lr, epochs=args.epochs, patience=args.patience)
    config = RunConfig("train", Model(args.model), args.hidden, args.seed)
    ds = _load_split_dataset(args.data, config.seed)
    if ds.n_classes < 2:
        raise DataError(f"training needs at least two classes, the dataset has {ds.n_classes}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = nn.init_model(config.flavor, ds.dim, config.hidden, ds.n_classes, config.seed)
    model, metrics = nn.train(model, ds, training)
    # an accuracy over no rows is undefined, which JSON spells null
    test_acc = (
        nn.accuracy(model, ds.features[ds.test_idx], ds.labels[ds.test_idx])
        if ds.test_idx.size
        else None
    )
    best_val = max((m.val_acc for m in metrics), default=None) if ds.val_idx.size else None
    mean_seconds = float(np.mean([m.seconds for m in metrics])) if metrics else 0.0

    doc = {
        "flavor": config.flavor.value,
        "seed": config.seed,
        "best_val_acc": best_val,
        "test_acc": test_acc,
        "epochs_run": len(metrics),
        "mean_epoch_seconds": mean_seconds,
    }
    (out / "metrics.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    _write_loss_csv(out / "loss.csv", metrics)
    nn.save_model(
        model,
        out / "checkpoint.json",
        extra={
            "config": {
                "lr": training.lr,
                "epochs": training.epochs,
                "patience": training.patience,
                "hidden": config.hidden,
                "data": str(args.data),
            },
            "seed": config.seed,
        },
    )
    tangents = nn.hidden_tangent(model, ds.features)
    coords = _principal_2d(tangents)
    lines = ["pc1,pc2,label"]
    # tolist's Python floats and ints print as _fmt and int would print them
    lines += [f"{a!r},{b!r},{label}" for (a, b), label in zip(coords.tolist(), ds.labels.tolist())]
    (out / "features2d.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, _ = nn.load_model(args.checkpoint)
    ds = _load_split_dataset(args.data, args.seed)
    if ds.dim != model.in_dim:
        raise DataError(f"feature dimension {ds.dim} does not match model input {model.in_dim}")
    if ds.n_classes > model.n_classes:
        raise DataError(f"dataset has {ds.n_classes} classes, more than the {model.n_classes} the model predicts")
    idx = np.arange(ds.n) if args.split == "all" else ds.splits[args.split]
    acc = nn.accuracy(model, ds.features[idx], ds.labels[idx]) if idx.size else None
    print(json.dumps({"split": args.split, "n": int(idx.size), "accuracy": acc}))
    return EXIT_OK


def _parse_point_rows(text: str):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append((lineno, [float(tok) for tok in line.split(",")]))
        except ValueError as err:
            raise DataError(f"row {lineno}: {err}") from err
    return rows


def _cmd_convert(args) -> int:
    src, dst = Model(args.src), Model(args.dst)
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as err:
        raise DataError(str(err)) from err
    out_lines = []
    for lineno, values in _parse_point_rows(text):
        try:
            row = check_point(src, np.asarray(values))[None]
        except ValueError as err:
            raise DataError(f"row {lineno}: {err}") from err
        # a ball row goes onto the clamp radius, a hyperboloid row onto the sheet
        row = lorentz_rows(row[:, 1:]) if src is Model.LORENTZ else clamp_to_ball(row)
        converted = convert_point(src, dst, row)[0]
        out_lines.append(",".join(_fmt(c) for c in converted))
    Path(args.output).write_text(
        ("\n".join(out_lines) + "\n") if out_lines else "", encoding="utf-8"
    )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failed = []
    for name in verify.suite_names():
        report = verify.run_suite(name, samples=args.samples, seed=args.seed)
        print(report.to_json())
        print(f"{report.suite}: {report.seconds:.3f} s", file=sys.stderr)
        if not report.passed:
            failed.append(report.suite)
    if failed:
        print(f"FAILED suites: {', '.join(failed)}", file=sys.stderr)
        return EXIT_SELFTEST
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "convert": _cmd_convert,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
