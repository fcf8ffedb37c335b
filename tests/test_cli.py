"""Tests for the command-line contract: exit codes and byte-identical outputs."""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperklein import cli, nn, verify
from hyperklein.autodiff import NumericalError
from hyperklein.data import Dataset, gen_tree_dataset, save_dataset, split
from hyperklein.manifolds import EPS_BALL, Model, transport_from_origin


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    save_dataset(gen_tree_dataset(4, 8, 0.1, seed=0), path)
    return path


def train_argv(data, out, epochs=20):
    return ["train", "--data", str(data), "--hidden", "6", "--epochs", str(epochs), "--out", str(out)]


def test_identical_train_runs_write_identical_bytes(tree_file, tmp_path):
    for run in ("a", "b"):
        assert cli.main(train_argv(tree_file, tmp_path / run)) == cli.EXIT_OK
    for name in ("loss.csv", "features2d.csv", "checkpoint.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_bad_flag_exits_1(tree_file):
    assert cli.main(["train", "--data", str(tree_file), "--no-such-flag"]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--patience", "0", "patience must be >= 1"),
        ("--lr", "0", "learning rate must be positive"),
        ("--lr", "nan", "learning rate must be finite"),
        ("--lr", "inf", "learning rate must be finite"),
        ("--epochs", "-1", "epochs must be >= 0"),
        ("--seed", "-1", "seed must fit in an unsigned 64-bit value"),
        ("--hidden", "0", "hidden must be >= 1"),
    ],
)
def test_bad_training_setting_exits_1_before_writing(tree_file, tmp_path, capsys, flag, value, message):
    # every setting is checked before the output directory is made
    out = tmp_path / "out"
    assert cli.main(train_argv(tree_file, out) + [flag, value]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "splits", ["abc", 5, True, [["train", [0, 1]]]], ids=["string", "number", "boolean", "pairs"]
)
def test_splits_that_are_not_an_object_exit_2(tmp_path, capsys, splits):
    # dict() used to load a list of pairs, fail on a string with exit 1 and raise TypeError on the rest
    path = tmp_path / "data.json"
    doc = {"features": [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], "labels": [0, 1, 1], "splits": splits}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(train_argv(path, out)) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: invalid dataset: splits must be an object"]
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    code = cli.main(train_argv(tmp_path / "missing.json", tmp_path / "out"))
    assert code == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_fractional_label_exits_2(tree_file, tmp_path, capsys):
    # a label of 1.7 used to be truncated to class 1 and trained on
    doc = json.loads(tree_file.read_text())
    doc["labels"][1] = 1.7
    tree_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(train_argv(tree_file, out)) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: invalid dataset: labels must be integers"]
    assert not out.exists()


def test_unknown_split_exits_2(tree_file, tmp_path, capsys):
    # a misspelled val split used to train every epoch with val_acc nan
    doc = json.loads(tree_file.read_text())
    doc["splits"]["valid"] = doc["splits"].pop("val")
    tree_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(train_argv(tree_file, out, epochs=40) + ["--patience", "5"]) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: invalid dataset: unknown split 'valid'"]
    assert not out.exists()


def test_unknown_split_of_strings_exits_2_naming_it(tmp_path, capsys):
    # the split's type used to be refused first: "a indices must be integers"
    path = tmp_path / "data.json"
    doc = {"features": [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], "labels": [0, 1, 1], "splits": {"a": "x"}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(train_argv(path, out)) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == ["data error: invalid dataset: unknown split 'a'"]
    assert not out.exists()


def test_nested_split_indices_exit_2(tree_file, tmp_path, capsys):
    # a nested index list used to exit 1 with "object too deep for desired array"
    doc = json.loads(tree_file.read_text())
    doc["splits"]["train"] = [doc["splits"]["train"]]
    tree_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(train_argv(tree_file, out)) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: invalid dataset: train indices must be a flat list"]
    assert not out.exists()


def test_one_class_dataset_exits_2_before_writing(tmp_path, capsys):
    # it used to exit 1 with "error: need at least two classes" after making the output directory
    path = tmp_path / "data.json"
    doc = {"features": np.arange(10.0).reshape(5, 2).tolist(), "labels": [0] * 5}
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(train_argv(path, out)) == cli.EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: training needs at least two classes, the dataset has 1"]
    assert not out.exists()


def test_numerical_error_in_training_exits_3(tree_file, tmp_path, monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise NumericalError("numerical overflow in klein_layer at row 0 (klein, epoch 0)")

    monkeypatch.setattr(nn, "train", overflow)
    assert cli.main(train_argv(tree_file, tmp_path / "out")) == cli.EXIT_NUMERIC
    assert "numerical overflow in klein_layer at row 0" in capsys.readouterr().err


def eval_all(checkpoint, data):
    return cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(data), "--split", "all"])


@pytest.mark.parametrize("flavor,row", [("klein", 2), ("poincare", 1), ("lorentz", 1)])
def test_saturating_checkpoint_exits_3_naming_stage_and_row(tree_file, tmp_path, capsys, flavor, row):
    # hidden weights x1e3 push the layer past float64 saturation
    model = nn.init_model(flavor, 8, 6, 5, seed=42)
    model = replace(model, weight=model.weight * 1e3)
    nn.save_model(model, tmp_path / "checkpoint.json")
    assert eval_all(tmp_path / "checkpoint.json", tree_file) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert err == [f"numerical error: numerical overflow in {flavor}_layer at row {row}"]


def _nan_at(key, row=None):
    def corrupt(doc):
        (doc[key] if row is None else doc[key][row])[1] = float("nan")
        return doc

    return corrupt


# a corrupt checkpoint fails when it is loaded, with the usage exit code; each
# case maps the saved document to the one written in its place
CORRUPT_CHECKPOINTS = {
    "nan_weight": (_nan_at("weight", 0), "weight must be a finite 2-d matrix"),
    "nan_readout_bias": (_nan_at("readout_bias"), "readout bias must be a finite 1-d vector"),
    # it used to load, and eval failed on numpy's broadcast of (5, 31) logits
    "readout_bias_2d": (
        lambda doc: {**doc, "readout_bias": [doc["readout_bias"]]},
        "readout bias must be a finite 1-d vector",
    ),
    "flat_readout_weight": (
        lambda doc: {**doc, "readout_weight": doc["readout_weight"][0]},
        "readout weight must be a finite 2-d matrix",
    ),
    "missing_readout_bias": (
        lambda doc: {key: value for key, value in doc.items() if key != "readout_bias"},
        "checkpoint has no 'readout_bias' field",
    ),
    "not_an_object": (lambda doc: [doc], "checkpoint is not a JSON object"),
    "bias_outside_ball": (
        lambda doc: {**doc, "bias": [2.0] + [0.0] * (len(doc["bias"]) - 1)},
        "bias lies outside the open unit ball",
    ),
    # its squared norm overflows, which used to warn and read as the origin
    "bias_squares_overflow": (
        lambda doc: {**doc, "bias": [1e200] * len(doc["bias"])},
        "bias lies outside the open unit ball",
    ),
    "lorentz_bias_off_sheet": (
        lambda doc: {**doc, "flavor": "lorentz", "bias": [2.0] + [0.0] * len(doc["bias"])},
        "coordinates do not lie on the upper hyperboloid sheet",
    ),
    "bias_2d": (
        lambda doc: {**doc, "bias": [doc["bias"]]},
        "expected a 1-d vector of length >= 1, got shape (1, 6)",
    ),
    # numpy read these as numbers, and the checkpoint loaded
    "string_weight": (
        lambda doc: {**doc, "weight": [[str(x) for x in row] for row in doc["weight"]]},
        "weight must be a finite 2-d matrix",
    ),
    "boolean_readout_bias": (
        lambda doc: {**doc, "readout_bias": [True] + doc["readout_bias"][1:]},
        "readout bias must be a finite 1-d vector",
    ),
    # a JSON object used to raise a TypeError out of cli.main
    **{
        f"{key}_object": (lambda doc, key=key: {**doc, key: {"a": doc[key]}}, message)
        for key, message in [
            ("weight", "weight must be a finite 2-d matrix"),
            ("bias", "bias must be a 1-d vector of numbers"),
            ("readout_weight", "readout weight must be a finite 2-d matrix"),
            ("readout_bias", "readout bias must be a finite 1-d vector"),
        ]
    },
}


@pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_is_rejected_at_load(tree_file, tmp_path, capsys, case):
    corrupt, message = CORRUPT_CHECKPOINTS[case]
    nn.save_model(nn.init_model("klein", 8, 6, 5, seed=42), tmp_path / "checkpoint.json")
    doc = json.loads((tmp_path / "checkpoint.json").read_text())
    (tmp_path / "checkpoint.json").write_text(json.dumps(corrupt(doc)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert eval_all(tmp_path / "checkpoint.json", tree_file) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _entry_paths(value, path=()):
    """The index paths of the numbers in nested lists."""
    if not isinstance(value, list):
        return [path]
    return [leaf for i, item in enumerate(value) for leaf in _entry_paths(item, (*path, i))]


# nan, +-inf and magnitudes from 1e154 to 1e308
_BAD_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(1e154, 1e308).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def _corrupt(draw, value, entries=_BAD_FLOATS):
    """A flavor name or a field's nested lists, swapped for a value one
    level deeper or of another JSON type; a list may also become its signs
    as bools or an empty list, or lose one entry, or have one set to a value
    from `entries`."""
    swaps = [[value], 0.5, "abc", {"a": value}, None, True, False]
    kind = draw(st.sampled_from(["swap", "bools", "empty", "drop", "entry"])) if isinstance(value, list) else "swap"
    if kind == "swap":
        return draw(st.sampled_from(swaps))
    if kind == "empty":
        return []
    if kind == "bools":
        return json.loads(json.dumps(value), parse_float=lambda text: not text.startswith("-"))
    out = json.loads(json.dumps(value))
    path = draw(st.sampled_from(_entry_paths(out)))
    if kind == "drop":
        path = path[: draw(st.integers(1, len(path)))]
    parent = out
    for i in path[:-1]:
        parent = parent[i]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(entries)
    return out


def _run_cli(argv):
    """cli.main's exit code, stdout and stderr lines, with RuntimeWarnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_eval_holds_its_contract_on_corrupt_checkpoints(data):
    # exit 0, 1 or 3 and no RuntimeWarning or escaping exception on any
    # corruption of one checkpoint field; a refused checkpoint is refused at
    # load (exit 1, load_model's one line), any other failure writes one
    # line, and a run repeats its output byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset(gen_tree_dataset(3, 4, 0.1, seed=0), tmp / "tree.json")
        nn.save_model(nn.init_model("klein", 4, 3, 4, seed=42), tmp / "checkpoint.json")
        doc = json.loads((tmp / "checkpoint.json").read_text())
        key = data.draw(st.sampled_from(["flavor", *nn._PARAMETERS]))
        doc[key] = data.draw(_corrupt(doc[key]))
        (tmp / "checkpoint.json").write_text(json.dumps(doc))
        paths = ["--checkpoint", str(tmp / "checkpoint.json"), "--data", str(tmp / "tree.json")]
        runs = [_run_cli(["eval", *paths, "--split", "all"]) for _ in range(2)]
        try:
            nn.load_model(tmp / "checkpoint.json")
            refusal = None
        except ValueError as refused:
            refusal = f"error: {refused}"
    code, _, err = runs[0]
    assert runs[1] == runs[0]
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC)
    assert (code == cli.EXIT_USAGE) == (refusal is not None)
    assert len(err) == (code != cli.EXIT_OK)
    if refusal:
        assert err == [refusal]


# labels and split indices out of range, of any size a JSON integer takes;
# a label up to the int64 maximum used to size a count array by itself
_BAD_INDICES = st.one_of(
    st.integers(-3, 40), st.integers(2**31, 2**63 - 1), st.integers(-(2**64), 2**70), _BAD_FLOATS
)


@st.composite
def _corrupt_dataset(draw, doc):
    """The text of the dataset document doc with one defect: a field or a
    split corrupted by `_corrupt`, a split emptied or cut to one class, one
    class for every row, no stored splits, or the text cut short."""
    doc = json.loads(json.dumps(doc))
    splits = doc["splits"]
    kinds = ["features", "labels", "splits", "split", "empty", "one_class", "one_label", "no_splits", "truncated"]
    kind = draw(st.sampled_from(kinds))
    part = draw(st.sampled_from(sorted(splits)))
    if kind == "features":
        doc["features"] = draw(_corrupt(doc["features"]))
    elif kind == "labels":
        doc["labels"] = draw(_corrupt(doc["labels"], _BAD_INDICES))
    elif kind == "splits":
        doc["splits"] = draw(_corrupt(splits))
    elif kind == "split":
        splits[part] = draw(_corrupt(splits[part], _BAD_INDICES))
    elif kind == "empty":
        splits[part] = []
    elif kind == "one_class":
        label = doc["labels"][draw(st.sampled_from(splits[part]))]
        splits[part] = [i for i in splits[part] if doc["labels"][i] == label]
    elif kind == "one_label":
        doc["labels"] = [0] * len(doc["labels"])
    elif kind == "no_splits":
        doc["splits"] = draw(st.sampled_from([None, {}]))
    text = json.dumps(doc)
    return text[: draw(st.integers(0, len(text) - 1))] if kind == "truncated" else text


def _small_dataset():
    """24 rows of 4 features in 3 classes of 8 rows, cut by `data.split`,
    which can cut them again when a file holds no splits."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3), 8)
    return split(Dataset(rng.normal(size=(24, 4)) + labels[:, None], labels), seed=0)


def _without_timing(text):
    """A train run's printed or written metrics without its one timing field."""
    return {**json.loads(text), "mean_epoch_seconds": None} if text else text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_train_and_eval_hold_their_contract_on_generated_datasets(data):
    # exit 0, 2 or 3 and no RuntimeWarning or escaping exception on any
    # defect of one dataset file; a failure prints one line to stderr, and
    # nothing to stdout or the output directory, and a run repeats byte for
    # byte but for its epoch timing
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset(_small_dataset(), tmp / "base.json")
        doc = json.loads((tmp / "base.json").read_text())
        (tmp / "data.json").write_text(data.draw(_corrupt_dataset(doc)))
        flavor = data.draw(st.sampled_from(MODELS))
        nn.save_model(nn.init_model(flavor, 4, 3, 3, seed=42), tmp / "checkpoint.json")
        part = data.draw(st.sampled_from(["train", "val", "test", "all"]))
        path = str(tmp / "data.json")
        commands = {
            "train": ["train", "--data", path, "--model", flavor, "--hidden", "3", "--epochs", "3"],
            "eval": ["eval", "--checkpoint", str(tmp / "checkpoint.json"), "--data", path, "--split", part],
        }
        for name, argv in commands.items():
            runs = []
            for run in ("a", "b"):
                out = tmp / name / run
                code, stdout, err = _run_cli(argv + (["--out", str(out)] if name == "train" else []))
                written = {p.name: p.read_text() for p in sorted(out.glob("*"))} if out.exists() else {}
                if "metrics.json" in written:
                    written["metrics.json"] = _without_timing(written["metrics.json"])
                runs.append((code, _without_timing(stdout) if name == "train" else stdout, err, written))
            code, stdout, err, written = runs[0]
            assert runs[1] == runs[0]
            assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERIC), (name, err)
            assert len(err) == (code != cli.EXIT_OK)
            if code != cli.EXIT_OK:
                assert not stdout and not written


def test_eval_with_mismatched_feature_width_exits_2(tree_file, tmp_path, capsys):
    assert cli.main(train_argv(tree_file, tmp_path / "out", epochs=1)) == cli.EXIT_OK
    narrow = tmp_path / "narrow.json"
    save_dataset(gen_tree_dataset(4, 6, 0.1, seed=0), narrow)
    argv = ["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.json"), "--data", str(narrow)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "feature dimension 6 does not match model input 8" in capsys.readouterr().err


def test_eval_on_data_with_more_classes_exits_2(tree_file, tmp_path, capsys):
    # a 5-class checkpoint on 6-class data used to print an accuracy and exit 0
    assert cli.main(train_argv(tree_file, tmp_path / "out", epochs=1)) == cli.EXIT_OK
    deeper = tmp_path / "deeper.json"
    save_dataset(gen_tree_dataset(5, 8, 0.1, seed=0), deeper)
    capsys.readouterr()
    argv = ["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint.json"), "--data", str(deeper)]
    assert cli.main(argv) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["data error: dataset has 6 classes, more than the 5 the model predicts"]


def strict_json(text):
    """json.loads that refuses the bare NaN and Infinity tokens, which are not JSON."""

    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_undefined_accuracies_are_null(tree_file, tmp_path, capsys):
    # with no val and no test rows, train and eval used to print a bare NaN
    doc = json.loads(tree_file.read_text())
    doc["splits"] = {"train": doc["splits"]["train"], "test": []}
    tree_file.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(train_argv(tree_file, out, epochs=3)) == cli.EXIT_OK
    printed = strict_json(capsys.readouterr().out)
    assert printed == strict_json((out / "metrics.json").read_text())
    assert printed["best_val_acc"] is None and printed["test_acc"] is None
    argv = ["eval", "--checkpoint", str(out / "checkpoint.json"), "--data", str(tree_file), "--split", "val"]
    assert cli.main(argv) == cli.EXIT_OK
    assert strict_json(capsys.readouterr().out) == {"split": "val", "n": 0, "accuracy": None}


def convert(src, dst, source, target):
    return cli.main(["convert", "--src", src, "--dst", dst, "--input", str(source), "--output", str(target)])


def test_convert_round_trip_skips_blank_lines(tmp_path):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(8, 3))
    points *= rng.uniform(0.0, 0.9, size=(8, 1)) / np.linalg.norm(points, axis=1, keepdims=True)
    rows = [",".join(repr(float(c)) for c in p) for p in points]
    (tmp_path / "klein.csv").write_text("\n".join(rows[:4] + ["", "  "] + rows[4:]) + "\n")
    assert convert("klein", "poincare", tmp_path / "klein.csv", tmp_path / "ball.csv") == cli.EXIT_OK
    assert convert("poincare", "klein", tmp_path / "ball.csv", tmp_path / "back.csv") == cli.EXIT_OK
    back = np.loadtxt(tmp_path / "back.csv", delimiter=",")
    assert back.shape == points.shape
    np.testing.assert_allclose(back, points, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "src,rows,message",
    [
        ("klein", "0.1,0.2\n\n0.6,0.8\n", "row 3: point lies outside the open unit ball"),
        ("poincare", "0.1,0.2\n1.5,0.0\n", "row 2: point lies outside the open unit ball"),
        ("klein", "0.1,0.2\n0.1,abc\n", "row 2: could not convert string to float: 'abc'"),
        ("lorentz", "1.0,0.0\n1.0,0.5\n", "row 2: coordinates do not lie on the upper hyperboloid sheet"),
        # a squared norm that overflows, and a norm past the float64 maximum, with no RuntimeWarning
        ("klein", "0.1\n9.5e153,9.5e153\n", "row 2: point lies outside the open unit ball"),
        ("lorentz", "1.0,0.0\n1e308,1.7e308,1.7e308\n", "row 2: coordinates must be finite"),
        ("lorentz", "1.0,0.0\n1.0\n", "row 2: expected a 1-d vector of length >= 2, got shape (1,)"),
    ],
    ids=[
        "klein_boundary",
        "poincare_outside",
        "non_numeric",
        "off_sheet",
        "square_overflows",
        "norm_overflows",
        "no_spatial_part",
    ],
)
def test_convert_bad_row_exits_2_naming_it(tmp_path, capsys, src, rows, message):
    (tmp_path / "in.csv").write_text(rows)
    dst = "poincare" if src == "klein" else "klein"
    assert convert(src, dst, tmp_path / "in.csv", tmp_path / "out.csv") == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
    assert not (tmp_path / "out.csv").exists()


def test_convert_between_poincare_and_lorentz_keeps_far_points(tmp_path):
    # the Poincare clamp, 1 - 1e-7, is cosh d = 9999999.5 (d = 16.81) out;
    # through Klein coordinates it came back at time 2236.07 (d = 8.41), and a
    # hyperboloid row 710 out at the Poincare radius 0.99955 of the Klein clamp
    (tmp_path / "ball.csv").write_text("0.99999999999999,0\n")
    assert convert("poincare", "lorentz", tmp_path / "ball.csv", tmp_path / "sheet.csv") == cli.EXIT_OK
    time, spatial, zero = np.loadtxt(tmp_path / "sheet.csv", delimiter=",")
    radius = 1.0 - EPS_BALL
    assert [time, spatial] == pytest.approx(np.array([1.0 + radius**2, 2.0 * radius]) / (1.0 - radius**2), rel=1e-8)
    assert math.acosh(time) == pytest.approx(2.0 * math.atanh(radius), rel=1e-9) and zero == 0.0
    assert convert("lorentz", "poincare", tmp_path / "sheet.csv", tmp_path / "back.csv") == cli.EXIT_OK
    assert np.loadtxt(tmp_path / "back.csv", delimiter=",") == pytest.approx([radius, 0.0], rel=1e-15)
    (tmp_path / "far.csv").write_text("1.7e308,1.7e308\n")
    assert convert("lorentz", "poincare", tmp_path / "far.csv", tmp_path / "rim.csv") == cli.EXIT_OK
    assert (tmp_path / "rim.csv").read_text() == f"{radius!r}\n"


def test_convert_empty_input_writes_an_empty_file(tmp_path):
    (tmp_path / "in.csv").write_text("")
    assert convert("klein", "lorentz", tmp_path / "in.csv", tmp_path / "out.csv") == cli.EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == b""


MODELS = [m.value for m in Model]
_magnitudes = st.one_of(st.floats(1e-320, 1.7e308, allow_subnormal=True), st.sampled_from([1e-320, 1e154, 1.7e308]))
_finite_values = st.one_of(st.just(0.0), _magnitudes, _magnitudes.map(lambda x: -x))
_bad_tokens = st.sampled_from(["nan", "inf", "-inf", "abc", "", "1e400"])


@st.composite
def _ball_tokens(draw):
    """A ball row inside, on or past the unit sphere."""
    coords = draw(st.lists(_finite_values, min_size=1, max_size=6))
    norm = math.hypot(*coords)
    if norm == 0.0 or not math.isfinite(norm):
        return [repr(c) for c in coords]
    radius = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0), st.floats(1.0, 10.0)))
    return [repr(c * (radius / norm)) for c in coords]


@st.composite
def _lorentz_tokens(draw):
    """A hyperboloid row on the sheet, near it, off it, or with any finite time."""
    spatial = draw(st.lists(_finite_values, min_size=1, max_size=5))
    time = math.hypot(1.0, *spatial) * draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.001, -1.0, 0.5]))
    if draw(st.booleans()):
        time = draw(_finite_values)
    return [repr(time)] + [repr(s) for s in spatial]


def _lines(src):
    """A blank line, a row of src's shape, a row of the other shape or a row of any tokens."""
    rows = (_lorentz_tokens(), _ball_tokens()) if src == "lorentz" else (_ball_tokens(), _lorentz_tokens())
    tokens = st.lists(st.one_of(_finite_values.map(repr), _bad_tokens), min_size=1, max_size=6)
    return st.one_of(st.just([]), rows[0], rows[0], rows[1], tokens)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_convert_holds_its_contract_on_generated_files(data):
    # exit 0 or 2 and no RuntimeWarning on any file; an exit 2 writes no
    # output, and an exit 0 writes finite rows of the target model's width,
    # the same bytes every run
    src, dst = data.draw(st.sampled_from(MODELS)), data.draw(st.sampled_from(MODELS))
    lines = [",".join(tokens) for tokens in data.draw(st.lists(_lines(src), min_size=1, max_size=6))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        outs = []
        for name in ("a.csv", "b.csv"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = convert(src, dst, tmp / "in.csv", tmp / name)
            assert code in (cli.EXIT_OK, cli.EXIT_DATA)
            if code != cli.EXIT_OK:
                assert not (tmp / name).exists()
                return
            outs.append((tmp / name).read_bytes())
    assert outs[0] == outs[1]
    shift = (dst == "lorentz") - (src == "lorentz")
    rows = [[float(tok) for tok in line.split(",")] for line in outs[0].decode().splitlines()]
    assert [len(r) for r in rows] == [line.count(",") + 1 + shift for line in lines if line.strip()]
    assert all(math.isfinite(v) for r in rows for v in r)


def test_selftest_passes():
    assert cli.main(["selftest", "--samples", "20"]) == cli.EXIT_OK


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_selftest_rejects_fewer_than_one_sample(capsys, samples):
    # zero samples used to check nothing and exit 0
    assert cli.main(["selftest", "--samples", samples]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["error: samples must be >= 1"]


def test_injected_transport_defect_exits_4(monkeypatch, capsys, broken_klein_transport):
    def transport(model, x, v):
        if model is Model.KLEIN:
            return broken_klein_transport(x, v)
        return transport_from_origin(model, x, v)

    monkeypatch.setattr(verify, "transport_from_origin", transport)
    assert cli.main(["selftest", "--samples", "20"]) == cli.EXIT_SELFTEST
    err = capsys.readouterr().err.splitlines()
    failed = [line for line in err if line.startswith("FAILED suites:")]
    assert failed == ["FAILED suites: transport_isometry, transport_conjugation, transport_gyro"]


def test_selftest_stdout_is_deterministic_and_stderr_times_each_suite(capsys):
    outs = []
    for _ in range(2):
        assert cli.main(["selftest", "--samples", "20"]) == cli.EXIT_OK
        captured = capsys.readouterr()
        outs.append(captured.out)
    assert outs[0] == outs[1]
    timed = [line.split(":")[0] for line in captured.err.splitlines()]
    assert timed == verify.suite_names() and len(timed) == 22
