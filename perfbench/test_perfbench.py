"""Tests of the benchmark itself: its inputs, its output line and its failure counting.

The end-to-end and traced runs use --smoke: few epochs and few samples.
"""

import functools
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fixture_module():
    spec = importlib.util.spec_from_file_location("fixture_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1, 90210])
def test_texas_generator_matches_test_fixture(tmp_path, seed):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from workloads import write_texas_like
    finally:
        del sys.path[:2]
    ours = write_texas_like(tmp_path / "ours.json", seed)
    theirs = _fixture_module().write_texas_like(tmp_path / "theirs.json", seed)
    assert ours.read_bytes() == theirs.read_bytes()


@functools.lru_cache(maxsize=None)
def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_smoke_run_emits_every_per_layer_metric():
    metrics = _run("tree", 1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["klein.autodiff.nodes_per_step"]["value"] > 0
    assert metrics["verify.gradient_check.gradients_calls"]["value"] > 0


def test_klein_failure_on_texas_is_counted_not_fatal():
    result = _run("texas", 0)
    details = json.loads(
        (ROOT / ".perfbench_out" / "texas-seed0-trace0" / "results.json").read_text(encoding="utf-8")
    )
    tally = details["tally"]
    assert tally["train/klein"][1] == tally["train/klein"][0] >= 2
    assert tally["train/poincare"][1] == tally["train/lorentz"][1] == 0
    assert result["failed"] >= tally["train/klein"][1]
    assert not result["correct"]
    assert "texas" not in {w["name"] for w in SPEC["workloads"]}
    assert result["metrics"]["klein.test_acc"]["value"] == pytest.approx(1 / 5)
    assert result["metrics"]["ok_share"]["value"] < 1.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@functools.lru_cache(maxsize=None)
def _run_module():
    sys.path.insert(0, str(HERE))
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_batch1_class_unlike_the_full_batch_is_a_failed_call(tmp_path, monkeypatch):
    run = _run_module()
    bench = run.Bench(run.WORKLOADS["tree"], 0, True, tmp_path)
    ds = run.data.load_dataset(bench.data_path)
    model = run.nn.init_model("klein", ds.dim, bench.hidden, ds.n_classes, 0)
    run.nn.save_model(model, tmp_path / "model.json")
    bench.infer("klein", tmp_path / "model.json")
    assert bench.tally[("infer", "klein")][1] == 0

    forward = run.nn.forward

    def shifted(model, features):  # batch-1 calls predict the next class
        logits = forward(model, features)
        return run.np.roll(logits, 1, axis=1) if len(features) == 1 else logits

    monkeypatch.setattr(run.nn, "forward", shifted)
    bench.infer("klein", tmp_path / "model.json")
    attempted, failed = bench.tally[("infer", "klein")]
    assert failed == bench.b1_calls and attempted == 2 * (bench.b1_calls + bench.full_calls)


def test_reference_kernel_scales_to_its_nominal_time():
    clock = _run_module().RefClock()
    nominal = clock.NOMINAL["rows"]
    assert clock.scale("rows", 3.0, [2 * nominal, 4 * nominal]) == pytest.approx(1.0)
    assert clock.ref("point") > 0 and len(clock.samples["point"]) == 1
