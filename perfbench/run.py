"""hyperklein benchmark: train, inference and selftest, all three flavors.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tree --seed 7 --seconds 45 --trace 0

One process, single-threaded, closed loop: each call into hyperklein waits
for the previous one.  The inputs are generated from --seed into files under
.perfbench_out/ and the program only reads those files.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

# single-threaded BLAS; must be set before numpy is first imported, below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _pin_malloc():
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc serves each numpy temporary above 128 KiB (one 2,047 x 16
    float64 array is 256 KiB) with a fresh mmap, or from the heap once a freed
    mmap has raised the threshold, and trims the heap top back to the kernel;
    which of these happens depends on the process's allocation history.  The
    page faults of the mmap path double the time of a full-batch forward call,
    so the same run measured 5 or 10 ms per call.  Fixed thresholds keep every
    temporary on the heap in every run.  Returns whether glibc accepted them.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 64 << 20) and libc.mallopt(m_trim_threshold, 128 << 20))


MALLOC_PINNED = _pin_malloc()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FLAVORS = ("klein", "poincare", "lorentz")
MIN_CYCLES = 2  # repeated train runs are compared byte for byte
SETUP_REPEATS = 3  # set-up samples per flavor and cycle
SUITE_DIVISOR = 5  # one fifth of each suite's default sample count
# The suites run with the default seed of `hyperklein selftest`, not the
# workload seed: at other seeds gradient_check fails now and then (seeds 1
# and 45 of 0-59) because its 1e-5 finite-difference step crosses a ReLU
# kink; at a 1e-6 step the same inputs pass.  See perfbench/README.md.
SUITE_SEED = 0
FULL_CHUNK = 5  # full-batch calls between two reference samples
B1_CHUNK = 25  # batch-1 calls between two reference samples
TRAIN_REF_EPOCHS = 10  # epochs between two reference samples in a train run
SUITE_REF_CALLS = 100  # nn.gradients calls between two samples in a suite


@contextlib.contextmanager
def _quiet():
    """Keep the program's own prints off the benchmark's standard output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        yield err


class RefClock:
    """A fixed numpy kernel that does not use hyperklein, timed next to each
    measurement.

    Other tenants of a shared machine slow this process by up to 2x, for
    seconds to minutes at a time, through the cores and caches they share;
    the CPU time of the process does not show it.  They slow the kernel alike
    when it does the same kind of work, so the kernel is a plain numpy Klein
    layer (exp map, linear map, Einstein bias addition, ReLU in the tangent
    space, readout, a finiteness check after each step) run either on a
    2,048 x 16 batch (``rows``: like a full-batch call or an epoch) or on
    single rows (``point``: like a batch-1 call, a suite or set-up).  A timing
    is reported as wall time x NOMINAL[kind] / kernel time: the time on a host
    where the kernel takes NOMINAL[kind] seconds.  Raw wall times are kept
    beside the scaled ones.
    """

    # the kernel's median times on a 2-CPU Xeon host running this benchmark
    NOMINAL = {"rows": 1.5e-3, "point": 0.75e-3}
    POINT_REPEATS = 6

    def __init__(self):
        rng = np.random.default_rng(0)
        self.inputs = {"rows": rng.normal(size=(2048, 16)), "point": rng.normal(size=(1, 16))}
        self.weight = rng.normal(size=(16, 16)) / 4.0
        self.readout = rng.normal(size=(11, 16)) / 4.0
        self.bias = np.full(16, 0.01)
        self.samples = {kind: [] for kind in self.NOMINAL}
        self.tape = []

    def _finite(self, a):
        """Check a step's output and keep it alive, as a tape does."""
        if not np.isfinite(a).all():
            raise FloatingPointError("reference kernel overflowed")
        self.tape.append(a)
        return a

    def _ratio(self, x, exact, series):
        """exact(n) / n per row, by its series near zero."""
        n = self._finite(np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-32))
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._finite(np.where(n > 1e-4, exact(n) / n, series(n)) * x)

    def _kernel(self, x):
        def exp0(v):
            return self._ratio(v, np.tanh, lambda n: 1.0 - n * n / 3.0)

        def log0(v):
            return self._ratio(v, lambda n: np.arctanh(np.minimum(n, 1.0 - 1e-15)),
                               lambda n: 1.0 + n * n / 3.0)

        h = exp0(self._finite(log0(exp0(x)) @ self.weight.T))
        dot = self._finite((h * self.bias).sum(axis=1, keepdims=True))
        gamma = self._finite(1.0 / np.sqrt(1.0 - (h * h).sum(axis=1, keepdims=True)))
        h = self._finite((h + self.bias / gamma + gamma / (1.0 + gamma) * dot * h) / (1.0 + dot))
        logits = self._finite(np.maximum(log0(h), 0.0) @ self.readout.T)
        self.tape.clear()
        return logits

    def ref(self, kind):
        """Median of five kernel runs, in seconds: a median, like the
        timings it scales, so that it sees the host's slow moments too."""
        x = self.inputs[kind]
        repeats = 1 if kind == "rows" else self.POINT_REPEATS
        walls = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(repeats):
                self._kernel(x)
            walls.append(time.perf_counter() - start)
        self.samples[kind].append(median(walls))
        return self.samples[kind][-1]

    def scale(self, kind, wall, refs):
        return wall * self.NOMINAL[kind] / mean(refs)


class Bench:
    def __init__(self, workload, seed, smoke, work):
        self.seed = seed
        self.work = work
        self.epochs = workload.smoke_epochs if smoke else workload.epochs
        self.suite_cycles = workload.suite_cycles
        self.b1_calls = B1_CHUNK if smoke else 10 * B1_CHUNK
        self.full_calls = FULL_CHUNK if smoke else 8 * FULL_CHUNK
        self.setup_repeats = 1 if smoke else SETUP_REPEATS
        divisor = 1000 if smoke else SUITE_DIVISOR
        # verify keeps the default sample counts in its private suite table
        self.suite_samples = {
            name: max(1, verify._SUITES[name][1] // divisor) for name in verify.suite_names()
        }
        self.hidden = cli.RunConfig("train").hidden  # the CLI default width
        self.data_path = workload.write_dataset(work / "data.json", seed)
        ds = data.load_dataset(self.data_path)
        self.features, self.n_classes = ds.features, ds.n_classes
        # (kind, name) -> [attempted, failed]; an operation is one train
        # run, one nn.forward call or one suite
        self.tally = {}
        self.failures = []
        self.first_outputs = {}
        self.train_s = {f: [] for f in FLAVORS}
        self.test_acc = {f: [] for f in FLAVORS}
        self.full_s = {f: [] for f in FLAVORS}
        self.b1_s = {f: [] for f in FLAVORS}
        self.b1_dev = {f: 0.0 for f in FLAVORS}  # largest batch-1 logit deviation
        self.setup_s = []
        self.suite_s = {name: [] for name in self.suite_samples}
        self.raw = {}  # metric name -> raw wall times beside the scaled ones
        self.clock = RefClock()
        self.refs_inside = True  # off in traced runs, whose spans are raw times
        self.tracer = None

    def _context(self, label):
        if self.tracer is not None:
            self.tracer.context = label

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def _sampled(self, kind, every):
        """Time the block, and run the reference kernel before it, after it
        and every `every` nn.gradients calls within it; the kernel runs inside
        are taken out of the block's wall time."""
        run = types.SimpleNamespace(calls=0, refs=[self.clock.ref(kind)], wall=0.0)
        inner, inside = nn.gradients, 0.0

        def sampled(*args, **kwargs):
            nonlocal inside
            if self.refs_inside and run.calls and run.calls % every == 0:
                start = time.perf_counter()
                run.refs.append(self.clock.ref(kind))
                inside += time.perf_counter() - start
            run.calls += 1
            return inner(*args, **kwargs)

        nn.gradients = sampled
        start = time.perf_counter()
        try:
            yield run
        finally:
            run.wall = time.perf_counter() - start - inside
            nn.gradients = inner
            run.refs.append(self.clock.ref(kind))

    def _record(self, key, kind, wall, refs):
        self.raw.setdefault(key, []).append(wall)
        return self.clock.scale(kind, wall, refs)

    def _count(self, kind, name, attempted=1, failed=0, reason=""):
        counts = self.tally.setdefault((kind, name), [0, 0])
        counts[0] += attempted
        counts[1] += failed
        if failed:
            self.failures.append({"kind": kind, "name": name, "reason": reason})

    def ok_share(self):
        """Share of operations that succeeded, averaged over the operation
        kinds, so the count of time-filled cycles does not move it."""
        shares = []
        for kind in sorted({kind for kind, _ in self.tally}):
            rows = [v for (k, _), v in self.tally.items() if k == kind]
            shares.append(1.0 - sum(f for _, f in rows) / sum(a for a, _ in rows))
        return mean(shares)

    def load_split(self):
        """The CLI's own load step: load_dataset, then split when unsplit."""
        return cli._load_split_dataset(self.data_path, self.seed)

    def train(self, flavor, out):
        argv = [
            "train", "--data", str(self.data_path), "--model", flavor,
            "--epochs", str(self.epochs), "--patience", str(self.epochs),
            "--seed", str(self.seed), "--out", str(out),
        ]
        self._context(f"{flavor}.train")
        # one gradients call per epoch
        with self._sampled("rows", TRAIN_REF_EPOCHS) as run:
            with _quiet() as err, self._span("cli.main"):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                    code = None
                    err.write(repr(exc))
        epochs = run.calls
        train_s = self._record(f"{flavor}.train_s", "rows", run.wall, run.refs)
        if code != 0:
            reason = (err.getvalue().strip().splitlines() or [""])[-1]
            self._count("train", flavor, failed=1, reason=f"exit {code}: {reason}")
            # scaled to the full epoch budget, so a fix that lets the run
            # finish does not read as a slowdown; the failure is in ok_share
            self.train_s[flavor].append(train_s * self.epochs / max(epochs, 1))
            self.test_acc[flavor].append(1.0 / self.n_classes)
            return None
        outputs = ((out / "loss.csv").read_bytes(), (out / "checkpoint.json").read_bytes())
        first = self.first_outputs.setdefault(flavor, outputs)
        if outputs != first:
            self._count("train", flavor, failed=1, reason="outputs differ from the first run")
            return None
        self._count("train", flavor)
        self.train_s[flavor].append(train_s)
        self.test_acc[flavor].append(json.loads((out / "metrics.json").read_text())["test_acc"])
        return out / "checkpoint.json"

    def infer(self, flavor, checkpoint):
        """Full-batch calls, then batch-1 calls checked against the full-batch rows."""
        self._context(f"{flavor}.infer")
        model, _ = nn.load_model(checkpoint)
        x = self.features
        calls = mismatched = 0
        try:
            for _ in range(0, self.full_calls, FULL_CHUNK):
                before, walls = self.clock.ref("rows"), []
                for _ in range(FULL_CHUNK):
                    calls += 1
                    start = time.perf_counter()
                    full = nn.forward(model, x)
                    walls.append(time.perf_counter() - start)
                    if not np.isfinite(full).all():
                        mismatched += 1
                refs = (before, self.clock.ref("rows"))
                self.full_s[flavor] += [
                    self._record(f"{flavor}.full_batch_s", "rows", w, refs) for w in walls]
            classes = full.argmax(axis=1)
            for chunk in range(0, self.b1_calls, B1_CHUNK):
                before, walls = self.clock.ref("point"), []
                for k in range(chunk, chunk + B1_CHUNK):
                    calls += 1
                    i = k % len(x)
                    start = time.perf_counter()
                    logits = nn.forward(model, x[i][None, :])
                    walls.append(time.perf_counter() - start)
                    dev = float(abs(logits[0] - full[i]).max())
                    self.b1_dev[flavor] = max(self.b1_dev[flavor], dev)
                    if not np.isfinite(dev) or logits[0].argmax() != classes[i]:
                        mismatched += 1
                refs = (before, self.clock.ref("point"))
                self.b1_s[flavor] += [self._record(f"{flavor}.b1_s", "point", w, refs) for w in walls]
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            self._count("infer", flavor, calls, mismatched + 1, repr(exc))
            return
        reason = ""
        if mismatched:
            reason = f"{mismatched} calls gave non-finite logits or a batch-1 class unlike the full batch's"
        self._count("infer", flavor, calls, mismatched, reason)

    def step(self, flavor, k, with_setup=False):
        """One flavor's share of cycle k: train, infer, optional set-up samples."""
        checkpoint = self.train(flavor, self.work / f"cycle{k}" / flavor)
        if checkpoint is None:  # the model the failed run started from
            checkpoint = self.work / f"untrained-{flavor}.json"
        self.infer(flavor, checkpoint)
        if with_setup:
            self.setup_s += [self.setup_sample(flavor, checkpoint) for _ in range(self.setup_repeats)]

    def cycle(self, k):
        start = time.perf_counter()
        for flavor in FLAVORS:
            self.step(flavor, k)
        return time.perf_counter() - start

    def suites(self, names):
        """Run suites; returns name -> wall seconds."""
        seconds = {}
        for name in names:
            samples = self.suite_samples[name]
            self._context(f"verify.{name}")
            with self._sampled("point", SUITE_REF_CALLS) as run, self._span(f"verify.{name}"):
                try:
                    report = verify.run_suite(name, samples=samples, seed=SUITE_SEED)
                    ok, reason = report.passed, report.to_json()
                except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                    ok, reason = False, repr(exc)
            seconds[name] = run.wall
            self.suite_s[name].append(self._record(f"verify.{name}_s", "point", run.wall, run.refs))
            self._count("suite", name, failed=int(not ok), reason=reason)
        return seconds

    def setup_sample(self, flavor, checkpoint):
        """Work before the first epoch of one train run (load, split, init),
        plus loading its checkpoint for inference."""
        before = self.clock.ref("point")
        start = time.perf_counter()
        ds = self.load_split()
        nn.init_model(flavor, ds.dim, self.hidden, ds.n_classes, self.seed)
        nn.load_model(checkpoint)
        wall = time.perf_counter() - start
        return self._record("setup_s", "point", wall, (before, self.clock.ref("point")))

    def warm_up(self):
        """Two-epoch train runs, not counted, so imports and caches are warm;
        also writes the untrained checkpoints that inference falls back to."""
        ds = self.load_split()
        epochs, self.epochs = self.epochs, 2
        for flavor in FLAVORS:
            self.train(flavor, self.work / "warmup" / flavor)
            model = nn.init_model(flavor, ds.dim, self.hidden, ds.n_classes, self.seed)
            nn.save_model(model, self.work / f"untrained-{flavor}.json")
        self.epochs, self.first_outputs = epochs, {}
        self.tally, self.failures = {}, []
        for values in (*self.train_s.values(), *self.test_acc.values(), self.setup_s):
            values.clear()
        self.raw.clear()

    def tape_peak_mb(self, flavor):
        ds = self.load_split()
        model = nn.init_model(flavor, ds.dim, self.hidden, ds.n_classes, self.seed)
        x, y = ds.features[ds.train_idx], ds.labels[ds.train_idx]
        tracemalloc.start()
        try:
            nn.gradients(model, x, y)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def end_to_end(self, seconds):
        # timings are scaled by RefClock and summarised by their median; a
        # cycle's verification pass is spread over its flavors
        k, last, measure_start = 0, 0.0, time.perf_counter()
        # no cycle starts that would end after --seconds
        while k < MIN_CYCLES or time.perf_counter() - measure_start + last <= seconds:
            cycle_start = time.perf_counter()
            with_suites = self.suite_cycles is None or k < self.suite_cycles
            pending = list(self.suite_samples) if with_suites else []
            chunk = -(-len(pending) // len(FLAVORS))
            for flavor in FLAVORS:
                self.step(flavor, k, with_setup=True)
                self.suites(pending[:chunk])
                del pending[:chunk]
            last = time.perf_counter() - cycle_start
            k += 1
        n_rows = len(self.features)
        metrics = {"setup_s": (median(self.setup_s), "s")}
        for f in FLAVORS:
            metrics[f"{f}.train_s"] = (median(self.train_s[f]), "s")
            metrics[f"{f}.test_acc"] = (median(self.test_acc[f]), "fraction")
            metrics[f"{f}.infer_rows_per_s"] = (n_rows / median(self.full_s[f]), "1/s")
            metrics[f"{f}.infer_p50_ms"] = (median(self.b1_s[f]) * 1e3, "ms")
        metrics["selftest_s"] = (sum(median(t) for t in self.suite_s.values()), "s")
        metrics["ok_share"] = (self.ok_share(), "fraction")
        samples = {
            "setup_s": self.setup_s,
            "train_s": self.train_s,
            "test_acc": self.test_acc,
            "full_batch_s": self.full_s,
            "suite_s": self.suite_s,
            "raw_wall_s": self.raw,
            "ref_s": self.clock.samples,
        }
        return metrics, {"cycles": k, "samples": samples}

    def traced(self):
        self.refs_inside = False
        plain_cycle = self.cycle(0)
        p99 = {f: quantile(self.b1_s[f], 0.99) * 1e3 for f in FLAVORS}
        plain_suites = sum(self.suites(self.suite_samples).values())
        self.tracer = spans.Tracer()
        with self.tracer.patched():
            traced_cycle = self.cycle(1)
            traced_suites = sum(self.suites(self.suite_samples).values())
        metrics = spans.layer_metrics(self.tracer, FLAVORS, self.suite_samples)
        for f in FLAVORS:
            metrics[f"{f}.nn.forward_b1_p99_ms"] = (p99[f], "ms")
            metrics[f"{f}.autodiff.tape_peak_mb"] = (self.tape_peak_mb(f), "MB")
            metrics[f"{f}.nn.b1_logit_dev"] = (self.b1_dev[f], "logit")
        metrics["trace.overhead_s"] = (traced_cycle - plain_cycle, "s")
        metrics["trace.selftest_overhead_s"] = (traced_suites - plain_suites, "s")
        return metrics, {"cycles": 2, "spans": len(self.tracer.spans)}


def median(values):
    return float(np.median(values))


def mean(values):
    return float(np.mean(values))


def quantile(values, q):
    return float(np.quantile(values, q))


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def provenance(args):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperklein").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = os.cpu_count()
    threads = _blas_threads()
    if threads > nproc:
        raise RuntimeError(f"BLAS uses {threads} threads on {nproc} CPUs")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": nproc,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "malloc_pinned": MALLOC_PINNED,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few epochs and samples, for tests")
    return parser.parse_args(argv)


def _report(bench, metrics, info, prov):
    for f in FLAVORS:
        line = {"flavor": f}
        for kind in ("train", "infer"):
            attempted, failed = bench.tally.get((kind, f), (0, 0))
            line[kind] = {"attempted": attempted, "failed": failed}
        raw_b1 = bench.raw.get(f"{f}.b1_s")
        if raw_b1:
            line["infer_b1_p50_ms_raw"] = median(raw_b1) * 1e3
            line["infer_b1_p99_ms_raw"] = quantile(raw_b1, 0.99) * 1e3
            line["b1_calls"] = len(raw_b1)
            line["b1_logit_dev"] = bench.b1_dev[f]
        print(json.dumps(line))
    seen = set()
    for failure in bench.failures:  # the first failure of each operation
        key = (failure["kind"], failure["name"])
        if key not in seen:
            seen.add(key)
            print(json.dumps({"failure": failure}))
    kinds = {}
    for (kind, _), (attempted, failed) in bench.tally.items():
        totals = kinds.setdefault(kind, {"attempted": 0, "failed": 0})
        totals["attempted"] += attempted
        totals["failed"] += failed
    print(json.dumps(kinds))
    print(json.dumps(prov))
    failed = sum(k["failed"] for k in kinds.values())
    result = {
        # an output check that fails counts as a failed operation
        "correct": failed == 0,
        "attempted": sum(k["attempted"] for k in kinds.values()),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {
        "provenance": prov,
        "run": info,
        "tally": {f"{kind}/{name}": counts for (kind, name), counts in bench.tally.items()},
        "failures": bench.failures,
    }
    (bench.work / "results.json").write_text(
        json.dumps({**result, **details}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))


def main(argv=None):
    args = _parse(argv)
    if args.seed < 0:
        raise SystemExit("seed must be nonnegative")
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prov = provenance(args)
    bench = Bench(wl, args.seed, args.smoke, work)
    bench.warm_up()
    if args.trace:
        metrics, info = bench.traced()
        np.savez_compressed(work / "spans.npz", **bench.tracer.to_arrays())
    else:
        metrics, info = bench.end_to_end(args.seconds)
    for path in work.iterdir():  # keep only results.json and spans.npz
        if path.is_dir():
            shutil.rmtree(path)
        elif path.suffix == ".json":
            path.unlink()
    _report(bench, metrics, info, prov)
    return 0


if not (SRC / "hyperklein" / "__init__.py").is_file():
    sys.exit(f"error: no hyperklein sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from hyperklein import cli, data, nn, verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not Path(sys.modules["hyperklein"].__file__).resolve().is_relative_to(SRC):
    sys.exit("error: hyperklein was imported from outside this checkout")

if __name__ == "__main__":
    sys.exit(main())
