"""One workload process of the melinlab benchmark.

Started by run.py from the root of a checkout.  Set-up imports melinlab
from the checkout's ``src``, builds and validates the seeded input pool
and makes the first BLAS call; then the worker prints ``READY``.  It runs
the canary, then whole blocks of tasks until the time budget is spent,
checking every output.  With ``--trace 1`` it runs every block twice,
untraced and traced, so the difference between the two throughputs is
the tracing overhead.  Finally it times one ``python -m melinlab sweep``
subprocess and compares its CSV bytes with the in-process report.  The
last line of stdout is a JSON record.

``--setup-only`` stops at ``READY``; run.py uses it to repeat set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import melinlab  # noqa: E402

if not Path(melinlab.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"melinlab was imported from {melinlab.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

CLI_TIMEOUT_S = 120
SPEED_INTERVAL_S = 0.5
# Median time of SpeedProbe's kernel on the reference machine (2-core Xeon
# at 2.1 GHz, OpenBLAS on one thread, no other load).  A block's task
# times are scaled by REFERENCE_KERNEL_S / (median kernel time during the
# block), so they read as seconds on the reference machine.
REFERENCE_KERNEL_S = 0.02


class SpeedProbe:
    """Times a fixed reference kernel that uses no melinlab code.

    The machine's speed drifts by 20-30 % over minutes when other tenants
    load the shared cores, and the kernel slows down with it.  Sampling it
    every SPEED_INTERVAL_S between tasks gives the factor that scales each
    block's task times to the reference speed.  The kernel
    mixes the kinds of work the workloads do: a complex matmul and
    Hermitian averaging at 256, an eigensolve at 256, many small matmuls
    and dict-of-tuples polynomial arithmetic.  It writes into
    preallocated arrays (about 6 MB, which peak_rss_mb includes), so page
    faults do not add noise of its own.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def cplx(n: int) -> np.ndarray:
            return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

        self._square = cplx(256)
        self._product = np.empty_like(self._square)
        self._adjoint = np.empty_like(self._square)
        herm = cplx(256)
        self._herm = herm + herm.conj().T
        self._small = cplx(66)
        self._small_out = np.empty_like(self._small)
        self._poly = {(i, j): 1.0 + i + j for i in range(6) for j in range(6)}
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        np.matmul(self._square, self._square, out=self._product)
        np.conjugate(self._product.T, out=self._adjoint)
        np.add(self._product, self._adjoint, out=self._adjoint)
        np.linalg.eigvalsh(self._herm)
        for _ in range(30):
            np.matmul(self._small, self._small, out=self._small_out)
        for _ in range(2):
            out: dict = {}
            for (a, b), c in self._poly.items():
                for (x, y), e in self._poly.items():
                    out[(a + x, b + y)] = out.get((a + x, b + y), 0.0) + c * e
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SPEED_INTERVAL_S:
            self.sample()


class PassStats:
    """Wall time, verified-task durations and failures of one kind of pass;
    ``ref_*`` are the same times scaled to the reference speed."""

    def __init__(self):
        self.wall = self.ref_wall = 0.0
        self.durations: list[float] = []
        self.ref_durations: list[float] = []
        self.failures: list[str] = []
        self.rows = 0
        self.rows_big = 0
        self.blocks: list[dict] = []

    @property
    def rate(self) -> float:
        return len(self.durations) / self.wall

    @property
    def ref_rate(self) -> float:
        return len(self.ref_durations) / self.ref_wall


def run_block(block, stats: PassStats, speed: SpeedProbe, tracer=None,
              first_task: int = 0) -> None:
    """Run one block, sampling the speed probe at least once; time spent in
    the probe is not counted.  The median of the block's samples, not one
    for the whole run, scales its times: the speed drifts within a run."""
    start = time.perf_counter()
    probe_s = sum(speed.samples)
    first_sample = len(speed.samples)
    verified = len(stats.durations)
    for n, task in enumerate(block):
        if tracer is not None:
            tracer.task = f"task{first_task + n}"
        t0 = time.perf_counter()
        try:
            big = task.run()
        except Exception as exc:  # any error is a failed task
            stats.failures.append(f"{task.label}: {type(exc).__name__}: {exc}")
        else:
            stats.durations.append(time.perf_counter() - t0)
            stats.rows += task.rows
            stats.rows_big += big
        speed.maybe_sample()
    if len(speed.samples) == first_sample:
        speed.sample()
    wall = time.perf_counter() - start - (sum(speed.samples) - probe_s)
    kernel = statistics.median(speed.samples[first_sample:])
    to_reference = REFERENCE_KERNEL_S / kernel
    stats.wall += wall
    stats.ref_wall += wall * to_reference
    stats.ref_durations += [t * to_reference for t in stats.durations[verified:]]
    stats.blocks.append({"verified": len(stats.durations) - verified, "wall_s": wall,
                         "kernel_s": kernel})


def run_blocks(blocks, budget_s: float, speed: SpeedProbe, tracer=None,
               trace_blocks: int = 0) -> tuple[PassStats, PassStats, dict | None]:
    """Run whole blocks until budget_s has passed.

    With a tracer, every block runs twice, untraced and traced, in
    alternating order so that neither side always gets the second, warmer
    run.  The per-layer metrics are taken once the first trace_blocks
    blocks are done (the run goes on at least that far), so they cover
    the same work whatever the budget and the machine's speed.  Returns
    (untraced stats, traced stats, per-layer metrics or None).
    """
    plain, traced = PassStats(), PassStats()
    layers = None
    start = time.perf_counter()
    done = i = 0
    while True:
        block = blocks[i % len(blocks)]
        if tracer is None:
            run_block(block, plain, speed)
        else:
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                if use_tracer:
                    tracer.install()
                    run_block(block, traced, speed, tracer, done)
                    tracer.uninstall()
                else:
                    run_block(block, plain, speed)
        done += len(block)
        i += 1
        if tracer is not None and i == trace_blocks:
            layers = tracer.layer_metrics()
        if time.perf_counter() - start >= budget_s and i >= trace_blocks:
            return plain, traced, layers


def cli_sweep(seed: int) -> tuple[float, str | None]:
    """Time one CLI sweep subprocess and compare its CSV with the in-process
    report.  Returns (wall seconds, failure message or None)."""
    data = workloads.cli_model(seed)
    symbol, section, _ = melinlab.modelfile.load_model_dict(data)
    spec = melinlab.modelfile.sweep_spec_from_model(symbol, section)
    expected = melinlab.render_report(melinlab.lambda_sweep(spec, workers=1), "csv")
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        model, csv_path = tmp / "model.json", tmp / "sweep.csv"
        model.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "melinlab", "sweep", str(model), "--out", str(csv_path)],
                env=env, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, f"cli sweep did not finish in {CLI_TIMEOUT_S} s"
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            return wall, f"cli sweep exited {proc.returncode}: {proc.stderr.decode()[-500:]}"
        if csv_path.read_bytes() != expected:
            return wall, "cli sweep CSV differs from render_report(lambda_sweep(spec), 'csv')"
        return wall, None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def machine_notes() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    failures: list[str] = []
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.build(args.workload, args.seed)
    workloads.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.task = "canary"
    try:
        workloads.canary()
    except Exception as exc:  # a broken layer fails the run, not the process
        failures.append(f"canary: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.uninstall()
    speed = SpeedProbe()
    speed.sample()  # first touch of the probe's arrays
    speed.samples.clear()

    plain, traced, layers = run_blocks(workload.blocks, args.seconds, speed, tracer,
                                       workload.trace_blocks)
    failures += plain.failures + traced.failures
    durations = plain.durations
    attempted = (len(durations) + len(traced.durations)
                 + len(plain.failures) + len(traced.failures))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tasks_per_s": plain.rate,
        "ref_tasks_per_s": plain.ref_rate,
        "task_samples": len(durations),
        "task_p50_s": statistics.median(durations) if durations else None,
        "ref_task_p50_s": statistics.median(plain.ref_durations) if durations else None,
        "task_p90_s": (statistics.quantiles(plain.ref_durations, n=10)[-1]
                       if len(durations) >= 100 else None),
        "timed_wall_s": plain.wall,
        "blocks": plain.blocks,
        "rows": plain.rows,
        "rows_n_used_ge_128": plain.rows_big,
        "inputs": workload.properties,
        "trace_blocks": workload.trace_blocks if tracer is not None else None,
    }
    if tracer is not None:
        layers["trace.tasks_per_s"] = traced.rate
        layers["trace.overhead_tasks_per_s"] = plain.rate - traced.rate
        record["layers"] = layers

    cli_wall, cli_failure = cli_sweep(args.seed)
    attempted += 2  # canary and CLI check
    if cli_failure:
        failures.append(cli_failure)
    record["cli.sweep_wall_s"] = cli_wall
    record["attempted"] = attempted
    record["failures"] = failures
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["machine"] = machine_notes()

    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans, "w", encoding="utf-8") as fh:
            for span_id, parent, task, name, start, end in tracer.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "task": task,
                                     "name": name, "start": start, "end": end}) + "\n")
        record["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
