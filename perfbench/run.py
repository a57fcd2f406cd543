"""melinlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: scaling_sweep, phase_grid,
mode2_localize, star_compose (see BENCHMARK.json and workloads.py).

With ``--trace 0`` it first starts SETUP_PROBES set-up-only processes,
then the workload process, and reports the end_to_end metrics of
BENCHMARK.json: ``setup_s`` is the median over those processes of the
wall time from process start to READY (import, input generation and
validation, first BLAS call).  ``tasks_per_s`` and ``task_p50_s`` are
scaled to the reference machine speed (see worker.REFERENCE_KERNEL_S);
the unscaled ones stay in the result file.  With ``--trace 1`` it starts
only the workload process and reports the per_layer metrics of its
traced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, with machine notes,
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("scaling_sweep", "phase_grid", "mode2_localize", "star_compose")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 30
RUN_TIMEOUT_S = 90  # beyond --seconds; keeps a whole run under 180 s


def worker_env() -> dict:
    """One BLAS thread (never more than nproc): with two threads on a
    shared 2-core Xeon at 2.1 GHz, run-to-run spread was about 35 %, and
    the first threaded call cost anywhere from 0.01 s to 0.9 s."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))


def start_worker(args, setup_only: bool, timeout_s: float) -> tuple[float, list[str]]:
    """Run worker.py; returns (seconds from start to READY, stdout lines after it)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[1:])} exited {code} (first line {first!r})")
    return ready, rest


def measure(args) -> tuple[dict, dict]:
    """Returns (worker record, metrics named as in BENCHMARK.json) for one run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(start_worker(args, True, PROBE_TIMEOUT_S)[0])
    ready, lines = start_worker(args, False, args.seconds + RUN_TIMEOUT_S)
    setups.append(ready)
    record = json.loads(lines[-1])
    if not record["task_samples"]:
        raise RuntimeError(f"no task passed its check: {record['failures'][:5]}")
    record["setup_samples_s"] = setups
    if args.trace:
        values = dict(record["layers"], **{"cli.sweep_wall_s": record["cli.sweep_wall_s"]})
        section = "per_layer"
    else:
        values = {
            "tasks_per_s": record["ref_tasks_per_s"],
            "task_p50_s": record["ref_task_p50_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        section = "end_to_end"
    return record, {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "melinlab" / "__init__.py").is_file():
        print(f"error: no melinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        record, metrics = measure(args)
    except (OSError, RuntimeError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(record["failures"])
    record["fail_ratio"] = failed / record["attempted"]
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(record, metrics=metrics), indent=2) + "\n")

    for msg in record["failures"][:20]:
        print(f"FAILED {msg}")
    p90 = record["task_p90_s"]
    print(f"{args.workload} seed={args.seed}: samples={record['task_samples']} "
          f"task_p90_s={'n/a (<100 samples)' if p90 is None else f'{p90:.6g}'} "
          f"fail_ratio={record['fail_ratio']:.6g} "
          f"rows_n_used_ge_128={record['rows_n_used_ge_128']}/{record['rows']} "
          f"machine={json.dumps(record['machine'])}")
    print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
