"""Run every workload of BENCHMARK.json once untraced and once traced,
print each metric by name and unit, and check the output.

    python3 perfbench/check.py [--seconds 4] [--seed 1]

Checks, per workload: the run exits 0, its last stdout line has exactly
the keys correct, attempted, failed and metrics, every output check
passed (correct is true, failed is 0), and the metric names and units
are exactly the end_to_end (untraced) or per_layer (traced) entries of
BENCHMARK.json.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError) as exc:
        return None, f"no JSON result line: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, error = run(workload, args.seed, args.seconds, trace)
            where = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{where}: {error}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed"):
                problems.append(f"{where}: {result.get('failed')} of "
                                f"{result.get('attempted')} checks failed")
            metrics = result.get("metrics", {})
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in set(got) & set(expected[trace])
                               if got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
            for name, m in metrics.items():
                print(f"{workload:16s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print("PROBLEM", p)
    print("check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
