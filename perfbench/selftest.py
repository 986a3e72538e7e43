"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

For every workload and seeds 1 and 2 it runs ``run.py --trace 1``. A traced run
already fails itself (``correct`` false) unless its traced answers and its
traced set-up are byte-identical to an untraced reference pass in the same
process and every wrapper is gone afterwards. This script adds two checks
across processes: tracing the same seed twice gives exactly the same call
counts, and an untraced run (which fails itself if it ever imported the
tracer) is correct too. Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the package on the path)

SEEDS = (1, 2)


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}")
    for line in out.stdout.splitlines():
        if line.startswith("wrong "):
            print(f"  {line}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        first = None
        for seed in SEEDS:
            res = run(workload, seed, 1)
            ok = res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed} traced: {'ok' if ok else 'WRONG'}", flush=True)
            if not ok:
                problems.append(f"{workload} seed {seed}: traced run not correct")
            if first is None:
                first = res
        again = run(workload, SEEDS[0], 1)
        same = counts(again) == counts(first)
        print(f"{workload} seed {SEEDS[0]} counts repeat: {'ok' if same else 'WRONG'}", flush=True)
        if not same:
            problems.append(f"{workload}: call counts differ between two traced runs of one seed")
        plain = run(workload, SEEDS[0], 0)
        ok = plain["correct"] and plain["failed"] == 0
        print(f"{workload} seed {SEEDS[0]} untraced: {'ok' if ok else 'WRONG'}", flush=True)
        if not ok:
            problems.append(f"{workload}: untraced run not correct")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
