"""Record one BENCH_<n>.json: perfbench workloads, verify-paper per case, src size.

    python3 bench/record.py --n 6                       # this checkout
    python3 bench/record.py --n 5 --root ../parent      # another checkout
    python3 bench/record.py --n 6 --tier1               # also time tier-1

For each workload that the measured checkout's `BENCHMARK.json` declares, and
for seeds 1, 2 and 3, it runs that checkout's `perfbench/run.py` for the
declared `run_seconds` in a subprocess and keeps its `metric` lines, `wrong`
lines and result object; the summary holds each metric's median, minimum and
maximum over the seeds. Then it times
`complen verify-paper --jobs 1 --format json` once and keeps every row (status,
expected, measured) apart from its seconds, so two BENCH files show whether
the rows moved, and the seconds per case. With `--tier1` it times the tier-1
pytest run. It counts the lines of every module in `src/complen/`. The file is
written next to this script's checkout root. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    run = {"seed": seed, "exit": proc.returncode, "seconds": round(time.perf_counter() - t, 2)}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        run["error"] = proc.stderr.strip()[-2000:]
        return run
    run["result"] = json.loads(lines[-1])
    run["metrics"] = {}
    run["wrong"] = []
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            run["metrics"][name] = {"value": float(value), "unit": unit}
        elif line.startswith("wrong "):
            run["wrong"].append(line[len("wrong "):])
        elif line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
            run["host"] = {k: meta.get(k) for k in ("host_before", "host_after", "passes")}
    return run


def summarize(runs: list) -> dict:
    """Median, min and max over the seeds of every metric the runs share."""
    ok = [r for r in runs if "metrics" in r]
    names = set.intersection(*(set(r["metrics"]) for r in ok)) if ok else set()
    out = {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in ok]
        out[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "unit": ok[0]["metrics"][name]["unit"],
        }
    return {"correct": all(r.get("result", {}).get("correct") for r in runs), "metrics": out}


def verify_paper(root: Path) -> dict:
    cmd = [sys.executable, "-m", "complen", "verify-paper", "--jobs", "1", "--format", "json"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - t
    doc = json.loads(proc.stdout)
    statuses = [c["status"] for c in doc["cases"]]
    return {
        "exit": proc.returncode,
        "wall_s": round(wall, 2),
        "counts": {s: statuses.count(s) for s in sorted(set(statuses))},
        "seconds": {c["id"]: c["seconds"] for c in doc["cases"]},
        "rows": {c["id"]: [c["status"], c["expected"], c["measured"]] for c in doc["cases"]},
    }


def tier1(root: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - t
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?|skipped)", last)}
    return {"exit": proc.returncode, "wall_s": round(wall, 2), "summary": last, "counts": counts}


def src_lines(root: Path) -> dict:
    files = sorted((root / "src" / "complen").glob("*.py"))
    per = {f.name: sum(1 for _ in f.open()) for f in files}
    return {"total": sum(per.values()), "modules": per}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="write BENCH_<n>.json")
    ap.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    ap.add_argument("--tier1", action="store_true", help="also time the tier-1 pytest run")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not all((root / p).exists() for p in ("BENCHMARK.json", "perfbench/run.py", "src/complen")):
        print(f"record: {root} is not a complen checkout with perfbench/", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    doc = {
        "n": args.n,
        "commit": _commit(root),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "src_lines": src_lines(root),
        "workloads": {},
    }
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            print(f"record: {w} seed {seed}", file=sys.stderr, flush=True)
            runs.append(perfbench(root, w, seed, seconds))
        doc["workloads"][w] = {"summary": summarize(runs), "runs": runs}
    print("record: verify-paper", file=sys.stderr, flush=True)
    doc["verify_paper"] = verify_paper(root)
    if args.tier1:
        print("record: tier-1", file=sys.stderr, flush=True)
        doc["tier1"] = tier1(root)

    out = HERE / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
