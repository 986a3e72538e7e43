"""Record one BENCH_<n>.json: perfbench workloads, verify-paper per case, src size.

    python3 bench/record.py --n 11                          # HEAD
    python3 bench/record.py --n 11 --commit <rev>           # another commit
    python3 bench/record.py --n 11 --base <rev> --seeds 10  # <rev> against HEAD
    python3 bench/record.py --n 11 --tier1                  # also time tier-1

It measures a commit, never the working tree: `git archive` exports the
commit into a fresh temporary directory, every command runs there, and the
file records the full commit id. With `--base`, the base commit is exported
as well and the two are measured in alternating pairs with the same seeds,
the base first for odd seeds and the head first for even ones.

For each workload that the measured commit's `BENCHMARK.json` declares, and
for seeds 1 to `--seeds` (3 by default), it runs that commit's
`perfbench/run.py` for the declared `run_seconds` in a subprocess and keeps
its `metric` lines, `wrong` lines and result object; the summary holds each
metric's median, quartiles, minimum and maximum over the seeds. Traced
runs with `--seconds 0 --trace 1`, seeds 1 to TRACED_SEEDS per workload
and side in alternating pairs, give the per-layer metrics (field
operations, inserts, span chains, per-layer seconds, census rates); their
summary in the same form sits under `workloads.<w>.layers`, so the file
shows where the time went; tracing slows those runs, so their seconds
compare only with other traced runs. Then it times `complen verify-paper --jobs 1 --format json`
REPEATS times per side, in alternating pairs ordered as the seeds are, and
keeps every row (status, expected, measured) apart from its seconds, so two
BENCH files show whether the rows moved; every run of a side must give the
same rows. Each run records its wall time `wall_s` and its CPU time `cpu_s`
(user + sys of the child process and everything it waited for, read with
`resource.getrusage(RUSAGE_CHILDREN)` before and after); CPU time leaves out
the time lost to other processes on the host. Each side's `verify_paper`
holds the median `wall_s` and `cpu_s` and the runs with their seconds per
case. With `--tier1` the tier-1 pytest run is timed the same way, under
`tier1`. It counts the lines and bytes of every module in `src/complen/`.
Once per side it runs verify-paper `--jobs 1` under cProfile with
`PYTHONHASHSEED=0`, `decimal` and `fractions` imported first, and stores the
Python calls per module under `verify_paper_calls`; these counts do not
depend on the host, and two recordings of one commit give the same ones.
Once per side and workload it also stores the tracemalloc peak of one pass
of the workload's jobs, after the set-up of seed 1, as `jobs_peak_mb`: the
memory the jobs allocate, without the interpreter, the imports made before
them, or the inputs.
Objects that sit in CPython's free lists count as allocated, so a set-up
that frees fewer objects can raise it by a few tens of KB.

The head's results sit at the top level of the file, as in a file without a
base. With `--base`, `base` holds the same keys for the base commit, and
`pairs` gives, for each workload and each end-to-end metric of
`BENCHMARK.json`, both sides' medians and quartiles and the number of pairs
the head won (ties count for neither side); `suite_pairs` gives the same for
the `wall_s` and `cpu_s` of verify-paper and tier-1. The file is written
next to this script's checkout root. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 3  # verify-paper and tier-1 runs per side
TRACED_SEEDS = 5  # traced perfbench runs per workload and side
SUITE_METRICS = ("wall_s", "cpu_s")  # recorded for each verify-paper and tier-1 run


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def resolve(rev: str) -> str:
    """The full commit id of rev in this script's repository."""
    out = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=HERE, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"record: {rev!r} is not a commit: {out.stderr.strip()}")
    return out.stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """Extract the committed files of commit into dest with git archive."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=HERE, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    if not all((dest / p).exists() for p in ("BENCHMARK.json", "perfbench/run.py", "src/complen")):
        raise SystemExit(f"record: commit {commit} is not a complen tree with perfbench/")
    return dest


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
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


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(runs: list) -> dict:
    """Median, quartiles, min and max over the seeds of every metric the runs share."""
    ok = [r for r in runs if "metrics" in r]
    names = set.intersection(*(set(r["metrics"]) for r in ok)) if ok else set()
    out = {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in ok]
        out[name] = {
            "median": statistics.median(values),
            "quartiles": _quartiles(values),
            "min": min(values),
            "max": max(values),
            "unit": ok[0]["metrics"][name]["unit"],
        }
    errors = [r["error"] for r in runs if "error" in r]
    return {
        "correct": all(r.get("result", {}).get("correct") for r in runs),
        "metrics": out,
        **({"errors": errors} if errors else {}),
    }


def _pair_stats(pairs: list, lower: bool = True) -> dict:
    """Medians, quartiles and pairs won by each side of (base, head) values."""
    base, head = [b for b, _ in pairs], [h for _, h in pairs]
    return {
        "pairs": len(pairs),
        "head_wins": sum(h < b if lower else h > b for b, h in pairs),
        "base_wins": sum(b < h if lower else b > h for b, h in pairs),
        "base_median": statistics.median(base),
        "head_median": statistics.median(head),
        "base_quartiles": _quartiles(base),
        "head_quartiles": _quartiles(head),
    }


def compare(base_runs: list, head_runs: list, metrics: list) -> dict:
    """Per end-to-end metric: medians, quartiles and pairs won by the head."""
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [
            (b["metrics"][name]["value"], h["metrics"][name]["value"])
            for b, h in zip(base_runs, head_runs)
            if name in b.get("metrics", {}) and name in h.get("metrics", {})
        ]
        if pairs:
            out[name] = {**_pair_stats(pairs, m["better"] == "lower"), "bound": m.get("bound")}
    return out


def timed(cmd: list, root: Path) -> tuple:
    """(completed process, wall seconds, child CPU seconds) of cmd run in root."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - t
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return proc, round(wall, 2), round(cpu, 2)


def verify_paper(root: Path) -> dict:
    cmd = [sys.executable, "-m", "complen", "verify-paper", "--jobs", "1", "--format", "json"]
    proc, wall, cpu = timed(cmd, root)
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise SystemExit(
            f"record: verify-paper in {root} printed no JSON (exit {proc.returncode}); "
            f"stderr ends: {proc.stderr.strip()[-2000:]}"
        ) from None
    statuses = [c["status"] for c in doc["cases"]]
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": cpu,
        "counts": {s: statuses.count(s) for s in sorted(set(statuses))},
        "seconds": {c["id"]: c["seconds"] for c in doc["cases"]},
        "rows": {c["id"]: [c["status"], c["expected"], c["measured"]] for c in doc["cases"]},
    }


# One verify-paper run under cProfile; prints {module: Python calls}. complen
# modules are keyed by file name, C functions by "(builtins)", the rest by
# "(other)"; PYTHONHASHSEED=0 fixes set and dict orders, so counts repeat.
# decimal and fractions load before the profiled run, so that no count
# depends on which case happens to import them first. Calls are summed per
# code object: pstats keys them by (file, line, name), which keeps only one
# of two comprehensions on one line, picked by their memory addresses
PROFILE = """
import cProfile, collections, contextlib, decimal, fractions, io, json, os, sys
from complen.cli import main
prof = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    prof.runcall(main, ["verify-paper", "--jobs", "1", "--format", "json"])
calls = collections.Counter()
for entry in prof.getstats():
    if isinstance(entry.code, str):
        base = "(builtins)"
    else:
        path = entry.code.co_filename
        base = os.path.basename(path)
        if os.path.basename(os.path.dirname(path)) != "complen":
            base = "(other)"
    calls[base] += entry.callcount
print(json.dumps(dict(sorted(calls.items()))))
"""


def call_counts(root: Path) -> dict:
    """Python calls per module of one profiled verify-paper run, and their total."""
    env = dict(_env(root), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", PROFILE], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"record: profiled verify-paper failed in {root}: "
                         f"{proc.stderr.strip()[-2000:]}")
    modules = json.loads(proc.stdout)
    return {"total": sum(modules.values()), "modules": modules}


# One pass of a workload's jobs under tracemalloc, after perfbench's imports
# and the set-up of seed 1; prints the traced peak in MB.
JOBS_PEAK = """
import json, sys, tracemalloc
sys.path.insert(0, "perfbench")
import numpy, workloads
w = workloads.WORKLOADS[sys.argv[1]]
jobs = w.jobs(w.setup(1))
tracemalloc.start()
for job in jobs:
    job.run()
print(json.dumps(tracemalloc.get_traced_memory()[1] / 2**20))
"""


def jobs_peak_mb(root: Path, workload: str) -> float:
    """The tracemalloc peak in MB of one pass of workload's jobs in root."""
    env = dict(_env(root), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", JOBS_PEAK, workload], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"record: traced jobs of {workload} failed in {root}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return round(json.loads(proc.stdout), 3)


def tier1(root: Path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    proc, wall, cpu = timed(cmd, root)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?|skipped)", last)}
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": cpu, "summary": last,
            "counts": counts}


def src_lines(root: Path) -> dict:
    """Lines and bytes of every module: without a bytecode cache each process
    compiles its imports, so their bytes show in setup_s and peak_rss_mb."""
    files = sorted((root / "src" / "complen").glob("*.py"))
    per = {f.name: sum(1 for _ in f.open()) for f in files}
    size = {f.name: f.stat().st_size for f in files}
    return {"total": sum(per.values()), "modules": per,
            "total_bytes": sum(size.values()), "module_bytes": size}


def alternating(sides: dict, rounds, label: str, run) -> dict:
    """run(root, r) on every side for each r in rounds, the base first for odd r."""
    out = {side: [] for side in sides}
    for r in rounds:
        for side in sorted(sides, reverse=r % 2 == 0):
            print(f"record: {label} {r} {side}", file=sys.stderr, flush=True)
            out[side].append(run(sides[side][1], r))
    return out


def measure(sides: dict, seeds: list, with_tier1: bool) -> dict:
    """Results per side ("head", and "base" when given) of one recording.

    sides maps a side to (commit, exported root). Each perfbench seed runs on
    every side before the next seed starts, the base first for odd seeds.
    """
    bench = json.loads((sides["head"][1] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        side: {"commit": commit, "seconds": seconds, "src_lines": src_lines(root),
               "workloads": {}}
        for side, (commit, root) in sides.items()
    }
    for side, (_, root) in sides.items():
        print(f"record: profiled verify-paper {side}", file=sys.stderr, flush=True)
        out[side]["verify_paper_calls"] = call_counts(root)
    pairs = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs = alternating(sides, seeds, f"{w} seed",
                           lambda root, seed: perfbench(root, w, seed, seconds))
        traced = alternating(sides, range(1, TRACED_SEEDS + 1), f"{w} layers seed",
                             lambda root, seed: perfbench(root, w, seed, 0, trace=1))
        for side, (_, root) in sides.items():
            print(f"record: {w} jobs peak {side}", file=sys.stderr, flush=True)
            out[side]["workloads"][w] = {
                "summary": summarize(runs[side]),
                "runs": runs[side],
                "layers": summarize(traced[side]),
                "jobs_peak_mb": jobs_peak_mb(root, w),
            }
        if "base" in sides:
            pairs[w] = compare(runs["base"], runs["head"], bench["end_to_end"])
    suites = {"verify_paper": verify_paper, **({"tier1": tier1} if with_tier1 else {})}
    suite_pairs = {}
    for key, run in suites.items():
        runs = alternating(sides, range(1, REPEATS + 1), f"{key} run",
                           lambda root, _: run(root))
        for side, side_runs in runs.items():
            entry = out[side][key] = {
                **{m: statistics.median(r[m] for r in side_runs) for m in SUITE_METRICS},
                "counts": side_runs[0]["counts"],
            }
            if key == "verify_paper":
                rows = side_runs[0].pop("rows")
                if any(r.pop("rows") != rows for r in side_runs[1:]):
                    raise SystemExit(f"record: verify-paper rows differ between {side} runs")
                entry["rows"] = rows
            entry["runs"] = side_runs
        if "base" in sides:
            suite_pairs[key] = {
                m: _pair_stats([(b[m], h[m]) for b, h in zip(runs["base"], runs["head"])])
                for m in SUITE_METRICS
            }
    if pairs:
        out["pairs"] = pairs
        out["suite_pairs"] = suite_pairs
        out["rows_identical"] = (
            out["base"]["verify_paper"]["rows"] == out["head"]["verify_paper"]["rows"]
        )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="write BENCH_<n>.json")
    ap.add_argument("--commit", default="HEAD", help="commit to measure (default HEAD)")
    ap.add_argument("--base", help="also measure this commit, in alternating pairs")
    ap.add_argument("--seeds", type=int, default=3, help="seeds 1..SEEDS (default 3)")
    ap.add_argument("--tier1", action="store_true", help="also time the tier-1 pytest run")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be at least 1")
    seeds = list(range(1, args.seeds + 1))
    revs = {"head": args.commit, **({"base": args.base} if args.base else {})}
    commits = {side: resolve(rev) for side, rev in revs.items()}

    with tempfile.TemporaryDirectory(prefix="complen-record-") as tmp:
        sides = {}
        for side, commit in commits.items():
            (Path(tmp) / side).mkdir()
            sides[side] = (commit, export(commit, Path(tmp) / side))
        res = measure(sides, seeds, args.tier1)

    doc = {
        "n": args.n,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": seeds,
        **res.pop("head"),
        **res,
    }
    out = HERE / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
