"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census-gf2 --seed 1 --seconds 24 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's own ``src/``, never from an installed copy. The run makes its
inputs from the seed, sets them up several times (``setup_s`` is the median),
then runs one full pass of the workload's jobs and repeats jobs until
``--seconds`` have passed since the pass began (see ``run_passes``). A job's
time is the median of its runs (see ``job_seconds``). While it sets up and
runs, ``hostclock`` samples the host's speed, and the gated times are
rescaled by it; the unscaled ones are printed as ``raw_*``. Every answer is
checked after the measured phase. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it give the run's metadata, the host-speed probe
and the named metrics of the workload (``metric <name> <value> <unit>``).

A traced run first runs one untraced reference pass, then installs the
wrappers from ``tracing.py``, sets up and runs again, removes the wrappers,
and counts the run correct only if both gave byte-identical answers and no
wrapper is left. Untraced runs never import ``tracing.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import hostclock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# each of import and input generation is timed at least this often and for
# at least this long; setup_s adds the two medians
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# --- metadata -----------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def module_lines() -> dict:
    return {
        p.name: sum(1 for _ in p.open(encoding="utf-8"))
        for p in sorted((SRC / "complen").glob("*.py"))
    }


def host_probe() -> dict:
    """A fixed pure-Python loop and a fixed numpy loop; seconds each.

    Not gated: it tells a host that ran slower from a program that did.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) % 1_000_003
    py = time.perf_counter() - t0
    m = np.arange(256 * 256, dtype=np.int64).reshape(256, 256) % 7
    t0 = time.perf_counter()
    for _ in range(10):
        m = (m @ m) % 7
    npy = time.perf_counter() - t0
    return {"python_s": py, "numpy_s": npy}


def repeated(measure) -> list:
    """Results of `measure()`: SETUP_REPEATS of them, or more until SETUP_SECONDS have passed."""
    out = []
    end = time.perf_counter() + SETUP_SECONDS
    while len(out) < SETUP_REPEATS or time.perf_counter() < end:
        out.append(measure())
    return out


def import_seconds() -> tuple:
    """(start, seconds) of a fresh interpreter importing the package."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import complen; print(time.perf_counter() - t)"
    )
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return t0, float(out.stdout.strip().splitlines()[-1])


# --- passes -------------------------------------------------------------------


class Row(NamedTuple):
    name: str
    part: str
    start: float
    seconds: float
    value: object


def run_job(job) -> Row:
    """Run one job; a job that raises is recorded, not propagated."""
    t0 = time.perf_counter()
    try:
        value = job.run()
    except Exception as e:  # a crashed job is a failed job, not a crashed run
        value = f"error: {type(e).__name__}: {e}"
    return Row(job.name, job.part, t0, time.perf_counter() - t0, value)


def run_pass(jobs) -> dict:
    t0 = time.perf_counter()
    rows = [run_job(job) for job in jobs]
    return {"wall": time.perf_counter() - t0, "rows": rows}


def run_passes(jobs, seconds: float, after_first=None) -> list:
    """One full pass, then single repeats until `seconds` after it began.

    Each repeat goes to the job whose next run narrows the spread of the
    workload's summed time most per second spent: the largest t / (n (n+1)),
    t being the job's fastest time so far and n its runs, among the jobs whose
    t fits in the time left. So the long jobs that dominate the sum get a
    second run before short ones get a tenth, and a job longer than the time
    left gets none. The first pass always runs whole. Returns the first pass
    and, if any, the pass of repeats.
    """
    deadline = time.perf_counter() + seconds
    first = run_pass(jobs)
    if after_first is not None:
        after_first()
    by_name = {job.name: job for job in jobs}
    best = {r.name: r.seconds for r in first["rows"]}
    runs = dict.fromkeys(best, 1)
    t0 = time.perf_counter()
    repeats = []
    while True:
        left = deadline - time.perf_counter()
        fits = [name for name, t in best.items() if t <= left]
        if not fits:
            break
        name = max(fits, key=lambda n: best[n] / (runs[n] * (runs[n] + 1)))
        row = run_job(by_name[name])
        repeats.append(row)
        runs[name] += 1
        best[name] = min(best[name], row.seconds)
    if not repeats:
        return [first]
    return [first, {"wall": time.perf_counter() - t0, "rows": repeats}]


def job_seconds(passes, part=None, scale=None) -> float:
    """Sum over the jobs (of one part, or all) of each job's median run.

    Every job counts once, whether it ran once or many times. The median,
    not the fastest run: the fastest of a 10 ms job's many runs is a rare
    quiet moment of the host, so the sum of fastest runs spread more between
    runs of the benchmark than the sum of medians. `scale(start, seconds)`,
    if given, maps each run's time first (see ``hostclock``).
    """
    times = {}
    for p in passes:
        for r in p["rows"]:
            if part in (None, r.part):
                t = r.seconds if scale is None else scale(r.start, r.seconds)
                times.setdefault(r.name, []).append(t)
    return sum(statistics.median(v) for v in times.values())


def answers(p: dict) -> dict:
    return {r.name: r.value for r in p["rows"]}


def grade(workload, inputs, passes) -> tuple:
    """(attempted, failed, reasons): every job of every pass is graded."""
    first = answers(passes[0])
    reasons = {}
    if not any(isinstance(v, str) and v.startswith("error:") for v in first.values()):
        reasons.update(workload.check(inputs, first))
    for name, value in first.items():
        if isinstance(value, str) and value.startswith("error:"):
            reasons[name] = value
    failed = 0
    for p in passes:
        for r in p["rows"]:
            if r.name in reasons or repr(r.value) != repr(first[r.name]):
                failed += 1
    attempted = sum(len(p["rows"]) for p in passes)
    return attempted, failed, reasons


def input_digest(inputs) -> str:
    """The inputs as text: algebras by their canonical dump and certificates."""
    from complen import AlgebraTable, dump_algebra

    def walk(x):
        if isinstance(x, AlgebraTable):
            return dump_algebra(x) + repr(sorted(x.certificates))
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        return repr(x)

    return repr(walk(inputs))


# --- summaries ------------------------------------------------------------------


def named_metrics(workload, inputs, passes, scale) -> list:
    """The workload's own metrics, by the names users know them under."""
    wall = job_seconds(passes, scale=scale)
    part = {k: job_seconds(passes, k, scale) for k in ("a", "b")}
    out = []
    if workload.name.startswith("census"):
        covered = workload.covered(inputs)
        out.append(("subspaces_per_s", sum(covered.values()) / wall, "1/s"))
        for k in ("a", "b"):
            out.append((f"subspaces_per_s.{workload.parts[k]}", covered[k] / part[k], "1/s"))
    elif workload.name == "spans-Q":
        n = len(inputs["sets"])
        out.append(("general_sets_per_s", n / part["a"], "1/s"))
        out.append(("descending_sets_per_s", n / part["b"], "1/s"))
        runs = {}
        for p in passes:
            for r in p["rows"]:
                runs.setdefault(r.name, []).append(scale(r.start, r.seconds))
        lat = [statistics.median(v) for v in runs.values()]
        out.append(("set_p50_ms", 1e3 * statistics.median(lat), "ms"))
        out.append(("set_p90_ms", 1e3 * statistics.quantiles(lat, n=10)[8], "ms"))
        out.append(("set_calls", len(lat), "count"))
    elif workload.name == "certify":
        out.append(("prove_s", part["a"], "s"))
        out.append(("refute_s", part["b"], "s"))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- the two kinds of run -------------------------------------------------------


def untraced(workload, seed, seconds, meta) -> tuple:
    inputs = None

    def build() -> tuple:
        nonlocal inputs
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        return t0, time.perf_counter() - t0

    # the clock also samples while a child interpreter imports the package
    clock = hostclock.HostClock()
    clock.start()
    try:
        imports = repeated(import_seconds)
        builds = repeated(build)
        # repeats pick jobs by timing, so the peak is taken before they start
        rss = []
        passes = run_passes(workload.jobs(inputs), seconds,
                            after_first=lambda: rss.append(peak_rss_mb()))
    finally:
        clock.stop()
    attempted, failed, reasons = grade(workload, inputs, passes)
    # only tracing.py makes wrappers, so an untraced run must never load it
    if "tracing" in sys.modules:
        reasons["untraced"] = "the tracer was imported"
    scale = clock.rescale
    metrics = {
        "setup_s": (
            statistics.median(scale(t0, t) for t0, t in imports)
            + statistics.median(scale(t0, t) for t0, t in builds),
            "s",
        ),
        "wall_s": (job_seconds(passes, scale=scale), "s"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    meta.update(
        passes=len(passes),
        runs=sum(len(p["rows"]) for p in passes),
        pass_walls=[p["wall"] for p in passes],
        import_s=imports,
        build_s=builds,
        clock=clock.summary(),
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"jobs-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump([[r[:4] + (scale(r.start, r.seconds),) for r in p["rows"]] for p in passes], fh)
    named = [(k, v, u) for k, (v, u) in metrics.items()]
    named.append(("raw_setup_s", statistics.median(t for _, t in imports)
                  + statistics.median(t for _, t in builds), "s"))
    named.append(("raw_wall_s", job_seconds(passes), "s"))
    named += named_metrics(workload, inputs, passes, scale)
    named.append(("fail_ratio", failed / attempted, "ratio"))
    return attempted, failed, reasons, metrics, named


def traced(workload, seed, seconds, meta) -> tuple:
    import tracing
    import probes

    inputs_ref = workload.setup(seed)
    ref = run_pass(workload.jobs(inputs_ref))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = workload.setup(seed)
        snap = {}
        passes = run_passes(workload.jobs(inputs), seconds,
                            after_first=lambda: snap.update(tracer.snapshot()))
    finally:
        tracer.uninstall()
    leftovers = tracer.leftovers()

    attempted, failed, reasons = grade(workload, inputs, passes)
    ref_attempted, ref_failed, ref_reasons = grade(workload, inputs_ref, [ref])
    attempted += ref_attempted
    failed += ref_failed
    reasons.update({f"reference {k}": v for k, v in ref_reasons.items()})
    reference = answers(ref)
    differ = [n for n, v in answers(passes[0]).items() if repr(v) != repr(reference[n])]
    if differ:
        failed += len(differ)
        reasons["trace"] = f"traced answers differ from untraced answers: {differ[:5]}"
    if input_digest(inputs_ref) != input_digest(inputs):
        reasons["trace-inputs"] = "traced set-up built different inputs"
    if leftovers:
        reasons["trace-removal"] = f"not restored: {leftovers[:5]}"

    metrics = probes.per_layer(tracer, snap)
    # both sides are the first pass after a set-up, so they pay the same warm-up
    traced_wall = job_seconds(passes[:1])
    metrics["trace.overhead_s"] = (traced_wall - job_seconds([ref]), "s")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "columns": ["id", "name", "start", "end", "parent"],
                "spans": tracer.spans[: snap["spans"]],
                "self_s": snap["self_s"],
                "calls": dict(snap["calls"]),
            },
            fh,
        )
    meta.update(passes=len(passes), reference_wall_s=job_seconds([ref]), traced_wall_s=traced_wall)
    named = [(k, v, u) for k, (v, u) in metrics.items()]
    return attempted, failed, reasons, metrics, named


def main(argv=None) -> int:
    # str hashes are salted per process, so set iteration order, and with it
    # the heap's peak, changed between runs of one seed (certify: 39.1 to
    # 41.3 MB, against 39.7 to 39.9 MB with one salt); so the run restarts
    # itself once with a fixed salt
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "complen" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'complen'}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "module_lines": module_lines(),
        "parts": workload.parts,
        "host_before": host_probe(),
    }
    run = traced if args.trace else untraced
    attempted, failed, reasons, metrics, named = run(workload, args.seed, args.seconds, meta)
    meta["host_after"] = host_probe()

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, reason in sorted(reasons.items()):
        print(f"wrong {name}: {reason}")
    for name, value, unit in named:
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not reasons and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
