"""Per-op cost probes and the assembly of the per-layer metrics.

A probe times public calls, with the tracer removed, on argument tuples the
tracer kept from the workload's own calls. A probe with no samples (a field
the workload does no arithmetic in, a layer it does not call) reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import tracing
from complen.linalg import Subspace

PROBE_FIELDS = {"Q": "Q", "GF9": "F3^2:1,0,1", "F7": "F7"}
MAX_SAMPLES = 256
ROUNDS = 5
ROUND_SECONDS = 0.02


def _thin(samples: list) -> list:
    step = max(1, len(samples) // MAX_SAMPLES)
    return samples[::step][:MAX_SAMPLES]


def seconds_per_call(call, args_list: list) -> float:
    """Median over rounds of the mean time of one call on the sample."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in args_list:
                call(*args)
        if time.perf_counter() - t0 >= ROUND_SECONDS:
            break
        reps *= 2
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(reps):
            for args in args_list:
                call(*args)
        rounds.append((time.perf_counter() - t0) / (reps * len(args_list)))
    return statistics.median(rounds)


def unit_of(name: str) -> str:
    stem = name.split(".")[1]  # "mul_ns" in "fields.mul_ns.Q"
    if stem.endswith("_per_s"):
        return "1/s"
    if stem.endswith("_calls") or stem in ("enumerated", "chain_levels"):
        return "count"
    if stem.endswith("_ratio"):
        return "ratio"
    return stem.rsplit("_", 1)[1]


def per_layer(tracer: tracing.Tracer, snap: dict) -> dict:
    """Every per-layer metric with its unit: trace aggregates plus probes."""
    values = tracing.layer_metrics(snap)

    by_field = defaultdict(list)
    for args in tracer.samples("fields.mul", snap):
        by_field[args[0].spec.format()].append(args)
    for label, spec in PROBE_FIELDS.items():
        ops = _thin(by_field.get(spec, []))
        values[f"fields.mul_ns.{label}"] = (
            1e9 * seconds_per_call(lambda f, x, y: f.mul(x, y), ops) if ops else 0.0
        )

    inserts = _thin(tracer.samples("linalg.insert", snap))
    values["linalg.insert_us"] = 1e6 * seconds_per_call(Subspace.insert, inserts) if inserts else 0.0
    products = _thin(tracer.samples("algebra.multiply", snap))
    values["algebra.multiply_us"] = (
        1e6 * seconds_per_call(lambda a, x, y: a.multiply(x, y), products) if products else 0.0
    )
    return {name: (value, unit_of(name)) for name, value in values.items()}
