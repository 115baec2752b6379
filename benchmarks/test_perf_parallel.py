"""Parallel execution engine: parity and wall-clock speedup.

Not a paper figure — this pins the engineering claim of the deterministic
worker-pool layer: estimates, CIs and call counts are bit-identical across
worker counts, and sharding a latency-bound oracle (the paper's regime:
the predicate is a remote DNN / human-labeling call the client waits on)
overlaps the waiting for a near-linear wall-clock win even on one core
(see ``scripts/bench_parallel.py`` for the full sweep).
"""

from __future__ import annotations

import time

from bench_results import write_json_result, write_result

from repro.core.abae import run_abae
from repro.engine.config import ExecutionConfig
from repro.oracle.simulated import LatencyOracle
from repro.stats.rng import RandomState
from repro.synth import make_dataset

SIZE = 100_000
BUDGET = 10_000
PER_RECORD_SECONDS = 100e-6
REPEATS = 2
WORKERS = 4
MIN_SPEEDUP = 2.0


def _run(scenario, oracle, num_workers):
    return run_abae(
        scenario.proxy,
        oracle,
        scenario.statistic_values,
        budget=BUDGET,
        rng=RandomState(1),
        config=ExecutionConfig(batch_size=None, num_workers=num_workers),
    )


def _best_time(scenario, labels, num_workers):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        oracle = LatencyOracle(labels, per_record_seconds=PER_RECORD_SECONDS)
        start = time.perf_counter()
        result = _run(scenario, oracle, num_workers)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_perf_parallel(results_dir):
    scenario = make_dataset("synthetic", seed=0, size=SIZE)
    labels = scenario.make_oracle().labels

    t_serial, r_serial = _best_time(scenario, labels, num_workers=1)
    t_sharded, r_sharded = _best_time(scenario, labels, num_workers=WORKERS)

    # Bit-identical results under the same seed: sharding is purely an
    # execution-engine optimization.
    assert r_serial.estimate == r_sharded.estimate
    assert r_serial.oracle_calls == r_sharded.oracle_calls
    assert r_serial.details["stage2_counts"] == r_sharded.details["stage2_counts"]
    assert [s.indices.tolist() for s in r_serial.samples] == [
        s.indices.tolist() for s in r_sharded.samples
    ]

    speedup = t_serial / t_sharded
    write_result(
        results_dir,
        "perf_parallel",
        "\n".join(
            [
                "parallel execution engine (latency-bound oracle, "
                f"{PER_RECORD_SECONDS * 1e6:.0f}us/record)",
                f"size={SIZE} budget={BUDGET} workers={WORKERS}",
                f"serial:  {t_serial * 1e3:10.1f}ms",
                f"sharded: {t_sharded * 1e3:10.1f}ms",
                f"speedup: {speedup:10.2f}x",
            ]
        ),
    )
    write_json_result(
        results_dir,
        "parallel",
        {
            "benchmark": "parallel",
            "dataset": "synthetic",
            "size": SIZE,
            "budget": BUDGET,
            "workers": WORKERS,
            "per_record_seconds": PER_RECORD_SECONDS,
            "repeats": REPEATS,
            "serial_seconds": t_serial,
            "sharded_seconds": t_sharded,
            "speedup": speedup,
            "estimate": r_sharded.estimate,
            "oracle_calls": r_sharded.oracle_calls,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"parallel engine regressed: {speedup:.2f}x < {MIN_SPEEDUP}x at "
        f"{WORKERS} workers"
    )
