#!/usr/bin/env python
"""Microbenchmark: sharded (multi-worker) vs serial oracle execution in ABae.

The oracle in the paper's deployments is a remote, expensive call — DNN
inference on a GPU service, a human-labeling API — so the client spends its
time *waiting*, which is exactly what worker threads can overlap even on a
single CPU core.  This benchmark models that with
:class:`repro.oracle.simulated.LatencyOracle` (a deterministic label lookup
behind a GIL-releasing per-record service delay) over the 100k synthetic
dataset, and measures the same fixed-seed ABae query at increasing
``num_workers``.

Determinism is verified in two passes before any timing is reported:

1. a zero-latency verification grid asserts that every worker count yields
   bit-identical estimates, CIs, samples and oracle call counts;
2. the timed runs' results are asserted identical again afterwards.

Usage::

    PYTHONPATH=src python scripts/bench_parallel.py [--size 100000] \
        [--budget 20000] [--workers 1,2,4] [--per-record-us 100] \
        [--repeats 2] [--min-speedup 2.5]

``--min-speedup`` makes the script exit non-zero if the largest worker
count fails to reach the given speedup over serial execution — the
regression guard for the parallel engine.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.abae import run_abae
from repro.engine.config import ExecutionConfig
from repro.oracle.simulated import LatencyOracle
from repro.stats.rng import RandomState
from repro.synth import make_dataset


def fingerprint(result) -> str:
    return repr(
        (
            result.estimate,
            None if result.ci is None else (result.ci.lower, result.ci.upper),
            result.oracle_calls,
            [tuple(s.indices.tolist()) for s in result.samples],
        )
    )


def run_once(scenario, oracle, budget, seed, num_workers):
    return run_abae(
        scenario.proxy,
        oracle,
        scenario.statistic_values,
        budget=budget,
        with_ci=True,
        num_bootstrap=100,
        rng=RandomState(seed),
        config=ExecutionConfig(batch_size=None, num_workers=num_workers),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=100_000, help="dataset size")
    parser.add_argument("--budget", type=int, default=20_000, help="oracle budget")
    parser.add_argument(
        "--workers",
        type=lambda s: [int(w) for w in s.split(",")],
        default=[1, 2, 4],
        help="comma-separated worker counts (first should be 1 = serial)",
    )
    parser.add_argument(
        "--per-record-us",
        type=float,
        default=100.0,
        help="simulated oracle service time per record, microseconds",
    )
    parser.add_argument(
        "--per-batch-ms",
        type=float,
        default=0.5,
        help="simulated per-request dispatch overhead, milliseconds",
    )
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dataset", default="synthetic")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.5,
        help="fail unless the largest worker count reaches this speedup",
    )
    args = parser.parse_args()

    scenario = make_dataset(args.dataset, seed=0, size=args.size)
    labels = scenario.make_oracle().labels

    # ---- Pass 1: determinism grid with a zero-latency oracle -----------------
    print("verifying bit-identical results across worker counts ...")
    reference = None
    for workers in args.workers:
        oracle = LatencyOracle(labels, name="verify")
        digest = fingerprint(
            run_once(scenario, oracle, args.budget, args.seed, workers)
        )
        if reference is None:
            reference = digest
        elif digest != reference:
            raise AssertionError(
                f"results diverged at num_workers={workers}; the parallel "
                "engine broke the determinism contract"
            )
        assert oracle.num_calls == args.budget, oracle.num_calls
    print(f"ok: {len(args.workers)} worker counts, identical results\n")

    # ---- Pass 2: timed runs with simulated oracle latency --------------------
    per_record = args.per_record_us * 1e-6
    per_batch = args.per_batch_ms * 1e-3
    print(
        f"dataset={args.dataset} size={args.size} budget={args.budget} "
        f"latency={args.per_record_us:.0f}us/record+{args.per_batch_ms:.1f}ms/request "
        f"repeats={args.repeats}"
    )
    print(f"{'workers':>8} {'wall-clock':>12} {'speedup':>9}  estimate")

    timings = {}
    digests = set()
    serial_time = None
    for workers in args.workers:
        best = float("inf")
        result = None
        for _ in range(args.repeats):
            oracle = LatencyOracle(
                labels,
                per_record_seconds=per_record,
                per_batch_seconds=per_batch,
                name="bench",
            )
            start = time.perf_counter()
            result = run_once(scenario, oracle, args.budget, args.seed, workers)
            best = min(best, time.perf_counter() - start)
        digests.add(fingerprint(result))
        timings[workers] = best
        if serial_time is None:
            serial_time = best
        speedup = serial_time / best
        print(
            f"{workers:>8} {best * 1e3:>10.1f}ms {speedup:>8.2f}x  "
            f"{result.estimate:.6f}"
        )

    if len(digests) != 1:
        raise AssertionError("timed runs diverged across worker counts")

    top = args.workers[-1]
    speedup = serial_time / timings[top]
    print(f"\nspeedup at {top} workers: {speedup:.2f}x (floor {args.min_speedup}x)")
    if speedup < args.min_speedup:
        print("FAIL: below the speedup floor", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
