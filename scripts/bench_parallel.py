#!/usr/bin/env python
"""Microbenchmark: serial vs endpoint-concurrent oracle execution in ABae.

The oracle in the paper's deployments is a remote, expensive call — DNN
inference on a GPU service, a human-labeling API — so the client spends its
time *waiting*, which is exactly what concurrent in-flight requests can
overlap even on a single CPU core.  This benchmark models that with
:class:`repro.oracle.simulated.LatencyOracle` (a deterministic label lookup
behind a GIL-releasing per-request and per-record service delay) over the
100k synthetic dataset, and measures the same fixed-seed ABae query with
the plain oracle (serial) and through the repo's one mechanism for
concurrent oracle calls: a blocking
:class:`~repro.oracle.remote.AsyncOracle` over a
:class:`~repro.oracle.remote.RemoteEndpoint` with the latency oracle as
its transport, at increasing ``max_in_flight``.  The adapter splits every
batch into ``min(max_in_flight, n)`` contiguous sub-requests that the
endpoint runs on that many threads.

Determinism is verified in two passes before any timing is reported:

1. a zero-latency verification grid asserts that the plain oracle and every
   ``max_in_flight`` yield bit-identical estimates, CIs, samples and
   oracle call counts (on the adapter and on its transport);
2. the timed runs' results are asserted identical again afterwards.

Usage::

    PYTHONPATH=src python scripts/bench_parallel.py [--size 100000] \
        [--budget 20000] [--max-in-flight 1,2,4] [--per-record-us 100] \
        [--per-batch-ms 0.5] [--repeats 2] [--min-speedup 2.5]

``--min-speedup`` makes the script exit non-zero if the largest
``max_in_flight`` fails to reach the given speedup over serial execution —
the regression guard for concurrent oracle calls.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.abae import run_abae
from repro.engine.config import ExecutionConfig
from repro.oracle.remote import AsyncOracle, RemoteEndpoint
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


def run_arm(scenario, transport, budget, seed, max_in_flight):
    """One ABae run; ``max_in_flight=None`` calls the transport directly.

    Returns ``(result, charged)``: the run's result and the calls the
    oracle the sampler drove was charged.
    """
    endpoint = None
    oracle = transport
    if max_in_flight is not None:
        endpoint = RemoteEndpoint(transport, max_in_flight=max_in_flight)
        oracle = AsyncOracle(endpoint)
    try:
        result = run_abae(
            scenario.proxy,
            oracle,
            scenario.statistic_values,
            budget=budget,
            with_ci=True,
            num_bootstrap=100,
            rng=RandomState(seed),
            config=ExecutionConfig(batch_size=None),
        )
    finally:
        if endpoint is not None:
            endpoint.close()
    return result, oracle.num_calls


def arm_name(max_in_flight) -> str:
    return "serial" if max_in_flight is None else f"in-flight {max_in_flight}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=100_000, help="dataset size")
    parser.add_argument("--budget", type=int, default=20_000, help="oracle budget")
    parser.add_argument(
        "--max-in-flight",
        type=lambda s: [int(w) for w in s.split(",")],
        default=[1, 2, 4],
        help="comma-separated endpoint max_in_flight values (the floor "
        "applies to the last)",
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
        help="fail unless the largest max_in_flight reaches this speedup",
    )
    args = parser.parse_args()

    scenario = make_dataset(args.dataset, seed=0, size=args.size)
    labels = scenario.make_oracle().labels
    arms = [None] + args.max_in_flight

    # ---- Pass 1: determinism grid with a zero-latency oracle -----------------
    print("verifying bit-identical results: serial vs every max_in_flight ...")
    reference = None
    for max_in_flight in arms:
        transport = LatencyOracle(labels, name="verify")
        result, charged = run_arm(
            scenario, transport, args.budget, args.seed, max_in_flight
        )
        digest = fingerprint(result)
        if reference is None:
            reference = digest
        elif digest != reference:
            raise AssertionError(
                f"results diverged at {arm_name(max_in_flight)}; concurrent "
                "oracle calls broke the determinism contract"
            )
        if not charged == transport.num_calls == args.budget:
            raise AssertionError(
                f"{arm_name(max_in_flight)}: adapter charged {charged}, "
                f"transport evaluated {transport.num_calls}, budget "
                f"{args.budget}"
            )
    print(f"ok: {len(arms)} arms, identical results and call counts\n")

    # ---- Pass 2: timed runs with simulated oracle latency --------------------
    per_record = args.per_record_us * 1e-6
    per_batch = args.per_batch_ms * 1e-3
    print(
        f"dataset={args.dataset} size={args.size} budget={args.budget} "
        f"latency={args.per_record_us:.0f}us/record+{args.per_batch_ms:.1f}ms/request "
        f"repeats={args.repeats}"
    )
    print(f"{'arm':>12} {'wall-clock':>12} {'speedup':>9}  estimate")

    timings = {}
    digests = set()
    for max_in_flight in arms:
        best = float("inf")
        result = None
        for _ in range(args.repeats):
            transport = LatencyOracle(
                labels,
                per_record_seconds=per_record,
                per_batch_seconds=per_batch,
                name="bench",
            )
            start = time.perf_counter()
            result, _ = run_arm(
                scenario, transport, args.budget, args.seed, max_in_flight
            )
            best = min(best, time.perf_counter() - start)
        digests.add(fingerprint(result))
        timings[max_in_flight] = best
        speedup = timings[None] / best
        print(
            f"{arm_name(max_in_flight):>12} {best * 1e3:>10.1f}ms {speedup:>8.2f}x  "
            f"{result.estimate:.6f}"
        )

    if len(digests) != 1:
        raise AssertionError("timed runs diverged across arms")

    top = arms[-1]
    speedup = timings[None] / timings[top]
    print(
        f"\nspeedup at {arm_name(top)}: {speedup:.2f}x (floor {args.min_speedup}x)"
    )
    if speedup < args.min_speedup:
        print("FAIL: below the speedup floor", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
