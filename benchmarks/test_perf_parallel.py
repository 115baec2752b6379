"""Concurrent oracle calls: parity and wall-clock speedup.

Not a paper figure — this pins the engineering claim of the repo's one
mechanism for concurrent oracle calls: a blocking
:class:`~repro.oracle.remote.AsyncOracle` over a
:class:`~repro.oracle.remote.RemoteEndpoint` splits each batch over the
endpoint's in-flight slots, with estimates, CIs and call counts
bit-identical to calling the oracle directly, and for a latency-bound
oracle (the paper's regime: the predicate is a remote DNN /
human-labeling call the client waits on) it overlaps the waiting for a
near-linear wall-clock win even on one core (see
``scripts/bench_parallel.py`` for the full sweep).
"""

from __future__ import annotations

import time

from bench_results import write_json_result, write_result

from repro.core.abae import run_abae
from repro.engine.config import ExecutionConfig
from repro.oracle.remote import AsyncOracle, RemoteEndpoint
from repro.oracle.simulated import LatencyOracle
from repro.stats.rng import RandomState
from repro.synth import make_dataset

SIZE = 100_000
BUDGET = 10_000
PER_RECORD_SECONDS = 100e-6
REPEATS = 2
MAX_IN_FLIGHT = 4
MIN_SPEEDUP = 2.0


def _run(scenario, oracle):
    return run_abae(
        scenario.proxy,
        oracle,
        scenario.statistic_values,
        budget=BUDGET,
        rng=RandomState(1),
        config=ExecutionConfig(batch_size=None),
    )


def _best_time(scenario, labels, max_in_flight):
    """Best-of wall time; ``max_in_flight=None`` calls the oracle directly."""
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        transport = LatencyOracle(labels, per_record_seconds=PER_RECORD_SECONDS)
        oracle = transport
        if max_in_flight is not None:
            oracle = AsyncOracle(
                RemoteEndpoint(transport, max_in_flight=max_in_flight)
            )
        start = time.perf_counter()
        result = _run(scenario, oracle)
        best = min(best, time.perf_counter() - start)
        if max_in_flight is not None:
            oracle.endpoint.close()
        assert oracle.num_calls == transport.num_calls == BUDGET
    return best, result


def test_perf_parallel(results_dir):
    scenario = make_dataset("synthetic", seed=0, size=SIZE)
    labels = scenario.make_oracle().labels

    t_serial, r_serial = _best_time(scenario, labels, max_in_flight=None)
    t_endpoint, r_endpoint = _best_time(scenario, labels, max_in_flight=MAX_IN_FLIGHT)

    # Bit-identical results under the same seed: overlapping oracle calls
    # is purely an execution optimization.
    assert r_serial.estimate == r_endpoint.estimate
    assert r_serial.oracle_calls == r_endpoint.oracle_calls
    assert r_serial.details["stage2_counts"] == r_endpoint.details["stage2_counts"]
    assert [s.indices.tolist() for s in r_serial.samples] == [
        s.indices.tolist() for s in r_endpoint.samples
    ]

    speedup = t_serial / t_endpoint
    write_result(
        results_dir,
        "perf_parallel",
        "\n".join(
            [
                "concurrent oracle calls through a remote endpoint "
                f"(latency-bound oracle, {PER_RECORD_SECONDS * 1e6:.0f}us/record)",
                f"size={SIZE} budget={BUDGET} max_in_flight={MAX_IN_FLIGHT}",
                f"serial:   {t_serial * 1e3:10.1f}ms",
                f"endpoint: {t_endpoint * 1e3:10.1f}ms",
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
            "max_in_flight": MAX_IN_FLIGHT,
            "per_record_seconds": PER_RECORD_SECONDS,
            "repeats": REPEATS,
            "serial_seconds": t_serial,
            "endpoint_seconds": t_endpoint,
            "speedup": speedup,
            "estimate": r_endpoint.estimate,
            "oracle_calls": r_endpoint.oracle_calls,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"concurrent oracle calls regressed: {speedup:.2f}x < {MIN_SPEEDUP}x at "
        f"max_in_flight={MAX_IN_FLIGHT}"
    )
