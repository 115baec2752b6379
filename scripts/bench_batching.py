#!/usr/bin/env python
"""Microbenchmark: batched vs sequential oracle execution in ABae.

Runs the same fixed-seed query repeatedly through an :class:`repro.ABae`
facade (stratification built once, as a resident query server would) with
the execution engine in strictly-sequential mode (``batch_size=1``, the
pre-batching per-record oracle loop) and in whole-draw batch mode
(``batch_size=None``), and reports the wall-clock speedup per budget.

The two modes are verified to produce bit-identical estimates and oracle
call counts before any timing is reported — batching is purely an
execution-engine optimization.

Usage::

    PYTHONPATH=src python scripts/bench_batching.py [--size 100000] \
        [--budgets 10000,20000,50000] [--repeats 5]
"""

from __future__ import annotations

import argparse
import time

from repro.core.abae import ABae
from repro.engine.config import ExecutionConfig
from repro.stats.rng import RandomState
from repro.synth import make_dataset


def time_estimates(sampler: ABae, budget: int, seed: int, repeats: int):
    """Best-of-``repeats`` wall-clock for one fixed-seed estimate."""
    sampler.estimate(budget=budget, rng=RandomState(seed))  # warm-up
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = sampler.estimate(budget=budget, rng=RandomState(seed))
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=100_000, help="dataset size")
    parser.add_argument(
        "--budgets",
        type=lambda s: [int(b) for b in s.split(",")],
        default=[10_000, 20_000, 50_000],
        help="comma-separated oracle budgets",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dataset", default="synthetic")
    args = parser.parse_args()

    scenario = make_dataset(args.dataset, seed=0, size=args.size)
    sequential = ABae(
        scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
        config=ExecutionConfig(batch_size=1),
    )
    batched = ABae(
        scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
        config=ExecutionConfig(batch_size=None),
    )

    print(f"dataset={args.dataset} size={args.size} repeats={args.repeats}")
    print(f"{'budget':>8} {'sequential':>12} {'batched':>12} {'speedup':>9}  estimate")
    worst_speedup = float("inf")
    for budget in args.budgets:
        t_seq, r_seq = time_estimates(sequential, budget, args.seed, args.repeats)
        t_bat, r_bat = time_estimates(batched, budget, args.seed, args.repeats)
        if (r_seq.estimate, r_seq.oracle_calls) != (r_bat.estimate, r_bat.oracle_calls):
            raise AssertionError(
                f"batched and sequential results diverged at budget {budget}: "
                f"{r_seq.estimate} vs {r_bat.estimate}"
            )
        speedup = t_seq / t_bat
        worst_speedup = min(worst_speedup, speedup)
        print(
            f"{budget:>8} {t_seq * 1e3:>10.2f}ms {t_bat * 1e3:>10.2f}ms "
            f"{speedup:>8.2f}x  {r_bat.estimate:.6f}"
        )
    print(f"minimum speedup across budgets: {worst_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
