#!/usr/bin/env python
"""Microbenchmark: the columnar hot path vs the pre-columnar baseline.

Models the figure-grid workload — repeated fixed-seed ABae runs over a
(budget x seed) sweep on the celeba-synth dataset — in two configurations:

* **legacy**: the pre-PR hot path, reconstructed faithfully — per-record
  ``LegacyCallRecord`` list appends in ``_record`` (the reference
  implementation shipped before the columnar rewrite) and the
  stratification rebuilt from scratch every run (plan-level caches
  bypassed via ``stratification_cache_disabled``);
* **columnar**: the shipped path — array-backed accounting buffers and the
  process-wide proxy/stratification cache.

Every cell's estimate, CI, oracle call count, total cost and *call log*
are asserted element-wise identical across the two configurations before
any timing is reported: the entire speedup is execution-engine mechanics,
never a change in results.

Usage::

    PYTHONPATH=src python scripts/bench_hotpath.py [--size 100000] \
        [--budget 50000] [--seeds 1,2,3] [--num-strata 5] [--repeats 3] \
        [--min-speedup 3.0] [--json benchmarks/results/BENCH_hotpath.json]

``--min-speedup`` makes the script exit non-zero when the columnar path
fails to reach the given end-to-end speedup — the regression guard CI
enforces.  ``--json`` writes the machine-readable run table that tracks
the perf trajectory across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# The equivalence fingerprints live in the test harness; make them
# importable when the script runs standalone.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from harness import (  # noqa: E402
    LegacyRecordListMixin,
    estimate_fingerprint,
    oracle_accounting_fingerprint,
)

from repro.core.abae import run_abae  # noqa: E402
from repro.core.stratification import (  # noqa: E402
    clear_stratification_cache,
    stratification_cache_disabled,
)
from repro.oracle.simulated import LabelColumnOracle  # noqa: E402
from repro.stats.rng import RandomState  # noqa: E402
from repro.synth import make_dataset  # noqa: E402


class LegacyLogOracle(LegacyRecordListMixin, LabelColumnOracle):
    """Label oracle with the pre-columnar per-record list accounting.

    The reference ``_record`` (one copy, shared with the parity tests)
    lives in :class:`harness.LegacyRecordListMixin`, so the legacy arm
    pays the historical O(n) object churn per batch that the columnar
    buffers removed.
    """


def cell_fingerprint(result, oracle) -> str:
    """Everything the determinism contract covers, in one digest."""
    return repr(
        (estimate_fingerprint(result), oracle_accounting_fingerprint(oracle))
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=100_000, help="dataset size")
    parser.add_argument("--budget", type=int, default=50_000, help="oracle budget")
    parser.add_argument(
        "--seeds",
        type=lambda s: [int(x) for x in s.split(",")],
        default=[1, 2, 3],
        help="comma-separated per-cell seeds (the sweep's trial axis)",
    )
    parser.add_argument("--num-strata", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument("--dataset", default="celeba")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail unless the columnar path reaches this end-to-end speedup",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the machine-readable run table to this path",
    )
    args = parser.parse_args()

    scenario = make_dataset(args.dataset, seed=0, size=args.size)

    def run_cell(oracle_cls, seed, use_cache):
        oracle = oracle_cls(scenario.labels, keep_log=True)
        if use_cache:
            result = run_abae(
                scenario.proxy,
                oracle,
                scenario.statistic_values,
                budget=args.budget,
                num_strata=args.num_strata,
                rng=RandomState(seed),
            )
        else:
            with stratification_cache_disabled():
                result = run_abae(
                    scenario.proxy,
                    oracle,
                    scenario.statistic_values,
                    budget=args.budget,
                    num_strata=args.num_strata,
                    rng=RandomState(seed),
                )
        return result, oracle

    # ---- Pass 1: bit-identical results and accounting, cell by cell ----------
    print(
        f"verifying bit-identical results + call logs across "
        f"{len(args.seeds)} seeds ..."
    )
    clear_stratification_cache()
    sample_result = None
    for seed in args.seeds:
        legacy_digest = cell_fingerprint(*run_cell(LegacyLogOracle, seed, False))
        result, oracle = run_cell(LabelColumnOracle, seed, True)
        columnar_digest = cell_fingerprint(result, oracle)
        if legacy_digest != columnar_digest:
            raise AssertionError(
                f"columnar hot path diverged from the legacy path at seed "
                f"{seed}; estimates / accounting are no longer bit-identical"
            )
        sample_result = result
    print(f"ok: {len(args.seeds)} cells, identical estimates, CIs and call logs\n")

    # ---- Pass 2: timed sweeps -------------------------------------------------
    def time_arm(legacy: bool) -> float:
        best = float("inf")
        for _ in range(args.repeats):
            if not legacy:
                # The cached arm is measured from a cold cache: the first
                # cell pays the one-time sort, the rest of the sweep reuses
                # it — exactly the figure-grid access pattern.
                clear_stratification_cache()
            start = time.perf_counter()
            for seed in args.seeds:
                if legacy:
                    run_cell(LegacyLogOracle, seed, False)
                else:
                    run_cell(LabelColumnOracle, seed, True)
            best = min(best, time.perf_counter() - start)
        return best

    t_columnar = time_arm(legacy=False)
    t_legacy = time_arm(legacy=True)
    speedup = t_legacy / t_columnar

    cells = len(args.seeds)
    print(
        f"dataset={args.dataset} size={args.size} budget={args.budget} "
        f"K={args.num_strata} cells={cells} repeats={args.repeats}"
    )
    print(f"{'path':>10} {'sweep wall-clock':>18} {'per cell':>12}")
    print(f"{'legacy':>10} {t_legacy * 1e3:>16.1f}ms {t_legacy / cells * 1e3:>10.2f}ms")
    print(
        f"{'columnar':>10} {t_columnar * 1e3:>16.1f}ms "
        f"{t_columnar / cells * 1e3:>10.2f}ms"
    )
    print(f"\nend-to-end speedup: {speedup:.2f}x (floor {args.min_speedup}x)")

    if args.json is not None:
        payload = {
            "schema": 1,
            "benchmark": "hotpath",
            "dataset": args.dataset,
            "size": args.size,
            "budget": args.budget,
            "num_strata": args.num_strata,
            "seeds": list(args.seeds),
            "repeats": args.repeats,
            "cells": cells,
            "legacy_seconds": t_legacy,
            "columnar_seconds": t_columnar,
            "speedup": speedup,
            "min_speedup": args.min_speedup,
            "parity": {"cells": cells, "identical": True},
            "estimate": sample_result.estimate,
            "oracle_calls": sample_result.oracle_calls,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[written to {args.json}]")

    if speedup < args.min_speedup:
        print("FAIL: below the speedup floor", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
