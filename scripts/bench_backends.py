#!/usr/bin/env python
"""Dataset-backend benchmark: cross-backend parity + out-of-core RSS envelope.

Two phases, both gating:

1. **Parity** — on a small scenario, every sampler cell of a
   (seed x batch_size) grid is executed three times — once
   per backend (in-memory, mmap, chunked) — and the full fingerprints
   (estimate, CI, drawn indices, matches, values, oracle accounting) are
   asserted bit-identical across backends before any memory numbers are
   reported: backends are storage, never semantics.

2. **RSS envelope** — a large dataset (default 1M records plus wide
   payload columns) is ingested shard-wise to an on-disk column
   directory, and a fresh subprocess per backend opens it, runs an ABae
   query end-to-end, and reports its peak RSS.  The check: the worker's
   peak RSS delta (over its post-import baseline) stays under
   ``--max-rss-fraction`` of the dataset's *dense* in-memory size.  An
   optional dense arm materializes every column first, demonstrating the
   footprint the out-of-core backends avoid.

Usage::

    PYTHONPATH=src python scripts/bench_backends.py \
        [--size 1000000] [--payload-columns 12] [--budget 20000] \
        [--data-dir /tmp/bench-backends] [--max-rss-fraction 0.35] \
        [--skip-dense] [--json benchmarks/results/BENCH_backends.json]

Exits non-zero on any parity mismatch or a violated RSS envelope — the
regression guard tier-2 CI enforces.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tests"))

from harness import estimate_fingerprint, oracle_accounting_fingerprint  # noqa: E402

from repro.core.abae import run_abae  # noqa: E402
from repro.data import ChunkedBackend, MmapBackend, read_manifest  # noqa: E402
from repro.data.ingest import ingest_scenario  # noqa: E402
from repro.oracle.simulated import LabelColumnOracle  # noqa: E402
from repro.proxy.base import BackedProxy  # noqa: E402
from repro.stats.rng import RandomState  # noqa: E402
from repro.synth import make_dataset, to_backend  # noqa: E402

PARITY_SEEDS = (0, 1)
PARITY_BATCH_SIZES = (1, 7, None)


def _rss_kb() -> int:
    """Peak RSS of this process so far, in KiB (Linux ru_maxrss units)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _dense_nbytes(directory: Path) -> int:
    import numpy as np

    manifest = read_manifest(directory)
    return sum(
        manifest["num_records"] * np.dtype(spec["dtype"]).itemsize
        for spec in manifest["columns"].values()
    )


# ---------------------------------------------------------------------------
# Phase 1: cross-backend parity over the equivalence grid
# ---------------------------------------------------------------------------


def run_parity(data_dir: Path, size: int, budget: int) -> dict:
    """Assert bit-identical sampler fingerprints across the three backends."""
    from repro.engine import ExecutionConfig

    scenario = make_dataset("celeba", seed=0, size=size)
    backends = {
        "memory": to_backend(scenario, kind="memory"),
        "mmap": to_backend(scenario, kind="mmap", path=data_dir / "parity"),
        "chunked": to_backend(
            scenario,
            kind="chunked",
            path=data_dir / "parity",
            chunk_size=4096,
            max_resident_chunks=4,
        ),
    }
    cells = 0
    for seed, batch_size in itertools.product(PARITY_SEEDS, PARITY_BATCH_SIZES):
        config = ExecutionConfig(batch_size=batch_size)
        digests = {}
        for kind, backend in backends.items():
            oracle = LabelColumnOracle(backend.column("label"), keep_log=True)
            result = run_abae(
                BackedProxy(backend, "proxy_score"),
                oracle,
                backend.column("statistic"),
                budget=budget,
                with_ci=True,
                rng=RandomState(seed),
                config=config,
            )
            digests[kind] = estimate_fingerprint(
                result
            ) + oracle_accounting_fingerprint(oracle)
        if len(set(digests.values())) != 1:
            raise AssertionError(
                f"backend fingerprints diverged at cell (seed={seed}, "
                f"batch_size={batch_size}); "
                "out-of-core storage changed sampler results"
            )
        cells += 1
    return {"cells": cells, "identical": True, "size": size, "budget": budget}


# ---------------------------------------------------------------------------
# Phase 2: RSS envelope (worker subprocess per backend)
# ---------------------------------------------------------------------------


def _worker(kind: str, directory: Path, budget: int, chunk_size: int) -> None:
    """Open the backend, run one ABae query, print an RSS report as JSON."""
    # Baseline before any data is touched: the delta attributes both the
    # query's working set and (for the dense arm) materialization itself.
    baseline_kb = _rss_kb()
    if kind == "mmap":
        backend = MmapBackend(directory)
    elif kind == "chunked":
        backend = ChunkedBackend(
            directory, chunk_size=chunk_size, max_resident_chunks=16
        )
    else:  # dense: materialize every column up front (the footprint arm)
        from repro.data import InMemoryBackend
        from repro.data.backend import ArrayColumnHandle

        # Read column-by-column straight from disk (np.fromfile, no page
        # cache double count) and free each read buffer once the handle
        # has its copy, so the arm's peak is the honest dense footprint
        # (all columns resident) plus at most one column of transient.
        source = ChunkedBackend(directory, chunk_size=chunk_size)
        dense = {}
        for c in source.column_names():
            dense[c] = ArrayColumnHandle(c, source.column(c).to_numpy())
        backend = InMemoryBackend(dense, name=source.name)
    # Wide-column statistic when the payload exists, else the base column:
    # the gather path is what out-of-core execution must keep cheap.
    statistic_col = (
        "payload_0" if "payload_0" in backend.column_names() else "statistic"
    )
    start = time.perf_counter()
    oracle = LabelColumnOracle(backend.column("label"))
    # num_bootstrap is kept small because the bootstrap's resampling
    # matrices scale with (num_bootstrap x sample size) — scratch that is
    # proportional to the *sample*, not the dataset, and therefore
    # orthogonal to the storage-residency claim this benchmark pins.
    result = run_abae(
        BackedProxy(backend, "proxy_score"),
        oracle,
        backend.column(statistic_col),
        budget=budget,
        with_ci=True,
        num_bootstrap=100,
        rng=RandomState(0),
    )
    elapsed = time.perf_counter() - start
    peak_kb = _rss_kb()
    print(
        json.dumps(
            {
                "kind": kind,
                "baseline_kb": baseline_kb,
                "peak_kb": peak_kb,
                "delta_kb": peak_kb - baseline_kb,
                "estimate": result.estimate,
                "oracle_calls": result.oracle_calls,
                "seconds": elapsed,
                "statistic_column": statistic_col,
            }
        )
    )


def run_rss_arm(kind: str, directory: Path, budget: int, chunk_size: int) -> dict:
    """Run one backend arm in a fresh subprocess and parse its report."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--worker", kind,
            "--data-dir", str(directory),
            "--budget", str(budget),
            "--chunk-size", str(chunk_size),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{kind} worker failed:\n{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=1_000_000)
    parser.add_argument("--payload-columns", type=int, default=24)
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--parity-size", type=int, default=20_000)
    parser.add_argument("--parity-budget", type=int, default=2_000)
    parser.add_argument("--dataset", default="night-street")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=Path("/tmp/bench-backends"),
        help="scratch directory for the ingested dataset (reused if valid)",
    )
    parser.add_argument("--chunk-size", type=int, default=65_536)
    parser.add_argument(
        "--max-rss-fraction",
        type=float,
        default=0.35,
        help="fail if an out-of-core arm's RSS delta exceeds this fraction "
        "of the dataset's dense size",
    )
    parser.add_argument("--skip-parity", action="store_true")
    parser.add_argument("--skip-dense", action="store_true")
    parser.add_argument("--json", type=Path, default=None)
    # Internal: run a single measured arm inside a fresh process.
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker is not None:
        _worker(args.worker, args.data_dir, args.budget, args.chunk_size)
        return 0

    args.data_dir.mkdir(parents=True, exist_ok=True)

    # ---- Phase 1: parity ------------------------------------------------------
    parity = None
    if not args.skip_parity:
        print(
            f"verifying cross-backend fingerprints "
            f"({len(PARITY_SEEDS) * len(PARITY_BATCH_SIZES)}"
            f" cells x 3 backends) ..."
        )
        parity = run_parity(args.data_dir, args.parity_size, args.parity_budget)
        print(f"ok: {parity['cells']} cells, bit-identical across backends\n")

    # ---- Phase 2: ingest (reused when already on disk) ------------------------
    dataset_dir = args.data_dir / "large"
    reuse = False
    try:
        manifest = read_manifest(dataset_dir)
        reuse = (
            manifest["num_records"] == args.size
            and sum(1 for c in manifest["columns"] if c.startswith("payload_"))
            == args.payload_columns
        )
    except (FileNotFoundError, ValueError):
        pass
    if not reuse:
        print(
            f"ingesting {args.dataset} x {args.size:,} records "
            f"(+{args.payload_columns} payload columns) ..."
        )
        start = time.perf_counter()
        ingest_scenario(
            args.dataset,
            dataset_dir,
            size=args.size,
            seed=args.seed,
            payload_columns=args.payload_columns,
            overwrite=True,
        )
        print(f"ingested in {time.perf_counter() - start:.1f}s")
    else:
        print(f"reusing ingested dataset at {dataset_dir}")
    dense_bytes = _dense_nbytes(dataset_dir)
    print(f"dense in-memory size: {dense_bytes / 1e6:.1f} MB\n")

    # ---- Phase 3: measured arms ----------------------------------------------
    arms = ["mmap", "chunked"] + ([] if args.skip_dense else ["dense"])
    reports = {}
    print(f"{'arm':>8} {'peak RSS':>10} {'RSS delta':>12} {'vs dense':>9} {'wall':>8}")
    for kind in arms:
        report = run_rss_arm(kind, dataset_dir, args.budget, args.chunk_size)
        reports[kind] = report
        fraction = report["delta_kb"] * 1024 / dense_bytes
        print(
            f"{kind:>8} {report['peak_kb'] / 1024:>8.1f}MB "
            f"{report['delta_kb'] / 1024:>10.1f}MB "
            f"{fraction * 100:>8.1f}% {report['seconds']:>7.2f}s"
        )
    print(
        "(delta = peak over the worker's own post-import baseline; a zero "
        "delta means the query fit inside the interpreter's import footprint)"
    )

    # Every arm ran the same seeded query over the same bytes, so the
    # estimates must agree exactly — a cheap end-to-end cross-check of
    # backend parity at full scale.
    estimates = {reports[kind]["estimate"] for kind in arms}
    if len(estimates) != 1:
        print(f"FAIL: arms disagree on the estimate: {reports}", file=sys.stderr)
        return 1

    failures = []
    for kind in ("mmap", "chunked"):
        delta = reports[kind]["delta_kb"] * 1024
        if delta > args.max_rss_fraction * dense_bytes:
            failures.append(
                f"{kind}: RSS delta {delta / 1e6:.1f} MB exceeds "
                f"{args.max_rss_fraction:.0%} of dense "
                f"{dense_bytes / 1e6:.1f} MB"
            )

    if args.json is not None:
        payload = {
            "schema": 1,
            "benchmark": "backends",
            "dataset": args.dataset,
            "size": args.size,
            "payload_columns": args.payload_columns,
            "budget": args.budget,
            "dense_bytes": dense_bytes,
            "max_rss_fraction": args.max_rss_fraction,
            "parity": parity,
            "arms": reports,
            "failures": failures,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\n[written to {args.json}]")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("\nok: out-of-core RSS bounded well below the dense footprint")
    return 0


if __name__ == "__main__":
    sys.exit(main())
