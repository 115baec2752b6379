"""One workload in one process: set up, run, check, report one JSON line.

Started by ``run.py`` (never by hand), as::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --run-dir DIR

``setup`` only times the set-up; ``measure`` runs one untraced leg and
reports the end-to-end metrics; ``trace`` runs an untraced, a traced and
another untraced leg of ``S/3`` seconds each and reports the per-layer
metrics of the traced one.
"""

import time

PROCESS_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def calibrate_ms() -> float:
    """A fixed NumPy sort plus Python loop that touches no ``repro`` code.

    Timed before and after every workload, it is the host-speed reference
    that tells drift of the machine from change in the program.
    """
    import numpy as np

    values = np.random.default_rng(12345).random(2_000_000)
    began = time.perf_counter()
    np.sort(values, kind="quicksort")
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return (time.perf_counter() - began) * 1e3


def environment(run_dir: Path) -> dict:
    import numpy as np

    from repro.kernels import kernel_set

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": kernel_set().backend,
        "journal_fs": filesystem_of(run_dir),
    }


def filesystem_of(path: Path) -> str:
    """``device type`` of the mount holding ``path`` (from /proc/mounts)."""
    path = str(path.resolve())
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                device, mount_point, fs_type = line.split()[:3]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best[0]):
                    best = (mount_point, f"{device} {fs_type}")
    except OSError:
        pass
    return best[1]


def per_layer(bases, traced, tracer_stats, strat_before, strat_after) -> dict:
    """The traced leg's per-layer metrics (zero where a layer did no work)."""
    from tracer import LayerStats

    def stat(layer):
        return tracer_stats.get(layer, LayerStats())

    def ms(layer):
        return stat(layer).self_ns / 1e6

    completed = max(1, traced.attempted - traced.failed)
    hits = strat_after["hits"] - strat_before["hits"]
    misses = strat_after["misses"] - strat_before["misses"]
    oracle = stat("oracle")
    base_cost = sum(leg.cost_per_query() for leg in bases) / len(bases)
    layers = traced.layers
    metrics = {
        "core.bootstrap.calls": stat("core.bootstrap").entries,
        "core.bootstrap.self_ms": ms("core.bootstrap"),
        "core.stratification.self_ms": ms("core.stratification"),
        "core.stratification.cache_hit_ratio": hits / max(1, hits + misses),
        "core.allocation.self_ms": ms("core.allocation"),
        "query.self_ms": ms("query"),
        "engine.session.steps_per_query": stat("engine.session").calls / completed,
        "engine.session.self_ms": ms("engine.session") + ms("engine.session.result"),
        "engine.checkpoint.self_ms": ms("engine.checkpoint"),
        "engine.draw.self_ms": ms("engine.draw"),
        "oracle.calls": oracle.entries,
        "oracle.records": oracle.items,
        "oracle.self_ms": ms("oracle"),
        "oracle.remote.batches": layers.get("oracle.remote.batches", 0),
        "oracle.remote.records_per_batch": layers.get("oracle.remote.records_per_batch", 0.0),
        "oracle.remote.retries": layers.get("oracle.remote.retries", 0),
        "oracle.remote.giveups": layers.get("oracle.remote.giveups", 0),
        "oracle.remote.wait_ms": ms("oracle.remote.wait"),
        "serve.scheduler.steps": layers.get("serve.scheduler.steps", 0),
        "serve.scheduler.self_ms": ms("serve.scheduler"),
        "serve.admission.self_ms": ms("serve.admission"),
        "serve.cache.hits": layers.get("serve.cache.hits", 0),
        "serve.cache.misses": layers.get("serve.cache.misses", 0),
        "serve.cache.hit_ratio": layers.get("serve.cache.hit_ratio", 0.0),
        "serve.cache.self_ms": ms("serve.cache"),
        "serve.journal.appends": stat("serve.journal").calls,
        "serve.journal.bytes_per_query": layers.get("serve.journal.bytes_per_query", 0.0),
        "serve.journal.self_ms": ms("serve.journal"),
        "serve.recovery.recover_ms": layers.get("serve.recovery.recover_ms", 0.0),
        "serve.recovery.records_replayed": layers.get("serve.recovery.records_replayed", 0),
        "data.gather.self_ms": ms("data.gather"),
        "data.chunk_cache.hits": layers.get("data.chunk_cache.hits", 0),
        "data.chunk_cache.misses": layers.get("data.chunk_cache.misses", 0),
        "loadgen.late_p95_ms": layers.get("loadgen.late_p95_ms", 0.0),
        "trace.overhead_pct": (traced.cost_per_query() / base_cost - 1.0) * 100.0,
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    began = time.perf_counter()
    calib_before = calibrate_ms()
    calib_s = time.perf_counter() - began
    workload = workloads.WORKLOADS[args.workload](args.seed, args.run_dir)
    workload.setup()
    # Set-up runs from process start (interpreter, ``import repro``, data,
    # warm-up) to the first timed query, minus the calibration kernel.
    setup_s = time.perf_counter() - PROCESS_START - calib_s
    report = {"setup_s": setup_s}
    try:
        if args.mode == "measure":
            leg = workload.run_leg(args.seconds)
            workload.check(leg)
            report.update(
                metrics=leg.end_to_end(), attempted=leg.attempted, failed=leg.failed,
                problems=leg.problems,
            )
        elif args.mode == "trace":
            from repro.core.stratification import stratification_cache_info
            from tracer import Tracer

            # Untraced, traced, untraced: the overhead is taken against the
            # mean of the legs around the traced one, cancelling steady drift.
            legs = [workload.run_leg(args.seconds / 3)]
            tracer = Tracer()
            strat_before = stratification_cache_info()
            tracer.install()
            try:
                traced = workload.run_leg(args.seconds / 3)
            finally:
                tracer.uninstall()
            strat_after = stratification_cache_info()
            workload.check(traced)
            legs.append(workload.run_leg(args.seconds / 3))
            report.update(
                metrics=per_layer(
                    legs, traced, tracer.snapshot(), strat_before, strat_after
                ),
                attempted=sum(leg.attempted for leg in legs) + traced.attempted,
                failed=sum(leg.failed for leg in legs) + traced.failed,
                problems=[p for leg in legs + [traced] for p in leg.problems],
            )
    finally:
        workload.close()
    report["calib_before_ms"] = calib_before
    report["calib_after_ms"] = calibrate_ms()
    report["env"] = environment(args.run_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
