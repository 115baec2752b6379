"""The benchmark command: one workload per invocation, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solo-mix|serve-open|oracle-bound \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` every per-layer metric.  The workload runs in a
process of its own (``worker.py``); ``setup_s`` is the median set-up time
of that process and of ``SETUP_REPEATS`` more set-up-only processes.
Human-readable detail goes to the lines before the last; the last line is
the JSON result.  The exit code is 0 only when every correctness check
passed; a worker that crashes prints no result at all.

Everything the run writes (pycache aside) lives under
``.perfbench_tmp/`` in the checkout and is deleted before exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("solo-mix", "serve-open", "oracle-bound")
SETUP_REPEATS = 4
DEADLINE_S = 170.0  # the whole run, every worker included


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as spec:
        return {metric["name"]: metric["unit"] for metric in json.load(spec)[section]}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, run_dir: Path, deadline: float) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--run-dir", str(run_dir),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    if done.returncode != 0:
        raise WorkerError(
            f"{mode} worker exited {done.returncode}:\n{done.stderr.strip()[-3000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no report")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 2:
        parser.error("--seconds must be at least 2")

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".perfbench_tmp"
    run_dir = tmp_root / f"run-{args.workload}-{time.time_ns()}"
    try:
        if args.trace:
            report = run_worker(args, "trace", run_dir / "trace", deadline)
            metrics = dict(report["metrics"])
            metrics["env.calib_before_ms"] = report["calib_before_ms"]
            metrics["env.calib_after_ms"] = report["calib_after_ms"]
            units = declared_units("per_layer")
        else:
            setups = [
                run_worker(args, "setup", run_dir / f"setup-{i}", deadline)["setup_s"]
                for i in range(SETUP_REPEATS)
            ]
            report = run_worker(args, "measure", run_dir / "measure", deadline)
            setups.append(report["setup_s"])
            metrics = dict(report["metrics"], setup_s=statistics.median(setups))
            units = declared_units("end_to_end")
            print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if set(metrics) != set(units):
        print(
            f"benchmark failed: metrics {sorted(set(metrics) ^ set(units))} do not "
            "match BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    print(f"environment: {json.dumps(report['env'])}")
    print(
        f"calibration: {report['calib_before_ms']:.2f} ms before, "
        f"{report['calib_after_ms']:.2f} ms after"
    )
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = report["failed"] == 0 and not report["problems"]
    print(f"failed_frac: {report['failed'] / report['attempted']:.6f}")
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
