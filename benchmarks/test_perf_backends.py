"""Dataset backends: cross-backend parity + out-of-core RSS envelope.

Not a paper figure — this pins the engineering claims of the pluggable
dataset-storage layer (``repro.data``):

* **parity** — mmap- and chunked-backed samplers produce bit-identical
  fingerprints (draws, estimates, CIs, oracle accounting) to the dense
  in-memory backend across a (seed x batch_size) grid,
  asserted inside ``scripts/bench_backends.py`` before any memory
  numbers are reported;
* **RSS envelope** — a 1M-record mmap-backed ABae query (over a dataset
  with wide payload columns, ingested shard-wise) runs end-to-end in a
  fresh subprocess with a peak-RSS delta bounded well below the
  dataset's dense in-memory size.

The benchmark script is the single source of truth for the workload;
this test drives it exactly as CI does and checks the machine-readable
run table it emits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from bench_results import RESULTS_DIR

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "bench_backends.py"

SIZE = 1_000_000
PAYLOAD_COLUMNS = 24
BUDGET = 10_000
MAX_RSS_FRACTION = 0.35


def test_perf_backends(results_dir, tmp_path):
    json_path = results_dir / "BENCH_backends.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--size", str(SIZE),
            "--payload-columns", str(PAYLOAD_COLUMNS),
            "--budget", str(BUDGET),
            "--max-rss-fraction", str(MAX_RSS_FRACTION),
            "--data-dir", str(tmp_path / "bench-backends"),
            "--json", str(json_path),
        ],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=1800,
    )
    print(completed.stdout)
    # The script exits non-zero on a parity mismatch or a violated envelope.
    assert completed.returncode == 0, (
        f"bench_backends failed (rc={completed.returncode}):\n"
        f"{completed.stdout}\n{completed.stderr}"
    )

    payload = json.loads(json_path.read_text())
    assert payload["benchmark"] == "backends"
    assert payload["parity"]["identical"] is True
    assert payload["failures"] == []
    assert payload["size"] == SIZE

    dense_bytes = payload["dense_bytes"]
    # The headline acceptance claim: a 1M-record mmap-backed query's peak
    # RSS delta stays well below the dataset's dense in-memory size, and
    # both out-of-core arms completed the full budget.
    for kind in ("mmap", "chunked"):
        arm = payload["arms"][kind]
        assert arm["oracle_calls"] == BUDGET
        assert arm["delta_kb"] * 1024 <= MAX_RSS_FRACTION * dense_bytes, (
            f"{kind} RSS delta {arm['delta_kb'] / 1024:.1f} MB vs dense "
            f"{dense_bytes / 1e6:.1f} MB"
        )
    # Full-scale cross-backend agreement (exact — same seed, same bytes).
    estimates = {payload["arms"][k]["estimate"] for k in payload["arms"]}
    assert len(estimates) == 1

    # The run table lands in benchmarks/results/ for the cross-PR perf
    # trajectory (uploaded as a CI artifact).
    assert json_path == RESULTS_DIR / "BENCH_backends.json"
