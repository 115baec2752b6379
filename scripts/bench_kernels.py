#!/usr/bin/env python
"""Microbenchmark: dispatched sampler kernels vs the pre-kernel-layer loops.

Models the per-draw inner loops that ``repro.kernels`` extracted from the
engine — pool gathers/mask updates, the marginal-variance-reduction
priority, group-by bucketing, the minimax objectives, integer spreads and
the bootstrap resampling core — in three configurations:

* **legacy**: the pre-kernel-layer hot loops, reconstructed verbatim
  (per-estimate object churn in the priority, nested Python loops in the
  minimax objective, per-stratum boolean masks in the bucketing);
* **numpy**: the shipped reference kernels, dispatched through
  ``kernel_set("numpy")``;
* **numba**: the native backend via ``kernel_set("numba")`` — recorded as
  skipped (without failing) when numba is not importable.

Every family's outputs are asserted bitwise-identical across all arms
before any timing is reported: the speedup is execution mechanics only,
never a change in results.  Families whose kernels stay reference-only on
every backend (float reductions: the minimax objectives, largest-remainder
rounding, bootstrap row sums) are benchmarked for parity and tracked in
the run table, but the native speedup floor applies to the aggregate over
the *native* families only; the numpy arm must additionally stay within
``--numpy-floor`` of the legacy loops across all families.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py [--smoke] \
        [--repeats 5] [--min-speedup 3.0] [--numpy-floor 0.9] \
        [--json benchmarks/results/BENCH_kernels.json]

``--min-speedup`` makes the script exit non-zero when the numba backend
(if importable) fails to reach the given aggregate speedup on the native
families — the regression guard CI enforces.  ``--json`` writes the
machine-readable run table that tracks the perf trajectory across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.estimators import estimate_all_strata
from repro.core.types import StratumSample
from repro.engine.policies import marginal_variance_reduction
from repro.kernels import kernel_set, numba_available

_EPS = 1e-12


# ---------------------------------------------------------------------------
# Legacy reconstructions — the pre-kernel-layer bodies, verbatim
# ---------------------------------------------------------------------------


def legacy_pool_rounds(strata, plan):
    """Pre-kernel StratumPool mechanics: inline gather + searchsorted mark."""
    available = [np.ones(s.size, dtype=bool) for s in strata]
    remaining = np.array([s.size for s in strata], dtype=np.int64)
    for round_plan in plan:
        for k, take in round_plan:
            candidates = strata[k][available[k]]
            if candidates.size == 0:
                continue
            drawn = candidates[:: max(1, candidates.size // max(take, 1))][:take]
            if len(drawn) == 0:
                continue
            positions = np.searchsorted(strata[k], drawn)
            available[k][positions] = False
            remaining[k] -= len(drawn)
    return available, remaining


def kernel_pool_rounds(strata, plan, kernels):
    """The same draw schedule through the dispatched pool kernels."""
    available = [np.ones(s.size, dtype=bool) for s in strata]
    remaining = np.array([s.size for s in strata], dtype=np.int64)
    for round_plan in plan:
        for k, take in round_plan:
            candidates = kernels.gather_candidates(strata[k], available[k])
            if candidates.size == 0:
                continue
            drawn = candidates[:: max(1, candidates.size // max(take, 1))][:take]
            if len(drawn) == 0:
                continue
            drawn = np.asarray(drawn, dtype=np.int64)
            remaining[k] -= kernels.mark_drawn(strata[k], available[k], drawn)
    return available, remaining


def legacy_priority(samples):
    """Pre-kernel marginal_variance_reduction: estimate-object churn + ufuncs."""
    estimates = estimate_all_strata(samples)
    p = np.array([e.p_hat for e in estimates])
    sigma = np.array([e.sigma_hat for e in estimates])
    mu = np.array([e.mu_hat for e in estimates])
    draws = np.array([s.num_draws for s in samples], dtype=float)
    p_all = p.sum()
    if p_all == 0:
        return np.ones(len(samples))
    w = p / p_all
    mu_all = float(np.dot(w, mu))
    with np.errstate(divide="ignore", invalid="ignore"):
        within = np.where(p > 0, w**2 * sigma**2 / np.maximum(p, 1e-12), 0.0)
        weight_uncertainty = ((mu - mu_all) / p_all) ** 2 * p * (1.0 - p)
        contribution = (within + weight_uncertainty) / np.maximum(draws, 1.0)
        priority = contribution / np.maximum(draws + 1.0, 1.0)
    unexplored = draws == 0
    if unexplored.any():
        bonus = float(priority[~unexplored].max()) if (~unexplored).any() else 1.0
        priority[unexplored] = max(bonus, 1e-12)
    return priority


def legacy_bucket(assignment, indices, matched, values, num_strata):
    """Pre-kernel group-by bucketing: one boolean mask per stratum."""
    stratum_of = assignment[indices]
    masked_values = np.where(matched, values, np.nan)
    out = []
    for k in range(num_strata):
        in_k = stratum_of == k
        out.append((indices[in_k], matched[in_k], masked_values[in_k]))
    return out


def legacy_minimax_objective(error_terms, informative, lam, n2):
    """Pre-kernel Eq. 10 objective: the nested Python loop, verbatim."""
    num_groups = error_terms.shape[0]
    worst = 0.0
    for g in informative:
        inverse_sum = 0.0
        for l in range(num_groups):
            term = error_terms[l, g]
            if not np.isfinite(term) or term <= 0:
                continue
            variance = term / max(lam[l] * n2, _EPS)
            inverse_sum += 1.0 / variance
        combined = 1.0 / inverse_sum if inverse_sum > 0 else float("inf")
        worst = max(worst, combined)
    return worst


def legacy_floor_spread(weights, batch):
    """Pre-kernel sequential spread: floor counts, shortfall at the argmax."""
    counts = np.floor(weights * batch).astype(int)
    counts[int(np.argmax(weights))] += batch - int(counts.sum())
    return counts


def legacy_largest_remainder(weights, total):
    """Pre-kernel proportional_integer_allocation rounding core."""
    w = weights / weights.sum()
    raw = w * total
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = raw - base
        order = np.argsort(-remainders)
        for idx in order[:leftover]:
            base[idx] += 1
    return base


def legacy_bootstrap(matches, values, resample_idx):
    """Pre-kernel bootstrap inner loop: row sums over the resample matrix."""
    resampled_matches = matches[resample_idx]
    resampled_values = values[resample_idx]
    positives = resampled_matches.sum(axis=1)
    sums = (resampled_values * resampled_matches).sum(axis=1)
    return positives, sums


# ---------------------------------------------------------------------------
# Families: workload + arms + fingerprint
# ---------------------------------------------------------------------------


def _fingerprint(value) -> str:
    """Bitwise digest of a kernel output (arrays by raw bytes, NaN-safe)."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}:{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_fingerprint(v) for v in value) + ")"
    if isinstance(value, float):
        return repr(np.float64(value).tobytes().hex())
    return repr(value)


def make_families(smoke: bool, seed: int = 0):
    """Build the benchmark families; sizes mirror the per-draw inner loops.

    The hot loops run on *small* per-stratum arrays, many times per query
    (every re-allocation round touches every stratum) — the regime where
    interpreter and ufunc dispatch overhead dominates and the native
    backend pays off.  ``--smoke`` shrinks iteration counts, not shapes.
    """
    rng = np.random.default_rng(seed)
    scale = 1 if smoke else 8
    families = []

    # -- pool: per-round candidate gathers + mask updates ------------------
    num_strata, records = 12, 6_000
    assignment = rng.integers(0, num_strata, size=records)
    strata = [
        np.flatnonzero(assignment == k).astype(np.int64)
        for k in range(num_strata)
    ]
    plan = [
        [(k, int(rng.integers(4, 24))) for k in range(num_strata)]
        for _ in range(40 * scale)
    ]
    families.append(
        {
            "name": "pool",
            "native": True,
            "legacy": lambda: legacy_pool_rounds(strata, plan),
            "kernel": lambda ks: kernel_pool_rounds(strata, plan, ks),
        }
    )

    # -- priority: marginal variance reduction per re-allocation round -----
    samples = []
    for k in range(num_strata):
        n = int(rng.integers(30, 120))
        matches = rng.random(n) < 0.3
        values = np.where(matches, rng.random(n), np.nan)
        samples.append(
            StratumSample(
                stratum=k,
                indices=rng.integers(0, records, size=n).astype(np.int64),
                matches=matches,
                values=values,
            )
        )
    reps_priority = 60 * scale

    def run_priority(fn):
        out = None
        for _ in range(reps_priority):
            out = fn(samples)
        return out

    families.append(
        {
            "name": "priority",
            "native": True,
            "legacy": lambda: run_priority(legacy_priority),
            "kernel": lambda ks: run_priority(
                lambda s: marginal_variance_reduction(s, kernels=ks)
            ),
        }
    )

    # -- bucket: labelled draws -> per-stratum columns (group-by core) -----
    draws = 2_500
    b_indices = rng.integers(0, records, size=draws).astype(np.int64)
    b_matched = rng.random(draws) < 0.25
    b_values = rng.random(draws)
    reps_bucket = 30 * scale

    def run_bucket(fn):
        out = None
        for _ in range(reps_bucket):
            out = fn(assignment, b_indices, b_matched, b_values, num_strata)
        return out

    families.append(
        {
            "name": "bucket",
            "native": True,
            "legacy": lambda: run_bucket(legacy_bucket),
            "kernel": lambda ks: run_bucket(ks.bucket_by_stratum),
        }
    )

    # -- spread: per-round floor allocation of a batch ---------------------
    spread_weights = [rng.dirichlet(np.ones(num_strata)) for _ in range(8)]
    reps_spread = 80 * scale

    def run_spread(fn):
        out = []
        for _ in range(reps_spread):
            for i, w in enumerate(spread_weights):
                out.append(fn(w, 40 + i))
        return out

    families.append(
        {
            "name": "spread",
            "native": True,
            "legacy": lambda: [
                c.astype(np.int64) for c in run_spread(legacy_floor_spread)
            ],
            "kernel": lambda ks: run_spread(ks.floor_spread),
        }
    )

    # -- minimax: Eq. 10 objective over a Nelder-Mead-like trajectory ------
    num_groups = 6
    error_terms = rng.random((num_groups, num_groups)) * 5.0
    error_terms[rng.random((num_groups, num_groups)) < 0.15] = np.inf
    error_terms[0, 1] = 0.0
    usable = np.isfinite(error_terms) & (error_terms > 0)
    informative_mask = usable.any(axis=0)
    informative_list = [g for g in range(num_groups) if informative_mask[g]]
    lams = [rng.dirichlet(np.ones(num_groups)) for _ in range(40 * scale)]
    n2 = 1_000

    families.append(
        {
            "name": "minimax",
            "native": False,
            "legacy": lambda: [
                legacy_minimax_objective(error_terms, informative_list, lam, n2)
                for lam in lams
            ],
            "kernel": lambda ks: [
                ks.minimax_single_objective(
                    error_terms, usable, informative_mask, lam, n2, _EPS
                )
                for lam in lams
            ],
        }
    )

    # -- rounding: largest-remainder integer splits ------------------------
    round_weights = [rng.random(num_strata) + 0.01 for _ in range(40 * scale)]

    families.append(
        {
            "name": "rounding",
            "native": False,
            "legacy": lambda: [
                legacy_largest_remainder(w, 200 + i).astype(np.int64)
                for i, w in enumerate(round_weights)
            ],
            "kernel": lambda ks: [
                ks.largest_remainder(w, 200 + i)
                for i, w in enumerate(round_weights)
            ],
        }
    )

    # -- bootstrap: per-stratum resampled row sums -------------------------
    n = 400
    bs_mask = rng.random(n) < 0.3
    bs_matches = bs_mask.astype(float)  # the legacy loop's 0/1 float column
    bs_values = np.where(bs_mask, rng.random(n), 0.0)
    resample_idx = rng.integers(0, n, size=(300, n))
    reps_bootstrap = 5 * scale

    def run_bootstrap(fn, matches):
        out = None
        for _ in range(reps_bootstrap):
            out = fn(matches, bs_values, resample_idx)
        return out

    families.append(
        {
            "name": "bootstrap",
            "native": False,
            "legacy": lambda: run_bootstrap(legacy_bootstrap, bs_matches),
            "kernel": lambda ks: run_bootstrap(ks.bootstrap_resample_stats, bs_mask),
        }
    )

    return families


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small iteration counts (CI gate)"
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of repeats")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail unless the numba arm reaches this aggregate speedup on "
        "the native families (enforced only when numba is importable)",
    )
    parser.add_argument(
        "--numpy-floor",
        type=float,
        default=0.9,
        help="fail when the numpy reference arm drops below this fraction "
        "of legacy speed across all families (tolerance for timer noise)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="write the machine-readable run table to this path",
    )
    args = parser.parse_args()

    families = make_families(smoke=args.smoke, seed=args.seed)
    arms = ["numpy"]
    numba_ok = numba_available()
    if numba_ok:
        arms.append("numba")
    sets = {name: kernel_set(name) for name in arms}

    # ---- Pass 1: bitwise parity, family by family, arm by arm ------------
    print(f"verifying bitwise parity across {len(families)} kernel families ...")
    for family in families:
        reference = _fingerprint(family["legacy"]())
        for arm in arms:
            digest = _fingerprint(family["kernel"](sets[arm]))
            if digest != reference:
                raise AssertionError(
                    f"kernel family {family['name']!r} diverged from the "
                    f"legacy loops on the {arm} backend; outputs are no "
                    f"longer bit-identical"
                )
    print(
        f"ok: {len(families)} families bit-identical on "
        f"{', '.join(arms)}\n"
    )

    # ---- Pass 2: timed arms (best-of repeats, per family) -----------------
    def time_call(fn) -> float:
        best = float("inf")
        for _ in range(args.repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    rows = []
    for family in families:
        row = {
            "family": family["name"],
            "native": family["native"],
            "legacy_seconds": time_call(family["legacy"]),
        }
        for arm in arms:
            ks = sets[arm]
            row[f"{arm}_seconds"] = time_call(
                lambda fam=family, ks=ks: fam["kernel"](ks)
            )
        rows.append(row)

    def aggregate(arm: str, native_only: bool) -> float:
        rel = [r for r in rows if r["native"] or not native_only]
        legacy = sum(r["legacy_seconds"] for r in rel)
        timed = sum(r[f"{arm}_seconds"] for r in rel)
        return legacy / timed

    header = f"{'family':>10} {'native':>7} {'legacy':>10}"
    for arm in arms:
        header += f" {arm:>10} {'x':>6}"
    print(header)
    for r in rows:
        line = (
            f"{r['family']:>10} {str(r['native']):>7} "
            f"{r['legacy_seconds'] * 1e3:>8.2f}ms"
        )
        for arm in arms:
            t = r[f"{arm}_seconds"]
            line += f" {t * 1e3:>8.2f}ms {r['legacy_seconds'] / t:>5.2f}x"
        print(line)

    numpy_overall = aggregate("numpy", native_only=False)
    print(f"\nnumpy reference, all families: {numpy_overall:.2f}x legacy "
          f"(floor {args.numpy_floor}x)")
    numba_native = None
    if numba_ok:
        numba_native = aggregate("numba", native_only=True)
        print(
            f"numba backend, native families: {numba_native:.2f}x legacy "
            f"(floor {args.min_speedup}x)"
        )
    else:
        print(
            f"numba backend: skipped (numba not importable; floor "
            f"{args.min_speedup}x not enforced)"
        )

    if args.json is not None:
        payload = {
            "schema": 1,
            "benchmark": "kernels",
            "smoke": args.smoke,
            "repeats": args.repeats,
            "seed": args.seed,
            "families": rows,
            "numpy_speedup": numpy_overall,
            "numpy_floor": args.numpy_floor,
            "numba": {
                "available": numba_ok,
                "skipped": not numba_ok,
                "native_speedup": numba_native,
                "min_speedup": args.min_speedup,
            },
            "parity": {"families": len(families), "identical": True},
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[written to {args.json}]")

    failed = False
    if numpy_overall < args.numpy_floor:
        print(
            "FAIL: numpy reference kernels are slower than the legacy loops",
            file=sys.stderr,
        )
        failed = True
    if numba_ok and numba_native < args.min_speedup:
        print("FAIL: numba backend below the speedup floor", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
