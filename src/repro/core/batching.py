"""Batched record labeling: the engine under every sampler's hot path.

The paper charges per oracle invocation, but a real expensive-predicate
backend (batched DNN inference, vectorized UDFs, remote label APIs) is
orders of magnitude cheaper per record when asked about many records at
once.  This module concentrates the "draw a set of records, run the oracle
over them, extract the statistic for the matches" step so that:

* oracles exposing ``evaluate_batch`` (any :class:`repro.oracle.base.Oracle`
  subclass, :class:`~repro.oracle.budget.BudgetedOracle`) are invoked
  once per batch;
* plain ``record_index -> bool`` callables keep working via a per-record
  fallback loop;
* statistics carrying a ``batch`` attribute (the array-backed adapter
  produced by ``repro.core.abae._normalize_statistic``, or
  :class:`~repro.oracle.base.StatisticOracle`) are gathered with one fancy
  index instead of one Python call per match.

Determinism contract
--------------------
Batching never touches the random stream — record *selection* stays with
:meth:`repro.engine.pipeline.StratumPool.select` (or
:func:`repro.stats.sampling.sample_without_replacement`) — and oracle
accounting advances through the same ``Oracle._record`` helper as
sequential calls.  Therefore, for any ``batch_size`` (including the strict
per-record path ``batch_size=1``), estimates, confidence intervals and
``num_calls`` are bit-identical under a fixed seed — also when the oracle
is a blocking :class:`~repro.oracle.remote.AsyncOracle` that spreads a
large batch over its endpoint's in-flight slots, since it joins the
answers in record order and records the batch once.  The equivalence harness in
``tests/harness.py`` pins this invariant across the (seed × batch_size ×
max_in_flight) grid.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.oracle.base import evaluate_oracle_batch

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "batch_slices",
    "statistic_batch",
    "require_finite_statistic",
    "label_records",
]

# ``None`` means "one batch per draw set" — the fastest choice whenever the
# oracle backend has no batch-size ceiling of its own.
DEFAULT_BATCH_SIZE: Optional[int] = None


def batch_slices(total: int, batch_size: Optional[int]) -> Iterator[slice]:
    """Yield contiguous slices covering ``range(total)`` in batches.

    ``batch_size=None`` yields a single slice; otherwise batches of at most
    ``batch_size`` in order.  ``total == 0`` yields nothing.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size}")
    if total <= 0:
        return
    step = total if batch_size is None else int(batch_size)
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


def statistic_batch(
    statistic: Callable[[int], float], record_indices: np.ndarray
) -> np.ndarray:
    """Statistic values for many records, vectorized when possible.

    Uses the statistic's ``batch`` attribute when present — the
    array-backed adapters and :class:`~repro.oracle.base.StatisticOracle`
    answer it with a single fancy index over their ``values`` column — and
    only falls back to a per-record loop (over native Python ints, no
    NumPy scalar boxing) for bare scalar callables.  The ``batch`` method
    stays authoritative even for column-backed statistics so a subclass
    overriding it is never silently bypassed.
    """
    idx = np.asarray(record_indices, dtype=np.int64)
    batch = getattr(statistic, "batch", None)
    if batch is not None:
        return np.asarray(batch(idx), dtype=float)
    return np.array([float(statistic(i)) for i in idx.tolist()], dtype=float)


def require_finite_statistic(
    record_indices: np.ndarray, values: np.ndarray, matched: np.ndarray
) -> None:
    """Raise ``ValueError`` if any matched draw's statistic is non-finite.

    Unmatched draws carry NaN by design and are not checked.  A NaN or
    infinite statistic on a matched draw would otherwise flow into the
    plug-in estimates and silently corrupt Stage 2's allocation.
    """
    bad = matched & ~np.isfinite(values)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"statistic of matched record {int(record_indices[first])} is "
            f"{float(values[first])!r}; statistics must be finite"
        )


def label_records(
    record_indices: np.ndarray,
    oracle: Callable[[int], bool],
    statistic: Callable[[int], float],
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the oracle over drawn records and gather the matching statistics.

    Returns ``(matches, values)`` aligned with ``record_indices``: a bool
    array of predicate outcomes and a float array holding the statistic for
    matches and NaN elsewhere (the statistic is undefined for records that
    fail the predicate).

    ``batch_size`` controls how many records each oracle invocation covers:
    ``None`` labels the whole draw set in one batch, ``1`` reproduces the
    legacy strictly-sequential ``oracle(i)`` path call for call, and any
    other positive integer chunks the work — a pure execution knob with
    identical results and accounting for every setting.  Each batch goes
    through the oracle's ``evaluate_batch``, so an oracle that overlaps
    its calls (a blocking :class:`~repro.oracle.remote.AsyncOracle`) fans
    out every batch here.
    """
    drawn = np.asarray(record_indices, dtype=np.int64)
    n = drawn.shape[0]
    matches = np.empty(n, dtype=bool)
    values = np.full(n, np.nan, dtype=float)

    if batch_size == 1:
        # Strict sequential path: per-record __call__ with the statistic
        # interleaved, exactly as the pre-batching implementation did.
        # Iterating native ints (one bulk tolist) keeps the per-record loop
        # free of NumPy scalar boxing.
        for i, record_index in enumerate(drawn.tolist()):
            is_match = bool(oracle(record_index))
            matches[i] = is_match
            if is_match:
                values[i] = float(statistic(record_index))
    else:
        for chunk in batch_slices(n, batch_size):
            answers = evaluate_oracle_batch(oracle, drawn[chunk])
            matches[chunk] = np.asarray(answers, dtype=bool)
        matched = drawn[matches]
        if matched.size:
            values[matches] = statistic_batch(statistic, matched)
    require_finite_statistic(drawn, values, matches)
    return matches, values
