"""Oracle interface and invocation accounting.

The cost model mirrors the paper's metric: "We measure the cost in terms of
oracle predicate invocations as it is the dominant cost of query execution
by orders of magnitude" (Section 5.1).  Each oracle therefore counts calls
and can attach a per-call monetary / GPU-time cost so reports can translate
sample counts into dollars, as the introduction's $262,000 example does.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis.annotations import guarded_by

__all__ = [
    "ColumnarCallLog",
    "Oracle",
    "PredicateOracle",
    "StatisticOracle",
    "evaluate_oracle_batch",
]


class ColumnarCallLog:
    """Columnar per-call accounting: growable index/result/cost buffers.

    The log is append-only and batch-oriented: one ``append_batch`` per
    oracle invocation batch, costing O(batch) bulk copies instead of O(n)
    per-record object constructions.  Indices and costs live in NumPy
    buffers that double on overflow (O(1) amortized per record); results —
    which may be booleans, floats or arbitrary group keys — live in a plain
    Python list extended in bulk.  Entry by entry (order, indices,
    results, costs) it is identical to what the historical per-record
    append implementation produced.
    """

    _INITIAL_CAPACITY = 64

    __slots__ = ("_indices", "_costs", "_results", "_size")

    def __init__(self):
        self._indices = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._costs = np.empty(self._INITIAL_CAPACITY, dtype=float)
        self._results: List[object] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _grow_to(self, needed: int) -> None:
        capacity = self._indices.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_indices", "_costs"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def append_batch(self, record_indices, results, cost: float) -> None:
        """Append one batch of evaluations (a batch of 1 is a scalar call)."""
        idx = np.asarray(record_indices, dtype=np.int64)
        count = idx.shape[0]
        if count == 0:
            return
        end = self._size + count
        self._grow_to(end)
        self._indices[self._size : end] = idx
        self._costs[self._size : end] = cost
        self._results.extend(results)
        self._size = end

    def clear(self) -> None:
        """Empty the log, reallocating the buffers.

        Reallocation (rather than size reset) keeps previously handed-out
        zero-copy views valid as snapshots — post-clear appends land in
        fresh buffers instead of overwriting bytes an earlier view still
        references — and releases whatever a large prior run pinned.
        """
        self._indices = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._costs = np.empty(self._INITIAL_CAPACITY, dtype=float)
        self._results = []
        self._size = 0

    # -- Columnar views -----------------------------------------------------------
    @property
    def indices(self) -> np.ndarray:
        """Record indices of every logged call, in evaluation order (read-only)."""
        view = self._indices[: self._size]
        view.flags.writeable = False
        return view

    @property
    def costs(self) -> np.ndarray:
        """Per-call cost of every logged call, in evaluation order (read-only)."""
        view = self._costs[: self._size]
        view.flags.writeable = False
        return view

    @property
    def results(self) -> List[object]:
        """Results of every logged call, in evaluation order (a copy)."""
        return list(self._results)


@guarded_by("_account_lock", "_num_calls", "_log")
class Oracle(abc.ABC):
    """Base class for anything that answers per-record questions at a cost.

    Subclasses implement :meth:`_evaluate`; the public :meth:`__call__`
    wraps it with invocation counting, per-call cost accumulation and an
    optional call log.  ``cost_per_call`` defaults to 1.0 so "total cost"
    equals "number of invocations" unless a caller configures real costs.
    """

    def __init__(
        self,
        name: str = "oracle",
        cost_per_call: float = 1.0,
        keep_log: bool = False,
    ):
        if cost_per_call < 0:
            raise ValueError(f"cost_per_call must be non-negative, got {cost_per_call}")
        self._name = name
        self._cost_per_call = cost_per_call
        self._num_calls = 0
        self._keep_log = keep_log
        self._log = ColumnarCallLog()
        # Serializes `_record` so worker threads (repro.core.parallel) cannot
        # lose counter updates.  Uncontended acquisition is ~100ns per batch,
        # negligible next to even a vectorized oracle evaluation.
        self._account_lock = threading.Lock()

    # -- Accounting ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def cost_per_call(self) -> float:
        return self._cost_per_call

    @property
    def num_calls(self) -> int:
        """How many times the oracle has been invoked."""
        return self._num_calls

    @property
    def total_cost(self) -> float:
        """Accumulated cost across all invocations.

        Derived as ``cost_per_call * num_calls`` rather than accumulated
        float-by-float, so the value is bit-identical no matter how the same
        evaluations were partitioned into batches or shards (floating-point
        addition is not associative; a single multiply is partition-proof).
        """
        return self._cost_per_call * self._num_calls

    @property
    def call_log_columns(self) -> ColumnarCallLog:
        """The per-call log (empty unless constructed with ``keep_log=True``).

        Columnar index/result/cost buffers with zero-copy views.
        """
        return self._log

    def reset_accounting(self) -> None:
        """Zero the call counter, cost, and log (e.g. between trials)."""
        with self._account_lock:
            self._num_calls = 0
            self._log.clear()

    def _record(self, record_indices: Sequence[int], results: Sequence) -> None:
        """The single accounting point for every oracle invocation.

        Invariant: each evaluated record charges exactly one ``num_calls``
        unit and one ``cost_per_call`` unit, and (when logging is enabled)
        appends exactly one log entry, in evaluation order.  Both
        :meth:`__call__` and :meth:`evaluate_batch` route through this
        helper, so a batch of ``n`` records is indistinguishable — in
        counters, cost and log — from ``n`` sequential calls.  Logging is
        columnar: one bulk append per batch (O(1) amortized per record)
        instead of one object construction per record.  The helper is
        thread-safe:
        composite oracles evaluated on worker threads (see
        :mod:`repro.core.parallel`) account their children here
        concurrently without losing updates.
        """
        count = len(record_indices)
        with self._account_lock:
            self._num_calls += count
            if self._keep_log:
                self._log.append_batch(record_indices, results, self._cost_per_call)

    # -- Evaluation ---------------------------------------------------------------
    def __call__(self, record_index: int):
        result = self._evaluate(record_index)
        self._record((record_index,), (result,))
        return result

    def evaluate_batch(self, record_indices: Sequence[int]):
        """Evaluate many records at once, with identical accounting semantics.

        Returns a sequence of results aligned with ``record_indices``.  The
        default implementation loops over :meth:`_evaluate`; subclasses
        backed by arrays override :meth:`_evaluate_batch` with vectorized
        NumPy implementations.  Counters, cost and the call log advance
        exactly as if each record had been evaluated with :meth:`__call__`.
        """
        results = self._evaluate_batch(record_indices)
        self._record(record_indices, results)
        return results

    @abc.abstractmethod
    def _evaluate(self, record_index: int):
        """Produce the oracle's answer for one record (no accounting)."""

    def _evaluate_batch(self, record_indices: Sequence[int]):
        """Produce answers for many records (no accounting).

        Override with a vectorized implementation where possible; the
        default simply loops over :meth:`_evaluate`.
        """
        return [
            self._evaluate(i) for i in np.asarray(record_indices, dtype=np.int64).tolist()
        ]

    # -- Pickling (process-backend parallel execution) ----------------------------
    def __getstate__(self):
        """Locks are not picklable; drop it so oracles can ship to workers."""
        state = self.__dict__.copy()
        state.pop("_account_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._account_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self._name!r}, calls={self._num_calls})"


class PredicateOracle(Oracle):
    """An oracle whose answers are booleans (the expensive predicate O(x))."""

    def __call__(self, record_index: int) -> bool:
        return bool(super().__call__(record_index))

    def evaluate_batch(self, record_indices: Sequence[int]) -> np.ndarray:
        """Boolean answers for many records as a NumPy bool array."""
        return np.asarray(super().evaluate_batch(record_indices), dtype=bool)


class StatisticOracle:
    """Computes the aggregated expression ``f(x)`` for a record.

    The paper assumes "the statistic can be computed in conjunction with the
    predicates or is cheap to compute" (Section 2.1), so the statistic is
    *not* charged against the oracle budget.  It still lives behind a small
    interface so queries like ``AVG(count_cars(frame))`` — where the
    statistic is extracted from the oracle's own output — can share the
    predicate oracle's cached result.
    """

    def __init__(
        self,
        fn: Callable[[int], float],
        name: str = "statistic",
        values: Optional[Sequence[float]] = None,
    ):
        self._fn = fn
        self._name = name
        self._values = None if values is None else np.asarray(values, dtype=float)

    @property
    def name(self) -> str:
        return self._name

    @property
    def values(self) -> Optional[np.ndarray]:
        """The backing value column when one exists (else None)."""
        return self._values

    def __call__(self, record_index: int) -> float:
        return float(self._fn(record_index))

    def batch(self, record_indices: Sequence[int]) -> np.ndarray:
        """Statistic values for many records (vectorized when column-backed)."""
        idx = np.asarray(record_indices, dtype=np.int64)
        if self._values is not None:
            return self._values[idx].astype(float)
        return np.array([float(self._fn(i)) for i in idx.tolist()], dtype=float)

    @classmethod
    def from_column(cls, values, name: str = "statistic") -> "StatisticOracle":
        """Build a statistic oracle reading from a precomputed array/column."""
        arr = np.asarray(values, dtype=float)

        def lookup(idx: int) -> float:
            return float(arr[idx])

        return cls(lookup, name=name, values=arr)


def evaluate_oracle_batch(oracle: Callable[[int], object], record_indices) -> list:
    """Evaluate any oracle-like callable on many records at once.

    Uses the oracle's :meth:`~Oracle.evaluate_batch` fast path when it
    exists (any :class:`Oracle` subclass, :class:`CachingOracle`,
    :class:`BudgetedOracle`, ...) and falls back to a per-record loop for
    plain callables, so sampling code can batch unconditionally.
    """
    batch = getattr(oracle, "evaluate_batch", None)
    if batch is not None:
        return batch(record_indices)
    return [oracle(i) for i in np.asarray(record_indices, dtype=np.int64).tolist()]
