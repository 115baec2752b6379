"""Deterministic parallel oracle execution.

The paper's cost model says the oracle predicate dominates query cost by
orders of magnitude; PR 1 amortized it by batching.  This module adds the
next multiplier: evaluating independent shards of a batch on multiple
workers — threads for oracles whose evaluation releases the GIL (NumPy
kernels, remote inference calls, ``time.sleep``-style latency), processes
for plain-Python oracles — without giving up reproducibility.

Determinism contract
--------------------
For a fixed seed and ``batch_size``, estimates, confidence intervals,
``num_calls`` and ``total_cost`` are **bit-identical for every value of
``num_workers``**.  Three design rules make this hold:

1. **Sharding is positional, never temporal.**  A batch of ``n`` records is
   split into contiguous shards by :func:`shard_slices`; which worker runs
   which shard, and in which order shards finish, never affects anything —
   results are reassembled by shard index.
2. **Evaluation is pure; accounting is centralized.**  Workers only run the
   oracle's side-effect-free ``_evaluate_batch`` path.  All accounting for
   the batch flows through a single ``Oracle._record`` call on the calling
   thread, in the original record order — exactly what the serial path
   does.  (``Oracle.total_cost`` is derived from ``num_calls`` by one
   multiply, so cost is partition-proof too.)
3. **Randomness is keyed by shard position.**  Nothing in oracle labeling
   consumes randomness (record *selection* happens before, on the caller's
   stream), and any per-shard stochastic work must use
   :func:`repro.stats.rng.spawn_shard_streams`, whose child streams depend
   only on the shard index.

Composition with the oracle wrappers
------------------------------------
:class:`ParallelOracle` wraps the *innermost* expensive oracle.  Stateful
wrappers go **outside** it, where their bookkeeping stays single-threaded::

    CachingOracle(ParallelOracle(expensive))          # cache, then shard misses
    BudgetedOracle(ParallelOracle(expensive), budget) # charge, then shard

Both wrappers already funnel their work into one ``evaluate_batch`` call on
their inner oracle, which is precisely the granularity this module shards.
Constructing ``ParallelOracle`` *around* one of them raises, because their
``evaluate_batch`` is stateful (cache mutation, budget charges) and cannot
be sharded safely.

The samplers call :func:`parallelize_oracle`, the tolerant entry point: it
wraps shard-safe oracles and leaves everything else (already-parallel,
caching, budgeted) untouched, so ``num_workers`` is always safe to pass.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import guard_module_globals
from repro.oracle.base import Oracle, PredicateOracle, evaluate_oracle_batch
from repro.oracle.composite import _CompositeOracle
from repro.stats.rng import RandomState, spawn_shard_streams

__all__ = [
    "THREAD_BACKEND",
    "PROCESS_BACKEND",
    "BACKENDS",
    "resolve_backend",
    "resolve_num_workers",
    "shard_slices",
    "ParallelOracle",
    "parallelize_oracle",
    "parallel_map",
    "shutdown_worker_pools",
]

THREAD_BACKEND = "thread"
PROCESS_BACKEND = "process"
BACKENDS = (THREAD_BACKEND, PROCESS_BACKEND)


def resolve_backend(backend: str) -> str:
    """Validate a ``parallel_backend`` knob at configuration time."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend

# Below this many records, sharding overhead (task submission, thread
# wake-up) exceeds any conceivable win, so the batch is evaluated on the
# calling thread.  The threshold depends only on the batch length, never on
# timing, so it cannot break determinism.
MIN_SHARDED_RECORDS = 32


def resolve_num_workers(num_workers: Optional[int]) -> int:
    """Normalize the ``num_workers`` knob: ``None`` means serial (1).

    Raises ``ValueError`` for anything that is not a positive integer
    (floats, strings and bools included — no silent coercion), matching
    the query planner's validation, so a bad knob fails at configuration
    time, not deep inside a sampling loop.
    """
    if num_workers is None:
        return 1
    if not isinstance(num_workers, (int, np.integer)) or isinstance(
        num_workers, bool
    ):
        raise ValueError(
            f"num_workers must be a positive integer or None, got {num_workers!r}"
        )
    workers = int(num_workers)
    if workers < 1:
        raise ValueError(
            f"num_workers must be a positive integer or None, got {num_workers}"
        )
    return workers


def shard_slices(total: int, num_shards: int) -> Iterator[slice]:
    """Split ``range(total)`` into at most ``num_shards`` contiguous slices.

    Shard sizes differ by at most one and depend only on ``(total,
    num_shards)`` — the partition is the unit of determinism, so it must
    never depend on worker availability or timing.  Empty shards are not
    yielded; ``total == 0`` yields nothing.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if total <= 0:
        return
    shards = min(num_shards, total)
    base, extra = divmod(total, shards)
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        yield slice(start, start + size)
        start += size


# ---------------------------------------------------------------------------
# Shared worker pools
# ---------------------------------------------------------------------------

_POOLS: Dict[Tuple[str, str, int], Executor] = {}
_POOLS_LOCK = threading.Lock()
guard_module_globals("_POOLS_LOCK", "_POOLS")


def _get_pool(purpose: str, backend: str, num_workers: int) -> Executor:
    """A process-wide pool per (purpose, backend, size), lazily created.

    Pool reuse matters: samplers shard thousands of small batches, and
    creating an executor per batch would dominate the runtime.  The
    ``purpose`` dimension ("oracle" for :class:`ParallelOracle` shards,
    "map" for :func:`parallel_map` tasks) keeps the two levels on disjoint
    pools, so a mapped task that runs a sampler which shards its oracle
    batches cannot deadlock by submitting shard futures into the very pool
    its own task is occupying.  Pools are shut down at interpreter exit
    (and on :func:`shutdown_worker_pools`).
    """
    key = (purpose, backend, num_workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if backend == THREAD_BACKEND:
                pool = ThreadPoolExecutor(
                    max_workers=num_workers,
                    thread_name_prefix=f"repro-{purpose}-{num_workers}",
                )
            else:
                pool = ProcessPoolExecutor(max_workers=num_workers)
            _POOLS[key] = pool
        return pool


def shutdown_worker_pools() -> None:
    """Shut down every cached worker pool (used by tests and at exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_worker_pools)


def _shard_safe(oracle) -> bool:
    """Whether the oracle's batch evaluation can be sharded across workers.

    True for any :class:`Oracle` that keeps the stock ``evaluate_batch``
    (pure ``_evaluate_batch`` + one ``_record``), including composite
    AND/OR/NOT oracles *whose children are all shard-safe too*, and for
    plain callables.  False for oracles whose ``evaluate_batch`` is itself
    stateful (``CachingOracle``, ``BudgetedOracle``): their bookkeeping —
    budget check-then-charge, cache hit/miss counters — is not
    lock-protected the way ``Oracle._record`` is, so they must stay
    single-threaded and belong *outside* the parallel wrapper.  The child
    recursion matters: a composite's constituents evaluate (and account)
    on worker threads, so a stateful wrapper hidden as a leaf would race
    exactly like one wrapped directly.
    """
    if isinstance(oracle, ParallelOracle):
        return False
    if isinstance(oracle, _CompositeOracle):
        return all(_shard_safe(child) for child in oracle.children)
    if isinstance(oracle, Oracle):
        return type(oracle).evaluate_batch in (
            Oracle.evaluate_batch,
            PredicateOracle.evaluate_batch,
        )
    return not hasattr(oracle, "evaluate_batch")


def _process_safe(oracle) -> bool:
    """Whether the oracle can be sharded across *processes* specifically.

    Composite oracles cannot: their constituents account themselves during
    evaluation, and in a worker process that accounting lands on pickled
    throwaway copies — the parent's merge only covers the top-level
    oracle, so per-constituent call counts would be silently lost.  The
    thread backend keeps children in-process (their thread-safe ``_record``
    preserves exact counts) and is the right choice for composites.
    """
    return not isinstance(oracle, _CompositeOracle)


def _evaluate_shard(oracle, record_indices: np.ndarray):
    """Pure (accounting-free) evaluation of one shard.

    Runs on a worker.  For :class:`Oracle` instances this is the
    ``_evaluate_batch`` path — no counters move; the parent thread records
    the whole batch afterwards.  Vectorized oracles return NumPy arrays,
    which are passed through as-is so the parent can merge shards with one
    ``np.concatenate`` instead of a per-record list extend.  Plain
    callables are looped; they must be pure and thread-safe (process
    backend: picklable) to be sharded.
    """
    if isinstance(oracle, Oracle):
        return oracle._evaluate_batch(record_indices)
    return [oracle(i) for i in record_indices.tolist()]


class ParallelOracle:
    """Shard an oracle's batch evaluation across a worker pool.

    Drop-in oracle-like wrapper: ``__call__`` delegates per-record lookups
    to the inner oracle untouched; ``evaluate_batch`` splits the batch into
    ``num_workers`` contiguous shards, evaluates them concurrently through
    the inner oracle's pure path, reassembles the answers in record order,
    and then advances the inner oracle's accounting **once, on the calling
    thread, in the original order** — so the wrapped oracle's counters,
    cost and call log are bit-identical to the serial path's, for any
    worker count.  One scoping note: when the wrapped oracle is a
    *composite*, its constituents account themselves from worker threads;
    their counters and costs are exact (lock-protected, order-free sums)
    but their ``keep_log`` entry *order* is scheduling-dependent — run
    serially if a constituent's log order matters.

    ``backend="thread"`` suits oracles whose evaluation releases the GIL
    (NumPy kernels, network-bound inference calls); ``backend="process"``
    suits pure-Python oracles, which must then be picklable (per-worker
    accounting happens on throwaway copies and is discarded — the parent's
    single merged ``_record`` is authoritative).  Composite oracles are
    thread-only: their constituents account themselves during evaluation,
    which worker processes cannot merge back.  Note the process backend
    re-pickles the inner oracle once per shard per batch; it pays off only
    when per-record evaluation is expensive relative to shipping the
    oracle's state.
    """

    def __init__(
        self,
        oracle,
        num_workers: int,
        backend: str = THREAD_BACKEND,
        min_sharded_records: int = MIN_SHARDED_RECORDS,
    ):
        resolve_backend(backend)
        if isinstance(oracle, ParallelOracle):
            raise ValueError(
                "oracle is already a ParallelOracle; nested parallel wrappers "
                "would shard shards to no benefit"
            )
        if not _shard_safe(oracle):
            raise ValueError(
                f"{type(oracle).__name__} cannot be sharded safely: it (or one "
                "of its constituents) keeps stateful batch bookkeeping; compose "
                "stateful wrappers OUTSIDE the parallel wrapper instead, e.g. "
                "CachingOracle(ParallelOracle(inner)) or "
                "BudgetedOracle(ParallelOracle(inner), budget)"
            )
        if backend == PROCESS_BACKEND and not _process_safe(oracle):
            raise ValueError(
                f"{type(oracle).__name__} is a composite oracle; its "
                "constituents' call accounting would be lost in worker "
                "processes — use backend='thread' for composite oracles"
            )
        self._inner = oracle
        self._num_workers = resolve_num_workers(num_workers)
        self._backend = backend
        self._min_sharded_records = max(int(min_sharded_records), 1)
        self._sharded_batches = 0
        self._sharded_records = 0
        self._serial_batches = 0

    # -- Delegated oracle surface --------------------------------------------------
    @property
    def inner(self):
        return self._inner

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def name(self) -> str:
        inner_name = getattr(self._inner, "name", "oracle")
        return f"parallel[{self._num_workers}x{self._backend}]({inner_name})"

    @property
    def cost_per_call(self) -> float:
        return getattr(self._inner, "cost_per_call", 1.0)

    @property
    def num_calls(self) -> int:
        """Merged invocation count (the inner oracle's, by construction)."""
        return getattr(self._inner, "num_calls", 0)

    @property
    def total_cost(self) -> float:
        return getattr(self._inner, "total_cost", 0.0)

    @property
    def call_log_columns(self):
        return getattr(self._inner, "call_log_columns", None)

    def reset_accounting(self) -> None:
        reset = getattr(self._inner, "reset_accounting", None)
        if reset is not None:
            reset()

    # -- Execution statistics ------------------------------------------------------
    @property
    def sharded_batches(self) -> int:
        """How many batches were actually fanned out across workers."""
        return self._sharded_batches

    @property
    def sharded_records(self) -> int:
        """Total records evaluated through the worker pool."""
        return self._sharded_records

    @property
    def serial_batches(self) -> int:
        """Batches answered on the calling thread (too small to shard)."""
        return self._serial_batches

    # -- Evaluation ----------------------------------------------------------------
    def __call__(self, record_index: int):
        return self._inner(int(record_index))

    def evaluate_batch(self, record_indices: Sequence[int]):
        idx = np.asarray(record_indices, dtype=np.int64)
        n = idx.shape[0]
        if (
            self._num_workers == 1
            or n < self._min_sharded_records
            or n < 2 * self._num_workers
        ):
            self._serial_batches += 1
            return evaluate_oracle_batch(self._inner, idx)

        # Fan out: pure evaluation on workers, ordered merge + single
        # accounting point on this thread.
        pool = _get_pool("oracle", self._backend, self._num_workers)
        futures = [
            pool.submit(_evaluate_shard, self._inner, idx[shard])
            for shard in shard_slices(n, self._num_workers)
        ]
        # Collect in shard order, independent of completion order.  When
        # every shard came back as an ndarray (vectorized oracles), merge
        # zero-copy-per-record with one concatenate; otherwise fall back to
        # a flat list.
        shard_results = [future.result() for future in futures]
        if all(isinstance(r, np.ndarray) for r in shard_results):
            results = np.concatenate(shard_results)
        else:
            results = []
            for shard_result in shard_results:
                results.extend(shard_result)
        if isinstance(self._inner, Oracle):
            self._inner._record(idx, results)
        self._sharded_batches += 1
        self._sharded_records += n
        if isinstance(self._inner, PredicateOracle):
            return np.asarray(results, dtype=bool)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelOracle({self._inner!r}, num_workers={self._num_workers}, "
            f"backend={self._backend!r})"
        )


def parallelize_oracle(
    oracle,
    num_workers: Optional[int],
    backend: str = THREAD_BACKEND,
):
    """Wrap ``oracle`` for sharded execution when it is safe and worthwhile.

    The tolerant entry point the samplers use: returns the oracle unchanged
    when ``num_workers`` resolves to 1, when it is already parallel, when
    its ``evaluate_batch`` is stateful (caching / budgeted wrappers — for
    those, compose the parallel wrapper *inside*; see the module
    docstring), or when the backend cannot preserve its accounting
    (composite oracles on the process backend).  Because parallel
    execution never changes results, silently falling back to serial
    execution is always correct.
    """
    resolve_backend(backend)
    workers = resolve_num_workers(num_workers)
    if workers == 1 or isinstance(oracle, ParallelOracle):
        return oracle
    if not _shard_safe(oracle):
        return oracle
    if backend == PROCESS_BACKEND and not _process_safe(oracle):
        return oracle
    return ParallelOracle(oracle, num_workers=workers, backend=backend)


# Marks threads currently executing a parallel_map task, so a nested
# parallel_map raises instead of deadlocking on its own saturated pool.
# Thread-local works for both backends: process workers run tasks on their
# own (marked) main thread.
_MAP_REENTRANCY = threading.local()


def _run_map_task(fn, *args):
    _MAP_REENTRANCY.active = True
    try:
        return fn(*args)
    finally:
        _MAP_REENTRANCY.active = False


def parallel_map(
    fn: Callable,
    items: Sequence,
    num_workers: Optional[int] = None,
    backend: str = THREAD_BACKEND,
    rng: Optional[RandomState] = None,
) -> List:
    """Order-preserving parallel map with deterministic per-item randomness.

    Runs ``fn(item)`` — or ``fn(item, rng_i)`` when ``rng`` is given — for
    every item and returns results in input order.  The ``i``-th item always
    receives the ``i``-th child stream of ``rng`` (via
    :func:`repro.stats.rng.spawn_shard_streams`), so the output is
    bit-identical for any ``num_workers``, including 1.  This is the
    engine's task-level counterpart to :class:`ParallelOracle`: use it for
    independent trials, per-seed sweeps, or per-group sampling runs.
    Mapped tasks may themselves run samplers with ``num_workers`` — oracle
    shards go to a separate pool, so the levels compose without
    deadlocking — but must not call :func:`parallel_map` again: the nested
    call would wait on the pool its own task occupies, so it raises
    ``RuntimeError`` immediately instead of hanging.

    ``fn`` must not mutate shared state; with the process backend it must be
    picklable.
    """
    workers = resolve_num_workers(num_workers)
    resolve_backend(backend)
    items = list(items)
    streams = (
        spawn_shard_streams(rng, len(items)) if rng is not None else None
    )
    if workers == 1 or len(items) <= 1:
        if streams is None:
            return [fn(item) for item in items]
        return [fn(item, stream) for item, stream in zip(items, streams)]
    if getattr(_MAP_REENTRANCY, "active", False):
        raise RuntimeError(
            "parallel_map called from inside a parallel_map task; the nested "
            "call would wait on the pool its own task occupies (deadlock). "
            "Run the inner level serially (num_workers=None) instead."
        )
    # Submit (fn, item[, stream]) directly — no closures, so the process
    # backend can pickle the task as long as fn itself is picklable.
    pool = _get_pool("map", backend, workers)
    if streams is None:
        futures = [pool.submit(_run_map_task, fn, item) for item in items]
    else:
        futures = [
            pool.submit(_run_map_task, fn, item, stream)
            for item, stream in zip(items, streams)
        ]
    return [future.result() for future in futures]
