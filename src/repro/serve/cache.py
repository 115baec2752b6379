"""Process-wide shared oracle answer cache: cross-query deduplication.

A serving deployment answers many concurrent queries over the same
datasets, and different users routinely apply the *same* expensive
predicate (the same DNN, the same labeling endpoint) to overlapping
record sets.  This module dedupes oracle answers in a **process-wide
store keyed by (oracle identity, record index)**, within one query and
across queries, so the
second query that needs ``count_cars(frame 1234)`` gets the first query's
answer for free.

Semantics
---------
* The cache never changes *answers* — only *who pays*.  A record's cached
  answer is exactly what the underlying oracle returned when some query
  first evaluated it, so estimates remain bit-identical with or without
  sharing (oracles are deterministic per record); only the inner oracle's
  invocation count shrinks.
* ``identity`` names the logical oracle, not the wrapper instance: two
  queries whose oracles share an identity share answers.  Identities must
  only be shared between oracles that are genuinely interchangeable —
  answering the same question over the same dataset.
* Accounting is exact and thread-safe: every lookup is classified as one
  hit or one miss, and counters are only committed once the answers are
  in hand, so concurrent queries cannot double-evaluate a record or lose
  counter updates.
* The **hit path never waits on a fill**: fully-cached lookups complete
  under one short store-lock hold, while misses evaluate outside the
  store lock under a *per-identity* fill lock.  A slow remote fill for
  one identity therefore serializes only lookups of that same identity —
  unrelated identities (other predicates, other datasets) read and fill
  concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.annotations import guarded_by
from repro.oracle.base import Oracle, evaluate_oracle_batch

__all__ = ["CacheStats", "SharedOracleCache", "SharedCachingOracle"]


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the store's accounting."""

    hits: int
    misses: int
    entries: int
    identities: int
    evictions: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return self.hits / total if total else 0.0


@guarded_by(
    "_lock",
    "_store",
    "_fill_locks",
    "_hits",
    "_misses",
    "_evictions",
    "_identities",
)
class SharedOracleCache:
    """Thread-safe oracle answer store keyed by (identity, record index).

    ``max_entries`` (optional) bounds residency with LRU eviction — purely
    a memory/performance control: an evicted record is simply re-evaluated
    (and re-charged) on its next miss, which never changes answers.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer or None, got {max_entries}"
            )
        self._max_entries = max_entries
        self._store: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.RLock()
        # One fill lock per identity: misses evaluate under it, outside
        # the store lock, so slow fills never block other identities.
        self._fill_locks: Dict[str, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._identities: Dict[str, int] = {}

    @property
    def max_entries(self) -> Optional[int]:
        return self._max_entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._store),
                identities=len(self._identities),
                evictions=self._evictions,
            )

    def clear(self) -> None:
        """Empty the store and zero the accounting."""
        with self._lock:
            self._store.clear()
            self._fill_locks.clear()
            self._identities.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    # -- Core protocol (used by SharedCachingOracle) --------------------------------
    def fill_batch(self, identity: str, record_indices, evaluate) -> list:
        """Answers for ``record_indices``, evaluating only uncached records.

        Fast path: if every record is already cached, the answers are
        gathered under one short store-lock hold and the call never
        touches a fill lock.  Otherwise the uncached records (deduplicated,
        first-occurrence order) are evaluated under this *identity's* fill
        lock with the store lock released — so a slow fill blocks only
        same-identity callers, never the hit path of other identities.
        Concurrent fills of the same identity serialize, and records a
        racing filler already stored are re-classified as hits rather than
        re-evaluated; ``evaluate`` runs once per remaining miss set (with
        a bounded eviction ceiling, at most once per round of the
        re-classification loop).  Accounting commits only once answers are
        in hand, so an ``evaluate`` that raises — including a cooperative
        remote oracle parking mid-fill — charges nothing, and the retried
        call counts the lookup exactly once.
        """
        keys = [int(k) for k in np.asarray(record_indices, dtype=np.int64).tolist()]
        with self._lock:
            answers = self._gather_if_cached_locked(identity, keys)
            if answers is not None:
                self._hits += len(keys)
                return answers
        with self._identity_fill_lock(identity):
            charged = 0
            while True:
                with self._lock:
                    store = self._store
                    pending = []
                    pending_set = set()
                    for key in keys:
                        if (identity, key) not in store and key not in pending_set:
                            pending.append(key)
                            pending_set.add(key)
                    if not pending:
                        self._hits += max(0, len(keys) - charged)
                        return self._gather_locked(identity, keys)
                fresh = evaluate(pending)
                if len(fresh) != len(pending):
                    raise ValueError(
                        f"oracle returned {len(fresh)} answers for "
                        f"{len(pending)} records"
                    )
                with self._lock:
                    for key, value in zip(pending, fresh):
                        self._store[(identity, key)] = value
                    self._misses += len(pending)
                    self._identities[identity] = (
                        self._identities.get(identity, 0) + len(pending)
                    )
                charged += len(pending)

    def _identity_fill_lock(self, identity: str) -> threading.Lock:
        with self._lock:
            lock = self._fill_locks.get(identity)
            if lock is None:
                lock = self._fill_locks[identity] = threading.Lock()
            return lock

    def _gather_if_cached_locked(self, identity: str, keys) -> Optional[list]:
        store = self._store
        for key in keys:
            if (identity, key) not in store:
                return None
        return self._gather_locked(identity, keys)

    def _gather_locked(self, identity: str, keys) -> list:
        answers = []
        store = self._store
        for key in keys:
            full_key = (identity, key)
            value = store[full_key]
            store.move_to_end(full_key)
            answers.append(value)
        self._evict_locked()
        return answers

    def _evict_locked(self) -> None:
        if self._max_entries is None:
            return
        while len(self._store) > self._max_entries:
            (identity, _), _ = self._store.popitem(last=False)
            self._evictions += 1
            remaining = self._identities.get(identity, 0) - 1
            if remaining > 0:
                self._identities[identity] = remaining
            else:
                self._identities.pop(identity, None)
                # The identity left the store entirely: drop its fill lock
                # too, or a churning identity population (per-tenant
                # oracles, rotating datasets) grows _fill_locks without
                # bound.  A racing filler holding the popped lock stays
                # correct — fills re-check the store under _lock and
                # commit idempotently — it just loses the dedup benefit
                # for that one round.
                self._fill_locks.pop(identity, None)

    # -- Introspection --------------------------------------------------------------
    def contains(self, identity: str, record_index: int) -> bool:
        with self._lock:
            return (identity, int(record_index)) in self._store

    def entries_for(self, identity: str) -> int:
        """How many records are currently cached under ``identity``."""
        with self._lock:
            return self._identities.get(identity, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"SharedOracleCache(entries={s.entries}, identities={s.identities}, "
            f"hits={s.hits}, misses={s.misses})"
        )


class SharedCachingOracle(Oracle):
    """An oracle view onto a :class:`SharedOracleCache`.

    Each query wraps its oracle in one of these, and every wrapper sharing
    a ``(store, identity)`` pair dedupes against the same answers.  This
    wrapper's ``num_calls`` counts the records *this query* actually paid
    to label (its misses); hits are free, whether they were filled by this
    query or by another tenant's.
    """

    def __init__(
        self,
        oracle,
        store: SharedOracleCache,
        identity: Optional[str] = None,
        name: Optional[str] = None,
    ):
        inner_name = getattr(oracle, "name", type(oracle).__name__)
        super().__init__(
            name=name or f"shared({inner_name})",
            cost_per_call=getattr(oracle, "cost_per_call", 1.0),
        )
        self._inner = oracle
        self._store = store
        self._identity = identity if identity is not None else inner_name
        self._hits = 0
        self._misses = 0

    @property
    def inner(self):
        return self._inner

    @property
    def store(self) -> SharedOracleCache:
        return self._store

    @property
    def identity(self) -> str:
        return self._identity

    @property
    def hits(self) -> int:
        """Lookups this wrapper answered from the shared store."""
        return self._hits

    @property
    def misses(self) -> int:
        """Records this wrapper paid to label (charged to the inner oracle)."""
        return self._misses

    def evaluate_batch(self, record_indices: Sequence[int]) -> list:
        def evaluate(pending):
            fresh = evaluate_oracle_batch(
                self._inner, np.asarray(pending, dtype=np.int64)
            )
            self._misses += len(pending)
            self._record(pending, fresh)
            return fresh

        before = self._misses
        answers = self._store.fill_batch(self._identity, record_indices, evaluate)
        self._hits += len(answers) - (self._misses - before)
        return answers

    def __call__(self, record_index: int):
        return self.evaluate_batch([record_index])[0]

    def _evaluate(self, record_index: int):  # pragma: no cover - not used
        return self._inner(record_index)
