"""Stratification by proxy-score quantile (ABaeInit, Algorithm 1).

ABae sorts records by proxy score and splits them into K equal-size strata.
Under the monotonicity assumption this groups records with similar
probability of matching the predicate, which is what makes the optimal
allocation effective.  The class also supports arbitrary index-based
stratifications so ablation benchmarks can compare against random strata.

Caching
-------
Proxy-quantile stratification is a pure function of ``(scores, K,
descending)``, yet figure grids re-derive it for every (budget, seed,
trial) cell of a sweep — an O(n log n) sort plus O(n) validation per cell
that dwarfs the actual sampling work once oracle batching is in place.
Two memoization layers remove that cost:

* :meth:`Stratification.by_proxy_quantile` keeps a weak-keyed per-proxy
  cache, so repeated stratification of the *same proxy object* (the
  experiment runner's per-trial loop, the query executor's repeated
  queries) never re-scores or re-sorts;
* :meth:`Stratification.from_scores` memoizes by a content fingerprint of
  the score vector — ``(sha1(bytes), length, K, descending)`` — so even
  freshly-wrapped copies of the same scores (``PrecomputedProxy`` built
  per trial, MultiPred combined-score vectors) hit the cache.

Cached instances are safe to share because strata are frozen at
construction: every index array is read-only and accessors return views,
never fresh copies.  The one caveat (documented on the facade since PR 1)
is in-place mutation of a score array *after* it has been stratified —
the fingerprint is computed per call, so the content cache notices, but
the weak per-proxy cache cannot; mutate-and-rescore workloads should call
:func:`clear_stratification_cache` or run under
:func:`stratification_cache_disabled`.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.annotations import guard_module_globals
from repro.proxy.base import Proxy
from repro.stats.rng import RandomState

__all__ = [
    "Stratification",
    "stratification_cache_disabled",
    "clear_stratification_cache",
    "stratification_cache_info",
]


# ---------------------------------------------------------------------------
# Plan-level stratification cache
# ---------------------------------------------------------------------------

_CACHE_LOCK = threading.RLock()
# Thread-local depth counter: a disabled context affects only the thread
# that opened it, so one query opting out (``plan_cache=False``) cannot
# strip caching from — or, worse, have its own opt-out cancelled by —
# concurrent queries on other threads.  Depth (not a boolean) makes
# nested contexts on one thread compose correctly.
_CACHE_DISABLED = threading.local()
# Content-addressed cache: (scores-fingerprint, K, descending) -> Stratification.
# Bounded LRU so long-lived servers sweeping many datasets cannot grow it
# without limit.  Two budgets: an entry count (covers a figure grid's
# dataset x K combinations) and a total-records budget, because each entry
# pins O(num_records) of int64 index arrays — 20M cached records is
# ~160 MB of indices regardless of how many entries hold them.
_SCORES_CACHE: "OrderedDict[Tuple, Stratification]" = OrderedDict()
_SCORES_CACHE_MAX_ENTRIES = 128
_SCORES_CACHE_MAX_RECORDS = 20_000_000
_SCORES_CACHE_RECORDS = 0
guard_module_globals(
    "_CACHE_LOCK", "_SCORES_CACHE", "_SCORES_CACHE_RECORDS"
)
# Identity cache: proxy object -> {(K, descending): Stratification}.  Weak
# keys so caching never extends a proxy's lifetime.
_PROXY_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_CACHE_STATS = {"hits": 0, "misses": 0}


def _scores_fingerprint(arr: np.ndarray) -> Tuple[str, int]:
    """Content fingerprint of a score vector: (sha1 of bytes, length)."""
    data = np.ascontiguousarray(arr)
    return (hashlib.sha1(data.tobytes()).hexdigest(), int(arr.shape[0]))


def _cache_enabled() -> bool:
    return getattr(_CACHE_DISABLED, "depth", 0) == 0


@contextmanager
def stratification_cache_disabled():
    """Temporarily bypass the stratification caches (benchmarks, tests).

    Inside the context every :meth:`Stratification.by_proxy_quantile` /
    :meth:`Stratification.from_scores` call rebuilds from scratch, exactly
    as the pre-caching implementation did.  Existing cache entries are
    kept (and used again once the last disabler exits).  The scope is the
    *current thread*: nested contexts compose, and concurrent threads —
    e.g. other queries running with caching on — are unaffected.  Work a
    disabled caller dispatches to worker threads itself is therefore not
    covered; open the context inside the task instead.
    """
    _CACHE_DISABLED.depth = getattr(_CACHE_DISABLED, "depth", 0) + 1
    try:
        yield
    finally:
        _CACHE_DISABLED.depth -= 1


def clear_stratification_cache() -> None:
    """Drop every cached stratification (content and per-proxy layers)."""
    global _SCORES_CACHE_RECORDS
    with _CACHE_LOCK:
        _SCORES_CACHE.clear()
        _SCORES_CACHE_RECORDS = 0
        _PROXY_CACHE.clear()
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0


def stratification_cache_info() -> Dict[str, int]:
    """Hit/miss counters and current sizes (for diagnostics and tests)."""
    with _CACHE_LOCK:
        return {
            "hits": _CACHE_STATS["hits"],
            "misses": _CACHE_STATS["misses"],
            "content_entries": len(_SCORES_CACHE),
            "proxy_entries": len(_PROXY_CACHE),
        }


class Stratification:
    """A partition of record indices into K disjoint strata.

    Strata are immutable once constructed: the index arrays are frozen
    (read-only) and every accessor returns a zero-copy view, so instances
    can be shared freely across trials, threads and the module-level
    caches.
    """

    def __init__(self, strata: Sequence[np.ndarray], num_records: int):
        if not strata:
            raise ValueError("a stratification requires at least one stratum")
        cleaned: List[np.ndarray] = []
        seen = 0
        for k, stratum in enumerate(strata):
            # Always copy: the instance freezes its arrays, and callers'
            # arrays must not change flags (or content) under them.
            arr = np.array(stratum, dtype=np.int64, copy=True)
            if arr.ndim != 1:
                raise ValueError(f"stratum {k} must be a 1-D index array")
            arr.setflags(write=False)
            cleaned.append(arr)
            seen += arr.size
        if seen != num_records:
            raise ValueError(
                f"strata cover {seen} records but the dataset has {num_records}"
            )
        all_indices = np.concatenate(cleaned) if cleaned else np.empty(0, dtype=np.int64)
        if all_indices.size and (all_indices.min() < 0 or all_indices.max() >= num_records):
            raise ValueError("stratum indices out of range for the dataset")
        # With indices known to lie in [0, num_records), a bincount detects
        # duplicates in O(n) — far cheaper than hashing via np.unique, and
        # this constructor sits on the per-query hot path.
        if all_indices.size and np.bincount(all_indices, minlength=num_records).max() > 1:
            raise ValueError("strata must be disjoint (duplicate record index found)")
        self._strata = cleaned
        self._num_records = num_records
        # Read-only derived columns, computed once: repeated accessor calls
        # used to allocate fresh arrays on every access (the per-trial loops
        # of the figure grids called them thousands of times).
        self._sizes = np.array([s.size for s in cleaned], dtype=np.int64)
        self._sizes.setflags(write=False)
        self._weights = self._sizes.astype(float) / max(float(num_records), 1.0)
        self._weights.setflags(write=False)
        self._assignment: Optional[np.ndarray] = None  # built lazily

    # -- Constructors -------------------------------------------------------------
    @classmethod
    def by_proxy_quantile(
        cls, proxy: Proxy, num_strata: int, descending: bool = False
    ) -> "Stratification":
        """Stratify by proxy-score quantile (the paper's ABaeInit).

        Records are sorted by score and split into ``num_strata`` contiguous,
        (almost) equal-size groups.  Ties are broken by record index so the
        stratification is deterministic.  ``descending=True`` puts the
        highest-scoring records in stratum 0; the default ascending order
        matches Algorithm 1's sort.

        Results are memoized per proxy object (weak-keyed), so per-trial
        loops stratifying the same proxy repeatedly pay the O(n log n) sort
        exactly once per (K, descending).
        """
        if isinstance(proxy, Proxy) and _cache_enabled():
            key = (int(num_strata), bool(descending))
            with _CACHE_LOCK:
                per_proxy = _PROXY_CACHE.get(proxy)
                if per_proxy is not None and key in per_proxy:
                    _CACHE_STATS["hits"] += 1
                    return per_proxy[key]
            scores = proxy.scores()
            strat = cls.from_scores(scores, num_strata, descending=descending)
            with _CACHE_LOCK:
                _PROXY_CACHE.setdefault(proxy, {})[key] = strat
            return strat
        scores = proxy.scores()
        return cls.from_scores(scores, num_strata, descending=descending)

    @classmethod
    def from_scores(
        cls, scores: Sequence[float], num_strata: int, descending: bool = False
    ) -> "Stratification":
        """Stratify an explicit score vector by quantile.

        Memoized by content: the cache key is ``(sha1(scores), len(scores),
        num_strata, descending)``, so identical score vectors — even when
        re-wrapped in fresh arrays or proxies per trial — share one
        stratification.  Hashing is O(n) with a tiny constant; the sort,
        split and constructor validation it saves are the expensive parts.

        ``scores`` may also be a dataset-backend column handle (see
        :mod:`repro.data`): the column is materialized for the sort — one
        float column is the irreducible working set of quantile
        stratification — and because the cache key is the *content*
        fingerprint, the same scores served by different backends (dense,
        mmap, chunked) correctly share a single cached stratification.
        """
        from repro.data.backend import as_dense

        arr = as_dense(scores, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scores must be a non-empty 1-D array")
        if num_strata <= 0:
            raise ValueError(f"num_strata must be positive, got {num_strata}")
        if num_strata > arr.size:
            raise ValueError(
                f"cannot build {num_strata} strata from only {arr.size} records"
            )
        if not _cache_enabled():
            return cls._build_from_scores(arr, num_strata, descending)
        key = _scores_fingerprint(arr) + (int(num_strata), bool(descending))
        with _CACHE_LOCK:
            cached = _SCORES_CACHE.get(key)
            if cached is not None:
                _SCORES_CACHE.move_to_end(key)
                _CACHE_STATS["hits"] += 1
                return cached
            _CACHE_STATS["misses"] += 1
        strat = cls._build_from_scores(arr, num_strata, descending)
        global _SCORES_CACHE_RECORDS
        with _CACHE_LOCK:
            if key not in _SCORES_CACHE:
                _SCORES_CACHE[key] = strat
                _SCORES_CACHE_RECORDS += strat.num_records
            while _SCORES_CACHE and (
                len(_SCORES_CACHE) > _SCORES_CACHE_MAX_ENTRIES
                or _SCORES_CACHE_RECORDS > _SCORES_CACHE_MAX_RECORDS
            ):
                _, evicted = _SCORES_CACHE.popitem(last=False)
                _SCORES_CACHE_RECORDS -= evicted.num_records
        return strat

    @classmethod
    def _build_from_scores(
        cls, arr: np.ndarray, num_strata: int, descending: bool
    ) -> "Stratification":
        """The uncached construction path (also used by benchmarks as the
        pre-caching baseline)."""
        order = np.argsort(arr, kind="stable")
        if descending:
            order = order[::-1]
        strata = [np.sort(chunk) for chunk in np.array_split(order, num_strata)]
        return cls(strata, num_records=arr.size)

    @classmethod
    def random(
        cls, num_records: int, num_strata: int, rng: Optional[RandomState] = None
    ) -> "Stratification":
        """A random partition into equal-size strata (ablation baseline)."""
        if num_strata <= 0:
            raise ValueError(f"num_strata must be positive, got {num_strata}")
        if num_strata > num_records:
            raise ValueError(
                f"cannot build {num_strata} strata from only {num_records} records"
            )
        rng = rng or RandomState(0)
        order = rng.permutation(np.arange(num_records))
        strata = [np.sort(chunk) for chunk in np.array_split(order, num_strata)]
        return cls(strata, num_records=num_records)

    @classmethod
    def single_stratum(cls, num_records: int) -> "Stratification":
        """The trivial stratification (equivalent to uniform sampling)."""
        return cls([np.arange(num_records, dtype=np.int64)], num_records=num_records)

    # -- Accessors ----------------------------------------------------------------
    @property
    def num_strata(self) -> int:
        return len(self._strata)

    @property
    def num_records(self) -> int:
        return self._num_records

    def stratum(self, k: int) -> np.ndarray:
        """The record indices belonging to stratum ``k`` (read-only view)."""
        if not 0 <= k < len(self._strata):
            raise IndexError(
                f"stratum index {k} out of range (have {len(self._strata)} strata)"
            )
        return self._strata[k]

    def strata(self) -> List[np.ndarray]:
        """Every stratum's index array (read-only views, zero-copy)."""
        return list(self._strata)

    def sizes(self) -> np.ndarray:
        """Number of records in each stratum (read-only, cached)."""
        return self._sizes

    def weights(self) -> np.ndarray:
        """Fraction of the dataset in each stratum (read-only, cached)."""
        return self._weights

    def stratum_of(self) -> np.ndarray:
        """Array mapping each record index to its stratum (read-only, cached)."""
        if self._assignment is None:
            assignment = np.empty(self._num_records, dtype=np.int64)
            for k, stratum in enumerate(self._strata):
                assignment[stratum] = k
            assignment.setflags(write=False)
            self._assignment = assignment
        return self._assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stratification(num_strata={self.num_strata}, "
            f"num_records={self._num_records})"
        )
