"""Chunked dataset backend: fixed-size shards with an LRU of resident chunks.

Where :class:`~repro.data.mmap.MmapBackend` delegates residency to the
OS page cache, this backend manages it explicitly: each column is read in
fixed-size element chunks, at most ``max_resident_chunks`` of which are
held at a time across all columns.  That gives a *hard, predictable*
memory ceiling — ``max_resident_chunks x chunk_size x itemsize`` — which
is the right tool when the dataset vastly exceeds RAM, lives on storage
where mmap is unavailable or undesirable (network filesystems), or must
share a box with memory-sensitive neighbours (the HTAP-style deployments
the ROADMAP targets).

Gathers group the requested indices by chunk so each needed chunk is
loaded (or LRU-hit) exactly once per call; values are bit-identical to
the other backends by construction — same bytes, same dtype.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.analysis.annotations import guarded_by
from repro.data.backend import ColumnHandle, DatasetBackend
from repro.data.diskio import column_file, read_manifest

__all__ = ["ChunkedColumnHandle", "ChunkedBackend", "DEFAULT_CHUNK_SIZE"]

DEFAULT_CHUNK_SIZE = 65_536
PathLike = Union[str, Path]


@guarded_by("_lock", "_chunks", "hits", "misses", "evictions")
class _ChunkCache:
    """Backend-wide LRU of resident chunks, shared across columns.

    Keyed ``(column_name, chunk_index)``; thread-safe because a blocking
    :class:`~repro.oracle.remote.AsyncOracle` runs its transport, which
    gathers answer columns, on several endpoint threads at once.
    """

    def __init__(self, max_resident_chunks: int):
        if max_resident_chunks < 1:
            raise ValueError(
                f"max_resident_chunks must be at least 1, got {max_resident_chunks}"
            )
        self._max = int(max_resident_chunks)
        self._chunks: "OrderedDict[Tuple[str, int], np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple[str, int]):
        with self._lock:
            chunk = self._chunks.get(key)
            if chunk is not None:
                self._chunks.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return chunk

    def put(self, key: Tuple[str, int], chunk: np.ndarray) -> None:
        with self._lock:
            if key not in self._chunks:
                self._chunks[key] = chunk
            while len(self._chunks) > self._max:
                self._chunks.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._chunks.clear()

    @property
    def resident(self) -> int:
        with self._lock:
            return len(self._chunks)

    @property
    def resident_nbytes(self) -> int:
        with self._lock:
            return sum(chunk.nbytes for chunk in self._chunks.values())

    # Locks cannot be pickled and resident chunks should not travel to
    # worker processes; an unpickled cache starts cold with fresh counters.
    def __getstate__(self):
        return {"_max": self._max}

    def __setstate__(self, state):
        self.__init__(state["_max"])


class ChunkedColumnHandle(ColumnHandle):
    """A column read chunk-by-chunk through the backend's shared LRU."""

    def __init__(
        self,
        name: str,
        path: Path,
        dtype: np.dtype,
        num_records: int,
        chunk_size: int,
        cache: _ChunkCache,
    ):
        self._name = name
        self._path = Path(path)
        self._dtype = np.dtype(dtype)
        self._num_records = int(num_records)
        self._chunk_size = int(chunk_size)
        self._cache = cache

    @property
    def name(self) -> str:
        return self._name

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def __len__(self) -> int:
        return self._num_records

    @property
    def num_chunks(self) -> int:
        return -(-self._num_records // self._chunk_size)

    def _load_chunk(self, chunk_index: int) -> np.ndarray:
        key = (self._name, chunk_index)
        chunk = self._cache.get(key)
        if chunk is not None:
            return chunk
        start = chunk_index * self._chunk_size
        count = min(self._chunk_size, self._num_records - start)
        chunk = np.fromfile(
            self._path,
            dtype=self._dtype,
            count=count,
            offset=start * self._dtype.itemsize,
        )
        chunk.setflags(write=False)
        self._cache.put(key, chunk)
        return chunk

    def gather(self, record_indices: Sequence[int]) -> np.ndarray:
        idx = self._normalize_indices(record_indices)
        out = np.empty(idx.shape[0], dtype=self._dtype)
        if idx.size == 0:
            return out
        chunk_ids = idx // self._chunk_size
        # Visit each needed chunk once, in ascending order, scattering its
        # values back to the request positions.
        order = np.argsort(chunk_ids, kind="stable")
        sorted_chunks = chunk_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_chunks)) + 1
        for group in np.split(order, boundaries):
            chunk_index = int(chunk_ids[group[0]])
            chunk = self._load_chunk(chunk_index)
            out[group] = chunk[idx[group] - chunk_index * self._chunk_size]
        return out

    def chunks(self):
        """Iterate the column's chunks in order (for full scans / export)."""
        for chunk_index in range(self.num_chunks):
            yield self._load_chunk(chunk_index)

    def to_numpy(self) -> np.ndarray:
        """Materialize the full column (one dense allocation).

        Reads straight from disk rather than through the LRU so a full
        scan does not evict the working set of concurrent gathers.
        """
        return np.fromfile(self._path, dtype=self._dtype, count=self._num_records)


class ChunkedBackend(DatasetBackend):
    """Dataset backend with explicit chunk residency over a column directory.

    ``chunk_size`` is in *elements* (not bytes) so chunk boundaries align
    across columns of different widths; ``max_resident_chunks`` bounds
    the total chunks held across all columns.  The default configuration
    caps residency at ``16 x 65536 x 8B = 8 MiB`` of float64 — tune both
    knobs to the deployment's memory budget.
    """

    def __init__(
        self,
        directory: PathLike,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_resident_chunks: int = 16,
    ):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self._directory = Path(directory)
        manifest = read_manifest(self._directory)
        self._name = manifest.get("name", self._directory.name)
        self._num_records = int(manifest["num_records"])
        self._chunk_size = int(chunk_size)
        self._cache = _ChunkCache(max_resident_chunks)
        self._handles: Dict[str, ChunkedColumnHandle] = {
            col_name: ChunkedColumnHandle(
                col_name,
                column_file(self._directory, col_name),
                np.dtype(spec["dtype"]),
                self._num_records,
                self._chunk_size,
                self._cache,
            )
            for col_name, spec in manifest["columns"].items()
        }

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def chunk_size(self) -> int:
        return self._chunk_size

    def column_names(self) -> List[str]:
        return list(self._handles.keys())

    def column(self, column_name: str) -> ChunkedColumnHandle:
        try:
            return self._handles[column_name]
        except KeyError:
            raise self._missing_column(column_name) from None

    def cache_info(self) -> Dict[str, int]:
        """Residency and hit/miss counters (diagnostics and tests)."""
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "evictions": self._cache.evictions,
            "resident_chunks": self._cache.resident,
            "resident_nbytes": self._cache.resident_nbytes,
        }

    def close(self) -> None:
        self._cache.clear()
