"""Memory-mapped dataset backend over an on-disk column directory.

``np.memmap`` gives each column the full ndarray interface while the OS
pages data in on demand and evicts it under memory pressure: a gather of
``k`` sampled records touches at most ``k`` pages per column, so a query
whose oracle budget is tiny relative to the dataset (ABae's whole
premise) keeps a resident set proportional to the *sample*, not the
dataset.  This is the backend of choice whenever the dataset lives on
local disk and exceeds — or would crowd out — RAM.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.data.backend import ColumnHandle, DatasetBackend
from repro.data.diskio import column_file, read_manifest

__all__ = ["MmapColumnHandle", "MmapBackend"]

PathLike = Union[str, Path]


class MmapColumnHandle(ColumnHandle):
    """A column handle over one memory-mapped column file."""

    def __init__(self, name: str, path: Path, dtype: np.dtype, num_records: int):
        self._name = name
        self._path = Path(path)
        self._dtype = np.dtype(dtype)
        self._num_records = int(num_records)
        self._mmap = None  # opened lazily, kept for the handle's lifetime

    def _map(self) -> np.memmap:
        if self._mmap is None:
            self._mmap = np.memmap(
                self._path, dtype=self._dtype, mode="r", shape=(self._num_records,)
            )
        return self._mmap

    @property
    def name(self) -> str:
        return self._name

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def __len__(self) -> int:
        return self._num_records

    def gather(self, record_indices: Sequence[int]) -> np.ndarray:
        idx = self._normalize_indices(record_indices)
        # Fancy indexing a memmap allocates a dense result and reads only
        # the touched pages — exactly the samplers' access pattern.
        return np.asarray(self._map()[idx])

    def to_numpy(self) -> np.ndarray:
        """The full column as the (read-only) memmap view — lazily paged."""
        return self._map()

    def close(self) -> None:
        self._mmap = None

    # The map itself cannot cross process boundaries; an unpickled copy
    # reopens the file lazily from the path.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_mmap"] = None
        return state


class MmapBackend(DatasetBackend):
    """Dataset backend memory-mapping a column directory.

    Open an ingested directory (see :mod:`repro.data.diskio` for the
    format and ``scripts/ingest_dataset.py`` for the CLI)::

        backend = MmapBackend("datasets/night-street-1m")
        proxy = BackedProxy(backend, "proxy_score")
        oracle = LabelColumnOracle(backend.column("label"))
    """

    def __init__(self, directory: PathLike):
        self._directory = Path(directory)
        manifest = read_manifest(self._directory)
        self._manifest = manifest
        self._name = manifest.get("name", self._directory.name)
        self._num_records = int(manifest["num_records"])
        self._handles: Dict[str, MmapColumnHandle] = {
            col_name: MmapColumnHandle(
                col_name,
                column_file(self._directory, col_name),
                np.dtype(spec["dtype"]),
                self._num_records,
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

    def column_names(self) -> List[str]:
        return list(self._handles.keys())

    def column(self, column_name: str) -> MmapColumnHandle:
        try:
            return self._handles[column_name]
        except KeyError:
            raise self._missing_column(column_name) from None

    def close(self) -> None:
        """Drop every open map (handles reopen lazily if used again)."""
        for handle in self._handles.values():
            handle.close()
