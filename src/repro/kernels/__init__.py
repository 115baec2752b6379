"""repro.kernels — a compatibility stub that names the array backend.

perfbench's worker (``perfbench/worker.py``) reads ``kernel_set().backend``
into every run's environment fingerprint.  The sampler inner loops are
plain NumPy next to their callers, so the backend is always ``"numpy"``.
This module goes with the next benchmark change (ROADMAP item 5).
"""

__all__ = ["kernel_set"]


def kernel_set():
    """The array backend every sampler inner loop runs on."""
    from types import SimpleNamespace

    return SimpleNamespace(backend="numpy")
