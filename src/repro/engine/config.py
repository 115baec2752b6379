"""Execution configuration: every physical knob of the sampling engine.

PRs 1–3 grew the execution substrate knob by knob — ``batch_size`` (oracle
batching), ``num_workers`` / ``parallel_backend`` (worker-pool sharding),
``plan_cache`` (process-wide stratification reuse) — and threaded each one
through every ``run_*`` signature, both facades, the query planner and the
experiment runner by hand.  :class:`ExecutionConfig` collapses that
four-knob threading into one validated value object:

* every knob is validated **eagerly at construction**, through one shared
  error path (:class:`ExecutionConfigError`, a ``ValueError``), so a bad
  setting fails where it is written rather than deep inside a sampling
  loop;
* the knobs remain *pure execution hints*: estimates, confidence
  intervals and oracle call counts are bit-identical for every setting
  (the contract pinned by ``tests/harness.py``);
* the legacy per-function kwargs keep working as **deprecated aliases**
  via :func:`resolve_execution_config`, which folds them into a config and
  warns loudly.

The config also owns the two cross-cutting execution policies the old
signatures could not express: the ``seed`` fallback used when a caller
passes no explicit RNG, and an optional ``progress`` callback the pipeline
invokes as sampling advances (see :class:`ProgressEvent`).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.parallel import THREAD_BACKEND, resolve_backend, resolve_num_workers
from repro.stats.rng import RandomState

__all__ = [
    "UNSET",
    "ExecutionConfig",
    "ExecutionConfigError",
    "ProgressEvent",
    "resolve_execution_config",
]


class _Unset:
    """Sentinel distinguishing "argument omitted" from an explicit ``None``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<UNSET>"

    def __bool__(self) -> bool:
        return False


UNSET = _Unset()


class ExecutionConfigError(ValueError):
    """A bad execution knob, raised eagerly at configuration time.

    Subclasses ``ValueError`` so existing callers (and tests) that guard
    with ``except ValueError`` keep working; the planner re-wraps it into
    a :class:`~repro.query.errors.PlanningError`.
    """


@dataclass(frozen=True)
class ProgressEvent:
    """One engine progress notification, delivered to ``config.progress``.

    ``phase`` is ``"draw"`` (one stratum's draw executed), ``"allocate"``
    (a new allocation round was planned) or ``"finalize"`` (sampling is
    complete).  ``spent`` counts oracle draws charged so far; ``budget``
    is the session's current total budget (which can grow via top-ups).
    """

    phase: str
    round_index: int
    stratum: Optional[int]
    drawn: int
    spent: int
    budget: Optional[int]


@dataclass(frozen=True)
class ExecutionConfig:
    """How a sampling run executes — never *what* it computes.

    Parameters
    ----------
    batch_size:
        Records per oracle invocation batch (``None`` = whole per-stratum
        draws at once, ``1`` = the strictly sequential legacy path).
    num_workers:
        Worker-pool shards per oracle batch (``None`` = serial).
    parallel_backend:
        ``"thread"`` (oracles that release the GIL) or ``"process"``
        (pure-Python picklable oracles); see :mod:`repro.core.parallel`.
    plan_cache:
        Whether execution may reuse the process-wide proxy-scores /
        stratification caches (see :mod:`repro.core.stratification`).
    seed:
        Fallback seed used when a run is started without an explicit
        ``rng`` (``None`` keeps the historical seed-0 default).
    progress:
        Optional callback invoked with :class:`ProgressEvent` instances as
        the pipeline advances.  Purely observational — it must not mutate
        sampler state.

    All fields are validated in ``__post_init__`` through the one shared
    error path; every error is an :class:`ExecutionConfigError`.
    """

    batch_size: Optional[int] = None
    num_workers: Optional[int] = None
    parallel_backend: str = THREAD_BACKEND
    plan_cache: bool = True
    seed: Optional[int] = None
    progress: Optional[Callable[[ProgressEvent], None]] = None

    def __post_init__(self):
        messages = list(self._validation_errors())
        if messages:
            # One raise covering every invalid field: a caller fixing a
            # config learns all the problems (and all the allowed values)
            # in one round trip instead of one per attempt.
            raise ExecutionConfigError("; ".join(messages))

    def _validation_errors(self):
        """Yield one message per invalid field (the shared error path)."""
        if self.batch_size is not None and (
            not isinstance(self.batch_size, (int, np.integer))
            or isinstance(self.batch_size, bool)
            or self.batch_size < 1
        ):
            yield (
                f"batch_size must be a positive integer or None, got "
                f"{self.batch_size!r}"
            )
        elif isinstance(self.batch_size, np.integer):
            object.__setattr__(self, "batch_size", int(self.batch_size))
        try:
            resolve_num_workers(self.num_workers)
        except ValueError as exc:
            yield str(exc)
        else:
            if isinstance(self.num_workers, np.integer):
                object.__setattr__(self, "num_workers", int(self.num_workers))
        try:
            resolve_backend(self.parallel_backend)
        except ValueError as exc:
            yield str(exc)
        if not isinstance(self.plan_cache, bool):
            yield f"plan_cache must be a boolean, got {self.plan_cache!r}"
        if self.seed is not None and (
            not isinstance(self.seed, (int, np.integer))
            or isinstance(self.seed, bool)
        ):
            yield f"seed must be an integer or None, got {self.seed!r}"
        elif isinstance(self.seed, np.integer):
            object.__setattr__(self, "seed", int(self.seed))
        if self.progress is not None and not callable(self.progress):
            yield f"progress must be callable or None, got {self.progress!r}"

    # -- Derived helpers -----------------------------------------------------------
    def merged(self, **overrides) -> "ExecutionConfig":
        """A copy with the given fields replaced (``UNSET`` values ignored).

        An explicit ``None`` override is honoured — it legitimately means
        "whole-draw batches" / "serial execution" for the two knobs where
        ``None`` is a value, matching the facades' historical override
        semantics.
        """
        effective = {k: v for k, v in overrides.items() if v is not UNSET}
        unknown = set(effective) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ExecutionConfigError(
                f"unknown execution knobs: {sorted(unknown)}"
            )
        if not effective:
            return self
        return dataclasses.replace(self, **effective)

    def make_rng(self, rng: Optional[RandomState] = None) -> RandomState:
        """The run's random state: explicit ``rng`` wins, else ``seed``.

        The historical samplers defaulted to ``RandomState(0)`` when no
        RNG was supplied; ``seed=None`` preserves that default exactly.
        """
        if rng is not None:
            return rng
        return RandomState(self.seed if self.seed is not None else 0)

    def notify(self, event: ProgressEvent) -> None:
        """Deliver a progress event, if a callback is configured."""
        if self.progress is not None:
            self.progress(event)


_LEGACY_KNOBS = ("batch_size", "num_workers", "parallel_backend", "plan_cache")


def resolve_execution_config(
    config: Optional[ExecutionConfig] = None,
    caller: str = "this function",
    *,
    default: Optional[ExecutionConfig] = None,
    warn_legacy: bool = True,
    stacklevel: int = 2,
    batch_size=UNSET,
    num_workers=UNSET,
    parallel_backend=UNSET,
    plan_cache=UNSET,
) -> ExecutionConfig:
    """Merge deprecated per-knob kwargs into an :class:`ExecutionConfig`.

    This is the single compatibility shim behind every ``run_*`` function,
    both facades and the query layer: callers that still pass the legacy
    ``batch_size`` / ``num_workers`` / ``parallel_backend`` / ``plan_cache``
    kwargs get a :class:`DeprecationWarning` naming the knobs (so the old
    style keeps working *loudly*), and the values are folded into the
    config — overriding the corresponding field when a config was also
    given.  ``default`` supplies the base config when the caller passed
    none (used by the facades, whose instance-level config is the base for
    per-call overrides).

    ``stacklevel`` controls which frame the warning is attributed to, so
    the user sees *their own* line, never a frame inside this module.
    The default (2) is correct when user code calls this function
    directly; the engine's wrappers (``run_*``, the facades, the query
    layer) pass 3 because they add one frame between the user and the
    warning.
    """
    if config is not None and not isinstance(config, ExecutionConfig):
        raise ExecutionConfigError(
            f"config must be an ExecutionConfig or None, got {config!r}"
        )
    overrides = {
        name: value
        for name, value in (
            ("batch_size", batch_size),
            ("num_workers", num_workers),
            ("parallel_backend", parallel_backend),
            ("plan_cache", plan_cache),
        )
        if value is not UNSET
    }
    if overrides and warn_legacy:
        knobs = ", ".join(sorted(overrides))
        warnings.warn(
            f"passing {knobs} directly to {caller} is deprecated; pass "
            f"them via config=ExecutionConfig(...) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
    base = config if config is not None else (default or ExecutionConfig())
    return base.merged(**overrides)
