"""Execution configuration: every physical knob of the sampling engine.

The execution substrate has two knobs — ``batch_size`` (oracle batching)
and ``plan_cache`` (process-wide stratification reuse) — that once were
threaded through every ``run_*`` signature, both facades, the query
planner and the experiment runner by hand.  :class:`ExecutionConfig`
collapses that threading into one validated value object:

* every knob is validated **eagerly at construction**, through one shared
  error path (:class:`ExecutionConfigError`, a ``ValueError``), so a bad
  setting fails where it is written rather than deep inside a sampling
  loop;
* the knobs remain *pure execution hints*: estimates, confidence
  intervals and oracle call counts are bit-identical for every setting
  (the contract pinned by ``tests/harness.py``);
* ``config=`` is the only way to set a knob: the per-function
  ``batch_size`` / ``plan_cache`` kwargs were removed in 1.10, and
  :func:`resolve_execution_config` only rejects a ``config`` that is not
  an :class:`ExecutionConfig`.

Concurrent oracle calls are not a knob here: they belong to the oracle.
A blocking :class:`~repro.oracle.remote.AsyncOracle` over a
:class:`~repro.oracle.remote.RemoteEndpoint` spreads each batch over the
endpoint's ``max_in_flight`` slots.

The config also owns the two cross-cutting execution policies the old
signatures could not express: the ``seed`` fallback used when a caller
passes no explicit RNG, and an optional ``progress`` callback the pipeline
invokes as sampling advances (see :class:`ProgressEvent`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.stats.rng import RandomState

__all__ = [
    "ExecutionConfig",
    "ExecutionConfigError",
    "ProgressEvent",
    "resolve_execution_config",
]


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


def resolve_execution_config(
    config: Optional[ExecutionConfig] = None, caller: str = "this function"
) -> ExecutionConfig:
    """The config a run executes with: ``config``, or the defaults for ``None``.

    The one check on a caller-supplied ``config``: anything other than an
    :class:`ExecutionConfig` or ``None`` raises
    :class:`ExecutionConfigError` naming ``caller``.
    """
    if config is None:
        return ExecutionConfig()
    if not isinstance(config, ExecutionConfig):
        raise ExecutionConfigError(
            f"{caller}: config must be an ExecutionConfig or None, got {config!r}"
        )
    return config
