"""Async RPC oracle protocol: remote services with batching, retries, parking.

The paper's expensive predicates are model-serving endpoints (Mask R-CNN
behind a GPU server, a labeling API), not in-process callables: every
invocation is a *remote procedure call* with real latency, rate limits
and partial failure.  This module adapts any oracle-shaped transport into
that shape — and, crucially, lets the serving layer *overlap* oracle wait
time across queries instead of blocking a scheduler tick on every slow
batch.

Three pieces:

* :class:`RemoteEndpoint` — the client-side view of one remote scoring
  service.  Sub-requests submitted by any number of callers are
  **coalesced** into merged batches (whole sub-requests, up to
  ``max_batch_size`` records; a batch also launches once its oldest
  sub-request is ``max_delay`` old, or on an explicit :meth:`flush`).
  Launched batches run on a bounded worker pool — ``max_in_flight`` is
  the concurrency limiter — with per-request timeouts and retries under
  exponential backoff whose jitter comes from a dedicated seeded
  :class:`~repro.stats.rng.RandomState`, so backoff schedules are
  reproducible.  All failure accounting lands in :class:`RemoteCallStats`.
* :class:`RemoteTicket` — one caller's pending sub-request: poll it
  (:meth:`~RemoteTicket.ready` / :meth:`~RemoteTicket.poll`) or block on
  it (:meth:`~RemoteTicket.wait`); :meth:`~RemoteTicket.result` returns
  the answers aligned with the submitted records or raises the terminal
  error.
* :class:`AsyncOracle` — the :class:`~repro.oracle.base.Oracle` adapter.
  In **blocking** mode (the default) ``evaluate_batch`` splits the batch
  into ``min(max_in_flight, n)`` contiguous sub-requests (see
  :func:`shard_slices`), flushes, and waits — a drop-in oracle whose
  callers simply tolerate retries, and whose batches spread over the
  endpoint's in-flight slots.  This is the one mechanism for concurrent
  oracle calls: an in-process oracle gains the same overlap by being
  wrapped as the endpoint's transport.  In **cooperative** mode
  (``blocking=False``) a not-yet-ready batch raises
  :class:`PendingOracleBatch` instead of waiting; the sampling session
  catches it, rewinds its RNG, and the serving scheduler parks the query
  in ``WAITING`` and steps *other* queries while the batch is in flight.

Determinism contract
--------------------
Retries and timeouts change *time*, never *answers*: a transport answers
per record deterministically, so however many attempts a batch needs, the
results a caller receives — and therefore every estimate and the
:class:`AsyncOracle`'s own accounting (one charge per successfully
answered record, through the standard ``Oracle._record`` /
``ColumnarCallLog`` path) — are bit-identical to a failure-free run.  The
cooperative path preserves this exactly: a parked draw step consumed
session RNG only for record selection, the session restores that state
before re-raising, and the retried step re-selects the *same* records
(``tests/test_serve_remote.py`` pins this on the fingerprint grid).

Splitting is positional, never temporal: the sub-requests depend only on
``(n, max_in_flight)``, their answers are joined in record order, and the
batch is recorded once on the calling thread, so a blocking batch's
answers and accounting are identical for every ``max_in_flight``.

Cooperative mode is single-caller by design (one sampling session drives
one ``AsyncOracle``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import clock as repro_clock
from repro.analysis.annotations import guarded_by
from repro.oracle.base import Oracle, evaluate_oracle_batch
from repro.stats.rng import RandomState

__all__ = [
    "RemoteCallError",
    "RemoteCallTimeout",
    "RemoteGiveUpError",
    "RemoteCircuitOpenError",
    "PendingOracleBatch",
    "RemoteCallStats",
    "RemoteTicket",
    "RemoteEndpoint",
    "AsyncOracle",
    "shard_slices",
]


def shard_slices(total: int, num_shards: int) -> Iterator[slice]:
    """Split ``range(total)`` into at most ``num_shards`` contiguous slices.

    Shard sizes differ by at most one and depend only on ``(total,
    num_shards)``, never on timing or worker availability.  Empty shards
    are not yielded; ``total == 0`` yields nothing.
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


class RemoteCallError(RuntimeError):
    """A transport-level failure of one remote batch attempt (retryable)."""


class RemoteCallTimeout(RemoteCallError):
    """An attempt that exceeded the per-request timeout (retryable)."""


class RemoteGiveUpError(RemoteCallError):
    """A batch abandoned after exhausting its retries (terminal).

    Raised to every caller whose sub-request rode the abandoned batch;
    ``__cause__`` carries the last attempt's error.
    """


class RemoteCircuitOpenError(RemoteGiveUpError):
    """A batch rejected without a transport attempt: the breaker is open.

    Subclasses :class:`RemoteGiveUpError` so every degradation path that
    handles a give-up (the serving scheduler's ``DegradedResult`` path)
    also covers fast-fail under an open circuit.
    """


class PendingOracleBatch(Exception):
    """Cooperative-mode signal: the requested batch is still in flight.

    Carries the :class:`RemoteTicket` to poll/wait on.  The sampling
    session translates this into a parked step (RNG rewound, no state
    mutated) and the serving scheduler into a ``WAITING`` task; neither
    treats it as a failure.
    """

    def __init__(self, ticket: "RemoteTicket", oracle: Optional[Oracle] = None):
        super().__init__(
            f"remote oracle batch of {len(ticket.record_indices)} records "
            "is still in flight"
        )
        self.ticket = ticket
        self.oracle = oracle


@dataclass(frozen=True)
class RemoteCallStats:
    """A consistent snapshot of one endpoint's failure/volume accounting.

    ``attempts`` counts transport invocations (including retries);
    ``retries`` the re-invocations after a retryable failure;
    ``timeouts`` / ``failures`` classify the failed attempts; ``giveups``
    the batches abandoned after ``max_retries``.  ``requests`` /
    ``records`` / ``batches`` measure volume: sub-requests submitted,
    record indices they carried, and merged batches launched —
    ``requests - batches`` sub-requests rode a coalesced batch for free.
    """

    requests: int
    records: int
    batches: int
    attempts: int
    retries: int
    timeouts: int
    failures: int
    giveups: int
    pending_requests: int
    in_flight_batches: int
    # Circuit-breaker accounting (all zero/"closed" when disabled):
    # the current consecutive-give-up run, how many times the breaker
    # tripped, batches rejected without a transport attempt while open,
    # and the current state ("closed" / "open" / "half_open").
    giveup_streak: int = 0
    breaker_opens: int = 0
    short_circuits: int = 0
    breaker_state: str = "closed"

    @property
    def coalesced(self) -> int:
        """Launched sub-requests beyond one per batch (shared a batch)."""
        return (self.requests - self.pending_requests) - self.batches


class RemoteTicket:
    """One submitted sub-request: resolves to answers or a terminal error."""

    __slots__ = (
        "endpoint",
        "record_indices",
        "created_at",
        "_event",
        "_results",
        "_error",
    )

    def __init__(self, endpoint: "RemoteEndpoint", record_indices: np.ndarray):
        self.endpoint = endpoint
        self.record_indices = record_indices
        self.created_at = endpoint.clock()
        self._event = threading.Event()
        self._results: Optional[Sequence] = None
        self._error: Optional[BaseException] = None

    def ready(self) -> bool:
        """Whether the sub-request has resolved (successfully or not)."""
        return self._event.is_set()

    def poll(self) -> bool:
        """Like :meth:`ready`, but first gives the endpoint a chance to
        launch overdue batches (the ``max_delay`` trigger)."""
        if not self._event.is_set():
            self.endpoint.maybe_flush()
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; flushes the endpoint first so a partial
        batch can never deadlock a waiting caller."""
        if not self._event.is_set():
            self.endpoint.flush()
        return self._event.wait(timeout)

    def result(self) -> Sequence:
        """The answers aligned with the submitted records.

        Raises :class:`RemoteGiveUpError` (or the terminal error) if the
        batch was abandoned, and ``RuntimeError`` if not yet resolved.
        """
        if not self._event.is_set():
            raise RuntimeError("remote batch has not resolved yet; wait() first")
        if self._error is not None:
            raise self._error
        return self._results

    # -- Resolution (called by the endpoint's worker) -----------------------------
    def _resolve(self, results: Sequence) -> None:
        self._results = results
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ready" if self.ready() else "pending"
        return f"RemoteTicket({len(self.record_indices)} records, {state})"


@guarded_by(
    "_lock",
    "_queue",
    "_executor",
    "_closed",
    "_requests",
    "_records",
    "_batches",
    "_attempts",
    "_retries",
    "_timeouts",
    "_failures",
    "_giveups",
    "_in_flight",
    "_breaker_state",
    "_breaker_opened_at",
    "_giveup_streak",
    "_breaker_opens",
    "_short_circuits",
)
class RemoteEndpoint:
    """Client-side batching, concurrency limiting and retry engine.

    Parameters
    ----------
    transport:
        The remote service: anything oracle-shaped — an
        :class:`~repro.oracle.base.Oracle` (its ``evaluate_batch`` is
        used) or a plain ``record_index -> answer`` callable.  Transient
        failures are signalled by raising :class:`RemoteCallError` /
        :class:`RemoteCallTimeout`; any other exception is terminal
        (resolved to the affected callers without retry).
    max_batch_size:
        Coalescing ceiling in records.  Whole sub-requests are merged —
        a sub-request is never split — so a single oversized sub-request
        forms its own batch.
    max_delay:
        Seconds a queued sub-request may age before :meth:`maybe_flush`
        launches its (partial) batch.  ``0.0`` (default) launches on the
        first poll after submission — right for a cooperative scheduler
        that polls between steps.
    max_in_flight:
        Concurrency limiter: the worker pool runs at most this many
        batches at once; further launches queue.
    timeout:
        Per-attempt ceiling in seconds (``None`` disables).  An attempt
        whose transport raises :class:`RemoteCallTimeout`, or whose
        wall-clock exceeds the ceiling, counts as a timeout and is
        retried; a late answer is discarded like a lost response.
    max_retries / backoff_base / backoff_multiplier / jitter_fraction / seed:
        Retry policy: up to ``max_retries`` re-attempts, sleeping
        ``backoff_base * backoff_multiplier**i * (1 + jitter_fraction*u)``
        before re-attempt ``i`` where ``u`` is drawn from a dedicated
        ``RandomState(seed)`` — deterministic, and never shared with any
        sampling session.
    breaker_threshold / breaker_cooldown:
        Optional circuit breaker on give-up streaks.  After
        ``breaker_threshold`` *consecutive* give-ups the breaker opens:
        batches fail fast with :class:`RemoteCircuitOpenError` (no
        transport attempt, no retry sleeps) until ``breaker_cooldown``
        seconds pass, then one probe batch is admitted (half-open) — its
        success closes the breaker, another give-up re-opens it.
        ``None`` (default) disables the breaker entirely.
    clock / sleep:
        Injectable time sources (tests use virtual clocks and recording
        sleepers; production uses ``time.monotonic`` / ``time.sleep``).
    """

    def __init__(
        self,
        transport: Callable[[int], object],
        *,
        max_batch_size: int = 256,
        max_delay: float = 0.0,
        max_in_flight: int = 4,
        timeout: Optional[float] = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_multiplier: float = 2.0,
        jitter_fraction: float = 0.1,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = 30.0,
        seed: int = 0,
        name: Optional[str] = None,
        clock: Callable[[], float] = repro_clock.monotonic,
        sleep: Callable[[float], None] = repro_clock.sleep,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if backoff_base < 0 or backoff_multiplier < 1:
            raise ValueError(
                "backoff_base must be >= 0 and backoff_multiplier >= 1, got "
                f"{backoff_base} / {backoff_multiplier}"
            )
        if not 0.0 <= jitter_fraction <= 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {jitter_fraction}"
            )
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1 or None, got {breaker_threshold}"
            )
        if breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {breaker_cooldown}"
            )
        self.transport = transport
        self.name = name or getattr(transport, "name", type(transport).__name__)
        self.max_batch_size = int(max_batch_size)
        self.max_delay = float(max_delay)
        self.max_in_flight = int(max_in_flight)
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_multiplier = float(backoff_multiplier)
        self.jitter_fraction = float(jitter_fraction)
        self.clock = clock
        self._sleep = sleep
        self._rng = RandomState(seed)
        self._lock = threading.Lock()
        self._queue: List[RemoteTicket] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # Accounting (all mutated under the lock).
        self._requests = 0
        self._records = 0
        self._batches = 0
        self._attempts = 0
        self._retries = 0
        self._timeouts = 0
        self._failures = 0
        self._giveups = 0
        self._in_flight = 0
        # Circuit breaker (state mutated under the lock).
        self.breaker_threshold = (
            None if breaker_threshold is None else int(breaker_threshold)
        )
        self.breaker_cooldown = float(breaker_cooldown)
        self._breaker_state = "closed"
        self._breaker_opened_at: Optional[float] = None
        self._giveup_streak = 0
        self._breaker_opens = 0
        self._short_circuits = 0

    # -- Submission -----------------------------------------------------------------
    def submit(self, record_indices) -> RemoteTicket:
        """Queue one sub-request; returns its :class:`RemoteTicket`.

        The sub-request launches when a merged batch fills to
        ``max_batch_size``, when it ages past ``max_delay`` (checked by
        :meth:`maybe_flush` / :meth:`RemoteTicket.poll`), or on
        :meth:`flush`.
        """
        idx = np.array(record_indices, dtype=np.int64, copy=True)
        with self._lock:
            if self._closed:
                raise RuntimeError(f"endpoint {self.name!r} is closed")
            ticket = RemoteTicket(self, idx)
            self._queue.append(ticket)
            self._requests += 1
            self._records += idx.shape[0]
            groups = self._drain_full_batches_locked()
        for group in groups:
            self._launch(group)
        return ticket

    def maybe_flush(self) -> None:
        """Launch queued sub-requests whose oldest member aged past
        ``max_delay`` (plus any size-complete batches)."""
        with self._lock:
            if not self._queue:
                return
            overdue = (self.clock() - self._queue[0].created_at) >= self.max_delay
            groups = self._drain_locked() if overdue else []
        for group in groups:
            self._launch(group)

    def flush(self) -> None:
        """Launch every queued sub-request now, partial batches included."""
        with self._lock:
            groups = self._drain_locked()
        for group in groups:
            self._launch(group)

    def _group_batches(
        self, tickets: List[RemoteTicket]
    ) -> List[List[RemoteTicket]]:
        """Pack whole sub-requests into batches of <= max_batch_size records
        (a batch always holds at least one sub-request)."""
        groups: List[List[RemoteTicket]] = []
        current: List[RemoteTicket] = []
        size = 0
        for ticket in tickets:
            n = ticket.record_indices.shape[0]
            if current and size + n > self.max_batch_size:
                groups.append(current)
                current, size = [], 0
            current.append(ticket)
            size += n
        if current:
            groups.append(current)
        return groups

    def _drain_locked(self) -> List[List[RemoteTicket]]:
        tickets, self._queue = self._queue, []
        return self._group_batches(tickets)

    def _drain_full_batches_locked(self) -> List[List[RemoteTicket]]:
        """Pop leading groups that can never grow further (size-complete)."""
        groups = self._group_batches(self._queue)
        if not groups:
            return []
        tail = groups[-1]
        tail_size = sum(t.record_indices.shape[0] for t in tail)
        if tail_size >= self.max_batch_size:
            self._queue = []
            return groups
        self._queue = tail
        return groups[:-1]

    # -- Execution ------------------------------------------------------------------
    def _launch(self, tickets: List[RemoteTicket]) -> None:
        merged = np.concatenate([t.record_indices for t in tickets])
        with self._lock:
            self._batches += 1
            self._in_flight += 1
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_in_flight,
                    thread_name_prefix=f"remote-{self.name}",
                )
            executor = self._executor
        executor.submit(self._run_batch, merged, tickets)

    def _backoff_seconds(self, retry_index: int) -> float:
        with self._lock:
            u = float(self._rng.random())
        delay = self.backoff_base * self.backoff_multiplier**retry_index
        return delay * (1.0 + self.jitter_fraction * u)

    # -- Circuit breaker -------------------------------------------------------------
    @property
    def breaker_state(self) -> str:
        """The breaker's current state: ``closed`` / ``open`` / ``half_open``."""
        with self._lock:
            return self._breaker_state

    def reset_breaker(self) -> None:
        """Force the breaker closed and clear the give-up streak (operator
        override after the remote service is known healthy again)."""
        with self._lock:
            self._breaker_state = "closed"
            self._breaker_opened_at = None
            self._giveup_streak = 0

    def _breaker_allows(self) -> bool:
        """Whether a batch may attempt the transport; transitions
        open -> half_open once the cooldown elapsed."""
        if self.breaker_threshold is None:
            return True
        with self._lock:
            if self._breaker_state == "open":
                opened_at = self._breaker_opened_at
                if (
                    opened_at is not None
                    and (self.clock() - opened_at) >= self.breaker_cooldown
                ):
                    self._breaker_state = "half_open"
                    return True
                return False
            return True

    def _note_batch_success(self) -> None:
        with self._lock:
            self._giveup_streak = 0
            if self._breaker_state != "closed":
                self._breaker_state = "closed"
                self._breaker_opened_at = None

    def _note_giveup(self) -> None:
        with self._lock:
            self._giveups += 1
            self._giveup_streak += 1
            if self.breaker_threshold is None:
                return
            should_open = (
                self._breaker_state == "half_open"  # failed probe re-opens
                or self._giveup_streak >= self.breaker_threshold
            )
            if should_open and self._breaker_state != "open":
                self._breaker_opens += 1
                self._breaker_state = "open"
                self._breaker_opened_at = self.clock()

    def _run_batch(self, merged: np.ndarray, tickets: List[RemoteTicket]) -> None:
        try:
            if not self._breaker_allows():
                with self._lock:
                    self._short_circuits += 1
                    streak = self._giveup_streak
                self._resolve_error(
                    tickets,
                    RemoteCircuitOpenError(
                        f"{self.name}: circuit breaker open after {streak} "
                        f"consecutive give-ups; batch of {merged.shape[0]} "
                        "records rejected without a transport attempt"
                    ),
                )
                return
            attempt = 0
            last_error: Optional[RemoteCallError] = None
            while True:
                with self._lock:
                    self._attempts += 1
                started = self.clock()
                try:
                    results = evaluate_oracle_batch(self.transport, merged)
                    if len(results) != merged.shape[0]:
                        raise ValueError(
                            f"remote transport returned {len(results)} answers "
                            f"for {merged.shape[0]} records"
                        )
                    elapsed = self.clock() - started
                    if self.timeout is not None and elapsed > self.timeout:
                        # A late answer is a lost answer: RPC semantics say
                        # the caller already gave up on this attempt.
                        raise RemoteCallTimeout(
                            f"{self.name}: attempt took {elapsed:.3f}s "
                            f"(timeout {self.timeout:.3f}s)"
                        )
                except RemoteCallTimeout as exc:
                    with self._lock:
                        self._timeouts += 1
                    last_error = exc
                except RemoteCallError as exc:
                    with self._lock:
                        self._failures += 1
                    last_error = exc
                except BaseException as exc:
                    # Non-transport errors (bad transport contract, bugs)
                    # are terminal: retrying cannot fix them.
                    self._resolve_error(tickets, exc)
                    return
                else:
                    self._note_batch_success()
                    self._scatter(merged, results, tickets)
                    return
                if attempt >= self.max_retries:
                    self._note_giveup()
                    giveup = RemoteGiveUpError(
                        f"{self.name}: batch of {merged.shape[0]} records "
                        f"abandoned after {attempt + 1} attempts"
                    )
                    giveup.__cause__ = last_error
                    self._resolve_error(tickets, giveup)
                    return
                with self._lock:
                    self._retries += 1
                backoff = self._backoff_seconds(attempt)
                if backoff > 0:
                    self._sleep(backoff)
                attempt += 1
        finally:
            with self._lock:
                self._in_flight -= 1

    def _scatter(self, merged, results, tickets: List[RemoteTicket]) -> None:
        start = 0
        for ticket in tickets:
            end = start + ticket.record_indices.shape[0]
            ticket._resolve(results[start:end])
            start = end

    def _resolve_error(self, tickets: List[RemoteTicket], error) -> None:
        for ticket in tickets:
            ticket._fail(error)

    # -- Introspection / lifecycle ---------------------------------------------------
    def stats(self) -> RemoteCallStats:
        with self._lock:
            return RemoteCallStats(
                requests=self._requests,
                records=self._records,
                batches=self._batches,
                attempts=self._attempts,
                retries=self._retries,
                timeouts=self._timeouts,
                failures=self._failures,
                giveups=self._giveups,
                pending_requests=len(self._queue),
                in_flight_batches=self._in_flight,
                giveup_streak=self._giveup_streak,
                breaker_opens=self._breaker_opens,
                short_circuits=self._short_circuits,
                breaker_state=self._breaker_state,
            )

    def close(self) -> None:
        """Flush, drain the worker pool, and refuse further submissions."""
        self.flush()
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "RemoteEndpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"RemoteEndpoint({self.name!r}, batches={s.batches}, "
            f"attempts={s.attempts}, giveups={s.giveups})"
        )


class AsyncOracle(Oracle):
    """An oracle whose answers come from a :class:`RemoteEndpoint`.

    Accounting is exact and failure-free by construction: one
    ``num_calls`` / cost / log charge per *successfully answered* record,
    through the standard ``Oracle._record`` path, recorded exactly once —
    retries and timeouts live entirely inside the endpoint and surface
    only through :meth:`remote_stats`.

    ``blocking=True`` (default): ``evaluate_batch`` submits the batch as
    ``min(max_in_flight, n)`` contiguous sub-requests, flushes, waits on
    every ticket, and joins the answers in record order — usable anywhere
    an oracle is.  The endpoint's coalescing still merges pieces up to
    ``max_batch_size``, so a batch that fits makes one transport call; a
    larger one runs on up to ``max_in_flight`` worker threads at once.
    The joined answers have the type one unsplit ticket returns (an array
    for an array-returning transport, else a list), and the batch is
    recorded once.  ``blocking=False``
    (cooperative): a not-yet-ready batch raises
    :class:`PendingOracleBatch`; the caller retries the *identical*
    request later (the sampling session guarantees this by rewinding its
    RNG), and the adapter recognizes the retry and hands back the
    resolved results.  Because one draw step may issue several chunked
    batches (``batch_size < n``), completed chunks are kept in a replay
    buffer and replayed — without double accounting — until the session
    signals the step completed via :meth:`step_boundary`.

    Cooperative mode is strictly single-caller (one session).
    """

    def __init__(
        self,
        endpoint: RemoteEndpoint,
        *,
        name: Optional[str] = None,
        cost_per_call: Optional[float] = None,
        blocking: bool = True,
        keep_log: bool = False,
    ):
        if cost_per_call is None:
            cost_per_call = float(
                getattr(endpoint.transport, "cost_per_call", 1.0)
            )
        super().__init__(
            name=name or f"async({endpoint.name})",
            cost_per_call=cost_per_call,
            keep_log=keep_log,
        )
        self.endpoint = endpoint
        self._blocking = bool(blocking)
        self._pending_key: Optional[bytes] = None
        self._pending_ticket: Optional[RemoteTicket] = None
        self._replay: List[Tuple[bytes, Sequence]] = []
        self._replay_pos = 0

    @property
    def blocking(self) -> bool:
        return self._blocking

    @property
    def parkable(self) -> bool:
        """Whether this oracle may raise :class:`PendingOracleBatch`
        (read by the sampling session to arm RNG rewind)."""
        return not self._blocking

    def remote_stats(self) -> RemoteCallStats:
        """The endpoint's failure/volume accounting snapshot."""
        return self.endpoint.stats()

    # -- Evaluation -----------------------------------------------------------------
    def evaluate_batch(self, record_indices: Sequence[int]):
        idx = np.asarray(record_indices, dtype=np.int64)
        if self._blocking:
            results = self._evaluate_blocking(idx)
            self._record(idx, results)
            return results
        return self._evaluate_cooperative(idx)

    def _evaluate_blocking(self, idx: np.ndarray):
        endpoint = self.endpoint
        tickets = [
            endpoint.submit(idx[piece])
            for piece in shard_slices(idx.shape[0], endpoint.max_in_flight)
        ] or [endpoint.submit(idx)]
        # The first wait flushes every queued piece; the rest only wait.
        for ticket in tickets:
            ticket.wait()
        # result() raises a failed piece's terminal error, in record order.
        pieces = [ticket.result() for ticket in tickets]
        if len(pieces) == 1:
            return pieces[0]
        if isinstance(pieces[0], np.ndarray):
            return np.concatenate(pieces)
        return [answer for piece in pieces for answer in piece]

    def _evaluate_cooperative(self, idx: np.ndarray):
        key = idx.tobytes()
        if self._replay_pos < len(self._replay):
            replay_key, replay_results = self._replay[self._replay_pos]
            if replay_key == key:
                self._replay_pos += 1
                return replay_results
            # The retried draw asked for different records than the
            # recorded attempt (possible when a shared cache shrank the
            # miss set between attempts): the replay is stale.  Answers
            # stay correct — the stale work is simply dropped.
            self._reset_parking()
        if self._pending_ticket is not None:
            if self._pending_key != key:
                self._reset_parking()
            else:
                ticket = self._pending_ticket
                if not ticket.ready():
                    # The caller will restart the step from its first
                    # chunk, so rewind the replay cursor for the retry.
                    self._replay_pos = 0
                    raise PendingOracleBatch(ticket, oracle=self)
                self._pending_ticket = None
                self._pending_key = None
                results = ticket.result()  # raises RemoteGiveUpError on giveup
                self._record(idx, results)
                self._replay.append((key, results))
                self._replay_pos = len(self._replay)
                return results
        ticket = self.endpoint.submit(idx)
        self._pending_ticket = ticket
        self._pending_key = key
        self._replay_pos = 0
        raise PendingOracleBatch(ticket, oracle=self)

    def step_boundary(self) -> None:
        """Forget the current step's replay buffer (step completed).

        Called by :class:`~repro.engine.session.SamplingSession` after a
        draw step finishes without parking; manual cooperative callers
        should call it whenever a logical request sequence completes.
        """
        self._replay.clear()
        self._replay_pos = 0

    def _reset_parking(self) -> None:
        self._replay.clear()
        self._replay_pos = 0
        self._pending_ticket = None
        self._pending_key = None

    def __call__(self, record_index: int):
        return self.evaluate_batch([record_index])[0]

    def _evaluate(self, record_index: int):  # pragma: no cover - not used
        return self.endpoint.transport(record_index)

    def __getstate__(self):
        raise TypeError(
            "AsyncOracle is not picklable: it owns live endpoint state "
            "(tickets, worker pool); build a fresh adapter per process"
        )
