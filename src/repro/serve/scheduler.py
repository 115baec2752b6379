"""Cooperative scheduling of many sampling sessions over shared data.

The engine refactor made every sampler a step-driven
:class:`~repro.engine.session.SamplingSession`: one ``step()`` is one
bounded unit of work (an allocation decision or one stratum's draw), and
``partial_estimate()`` reads an anytime answer between steps without
touching the random stream.  This module exploits exactly that: a
:class:`CooperativeScheduler` interleaves ``step()`` calls across many
live queries, so every client's estimate improves continuously instead of
queries running to completion one after another.

Determinism contract (pinned by ``tests/test_serve_parity.py``): sessions
share no mutable state — each owns its RNG, its oracle wrappers and its
pipeline state — so **any interleaving of steps produces, for every
query, results and oracle accounting bit-identical to running that query
alone.**  The scheduler's own randomness (the ``"random"`` interleaving)
draws from a dedicated :class:`~repro.stats.rng.RandomState` that is
never shared with any session.

Remote oracles extend the contract to *wait overlap*: a query whose step
hits a still-in-flight :class:`~repro.oracle.remote.AsyncOracle` batch
(cooperative mode) parks in ``WAITING`` instead of blocking the tick —
the scheduler steps other queries, polls parked tickets between steps,
and only blocks (after flushing every involved endpoint) when *every*
live query is parked.  The session rewinds its RNG before parking, so
the retried step re-selects identical records and per-query results stay
bit-identical to a blocking run (pinned by ``tests/test_serve_remote.py``).

Per-step cost accounting: each :class:`QueryTask` records how many oracle
draws every step charged (via the session's ``last_step_cost``), its
time-to-first-estimate, and — when a target CI width is set — its
time-to-target-CI, the two SLO metrics ``scripts/bench_serve.py``
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from collections import OrderedDict, deque

from repro import clock as repro_clock
from repro.core.estimators import estimate_all_strata, estimate_mse_plugin
from repro.engine.session import SamplingSession
from repro.oracle.remote import PendingOracleBatch, RemoteGiveUpError, RemoteTicket
from repro.stats.rng import RandomState

__all__ = [
    "QueryStatus",
    "QueryTask",
    "DegradedResult",
    "CooperativeScheduler",
    "approximate_ci_width",
    "INTERLEAVINGS",
]


class QueryStatus:
    """Lifecycle states of a served query (plain strings, not an enum).

    ``WAITING`` is the parked state: the query's next step is blocked on
    a still-in-flight remote oracle batch.  A waiting query is live — it
    stays in the rotation and resumes the moment its ticket resolves —
    but the scheduler skips it while the batch is pending.

    ``DEGRADED`` is the graceful-degradation terminal state: the query
    could not run to completion (remote oracle gave up, or its deadline
    expired) but still *answered* — its result is a
    :class:`DegradedResult` carrying the last anytime estimate instead of
    a raised error.  See docs/RESILIENCE.md.
    """

    PENDING = "pending"
    RUNNING = "running"
    WAITING = "waiting"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    SUSPENDED = "suspended"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class DegradedResult:
    """A best-effort answer from a query that could not finish cleanly.

    The anytime-AQP contract means there is almost always *an* answer:
    ``estimate`` is the session's ``partial_estimate()`` at the moment
    the query degraded (an engine-level
    :class:`~repro.core.types.EstimateResult`, not passed through any
    query-layer ``finalize``), or ``None`` if the query degraded before
    drawing a single positive record.  ``reason`` is a short machine
    code (``"remote_giveup"`` or ``"deadline"``); ``detail`` is the
    human-readable story.
    """

    estimate: object
    reason: str
    detail: str
    spent: int
    degraded: bool = True

    # Machine codes for `reason`.
    REMOTE_GIVEUP = "remote_giveup"
    DEADLINE = "deadline"


# The normal z-score for a 95% interval; the approximate width below is a
# monitoring proxy, so the constant is not configurable per query.
_Z_95 = 1.959963984540054


def approximate_ci_width(session: SamplingSession) -> float:
    """A cheap anytime CI-width proxy for SLO tracking (no RNG consumed).

    Twice the normal-approximation half-width built from the plug-in MSE
    of the current per-stratum estimates (Proposition 3's leading term,
    :func:`~repro.core.estimators.estimate_mse_plugin`, with each
    stratum's *actual* draw count).  This is a monitoring signal — the
    statistically rigorous interval remains the bootstrap CI computed at
    finalization — but unlike the bootstrap it never consumes the session
    RNG, so polling it between steps cannot perturb the draw sequence.
    Returns ``inf`` until at least one positive record has been drawn.
    """
    state = session.state
    estimates = estimate_all_strata(state.samples)
    draws = [s.num_draws for s in state.samples]
    mse = estimate_mse_plugin(estimates, draws)
    return 2.0 * _Z_95 * mse**0.5


class QueryTask:
    """One served query: a session plus its serving-side bookkeeping.

    ``finalize`` converts the finished session into the task's result
    (default: ``session.result()``); it runs on the scheduler thread when
    the session's last step completes.  ``on_settle`` (if given) is called
    exactly once when the task leaves the live set — done, failed,
    cancelled, suspended or degraded — with this task and its total oracle
    spend; the service uses it to settle the admission reservation.  The
    spend passed to ``on_settle`` is frozen as :attr:`settled_spent`, so
    late work (e.g. an orphaned remote batch committing answers into a
    shared cache after a cancel) can never shift what was billed.

    ``deadline`` (seconds on this task's ``clock``, measured from
    submission) is a soft completion SLO: a task caught past it degrades
    to its anytime estimate instead of running further.  ``on_step`` (if
    given) runs after every *completed* step while the task is still
    live — the service's journal snapshot hook.
    """

    def __init__(
        self,
        session: SamplingSession,
        *,
        task_id: str,
        tenant: str = "default",
        finalize: Optional[Callable[[SamplingSession], object]] = None,
        on_settle: Optional[Callable[["QueryTask", int], None]] = None,
        on_step: Optional[Callable[["QueryTask"], None]] = None,
        target_ci_width: Optional[float] = None,
        deadline: Optional[float] = None,
        clock: Callable[[], float] = repro_clock.monotonic,
    ):
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive seconds, got {deadline}")
        self.session = session
        self.task_id = task_id
        self.tenant = tenant
        self.status = QueryStatus.PENDING
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.target_ci_width = target_ci_width
        self.deadline = deadline
        self._finalize = finalize
        self._on_settle = on_settle
        self._on_step = on_step
        self._clock = clock
        self._settled = False
        self.settled_spent: Optional[int] = None
        # The remote ticket a WAITING task is parked on (else None).
        self.waiting_on: Optional[RemoteTicket] = None
        # Per-step cost accounting.
        self.initial_spent = session.spent
        self.steps = 0
        self.step_costs: List[int] = []
        # SLO timestamps (clock units; None until the event happens).
        self.submitted_at = clock()
        self.first_estimate_at: Optional[float] = None
        self.target_ci_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    # -- Introspection --------------------------------------------------------------
    @property
    def live(self) -> bool:
        return self.status in (
            QueryStatus.PENDING,
            QueryStatus.RUNNING,
            QueryStatus.WAITING,
        )

    @property
    def spent(self) -> int:
        """Oracle draws this task charged while being served."""
        return self.session.spent - self.initial_spent

    @property
    def time_to_first_estimate(self) -> Optional[float]:
        if self.first_estimate_at is None:
            return None
        return self.first_estimate_at - self.submitted_at

    @property
    def time_to_target_ci(self) -> Optional[float]:
        if self.target_ci_at is None:
            return None
        return self.target_ci_at - self.submitted_at

    def partial_estimate(self):
        """The query's anytime answer (delegates to the session)."""
        return self.session.partial_estimate()

    # -- Execution (called by the scheduler) ----------------------------------------
    def remote_ready(self) -> bool:
        """Whether a WAITING task's parked batch has resolved.

        Polling also gives the endpoint its ``max_delay`` launch check, so
        queued sub-batches cannot starve while the scheduler cycles.
        """
        ticket = self.waiting_on
        return ticket is None or ticket.poll()

    def deadline_remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline is set)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - (self._clock() - self.submitted_at))

    def maybe_degrade_deadline(self) -> bool:
        """Degrade a live task whose deadline has expired; True if it did.

        The scheduler calls this on parked (``WAITING``) tasks it would
        otherwise skip, so a query blocked on a slow remote still honours
        its deadline: it settles with its last anytime estimate instead
        of waiting indefinitely for the batch.
        """
        if not self.live or self.deadline is None:
            return False
        if (self._clock() - self.submitted_at) < self.deadline:
            return False
        self._degrade(
            DegradedResult.DEADLINE,
            f"deadline of {self.deadline}s expired with {self.spent} draws spent",
        )
        return True

    def _degrade(self, reason: str, detail: str) -> None:
        """Terminal transition to DEGRADED: anytime estimate, no raise."""
        try:
            estimate = self.session.partial_estimate()
        except BaseException:
            estimate = None
        self.waiting_on = None
        self.result = DegradedResult(
            estimate=estimate, reason=reason, detail=detail, spent=self.spent
        )
        self.status = QueryStatus.DEGRADED
        self.finished_at = self._clock()
        self._settle()

    def advance(self) -> bool:
        """Run one session step; ``False`` once the query left the live set.

        Step cost is measured as the session's spend delta across the
        call, so the invariant ``sum(step_costs) == spent`` holds for
        every lifecycle — including the *final* step: a completing
        ``step()`` that charged draws still appends its cost, counts in
        ``steps`` and can set ``first_estimate_at`` / ``target_ci_at``.
        A step that parks on a pending remote batch charges nothing,
        records nothing, and leaves the task live in ``WAITING``.

        Graceful degradation: a step raising
        :class:`~repro.oracle.remote.RemoteGiveUpError` (retries
        exhausted, or the endpoint's circuit breaker open) degrades the
        task to its anytime estimate instead of failing it; the same
        happens when the task is caught past its ``deadline``.  Every
        other exception still fails the task and is re-raised to the
        client by :meth:`~repro.serve.service.QueryHandle.result`.
        """
        if not self.live:
            return False
        if self.maybe_degrade_deadline():
            return False
        self.status = QueryStatus.RUNNING
        spent_before = self.session.spent
        try:
            more = self.session.step()
        except PendingOracleBatch as pending:
            self.status = QueryStatus.WAITING
            self.waiting_on = pending.ticket
            return True
        except RemoteGiveUpError as exc:
            self._degrade(DegradedResult.REMOTE_GIVEUP, str(exc))
            return False
        except BaseException as exc:
            self.error = exc
            self.status = QueryStatus.FAILED
            self._settle()
            return False
        self.waiting_on = None
        cost = self.session.spent - spent_before
        if more or cost:
            self.steps += 1
            self.step_costs.append(cost)
        now = self._clock()
        if self.first_estimate_at is None and self.spent > 0:
            self.first_estimate_at = now
        if (
            self.target_ci_width is not None
            and self.target_ci_at is None
            and self.first_estimate_at is not None
            and approximate_ci_width(self.session) <= self.target_ci_width
        ):
            self.target_ci_at = now
        if more:
            if self._on_step is not None:
                self._on_step(self)
            # The hook may have cancelled or suspended the task.
            return self.live
        try:
            self.result = (
                self._finalize(self.session)
                if self._finalize is not None
                else self.session.result()
            )
        except BaseException as exc:
            self.error = exc
            self.status = QueryStatus.FAILED
            self._settle()
            return False
        self.status = QueryStatus.DONE
        self.finished_at = self._clock()
        self._settle()
        return False

    def mark_cancelled(self) -> None:
        self.waiting_on = None
        self.status = QueryStatus.CANCELLED
        self._settle()

    def mark_suspended(self) -> None:
        self.waiting_on = None
        self.status = QueryStatus.SUSPENDED
        self._settle()

    def _settle(self) -> None:
        if self._settled:
            return
        self._settled = True
        # Freeze the billed spend at settle time: an orphaned remote batch
        # that commits into a shared cache *after* a cancel must not shift
        # what the tenant was charged.
        self.settled_spent = self.spent
        if self._on_settle is not None:
            self._on_settle(self, self.settled_spent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryTask(id={self.task_id!r}, tenant={self.tenant!r}, "
            f"status={self.status}, spent={self.spent})"
        )


ROUND_ROBIN = "round_robin"
RANDOM = "random"
INTERLEAVINGS = (ROUND_ROBIN, RANDOM)


class CooperativeScheduler:
    """Interleave ``step()`` calls across live query tasks.

    ``interleaving`` selects the policy:

    * ``"round_robin"`` — cycle live tasks in submission order, one step
      each (fair share of steps; the default);
    * ``"random"`` — pick a uniformly random live task per step, from a
      dedicated ``RandomState(seed)`` that no session ever touches.

    The scheduler is cooperative and single-threaded: one ``step_once()``
    runs exactly one session step on the calling thread.  Concurrency here
    means *interleaved progress*, not parallelism — a blocking remote
    oracle's batch inside a step may still fan out over its endpoint's
    in-flight slots, and a cooperative remote oracle's in-flight batches overlap with other
    queries' steps (see the module docstring).

    ``retain_settled`` bounds memory in a long-running service: settled
    tasks (done / failed / cancelled / suspended) beyond the newest
    ``retain_settled`` are evicted from the lookup table, so per-query
    state no longer accumulates forever.  ``None`` (the default) keeps
    every settled task — the PR-6 behaviour, right for batch drivers that
    collect results at the end.
    """

    def __init__(
        self,
        interleaving: str = ROUND_ROBIN,
        seed: int = 0,
        clock: Callable[[], float] = repro_clock.monotonic,
        retain_settled: Optional[int] = None,
    ):
        if interleaving not in INTERLEAVINGS:
            raise ValueError(
                f"unknown interleaving {interleaving!r}; "
                f"expected one of {INTERLEAVINGS}"
            )
        if retain_settled is not None and retain_settled < 0:
            raise ValueError(
                f"retain_settled must be >= 0 or None, got {retain_settled}"
            )
        self.interleaving = interleaving
        self.clock = clock
        self.retain_settled = retain_settled
        self._rng = RandomState(seed)
        self._queue: Deque[QueryTask] = deque()
        self._tasks: Dict[str, QueryTask] = {}
        # Settled task ids, oldest first — the eviction order.
        self._settled_order: "OrderedDict[str, None]" = OrderedDict()
        self.total_steps = 0

    # -- Task management ------------------------------------------------------------
    def submit(self, task: QueryTask) -> QueryTask:
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        self._tasks[task.task_id] = task
        self._queue.append(task)
        return task

    def remove(self, task: QueryTask) -> None:
        """Drop a task from the live rotation (its status is the caller's)."""
        try:
            self._queue.remove(task)
        except ValueError:
            pass

    def retire(self, task: QueryTask) -> None:
        """Remove a task from the rotation and, if settled, start its
        retention countdown (evicting older settled tasks past the knob)."""
        self.remove(task)
        if not task.live:
            self._note_settled(task)

    def _note_settled(self, task: QueryTask) -> None:
        tid = task.task_id
        if tid not in self._tasks or tid in self._settled_order:
            return
        self._settled_order[tid] = None
        if self.retain_settled is not None:
            while len(self._settled_order) > self.retain_settled:
                old, _ = self._settled_order.popitem(last=False)
                self._tasks.pop(old, None)

    @property
    def live_tasks(self) -> List[QueryTask]:
        return [t for t in self._queue if t.live]

    @property
    def num_live(self) -> int:
        """Live (pending / running / waiting) tasks in the rotation.

        Counts what :attr:`live_tasks` returns — cancelled or suspended
        tasks still sitting in the rotation are excluded.
        """
        return sum(1 for t in self._queue if t.live)

    @property
    def num_settled(self) -> int:
        """Settled tasks currently retained for result pickup."""
        return len(self._settled_order)

    def task(self, task_id: str) -> QueryTask:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise KeyError(
                f"unknown task id {task_id!r} (never submitted, or settled "
                "and evicted past the retain_settled window)"
            ) from None

    # -- Stepping -------------------------------------------------------------------
    def _pick(self) -> QueryTask:
        if self.interleaving == RANDOM and len(self._queue) > 1:
            index = int(self._rng.integers(0, len(self._queue)))
            self._queue.rotate(-index)
        return self._queue.popleft()

    def step_once(self) -> Optional[QueryTask]:
        """Advance one task by one step; ``None`` when nothing is live.

        A task that stays live after its step re-enters the rotation at
        the back (for round-robin this is exact fair cycling; for random
        the rotation point is irrelevant).  WAITING tasks whose remote
        batch is still in flight are skipped — they keep their place at
        the back of the rotation — and when *every* live task is parked
        the scheduler flushes the involved endpoints and blocks until the
        oldest-picked ticket resolves, then resumes stepping.  Settled
        tasks are dropped from the rotation as they are encountered and
        enter the ``retain_settled`` eviction window.
        """
        while True:
            waiting: List[QueryTask] = []
            stepped: Optional[QueryTask] = None
            while self._queue:
                task = self._pick()
                if not task.live:
                    self._note_settled(task)
                    continue
                if task.status == QueryStatus.WAITING and not task.remote_ready():
                    if task.maybe_degrade_deadline():
                        # Parked past its deadline: settles with its
                        # anytime estimate; the orphaned batch may still
                        # resolve later but can no longer affect billing.
                        self._note_settled(task)
                        stepped = task
                        break
                    waiting.append(task)
                    continue
                self.total_steps += 1
                if task.advance():
                    self._queue.append(task)
                else:
                    self._note_settled(task)
                stepped = task
                break
            # Re-queue only tasks still live: a skipped WAITING task may
            # have been cancelled (e.g. from an on_step journal hook or
            # another thread) while it sat in the local list.
            for task in waiting:
                if task.live:
                    self._queue.append(task)
                else:
                    self._note_settled(task)
            if stepped is not None:
                return stepped
            if not waiting:
                return None
            self._await_remote(waiting)

    def _await_remote(self, waiting: List[QueryTask]) -> None:
        """Every live task is parked: flush and block until one resolves.

        Flushing each distinct endpoint first guarantees progress — every
        parked ticket's batch is then launched or in flight, so the wait
        always terminates (with results or a give-up error).  When any
        parked task carries a deadline, the block is bounded by the
        soonest remaining deadline so an expired task degrades on the
        next pass instead of waiting out a slow batch.
        """
        tickets = [t.waiting_on for t in waiting if t.waiting_on is not None]
        if not tickets:
            return
        flushed: List[object] = []
        for ticket in tickets:
            endpoint = ticket.endpoint
            if not any(e is endpoint for e in flushed):
                flushed.append(endpoint)
                endpoint.flush()
        timeout: Optional[float] = None
        for task in waiting:
            remaining = task.deadline_remaining()
            if remaining is not None:
                timeout = remaining if timeout is None else min(timeout, remaining)
        tickets[0].wait(timeout)

    def run_until_complete(self, max_steps: Optional[int] = None) -> int:
        """Drive all live tasks to completion; returns steps executed.

        ``max_steps`` bounds the work (useful for incremental serving
        loops); the scheduler can be re-entered to continue.
        """
        executed = 0
        while max_steps is None or executed < max_steps:
            if self.step_once() is None:
                break
            executed += 1
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CooperativeScheduler({self.interleaving!r}, "
            f"live={self.num_live}, total_steps={self.total_steps})"
        )
