"""Oracle budget enforcement (the ``ORACLE LIMIT`` clause).

The query syntax (Figure 1) lets the user cap the number of oracle
invocations.  :class:`OracleBudget` tracks consumption and raises
:class:`OracleBudgetExceededError` when a charge would exceed the cap, so
bugs in allocation logic fail loudly instead of silently overspending.
"""

from __future__ import annotations

import threading

from repro.analysis.annotations import guarded_by
from repro.oracle.base import evaluate_oracle_batch

__all__ = ["OracleBudget", "OracleBudgetExceededError", "BudgetedOracle"]


class OracleBudgetExceededError(RuntimeError):
    """Raised when an oracle invocation would exceed the user's ORACLE LIMIT."""


@guarded_by("_lock", "_spent")
class OracleBudget:
    """A counter of remaining oracle invocations.

    The budget is expressed in *invocations* (not dollars) to match the
    paper's cost metric; a caller that wants dollar budgets can divide by
    the oracle's ``cost_per_call``.

    Charges, refunds and resets are atomic (one internal lock), so a
    budget can back a per-tenant quota shared by concurrently submitted
    queries — two racing charges can never jointly overshoot the limit.
    """

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"oracle limit must be non-negative, got {limit}")
        self._limit = int(limit)
        self._spent = 0
        self._lock = threading.Lock()

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def spent(self) -> int:
        return self._spent

    @property
    def remaining(self) -> int:
        return self._limit - self._spent

    def can_spend(self, n: int = 1) -> bool:
        """Whether ``n`` more invocations fit in the budget."""
        if n < 0:
            raise ValueError(f"cannot query a negative spend: {n}")
        return self._spent + n <= self._limit

    def charge(self, n: int = 1) -> None:
        """Consume ``n`` invocations, raising if the budget would be exceeded."""
        if n < 0:
            raise ValueError(f"cannot charge a negative amount: {n}")
        with self._lock:
            if self._spent + n > self._limit:
                raise OracleBudgetExceededError(
                    f"oracle budget exceeded: limit={self._limit}, spent={self._spent}, "
                    f"attempted additional charge={n}"
                )
            self._spent += n

    def refund(self, n: int) -> None:
        """Return ``n`` previously charged invocations to the budget.

        The serving layer's admission control charges a query's full
        budget up front and refunds the unspent remainder at settlement;
        a refund can never exceed what was actually charged.
        """
        if n < 0:
            raise ValueError(f"cannot refund a negative amount: {n}")
        with self._lock:
            if n > self._spent:
                raise ValueError(
                    f"cannot refund {n} invocations: only {self._spent} charged"
                )
            self._spent -= n

    def reset(self) -> None:
        """Return the budget to its unspent state."""
        with self._lock:
            self._spent = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OracleBudget(limit={self._limit}, spent={self._spent})"


class BudgetedOracle:
    """Wrap an oracle so every call is charged against a shared budget.

    This is what the query executor hands to the sampling algorithm: the
    algorithm can call the oracle freely and the wrapper guarantees the
    ORACLE LIMIT is honoured.  It charges every record it is asked about;
    to charge only records that were actually labeled, put a cache such as
    :class:`repro.serve.cache.SharedCachingOracle` *outside* it.
    """

    def __init__(self, oracle, budget: OracleBudget):
        self._oracle = oracle
        self._budget = budget

    @property
    def budget(self) -> OracleBudget:
        return self._budget

    @property
    def inner(self):
        return self._oracle

    @property
    def num_calls(self) -> int:
        return self._oracle.num_calls

    @property
    def total_cost(self) -> float:
        return getattr(self._oracle, "total_cost", 0.0)

    @property
    def call_log_columns(self):
        """The wrapped oracle's columnar call log, when it keeps one."""
        return getattr(self._oracle, "call_log_columns", None)

    def __call__(self, record_index: int):
        self._budget.charge(1)
        return self._oracle(record_index)

    def evaluate_batch(self, record_indices) -> list:
        """Charge the whole batch up front, then evaluate it in one shot.

        A batch that does not fit in the remaining budget raises *before*
        any record is evaluated (the sequential path would evaluate up to
        the limit first); all-or-nothing batches keep the inner oracle's
        accounting consistent with what was actually charged.
        """
        self._budget.charge(len(record_indices))
        return evaluate_oracle_batch(self._oracle, record_indices)
