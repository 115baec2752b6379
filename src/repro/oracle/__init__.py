"""Oracle substrate: simulated expensive predicates with cost accounting.

In the paper the oracle is an expensive DNN (Mask R-CNN, a BERT sentiment
model) or a human labeler.  The sampling algorithm never sees how the
answer is produced — it only pays per invocation and observes a binary
result (and, for group-by queries, a group key).  This package provides:

* :class:`~repro.oracle.base.Oracle` — the interface plus invocation
  counting and per-call cost tracking;
* :class:`~repro.oracle.budget.OracleBudget` — enforcement of the
  ``ORACLE LIMIT`` clause;
* :class:`~repro.oracle.simulated.LabelColumnOracle` and friends — oracles
  that read precomputed ground-truth labels from a table (the simulation of
  the expensive DNN, per DESIGN.md's substitution table);
* :mod:`~repro.oracle.composite` — AND / OR / NOT combinations of oracles,
  used by ABae-MultiPred;
* :mod:`~repro.oracle.groupkey` — oracles that return a group key (single
  oracle setting) or one binary oracle per group (multiple oracle setting);
* :class:`~repro.oracle.cache.CachingOracle` — memoization so repeated
  evaluation of the same record (e.g. sample reuse across stages) is only
  charged once, matching how a real system would cache DNN outputs;
* :mod:`~repro.oracle.remote` — the async RPC protocol for oracles that
  are remote services: :class:`~repro.oracle.remote.RemoteEndpoint`
  (batch coalescing, a concurrency limiter, timeouts, seeded retry
  backoff) and :class:`~repro.oracle.remote.AsyncOracle` (the adapter,
  blocking or cooperative), with
  :class:`~repro.oracle.simulated.SimulatedRemoteOracle` as the hermetic
  flaky transport for tests (see ``docs/REMOTE_ORACLES.md``).
"""

from repro.oracle.base import (
    ColumnarCallLog,
    Oracle,
    PredicateOracle,
    StatisticOracle,
    evaluate_oracle_batch,
)
from repro.oracle.budget import BudgetedOracle, OracleBudget, OracleBudgetExceededError
from repro.oracle.cache import CachingOracle
from repro.oracle.remote import (
    AsyncOracle,
    PendingOracleBatch,
    RemoteCallError,
    RemoteCallStats,
    RemoteCallTimeout,
    RemoteCircuitOpenError,
    RemoteEndpoint,
    RemoteGiveUpError,
    RemoteTicket,
)
from repro.oracle.simulated import (
    LabelColumnOracle,
    ThresholdOracle,
    CallableOracle,
    NoisyHumanOracle,
    SimulatedRemoteOracle,
    LatencyOracle,
)
from repro.oracle.composite import AndOracle, OrOracle, NotOracle
from repro.oracle.groupkey import GroupKeyOracle, PerGroupOracles

__all__ = [
    "ColumnarCallLog",
    "Oracle",
    "PredicateOracle",
    "StatisticOracle",
    "evaluate_oracle_batch",
    "OracleBudget",
    "OracleBudgetExceededError",
    "BudgetedOracle",
    "CachingOracle",
    "LabelColumnOracle",
    "ThresholdOracle",
    "CallableOracle",
    "NoisyHumanOracle",
    "SimulatedRemoteOracle",
    "LatencyOracle",
    "AsyncOracle",
    "RemoteEndpoint",
    "RemoteTicket",
    "RemoteCallStats",
    "RemoteCallError",
    "RemoteCallTimeout",
    "RemoteGiveUpError",
    "RemoteCircuitOpenError",
    "PendingOracleBatch",
    "AndOracle",
    "OrOracle",
    "NotOracle",
    "GroupKeyOracle",
    "PerGroupOracles",
]
