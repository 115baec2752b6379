"""Query planner: decide which ABae variant answers a parsed query.

The decision tree is small:

* a ``GROUP BY`` clause → a group-by plan (single- vs multiple-oracle is
  decided at execution time from the registered group binding);
* more than one predicate atom in the WHERE clause → ABae-MultiPred;
* otherwise → plain single-predicate ABae.

``plan_query`` also performs the query-level validations that do not need
the binding context (e.g. group-by queries are only supported for AVG /
PERCENTAGE / COUNT aggregates), and validates the plan's physical
:class:`~repro.engine.config.ExecutionConfig` eagerly so a bad execution
knob raises a clear :class:`~repro.query.errors.PlanningError` at planning
time instead of surfacing mid-sampling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.data.backend import DatasetBackend
from repro.engine.config import (
    ExecutionConfig,
    ExecutionConfigError,
    resolve_execution_config,
)
from repro.query.ast import AggregateKind, PredicateAtom, Query
from repro.query.errors import PlanningError

__all__ = ["PlanKind", "QueryPlan", "plan_query"]


class PlanKind(enum.Enum):
    SINGLE_PREDICATE = "single_predicate"
    MULTI_PREDICATE = "multi_predicate"
    GROUP_BY = "group_by"


@dataclass
class QueryPlan:
    """The chosen execution strategy plus per-plan annotations.

    ``config`` is the plan's physical-execution half: how many records the
    executor labels per oracle invocation batch, how many workers each
    batch is sharded across, whether execution may reuse the process-wide
    stratification caches, and the rng / progress policies (see
    :class:`~repro.engine.config.ExecutionConfig`).  All of it is purely
    physical — estimates, CIs and call counts are bit-identical for every
    setting — so the planner records it as part of the physical plan
    rather than the logical decision tree.
    """

    kind: PlanKind
    query: Query
    atoms: List[PredicateAtom] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    config: ExecutionConfig = field(default_factory=ExecutionConfig)
    # The dataset backend the executor resolves column references against
    # (``None`` = the context's dense registered arrays, today's default).
    # Like every physical hint it never changes results: backends serve
    # bit-identical column values (see repro.data).
    backend: Optional[DatasetBackend] = None

    @property
    def budget(self) -> int:
        return self.query.oracle.limit

    @property
    def alpha(self) -> float:
        return self.query.alpha


def plan_query(
    query: Query,
    config: Optional[ExecutionConfig] = None,
    backend: Optional[DatasetBackend] = None,
) -> QueryPlan:
    """Build a :class:`QueryPlan` for a parsed query.

    ``config`` (an :class:`~repro.engine.config.ExecutionConfig`) is
    attached to the plan as its physical-execution hints.  ``backend`` is
    the plan's dataset-backend hint: the storage the executor resolves
    string column references against (see :mod:`repro.data`).  Both are
    validated at planning time, so a ``config`` that is not an
    ``ExecutionConfig`` or a bad backend raises a clear
    :class:`~repro.query.errors.PlanningError` (a ``QueryError``) instead
    of surfacing from deep inside the execution engine mid-sampling.
    """
    try:
        config = resolve_execution_config(config, "plan_query")
    except ExecutionConfigError as exc:
        raise PlanningError(str(exc)) from None
    if backend is not None and not isinstance(backend, DatasetBackend):
        raise PlanningError(
            f"backend must be a repro.data.DatasetBackend or None, "
            f"got {backend!r}"
        )
    atoms = query.atoms()
    if not atoms:
        raise PlanningError("the WHERE clause references no predicates")

    if query.group_by is not None:
        if query.aggregate.kind is AggregateKind.SUM:
            raise PlanningError(
                "SUM with GROUP BY is not supported by the reproduction; "
                "use AVG, PERCENTAGE or COUNT"
            )
        group_key = query.group_by.key.canonical()
        mismatched = [
            atom
            for atom in atoms
            if atom.expression.canonical() != query.group_by.key.canonical()
        ]
        return QueryPlan(
            kind=PlanKind.GROUP_BY,
            query=query,
            atoms=atoms,
            notes={
                "group_key": group_key,
                "non_group_atoms": [a.key() for a in mismatched],
            },
            config=config,
            backend=backend,
        )

    if len(atoms) > 1:
        return QueryPlan(
            kind=PlanKind.MULTI_PREDICATE,
            query=query,
            atoms=atoms,
            config=config,
            backend=backend,
        )
    return QueryPlan(
        kind=PlanKind.SINGLE_PREDICATE,
        query=query,
        atoms=atoms,
        config=config,
        backend=backend,
    )
