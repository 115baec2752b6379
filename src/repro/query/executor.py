"""Query executor: bind a parsed query to oracles / proxies and run ABae.

The executor is driven by a :class:`QueryContext`, which is where the user
(or the examples / benchmark harness) registers

* **statistics** — the per-record values of expressions like ``views`` or
  ``count_cars(frame)``;
* **predicates** — for each predicate atom appearing in WHERE clauses, the
  expensive oracle and its proxy (plus, optionally, the ground-truth label
  array used by the exact executor);
* **group bindings** — for GROUP BY queries, the list of group keys, the
  per-group proxies, and either a single group-key oracle or per-group
  membership oracles.

Binding keys are the canonical text of the expression, so
``register_predicate("hair_color(img) = 'blonde'", ...)`` binds the atom
``WHERE hair_color(img) = 'blonde'``; a registration under just the
function name (``"hair_color"``) acts as a fallback for any atom using
that function.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.core.abae import run_abae
from repro.core.stratification import stratification_cache_disabled
from repro.engine.builders import multipred_pipeline, two_stage_pipeline
from repro.engine.pipeline import SamplingPipeline
from repro.engine.config import ExecutionConfig
from repro.core.bootstrap import bootstrap_aggregate_interval
from repro.core.groupby import (
    GroupSpec,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
)
from repro.core.multipred import And, Not, Or, PredicateExpr, PredicateLeaf
from repro.core.multipred import run_abae_multipred
from repro.core.results import ConfidenceInterval, EstimateResult, GroupByResult
from repro.oracle.groupkey import GroupKeyOracle, PerGroupOracles
from repro.proxy.base import Proxy, memoized_proxy_object
from repro.query.ast import (
    AggregateKind,
    AndExpr,
    FunctionCall,
    NotExpr,
    OrExpr,
    PredicateAtom,
    PredicateNode,
    Query,
)
from repro.query.errors import BindingError, PlanningError
from repro.query.parser import parse_query
from repro.query.planner import PlanKind, plan_query
from repro.stats.rng import RandomState

__all__ = [
    "PredicateBinding",
    "GroupBinding",
    "QueryContext",
    "QueryResult",
    "execute_query",
    "PreparedQuery",
    "prepare_query",
]


@dataclass
class PredicateBinding:
    """The oracle / proxy pair registered for one predicate atom.

    ``proxy`` may be a :class:`~repro.proxy.base.Proxy`, a raw score
    sequence, a dataset-backend column handle, or a *column name* (a
    string) resolved at execution time against the plan's backend.
    """

    oracle: Callable[[int], bool]
    proxy: Union[Proxy, Sequence[float], str]
    labels: Optional[np.ndarray] = None

    def proxy_object(self, backend=None) -> Proxy:
        """The binding's proxy as a :class:`Proxy` (memoized).

        Raw score sequences are wrapped once and the wrapper reused for
        every execution, so the plan-level stratification cache (keyed on
        proxy identity) hits across repeated queries instead of seeing a
        fresh wrapper per run.  A string proxy is resolved through
        ``backend`` (the plan's dataset backend), memoized per backend so
        repeated queries against the same backend share one wrapper.
        """
        if isinstance(self.proxy, str):
            if backend is None:
                raise BindingError(
                    f"predicate proxy is the column name {self.proxy!r} but "
                    "the query has no dataset backend; pass backend= to "
                    "execute_query or register the scores directly"
                )
            cached = getattr(self, "_backend_proxy", None)
            if cached is not None and cached[0] is backend:
                return cached[1]
            from repro.proxy.base import BackedProxy

            wrapped = BackedProxy(backend, self.proxy, name=f"bound:{self.proxy}")
            self._backend_proxy = (backend, wrapped)
            return wrapped
        return memoized_proxy_object(self, self.proxy, name="bound_proxy")


@dataclass
class GroupBinding:
    """Everything needed to execute a GROUP BY query on one key."""

    groups: List[Hashable]
    proxies: Dict[Hashable, Union[Proxy, Sequence[float]]]
    group_key_oracle: Optional[GroupKeyOracle] = None
    per_group_oracles: Optional[PerGroupOracles] = None
    group_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.group_key_oracle is None and self.per_group_oracles is None:
            raise BindingError(
                "a group binding needs a group-key oracle or per-group oracles"
            )
        missing = [g for g in self.groups if g not in self.proxies]
        if missing:
            raise BindingError(f"missing proxies for groups: {missing}")

    @property
    def setting(self) -> str:
        """"single" when a group-key oracle is available, else "multi"."""
        return "single" if self.group_key_oracle is not None else "multi"

    def group_specs(self) -> List[GroupSpec]:
        return [GroupSpec(key=g, proxy=self.proxies[g]) for g in self.groups]


class QueryContext:
    """Registry binding query text to data, oracles and proxies.

    ``backend`` (optional) is the context's default dataset backend:
    statistics and proxies registered as *column names* are resolved
    against it (or against the ``backend=`` hint given at execution time,
    which takes precedence).  :meth:`from_backend` builds a context
    directly over a backend.
    """

    def __init__(self, num_records: int, backend=None):
        if num_records <= 0:
            raise ValueError(f"num_records must be positive, got {num_records}")
        self.num_records = int(num_records)
        self.backend = backend
        self._statistics: Dict[str, Union[np.ndarray, str]] = {}
        self._predicates: Dict[str, PredicateBinding] = {}
        self._groups: Dict[str, GroupBinding] = {}

    @classmethod
    def from_backend(cls, backend) -> "QueryContext":
        """A context over a dataset backend (its records, its columns)."""
        return cls(backend.num_records, backend=backend)

    # -- Registration ---------------------------------------------------------------
    def register_statistic(
        self, name: str, values: Union[Sequence[float], str]
    ) -> "QueryContext":
        """Register per-record values for an expression (by canonical name).

        ``values`` may be a dense array, a dataset-backend column handle,
        or a *column name* (a string) resolved lazily against the query's
        backend at execution time — the out-of-core registration style,
        which never materializes the column.
        """
        if isinstance(values, str):
            self._statistics[name] = values
            return self
        from repro.data.backend import is_column_handle

        if is_column_handle(values):
            if len(values) != self.num_records:
                raise ValueError(
                    f"statistic {name!r} has {len(values)} values, "
                    f"expected {self.num_records}"
                )
            self._statistics[name] = values
            return self
        arr = np.asarray(values, dtype=float)
        if arr.shape[0] != self.num_records:
            raise ValueError(
                f"statistic {name!r} has {arr.shape[0]} values, expected {self.num_records}"
            )
        self._statistics[name] = arr
        return self

    def register_predicate(
        self,
        key: str,
        oracle: Callable[[int], bool],
        proxy: Union[Proxy, Sequence[float]],
        labels: Optional[Sequence] = None,
    ) -> "QueryContext":
        """Register the oracle / proxy for a predicate atom (by canonical key)."""
        label_arr = None
        if labels is not None:
            label_arr = np.asarray(labels, dtype=bool)
            if label_arr.shape[0] != self.num_records:
                raise ValueError(
                    f"labels for {key!r} have {label_arr.shape[0]} entries, "
                    f"expected {self.num_records}"
                )
        self._predicates[key] = PredicateBinding(
            oracle=oracle, proxy=proxy, labels=label_arr
        )
        return self

    def register_groupby(self, key: str, binding: GroupBinding) -> "QueryContext":
        """Register a group binding for a GROUP BY key (by canonical name)."""
        self._groups[key] = binding
        return self

    # -- Resolution -----------------------------------------------------------------
    def resolve_statistic(self, expression: FunctionCall, backend=None):
        """The statistic's values: a dense array or a backend column handle.

        ``backend`` (defaulting to the context's own) resolves string
        registrations; the returned handle feeds the samplers directly,
        which gather only the records they draw.
        """
        backend = backend if backend is not None else self.backend
        for candidate in (expression.canonical(), expression.name):
            if candidate in self._statistics:
                registered = self._statistics[candidate]
                if not isinstance(registered, str):
                    return registered
                if backend is None:
                    raise BindingError(
                        f"statistic {candidate!r} is registered as column "
                        f"{registered!r} but the query has no dataset "
                        "backend; pass backend= to execute_query"
                    )
                try:
                    handle = backend.column(registered)
                except KeyError as exc:
                    raise BindingError(str(exc)) from None
                if len(handle) != self.num_records:
                    raise BindingError(
                        f"backend column {registered!r} has {len(handle)} "
                        f"records, the context expects {self.num_records}"
                    )
                return handle
        raise BindingError(
            f"no statistic registered for {expression.canonical()!r}; "
            f"registered statistics: {sorted(self._statistics)}"
        )

    def resolve_predicate(self, atom: PredicateAtom) -> PredicateBinding:
        for candidate in (atom.key(), atom.expression.canonical(), atom.expression.name):
            if candidate in self._predicates:
                return self._predicates[candidate]
        raise BindingError(
            f"no predicate binding for {atom.key()!r}; "
            f"registered predicates: {sorted(self._predicates)}"
        )

    def resolve_groupby(self, key: FunctionCall) -> GroupBinding:
        for candidate in (key.canonical(), key.name):
            if candidate in self._groups:
                return self._groups[candidate]
        raise BindingError(
            f"no group binding for {key.canonical()!r}; "
            f"registered group keys: {sorted(self._groups)}"
        )


@dataclass
class QueryResult:
    """The executor's answer: a scalar (or per-group values) plus diagnostics."""

    value: Optional[float] = None
    ci: Optional[ConfidenceInterval] = None
    group_values: Dict[Hashable, float] = field(default_factory=dict)
    group_cis: Dict[Hashable, ConfidenceInterval] = field(default_factory=dict)
    oracle_calls: int = 0
    plan_kind: Optional[PlanKind] = None
    method: str = ""
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def is_group_by(self) -> bool:
        return bool(self.group_values)


def execute_query(
    query: Union[str, Query],
    context: QueryContext,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    num_bootstrap: int = 1000,
    with_ci: bool = True,
    seed: Optional[int] = None,
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
    backend=None,
) -> QueryResult:
    """Parse (if needed), plan and execute a query against a context.

    ``config`` is recorded on the plan and carries every physical
    execution knob: how many records each oracle invocation batch labels
    (``None`` = whole draw sets at once, ``1`` = strictly sequential) and
    whether execution may reuse the process-wide proxy-scores /
    stratification caches across repeated queries (``plan_cache``, default
    on).  ``backend`` is the dataset-backend hint (validated at planning
    time like ``config``): the storage that string column registrations
    resolve against, overriding the context's default.  No knob ever
    changes the query answer, the confidence interval, or the oracle call
    count — backends serve bit-identical column values.
    """
    if isinstance(query, str):
        query = parse_query(query)
    plan = plan_query(
        query,
        config=config,
        backend=backend if backend is not None else context.backend,
    )
    if (
        plan.backend is not None
        and plan.backend.num_records != context.num_records
    ):
        # Caught here, once, for every plan shape: per-column resolution
        # would let a COUNT query (which resolves no statistic) stratify a
        # differently-sized backend and silently mis-answer.
        raise PlanningError(
            f"backend {plan.backend.name!r} has {plan.backend.num_records} "
            f"records but the context covers {context.num_records}; the "
            "query would sample the wrong population"
        )
    # Explicit seed wins; otherwise the config's rng policy (historically a
    # fresh nondeterministic state when neither is given).
    rng = rng or RandomState(seed if seed is not None else plan.config.seed)

    cache_scope = (
        nullcontext() if plan.config.plan_cache else stratification_cache_disabled()
    )
    with cache_scope:
        if plan.kind is PlanKind.GROUP_BY:
            return _execute_group_by(plan, context, num_strata, stage1_fraction, rng)
        if plan.kind is PlanKind.MULTI_PREDICATE:
            return _execute_multi_predicate(
                plan, context, num_strata, stage1_fraction, num_bootstrap, with_ci, rng
            )
        return _execute_single_predicate(
            plan, context, num_strata, stage1_fraction, num_bootstrap, with_ci, rng
        )


# ---------------------------------------------------------------------------
# Session-servable preparation (the serving layer's entry point)
# ---------------------------------------------------------------------------


@dataclass
class PreparedQuery:
    """A planned query as a servable pipeline plus its finalizer.

    :func:`prepare_query` performs everything :func:`execute_query` does
    up to (but not including) running the sampler: parse, plan, validate,
    bind, stratify.  What remains is a
    :class:`~repro.engine.pipeline.SamplingPipeline` to be driven
    step-by-step — the serving layer schedules it among many live
    queries — and :meth:`finalize` to convert the finished session's
    :class:`~repro.core.results.EstimateResult` into the
    :class:`QueryResult` ``execute_query`` would have returned.
    """

    query: Query
    plan_kind: PlanKind
    pipeline: SamplingPipeline
    num_bootstrap: int
    with_ci: bool

    @property
    def budget(self) -> int:
        """The pipeline's oracle budget (the query's ORACLE LIMIT)."""
        return self.pipeline.budget

    def finalize(self, result: EstimateResult, rng: RandomState) -> QueryResult:
        """The query's answer from a finished session's estimate result.

        Pass the *session's own* ``state.rng`` (not a fresh one): the
        SUM/COUNT aggregate bootstrap then consumes exactly the stream
        position ``execute_query`` would have, keeping served results
        bit-identical to solo execution.
        """
        if self.plan_kind is PlanKind.MULTI_PREDICATE:
            # Mirror run_abae_multipred: constituent accounting lives on
            # the composite oracle.
            composite = self.pipeline.oracle
            if hasattr(composite, "total_children_calls"):
                result.details["constituent_oracle_calls"] = (
                    composite.total_children_calls
                )
        return _finalize_scalar(
            self.query, result, self.plan_kind, self.num_bootstrap, self.with_ci, rng
        )


def prepare_query(
    query: Union[str, Query],
    context: QueryContext,
    *,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    num_bootstrap: int = 1000,
    with_ci: bool = True,
    config: Optional[ExecutionConfig] = None,
    backend=None,
    oracle_transform: Optional[Callable] = None,
) -> PreparedQuery:
    """Parse and plan a query into a servable :class:`PreparedQuery`.

    The construction path is ``execute_query``'s own — same planning,
    same validation, same binding resolution order, stratification built
    under the same plan-cache scope — so driving the prepared pipeline's
    session to completion and calling
    :meth:`PreparedQuery.finalize` with the session's ``state.rng``
    reproduces ``execute_query`` bit-for-bit.

    ``oracle_transform(identity, oracle)``, when given, wraps every bound
    predicate oracle; ``identity`` is the predicate atom's canonical key,
    stable across queries, which is how the serving layer plugs in its
    process-wide shared answer cache.  The transform must preserve answer
    semantics — it may only change *who pays* for a call.

    Only the session-servable plans are supported: a GROUP BY query
    raises :class:`~repro.query.errors.PlanningError` (serve it through
    ``execute_query``, which runs its multi-pipeline driver to
    completion).
    """
    if isinstance(query, str):
        query = parse_query(query)
    plan = plan_query(
        query,
        config=config,
        backend=backend if backend is not None else context.backend,
    )
    if (
        plan.backend is not None
        and plan.backend.num_records != context.num_records
    ):
        raise PlanningError(
            f"backend {plan.backend.name!r} has {plan.backend.num_records} "
            f"records but the context covers {context.num_records}; the "
            "query would sample the wrong population"
        )
    if plan.kind is PlanKind.GROUP_BY:
        raise PlanningError(
            "GROUP BY queries are not session-servable: the group-by "
            "drivers run multiple coupled pipelines; execute them with "
            "execute_query instead"
        )

    cache_scope = (
        nullcontext() if plan.config.plan_cache else stratification_cache_disabled()
    )
    with cache_scope:
        if plan.kind is PlanKind.MULTI_PREDICATE:
            expression = _build_expression(
                query.predicate,
                context,
                backend=plan.backend,
                oracle_transform=oracle_transform,
            )
            statistic = _statistic_for(query, context, backend=plan.backend)
            pipeline = multipred_pipeline(
                expression=expression,
                statistic=statistic,
                budget=query.oracle.limit,
                num_strata=num_strata,
                stage1_fraction=stage1_fraction,
                with_ci=_sampler_needs_ci(query, with_ci),
                alpha=query.alpha,
                num_bootstrap=num_bootstrap,
                config=plan.config,
            )
        else:
            atom = plan.atoms[0]
            binding = context.resolve_predicate(atom)
            oracle = binding.oracle
            if oracle_transform is not None:
                oracle = oracle_transform(atom.key(), oracle)
            statistic = _statistic_for(query, context, backend=plan.backend)
            pipeline = two_stage_pipeline(
                proxy=binding.proxy_object(backend=plan.backend),
                oracle=oracle,
                statistic=statistic,
                budget=query.oracle.limit,
                num_strata=num_strata,
                stage1_fraction=stage1_fraction,
                with_ci=_sampler_needs_ci(query, with_ci),
                alpha=query.alpha,
                num_bootstrap=num_bootstrap,
                config=plan.config,
            )
    return PreparedQuery(
        query=query,
        plan_kind=plan.kind,
        pipeline=pipeline,
        num_bootstrap=num_bootstrap,
        with_ci=with_ci,
    )


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


def _statistic_for(query: Query, context: QueryContext, backend=None):
    """The per-record statistic (array or column handle); COUNT uses 1."""
    if query.aggregate.kind is AggregateKind.COUNT:
        return np.ones(context.num_records, dtype=float)
    return context.resolve_statistic(query.aggregate.expression, backend=backend)


def _sampler_needs_ci(query: Query, with_ci: bool) -> bool:
    """Whether the sampler itself should bootstrap its AVG-space CI.

    Only AVG and PERCENTAGE answers use that interval.  SUM and COUNT get
    theirs from :func:`bootstrap_aggregate_interval` in
    :func:`_finalize_scalar`, so a sampler-side bootstrap would be thrown
    away — every plan that builds a sampler asks here.
    """
    return with_ci and query.aggregate.kind in (
        AggregateKind.AVG,
        AggregateKind.PERCENTAGE,
    )


def _finalize_scalar(
    query: Query,
    result: EstimateResult,
    plan_kind: PlanKind,
    num_bootstrap: int,
    with_ci: bool,
    rng: RandomState,
) -> QueryResult:
    """Convert an AVG-space :class:`EstimateResult` into the query's aggregate."""
    kind = query.aggregate.kind
    stratum_sizes = result.details.get("stratum_sizes")
    if kind in (AggregateKind.AVG, AggregateKind.PERCENTAGE):
        value = result.estimate
        ci = result.ci
    else:
        # SUM and COUNT need the per-stratum sizes to scale positive rates
        # into absolute record counts.
        if stratum_sizes is None:
            raise PlanningError(
                f"{kind.value} queries require per-stratum sizes from the sampler"
            )
        sizes = np.asarray(stratum_sizes, dtype=float)
        p_hats = np.array([e.p_hat for e in result.strata_estimates])
        mu_hats = np.array([e.mu_hat for e in result.strata_estimates])
        counts = p_hats * sizes
        if kind is AggregateKind.COUNT:
            value = float(counts.sum())
        else:
            value = float((counts * mu_hats).sum())
        ci = None
        if with_ci and result.samples:
            ci = bootstrap_aggregate_interval(
                result.samples,
                stratum_sizes=sizes,
                kind="count" if kind is AggregateKind.COUNT else "sum",
                alpha=query.alpha,
                num_bootstrap=num_bootstrap,
                rng=rng,
            )
    return QueryResult(
        value=value,
        ci=ci,
        oracle_calls=result.oracle_calls,
        plan_kind=plan_kind,
        method=result.method,
        details=dict(result.details),
    )


def _execute_single_predicate(
    plan, context, num_strata, stage1_fraction, num_bootstrap, with_ci, rng
) -> QueryResult:
    query = plan.query
    atom = plan.atoms[0]
    binding = context.resolve_predicate(atom)
    statistic = _statistic_for(query, context, backend=plan.backend)
    result = run_abae(
        proxy=binding.proxy_object(backend=plan.backend),
        oracle=binding.oracle,
        statistic=statistic,
        budget=query.oracle.limit,
        num_strata=num_strata,
        stage1_fraction=stage1_fraction,
        with_ci=_sampler_needs_ci(query, with_ci),
        alpha=query.alpha,
        num_bootstrap=num_bootstrap,
        rng=rng,
        config=plan.config,
    )
    return _finalize_scalar(
        query, result, PlanKind.SINGLE_PREDICATE, num_bootstrap, with_ci, rng
    )


def _build_expression(
    node: PredicateNode, context: QueryContext, backend=None, oracle_transform=None
) -> PredicateExpr:
    """Translate a WHERE tree into an executable MultiPred expression.

    ``oracle_transform(identity, oracle)``, when given, wraps each leaf
    oracle; ``identity`` is the atom's canonical key, so the same
    predicate text maps to the same identity in every query (the serving
    layer keys its shared cross-query answer cache on it).
    """
    if isinstance(node, PredicateAtom):
        binding = context.resolve_predicate(node)
        oracle = binding.oracle
        if oracle_transform is not None:
            oracle = oracle_transform(node.key(), oracle)
        return PredicateLeaf(
            proxy=binding.proxy_object(backend=backend),
            oracle=oracle,
            name=node.key(),
        )
    if isinstance(node, NotExpr):
        return Not(
            _build_expression(node.operand, context, backend, oracle_transform)
        )
    if isinstance(node, AndExpr):
        return And(
            [
                _build_expression(op, context, backend, oracle_transform)
                for op in node.operands
            ]
        )
    if isinstance(node, OrExpr):
        return Or(
            [
                _build_expression(op, context, backend, oracle_transform)
                for op in node.operands
            ]
        )
    raise PlanningError(f"unsupported predicate node: {node!r}")


def _execute_multi_predicate(
    plan, context, num_strata, stage1_fraction, num_bootstrap, with_ci, rng
) -> QueryResult:
    query = plan.query
    expression = _build_expression(query.predicate, context, backend=plan.backend)
    statistic = _statistic_for(query, context, backend=plan.backend)
    result = run_abae_multipred(
        expression=expression,
        statistic=statistic,
        budget=query.oracle.limit,
        num_strata=num_strata,
        stage1_fraction=stage1_fraction,
        with_ci=_sampler_needs_ci(query, with_ci),
        alpha=query.alpha,
        num_bootstrap=num_bootstrap,
        rng=rng,
        config=plan.config,
    )
    return _finalize_scalar(
        query, result, PlanKind.MULTI_PREDICATE, num_bootstrap, with_ci, rng
    )


def _execute_group_by(
    plan, context, num_strata, stage1_fraction, rng
) -> QueryResult:
    query = plan.query
    binding = context.resolve_groupby(query.group_by.key)
    kind = query.aggregate.kind

    if kind is AggregateKind.COUNT:
        statistic = np.ones(context.num_records, dtype=float)
    else:
        statistic = context.resolve_statistic(
            query.aggregate.expression, backend=plan.backend
        )

    if binding.setting == "single":
        group_result: GroupByResult = run_groupby_single_oracle(
            groups=binding.group_specs(),
            oracle=binding.group_key_oracle,
            statistic=statistic,
            budget=query.oracle.limit,
            num_strata=num_strata,
            stage1_fraction=stage1_fraction,
            rng=rng,
            config=plan.config,
        )
    else:
        group_result = run_groupby_multi_oracle(
            groups=binding.group_specs(),
            oracles=binding.per_group_oracles,
            statistic=statistic,
            budget=query.oracle.limit,
            num_strata=num_strata,
            stage1_fraction=stage1_fraction,
            rng=rng,
            config=plan.config,
        )

    values = group_result.estimates()
    if kind is AggregateKind.COUNT:
        # Per-group COUNT: rescale the per-group positive-rate estimate by
        # the dataset size.  The group-by samplers estimate AVG of 1 over
        # group members (which is 1); the group membership rate is exposed
        # through the per-stratum p_hats, which are combined here.
        values = {
            group: _estimate_group_count(result, context.num_records)
            for group, result in group_result.group_results.items()
        }

    return QueryResult(
        group_values=values,
        oracle_calls=group_result.oracle_calls,
        plan_kind=PlanKind.GROUP_BY,
        method=group_result.method,
        details={"allocation": group_result.allocation, **group_result.details},
    )


def _estimate_group_count(result: EstimateResult, num_records: int) -> float:
    """Estimate a group's record count from the per-stratum positive rates."""
    samples = result.samples
    if not samples:
        return 0.0
    total_draws = sum(s.num_draws for s in samples)
    total_positive = sum(s.num_positive for s in samples)
    if total_draws == 0:
        return 0.0
    # The samplers draw (approximately) proportional to stratum sizes only in
    # Stage 1, so the simple ratio is an approximation; it is exact for the
    # uniform allocation and close otherwise.
    return num_records * total_positive / total_draws
