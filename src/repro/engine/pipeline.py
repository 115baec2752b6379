"""The unified sampling pipeline: one engine under every sampler.

The paper's ABae algorithm — and all of its extensions — is one loop:

    stratify -> explore -> allocate -> exploit -> estimate

The repo used to implement that loop six times as monolithic ``run_*``
functions, each hand-threading the execution knobs.  This module owns the
loop once.  A :class:`SamplingPipeline` wires together

* a stratification (one or more strata of candidate record indices),
* the oracle / statistic pair (labeled in batches per the
  :class:`~repro.engine.config.ExecutionConfig`),
* an :class:`AllocationPolicy` — the strategy deciding, round by round,
  how many draws each stratum receives next (two-stage plug-in optimal,
  uniform, bandit-style sequential, until-CI-width, ...), and
* an :class:`EstimatorPolicy` — the strategy turning accumulated samples
  into an :class:`~repro.core.results.EstimateResult`.

Execution itself is a :class:`~repro.engine.session.SamplingSession`
state machine: ``pipeline.run()`` drives a session to completion, and
``pipeline.session()`` hands the caller the stepper for streaming /
resumable execution.  Both paths perform *exactly the same draws in the
same order against the same random stream*, so step-driven execution is
bit-identical to one-shot execution — the property the equivalence
harness pins.

Determinism contract
--------------------
The pipeline inherits (and centralizes) the engine's standing contract:
``batch_size`` / ``plan_cache`` never change estimates, confidence intervals, per-stratum samples or
oracle accounting.  Record selection consumes the session RNG through
:meth:`StratumPool.select` in policy-defined round order: one
``rng.choice(undrawn_count, take, replace=False)`` per draw, the stream
:func:`repro.stats.sampling.sample_without_replacement` over the gathered
undrawn records would consume, without gathering them.  Labeling never
touches the stream, and a draw's bookkeeping costs O(draws), never
O(stratum).
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.batching import DEFAULT_BATCH_SIZE, label_records
from repro.core.estimators import combine_estimates, estimate_all_strata
from repro.core.results import ConfidenceInterval, EstimateResult
from repro.core.stratification import Stratification
from repro.core.types import StratumSample
from repro.engine.config import (
    ExecutionConfig,
    ProgressEvent,
    resolve_execution_config,
)
from repro.stats.rng import RandomState
from repro.stats.sampling import sample_without_replacement

__all__ = [
    "StatisticLike",
    "normalize_statistic",
    "draw_stratum_sample",
    "StratumPool",
    "PipelineState",
    "AllocationPolicy",
    "EstimatorPolicy",
    "StratifiedEstimator",
    "SamplingPipeline",
]

StatisticLike = Union[Callable[[int], float], Sequence[float], np.ndarray]


class _ArrayStatistic:
    """Adapter giving a precomputed value array both call styles.

    Calling it with one index mirrors the legacy scalar interface; the
    ``batch`` method gathers many records with a single fancy index, which
    is what :func:`repro.core.batching.label_records` consumes.
    """

    __slots__ = ("_values",)

    def __init__(self, values: np.ndarray):
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """The backing value column (used by the batched gather fast path)."""
        return self._values

    def __call__(self, record_index: int) -> float:
        return float(self._values[record_index])

    def batch(self, record_indices) -> np.ndarray:
        return self._values[np.asarray(record_indices, dtype=np.int64)]


class _BackedStatistic:
    """Statistic values gathered through a dataset-backend column handle.

    Mirrors :class:`_ArrayStatistic`'s two call styles but reads via the
    backend's ``gather`` — a sampling run over an out-of-core column only
    ever pulls the records it actually draws.
    """

    __slots__ = ("_handle",)

    def __init__(self, handle):
        self._handle = handle

    @property
    def handle(self):
        """The backing column handle."""
        return self._handle

    def __call__(self, record_index: int) -> float:
        return float(
            self._handle.gather(np.array([record_index], dtype=np.int64))[0]
        )

    def batch(self, record_indices) -> np.ndarray:
        return np.asarray(
            self._handle.gather(np.asarray(record_indices, dtype=np.int64)),
            dtype=float,
        )


def normalize_statistic(statistic: StatisticLike) -> Callable[[int], float]:
    """Accept a per-record callable, a precomputed array, or a backend column.

    Arrays come back wrapped in :class:`_ArrayStatistic` so the batched
    execution engine can gather values without a Python-level loop;
    dataset-backend column handles (see :mod:`repro.data`) wrap in
    :class:`_BackedStatistic`, which gathers through the backend instead
    of materializing; callables pass through unchanged (keeping any
    ``batch`` method they already expose, e.g.
    :class:`repro.oracle.base.StatisticOracle`).
    """
    from repro.data.backend import is_column_handle

    if is_column_handle(statistic):
        return _BackedStatistic(statistic)
    if callable(statistic):
        return statistic
    return _ArrayStatistic(np.asarray(statistic, dtype=float))


def draw_stratum_sample(
    stratum_index: int,
    candidate_indices: np.ndarray,
    n: int,
    oracle: Callable[[int], bool],
    statistic: Callable[[int], float],
    rng: RandomState,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> StratumSample:
    """Sample ``n`` records without replacement and label them with the oracle.

    The statistic is only evaluated for records that satisfy the predicate
    (its value is undefined otherwise — e.g. ``count_cars`` of a frame with
    no cars filtered by ``count_cars > 0``); non-matching draws carry NaN.

    ``batch_size`` controls how many records each oracle invocation labels
    (``None`` = the whole draw in one batch, ``1`` = the strictly sequential
    legacy path); every setting yields bit-identical samples and oracle
    accounting because record selection happens before labeling and never
    shares the random stream with it.  Concurrent oracle calls are the
    oracle's concern: a blocking :class:`~repro.oracle.remote.AsyncOracle`
    spreads a large batch over its endpoint's in-flight slots.
    """
    drawn = sample_without_replacement(candidate_indices, n, rng)
    matches, values = label_records(drawn, oracle, statistic, batch_size)
    return StratumSample(
        stratum=stratum_index, indices=drawn, matches=matches, values=values
    )


def _empty_stratum_sample(stratum_index: int) -> StratumSample:
    """A zero-draw sample, bit-identical to drawing ``n=0`` records."""
    return StratumSample(stratum=stratum_index)


class StratumPool:
    """Which records of each stratum are drawn, kept in O(draws) space.

    Per stratum the pool holds the sorted ``int64`` *positions* (into the
    stratification's sorted, read-only index view) of the records drawn so
    far, and the count of those still undrawn.  A draw is two steps:
    :meth:`select` maps random ranks among the undrawn records to
    positions without mutating anything, and :meth:`commit` merges the
    positions in.  Neither step touches the stratum's undrawn records, so
    a draw costs O(draws), not O(stratum).

    Undrawn records are ranked in the stratum's ascending record order —
    the order the dataset-length drawn-mask gathers of the monolithic
    samplers produced — so drawing ranks consumes the RNG exactly as
    drawing from the gathered candidate array did.
    """

    __slots__ = ("_strata", "_drawn", "remaining")

    def __init__(self, strata: Sequence[np.ndarray]):
        self._strata = [np.asarray(s, dtype=np.int64) for s in strata]
        self._drawn = [np.empty(0, dtype=np.int64) for _ in self._strata]
        self.remaining = np.array([s.size for s in self._strata], dtype=np.int64)

    @classmethod
    def from_stratification(cls, stratification: Stratification) -> "StratumPool":
        return cls(
            [stratification.stratum(k) for k in range(stratification.num_strata)]
        )

    @property
    def num_strata(self) -> int:
        return len(self._strata)

    def stratum(self, k: int) -> np.ndarray:
        """The full (sorted) index view of stratum ``k``."""
        return self._strata[k]

    def select(self, k: int, n: int, rng: RandomState):
        """Choose ``min(n, remaining)`` undrawn records of stratum ``k``.

        Returns ``(positions, indices)`` in draw order and mutates nothing,
        so a caller can label the records first and :meth:`commit` only
        once labelling succeeded.  The result equals
        ``rng.choice(undrawn_records, take, replace=False)``: with
        ``p=None``, NumPy's ``Generator.choice`` of an array is that array
        indexed by the choice of its length, on both its Floyd and its
        tail-shuffle path.  A rank ``r`` maps to the stratum position
        ``r + #{i : drawn[i] - i <= r}``, where ``drawn[i] - i`` counts the
        undrawn records before the ``i``-th drawn one.
        """
        remaining = int(self.remaining[k])
        take = min(int(n), remaining)
        if take <= 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        ranks = rng.choice(remaining, size=take, replace=False)
        drawn = self._drawn[k]
        gaps = drawn - np.arange(drawn.size, dtype=np.int64)
        positions = ranks + np.searchsorted(gaps, ranks, side="right")
        return positions, self._strata[k][positions]

    def commit(self, k: int, positions: np.ndarray) -> None:
        """Mark the records at stratum ``k``'s ``positions`` drawn."""
        if len(positions) == 0:
            return
        positions = np.asarray(positions, dtype=np.int64)
        self._drawn[k] = np.sort(np.concatenate([self._drawn[k], positions]))
        self.remaining[k] -= positions.shape[0]

    def mark_drawn(self, k: int, indices: np.ndarray) -> None:
        """Mark records (by record index) of stratum ``k`` drawn."""
        # The stratum is sorted, so each record's position is a binary search.
        drawn = np.asarray(indices, dtype=np.int64)
        self.commit(k, np.searchsorted(self._strata[k], drawn))

    # -- Pickling ------------------------------------------------------------------
    # Pools are pickled inside session checkpoints.  Restore accepts every
    # form a released checkpoint carries: this dict, the earlier dict that
    # kept a bool availability mask per stratum (``_available``), the
    # 1.6-1.8 mask dict that also named a kernel backend (ignored), and the
    # pre-1.6 ``__slots__`` tuple.
    def __getstate__(self):
        return {
            "_strata": self._strata,
            "_drawn": self._drawn,
            "remaining": self.remaining,
        }

    def __setstate__(self, state):
        if isinstance(state, tuple):  # pre-1.6 __slots__ pickle format
            state = {**(state[0] or {}), **(state[1] or {})}
        self._strata = state["_strata"]
        if "_available" in state:
            self._drawn = [
                np.flatnonzero(~available).astype(np.int64)
                for available in state["_available"]
            ]
        else:
            self._drawn = state["_drawn"]
        self.remaining = state["remaining"]


class PipelineState:
    """Everything a sampling run accumulates: the session's mutable state.

    ``samples`` holds the cumulative per-stratum samples (each draw extends
    its stratum in draw order, exactly as the monolithic samplers did);
    ``rounds`` additionally keeps each allocation round's fresh samples
    separately, which the two-stage estimator needs for the sample-reuse
    lesion and checkpoint inspection needs for provenance.  ``details`` is
    the policies' scratch space for result diagnostics; ``ci`` is set by
    policies that track a confidence interval as they go (until-width).
    """

    __slots__ = (
        "stratification",
        "pool",
        "rng",
        "budget",
        "spent",
        "samples",
        "rounds",
        "round_index",
        "details",
        "ci",
    )

    def __init__(
        self,
        pool: StratumPool,
        rng: RandomState,
        budget: int,
        stratification: Optional[Stratification] = None,
        initial_samples: Optional[Sequence[StratumSample]] = None,
        initial_spent: int = 0,
    ):
        self.stratification = stratification
        self.pool = pool
        self.rng = rng
        self.budget = int(budget)
        self.spent = int(initial_spent)
        if initial_samples is None:
            self.samples: List[StratumSample] = [
                _empty_stratum_sample(k) for k in range(pool.num_strata)
            ]
        else:
            self.samples = list(initial_samples)
        self.rounds: List[List[StratumSample]] = []
        self.round_index = 0
        self.details: Dict[str, object] = {}
        self.ci: Optional[ConfidenceInterval] = None

    @property
    def num_strata(self) -> int:
        return self.pool.num_strata

    @property
    def remaining_budget(self) -> int:
        return max(0, self.budget - self.spent)

    def merged_rounds(self, start: int = 0) -> List[StratumSample]:
        """Per-stratum merge of rounds ``start`` onwards, in draw order."""
        merged = [_empty_stratum_sample(k) for k in range(self.num_strata)]
        for round_samples in self.rounds[start:]:
            merged = [
                merged[k].extend(round_samples[k]) for k in range(self.num_strata)
            ]
        return merged


class AllocationPolicy(abc.ABC):
    """Strategy deciding how the next round of draws is allocated.

    A policy is a single-use, stateful object: the session calls
    :meth:`next_counts` at every round boundary and executes the returned
    per-stratum counts in stratum order; ``None`` ends sampling.  Policies
    may read everything on the state (accumulated samples, pool capacity,
    spent/total budget) and may consume ``state.rng`` — any randomness or
    bootstrap a policy performs is part of the deterministic draw sequence.
    """

    @abc.abstractmethod
    def next_counts(self, state: PipelineState) -> Optional[Sequence[int]]:
        """Per-stratum draw counts for the next round, or ``None`` when done."""

    def extend_budget(self, state: PipelineState, extra: int) -> None:
        """React to a budget top-up (``state.budget`` is already increased).

        The default is a no-op: policies whose loop condition reads
        ``state.budget`` (sequential, until-width) resume automatically.
        Policies with a fixed round plan (two-stage) override this to queue
        additional rounds.
        """


class EstimatorPolicy(abc.ABC):
    """Strategy turning accumulated samples into an :class:`EstimateResult`."""

    method = "abae"

    @abc.abstractmethod
    def point_estimate(self, state: PipelineState, estimates=None) -> float:
        """The current point estimate from the samples accumulated so far.

        Must not consume ``state.rng`` — this is what streaming
        ``partial_estimate()`` calls between steps, and peeking must never
        perturb the draw sequence.  ``estimates`` optionally supplies
        per-stratum estimates the caller already computed over
        ``state.samples``, so the streaming hot path estimates once, not
        twice.
        """

    @abc.abstractmethod
    def finalize(
        self,
        state: PipelineState,
        with_ci: bool,
        alpha: float,
        num_bootstrap: int,
    ) -> EstimateResult:
        """The run's final result (may consume ``state.rng`` for a CI)."""


class StratifiedEstimator(EstimatorPolicy):
    """The standard ABae combiner over the cumulative per-stratum samples.

    Used directly by the sequential sampler and the group-by continuation;
    subclassed by the two-stage estimator (sample-reuse lesion) and the
    until-width estimator (policy-tracked CI).
    """

    def __init__(self, method: str = "abae"):
        self.method = method

    def final_samples(self, state: PipelineState) -> List[StratumSample]:
        return list(state.samples)

    def extra_details(self, state: PipelineState) -> Dict[str, object]:
        return {}

    def point_estimate(self, state: PipelineState, estimates=None) -> float:
        if estimates is None:
            estimates = estimate_all_strata(state.samples)
        return combine_estimates(estimates)

    def estimate_from(self, final_samples, final_estimates) -> float:
        """The final point estimate (hook for non-stratified combiners)."""
        return combine_estimates(final_estimates)

    def finalize(
        self,
        state: PipelineState,
        with_ci: bool,
        alpha: float,
        num_bootstrap: int,
    ) -> EstimateResult:
        final_samples = self.final_samples(state)
        final_estimates = estimate_all_strata(final_samples)
        estimate = self.estimate_from(final_samples, final_estimates)
        ci = state.ci
        if with_ci and ci is None:
            from repro.core.bootstrap import bootstrap_confidence_interval

            ci = bootstrap_confidence_interval(
                final_samples,
                alpha=alpha,
                num_bootstrap=num_bootstrap,
                rng=state.rng,
            )
            # Persist the CI on the state: the bootstrap consumed the RNG,
            # so a checkpoint taken after finalization must carry the CI
            # rather than let a resumed session re-bootstrap from the
            # advanced stream (which would silently produce a different
            # interval).  Budget top-ups clear it (see
            # SamplingSession.add_budget) so post-top-up results recompute.
            state.ci = ci
        details = dict(state.details)
        details.update(self.extra_details(state))
        if state.stratification is not None and "stratum_sizes" not in details:
            details["stratum_sizes"] = state.stratification.sizes().tolist()
        return EstimateResult(
            estimate=estimate,
            ci=ci,
            oracle_calls=state.spent,
            strata_estimates=final_estimates,
            samples=final_samples,
            method=self.method,
            details=details,
        )


class SamplingPipeline:
    """One sampler, assembled: strata + oracle + statistic + policies.

    The pipeline is the *static* wiring; execution state lives in the
    (single) :class:`~repro.engine.session.SamplingSession` it creates.
    Policies are stateful and single-use, so a pipeline runs exactly once —
    build a fresh pipeline per run, exactly as the ``run_*`` wrappers do.
    """

    def __init__(
        self,
        *,
        oracle: Callable[[int], bool],
        statistic: StatisticLike,
        policy: AllocationPolicy,
        estimator: EstimatorPolicy,
        budget: int,
        stratification: Optional[Stratification] = None,
        strata: Optional[Sequence[np.ndarray]] = None,
        config: Optional[ExecutionConfig] = None,
        with_ci: bool = False,
        alpha: float = 0.05,
        num_bootstrap: int = 1000,
        initial_samples: Optional[Sequence[StratumSample]] = None,
        initial_spent: int = 0,
    ):
        if (stratification is None) == (strata is None):
            raise ValueError(
                "provide exactly one of stratification= or strata="
            )
        self.config = resolve_execution_config(config, "SamplingPipeline")
        self.oracle = oracle
        self.statistic = normalize_statistic(statistic)
        self.policy = policy
        self.estimator = estimator
        self.budget = int(budget)
        self.stratification = stratification
        self._strata = strata
        self.with_ci = with_ci
        self.alpha = alpha
        self.num_bootstrap = num_bootstrap
        self._initial_samples = initial_samples
        self._initial_spent = int(initial_spent)
        self._session = None

    # -- Session construction ------------------------------------------------------
    def _make_state(self, rng: Optional[RandomState]) -> PipelineState:
        if self.stratification is not None:
            pool = StratumPool.from_stratification(self.stratification)
        else:
            pool = StratumPool(self._strata)
        state = PipelineState(
            pool=pool,
            rng=self.config.make_rng(rng),
            budget=self.budget,
            stratification=self.stratification,
            initial_samples=self._initial_samples,
            initial_spent=self._initial_spent,
        )
        if self._initial_samples is not None:
            for k, sample in enumerate(self._initial_samples):
                pool.mark_drawn(k, sample.indices)
        return state

    def session(self, rng: Optional[RandomState] = None):
        """The pipeline's (single) execution session.

        Import is local to avoid a module cycle; the session module is the
        only consumer of pipeline internals.
        """
        from repro.engine.session import SamplingSession

        if self._session is not None:
            raise RuntimeError(
                "this pipeline already has a session; policies are stateful "
                "and single-use — build a fresh pipeline per run"
            )
        self._session = SamplingSession(self, self._make_state(rng))
        return self._session

    def run(self, rng: Optional[RandomState] = None) -> EstimateResult:
        """Drive a session to completion and return the finalized result."""
        return self.session(rng).run()

    def resume(self, checkpoint: bytes):
        """Rebuild this pipeline's session from checkpoint bytes.

        The pipeline must be freshly built with the same logical
        parameters as the checkpointed run; it contributes the live
        oracle / statistic / config while the checkpoint supplies the
        policy, estimator and accumulated state.
        """
        from repro.engine.session import SamplingSession

        if self._session is not None:
            raise RuntimeError(
                "this pipeline already has a session; build a fresh "
                "pipeline to resume a checkpoint"
            )
        return SamplingSession.restore(self, checkpoint)

    # -- Execution primitives (called by the session) ------------------------------
    def draw(self, state: PipelineState, k: int, count: int) -> StratumSample:
        """Draw ``count`` records from stratum ``k`` and fold them in.

        Zero-count or exhausted-stratum draws short-circuit to an empty
        sample without touching the RNG — bit-identical to calling the
        sampler with an empty request, which also consumes nothing.

        The pool commits the draw only after labelling returns: a
        cooperative oracle raises
        :class:`~repro.oracle.remote.PendingOracleBatch` from inside
        labelling, and the session then rewinds only the RNG, so nothing
        else may have changed.
        """
        if count <= 0 or state.pool.remaining[k] == 0:
            fresh = _empty_stratum_sample(k)
        else:
            positions, drawn = state.pool.select(k, count, state.rng)
            matches, values = label_records(
                drawn, self.oracle, self.statistic, self.config.batch_size
            )
            state.pool.commit(k, positions)
            fresh = StratumSample(
                stratum=k, indices=drawn, matches=matches, values=values
            )
        state.samples[k] = state.samples[k].extend(fresh)
        state.rounds[-1][k] = fresh
        state.spent += fresh.num_draws
        self.config.notify(
            ProgressEvent(
                phase="draw",
                round_index=state.round_index,
                stratum=k,
                drawn=fresh.num_draws,
                spent=state.spent,
                budget=state.budget,
            )
        )
        return fresh

    def finalize(self, state: PipelineState) -> EstimateResult:
        result = self.estimator.finalize(
            state, self.with_ci, self.alpha, self.num_bootstrap
        )
        self.config.notify(
            ProgressEvent(
                phase="finalize",
                round_index=state.round_index,
                stratum=None,
                drawn=0,
                spent=state.spent,
                budget=state.budget,
            )
        )
        return result
