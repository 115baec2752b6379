"""Concrete allocation and estimator policies for the sampling pipeline.

Each of the repo's samplers is now a *pair of strategy objects* plugged
into the one :class:`~repro.engine.pipeline.SamplingPipeline`:

===================  =================================  =========================
sampler              allocation policy                  estimator policy
===================  =================================  =========================
ABae (Algorithm 1)   :class:`TwoStageAllocationPolicy`  :class:`TwoStageEstimator`
uniform baseline     :class:`UniformAllocationPolicy`   :class:`UniformEstimator`
bandit sequential    :class:`SequentialAllocationPolicy`  ``StratifiedEstimator``
until-CI-width       :class:`UntilWidthAllocationPolicy`  :class:`UntilWidthEstimator`
group-by stage 2     :class:`BoundedExploitPolicy`      ``StratifiedEstimator``
multi-pred leaf      :class:`TwoStageAllocationPolicy`  (method ``abae-multipred``)
===================  =================================  =========================

Every policy reproduces its monolithic predecessor's draw sequence and
RNG consumption *exactly* — the equivalence harness pins bit-identical
fingerprints between the legacy entry points and the engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core import allocation as allocation_module
from repro.core.allocation import bounded_allocation
from repro.core.bootstrap import bootstrap_confidence_interval
from repro.core.estimators import (
    combine_estimates,
    estimate_all_strata,
    estimate_arrays,
)
from repro.core.types import SamplingBudget, StratumSample
from repro.engine.pipeline import (
    AllocationPolicy,
    PipelineState,
    StratifiedEstimator,
)

__all__ = [
    "TwoStageAllocationPolicy",
    "TwoStageEstimator",
    "UniformAllocationPolicy",
    "UniformEstimator",
    "SequentialAllocationPolicy",
    "UntilWidthAllocationPolicy",
    "UntilWidthEstimator",
    "BoundedExploitPolicy",
    "marginal_variance_reduction",
]


# ---------------------------------------------------------------------------
# Two-stage (Algorithm 1)
# ---------------------------------------------------------------------------


class TwoStageAllocationPolicy(AllocationPolicy):
    """Algorithm 1's allocation: a pilot round, then the plug-in optimum.

    Round 0 draws ``N1`` records from every stratum (exploration); round 1
    allocates the remaining ``N2`` proportional to ``sqrt(p_hat_k) *
    sigma_hat_k`` bounded by each stratum's remaining capacity
    (exploitation).  Budget top-ups queue further exploitation rounds
    allocated by the *current* cumulative estimates.
    """

    def __init__(self, split: SamplingBudget):
        self.split = split
        self._phase = 0
        self._extension_rounds: List[List[int]] = []

    def next_counts(self, state: PipelineState) -> Optional[Sequence[int]]:
        if self._phase == 0:
            self._phase = 1
            state.details["num_strata"] = state.num_strata
            return [self.split.stage1_per_stratum] * state.num_strata
        if self._phase == 1:
            self._phase = 2
            stage1_estimates = estimate_all_strata(state.rounds[0])
            # Looked up through the module so the allocation-rule ablation
            # (repro.experiments.ablations) can swap the rule by patching
            # repro.core.allocation.allocation_from_estimates.
            weights = allocation_module.allocation_from_estimates(stage1_estimates)
            counts = bounded_allocation(
                weights, self.split.stage2_total, state.pool.remaining
            )
            state.details.update(
                {
                    "stage1_per_stratum": self.split.stage1_per_stratum,
                    "stage2_total": self.split.stage2_total,
                    "stage2_counts": [int(c) for c in counts],
                    "allocation_weights": weights.tolist(),
                    "stage1_estimates": stage1_estimates,
                }
            )
            return counts
        if self._extension_rounds:
            return self._extension_rounds.pop(0)
        return None

    def extend_budget(self, state: PipelineState, extra: int) -> None:
        weights = allocation_module.allocation_from_estimates(
            estimate_all_strata(state.samples)
        )
        self._extension_rounds.append(
            bounded_allocation(weights, extra, state.pool.remaining)
        )


class TwoStageEstimator(StratifiedEstimator):
    """The paper's combined estimate, with the sample-reuse lesion switch.

    With ``reuse_samples`` (the paper's default) the final estimates fold
    in every round's draws; without it only post-pilot rounds count,
    reproducing the lesion study.
    """

    def __init__(self, reuse_samples: bool = True, method: Optional[str] = None):
        if method is None:
            method = "abae" if reuse_samples else "abae-no-reuse"
        super().__init__(method)
        self.reuse_samples = reuse_samples

    def final_samples(self, state: PipelineState) -> List[StratumSample]:
        if self.reuse_samples:
            return list(state.samples)
        return state.merged_rounds(start=1)


# ---------------------------------------------------------------------------
# Uniform baseline
# ---------------------------------------------------------------------------


class UniformAllocationPolicy(AllocationPolicy):
    """Spend the whole budget in one uniform round over a single stratum."""

    def __init__(self, budget: int):
        self.budget = int(budget)
        self._issued = False

    def next_counts(self, state: PipelineState) -> Optional[Sequence[int]]:
        if self._issued:
            if state.remaining_budget > 0 and state.pool.remaining[0] > 0:
                # A budget top-up re-opened the session: keep drawing
                # uniformly from the untouched records.
                return [state.remaining_budget]
            return None
        self._issued = True
        return [self.budget]


class UniformEstimator(StratifiedEstimator):
    """Mean of the statistic over predicate-positive draws.

    Computed exactly as the monolithic baseline did — a direct mean over
    positive values, not the (algebraically equal but not bit-equal)
    single-stratum weighted combination.
    """

    def __init__(self, num_records: int):
        super().__init__("uniform")
        self.num_records = int(num_records)

    def point_estimate(self, state: PipelineState, estimates=None) -> float:
        positives = state.samples[0].positive_values
        return float(positives.mean()) if positives.size else 0.0

    def estimate_from(self, final_samples, final_estimates) -> float:
        positives = final_samples[0].positive_values
        return float(positives.mean()) if positives.size else 0.0

    def extra_details(self, state: PipelineState):
        return {"num_records": self.num_records}


# ---------------------------------------------------------------------------
# Bandit-style sequential re-allocation
# ---------------------------------------------------------------------------


def marginal_variance_reduction(samples: Sequence[StratumSample]) -> np.ndarray:
    """Priority score per stratum: estimated variance removed by one more draw.

    The estimator's variance has two per-stratum components:

    * the usual within-stratum term ``w_k^2 sigma_k^2 / (p_k n_k)`` from the
      uncertainty of ``mu_hat_k`` (the leading term of Proposition 3), and
    * a weight-uncertainty term from ``p_hat_k`` itself: the final estimate
      weighs ``mu_hat_k`` by ``p_hat_k / p_all``, so by the delta method a
      stratum whose mean differs from the overall mean contributes roughly
      ``((mu_k - mu_all) / p_all)^2 p_k (1 - p_k) / n_k``.

    One more draw divides each term's ``1/n_k`` by roughly ``(n_k + 1)/n_k``,
    so the marginal gain is the current contribution divided by ``n_k + 1``.
    Including the second term matters in practice: with a binary statistic a
    stratum can have ``sigma_hat_k = 0`` while its ``p_hat_k`` is still very
    uncertain, and a criterion based on ``sigma_hat_k`` alone would starve it
    (and inflate the final error).  Strata with no draws yet receive an
    exploration bonus equal to the largest known priority.

    The estimate columns come from :func:`estimate_arrays` (no per-call
    object/listcomp churn).
    """
    p, mu, sigma, draws = estimate_arrays(samples)
    p_all = p.sum()
    if p_all == 0:
        # Nothing known yet anywhere: explore uniformly.
        return np.ones(len(samples))
    w = p / p_all
    mu_all = float(np.dot(w, mu))
    with np.errstate(divide="ignore", invalid="ignore"):
        within = np.where(p > 0, w**2 * sigma**2 / np.maximum(p, 1e-12), 0.0)
        weight_uncertainty = ((mu - mu_all) / p_all) ** 2 * p * (1.0 - p)
        contribution = (within + weight_uncertainty) / np.maximum(draws, 1.0)
        priority = contribution / np.maximum(draws + 1.0, 1.0)

    unexplored = draws == 0
    if unexplored.any():
        bonus = float(priority[~unexplored].max()) if (~unexplored).any() else 1.0
        priority[unexplored] = max(bonus, 1e-12)
    return priority


def _floor_spread(weights: np.ndarray, batch: int) -> np.ndarray:
    """Spread ``batch`` draws proportionally to ``weights`` (summing to 1).

    Floor allocation, with the integer shortfall topped up at the argmax
    weight: the per-round spread of both reallocating policies.
    """
    counts = np.floor(weights * batch).astype(np.int64)
    counts[int(np.argmax(weights))] += batch - int(counts.sum())
    return counts


class SequentialAllocationPolicy(AllocationPolicy):
    """Bandit-style re-allocation: revisit the allocation after every batch.

    A small round-robin warm-up plays the role of Stage 1; every
    subsequent round spreads ``reallocation_batch`` draws across strata
    proportionally to their marginal variance reduction.  The loop reads
    ``state.budget``, so budget top-ups resume it with no extra machinery.
    """

    def __init__(self, warmup_per_stratum: int, reallocation_batch: int):
        self.warmup_per_stratum = int(warmup_per_stratum)
        self.reallocation_batch = int(reallocation_batch)
        self._warmed = False

    def next_counts(self, state: PipelineState) -> Optional[Sequence[int]]:
        if not self._warmed:
            self._warmed = True
            warmup = min(
                self.warmup_per_stratum,
                state.budget // max(state.num_strata, 1),
            )
            state.details["num_strata"] = state.num_strata
            state.details["warmup_per_stratum"] = warmup
            state.details["batch_size"] = self.reallocation_batch
            return [warmup] * state.num_strata
        if state.spent >= state.budget:
            return None
        this_batch = min(self.reallocation_batch, state.budget - state.spent)
        priorities = marginal_variance_reduction(state.samples)
        # Mask out exhausted strata.
        priorities[state.pool.remaining == 0] = 0.0
        total_priority = priorities.sum()
        if total_priority == 0:
            return None
        # Spread the batch proportionally to priority rather than sending it
        # all to the argmax, so one noisy priority estimate cannot distort
        # the allocation for a whole batch.
        return _floor_spread(priorities / total_priority, this_batch)


# ---------------------------------------------------------------------------
# Online aggregation: sample until the CI is narrow enough
# ---------------------------------------------------------------------------


class UntilWidthAllocationPolicy(AllocationPolicy):
    """Keep sampling until the bootstrap CI is narrower than a target.

    An initial round-robin pass (one stratum per round, so the budget
    clamp tracks actual draws exactly as the monolithic driver's loop did)
    makes the first CI well-defined; every later round re-checks the CI —
    consuming the session RNG for the bootstrap, which is therefore part
    of the deterministic draw sequence — and allocates the next batch by
    marginal variance reduction.  ``state.budget`` is the ``max_budget``
    ceiling, so top-ups extend the search transparently.
    """

    def __init__(
        self,
        target_width: float,
        reallocation_batch: int,
        alpha: float,
        num_bootstrap: int,
    ):
        self.target_width = float(target_width)
        self.reallocation_batch = int(reallocation_batch)
        self.alpha = float(alpha)
        self.num_bootstrap = int(num_bootstrap)
        self._warmup_remaining: Optional[int] = None

    def next_counts(self, state: PipelineState) -> Optional[Sequence[int]]:
        num_strata = state.num_strata
        if self._warmup_remaining is None:
            self._warmup_remaining = num_strata
            state.details["target_width"] = self.target_width
        if self._warmup_remaining > 0:
            per_stratum = max(1, self.reallocation_batch // num_strata)
            k = num_strata - self._warmup_remaining
            self._warmup_remaining -= 1
            counts = [0] * num_strata
            counts[k] = min(per_stratum, max(0, state.budget - state.spent))
            return counts
        # Round boundary: refresh the CI over everything drawn so far and
        # record the (budget, estimate, width) checkpoint.
        state.ci = bootstrap_confidence_interval(
            state.samples,
            alpha=self.alpha,
            num_bootstrap=self.num_bootstrap,
            rng=state.rng,
        )
        estimate = combine_estimates(estimate_all_strata(state.samples))
        state.details.setdefault("trace", []).append(
            {
                "oracle_calls": state.spent,
                "estimate": estimate,
                "ci_width": state.ci.width,
            }
        )
        if state.ci.width <= self.target_width or state.spent >= state.budget:
            return None
        priorities = marginal_variance_reduction(state.samples)
        priorities[state.pool.remaining == 0] = 0.0
        total_priority = priorities.sum()
        if total_priority == 0:
            return None
        # Spread the batch across strata proportionally to priority, so a
        # single noisy priority estimate cannot hog the whole batch.
        batch = min(self.reallocation_batch, state.budget - state.spent)
        return _floor_spread(priorities / total_priority, batch)


class UntilWidthEstimator(StratifiedEstimator):
    """Standard combiner plus the until-width driver's diagnostics."""

    def __init__(self):
        super().__init__("abae-until-width")

    def extra_details(self, state: PipelineState):
        target = state.details.get("target_width")
        reached = state.ci is not None and state.ci.width <= target
        return {"reached_target": bool(reached)}


# ---------------------------------------------------------------------------
# Exploitation continuation (group-by stage 2, budget top-ups)
# ---------------------------------------------------------------------------


class BoundedExploitPolicy(AllocationPolicy):
    """One exploitation round with externally-chosen weights and budget.

    The group-by extensions choose each group's Stage-2 budget share by
    the minimax objective *across* groups; within the group the share is
    spread over strata proportional to ``weights`` bounded by remaining
    capacity.  Used with a pipeline primed with the group's pilot samples
    (``initial_samples``), this is exactly the monolithic samplers'
    stage-2 continuation — and the template for resuming any checkpointed
    two-stage run with extra budget.
    """

    def __init__(self, weights: Sequence[float], total: int):
        self.weights = np.asarray(weights, dtype=float)
        self.total = int(total)
        self._issued = False

    def next_counts(self, state: PipelineState) -> Optional[Sequence[int]]:
        if self._issued:
            return None
        self._issued = True
        return bounded_allocation(self.weights, self.total, state.pool.remaining)
