"""ABae-MultiPred: queries with conjunctions, disjunctions and negations.

Section 3.3: each expensive predicate comes with its own proxy; the
expression's combined proxy score is obtained by substituting

* negation  -> ``1 - score``
* conjunction -> product of scores
* disjunction -> elementwise max of scores

which is exact when the proxies are perfectly calibrated and sharp, and a
good heuristic otherwise.  The combined predicate itself is evaluated by
running every constituent oracle (each charging its own cost).

The module provides a small expression tree (:class:`PredicateLeaf`,
:class:`And`, :class:`Or`, :class:`Not`) that carries both the proxy and
the oracle for each leaf, compiles the combined score vector and the
composite oracle, and hands both to the single-predicate sampler.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.abae import StatisticLike
from repro.core.results import EstimateResult
from repro.engine.builders import multipred_pipeline
from repro.engine.config import ExecutionConfig
from repro.oracle.base import Oracle
from repro.oracle.composite import AndOracle, NotOracle, OrOracle
from repro.proxy.base import Proxy
from repro.stats.rng import RandomState

__all__ = ["PredicateExpr", "PredicateLeaf", "And", "Or", "Not", "run_abae_multipred"]


class PredicateExpr(abc.ABC):
    """A node in the predicate expression tree."""

    # Memoized combined scores.  A grid of trials evaluates the same
    # expression's scores once per trial, and every combinator recomputes
    # its whole subtree (products / maxima / complements) per call — for a
    # deep expression that is O(depth * n) *per node access*.  The subtree
    # score vector is immutable once the leaves' proxies are fixed, so each
    # node computes it once and returns a frozen (read-only) array.
    _scores_cache: Optional[np.ndarray] = None

    def combined_scores(self) -> np.ndarray:
        """The per-record combined proxy score for the subtree (memoized)."""
        if self._scores_cache is None:
            scores = np.asarray(self._compute_combined_scores(), dtype=float)
            if scores.flags.writeable and scores.flags.owndata:
                scores.setflags(write=False)
            self._scores_cache = scores
        return self._scores_cache

    @abc.abstractmethod
    def _compute_combined_scores(self) -> np.ndarray:
        """Compute the subtree's combined score vector (uncached)."""

    @abc.abstractmethod
    def build_oracle(self) -> Oracle:
        """A composite oracle evaluating the subtree's predicate."""

    @abc.abstractmethod
    def leaves(self) -> List["PredicateLeaf"]:
        """All leaf predicates in the subtree, left to right."""

    def __and__(self, other: "PredicateExpr") -> "And":
        return And([self, other])

    def __or__(self, other: "PredicateExpr") -> "Or":
        return Or([self, other])

    def __invert__(self) -> "Not":
        return Not(self)


class PredicateLeaf(PredicateExpr):
    """A single expensive predicate with its proxy and oracle."""

    def __init__(self, proxy: Union[Proxy, Sequence[float]], oracle, name: str = None):
        from repro.engine.builders import as_proxy

        # Proxies pass through; raw scores and dataset-backend column
        # handles are wrapped (PrecomputedProxy / BackedProxy).
        self._proxy = as_proxy(proxy, name=name or "leaf_proxy")
        self._oracle = oracle
        self._name = name or getattr(oracle, "name", "predicate")

    @property
    def name(self) -> str:
        return self._name

    @property
    def proxy(self) -> Proxy:
        return self._proxy

    @property
    def oracle(self):
        return self._oracle

    def _compute_combined_scores(self) -> np.ndarray:
        return self._proxy.scores()

    def build_oracle(self) -> Oracle:
        return self._oracle

    def leaves(self) -> List["PredicateLeaf"]:
        return [self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PredicateLeaf({self._name!r})"


class _Combinator(PredicateExpr):
    """Shared machinery for AND / OR nodes."""

    def __init__(self, children: Sequence[PredicateExpr]):
        if len(children) < 1:
            raise ValueError(f"{type(self).__name__} requires at least one child")
        lengths = {len(child.combined_scores()) for child in children}
        if len(lengths) > 1:
            raise ValueError(
                f"all children must cover the same number of records, got {sorted(lengths)}"
            )
        self._children = list(children)

    @property
    def children(self) -> List[PredicateExpr]:
        return list(self._children)

    def leaves(self) -> List[PredicateLeaf]:
        collected: List[PredicateLeaf] = []
        for child in self._children:
            collected.extend(child.leaves())
        return collected


class And(_Combinator):
    """Conjunction: combined score is the product of child scores."""

    def _compute_combined_scores(self) -> np.ndarray:
        scores = np.ones_like(self._children[0].combined_scores())
        for child in self._children:
            scores = scores * child.combined_scores()
        return scores

    def build_oracle(self) -> Oracle:
        return AndOracle([child.build_oracle() for child in self._children])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "And(" + ", ".join(repr(c) for c in self._children) + ")"


class Or(_Combinator):
    """Disjunction: combined score is the elementwise max of child scores."""

    def _compute_combined_scores(self) -> np.ndarray:
        scores = self._children[0].combined_scores()
        for child in self._children[1:]:
            scores = np.maximum(scores, child.combined_scores())
        return scores

    def build_oracle(self) -> Oracle:
        return OrOracle([child.build_oracle() for child in self._children])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Or(" + ", ".join(repr(c) for c in self._children) + ")"


class Not(PredicateExpr):
    """Negation: combined score is ``1 - child score``."""

    def __init__(self, child: PredicateExpr):
        self._child = child

    @property
    def child(self) -> PredicateExpr:
        return self._child

    def _compute_combined_scores(self) -> np.ndarray:
        return 1.0 - self._child.combined_scores()

    def build_oracle(self) -> Oracle:
        return NotOracle(self._child.build_oracle())

    def leaves(self) -> List[PredicateLeaf]:
        return self._child.leaves()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Not({self._child!r})"


def run_abae_multipred(
    expression: PredicateExpr,
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> EstimateResult:
    """Run ABae over a complex predicate expression.

    The combined proxy scores drive the stratification; the composite
    oracle answers the full Boolean expression.  ``oracle_calls`` in the
    returned result counts *composite* evaluations (one per drawn record);
    ``details["constituent_oracle_calls"]`` reports the total calls made to
    the underlying per-predicate oracles, which is the cost a system paying
    per constituent DNN would incur.  Batched execution (via ``config``)
    and leaves behind a blocking :class:`~repro.oracle.remote.AsyncOracle`
    preserve the sequential path's short-circuit per-constituent call
    counts exactly: the masked evaluation of :mod:`repro.oracle.composite`
    consults each child per record independently of how records are
    chunked or split, and constituent accounting is thread-safe.
    """
    pipeline = multipred_pipeline(
        expression=expression,
        statistic=statistic,
        budget=budget,
        num_strata=num_strata,
        stage1_fraction=stage1_fraction,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
        config=config,
    )
    result = pipeline.run(rng)
    if hasattr(pipeline.oracle, "total_children_calls"):
        result.details["constituent_oracle_calls"] = (
            pipeline.oracle.total_children_calls
        )
    return result
