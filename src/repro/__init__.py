"""repro — a reproduction of ABae (VLDB 2021).

"Accelerating Approximate Aggregation Queries with Expensive Predicates"
(Kang, Guibas, Bailis, Hashimoto, Sun, Zaharia; PVLDB 14(11), 2021).

The package is organized as:

* :mod:`repro.core` — the ABae sampling algorithms and extensions;
* :mod:`repro.engine` — the unified execution engine: one
  :class:`~repro.engine.config.ExecutionConfig` for every physical knob,
  one :class:`~repro.engine.pipeline.SamplingPipeline` with pluggable
  allocation/estimator policies under every sampler, and streaming /
  resumable :class:`~repro.engine.session.SamplingSession`\\ s;
* :mod:`repro.query` — the SQL-like query language of Figure 1 and its
  planner/executor;
* :mod:`repro.dataset`, :mod:`repro.oracle`, :mod:`repro.proxy` — the data,
  expensive-predicate and proxy-model substrates;
* :mod:`repro.data` — pluggable dataset storage behind the samplers:
  dense in-memory (default), memory-mapped and chunked out-of-core
  backends with bit-identical results (see docs/DATA_BACKENDS.md);
* :mod:`repro.stats`, :mod:`repro.optim` — statistics and optimization
  building blocks;
* :mod:`repro.synth` — synthetic emulators of the paper's six datasets;
* :mod:`repro.experiments` — the harness that regenerates every figure.

Quickstart::

    from repro import ABae
    from repro.synth import make_dataset

    scenario = make_dataset("trec05p", seed=0)
    sampler = ABae(
        proxy=scenario.proxy,
        oracle=scenario.oracle,
        statistic=scenario.statistic_values,
    )
    result = sampler.estimate(budget=10_000, with_ci=True, seed=1)
    print(result.estimate, result.ci)

Oracle evaluation runs through a batched execution engine
(:mod:`repro.engine`, over :mod:`repro.core.batching`): oracles exposing
``evaluate_batch`` label whole per-stratum draws in one vectorized
invocation.  Concurrent oracle calls have one mechanism: a blocking
:class:`~repro.oracle.remote.AsyncOracle` spreads a batch larger than one
transport call over its :class:`~repro.oracle.remote.RemoteEndpoint`'s
in-flight slots.  Every
sampler and the query executor take a ``config``
(:class:`~repro.engine.config.ExecutionConfig`) carrying the physical
knobs — ``batch_size`` (``None`` = whole-draw batches, ``1`` = strictly
sequential), the plan cache, rng and progress policies; results and
oracle call counts are
bit-identical for every setting, and sessions
(:class:`~repro.engine.session.SamplingSession`) stream or resume the
exact same execution.  See README.md, docs/ARCHITECTURE.md, docs/API.md
and docs/TESTING.md.
"""

from repro.core import (
    ABae,
    And,
    ConfidenceInterval,
    EstimateResult,
    GroupByResult,
    GroupSpec,
    Not,
    Or,
    PredicateLeaf,
    Stratification,
    UniformSampler,
    combine_proxies,
    rank_proxies,
    run_abae,
    run_abae_multipred,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
    run_uniform,
    select_proxy,
)
from repro.data import ChunkedBackend, DatasetBackend, InMemoryBackend, MmapBackend
from repro.engine import ExecutionConfig, SamplingPipeline, SamplingSession
from repro.query import execute_query, parse_query

__version__ = "1.13.0"

__all__ = [
    "ABae",
    "UniformSampler",
    "run_abae",
    "run_uniform",
    "run_abae_multipred",
    "run_groupby_single_oracle",
    "run_groupby_multi_oracle",
    "GroupSpec",
    "PredicateLeaf",
    "And",
    "Or",
    "Not",
    "rank_proxies",
    "select_proxy",
    "combine_proxies",
    "ConfidenceInterval",
    "EstimateResult",
    "GroupByResult",
    "Stratification",
    "ExecutionConfig",
    "SamplingPipeline",
    "SamplingSession",
    "DatasetBackend",
    "InMemoryBackend",
    "MmapBackend",
    "ChunkedBackend",
    "execute_query",
    "parse_query",
    "__version__",
]
