"""Statistical-equivalence test harness.

The execution engine's contract is that its performance knobs never
change results: under a fixed seed, estimates, confidence intervals,
per-stratum samples and oracle accounting must be **bit-identical** for
every ``batch_size`` (oracle batching) and whether the oracle is called
directly or through a blocking :class:`~repro.oracle.remote.AsyncOracle`
that spreads a large batch over ``max_in_flight`` endpoint slots.

This module turns that contract into a reusable assertion.  A test
supplies a *cell runner* — a callable ``run(seed, batch_size, wrap) ->
result`` that builds fresh oracles, passes each through ``wrap``, and
runs one sampler — and the harness executes it over the full ``seeds ×
batch_sizes × max_in_flight`` grid.  ``wrap`` is the cell's oracle
factory (see :class:`EndpointCell`): for ``max_in_flight=None`` it returns
the oracle itself, otherwise the oracle becomes the transport of its own
endpoint.  The harness fingerprints every result together with each
oracle's ``num_calls`` (adapter and transport), and fails with the exact
divergent cell if any two fingerprints differ for the same seed.  It
also asserts that *different* seeds produce *different* fingerprints (a
grid where every cell returns the same constant would vacuously
"pass").

Fingerprints use ``repr`` of plain tuples built from the result, so a
mismatch in any float's last bit is caught — this is deliberately exact
equality, not ``allclose``: the determinism contract is bitwise.

Usage::

    from harness import assert_statistically_equivalent, estimate_fingerprint

    def run(seed, batch_size, wrap):
        return run_abae(..., wrap(scenario.make_oracle()), ...,
                        rng=RandomState(seed),
                        config=ExecutionConfig(batch_size=batch_size))

    assert_statistically_equivalent(run, seeds=(0, 1), batch_sizes=(1, 7, None),
                                    max_in_flight=(None, 1, 2, 4))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

DEFAULT_SEEDS = (0,)
DEFAULT_BATCH_SIZES = (1, 7, None)
DEFAULT_MAX_IN_FLIGHT = (None,)

# Entropy for the derandomized wide-grid seed list.  Fixed forever: the
# wide tier-2 grids draw their seeds from this spawn key, so every run —
# local or CI — sweeps the same seeds and a failure reproduces exactly.
SEED_LIST_ENTROPY = 20260807


def spawn_seed_list(n: int, entropy: int = SEED_LIST_ENTROPY) -> Tuple[int, ...]:
    """``n`` well-separated, fixed seeds from one NumPy spawn key.

    ``SeedSequence.spawn`` guarantees statistically independent children,
    so these seeds exercise genuinely distinct draw sequences — unlike
    consecutive small integers, whose Philox/PCG streams are already fine
    but whose arbitrariness invites ad-hoc per-test seed lists.  One list,
    derived here, shared by every wide grid.
    """
    root = np.random.SeedSequence(entropy)
    return tuple(int(child.generate_state(1)[0]) for child in root.spawn(n))


# The shared seed list for wide (tier-2 / slow) equivalence grids.
WIDE_GRID_SEEDS = spawn_seed_list(3)


@dataclass
class LegacyCallRecord:
    """One logged oracle call, as the pre-columnar log stored it."""

    record_index: int
    result: object
    cost: float


class LegacyRecordListMixin:
    """The pre-columnar per-record list accounting, reproduced verbatim.

    Single source of truth for the legacy baseline: ``_record`` below is
    the implementation that shipped before the array-backed
    ``ColumnarCallLog`` rewrite (one :class:`LegacyCallRecord`
    construction per evaluated record, under the accounting lock).  Mix
    it into any :class:`repro.oracle.base.Oracle` subclass to obtain the
    historical behaviour — ``tests/test_accounting_parity.py`` compares
    :attr:`legacy_log` against the columnar log entry by entry, and
    ``scripts/bench_hotpath.py`` times it as the pre-columnar arm (the
    per-record object construction is the cost that arm measures).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._legacy_records = []

    def _record(self, record_indices, results):
        count = len(record_indices)
        with self._account_lock:
            self._num_calls += count
            if self._keep_log:
                for record_index, result in zip(record_indices, results):
                    self._legacy_records.append(
                        LegacyCallRecord(
                            record_index=int(record_index),
                            result=result,
                            cost=self._cost_per_call,
                        )
                    )

    @property
    def legacy_log(self):
        """The :class:`LegacyCallRecord` of every logged call, in order."""
        return list(self._legacy_records)

    def reset_accounting(self):
        super().reset_accounting()
        self._legacy_records.clear()


# ---------------------------------------------------------------------------
# Fingerprints: exact, repr-based digests of sampler outputs
# ---------------------------------------------------------------------------


def _nan_safe(values: np.ndarray) -> tuple:
    """NaN-tolerant exact tuple of a float array (NaN != NaN breaks ==)."""
    return tuple(None if np.isnan(v) else v for v in values.tolist())


def estimate_fingerprint(result) -> str:
    """Digest of an :class:`~repro.core.results.EstimateResult`.

    Covers the estimate, the CI bounds, the oracle call count, and every
    per-stratum sample's drawn indices, match flags and statistic values —
    if any of these differs in any bit, the fingerprints differ.
    """
    return repr(
        (
            result.estimate,
            None if result.ci is None else (result.ci.lower, result.ci.upper),
            result.oracle_calls,
            [tuple(s.indices.tolist()) for s in result.samples],
            [tuple(s.matches.tolist()) for s in result.samples],
            [_nan_safe(s.values) for s in result.samples],
        )
    )


def _canonical_result(result) -> object:
    """Normalize a logged oracle result for exact cross-path comparison.

    The *value* of a logged result is part of the determinism contract; its
    NumPy-vs-Python scalar *type* is not (a ``batch_size=1`` run logs
    Python bools from the scalar path while a whole-draw batch logs
    ``np.bool_`` from a vectorized array — both before and after the
    columnar accounting rewrite).
    """
    if isinstance(result, (bool, np.bool_)):
        return bool(result)
    if isinstance(result, (int, np.integer)):
        return int(result)
    if isinstance(result, (float, np.floating)):
        return None if np.isnan(result) else float(result)
    return result


def call_log_entries(oracle) -> list:
    """``(record_index, result, cost)`` per logged call, in evaluation order.

    Reads the columnar log, or a :class:`LegacyRecordListMixin` oracle's
    own per-record list; an oracle that keeps no log gives ``[]``.
    """
    if isinstance(oracle, LegacyRecordListMixin):
        return [(r.record_index, r.result, r.cost) for r in oracle.legacy_log]
    columns = getattr(oracle, "call_log_columns", None)
    if columns is None:
        return []
    return list(zip(columns.indices.tolist(), columns.results, columns.costs.tolist()))


def oracle_accounting_fingerprint(oracle) -> str:
    """Digest of an oracle's complete accounting state.

    Covers the invocation counter, the derived total cost, and — when the
    oracle keeps a log — every call's record index, (canonicalized) result
    and per-call cost, in evaluation order.  Two oracles with the same
    fingerprint performed element-wise identical charged work.
    """
    return repr(
        (
            getattr(oracle, "num_calls", None),
            getattr(oracle, "total_cost", None),
            [
                (index, _canonical_result(result), cost)
                for index, result, cost in call_log_entries(oracle)
            ],
        )
    )


def groupby_fingerprint(result) -> str:
    """Digest of a :class:`~repro.core.results.GroupByResult`."""
    groups = sorted(result.group_results, key=repr)
    return repr(
        (
            [(g, result.group_results[g].estimate) for g in groups],
            [(g, result.allocation.get(g)) for g in groups],
            result.oracle_calls,
        )
    )


def query_fingerprint(result) -> str:
    """Digest of a :class:`~repro.query.executor.QueryResult`."""
    groups = sorted(result.group_values, key=repr)
    return repr(
        (
            result.value,
            None if result.ci is None else (result.ci.lower, result.ci.upper),
            [(g, result.group_values[g]) for g in groups],
            result.oracle_calls,
        )
    )


# ---------------------------------------------------------------------------
# The equivalence grid
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """What a grid sweep established: one fingerprint per seed."""

    fingerprints: Dict[int, str]
    cells: int

    def fingerprint(self, seed: int) -> str:
        return self.fingerprints[seed]


class EndpointCell:
    """The oracles of one grid cell, and their exact call accounting.

    ``wrap(oracle)`` returns ``oracle`` itself when ``max_in_flight`` is
    ``None`` (the plain-oracle baseline); otherwise it makes ``oracle``
    the transport of a fresh :class:`~repro.oracle.remote.RemoteEndpoint`
    with that many in-flight slots and returns a blocking
    :class:`~repro.oracle.remote.AsyncOracle` over it, which keeps a call
    log when the oracle does (the adapter's log is in record order; the
    transport's follows completion order).  After the run,
    :meth:`accounting` asserts every adapter charged
    exactly what its transport evaluated, and digests the counts so they
    are compared across cells like the result itself.  Call
    :meth:`close` once the run is over.
    """

    # Small enough that a whole-draw batch is split and its pieces launch
    # as separate transport calls on separate threads, while a batch that
    # fits goes unsplit as one transport call.
    MAX_BATCH_SIZE = 16

    def __init__(self, max_in_flight: Optional[int]):
        self.max_in_flight = max_in_flight
        self.pairs = []
        self.endpoints = []

    def wrap(self, oracle):
        if self.max_in_flight is None:
            self.pairs.append((oracle, oracle))
            return oracle
        from repro.oracle.remote import AsyncOracle, RemoteEndpoint

        endpoint = RemoteEndpoint(
            oracle,
            max_in_flight=self.max_in_flight,
            max_batch_size=self.MAX_BATCH_SIZE,
        )
        adapter = AsyncOracle(endpoint, keep_log=getattr(oracle, "_keep_log", False))
        self.endpoints.append(endpoint)
        self.pairs.append((adapter, oracle))
        return adapter

    def close(self) -> None:
        for endpoint in self.endpoints:
            endpoint.close()

    def accounting(self) -> str:
        counts = [(a.num_calls, t.num_calls) for a, t in self.pairs]
        for adapter_calls, transport_calls in counts:
            assert adapter_calls == transport_calls, (
                f"max_in_flight={self.max_in_flight}: adapter charged "
                f"{adapter_calls} calls, transport evaluated {transport_calls}"
            )
        return repr(counts)


def run_equivalence_grid(
    run_cell: Callable[[int, Optional[int], Callable], object],
    seeds: Sequence[int] = DEFAULT_SEEDS,
    batch_sizes: Sequence[Optional[int]] = DEFAULT_BATCH_SIZES,
    max_in_flight: Sequence[Optional[int]] = DEFAULT_MAX_IN_FLIGHT,
    fingerprint: Callable[[object], str] = estimate_fingerprint,
) -> EquivalenceReport:
    """Run every (seed, batch_size, max_in_flight) cell and compare digests.

    ``run_cell(seed, batch_size, wrap)`` must construct fresh state per
    call (in particular fresh oracles, each passed through ``wrap``, so
    accounting starts at zero) and return the sampler's result.  Raises
    ``AssertionError`` naming the first divergent cell and seed.
    """
    fingerprints: Dict[int, str] = {}
    cells = 0
    for seed in seeds:
        baseline: Optional[str] = None
        baseline_cell: Optional[Tuple] = None
        for batch_size, in_flight in itertools.product(batch_sizes, max_in_flight):
            cell = EndpointCell(in_flight)
            try:
                result = run_cell(seed, batch_size, cell.wrap)
            finally:
                cell.close()
            digest = fingerprint(result) + cell.accounting()
            cells += 1
            if baseline is None:
                baseline, baseline_cell = digest, (batch_size, in_flight)
            elif digest != baseline:
                raise AssertionError(
                    f"results diverged for seed {seed}: cell "
                    f"(batch_size={batch_size}, max_in_flight={in_flight}) != "
                    f"baseline cell (batch_size={baseline_cell[0]}, "
                    f"max_in_flight={baseline_cell[1]})\n"
                    f"baseline: {baseline}\n"
                    f"     got: {digest}"
                )
        fingerprints[seed] = baseline
    return EquivalenceReport(fingerprints=fingerprints, cells=cells)


# ---------------------------------------------------------------------------
# Scheduler-interleaving fingerprints (the serving layer's parity contract)
# ---------------------------------------------------------------------------


def solo_fingerprint(
    pipeline,
    seed: int,
    fingerprint: Callable[[object], str] = estimate_fingerprint,
) -> Tuple[str, str]:
    """Digest of one pipeline run alone, step by step, to completion.

    Returns ``(result_digest, oracle_accounting_digest)`` — the baseline
    that any scheduler interleaving must reproduce bit-for-bit.  The
    oracle digest reads ``pipeline.oracle`` (the possibly-wrapped oracle
    the pipeline actually drove), the same accessor
    :func:`scheduled_fingerprints` uses, so the comparison is symmetric.
    """
    from repro.stats.rng import RandomState

    session = pipeline.session(RandomState(seed))
    while session.step():
        pass
    return (
        fingerprint(session.result()),
        oracle_accounting_fingerprint(pipeline.oracle),
    )


def scheduled_fingerprints(
    pipeline_factories: Sequence[Callable[[], object]],
    seeds: Sequence[int],
    interleaving: str = "round_robin",
    scheduler_seed: int = 0,
    fingerprint: Callable[[object], str] = estimate_fingerprint,
) -> list:
    """Run many pipelines concurrently under the cooperative scheduler.

    ``pipeline_factories[i]`` builds query *i*'s fresh pipeline (fresh
    oracle, accounting at zero) and ``seeds[i]`` seeds its session RNG.
    All sessions are interleaved by a
    :class:`~repro.serve.scheduler.CooperativeScheduler` with the given
    policy until every query completes; the per-query
    ``(result_digest, oracle_accounting_digest)`` tuples come back in
    submission order, directly comparable to :func:`solo_fingerprint` of
    the same factory and seed.
    """
    from repro.serve.scheduler import CooperativeScheduler, QueryStatus, QueryTask
    from repro.stats.rng import RandomState

    scheduler = CooperativeScheduler(interleaving=interleaving, seed=scheduler_seed)
    entries = []
    for i, (factory, seed) in enumerate(zip(pipeline_factories, seeds)):
        pipeline = factory()
        session = pipeline.session(RandomState(seed))
        task = QueryTask(session, task_id=f"q{i}")
        scheduler.submit(task)
        entries.append((task, pipeline))
    scheduler.run_until_complete()
    digests = []
    for task, pipeline in entries:
        if task.status != QueryStatus.DONE:
            raise AssertionError(
                f"scheduled query {task.task_id} finished {task.status}: "
                f"{task.error!r}"
            )
        digests.append(
            (
                fingerprint(task.result),
                oracle_accounting_fingerprint(pipeline.oracle),
            )
        )
    return digests


def assert_statistically_equivalent(
    run_cell: Callable[[int, Optional[int], Callable], object],
    seeds: Sequence[int] = DEFAULT_SEEDS,
    batch_sizes: Sequence[Optional[int]] = DEFAULT_BATCH_SIZES,
    max_in_flight: Sequence[Optional[int]] = DEFAULT_MAX_IN_FLIGHT,
    fingerprint: Callable[[object], str] = estimate_fingerprint,
    expect_seed_sensitivity: bool = True,
) -> EquivalenceReport:
    """Assert bit-identical results across the knob grid, per seed.

    With ``expect_seed_sensitivity`` (the default, and appropriate whenever
    at least two seeds are supplied and the sampler is stochastic), also
    asserts that distinct seeds yield distinct fingerprints — guarding
    against a degenerate runner that ignores its arguments.
    """
    report = run_equivalence_grid(
        run_cell,
        seeds=seeds,
        batch_sizes=batch_sizes,
        max_in_flight=max_in_flight,
        fingerprint=fingerprint,
    )
    if expect_seed_sensitivity and len(seeds) > 1:
        distinct = set(report.fingerprints.values())
        if len(distinct) == 1:
            raise AssertionError(
                f"all {len(seeds)} seeds produced the same fingerprint; the "
                "cell runner is probably ignoring its seed argument"
            )
    return report
