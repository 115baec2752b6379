"""The AQP service facade, the shared cross-query cache, and thread safety.

Three groups:

* **Service lifecycle** — submit (pipeline and query text), streaming
  partials, per-step cost accounting, SLO timestamps, cancellation,
  checkpoint/resume, failure propagation.  Parity with
  ``execute_query`` is exact (same rng → same ``QueryResult``).
* **Shared oracle cache** — the cross-query store changes *who pays*
  for a call (inner oracle ``num_calls``), never any answer or
  estimate; hit/miss/eviction accounting is exact.
* **Thread safety** — :class:`~repro.serve.cache.SharedOracleCache`
  under many threads with exact hit-count assertions.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine.builders import two_stage_pipeline
from repro.oracle.simulated import CallableOracle, LabelColumnOracle
from repro.query.errors import PlanningError
from repro.query.executor import QueryContext, execute_query, prepare_query
from repro.serve import (
    AdmissionController,
    AQPService,
    QueryStatus,
    SharedCachingOracle,
    SharedOracleCache,
)
from repro.stats.rng import RandomState
from repro.synth import make_dataset


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=2, size=5_000)


def make_pipeline(scenario, budget=300, **kwargs):
    return two_stage_pipeline(
        scenario.proxy,
        scenario.make_oracle(),
        scenario.statistic_values,
        budget=budget,
        **kwargs,
    )


def make_context(scenario):
    context = QueryContext(scenario.num_records)
    context.register_statistic("views", scenario.statistic_values)
    context.register_predicate(
        "is_match", scenario.make_oracle(), scenario.proxy
    )
    return context


QUERY = (
    "SELECT AVG(views(rec)) FROM t WHERE is_match(rec) "
    "ORACLE LIMIT 300 USING proxy WITH PROBABILITY 0.95"
)


class TestServiceLifecycle:
    def test_submit_pipeline_runs_to_done(self, scenario):
        service = AQPService()
        handle = service.submit_pipeline(make_pipeline(scenario), rng=3)
        assert handle.status == QueryStatus.PENDING
        service.run_until_complete()
        assert handle.status == QueryStatus.DONE
        assert handle.spent == 300
        result = handle.result()
        solo = make_pipeline(scenario).run(RandomState(3))
        assert result.estimate == solo.estimate
        assert result.oracle_calls == solo.oracle_calls

    def test_streaming_partials_and_step_costs(self, scenario):
        service = AQPService()
        handle = service.submit_pipeline(make_pipeline(scenario), rng=5)
        estimates = []
        while service.step() is not None:
            partial = handle.partial()
            if handle.spent > 0:
                estimates.append(partial.estimate)
        # Anytime estimates were produced before completion and the final
        # partial equals the final result.
        assert len(estimates) > 1
        assert estimates[-1] == handle.result().estimate
        # Per-step costs sum to the total spend; allocation steps cost 0.
        assert sum(handle.step_costs) == handle.spent == 300
        assert handle.steps == len(handle.step_costs)
        assert 0 in handle.step_costs

    def test_slo_timestamps(self, scenario):
        # A virtual clock makes TTFE/TTCI assertions exact.
        now = [0.0]

        def clock():
            now[0] += 1.0
            return now[0]

        service = AQPService(clock=clock)
        handle = service.submit_pipeline(
            make_pipeline(scenario), rng=1, target_ci_width=10.0
        )
        service.run_until_complete()
        assert handle.time_to_first_estimate is not None
        assert handle.time_to_target_ci is not None
        assert handle.time_to_first_estimate <= handle.time_to_target_ci

    def test_result_before_done_raises(self, scenario):
        service = AQPService()
        handle = service.submit_pipeline(make_pipeline(scenario), rng=0)
        with pytest.raises(RuntimeError, match="pending"):
            handle.result()

    def test_cancel_settles_at_partial_spend(self, scenario):
        controller = AdmissionController()
        controller.set_policy("t", oracle_quota=1000)
        service = AQPService(admission=controller)
        handle = service.submit_pipeline(
            make_pipeline(scenario), tenant="t", rng=0
        )
        for _ in range(4):
            service.step()
        service.cancel(handle)
        assert handle.status == QueryStatus.CANCELLED
        usage = controller.tenant_usage("t")
        assert usage["charged"] == handle.spent < 300
        assert usage["reserved"] == 0 and usage["live"] == 0
        # Cancelling twice is a caller bug.
        with pytest.raises(RuntimeError, match="cancelled"):
            service.cancel(handle)

    def test_checkpoint_resume_matches_uninterrupted(self, scenario):
        solo = make_pipeline(scenario).run(RandomState(11))
        service = AQPService()
        handle = service.submit_pipeline(make_pipeline(scenario), rng=11)
        for _ in range(5):
            service.step()
        blob = service.checkpoint(handle)
        assert handle.status == QueryStatus.SUSPENDED
        resumed = service.resume_pipeline(make_pipeline(scenario), blob)
        service.run_until_complete()
        assert resumed.result().estimate == solo.estimate
        assert resumed.result().oracle_calls == solo.oracle_calls

    def test_failure_is_contained_and_settled(self, scenario):
        controller = AdmissionController()
        controller.set_policy("t", oracle_quota=1000)
        service = AQPService(admission=controller)

        calls = [0]

        def flaky(_record_index):
            calls[0] += 1
            if calls[0] > 40:
                raise RuntimeError("oracle backend down")
            return True

        bad = two_stage_pipeline(
            scenario.proxy,
            CallableOracle(flaky, name="flaky"),
            scenario.statistic_values,
            budget=300,
        )
        good_handle = service.submit_pipeline(
            make_pipeline(scenario), tenant="t", rng=2
        )
        bad_handle = service.submit_pipeline(bad, tenant="t", rng=2)
        service.run_until_complete()
        # The failing query reports its own error; the healthy one finishes.
        assert bad_handle.status == QueryStatus.FAILED
        with pytest.raises(RuntimeError, match="oracle backend down"):
            bad_handle.result()
        assert good_handle.status == QueryStatus.DONE
        # Both settled: nothing live, nothing still reserved.
        usage = controller.tenant_usage("t")
        assert usage["live"] == 0 and usage["reserved"] == 0

    def test_submit_query_matches_execute_query(self, scenario):
        reference = execute_query(
            QUERY, make_context(scenario), seed=21, num_bootstrap=40
        )
        service = AQPService()
        handle = service.submit_query(
            QUERY, make_context(scenario), rng=21, num_bootstrap=40
        )
        service.run_until_complete()
        result = handle.result()
        assert result.value == reference.value
        assert (result.ci.lower, result.ci.upper) == (
            reference.ci.lower,
            reference.ci.upper,
        )
        assert result.oracle_calls == reference.oracle_calls

    def test_prepare_query_rejects_group_by(self, scenario):
        context = make_context(scenario)
        with pytest.raises(PlanningError, match="GROUP BY"):
            prepare_query(
                "SELECT AVG(views(rec)) FROM t WHERE is_match(rec) "
                "GROUP BY category(rec) "
                "ORACLE LIMIT 300 USING proxy WITH PROBABILITY 0.95",
                context,
            )


class TestSharedCache:
    def test_estimates_identical_with_and_without_cache(self, scenario):
        reference = execute_query(
            QUERY, make_context(scenario), seed=8, num_bootstrap=40
        )
        cache = SharedOracleCache()
        service = AQPService(shared_cache=cache)
        handles = [
            service.submit_query(
                QUERY,
                make_context(scenario),
                rng=8,
                num_bootstrap=40,
                tenant=f"t{i}",
            )
            for i in range(3)
        ]
        service.run_until_complete()
        for handle in handles:
            result = handle.result()
            assert result.value == reference.value
            assert (result.ci.lower, result.ci.upper) == (
                reference.ci.lower,
                reference.ci.upper,
            )

    def test_cache_shifts_cost_to_first_query(self, scenario):
        # Identical queries with identical seeds draw identical records:
        # the first toucher pays, the rest hit.  The cache key is the
        # predicate's canonical text, shared across tenants.
        cache = SharedOracleCache()
        service = AQPService(shared_cache=cache)
        for i in range(3):
            service.submit_query(
                QUERY, make_context(scenario), rng=8, tenant=f"t{i}"
            )
        service.run_until_complete()
        stats = cache.stats()
        assert stats.misses == len(cache) == 300
        assert stats.hits == 2 * 300
        assert stats.identities == 1

    def test_shared_caching_oracle_accounting(self):
        labels = np.arange(100) % 3 == 0
        store = SharedOracleCache()
        first = SharedCachingOracle(
            LabelColumnOracle(labels, name="p"), store, identity="p"
        )
        second = SharedCachingOracle(
            LabelColumnOracle(labels, name="p"), store, identity="p"
        )
        answers = first.evaluate_batch([0, 1, 2, 1, 0])
        assert answers == [True, False, False, False, True]
        # first paid 3 distinct records; repeats within the batch are free.
        assert first.num_calls == 3 and first.misses == 3 and first.hits == 2
        # second reads them all from the shared store: zero charged calls.
        assert second.evaluate_batch([2, 1, 0]) == [False, False, True]
        assert second.num_calls == 0 and second.hits == 3
        assert second.inner.num_calls == 0

    def test_distinct_identities_do_not_collide(self):
        store = SharedOracleCache()
        truthy = SharedCachingOracle(
            CallableOracle(lambda i: True, name="t"), store, identity="a"
        )
        falsy = SharedCachingOracle(
            CallableOracle(lambda i: False, name="f"), store, identity="b"
        )
        assert bool(truthy(5)) is True
        assert bool(falsy(5)) is False
        assert store.stats().identities == 2
        assert store.entries_for("a") == 1 and store.entries_for("b") == 1

    def test_lru_eviction(self):
        store = SharedOracleCache(max_entries=3)
        oracle = SharedCachingOracle(
            CallableOracle(lambda i: i % 2 == 0, name="p"), store, identity="p"
        )
        oracle.evaluate_batch([0, 1, 2])
        oracle.evaluate_batch([0])  # touch 0: now 1 is least recent
        oracle.evaluate_batch([3])  # evicts 1
        assert store.contains("p", 0) and not store.contains("p", 1)
        assert store.stats().evictions == 1
        assert len(store) == 3
        # Re-requesting the evicted record is a fresh charged miss.
        before = oracle.num_calls
        oracle.evaluate_batch([1])
        assert oracle.num_calls == before + 1

    def test_fill_locks_do_not_grow_under_identity_churn(self):
        # Regression: the per-identity fill locks used to outlive their
        # identities, so a churning identity population (rotating tenants
        # or datasets) grew _fill_locks without bound.  Eviction of an
        # identity's last record must drop its fill lock too.
        store = SharedOracleCache(max_entries=4)
        for round_num in range(50):
            identity = f"tenant-{round_num}"
            oracle = SharedCachingOracle(
                CallableOracle(lambda i: True, name=identity),
                store,
                identity=identity,
            )
            oracle.evaluate_batch([0, 1])
        # At most the resident identities (<= max_entries) plus the one
        # currently filling can hold a lock; 50 churned identities must not.
        assert len(store._fill_locks) <= store.stats().identities + 1
        assert len(store._fill_locks) <= 4
        store.clear()
        assert len(store._fill_locks) == 0


class TestThreadSafety:
    def test_shared_cache_exact_accounting_under_threads(self):
        num_records = 250
        labels = np.arange(num_records) % 5 == 0
        store = SharedOracleCache()

        num_threads = 12
        per_thread = 200
        rng = np.random.default_rng(1)
        batches = [
            rng.integers(0, num_records, size=per_thread)
            for _ in range(num_threads)
        ]
        oracles = [
            SharedCachingOracle(
                LabelColumnOracle(labels, name="p"), store, identity="p"
            )
            for _ in range(num_threads)
        ]
        errors = []
        barrier = threading.Barrier(num_threads)

        def worker(oracle, batch):
            try:
                barrier.wait()
                answers = oracle.evaluate_batch(batch)
                expected = labels[np.asarray(batch)]
                if list(answers) != expected.tolist():
                    raise AssertionError("wrong answers under contention")
            except BaseException as exc:  # noqa: BLE001 - collected for the test
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(o, b))
            for o, b in zip(oracles, batches)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

        distinct = len({int(i) for b in batches for i in b})
        total = num_threads * per_thread
        stats = store.stats()
        assert stats.misses == distinct == len(store)
        assert stats.hits == total - distinct
        # Whoever paid, each distinct record was charged exactly once in
        # aggregate across the per-query wrappers.
        assert sum(o.num_calls for o in oracles) == distinct
        assert sum(o.inner.num_calls for o in oracles) == distinct
