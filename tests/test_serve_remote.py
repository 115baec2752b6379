"""Serving over flaky remote oracles: parking, overlap, exact parity.

The acceptance contract of the async RPC protocol, pinned end to end:

* **Failure parity** — under a seeded :class:`SimulatedRemoteOracle` with
  nonzero failure/timeout rates behind a cooperative
  :class:`AsyncOracle`, every scheduled query's estimates *and* oracle
  accounting are bit-identical to the zero-failure run and to the plain
  in-process solo baseline (``tests/harness.py`` fingerprints).  Retries
  change time, never answers.
* **Wait overlap** — a query whose step hits an in-flight remote batch
  parks in ``WAITING`` and the scheduler steps other queries instead of
  blocking; parked queries resume and finish.
* **Accounting invariants survive parking** — ``sum(step_costs) ==
  spent`` per query, reservations settle exactly, cancelling a parked
  query charges only what it spent.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from harness import (
    WIDE_GRID_SEEDS,
    scheduled_fingerprints,
    solo_fingerprint,
)
from repro.engine.builders import (
    sequential_pipeline,
    two_stage_pipeline,
    uniform_pipeline,
    until_width_pipeline,
)
from repro.engine.config import ExecutionConfig
from repro.oracle import (
    AsyncOracle,
    RemoteEndpoint,
    SimulatedRemoteOracle,
)
from repro.serve import AQPService, AdmissionController, TenantPolicy
from repro.serve.scheduler import (
    INTERLEAVINGS,
    CooperativeScheduler,
    QueryStatus,
    QueryTask,
)
from repro.stats.rng import RandomState
from repro.synth import make_dataset

BUDGETS = {
    "two_stage": 320,
    "uniform": 240,
    "sequential": 260,
    "until_width": 320,
}
REMOTE_FAMILIES = tuple(BUDGETS)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=6_000)


def remote_pipeline_factory(
    family,
    scenario,
    *,
    failure_rate=0.0,
    timeout_rate=0.0,
    blocking=False,
    endpoints=None,
    config=None,
    max_batch_size=64,
):
    """A zero-argument builder of a fresh pipeline over a cooperative
    (or blocking) AsyncOracle onto a seeded flaky simulated transport.

    Fresh transport + endpoint + adapter per call, so accounting starts
    at zero and per-query failure streams are independent and seeded.
    """
    sc = scenario

    def make_oracle():
        transport = SimulatedRemoteOracle(
            sc.labels,
            failure_rate=failure_rate,
            timeout_rate=timeout_rate,
            seed=11,
            name=f"{family}_remote",
        )
        endpoint = RemoteEndpoint(
            transport,
            max_batch_size=max_batch_size,
            max_in_flight=2,
            max_retries=10,
            backoff_base=0.0,
            sleep=lambda s: None,
        )
        if endpoints is not None:
            endpoints.append(endpoint)
        return AsyncOracle(endpoint, blocking=blocking)

    if family == "two_stage":
        return lambda: two_stage_pipeline(
            sc.proxy,
            make_oracle(),
            sc.statistic_values,
            budget=BUDGETS[family],
            with_ci=True,
            num_bootstrap=20,
            config=config,
        )
    if family == "uniform":
        return lambda: uniform_pipeline(
            sc.num_records,
            make_oracle(),
            sc.statistic_values,
            budget=BUDGETS[family],
            with_ci=True,
            num_bootstrap=20,
            config=config,
        )
    if family == "sequential":
        return lambda: sequential_pipeline(
            sc.proxy,
            make_oracle(),
            sc.statistic_values,
            budget=BUDGETS[family],
            config=config,
        )
    if family == "until_width":
        return lambda: until_width_pipeline(
            sc.proxy,
            make_oracle(),
            sc.statistic_values,
            target_width=0.7,
            max_budget=BUDGETS[family],
            num_bootstrap=40,
            config=config,
        )
    raise ValueError(family)


def plain_pipeline_factory(family, scenario, config=None):
    """The in-process baseline: same pipeline, plain label oracle."""
    sc = scenario
    if family == "two_stage":
        return lambda: two_stage_pipeline(
            sc.proxy,
            sc.make_oracle(),
            sc.statistic_values,
            budget=BUDGETS[family],
            with_ci=True,
            num_bootstrap=20,
            config=config,
        )
    if family == "uniform":
        return lambda: uniform_pipeline(
            sc.num_records,
            sc.make_oracle(),
            sc.statistic_values,
            budget=BUDGETS[family],
            with_ci=True,
            num_bootstrap=20,
            config=config,
        )
    if family == "sequential":
        return lambda: sequential_pipeline(
            sc.proxy,
            sc.make_oracle(),
            sc.statistic_values,
            budget=BUDGETS[family],
            config=config,
        )
    if family == "until_width":
        return lambda: until_width_pipeline(
            sc.proxy,
            sc.make_oracle(),
            sc.statistic_values,
            target_width=0.7,
            max_budget=BUDGETS[family],
            num_bootstrap=40,
            config=config,
        )
    raise ValueError(family)


def close_all(endpoints):
    for endpoint in endpoints:
        endpoint.close()
    endpoints.clear()


class GateTransport:
    """A transport whose requests block until the test opens the gate.

    Gives tests a deterministic handle on "the batch is still in flight":
    any cooperative query hitting it parks and stays parked until
    ``release()``.
    """

    name = "gated"

    def __init__(self, labels, timeout=30.0):
        self._labels = np.asarray(labels, dtype=bool)
        self._gate = threading.Event()
        self._timeout = timeout
        self.calls = 0

    def release(self):
        self._gate.set()

    def evaluate_batch(self, record_indices):
        if not self._gate.wait(self._timeout):  # pragma: no cover - hang guard
            raise RuntimeError("gate never released")
        self.calls += 1
        return self._labels[np.asarray(record_indices, dtype=np.int64)]


class TestFailureParity:
    """Flaky remote == clean remote == plain solo, bit for bit."""

    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_two_stage_flaky_grid(self, scenario, interleaving):
        concurrency = 8
        seeds = [0 + 1000 * i for i in range(concurrency)]
        solo_factory = plain_pipeline_factory("two_stage", scenario)
        solo = [solo_fingerprint(solo_factory(), s) for s in seeds]

        endpoints = []
        for failure_rate, timeout_rate in ((0.0, 0.0), (0.25, 0.10)):
            factory = remote_pipeline_factory(
                "two_stage",
                scenario,
                failure_rate=failure_rate,
                timeout_rate=timeout_rate,
                endpoints=endpoints,
            )
            scheduled = scheduled_fingerprints(
                [factory] * concurrency,
                seeds,
                interleaving=interleaving,
                scheduler_seed=1,
            )
            assert scheduled == solo, (
                f"remote run (failure={failure_rate}, timeout={timeout_rate}) "
                f"diverged from plain solo under {interleaving}"
            )
            stats = [e.stats() for e in endpoints]
            assert all(s.giveups == 0 for s in stats)
            if failure_rate > 0:
                # The flaky arm really exercised the retry machinery.
                assert sum(s.retries for s in stats) > 0
                assert sum(s.timeouts for s in stats) > 0
            close_all(endpoints)

    @pytest.mark.parametrize(
        "family", [f for f in REMOTE_FAMILIES if f != "two_stage"]
    )
    def test_other_families_flaky(self, scenario, family):
        concurrency = 4
        seeds = [7 + 1000 * i for i in range(concurrency)]
        solo_factory = plain_pipeline_factory(family, scenario)
        solo = [solo_fingerprint(solo_factory(), s) for s in seeds]
        endpoints = []
        factory = remote_pipeline_factory(
            family,
            scenario,
            failure_rate=0.25,
            timeout_rate=0.10,
            endpoints=endpoints,
        )
        scheduled = scheduled_fingerprints(
            [factory] * concurrency, seeds, interleaving="random", scheduler_seed=3
        )
        assert scheduled == solo
        assert all(e.stats().giveups == 0 for e in endpoints)
        assert sum(e.stats().retries for e in endpoints) > 0
        close_all(endpoints)

    def test_chunked_batches_flaky(self, scenario):
        """batch_size < draw size: multi-chunk steps park/replay per chunk."""
        config = ExecutionConfig(batch_size=7)
        seeds = [5, 1005]
        solo_factory = plain_pipeline_factory("two_stage", scenario, config=config)
        solo = [solo_fingerprint(solo_factory(), s) for s in seeds]
        endpoints = []
        factory = remote_pipeline_factory(
            "two_stage",
            scenario,
            failure_rate=0.2,
            timeout_rate=0.1,
            endpoints=endpoints,
            config=config,
            max_batch_size=16,
        )
        scheduled = scheduled_fingerprints(
            [factory] * len(seeds), seeds, interleaving="round_robin"
        )
        assert scheduled == solo
        close_all(endpoints)

    def test_blocking_adapter_matches_solo(self, scenario):
        """The blocking AsyncOracle is a drop-in oracle: solo runs match."""
        endpoints = []
        factory = remote_pipeline_factory(
            "two_stage",
            scenario,
            failure_rate=0.3,
            blocking=True,
            endpoints=endpoints,
        )
        plain = plain_pipeline_factory("two_stage", scenario)
        assert solo_fingerprint(factory(), 42) == solo_fingerprint(plain(), 42)
        assert endpoints[-1].stats().retries > 0
        close_all(endpoints)

    @pytest.mark.slow
    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_wide_grid(self, scenario, interleaving):
        """Tier-2: spawn-key seeds x families x 16 concurrent flaky queries."""
        for family in REMOTE_FAMILIES:
            solo_factory = plain_pipeline_factory(family, scenario)
            for base_seed in WIDE_GRID_SEEDS:
                concurrency = 16
                seeds = [base_seed + 1000 * i for i in range(concurrency)]
                solo = [solo_fingerprint(solo_factory(), s) for s in seeds]
                endpoints = []
                factory = remote_pipeline_factory(
                    family,
                    scenario,
                    failure_rate=0.25,
                    timeout_rate=0.10,
                    endpoints=endpoints,
                )
                scheduled = scheduled_fingerprints(
                    [factory] * concurrency,
                    seeds,
                    interleaving=interleaving,
                    scheduler_seed=base_seed % 7,
                )
                assert scheduled == solo
                assert all(e.stats().giveups == 0 for e in endpoints)
                close_all(endpoints)


class TestWaitingOverlap:
    def make_gated_task(self, scenario, task_id="gated"):
        transport = GateTransport(scenario.labels)
        endpoint = RemoteEndpoint(
            transport, max_batch_size=512, backoff_base=0.0, sleep=lambda s: None
        )
        pipeline = two_stage_pipeline(
            scenario.proxy,
            AsyncOracle(endpoint, blocking=False),
            scenario.statistic_values,
            budget=160,
            with_ci=True,
            num_bootstrap=10,
        )
        session = pipeline.session(RandomState(3))
        return QueryTask(session, task_id=task_id), transport, endpoint

    def make_plain_task(self, scenario, task_id, seed=9):
        pipeline = two_stage_pipeline(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            budget=160,
            with_ci=True,
            num_bootstrap=10,
        )
        return QueryTask(pipeline.session(RandomState(seed)), task_id=task_id)

    def test_parked_query_does_not_block_others(self, scenario):
        scheduler = CooperativeScheduler(interleaving="round_robin")
        gated, transport, endpoint = self.make_gated_task(scenario)
        plain = self.make_plain_task(scenario, "plain")
        scheduler.submit(gated)
        scheduler.submit(plain)

        # Step until the gated query parks on its first remote draw.
        for _ in range(50):
            scheduler.step_once()
            if gated.status == QueryStatus.WAITING:
                break
        assert gated.status == QueryStatus.WAITING
        assert gated.waiting_on is not None
        assert gated.live
        assert scheduler.num_live == 2

        # With the gate closed, further steps advance only the live peer.
        plain_steps_before = plain.steps
        for _ in range(5):
            stepped = scheduler.step_once()
            assert stepped is plain
        assert plain.steps == plain_steps_before + 5
        assert gated.status == QueryStatus.WAITING

        transport.release()
        scheduler.run_until_complete()
        assert gated.status == QueryStatus.DONE
        assert plain.status == QueryStatus.DONE
        # The parked query's answer is still the deterministic baseline.
        solo = solo_fingerprint(
            two_stage_pipeline(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=160,
                with_ci=True,
                num_bootstrap=10,
            ),
            3,
        )
        from harness import estimate_fingerprint, oracle_accounting_fingerprint

        assert estimate_fingerprint(gated.result) == solo[0]
        assert oracle_accounting_fingerprint(gated.session._pipeline.oracle) == solo[1]
        endpoint.close()

    def test_all_parked_blocks_until_resolution(self, scenario):
        """When every live query is parked the scheduler flushes + waits
        (releasing the gate from another thread) instead of spinning."""
        scheduler = CooperativeScheduler()
        gated, transport, endpoint = self.make_gated_task(scenario)
        scheduler.submit(gated)
        for _ in range(50):
            scheduler.step_once()
            if gated.status == QueryStatus.WAITING:
                break
        assert gated.status == QueryStatus.WAITING
        timer = threading.Timer(0.05, transport.release)
        timer.start()
        try:
            scheduler.run_until_complete()
        finally:
            timer.cancel()
        assert gated.status == QueryStatus.DONE
        endpoint.close()

    def test_cancel_while_waiting(self, scenario):
        scheduler = CooperativeScheduler()
        gated, transport, endpoint = self.make_gated_task(scenario)
        settled = []
        gated._on_settle = lambda task, spent: settled.append(spent)
        plain = self.make_plain_task(scenario, "plain")
        scheduler.submit(gated)
        scheduler.submit(plain)
        for _ in range(50):
            scheduler.step_once()
            if gated.status == QueryStatus.WAITING:
                break
        assert gated.status == QueryStatus.WAITING
        spent_when_parked = gated.spent
        gated.mark_cancelled()
        scheduler.retire(gated)
        assert gated.waiting_on is None
        assert settled == [spent_when_parked]  # charged only what it spent
        assert scheduler.num_live == 1
        transport.release()  # lets the orphaned batch finish harmlessly
        scheduler.run_until_complete()
        assert plain.status == QueryStatus.DONE
        assert gated.status == QueryStatus.CANCELLED
        endpoint.close()


class TestServiceIntegration:
    def test_admission_settles_exactly_under_flaky_remote(self, scenario):
        admission = AdmissionController(
            default_policy=TenantPolicy(oracle_quota=2_000)
        )
        service = AQPService(admission=admission)
        endpoints = []
        factory = remote_pipeline_factory(
            "two_stage",
            scenario,
            failure_rate=0.25,
            timeout_rate=0.10,
            endpoints=endpoints,
        )
        handles = [
            service.submit_pipeline(factory(), rng=100 + i, tenant="t")
            for i in range(4)
        ]
        service.run_until_complete()
        total_spent = 0
        for h in handles:
            assert h.status == QueryStatus.DONE
            assert sum(h.step_costs) == h.spent
            total_spent += h.spent
        # Reservations settled at actual spend: the quota charge is the
        # sum of real draws, not the reserved budgets.
        usage = admission.tenant_usage("t")
        assert usage["charged"] == total_spent
        assert usage["reserved"] == 0
        assert all(e.stats().giveups == 0 for e in endpoints)
        close_all(endpoints)

    def test_step_cost_invariant_under_flaky_remote(self, scenario):
        service = AQPService(interleaving="random", scheduler_seed=5)
        endpoints = []
        factory = remote_pipeline_factory(
            "sequential",
            scenario,
            failure_rate=0.3,
            endpoints=endpoints,
        )
        handles = [
            service.submit_pipeline(factory(), rng=i) for i in range(3)
        ]
        service.run_until_complete()
        for h in handles:
            assert h.status == QueryStatus.DONE
            assert sum(h.step_costs) == h.spent
            assert len(h.step_costs) == h.steps
        close_all(endpoints)
