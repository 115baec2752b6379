"""Fault-injection tests for the async RPC oracle protocol.

Everything here is hermetic: :class:`SimulatedRemoteOracle` supplies the
flaky transport (scripted or seeded failures, zero real latency via an
injected sleep), so every retry / timeout / coalescing / give-up path of
:class:`RemoteEndpoint` and :class:`AsyncOracle` is driven deterministically
and its :class:`RemoteCallStats` asserted exactly.

The core contract under test: **failures change time, never answers or
charges** — an `AsyncOracle`'s `num_calls`, cost and call log are identical
however many retries the endpoint needed, and a given-up batch charges
nothing at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.oracle import (
    AsyncOracle,
    LatencyOracle,
    PendingOracleBatch,
    RemoteCallError,
    RemoteCallTimeout,
    RemoteEndpoint,
    RemoteGiveUpError,
    SimulatedRemoteOracle,
)

LABELS = np.arange(64) % 3 == 0


def make_endpoint(transport, **kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("sleep", lambda s: None)
    return RemoteEndpoint(transport, **kwargs)


class TestSimulatedRemoteOracle:
    def test_zero_failure_is_a_plain_label_oracle(self):
        oracle = SimulatedRemoteOracle(LABELS)
        assert list(oracle.evaluate_batch([0, 1, 3])) == [True, False, True]
        assert oracle(6) is True
        assert oracle.num_calls == 4

    def test_script_consumed_per_request_then_falls_back(self):
        oracle = SimulatedRemoteOracle(LABELS, script=["fail", "timeout", "ok"])
        with pytest.raises(RemoteCallError):
            oracle.evaluate_batch([0, 1])
        with pytest.raises(RemoteCallTimeout):
            oracle.evaluate_batch([0, 1])
        assert list(oracle.evaluate_batch([0, 1])) == [True, False]
        assert oracle.script_exhausted
        # Past the script with zero rates: never fails again.
        assert list(oracle.evaluate_batch([3])) == [True]

    def test_failures_charge_nothing(self):
        oracle = SimulatedRemoteOracle(LABELS, script=["fail", "ok"])
        with pytest.raises(RemoteCallError):
            oracle.evaluate_batch([0, 1, 2])
        assert oracle.num_calls == 0
        oracle.evaluate_batch([0, 1, 2])
        assert oracle.num_calls == 3

    def test_seeded_rates_are_deterministic(self):
        def outcomes(seed):
            oracle = SimulatedRemoteOracle(
                LABELS, failure_rate=0.3, timeout_rate=0.2, seed=seed
            )
            out = []
            for _ in range(30):
                try:
                    oracle.evaluate_batch([0])
                    out.append("ok")
                except RemoteCallTimeout:
                    out.append("timeout")
                except RemoteCallError:
                    out.append("fail")
            return out

        a, b = outcomes(7), outcomes(7)
        assert a == b
        assert set(a) == {"ok", "fail", "timeout"}
        assert outcomes(8) != a

    def test_latency_oracle_is_zero_failure_subclass(self):
        oracle = LatencyOracle(LABELS, 0.0, 0.0)
        assert isinstance(oracle, SimulatedRemoteOracle)
        assert list(oracle.evaluate_batch([0, 1])) == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedRemoteOracle(LABELS, failure_rate=1.5)
        with pytest.raises(ValueError):
            SimulatedRemoteOracle(LABELS, failure_rate=0.6, timeout_rate=0.6)
        with pytest.raises(ValueError):
            SimulatedRemoteOracle(LABELS, script=["ok", "explode"])
        with pytest.raises(ValueError):
            SimulatedRemoteOracle(LABELS, per_record_seconds=-1.0)


class TestRetryPaths:
    def test_timeout_retry_success_exact_stats(self):
        transport = SimulatedRemoteOracle(LABELS, script=["timeout", "timeout", "ok"])
        endpoint = make_endpoint(transport, max_retries=3)
        oracle = AsyncOracle(endpoint)
        answers = oracle.evaluate_batch([0, 1, 2, 3])
        assert list(answers) == [True, False, False, True]
        stats = endpoint.stats()
        assert stats.attempts == 3
        assert stats.retries == 2
        assert stats.timeouts == 2
        assert stats.failures == 0
        assert stats.giveups == 0
        # Four one-record pieces (max_in_flight=4) coalesce into one batch.
        assert stats.requests == 4
        assert stats.records == 4
        assert stats.batches == 1
        # Accounting is what a clean run would charge: 4 records, once.
        assert oracle.num_calls == 4
        assert oracle.total_cost == 4.0
        endpoint.close()

    def test_retry_exhaustion_gives_up_and_charges_nothing(self):
        transport = SimulatedRemoteOracle(LABELS, failure_rate=1.0, seed=0)
        endpoint = make_endpoint(transport, max_retries=2)
        oracle = AsyncOracle(endpoint)
        with pytest.raises(RemoteGiveUpError) as excinfo:
            oracle.evaluate_batch([0, 1])
        assert isinstance(excinfo.value.__cause__, RemoteCallError)
        stats = endpoint.stats()
        assert stats.attempts == 3  # 1 try + 2 retries
        assert stats.retries == 2
        assert stats.failures == 3
        assert stats.giveups == 1
        assert oracle.num_calls == 0
        assert oracle.total_cost == 0.0
        endpoint.close()

    def test_max_retries_zero_fails_on_first_error(self):
        transport = SimulatedRemoteOracle(LABELS, script=["fail"])
        endpoint = make_endpoint(transport, max_retries=0)
        oracle = AsyncOracle(endpoint)
        with pytest.raises(RemoteGiveUpError):
            oracle.evaluate_batch([5])
        assert endpoint.stats().attempts == 1
        assert endpoint.stats().retries == 0
        endpoint.close()

    def test_wall_clock_timeout_classifies_and_retries(self):
        # A virtual clock that advances 5s per reading: the first attempt
        # appears to take 5s against a 1s ceiling and must be retried even
        # though the transport itself never raised.
        t = {"now": 0.0}

        def clock():
            t["now"] += 5.0
            return t["now"]

        calls = {"n": 0}

        class CountingTransport:
            name = "counting"

            def evaluate_batch(self, idx):
                calls["n"] += 1
                return LABELS[np.asarray(idx, dtype=np.int64)]

        endpoint = make_endpoint(
            CountingTransport(), timeout=1.0, max_retries=1, clock=clock
        )
        oracle = AsyncOracle(endpoint)
        with pytest.raises(RemoteGiveUpError) as excinfo:
            oracle.evaluate_batch([0, 1])
        assert isinstance(excinfo.value.__cause__, RemoteCallTimeout)
        assert calls["n"] == 2  # late answers discarded both times
        assert endpoint.stats().timeouts == 2
        assert oracle.num_calls == 0
        endpoint.close()

    def test_backoff_schedule_deterministic_jitter(self):
        def recorded_sleeps(seed):
            transport = SimulatedRemoteOracle(
                LABELS, script=["fail", "fail", "fail", "ok"]
            )
            sleeps = []
            endpoint = RemoteEndpoint(
                transport,
                max_retries=3,
                backoff_base=0.1,
                backoff_multiplier=2.0,
                jitter_fraction=0.5,
                seed=seed,
                sleep=sleeps.append,
            )
            AsyncOracle(endpoint).evaluate_batch([0])
            endpoint.close()
            return sleeps

        first = recorded_sleeps(3)
        assert first == recorded_sleeps(3)  # same seed, same schedule
        assert len(first) == 3
        # Exponential envelope: base*2^i <= sleep <= base*2^i*(1+jitter).
        for i, s in enumerate(first):
            assert 0.1 * 2**i <= s <= 0.1 * 2**i * 1.5
        assert recorded_sleeps(4) != first  # jitter is really seeded

    def test_non_transport_error_is_terminal_not_retried(self):
        calls = {"n": 0}

        class BrokenTransport:
            name = "broken"

            def evaluate_batch(self, idx):
                calls["n"] += 1
                raise KeyError("bug in transport")

        endpoint = make_endpoint(BrokenTransport(), max_retries=5)
        oracle = AsyncOracle(endpoint)
        with pytest.raises(KeyError):
            oracle.evaluate_batch([0])
        assert calls["n"] == 1
        assert endpoint.stats().retries == 0
        endpoint.close()

    def test_length_mismatch_is_terminal(self):
        class ShortTransport:
            name = "short"

            def evaluate_batch(self, idx):
                return [True]

        endpoint = make_endpoint(ShortTransport(), max_retries=5)
        oracle = AsyncOracle(endpoint)
        with pytest.raises(ValueError):
            oracle.evaluate_batch([0, 1, 2])
        assert endpoint.stats().retries == 0
        endpoint.close()


class TestCoalescing:
    def test_two_submissions_one_batch(self):
        transport = SimulatedRemoteOracle(LABELS)
        endpoint = make_endpoint(transport, max_batch_size=16)
        t1 = endpoint.submit([0, 1, 2])
        t2 = endpoint.submit([3, 4])
        assert endpoint.stats().pending_requests == 2
        assert endpoint.stats().batches == 0
        endpoint.flush()
        assert t1.wait(5.0) and t2.wait(5.0)
        assert list(t1.result()) == [True, False, False]
        assert list(t2.result()) == [True, False]
        stats = endpoint.stats()
        assert stats.requests == 2
        assert stats.batches == 1  # coalesced into one transport call
        assert stats.coalesced == 1
        assert stats.records == 5
        endpoint.close()

    def test_size_trigger_launches_without_flush(self):
        transport = SimulatedRemoteOracle(LABELS)
        endpoint = make_endpoint(transport, max_batch_size=4)
        endpoint.submit([0, 1])
        t2 = endpoint.submit([2, 3])  # fills the batch: launches now
        assert t2.wait(5.0)
        assert endpoint.stats().batches == 1
        assert endpoint.stats().pending_requests == 0
        endpoint.close()

    def test_max_batch_size_splits_merged_requests(self):
        transport = SimulatedRemoteOracle(LABELS)
        endpoint = make_endpoint(transport, max_batch_size=4)
        tickets = [endpoint.submit([i, i + 1, i + 2]) for i in (0, 10, 20)]
        endpoint.flush()
        for t in tickets:
            assert t.wait(5.0)
        # 3-record sub-requests never pair up under a 4-record ceiling.
        assert endpoint.stats().batches == 3
        endpoint.close()

    def test_sub_requests_are_never_split(self):
        seen = []

        class RecordingTransport:
            name = "recording"

            def evaluate_batch(self, idx):
                seen.append(np.asarray(idx).tolist())
                return LABELS[np.asarray(idx, dtype=np.int64)]

        endpoint = make_endpoint(RecordingTransport(), max_batch_size=4)
        ticket = endpoint.submit([0, 1, 2, 3, 4, 5])  # oversized: own batch
        assert ticket.wait(5.0)
        assert seen == [[0, 1, 2, 3, 4, 5]]
        endpoint.close()

    def test_maybe_flush_launches_overdue_queue(self):
        transport = SimulatedRemoteOracle(LABELS)
        endpoint = make_endpoint(transport, max_batch_size=64, max_delay=0.0)
        ticket = endpoint.submit([0, 1])
        assert endpoint.stats().batches == 0
        assert ticket.poll() or ticket.wait(5.0)  # poll triggers the launch
        assert endpoint.stats().batches == 1
        endpoint.close()

    def test_giveup_resolves_every_coalesced_caller(self):
        transport = SimulatedRemoteOracle(LABELS, failure_rate=1.0)
        endpoint = make_endpoint(transport, max_batch_size=16, max_retries=1)
        t1 = endpoint.submit([0, 1])
        t2 = endpoint.submit([2])
        endpoint.flush()
        assert t1.wait(5.0) and t2.wait(5.0)
        for t in (t1, t2):
            with pytest.raises(RemoteGiveUpError):
                t.result()
        assert endpoint.stats().giveups == 1
        endpoint.close()


class TestCooperativeProtocol:
    def test_park_then_resume_records_once(self):
        transport = SimulatedRemoteOracle(LABELS)
        endpoint = make_endpoint(transport, max_batch_size=64)
        oracle = AsyncOracle(endpoint, blocking=False)
        assert oracle.parkable
        with pytest.raises(PendingOracleBatch) as excinfo:
            oracle.evaluate_batch([0, 1, 2])
        ticket = excinfo.value.ticket
        assert ticket.wait(5.0)
        answers = oracle.evaluate_batch([0, 1, 2])  # identical retry
        assert list(answers) == [True, False, False]
        assert oracle.num_calls == 3
        # A later chunk in the same step parks; the step restarts from its
        # first chunk, which must replay — no re-submit, no double charge.
        with pytest.raises(PendingOracleBatch) as excinfo2:
            oracle.evaluate_batch([4, 5])
        assert excinfo2.value.ticket.wait(5.0)
        assert list(oracle.evaluate_batch([0, 1, 2])) == [True, False, False]
        assert list(oracle.evaluate_batch([4, 5])) == [False, False]
        assert oracle.num_calls == 5
        assert endpoint.stats().requests == 2
        oracle.step_boundary()
        # After the step boundary the same request is a fresh submission.
        with pytest.raises(PendingOracleBatch):
            oracle.evaluate_batch([0, 1, 2])
        endpoint.close()

    def test_chunked_draw_replays_earlier_chunks(self):
        """batch_size < n: chunk A resolves, chunk B parks; the retried
        step must replay A's results without re-submitting or re-charging
        and then return B's."""
        transport = SimulatedRemoteOracle(LABELS)
        endpoint = make_endpoint(transport, max_batch_size=64)
        oracle = AsyncOracle(endpoint, blocking=False)

        def drive(chunks):
            """One simulated engine step: evaluate chunks in order,
            parking/retrying like the session does."""
            while True:
                try:
                    out = [list(oracle.evaluate_batch(c)) for c in chunks]
                    oracle.step_boundary()
                    return out
                except PendingOracleBatch as p:
                    assert p.ticket.wait(5.0)

        out = drive([[0, 1], [2, 3], [4, 5]])
        assert out == [[True, False], [False, True], [False, False]]
        assert oracle.num_calls == 6
        stats = endpoint.stats()
        assert stats.requests == 3  # one per chunk, none duplicated
        assert stats.records == 6
        endpoint.close()

    def test_giveup_propagates_on_retry(self):
        transport = SimulatedRemoteOracle(LABELS, failure_rate=1.0)
        endpoint = make_endpoint(transport, max_retries=0)
        oracle = AsyncOracle(endpoint, blocking=False)
        with pytest.raises(PendingOracleBatch) as excinfo:
            oracle.evaluate_batch([0, 1])
        assert excinfo.value.ticket.wait(5.0)
        with pytest.raises(RemoteGiveUpError):
            oracle.evaluate_batch([0, 1])
        assert oracle.num_calls == 0
        endpoint.close()

    def test_blocking_oracle_is_not_parkable(self):
        endpoint = make_endpoint(SimulatedRemoteOracle(LABELS))
        oracle = AsyncOracle(endpoint)
        assert not oracle.parkable
        assert oracle(0) is np.True_ or oracle(0) in (True, np.True_)
        endpoint.close()

    def test_async_oracle_refuses_pickling(self):
        import pickle

        endpoint = make_endpoint(SimulatedRemoteOracle(LABELS))
        oracle = AsyncOracle(endpoint)
        with pytest.raises(TypeError):
            pickle.dumps(oracle)
        endpoint.close()


class TestEndpointLifecycle:
    def test_validation(self):
        transport = SimulatedRemoteOracle(LABELS)
        for kwargs in (
            {"max_batch_size": 0},
            {"max_in_flight": 0},
            {"max_retries": -1},
            {"max_delay": -0.1},
            {"timeout": 0.0},
            {"jitter_fraction": 1.5},
            {"backoff_multiplier": 0.5},
        ):
            with pytest.raises(ValueError):
                RemoteEndpoint(transport, **kwargs)

    def test_closed_endpoint_rejects_submissions(self):
        endpoint = make_endpoint(SimulatedRemoteOracle(LABELS))
        with endpoint:
            endpoint.submit([0]).wait(5.0)
        with pytest.raises(RuntimeError):
            endpoint.submit([1])

    def test_in_flight_limiter_bounds_concurrency(self):
        import threading

        peak = {"now": 0, "max": 0}
        lock = threading.Lock()

        class GaugeTransport:
            name = "gauge"

            def evaluate_batch(self, idx):
                with lock:
                    peak["now"] += 1
                    peak["max"] = max(peak["max"], peak["now"])
                import time as _time

                _time.sleep(0.01)
                with lock:
                    peak["now"] -= 1
                return LABELS[np.asarray(idx, dtype=np.int64)]

        endpoint = make_endpoint(
            GaugeTransport(), max_batch_size=2, max_in_flight=2
        )
        tickets = [endpoint.submit([i, i + 1]) for i in range(0, 16, 2)]
        endpoint.flush()
        for t in tickets:
            assert t.wait(10.0)
        assert endpoint.stats().batches == 8
        assert peak["max"] <= 2
        endpoint.close()

    def test_cost_per_call_inherited_from_transport(self):
        transport = SimulatedRemoteOracle(LABELS, cost_per_call=2.5)
        endpoint = make_endpoint(transport)
        oracle = AsyncOracle(endpoint)
        oracle.evaluate_batch([0, 1])
        assert oracle.cost_per_call == 2.5
        assert oracle.total_cost == 5.0
        endpoint.close()

    def test_call_log_records_remote_answers(self):
        endpoint = make_endpoint(SimulatedRemoteOracle(LABELS))
        oracle = AsyncOracle(endpoint, keep_log=True)
        oracle.evaluate_batch([0, 1, 3])
        log = oracle.call_log_columns
        assert log.indices.tolist() == [0, 1, 3]
        assert [bool(r) for r in log.results] == [True, False, True]
        endpoint.close()
