"""The benchmark's three workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
*legs*: one leg is one measured stretch of serving, returning a
:class:`Leg` with its timings, its exact counters and what its correctness
checks need.  Only timestamps, spend and the answer are kept per query;
handles, sessions and oracles are dropped as soon as a query settles, so
the benchmark never pins per-query state and ``peak_rss_mb`` is the program's.

Exact counters (``labels_per_query``, ``rel_rmse``, cache misses) are
computed over a query set fixed by the seed alone — the first queries of
the stream, or every arrival of the open loop — never over however many
queries a time window happened to fit.
"""

from __future__ import annotations

import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a sequence."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rel_rmse(pairs) -> float:
    """RMS of ``(estimate - exact) / exact`` over (estimate, exact) pairs."""
    errors = [(est - exact) / exact for est, exact in pairs]
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def _ci_key(ci):
    return None if ci is None else (ci.lower, ci.upper)


@dataclass
class Leg:
    """What one measured stretch of a workload produced."""

    queries: int = 0  # completed inside the measured window
    window_s: float = 0.0
    busy_s: float = 0.0  # window minus time the load generator slept
    attempted: int = 0
    failed: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    ttfe_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    labels_per_query: float = 0.0
    rel_rmse: float = 0.0
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    # Counters the workload reads from the program itself (cache, remote
    # endpoint, chunk cache, journal, recovery), reported by traced runs.
    layers: Dict[str, float] = field(default_factory=dict)

    def cost_per_query(self) -> float:
        return self.busy_s / max(1, self.queries)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "queries_per_s": self.queries / self.window_s,
            "query_latency_p50_ms": percentile(self.latencies_ms, 50),
            "query_latency_p95_ms": percentile(self.latencies_ms, 95),
            "ttfe_p50_ms": percentile(self.ttfe_ms, 50),
            "labels_per_query": self.labels_per_query,
            "rel_rmse": self.rel_rmse,
            "peak_rss_mb": self.peak_rss_mb,
        }


# ---------------------------------------------------------------------------
# solo-mix: one analyst, in-process oracle, every sampler family
# ---------------------------------------------------------------------------


class SoloMix:
    """One client in a closed loop over a fixed rotation of query kinds.

    A *rotation* is the seven queries a dashboard refresh issues back to
    back: AVG, SUM and COUNT with CIs, a two-predicate AVG, a GROUP BY,
    all as query text through ``execute_query``, then the two samplers
    query text cannot reach (``run_abae_until_width``,
    ``run_abae_sequential``).  Latency is per rotation and TTFE the time
    to its first answer: the kinds' latencies cluster far apart (about
    20 to 150 ms), so a per-query percentile over the mix would jump
    between clusters.
    """

    name = "solo-mix"
    size = 500_000
    # Rotations per measured second that the exact counters cover (and
    # that always run): 28 in a 20 s run.
    exact_rotations_per_s = 1.4

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir

    def setup(self) -> None:
        from repro.query import QueryContext, exact_answer
        from repro.query.executor import GroupBinding
        from repro.synth import make_groupby_scenario, make_multipred_scenario

        street = make_multipred_scenario("night-street", seed=self.seed, size=self.size)
        faces = make_groupby_scenario(
            "celeba", setting="single", seed=self.seed + 1, size=self.size
        )
        self.has_cars = street.proxies["has_cars"]
        self.count_cars = street.statistic_values
        self.has_cars_oracle = street.make_oracle("has_cars")
        red_light_oracle = street.make_oracle("red_light")
        group_oracle = faces.make_single_oracle()
        self.oracles = [self.has_cars_oracle, red_light_oracle, group_oracle]
        self.context = QueryContext(self.size)
        self.context.register_statistic("count_cars", street.statistic_values)
        self.context.register_predicate(
            "count_cars(frame) > 0.0",
            oracle=self.has_cars_oracle,
            proxy=street.proxies["has_cars"],
            labels=street.predicate_labels["has_cars"],
        )
        self.context.register_predicate(
            "red_light(frame)",
            oracle=red_light_oracle,
            proxy=street.proxies["red_light"],
            labels=street.predicate_labels["red_light"],
        )
        self.group_context = QueryContext(self.size)
        self.group_context.register_statistic("is_smiling", faces.statistic_values)
        self.group_context.register_groupby(
            "hair_color",
            GroupBinding(
                groups=faces.groups,
                proxies=faces.proxies,
                group_key_oracle=group_oracle,
                group_labels=faces.group_keys,
            ),
        )
        self.exact = {}
        for kind, text in self._texts(1000).items():
            ctx = self.group_context if kind == "groupby" else self.context
            self.exact[kind] = exact_answer(text, ctx)
        self.exact["until_width"] = self.exact["sequential"] = self.exact["avg"]
        # Warm-up: one rotation outside every measured stream fills the
        # plan-level stratification caches, as any repeated dashboard would.
        for spec in self.rotation(-1):
            self.run_query(spec)

    # -- inputs --------------------------------------------------------------------
    @staticmethod
    def _texts(budget: int) -> Dict[str, str]:
        tail = f"ORACLE LIMIT {budget} USING proxy(frame) WITH PROBABILITY 0.95"
        has_cars = "WHERE count_cars(frame) > 0"
        return {
            "avg": f"SELECT AVG(count_cars(frame)) FROM video {has_cars} {tail}",
            "sum": f"SELECT SUM(count_cars(frame)) FROM video {has_cars} {tail}",
            "count": f"SELECT COUNT(count_cars(frame)) FROM video {has_cars} {tail}",
            "multipred": (
                f"SELECT AVG(count_cars(frame)) FROM video {has_cars} "
                f"AND red_light(frame) {tail}"
            ),
            "groupby": (
                "SELECT AVG(is_smiling(image)) FROM images "
                "WHERE hair_color(image) = 'gray' OR hair_color(image) = 'blond' "
                f"GROUP BY hair_color ORACLE LIMIT {budget} USING proxy "
                "WITH PROBABILITY 0.95"
            ),
        }

    def rotation(self, index: int):
        """The seven query specs of rotation ``index`` (pure in the seed)."""
        rng = np.random.default_rng([self.seed, index + 1])
        specs = []
        for kind in ("avg", "sum", "count", "multipred", "groupby", "until_width", "sequential"):
            budget = int(rng.integers(4750, 5251))
            specs.append((kind, budget, int(rng.integers(0, 2**31 - 1))))
        return specs

    # -- execution -----------------------------------------------------------------
    def labels(self) -> int:
        return sum(oracle.num_calls for oracle in self.oracles)

    def run_query(self, spec):
        """Run one spec; returns its fingerprint (the exact answer tuple)."""
        from repro.core.adaptive import run_abae_sequential, run_abae_until_width
        from repro.query import execute_query
        from repro.stats.rng import RandomState

        kind, budget, seed = spec
        if kind == "until_width":
            result = run_abae_until_width(
                self.has_cars, self.has_cars_oracle, self.count_cars,
                target_width=0.04, max_budget=budget, num_strata=5,
                batch_size=250, num_bootstrap=200, rng=RandomState(seed),
            )
            return ((result.estimate,), _ci_key(result.ci), result.oracle_calls)
        if kind == "sequential":
            result = run_abae_sequential(
                self.has_cars, self.has_cars_oracle, self.count_cars,
                budget=budget, num_strata=5, batch_size=100, with_ci=True,
                rng=RandomState(seed),
            )
            return ((result.estimate,), _ci_key(result.ci), result.oracle_calls)
        text = self._texts(budget)[kind]
        if kind == "groupby":
            result = execute_query(text, self.group_context, seed=seed)
            groups = sorted(result.group_values)
            return (
                tuple(result.group_values[g] for g in groups),
                tuple(_ci_key(result.group_cis.get(g)) for g in groups),
                result.oracle_calls,
            )
        result = execute_query(text, self.context, seed=seed)
        return ((result.value,), _ci_key(result.ci), result.oracle_calls)

    def _pairs(self, kind, values):
        exact = self.exact[kind]
        if kind == "groupby":
            return list(zip(values, (exact[g] for g in sorted(exact))))
        return [(values[0], exact)]

    def run_leg(self, seconds: float) -> Leg:
        clock = time.perf_counter
        leg = Leg()
        exact_rotations = max(1, round(self.exact_rotations_per_s * seconds))
        pairs, labels = [], []
        self._reference = []  # (spec, fingerprint, labels) of rotation 0
        start = clock()
        rotation = 0
        while True:
            began = clock()
            first = None
            for spec in self.rotation(rotation):
                leg.attempted += 1
                before = self.labels()
                try:
                    fingerprint = self.run_query(spec)
                except Exception as exc:  # a failed query is counted, not fatal
                    leg.failed += 1
                    leg.problems.append(f"{spec}: {exc!r}")
                    continue
                if first is None:
                    first = clock() - began
                spent = self.labels() - before
                if rotation < exact_rotations:
                    labels.append(spent)
                    pairs.extend(self._pairs(spec[0], fingerprint[0]))
                if rotation == 0:
                    self._reference.append((spec, fingerprint, spent))
            leg.latencies_ms.append((clock() - began) * 1e3)
            leg.ttfe_ms.append((first if first is not None else clock() - began) * 1e3)
            rotation += 1
            if rotation >= exact_rotations and clock() - start >= seconds:
                break
        leg.window_s = leg.busy_s = clock() - start
        leg.queries = leg.attempted - leg.failed
        leg.peak_rss_mb = peak_rss_mb()
        leg.labels_per_query = sum(labels) / len(labels)
        leg.rel_rmse = rel_rmse(pairs)
        return leg

    def check(self, leg: Leg) -> None:
        """Re-run rotation 0: answers and label counts must repeat exactly."""
        for spec, fingerprint, spent in self._reference:
            before = self.labels()
            again = self.run_query(spec)
            if again != fingerprint or self.labels() - before != spent:
                leg.failed += 1
                leg.problems.append(f"{spec} did not repeat bit-identically")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-open: open-loop arrivals into the journaled multi-tenant service
# ---------------------------------------------------------------------------


class ServeOpen:
    """Queries arrive on a fixed schedule into ``AQPService``.

    One thread both generates arrivals and drives the scheduler: before
    each scheduler step every query that has come due is submitted.
    Latency and TTFE run from the moment a query was *due*, so a stall
    also charges the queries queued behind it.  The journal lives in the
    checkout with fsync off: its encode and write path is measured, the
    disk device is not.
    """

    name = "serve-open"
    size = 50_000
    rate_per_s = 40.0
    tenants = 4
    num_bootstrap = 50
    check_every = 16  # every n-th arrival is re-run solo for bit-identity
    PREDICATES = ("count_cars(frame) > 0", "red_light(frame)")
    KINDS = ("AVG", "SUM", "COUNT")

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.legs_run = 0

    def setup(self) -> None:
        from repro.query import QueryContext, exact_answer
        from repro.serve import AQPService
        from repro.synth import make_multipred_scenario

        street = make_multipred_scenario("night-street", seed=self.seed, size=self.size)
        self.oracles = [street.make_oracle("has_cars"), street.make_oracle("red_light")]
        self.context = QueryContext(self.size)
        self.context.register_statistic("count_cars", street.statistic_values)
        self.context.register_predicate(
            "count_cars(frame) > 0.0",
            oracle=self.oracles[0],
            proxy=street.proxies["has_cars"],
            labels=street.predicate_labels["has_cars"],
        )
        self.context.register_predicate(
            "red_light(frame)",
            oracle=self.oracles[1],
            proxy=street.proxies["red_light"],
            labels=street.predicate_labels["red_light"],
        )
        self.exact = {
            (kind, pred): exact_answer(self._text(kind, pred, 100), self.context)
            for kind in self.KINDS
            for pred in self.PREDICATES
        }
        # Warm-up through a throwaway, unjournaled service.
        warm = AQPService()
        for index in range(4):
            kind, pred, budget, seed, tenant = self.spec(-1 - index)
            warm.submit_query(
                self._text(kind, pred, budget), self.context, tenant=tenant,
                rng=seed, num_bootstrap=self.num_bootstrap,
            )
        warm.run_until_complete()

    @staticmethod
    def _text(kind: str, predicate: str, budget: int) -> str:
        return (
            f"SELECT {kind}(count_cars(frame)) FROM video WHERE {predicate} "
            f"ORACLE LIMIT {budget} USING proxy(frame) WITH PROBABILITY 0.95"
        )

    def spec(self, index: int):
        rng = np.random.default_rng([self.seed, 7, index + 10])
        kind = self.KINDS[int(rng.integers(0, len(self.KINDS)))]
        pred = self.PREDICATES[int(rng.integers(0, len(self.PREDICATES)))]
        budget = int(rng.integers(500, 2001))
        return kind, pred, budget, int(rng.integers(0, 2**31 - 1)), f"t{index % self.tenants}"

    def labels(self) -> int:
        return sum(oracle.num_calls for oracle in self.oracles)

    def run_leg(self, seconds: float) -> Leg:
        from repro import clock as repro_clock
        from repro.serve import (
            AdmissionController,
            AQPService,
            ServiceJournal,
            SharedOracleCache,
        )

        leg = Leg()
        arrivals = int(round(self.rate_per_s * seconds))
        self.legs_run += 1
        journal_dir = self.run_dir / f"journal-{self.legs_run}"
        admission = AdmissionController()
        for t in range(self.tenants):
            admission.set_policy(f"t{t}", max_concurrent=256)
        cache = SharedOracleCache()
        service = AQPService(
            admission=admission,
            shared_cache=cache,
            journal=ServiceJournal(journal_dir, fsync=False),
            retain_settled=64,
        )
        now = repro_clock.monotonic
        labels_before = self.labels()
        due: Dict[str, tuple] = {}  # task id -> (arrival index, due time)
        answers: Dict[str, tuple] = {}  # task id -> (value, ci) of done queries
        pairs, spent_total, slept = [], 0, 0.0
        self._sampled = []  # (spec, value, ci) re-run solo in check()
        start = now() + 0.005
        next_index = 0
        while next_index < arrivals or service.live_queries:
            t = now()
            while next_index < arrivals and start + next_index / self.rate_per_s <= t:
                due_at = start + next_index / self.rate_per_s
                kind, pred, budget, seed, tenant = self.spec(next_index)
                leg.attempted += 1
                try:
                    handle = service.submit_query(
                        self._text(kind, pred, budget), self.context,
                        tenant=tenant, rng=seed, num_bootstrap=self.num_bootstrap,
                    )
                except Exception as exc:  # refused or unplannable
                    leg.failed += 1
                    leg.problems.append(f"arrival {next_index}: {exc!r}")
                else:
                    due[handle.task_id] = (next_index, due_at)
                leg.late_ms.append((now() - due_at) * 1e3)
                next_index += 1
                t = now()
            if not service.live_queries:
                if next_index < arrivals:
                    pause = start + next_index / self.rate_per_s - now()
                    if pause > 0:
                        time.sleep(pause)
                        slept += pause
                continue
            task = service.step()
            if task is None or task.live:
                continue
            index, due_at = due.pop(task.task_id)
            spent_total += task.spent
            if task.status != "done":
                leg.failed += 1
                leg.problems.append(f"arrival {index} ended {task.status}: {task.error!r}")
                continue
            result = task.result
            leg.latencies_ms.append((task.finished_at - due_at) * 1e3)
            leg.ttfe_ms.append((task.first_estimate_at - due_at) * 1e3)
            answers[task.task_id] = (result.value, _ci_key(result.ci))
            kind, pred, budget, seed, tenant = self.spec(index)
            pairs.append((result.value, self.exact[(kind, pred)]))
            if index % self.check_every == 0:
                self._sampled.append((self.spec(index), result.value, _ci_key(result.ci)))
        leg.window_s = now() - start
        leg.busy_s = leg.window_s - slept
        leg.queries = len(answers)
        leg.peak_rss_mb = peak_rss_mb()

        stats = cache.stats()
        misses = self.labels() - labels_before
        if stats.misses != misses:
            leg.problems.append(f"cache misses {stats.misses} != inner labels {misses}")
        if stats.hits + stats.misses != spent_total:
            leg.problems.append(
                f"cache hits+misses {stats.hits + stats.misses} != spent {spent_total}"
            )
        leg.labels_per_query = misses / max(1, leg.queries)
        leg.rel_rmse = rel_rmse(pairs)
        journal_bytes = sum(p.stat().st_size for p in journal_dir.iterdir())
        leg.layers.update(
            {
                "serve.cache.hits": stats.hits,
                "serve.cache.misses": stats.misses,
                "serve.cache.hit_ratio": stats.hit_rate,
                "serve.journal.bytes_per_query": journal_bytes / max(1, leg.attempted),
                "serve.scheduler.steps": service.scheduler.total_steps,
                "loadgen.late_p95_ms": percentile(leg.late_ms, 95),
            }
        )

        # The crash: abandon the service (no close, no further calls), then
        # recover from its journal and compare every settled answer.
        began = now()
        recovered, report = AQPService.recover(journal_dir, {}, fsync=False)
        leg.layers["serve.recovery.recover_ms"] = (now() - began) * 1e3
        leg.layers["serve.recovery.records_replayed"] = report.records_replayed
        restored = {
            task_id: (r.value, _ci_key(r.ci)) for task_id, r in report.results().items()
        }
        if restored != answers:
            leg.problems.append(
                f"recovered {len(restored)} settled results differ from the "
                f"{len(answers)} served before the crash"
            )
        recovered.journal.close()
        del recovered, report
        shutil.rmtree(journal_dir, ignore_errors=True)
        return leg

    def check(self, leg: Leg) -> None:
        """Sampled served answers must equal solo ``execute_query``."""
        from repro.query import execute_query

        for (kind, pred, budget, seed, _), value, ci in self._sampled:
            solo = execute_query(
                self._text(kind, pred, budget), self.context, seed=seed,
                num_bootstrap=self.num_bootstrap,
            )
            if (solo.value, _ci_key(solo.ci)) != (value, ci):
                leg.failed += 1
                leg.problems.append(f"served {kind} seed {seed} differs from solo")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# oracle-bound: cooperative queries over a slow, flaky remote oracle
# ---------------------------------------------------------------------------


class OracleBound:
    """16 live queries in a closed loop over ``AsyncOracle`` -> remote.

    Every query builds its own pipeline over a chunked 1M-record backend
    whose chunk cache holds half the columns, and labels through its own
    cooperative ``AsyncOracle`` on one shared ``RemoteEndpoint`` (so
    concurrent queries' batches coalesce).  The simulated service takes
    40 ms per batch and fails 5% of attempts; two batches fly at once.
    """

    name = "oracle-bound"
    size = 1_000_000
    live = 16
    # Queries per measured second that the exact counters cover: the first
    # of the stream, always completed (256 in a 20 s run).
    exact_queries_per_s = 12.8
    check_every = 16

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir

    def setup(self) -> None:
        from repro.synth import make_dataset, to_backend

        scenario = make_dataset("night-street", seed=self.seed, size=self.size)
        self.label_column = np.asarray(scenario.labels, dtype=bool)
        self.exact = float(scenario.ground_truth())
        self.backend = to_backend(
            scenario, kind="chunked", path=self.run_dir / "columns",
            chunk_size=65_536, max_resident_chunks=24,
        )
        del scenario
        # Warm-up: two queries through a throwaway endpoint.
        endpoint, service = self._serve()
        for index in (-1, -2):
            self._submit(service, endpoint, index)
        service.run_until_complete()
        endpoint.close()

    def spec(self, index: int):
        rng = np.random.default_rng([self.seed, 11, index + 10])
        return int(rng.integers(480, 521)), int(rng.integers(0, 2**31 - 1))

    def pipeline(self, oracle, budget):
        from repro.engine.builders import two_stage_pipeline
        from repro.proxy.base import BackedProxy

        return two_stage_pipeline(
            BackedProxy(self.backend, "proxy_score"), oracle,
            self.backend.column("statistic"), budget=budget, num_strata=5,
            with_ci=True, num_bootstrap=100,
        )

    def _serve(self):
        from repro.oracle.remote import RemoteEndpoint
        from repro.oracle.simulated import SimulatedRemoteOracle
        from repro.serve import AQPService

        transport = SimulatedRemoteOracle(
            self.backend.column("label"), per_batch_seconds=0.04,
            failure_rate=0.05, seed=self.seed,
        )
        endpoint = RemoteEndpoint(
            transport, max_batch_size=2048, max_in_flight=2, max_retries=8,
            backoff_base=0.005, seed=self.seed,
        )
        return endpoint, AQPService(retain_settled=64)

    def _submit(self, service, endpoint, index):
        from repro.oracle.remote import AsyncOracle

        budget, seed = self.spec(index)
        oracle = AsyncOracle(endpoint, blocking=False)
        handle = service.submit_pipeline(self.pipeline(oracle, budget), rng=seed)
        return handle.task_id, oracle

    def run_leg(self, seconds: float) -> Leg:
        from repro import clock as repro_clock

        now = repro_clock.monotonic
        leg = Leg()
        endpoint, service = self._serve()
        cache_before = self.backend.cache_info()
        live: Dict[str, tuple] = {}  # task id -> (index, submitted at, oracle)
        labels, pairs, finished = {}, {}, []
        self._sampled = []
        exact_queries = max(1, round(self.exact_queries_per_s * seconds))
        start = now()
        window_end = start + seconds
        next_index = 0
        try:
            while True:
                t = now()
                while len(live) < self.live and (
                    t < window_end or next_index < exact_queries
                ):
                    leg.attempted += 1
                    submitted = now()
                    try:
                        task_id, oracle = self._submit(service, endpoint, next_index)
                    except Exception as exc:
                        leg.failed += 1
                        leg.problems.append(f"query {next_index}: {exc!r}")
                    else:
                        live[task_id] = (next_index, submitted, oracle)
                    next_index += 1
                    t = now()
                if not live:
                    break
                task = service.step()
                if task is None or task.live:
                    continue
                index, submitted, oracle = live.pop(task.task_id)
                if task.status != "done":
                    leg.failed += 1
                    leg.problems.append(f"query {index} ended {task.status}")
                    continue
                if task.finished_at <= window_end:
                    finished.append(task.finished_at)
                    leg.latencies_ms.append((task.finished_at - submitted) * 1e3)
                    leg.ttfe_ms.append((task.first_estimate_at - submitted) * 1e3)
                if index < exact_queries:
                    labels[index] = oracle.num_calls
                    pairs[index] = (task.result.estimate, self.exact)
                    if index % self.check_every == 0:
                        self._sampled.append(
                            (index, task.result.estimate, _ci_key(task.result.ci))
                        )
            # Throughput between the first and last completion inside the
            # window: the closed loop's steady state, without its ramp-up.
            leg.queries = len(finished) - 1
            leg.window_s = leg.busy_s = max(finished) - min(finished)
            leg.peak_rss_mb = peak_rss_mb()
            remote = endpoint.stats()
        finally:
            endpoint.close()
        cache_after = self.backend.cache_info()
        leg.labels_per_query = sum(labels.values()) / len(labels)
        leg.rel_rmse = rel_rmse(pairs.values())
        leg.layers.update(
            {
                "oracle.remote.batches": remote.batches,
                "oracle.remote.records_per_batch": remote.records / max(1, remote.batches),
                "oracle.remote.retries": remote.retries,
                "oracle.remote.giveups": remote.giveups,
                "data.chunk_cache.hits": cache_after["hits"] - cache_before["hits"],
                "data.chunk_cache.misses": cache_after["misses"] - cache_before["misses"],
                "serve.scheduler.steps": service.scheduler.total_steps,
            }
        )
        if remote.giveups:
            leg.problems.append(f"{remote.giveups} remote batches gave up")
        return leg

    def check(self, leg: Leg) -> None:
        """Sampled answers must equal an in-process LabelColumnOracle run."""
        from repro.oracle.simulated import LabelColumnOracle
        from repro.stats.rng import RandomState

        for index, estimate, ci in self._sampled:
            budget, seed = self.spec(index)
            result = self.pipeline(LabelColumnOracle(self.label_column), budget).run(
                RandomState(seed)
            )
            if (result.estimate, _ci_key(result.ci)) != (estimate, ci):
                leg.failed += 1
                leg.problems.append(f"remote query {index} differs from in-process run")

    def close(self) -> None:
        self.backend.close()


WORKLOADS = {cls.name: cls for cls in (SoloMix, ServeOpen, OracleBound)}
