"""Cross-backend statistical equivalence: storage never changes results.

The dataset-backend contract extends the execution engine's standing
determinism contract with a third axis: for a fixed seed, sampler
fingerprints (estimates, CIs, drawn indices, matches, values, oracle
accounting) must be bit-identical whether the columns are served dense
from RAM (``InMemoryBackend``), memory-mapped from disk
(``MmapBackend``), or read through the chunked LRU (``ChunkedBackend``)
— and identical to the historical raw-array paths.

Each test runs the equivalence harness grid (seeds x batch_sizes x
max_in_flight) once per backend and compares the per-seed fingerprints
across backends; the fast tier covers a reduced grid, the ``slow`` tier
the full one.
"""

import numpy as np
import pytest
from harness import (
    WIDE_GRID_SEEDS,
    estimate_fingerprint,
    groupby_fingerprint,
    oracle_accounting_fingerprint,
    query_fingerprint,
    run_equivalence_grid,
)

from repro.core.abae import run_abae
from repro.core.adaptive import run_abae_sequential
from repro.core.groupby import GroupSpec, run_groupby_single_oracle
from repro.core.uniform import run_uniform
from repro.data import ChunkedBackend, InMemoryBackend, MmapBackend, write_column_dir
from repro.engine import ExecutionConfig
from repro.oracle.groupkey import GroupKeyOracle
from repro.oracle.simulated import LabelColumnOracle
from repro.proxy.base import BackedProxy
from repro.query.executor import QueryContext, execute_query
from repro.stats.rng import RandomState
from repro.synth import make_dataset, to_backend

SIZE = 4000
# max_in_flight=2 runs the oracle behind a blocking endpoint, so chunked
# answer columns are gathered from two endpoint threads at once.
FAST_GRID = dict(seeds=(0, 1), batch_sizes=(1, None), max_in_flight=(None, 2))
# The wide (tier-2) grid draws its seeds from the shared spawn-key list in
# tests/harness.py — fixed, well-separated, identical in every run.
WIDE_GRID = dict(
    seeds=WIDE_GRID_SEEDS, batch_sizes=(1, 7, None), max_in_flight=(None, 1, 2, 4)
)

QUERY = (
    "SELECT AVG(stat) FROM t WHERE match(r) = 'yes' "
    "ORACLE LIMIT 400 USING p WITH PROBABILITY 0.95"
)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("celeba", seed=0, size=SIZE)


@pytest.fixture(scope="module")
def backends(scenario, tmp_path_factory):
    path = tmp_path_factory.mktemp("backend-parity") / "celeba"
    return {
        "dense-arrays": None,  # the historical raw-array path
        "memory": to_backend(scenario, kind="memory"),
        "mmap": to_backend(scenario, kind="mmap", path=path),
        "chunked": to_backend(
            scenario, kind="chunked", path=path, chunk_size=512,
            max_resident_chunks=4,
        ),
    }


def sampler_inputs(scenario, backend):
    """(proxy, oracle, statistic) for one backend arm (None = raw arrays)."""
    if backend is None:
        return (
            scenario.proxy.scores(),
            LabelColumnOracle(scenario.labels, keep_log=True),
            scenario.statistic_values,
        )
    return (
        BackedProxy(backend, "proxy_score"),
        LabelColumnOracle(backend.column("label"), keep_log=True),
        backend.column("statistic"),
    )


def combined_fingerprint(result, oracle) -> str:
    return repr(
        (estimate_fingerprint(result), oracle_accounting_fingerprint(oracle))
    )


def assert_backends_equivalent(backends, make_cell, grid, fingerprint):
    """Run the harness grid per backend and compare per-seed fingerprints."""
    reports = {}
    for kind, backend in backends.items():
        reports[kind] = run_equivalence_grid(
            make_cell(backend), fingerprint=fingerprint, **grid
        )
    baseline = reports["dense-arrays"]
    for kind, report in reports.items():
        for seed in grid["seeds"]:
            assert report.fingerprint(seed) == baseline.fingerprint(seed), (
                f"backend {kind!r} diverged from the dense-array path "
                f"at seed {seed}"
            )


class TestTwoStageParity:
    def make_cell(self, scenario):
        def factory(backend):
            def run_cell(seed, batch_size, wrap):
                proxy, oracle, statistic = sampler_inputs(scenario, backend)
                oracle = wrap(oracle)
                result = run_abae(
                    proxy,
                    oracle,
                    statistic,
                    budget=400,
                    with_ci=True,
                    num_bootstrap=50,
                    rng=RandomState(seed),
                    config=ExecutionConfig(batch_size=batch_size),
                )
                return result, oracle

            return run_cell

        return factory

    def test_fast_grid(self, scenario, backends):
        assert_backends_equivalent(
            backends,
            self.make_cell(scenario),
            FAST_GRID,
            lambda cell: combined_fingerprint(*cell),
        )

    @pytest.mark.slow
    def test_wide_grid(self, scenario, backends):
        assert_backends_equivalent(
            backends,
            self.make_cell(scenario),
            WIDE_GRID,
            lambda cell: combined_fingerprint(*cell),
        )


class TestUniformParity:
    def test_fast_grid(self, scenario, backends):
        def factory(backend):
            def run_cell(seed, batch_size, wrap):
                _, oracle, statistic = sampler_inputs(scenario, backend)
                oracle = wrap(oracle)
                result = run_uniform(
                    SIZE,
                    oracle,
                    statistic,
                    budget=300,
                    rng=RandomState(seed),
                    config=ExecutionConfig(batch_size=batch_size),
                )
                return result, oracle

            return run_cell

        assert_backends_equivalent(
            backends, factory, FAST_GRID, lambda cell: combined_fingerprint(*cell)
        )


class TestSequentialParity:
    def test_fast_grid(self, scenario, backends):
        def factory(backend):
            def run_cell(seed, batch_size, wrap):
                proxy, oracle, statistic = sampler_inputs(scenario, backend)
                oracle = wrap(oracle)
                result = run_abae_sequential(
                    proxy,
                    oracle,
                    statistic,
                    budget=300,
                    warmup_per_stratum=10,
                    rng=RandomState(seed),
                    config=ExecutionConfig(batch_size=batch_size),
                )
                return result, oracle

            return run_cell

        assert_backends_equivalent(
            backends, factory, FAST_GRID, lambda cell: combined_fingerprint(*cell)
        )


class TestGroupByParityWithBackedKeys:
    """Single-oracle group-by with the key column stored out-of-core.

    Group keys cannot be object arrays on disk; they are stored as
    fixed-width strings with ``""`` as the none-value, and the backed
    oracle must produce the same draws and estimates as the dense one.
    """

    GROUPS = ["blond", "gray"]

    @pytest.fixture(scope="class")
    def setup(self, scenario, tmp_path_factory):
        rng = np.random.default_rng(5)
        keys_fixed = np.where(
            scenario.labels,
            np.where(rng.random(SIZE) < 0.5, "blond", "gray"),
            "",
        ).astype("<U8")
        keys_obj = np.array(keys_fixed.tolist(), dtype=object)
        proxies = {
            "blond": np.asarray(scenario.proxy.scores()),
            "gray": 1.0 - np.asarray(scenario.proxy.scores()),
        }
        path = tmp_path_factory.mktemp("groupby-parity") / "keys"
        write_column_dir(
            path,
            {
                "group_key": keys_fixed,
                "statistic": scenario.statistic_values,
                "p_blond": proxies["blond"],
                "p_gray": proxies["gray"],
            },
        )
        return keys_obj, proxies, path

    def test_backed_group_keys_match_dense(self, scenario, setup):
        keys_obj, proxies, path = setup

        def factory(key_source):
            def run_cell(seed, batch_size, wrap):
                oracle = wrap(
                    GroupKeyOracle(
                        key_source() if callable(key_source) else key_source,
                        groups=self.GROUPS,
                        none_value="",
                    )
                )
                return run_groupby_single_oracle(
                    [GroupSpec(key=g, proxy=proxies[g]) for g in self.GROUPS],
                    oracle,
                    scenario.statistic_values,
                    budget=400,
                    rng=RandomState(seed),
                    config=ExecutionConfig(batch_size=batch_size),
                )

            return run_cell

        arms = {
            "dense-arrays": keys_obj,
            "mmap": lambda: MmapBackend(path).column("group_key"),
            "chunked": lambda: ChunkedBackend(path, chunk_size=512).column(
                "group_key"
            ),
        }
        reports = {
            kind: run_equivalence_grid(
                factory(source), fingerprint=groupby_fingerprint, **FAST_GRID
            )
            for kind, source in arms.items()
        }
        for kind, report in reports.items():
            for seed in FAST_GRID["seeds"]:
                assert (
                    report.fingerprint(seed)
                    == reports["dense-arrays"].fingerprint(seed)
                ), f"{kind} diverged at seed {seed}"

    def test_backed_keys_require_explicit_groups(self, setup):
        _, _, path = setup
        with pytest.raises(ValueError, match="groups must be given"):
            GroupKeyOracle(MmapBackend(path).column("group_key"), none_value="")


class TestQueryLayerParity:
    def test_execute_query_fast_grid(self, scenario, backends):
        def factory(backend):
            def run_cell(seed, batch_size, wrap):
                if backend is None:
                    context = QueryContext(SIZE)
                    context.register_statistic("stat", scenario.statistic_values)
                    context.register_predicate(
                        "match",
                        wrap(LabelColumnOracle(scenario.labels)),
                        scenario.proxy.scores(),
                    )
                else:
                    context = QueryContext.from_backend(backend)
                    context.register_statistic("stat", "statistic")
                    context.register_predicate(
                        "match",
                        wrap(LabelColumnOracle(backend.column("label"))),
                        "proxy_score",
                    )
                return execute_query(
                    QUERY,
                    context,
                    seed=seed,
                    num_bootstrap=50,
                    config=ExecutionConfig(batch_size=batch_size),
                )

            return run_cell

        assert_backends_equivalent(
            backends, factory, FAST_GRID, query_fingerprint
        )

    def test_in_memory_backend_needs_no_path(self, scenario):
        backend = InMemoryBackend(
            {
                "statistic": scenario.statistic_values,
                "proxy_score": scenario.proxy.scores(),
                "label": scenario.labels,
            }
        )
        context = QueryContext.from_backend(backend)
        context.register_statistic("stat", "statistic")
        context.register_predicate(
            "match", LabelColumnOracle(backend.column("label")), "proxy_score"
        )
        result = execute_query(QUERY, context, seed=0, num_bootstrap=50)
        assert result.oracle_calls == 400
