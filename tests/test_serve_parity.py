"""Scheduler-interleaving parity: serving must not change any answer.

The serving layer's determinism contract extends the engine's: a
cooperative scheduler may interleave ``step()`` calls of many live
queries in any order — round-robin, randomized, any concurrency level —
and every query's result *and oracle accounting* must stay bit-identical
to running that query alone.  Sessions share no mutable state and the
scheduler's own randomness comes from a dedicated generator, so this is
exact, not statistical.

Every pipeline family is swept: two-stage ABae, uniform, sequential,
until-width, and multi-predicate, each across the (seed × batch_size)
execution grid of ``tests/harness.py``.  Tier-1 keeps the
grids small (single base seed, two configs, concurrency 1 and 8);
``@pytest.mark.slow`` widens to the shared spawn-key seed list, the full
config grid and 32 concurrent queries.
"""

from __future__ import annotations

import pytest

from harness import (
    WIDE_GRID_SEEDS,
    scheduled_fingerprints,
    solo_fingerprint,
)
from repro.engine.builders import (
    multipred_pipeline,
    sequential_pipeline,
    two_stage_pipeline,
    uniform_pipeline,
    until_width_pipeline,
)
from repro.engine.config import ExecutionConfig
from repro.core.multipred import And, Not, Or, PredicateLeaf
from repro.serve.scheduler import INTERLEAVINGS
from repro.synth import make_dataset, make_multipred_scenario

FAST_CONFIGS = (
    ExecutionConfig(batch_size=None),
    ExecutionConfig(batch_size=1),
)
WIDE_CONFIGS = tuple(ExecutionConfig(batch_size=b) for b in (1, 7, 64, None))


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=6_000)


@pytest.fixture(scope="module")
def multipred_scenario():
    return make_multipred_scenario("synthetic", seed=5, size=6_000)


def pipeline_factory(family, scenario, multipred_scenario, config):
    """A zero-argument builder of a fresh pipeline of the given family.

    Fresh oracle per call, so accounting starts at zero for both the solo
    baseline and every scheduled copy.
    """
    sc = scenario
    if family == "two_stage":
        return lambda: two_stage_pipeline(
            sc.proxy,
            sc.make_oracle(),
            sc.statistic_values,
            budget=320,
            with_ci=True,
            num_bootstrap=20,
            config=config,
        )
    if family == "uniform":
        return lambda: uniform_pipeline(
            sc.num_records,
            sc.make_oracle(),
            sc.statistic_values,
            budget=240,
            with_ci=True,
            num_bootstrap=20,
            config=config,
        )
    if family == "sequential":
        return lambda: sequential_pipeline(
            sc.proxy,
            sc.make_oracle(),
            sc.statistic_values,
            budget=260,
            config=config,
        )
    if family == "until_width":
        return lambda: until_width_pipeline(
            sc.proxy,
            sc.make_oracle(),
            sc.statistic_values,
            target_width=0.7,
            max_budget=320,
            num_bootstrap=40,
            config=config,
        )
    if family == "multipred":
        mp = multipred_scenario

        def build():
            leaves = [
                PredicateLeaf(mp.proxies[n], mp.make_oracle(n), name=n)
                for n in mp.predicate_names
            ]
            return multipred_pipeline(
                Or([And(leaves), Not(leaves[0])]),
                mp.statistic_values,
                budget=280,
                config=config,
            )

        return build
    raise ValueError(family)


FAMILIES = ("two_stage", "uniform", "sequential", "until_width", "multipred")


def assert_scheduled_matches_solo(
    factory,
    *,
    base_seed,
    concurrency,
    interleaving,
    scheduler_seed=0,
):
    """Schedule ``concurrency`` copies (distinct seeds); each must equal solo."""
    seeds = [base_seed + 1000 * i for i in range(concurrency)]
    scheduled = scheduled_fingerprints(
        [factory] * concurrency,
        seeds,
        interleaving=interleaving,
        scheduler_seed=scheduler_seed,
    )
    for seed, digest in zip(seeds, scheduled):
        assert digest == solo_fingerprint(factory(), seed), (
            f"seed {seed} diverged under {interleaving} interleaving "
            f"at concurrency {concurrency}"
        )
    if concurrency > 1:
        # Distinct seeds must give distinct work — guards against a
        # degenerate factory that ignores its session RNG.
        assert len({d for d in scheduled}) > 1


class TestScheduledParityFast:
    """Tier-1: reduced grids, concurrency 1 and 8."""

    @pytest.mark.parametrize("config", FAST_CONFIGS, ids=["serial", "per_record"])
    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    @pytest.mark.parametrize("concurrency", (1, 8))
    def test_two_stage_grid(
        self, scenario, multipred_scenario, config, interleaving, concurrency
    ):
        factory = pipeline_factory("two_stage", scenario, multipred_scenario, config)
        assert_scheduled_matches_solo(
            factory,
            base_seed=0,
            concurrency=concurrency,
            interleaving=interleaving,
        )

    @pytest.mark.parametrize(
        "family", [f for f in FAMILIES if f != "two_stage"]
    )
    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_other_families(
        self, scenario, multipred_scenario, family, interleaving
    ):
        factory = pipeline_factory(
            family, scenario, multipred_scenario, FAST_CONFIGS[0]
        )
        assert_scheduled_matches_solo(
            factory,
            base_seed=7,
            concurrency=8,
            interleaving=interleaving,
        )

    def test_mixed_families_one_scheduler(self, scenario, multipred_scenario):
        """All five pipeline families interleaved in one scheduler."""
        factories = [
            pipeline_factory(f, scenario, multipred_scenario, FAST_CONFIGS[0])
            for f in FAMILIES
        ]
        seeds = [13 + i for i in range(len(factories))]
        scheduled = scheduled_fingerprints(
            factories, seeds, interleaving="random", scheduler_seed=3
        )
        for factory, seed, digest in zip(factories, seeds, scheduled):
            assert digest == solo_fingerprint(factory(), seed)

    def test_scheduler_seed_is_irrelevant_to_results(
        self, scenario, multipred_scenario
    ):
        """Different scheduler randomness, same per-query fingerprints."""
        factory = pipeline_factory(
            "two_stage", scenario, multipred_scenario, FAST_CONFIGS[0]
        )
        seeds = [50 + i for i in range(4)]
        runs = [
            scheduled_fingerprints(
                [factory] * 4,
                seeds,
                interleaving="random",
                scheduler_seed=scheduler_seed,
            )
            for scheduler_seed in (0, 1, 99)
        ]
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.slow
class TestScheduledParityWide:
    """Tier-2: spawn-key seeds, full config grid, 32 concurrent queries."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_full_grid(self, scenario, multipred_scenario, family, interleaving):
        for base_seed in WIDE_GRID_SEEDS:
            for config in WIDE_CONFIGS:
                factory = pipeline_factory(
                    family, scenario, multipred_scenario, config
                )
                assert_scheduled_matches_solo(
                    factory,
                    base_seed=base_seed,
                    concurrency=8,
                    interleaving=interleaving,
                    scheduler_seed=base_seed % 7,
                )

    @pytest.mark.parametrize("interleaving", INTERLEAVINGS)
    def test_32_concurrent(self, scenario, multipred_scenario, interleaving):
        factory = pipeline_factory(
            "two_stage", scenario, multipred_scenario, FAST_CONFIGS[0]
        )
        assert_scheduled_matches_solo(
            factory,
            base_seed=WIDE_GRID_SEEDS[0],
            concurrency=32,
            interleaving=interleaving,
        )
