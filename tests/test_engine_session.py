"""SamplingSession: streaming, checkpoint/resume and one-shot parity.

The engine's contract for sessions is exact: driving a session with
``step()`` until completion performs the same draws against the same
random stream as the legacy one-shot ``run_*`` entry points, for every
``(seed, batch_size)`` cell of the equivalence grid.  These
tests pin that contract with the same fingerprints ``tests/harness.py``
uses everywhere else, plus the new capabilities the monoliths could not
express: streaming partial estimates, budget top-ups, and byte-level
checkpoint/resume into a fresh pipeline.
"""

import warnings

import pytest

from harness import estimate_fingerprint
from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.multipred import And, PredicateLeaf, run_abae_multipred
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine import (
    ExecutionConfig,
    multipred_pipeline,
    sequential_pipeline,
    two_stage_pipeline,
    uniform_pipeline,
    until_width_pipeline,
)
from repro.stats.rng import RandomState
from repro.synth import make_dataset, make_multipred_scenario

SEEDS = (0, 1)
BATCH_SIZES = (1, 7, None)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=8000)


@pytest.fixture(scope="module")
def mp_scenario():
    return make_multipred_scenario("synthetic", seed=2, size=8000)


def drive(session):
    """Step a session to completion one unit at a time."""
    steps = 0
    while session.step():
        steps += 1
    assert steps > 0
    return session.result()


def assert_session_matches_one_shot(legacy_cell, session_cell):
    """One-shot vs step()-driven fingerprints across the harness grid."""
    fingerprints = {}
    for seed in SEEDS:
        cells = []
        for batch_size in BATCH_SIZES:
            config = ExecutionConfig(batch_size=batch_size)
            one_shot = estimate_fingerprint(legacy_cell(seed, config))
            stepped = estimate_fingerprint(drive(session_cell(seed, config)))
            assert one_shot == stepped, (
                f"session diverged from one-shot at seed={seed}, "
                f"batch_size={batch_size}"
            )
            cells.append(one_shot)
        assert len(set(cells)) == 1, f"knob grid diverged for seed {seed}"
        fingerprints[seed] = cells[0]
    # Seed-sensitivity guard: a constant runner would pass vacuously.
    assert len(set(fingerprints.values())) == len(SEEDS)


class TestSessionOneShotParity:
    def test_two_stage(self, scenario):
        def legacy(seed, config):
            return run_abae(
                scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
                budget=900, with_ci=True, num_bootstrap=40,
                rng=RandomState(seed), config=config,
            )

        def session(seed, config):
            return two_stage_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=900,
                with_ci=True, num_bootstrap=40, config=config,
            ).session(RandomState(seed))

        assert_session_matches_one_shot(legacy, session)

    def test_uniform(self, scenario):
        def legacy(seed, config):
            return run_uniform(
                scenario.num_records, scenario.make_oracle(),
                scenario.statistic_values, budget=400, with_ci=True,
                num_bootstrap=40, rng=RandomState(seed), config=config,
            )

        def session(seed, config):
            return uniform_pipeline(
                num_records=scenario.num_records, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=400,
                with_ci=True, num_bootstrap=40, config=config,
            ).session(RandomState(seed))

        assert_session_matches_one_shot(legacy, session)

    def test_sequential(self, scenario):
        def legacy(seed, config):
            return run_abae_sequential(
                scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
                budget=600, warmup_per_stratum=10, batch_size=50,
                with_ci=True, num_bootstrap=40, rng=RandomState(seed),
                config=config,
            )

        def session(seed, config):
            return sequential_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=600,
                warmup_per_stratum=10, reallocation_batch=50,
                with_ci=True, num_bootstrap=40, config=config,
            ).session(RandomState(seed))

        assert_session_matches_one_shot(legacy, session)

    def test_until_width(self, scenario):
        def legacy(seed, config):
            return run_abae_until_width(
                scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
                target_width=0.4, max_budget=700, batch_size=150,
                num_bootstrap=40, rng=RandomState(seed), config=config,
            )

        def session(seed, config):
            return until_width_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, target_width=0.4,
                max_budget=700, reallocation_batch=150, num_bootstrap=40,
                config=config,
            ).session(RandomState(seed))

        assert_session_matches_one_shot(legacy, session)

    def test_multipred(self, mp_scenario):
        def expression():
            return And(
                [
                    PredicateLeaf(
                        mp_scenario.proxies[n], mp_scenario.make_oracle(n), name=n
                    )
                    for n in mp_scenario.predicate_names
                ]
            )

        def legacy(seed, config):
            return run_abae_multipred(
                expression(), mp_scenario.statistic_values, budget=500,
                with_ci=True, num_bootstrap=40, rng=RandomState(seed),
                config=config,
            )

        def session(seed, config):
            return multipred_pipeline(
                expression(), mp_scenario.statistic_values, budget=500,
                with_ci=True, num_bootstrap=40, config=config,
            ).session(RandomState(seed))

        assert_session_matches_one_shot(legacy, session)

    def test_facade_sessions(self, scenario):
        ref = ABae(
            scenario.proxy, scenario.make_oracle(), scenario.statistic_values
        ).estimate(budget=500, rng=RandomState(9), with_ci=True, num_bootstrap=30)
        stepped = drive(
            ABae(
                scenario.proxy, scenario.make_oracle(), scenario.statistic_values
            ).session(budget=500, rng=RandomState(9), with_ci=True, num_bootstrap=30)
        )
        assert estimate_fingerprint(ref) == estimate_fingerprint(stepped)

        uref = UniformSampler(
            scenario.num_records, scenario.make_oracle(), scenario.statistic_values
        ).estimate(budget=300, rng=RandomState(9))
        ustepped = drive(
            UniformSampler(
                scenario.num_records, scenario.make_oracle(),
                scenario.statistic_values,
            ).session(budget=300, rng=RandomState(9))
        )
        assert estimate_fingerprint(uref) == estimate_fingerprint(ustepped)


class TestStreaming:
    def test_partial_estimates_do_not_perturb_the_run(self, scenario):
        def run_session(observe):
            session = two_stage_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=600,
                with_ci=True, num_bootstrap=30,
            ).session(RandomState(4))
            while session.step():
                if observe:
                    session.partial_estimate()
            return session.result()

        unobserved = run_session(observe=False)
        observed = run_session(observe=True)
        assert estimate_fingerprint(unobserved) == estimate_fingerprint(observed)

    def test_partial_estimate_converges_to_final(self, scenario):
        session = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=600,
        ).session(RandomState(4))
        partials = []
        while session.step():
            partial = session.partial_estimate()
            assert partial.details["partial"] is True
            assert partial.oracle_calls == session.spent
            partials.append(partial.estimate)
        final = session.result()
        assert partials[-1] == final.estimate
        # Spending accumulates monotonically through the stream.
        assert session.spent == final.oracle_calls == 600

    def test_result_requires_completion(self, scenario):
        session = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=200,
        ).session(RandomState(0))
        session.step()
        with pytest.raises(RuntimeError, match="not finished"):
            session.result()

    def test_pipeline_is_single_use(self, scenario):
        pipeline = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=100,
        )
        pipeline.session(RandomState(0))
        with pytest.raises(RuntimeError, match="single-use"):
            pipeline.session(RandomState(1))


class TestCheckpointResume:
    @pytest.mark.parametrize("steps_before_checkpoint", [1, 3, 8])
    def test_resume_reproduces_uninterrupted_run(
        self, scenario, steps_before_checkpoint
    ):
        def pipeline():
            return two_stage_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=600,
                with_ci=True, num_bootstrap=30,
            )

        full = pipeline().session(RandomState(6))
        reference = drive(full)

        interrupted = pipeline().session(RandomState(6))
        for _ in range(steps_before_checkpoint):
            interrupted.step()
        blob = interrupted.checkpoint()
        assert isinstance(blob, bytes)

        # Resume in a brand-new pipeline with a brand-new oracle: only the
        # checkpointed state (samples, pool, RNG, policy) carries over.
        resumed = pipeline().resume(blob)
        assert estimate_fingerprint(drive(resumed)) == estimate_fingerprint(
            reference
        )

    def test_resume_until_width(self, scenario):
        def pipeline():
            return until_width_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, target_width=0.4,
                max_budget=600, reallocation_batch=150, num_bootstrap=30,
            )

        reference = drive(pipeline().session(RandomState(3)))
        interrupted = pipeline().session(RandomState(3))
        for _ in range(7):
            interrupted.step()
        resumed = pipeline().resume(interrupted.checkpoint())
        assert estimate_fingerprint(drive(resumed)) == estimate_fingerprint(
            reference
        )

    def test_checkpoint_after_finalize_preserves_ci(self, scenario):
        # finalize()'s bootstrap consumes the RNG; a checkpoint taken
        # after result() must carry the CI so a resumed session returns
        # the same interval instead of re-bootstrapping from the
        # advanced stream.
        def pipeline():
            return two_stage_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=400,
                with_ci=True, num_bootstrap=30,
            )

        finished = pipeline().session(RandomState(8))
        reference = finished.run()
        resumed = pipeline().resume(finished.checkpoint())
        assert estimate_fingerprint(resumed.run()) == estimate_fingerprint(
            reference
        )

    def test_stale_checkpoint_version_rejected(self, scenario):
        import pickle

        session = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=100,
        ).session(RandomState(0))
        payload = pickle.loads(session.checkpoint())
        payload["version"] = 999
        fresh = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=100,
        )
        with pytest.raises(ValueError, match="checkpoint version"):
            fresh.resume(pickle.dumps(payload))


class TestCheckpointStructuralValidation:
    """A checkpoint must refuse to resume on a structurally different run.

    Before the CheckpointError guard, a two-stage checkpoint restored
    into (say) a uniform pipeline, or into a pipeline stratified with a
    different K or over a different dataset, silently continued sampling
    into corrupt state — wrong strata, wrong policy, wrong estimator.
    """

    def checkpoint(self, scenario, num_strata=5, steps=3):
        session = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400,
            num_strata=num_strata,
        ).session(RandomState(0))
        for _ in range(steps):
            session.step()
        return session.checkpoint()

    def test_checkpoint_error_is_exported_and_a_value_error(self):
        from repro.engine import CheckpointError

        assert issubclass(CheckpointError, ValueError)

    def test_version_mismatch_is_a_checkpoint_error(self, scenario):
        import pickle

        from repro.engine import CheckpointError

        payload = pickle.loads(self.checkpoint(scenario))
        payload["version"] = 1
        fresh = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400,
        )
        with pytest.raises(CheckpointError, match="checkpoint version"):
            fresh.resume(pickle.dumps(payload))

    def test_policy_class_mismatch_rejected(self, scenario):
        from repro.engine import CheckpointError
        from repro.engine.builders import uniform_pipeline

        blob = self.checkpoint(scenario)
        mismatched = uniform_pipeline(
            scenario.num_records, scenario.make_oracle(),
            scenario.statistic_values, budget=400,
        )
        with pytest.raises(CheckpointError, match="policy"):
            mismatched.resume(blob)

    def test_estimator_class_mismatch_rejected(self, scenario):
        import pickle

        from repro.engine import CheckpointError
        from repro.engine.pipeline import StratifiedEstimator

        payload = pickle.loads(self.checkpoint(scenario))
        payload["estimator"] = StratifiedEstimator()
        payload["shape"]["estimator_class"] = (
            "repro.engine.pipeline.StratifiedEstimator"
        )
        fresh = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400,
        )
        with pytest.raises(CheckpointError, match="estimator"):
            fresh.resume(pickle.dumps(payload))

    def test_stratum_count_mismatch_rejected(self, scenario):
        from repro.engine import CheckpointError

        blob = self.checkpoint(scenario, num_strata=5)
        mismatched = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400, num_strata=4,
        )
        with pytest.raises(CheckpointError, match="strata"):
            mismatched.resume(blob)

    def test_dataset_size_mismatch_rejected(self, scenario):
        from repro.engine import CheckpointError
        from repro.synth import make_dataset

        blob = self.checkpoint(scenario)
        other = make_dataset("synthetic", seed=0, size=scenario.num_records // 2)
        mismatched = two_stage_pipeline(
            proxy=other.proxy, oracle=other.make_oracle(),
            statistic=other.statistic_values, budget=400,
        )
        with pytest.raises(CheckpointError, match="records"):
            mismatched.resume(blob)

    def test_matching_pipeline_still_resumes(self, scenario):
        blob = self.checkpoint(scenario)
        fresh = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400,
        )
        resumed = fresh.resume(blob)
        result = drive(resumed)
        assert result.oracle_calls == 400


class TestCheckpointByteHardening:
    """Corrupt checkpoint *bytes* must fail as CheckpointError, not leak.

    Checkpoints now live in crash artifacts — journal frames, torn files
    (docs/RESILIENCE.md) — so ``resume`` sees truncated and garbage byte
    strings, not just structurally-wrong payloads.  Every such input must
    surface as :class:`CheckpointError` with the byte length and the
    decoder's own error in the message, never a raw ``pickle``/``EOFError``
    from deep inside the unpickling machinery.
    """

    def fresh(self, scenario):
        return two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400,
        )

    def good_checkpoint(self, scenario, steps=3):
        session = self.fresh(scenario).session(RandomState(0))
        for _ in range(steps):
            session.step()
        return session.checkpoint()

    @pytest.mark.parametrize("cut_fraction", [0.0, 0.3, 0.9])
    def test_truncated_bytes(self, scenario, cut_fraction):
        from repro.engine import CheckpointError

        blob = self.good_checkpoint(scenario)
        truncated = blob[: int(len(blob) * cut_fraction)]
        with pytest.raises(CheckpointError, match="corrupt checkpoint") as info:
            self.fresh(scenario).resume(truncated)
        # The message carries byte-offset context for the operator.
        assert f"{len(truncated)} byte(s)" in str(info.value)

    def test_garbage_bytes(self, scenario):
        from repro.engine import CheckpointError

        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            self.fresh(scenario).resume(b"\x00\xde\xad\xbe\xef" * 7)

    def test_non_bytes_rejected(self, scenario):
        from repro.engine import CheckpointError

        with pytest.raises(CheckpointError, match="must be bytes"):
            self.fresh(scenario).resume({"version": 2})

    def test_pickled_non_dict_rejected(self, scenario):
        import pickle

        from repro.engine import CheckpointError

        with pytest.raises(CheckpointError, match="expected a payload dict"):
            self.fresh(scenario).resume(pickle.dumps([1, 2, 3]))

    def test_missing_payload_keys_rejected(self, scenario):
        import pickle

        from repro.engine import CheckpointError

        payload = pickle.loads(self.good_checkpoint(scenario))
        del payload["pending"], payload["done"]
        with pytest.raises(CheckpointError, match="missing key") as info:
            self.fresh(scenario).resume(pickle.dumps(payload))
        assert "pending" in str(info.value) and "done" in str(info.value)

    def test_missing_state_keys_rejected(self, scenario):
        import pickle

        from repro.engine import CheckpointError

        payload = pickle.loads(self.good_checkpoint(scenario))
        del payload["state"]["rng"]
        with pytest.raises(CheckpointError, match="state block is missing"):
            self.fresh(scenario).resume(pickle.dumps(payload))

    def test_intact_bytes_still_resume(self, scenario):
        blob = self.good_checkpoint(scenario)
        result = drive(self.fresh(scenario).resume(blob))
        assert result.oracle_calls == 400


class TestBudgetTopUp:
    def test_two_stage_top_up_spends_exactly_the_extra(self, scenario):
        session = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=400,
        ).session(RandomState(1))
        first = session.run()
        assert first.oracle_calls == 400
        session.add_budget(200)
        assert not session.done
        second = session.run()
        assert second.oracle_calls == 600
        assert session.budget == 600

    def test_uniform_top_up(self, scenario):
        session = uniform_pipeline(
            num_records=scenario.num_records, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=200,
        ).session(RandomState(1))
        session.run()
        session.add_budget(150)
        result = session.run()
        assert result.oracle_calls == 350

    def test_sequential_top_up(self, scenario):
        session = sequential_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=300,
            warmup_per_stratum=10, reallocation_batch=50,
        ).session(RandomState(1))
        session.run()
        session.add_budget(100)
        result = session.run()
        assert result.oracle_calls == 400

    def test_top_up_validation(self, scenario):
        session = two_stage_pipeline(
            proxy=scenario.proxy, oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values, budget=100,
        ).session(RandomState(0))
        session.run()
        with pytest.raises(ValueError, match="extra budget"):
            session.add_budget(0)


class TestNoInternalDeprecationWarnings:
    def test_session_paths_never_warn(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            drive(
                two_stage_pipeline(
                    proxy=scenario.proxy, oracle=scenario.make_oracle(),
                    statistic=scenario.statistic_values, budget=200,
                    config=ExecutionConfig(batch_size=16),
                ).session(RandomState(0))
            )
