"""Tests for checkpoint policies and the notice-deadline failure path."""

import math

import pytest

from repro.cloud.instance import get_instance_type
from repro.core.checkpoint_policy import (
    NoticeOnlyPolicy,
    PeriodicPolicy,
    PolicyContext,
    PredictionBasedPolicy,
    policy_from_spec,
)
from repro.core.config import SpotTuneConfig
from repro.core.orchestrator import SpotTuneOrchestrator
from repro.market.dataset import generate_default_dataset
from repro.revpred.predictor import ConstantPredictor, OraclePredictor
from repro.sim.clock import DAY
from repro.workloads.catalog import get_workload
from repro.workloads.spec import HyperParameterGrid, WorkloadSpec
from repro.workloads.trial import make_trials

R4L = get_instance_type("r4.large")
START = 9 * DAY


def make_context(now=1000.0, last_checkpoint=0.0, steps_since=50.0, vm_age=500.0):
    return PolicyContext(
        now=now,
        vm_instance=R4L,
        vm_age=vm_age,
        vm_max_price=0.1,
        last_checkpoint_time=last_checkpoint,
        steps_since_checkpoint=steps_since,
    )


class TestPolicies:
    def test_notice_only_never_fires(self):
        assert not NoticeOnlyPolicy().should_checkpoint(make_context())

    def test_periodic_fires_after_interval(self):
        policy = PeriodicPolicy(interval=600.0)
        # VM started at t=200 (age 800), last durable checkpoint at 300.
        assert policy.should_checkpoint(
            make_context(now=1000.0, last_checkpoint=300.0, vm_age=800.0)
        )
        assert not policy.should_checkpoint(
            make_context(now=1000.0, last_checkpoint=500.0, vm_age=800.0)
        )

    def test_periodic_counts_from_vm_start_when_never_checkpointed(self):
        policy = PeriodicPolicy(interval=600.0)
        # VM is 500 s old, never checkpointed: not yet due.
        context = make_context(
            now=1000.0, last_checkpoint=float("-inf"), vm_age=500.0
        )
        assert not policy.should_checkpoint(context)
        context = make_context(
            now=1000.0, last_checkpoint=float("-inf"), vm_age=700.0
        )
        assert policy.should_checkpoint(context)

    def test_periodic_skips_without_new_steps(self):
        policy = PeriodicPolicy(interval=600.0)
        assert not policy.should_checkpoint(
            make_context(last_checkpoint=0.0, steps_since=0.0)
        )

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            PeriodicPolicy(interval=0.0)

    def test_prediction_based_fires_on_risk(self):
        risky = PredictionBasedPolicy(predictor=ConstantPredictor(0.9), threshold=0.5)
        safe = PredictionBasedPolicy(predictor=ConstantPredictor(0.1), threshold=0.5)
        assert risky.should_checkpoint(make_context())
        assert not safe.should_checkpoint(make_context())

    def test_prediction_based_respects_min_interval(self):
        policy = PredictionBasedPolicy(
            predictor=ConstantPredictor(0.9), threshold=0.5, min_interval=600.0
        )
        assert not policy.should_checkpoint(
            make_context(now=1000.0, last_checkpoint=900.0)
        )

    def test_policies_state_their_next_checkpoint(self):
        never = -math.inf
        assert NoticeOnlyPolicy().next_checkpoint_time(never, 50.0) == math.inf
        assert PeriodicPolicy(600.0).next_checkpoint_time(never, 50.0) == 650.0
        assert PeriodicPolicy(600.0).next_checkpoint_time(400.0, 50.0) == 1000.0
        predictive = PredictionBasedPolicy(predictor=ConstantPredictor(0.9))
        assert predictive.next_checkpoint_time(never, 50.0) is None

        class Eager(PeriodicPolicy):
            def should_checkpoint(self, context):
                return True

        # Overrides the check without restating the time: unknown.
        assert Eager(600.0).next_checkpoint_time(never, 50.0) is None

    def test_prediction_based_validation(self):
        with pytest.raises(ValueError, match="predictor"):
            PredictionBasedPolicy()
        with pytest.raises(ValueError):
            PredictionBasedPolicy(predictor=ConstantPredictor(0.5), threshold=1.5)


def huge_model_workload() -> WorkloadSpec:
    """A model too large to save inside the two-minute notice window on
    any pool instance (max ~15.7 GB on m4.4xlarge).  Long enough
    (1200 steps, ~8 simulated hours) that jobs live through turbulent
    market periods and meet real revocations."""
    return WorkloadSpec(
        name="HugeNet",
        algorithm="Huge Network",
        metric="cross_entropy",
        grid=HyperParameterGrid({"bs": (64,), "lr": (1e-2, 1e-3)}),
        max_trial_steps=1200,
        base_seconds_per_step=30.0,
        model_size_mb=20_000.0,
        curve_family="single",
    )


class TestNoticeDeadline:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_default_dataset(seed=0, days=12)

    def run(self, dataset, workload, policy=None, volatile_only=False, theta=0.7):
        if volatile_only:
            # Pin to the most revocation-heavy market so notice-window
            # checkpoint failures happen often enough to compare.
            pool = (get_instance_type("r3.xlarge"),)
            config = SpotTuneConfig(theta=theta, seed=0, instance_pool=pool)
        else:
            config = SpotTuneConfig(theta=theta, seed=0)
        orchestrator = SpotTuneOrchestrator(
            workload,
            make_trials(workload, seed=0),
            dataset,
            OraclePredictor(dataset),
            config,
            start_time=START,
            checkpoint_policy=policy,
        )
        return orchestrator.run()

    def test_oversized_model_fails_notice_checkpoints(self, dataset):
        # theta=1.0 keeps every job running its full 400 steps (hours of
        # exposure on the volatile market) with plateau exits disabled.
        result = self.run(dataset, huge_model_workload(), volatile_only=True, theta=1.0)
        failed = sum(job.failed_checkpoints for job in result.jobs.values())
        lost = sum(job.lost_steps for job in result.jobs.values())
        assert failed > 0, "notice-window saves of a 20 GB model must fail"
        assert lost > 0
        # Jobs still complete through the hourly checkpoints.
        for job in result.jobs.values():
            assert job.steps_completed == pytest.approx(1200, abs=1)

    def test_periodic_policy_bounds_progress_loss(self, dataset):
        workload = huge_model_workload()
        notice_only = self.run(dataset, workload, volatile_only=True, theta=1.0)
        periodic = self.run(
            dataset,
            workload,
            policy=PeriodicPolicy(interval=600.0),
            volatile_only=True,
            theta=1.0,
        )
        lost_notice = sum(job.lost_steps for job in notice_only.jobs.values())
        lost_periodic = sum(job.lost_steps for job in periodic.jobs.values())
        assert lost_notice > 0
        assert lost_periodic < lost_notice

    def test_normal_models_never_fail_checkpoints(self, dataset):
        result = self.run(dataset, get_workload("LiR"))
        assert all(job.failed_checkpoints == 0 for job in result.jobs.values())


class TestPolicyFromSpec:
    def test_notice_spellings(self):
        assert isinstance(policy_from_spec("notice"), NoticeOnlyPolicy)
        assert isinstance(policy_from_spec("notice-only"), NoticeOnlyPolicy)

    def test_periodic_with_interval(self):
        policy = policy_from_spec("periodic:600")
        assert isinstance(policy, PeriodicPolicy)
        assert policy.interval == 600.0

    def test_periodic_default_interval(self):
        assert policy_from_spec("periodic").interval == PeriodicPolicy().interval

    def test_prediction_with_arguments(self):
        predictor = ConstantPredictor(0.9)
        policy = policy_from_spec("prediction:0.4:120", predictor=predictor)
        assert isinstance(policy, PredictionBasedPolicy)
        assert policy.threshold == 0.4
        assert policy.min_interval == 120.0
        assert policy.predictor is predictor

    def test_prediction_needs_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            policy_from_spec("prediction:0.4")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown checkpoint policy"):
            policy_from_spec("hourly")

    def test_extra_arguments_rejected(self):
        with pytest.raises(ValueError, match="unknown checkpoint policy"):
            policy_from_spec("periodic:600:900")

    def test_value_ranges_validated_up_front(self):
        from repro.core.checkpoint_policy import validate_policy_spec

        with pytest.raises(ValueError):
            validate_policy_spec("periodic:-5")
        with pytest.raises(ValueError):
            validate_policy_spec("prediction:1.5")
        validate_policy_spec("prediction:0.5:300")  # valid without a predictor
