"""Integration tests for the SpotTune orchestrator (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.orchestrator as orchestrator_module
from repro.core.accounting import RunResult
from repro.core.baselines import run_single_spot
from repro.core.checkpoint_policy import policy_from_spec
from repro.core.config import SpotTuneConfig
from repro.core.orchestrator import SpotTuneOrchestrator
from repro.market.dataset import SpotPriceDataset, generate_default_dataset
from repro.market.trace import HOUR, PriceTrace
from repro.revpred.predictor import ConstantPredictor, OraclePredictor
from repro.sim.clock import DAY
from repro.workloads.catalog import get_workload
from repro.workloads.trial import make_trials

START = 9 * DAY


@pytest.fixture(scope="module")
def dataset():
    return generate_default_dataset(seed=0, days=12)


@pytest.fixture(scope="module")
def lor_trials():
    return make_trials(get_workload("LoR"), seed=0)


@pytest.fixture(scope="module")
def oracle_run(dataset, lor_trials):
    orchestrator = SpotTuneOrchestrator(
        get_workload("LoR"),
        lor_trials,
        dataset,
        OraclePredictor(dataset),
        SpotTuneConfig(theta=0.7, seed=0),
        start_time=START,
    )
    return orchestrator.run()


class TestRunCompletion:
    def test_all_jobs_finish(self, oracle_run, lor_trials):
        assert len(oracle_run.jobs) == len(lor_trials)
        for record in oracle_run.jobs.values():
            assert record.finished_at is not None

    def test_jobs_stop_at_theta_cutoff(self, oracle_run):
        for record in oracle_run.jobs.values():
            assert record.steps_completed <= 0.7 * 1000 + 1e-6
            if record.finish_mode == "theta_reached":
                assert record.steps_completed == pytest.approx(700, abs=1)

    def test_selected_has_mcnt_entries(self, oracle_run):
        assert len(oracle_run.selected) == 3

    def test_predictions_cover_all_jobs(self, oracle_run):
        assert set(oracle_run.predictions) == set(oracle_run.jobs)

    def test_jct_positive_and_consistent(self, oracle_run):
        finishes = [record.finished_at for record in oracle_run.jobs.values()]
        assert oracle_run.jct == pytest.approx(max(finishes) - START)

    def test_deterministic_given_seed(self, dataset, lor_trials):
        def run():
            return SpotTuneOrchestrator(
                get_workload("LoR"),
                lor_trials,
                dataset,
                OraclePredictor(dataset),
                SpotTuneConfig(theta=0.5, seed=7),
                start_time=START,
            ).run()

        a, b = run(), run()
        assert a.total_paid == b.total_paid
        assert a.jct == b.jct
        assert a.selected == b.selected


class TestEconomics:
    def test_refunds_collected(self, oracle_run):
        # Volatile markets + oracle predictor: refund farming must work.
        assert oracle_run.total_refunded > 0.0
        assert oracle_run.free_steps > 0.0

    def test_free_plus_charged_covers_surviving_steps(self, oracle_run):
        for record in oracle_run.jobs.values():
            surviving = record.free_steps + record.charged_steps
            assert surviving == pytest.approx(record.steps_completed, abs=1e-6)

    def test_cheaper_than_single_spot_baselines(
        self, oracle_run, dataset, lor_trials
    ):
        # The paper's headline: SpotTune undercuts both baselines.
        cheapest = run_single_spot(
            get_workload("LoR"), lor_trials, dataset, "r4.large", start_time=START
        )
        fastest = run_single_spot(
            get_workload("LoR"), lor_trials, dataset, "m4.4xlarge", start_time=START
        )
        assert oracle_run.total_paid < cheapest.total_paid
        assert oracle_run.total_paid < fastest.total_paid

    def test_jct_between_baselines(self, oracle_run, dataset, lor_trials):
        cheapest = run_single_spot(
            get_workload("LoR"), lor_trials, dataset, "r4.large", start_time=START
        )
        fastest = run_single_spot(
            get_workload("LoR"), lor_trials, dataset, "m4.4xlarge", start_time=START
        )
        assert fastest.jct < oracle_run.jct < cheapest.jct

    def test_overhead_fraction_small(self, oracle_run):
        # Fig. 12: checkpoint-restore under ~10% of wall time.
        assert oracle_run.overhead_fraction < 0.10

    def test_vms_recycled_hourly(self, oracle_run):
        # With multi-hour jobs and one-hour recycling, jobs must have
        # been deployed on several VMs.
        deployments = [record.num_deployments for record in oracle_run.jobs.values()]
        assert max(deployments) >= 3

    def test_segment_durations_bounded_by_reschedule(self, oracle_run):
        for record in oracle_run.jobs.values():
            for segment in record.segments:
                if segment.end is not None:
                    # One hour plus polling slack.
                    assert segment.end - segment.start <= 3600.0 + 30.0


class TestSelectionQuality:
    def test_top3_contains_true_best(self, oracle_run, lor_trials):
        truth = {trial.trial_id: trial.true_final() for trial in lor_trials}
        assert oracle_run.top_k_hit(truth, 3)

    def test_true_finals_recorded(self, oracle_run):
        for record in oracle_run.jobs.values():
            assert record.true_final is not None


class TestThetaOne:
    def test_full_training_no_early_shutdown(self, dataset, lor_trials):
        result = SpotTuneOrchestrator(
            get_workload("LoR"),
            lor_trials,
            dataset,
            OraclePredictor(dataset),
            SpotTuneConfig(theta=1.0, seed=0),
            start_time=START,
        ).run()
        for record in result.jobs.values():
            assert record.steps_completed == pytest.approx(1000, abs=1)
            assert record.finish_mode in ("theta_reached", "cutoff")


class TestContinuation:
    def test_continue_top_trains_selected_to_completion(self, dataset, lor_trials):
        orchestrator = SpotTuneOrchestrator(
            get_workload("LoR"),
            lor_trials,
            dataset,
            OraclePredictor(dataset),
            SpotTuneConfig(theta=0.5, seed=0),
            start_time=START,
        )
        result = orchestrator.run(continue_top=True)
        assert result.continuation_jct > 0.0
        for trial_id in result.selected:
            assert result.jobs[trial_id].steps_completed == pytest.approx(1000, abs=1)
        # Non-selected jobs stay at the theta cutoff.
        for trial_id, record in result.jobs.items():
            if trial_id not in result.selected:
                assert record.steps_completed <= 500 + 1e-6


class TestFaultTolerance:
    def test_progress_survives_interruptions(self, dataset):
        # Run on the most volatile market only: jobs get revoked a lot
        # but still complete all steps through checkpoints.
        workload = get_workload("LiR")
        trials = make_trials(workload, seed=1)[:4]
        pool = tuple(
            instance
            for instance in SpotTuneConfig().instance_pool
            if instance.name == "r3.xlarge"
        )
        result = SpotTuneOrchestrator(
            workload,
            trials,
            dataset,
            OraclePredictor(dataset),
            SpotTuneConfig(theta=0.7, seed=0, instance_pool=pool),
            start_time=START,
        ).run()
        for record in result.jobs.values():
            assert record.steps_completed == pytest.approx(700, abs=1)

    def test_stuck_run_raises(self, dataset, lor_trials, monkeypatch):
        # A run that outlives the simulated-time ceiling must fail
        # loudly, at the first poll tick past the deadline: a run of
        # skipped quiet ticks never crosses it.
        monkeypatch.setattr(orchestrator_module, "MAX_SIMULATED_SECONDS", 3000.0)
        orchestrator = SpotTuneOrchestrator(
            get_workload("LoR"),
            lor_trials[:4],
            dataset,
            OraclePredictor(dataset),
            SpotTuneConfig(theta=0.7, seed=0),
            start_time=START,
        )
        with pytest.raises(RuntimeError, match="appears stuck"):
            orchestrator.run()
        assert orchestrator.sim.now == START + 3010.0


class TestQuietTicks:
    def test_notice_run_polls_few_of_its_ticks(self, dataset, lor_trials, monkeypatch):
        """Quiet ticks are replayed in bulk: a notice-policy oracle run
        passes through the per-tick job dispatch on few of the ticks it
        simulates."""
        polled = set()
        poll_job = SpotTuneOrchestrator._poll_job

        def recording_poll_job(self, job, now):
            polled.add(now)
            poll_job(self, job, now)

        monkeypatch.setattr(SpotTuneOrchestrator, "_poll_job", recording_poll_job)
        orchestrator = SpotTuneOrchestrator(
            get_workload("LoR"),
            lor_trials,
            dataset,
            OraclePredictor(dataset),
            SpotTuneConfig(theta=0.7, seed=0),
            start_time=START,
        )
        orchestrator.run()
        simulated = round((orchestrator.sim.now - START) / 10.0)
        assert simulated > 1000
        assert len(polled) * 5 < simulated


class TestAccountingInvariants:
    """Conservation properties of a run's accounting, over random small
    cells (a few trials of one workload)."""

    @staticmethod
    def _run(dataset, workload, trials, theta, predictor, policy, refund_enabled=True):
        orchestrator = SpotTuneOrchestrator(
            get_workload(workload),
            trials,
            dataset,
            predictor,
            SpotTuneConfig(theta=theta, seed=0),
            start_time=START,
            checkpoint_policy=policy_from_spec(policy, predictor=predictor),
        )
        orchestrator.provider.billing.refund_enabled = refund_enabled
        return orchestrator.run()

    @staticmethod
    def _segments(result):
        return [
            [(seg.vm_id, seg.instance_name, seg.start, seg.end, seg.steps) for seg in job.segments]
            for job in result.jobs.values()
        ]

    @given(
        workload=st.sampled_from(["LiR", "SVM", "GBTR", "LoR"]),
        seed=st.integers(min_value=0, max_value=3),
        size=st.integers(min_value=1, max_value=4),
        theta=st.sampled_from([0.5, 0.7, 1.0]),
        revocation_heavy=st.booleans(),
        policy=st.sampled_from(["notice", "periodic:600"]),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_invariants(
        self, dataset, workload, seed, size, theta, revocation_heavy, policy
    ):
        trials = make_trials(get_workload(workload), seed=seed)[:size]
        predictor = (
            ConstantPredictor(0.0) if revocation_heavy else OraclePredictor(dataset)
        )
        args = (dataset, workload, trials, theta, predictor, policy)
        result = self._run(*args)
        for record in result.jobs.values():
            # Every step a job kept was made in exactly one segment.
            assert sum(segment.steps for segment in record.segments) == pytest.approx(
                record.steps_completed, rel=1e-9, abs=0.0
            )
            if theta == 1.0:
                assert record.finish_mode != "converged"
            for segment in record.segments:
                # Every segment's VM was settled, and a refund is only
                # ever for a revocation inside the first hour.
                assert isinstance(segment.refunded, bool)
                if segment.refunded:
                    assert segment.end - segment.start < HOUR
            if record.finished_at is not None:
                # The orchestrator terminated the last VM itself, which
                # earns no refund.
                assert record.segments[-1].refunded is False
        # Without refunds the same VMs run, nothing is refunded, and the
        # bill is what the refunded run paid plus what it got back.
        unrefunded = self._run(*args, refund_enabled=False)
        assert self._segments(unrefunded) == self._segments(result)
        assert unrefunded.total_refunded == 0.0
        assert unrefunded.total_paid == pytest.approx(
            result.total_paid + result.total_refunded, rel=1e-12
        )


class TestConstantPredictorDegeneration:
    def test_p_zero_reduces_to_step_cost_choice(self, dataset, lor_trials):
        # Paper §V-A: with p -> 0 SpotTune just picks the lowest step
        # cost without revocation considerations; the run completes.
        result = SpotTuneOrchestrator(
            get_workload("LoR"),
            lor_trials[:4],
            dataset,
            ConstantPredictor(0.0),
            SpotTuneConfig(theta=0.7, seed=0),
            start_time=START,
        ).run()
        assert isinstance(result, RunResult)
        for record in result.jobs.values():
            assert record.steps_completed == pytest.approx(700, abs=1)


class TestNoticeDeadline:
    """The revocation-notice checkpoint budget (Algorithm 1 line 22).

    ``deadline = notice_time + TERMINATION_NOTICE_SECONDS - now`` can
    reach zero — and goes *negative* if a poll ever lands past the
    window — so ``_checkpoint`` must read a non-positive budget as
    "the save cannot land", never as "no deadline".
    """

    def _deployed(self, dataset, lor_trials, poll_interval=10.0):
        orchestrator = SpotTuneOrchestrator(
            get_workload("LoR"),
            lor_trials[:1],
            dataset,
            ConstantPredictor(0.0),
            SpotTuneConfig(theta=0.7, seed=0, poll_interval=poll_interval),
            start_time=START,
        )
        job = orchestrator._jobs[0]
        orchestrator._deploy([job], START)
        assert job.vm is not None
        return orchestrator, job

    def test_non_positive_deadline_fails_the_save(self, dataset, lor_trials):
        orchestrator, job = self._deployed(dataset, lor_trials)
        for deadline in (0.0, -30.0):
            assert orchestrator._checkpoint(job, START + 60.0, deadline=deadline) is False
        assert job.record.failed_checkpoints == 2
        assert job.trial_id not in orchestrator.store  # nothing landed

    def test_overshot_notice_window_rolls_back_not_saves(self, dataset, lor_trials):
        # A poll lands 30s after the two-minute window closed (the
        # poll_interval > notice window case): the deadline computes
        # negative, the save must fail, and unsaved progress rolls
        # back to the (empty) checkpoint.
        from repro.cloud.provider import TERMINATION_NOTICE_SECONDS

        orchestrator, job = self._deployed(dataset, lor_trials, poll_interval=150.0)
        now = START + 300.0
        orchestrator._sync_progress(job, now)
        assert job.steps_done > 0.0
        progressed = job.steps_done
        job.vm.notice_pending = True
        job.vm.notice_time = now - (TERMINATION_NOTICE_SECONDS + 30.0)
        orchestrator._poll_job(job, now)
        assert job.record.failed_checkpoints == 1
        assert job.record.lost_steps == pytest.approx(progressed)
        assert job.steps_done == 0.0
        assert job.vm is None  # segment closed, job re-enters the queue
        assert job.trial_id not in orchestrator.store

    def test_overshooting_poll_interval_still_completes(self, dataset):
        # End-to-end: with a poll interval wider than the notice
        # window every notice is consumed late or the VM is already
        # lost; the run must complete through rollbacks regardless.
        workload = get_workload("LiR")
        trials = make_trials(workload, seed=1)[:2]
        pool = tuple(
            instance
            for instance in SpotTuneConfig().instance_pool
            if instance.name == "r3.xlarge"
        )
        result = SpotTuneOrchestrator(
            workload,
            trials,
            dataset,
            OraclePredictor(dataset),
            SpotTuneConfig(
                theta=0.7, seed=0, poll_interval=150.0, instance_pool=pool
            ),
            start_time=START,
        ).run()
        for record in result.jobs.values():
            assert record.steps_completed == pytest.approx(700, abs=1)
