"""The SpotTune Orchestrator — Algorithm 1.

Runs one workload's HPT jobs (one per hyper-parameter configuration,
each on its own spot VM) over the simulated cloud:

* every 10 seconds the loop polls all jobs (Algorithm 1 lines 15-46);
  runs of quiet ticks are replayed in bulk (see below);
* on a revocation notice, the job checkpoints to the object store and
  re-enters the waiting queue; the doomed VM keeps running until AWS
  revokes it — within its first instance hour that makes the whole
  segment free;
* a job that has run on one VM for over an hour checkpoints and shuts
  the VM down, buying a fresh first-hour refund lottery ticket;
* a job that reaches theta * max_trial_steps (or whose metric curve
  plateaus, when early shutdown is enabled) checkpoints and finishes;
* waiting jobs are (re)deployed on the Provisioner's argmin-step-cost
  instance, restoring from their checkpoint; all the jobs waiting at
  one tick are scored in one provisioning pass, in job order;
* when every job is finished, EarlyCurve predicts each configuration's
  final metric and the top-mcnt are selected (lines 48-53); optionally
  the selected models then continue training from their checkpoints to
  max_trial_steps.

If a VM dies before its notice is processed (revocation within seconds
of launch), progress since the last checkpoint is genuinely lost and
the job resumes from its checkpoint — the fault-tolerance path.

Most poll ticks are quiet: no event fires, no job deploys, and no job
finishes, checkpoints or changes VM; running jobs only advance.  Before
each tick the loop finds the first tick at which anything can happen
and replays every quiet tick before it in one step, with the state the
per-tick code would leave: the same tick times, each tick's progress
and per-tick sum into the segment's steps, the performance-matrix
updates, and the metric points reached.  Never skipped are a tick that
fires an event (notice or revocation, also of a VM no job holds any
more), one at which a waiting job may deploy (every attempt draws a
fresh max-price delta), and any tick of a running job whose checkpoint
policy cannot state when it next fires.  The other candidates are
computed from float formulas — a running job's cutoff and next plateau
point (read off its progress), its VM recycle, its policy's next
checkpoint, and the run's deadline — so the replay stops at least one
tick before each and the per-tick code, the only place that acts,
decides.

A trial's observed points are always steps 1, 1 + v, ... up to the
highest step reached, whatever the restores and roll-backs, so every
trial, simulated or live, is observed through its observation table
(see :class:`~repro.earlycurve.predictor.ObservationTable`), and
EarlyCurve's prediction is a pure function of the trial and the
observed count; it is computed once per (trial, count) and shared by
every run of the trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cloud.provider import TERMINATION_NOTICE_SECONDS, SimCloudProvider
from repro.cloud.storage import ObjectStore
from repro.cloud.vm import SpotVM
from repro.core.accounting import JobRecord, RunResult, SegmentRecord
from repro.core.checkpoint_policy import CheckpointPolicy, NoticeOnlyPolicy, PolicyContext
from repro.core.config import SpotTuneConfig
from repro.core.perf_matrix import PerformanceMatrix
from repro.core.provisioner import ProvisionDecision, Provisioner
from repro.earlycurve.predictor import (
    EarlyCurvePredictor,
    ObservationTable,
    StopReason,
    rank_configurations,
)
from repro.market.dataset import SpotPriceDataset
from repro.revpred.predictor import RevocationPredictor
from repro.sim.events import Simulation
from repro.sim.rng import RngStream
from repro.workloads.speed import SpeedModel
from repro.workloads.spec import WorkloadSpec
from repro.workloads.trial import Trial

#: Hard ceiling on simulated run length; exceeding it means the run is
#: stuck (e.g. a trace too short for the workload) and must fail loudly.
MAX_SIMULATED_SECONDS = 30 * 86400.0


@dataclass
class _Job:
    """Mutable per-job state of the polling loop."""

    trial: Trial
    curve_predictor: EarlyCurvePredictor
    record: JobRecord
    cutoff_steps: int
    #: The trial's metric table (see :meth:`Trial.observation_table`).
    table: ObservationTable
    steps_done: float = 0.0
    checkpoint_steps: float = 0.0
    vm: Optional[SpotVM] = None
    vm_lost: bool = False
    decision: Optional[ProvisionDecision] = None
    vm_assigned_at: float = 0.0
    anchor: float = 0.0
    steps_at_anchor: float = 0.0
    segment_sps: float = 1.0
    segment_index: int = 0
    current_segment: Optional[SegmentRecord] = None
    next_metric_step: int = 1
    busy_until: float = 0.0
    last_checkpoint_time: float = float("-inf")
    finished: bool = False

    @property
    def trial_id(self) -> str:
        return self.trial.trial_id


class SpotTuneOrchestrator:
    """Drives Algorithm 1 for one workload over a replayed market."""

    def __init__(
        self,
        workload: WorkloadSpec,
        trials: list[Trial],
        dataset: SpotPriceDataset,
        predictor: RevocationPredictor,
        config: SpotTuneConfig | None = None,
        speed_model: SpeedModel | None = None,
        start_time: float = 0.0,
        checkpoint_policy: CheckpointPolicy | None = None,
    ) -> None:
        if not trials:
            raise ValueError("no trials to run")
        self.workload = workload
        self.trials = trials
        self.dataset = dataset
        self.config = config if config is not None else SpotTuneConfig()
        self.speed_model = speed_model if speed_model is not None else SpeedModel()
        self.checkpoint_policy = (
            checkpoint_policy if checkpoint_policy is not None else NoticeOnlyPolicy()
        )
        self.sim = Simulation(start=start_time)
        self.provider = SimCloudProvider(self.sim, dataset)
        self.store = ObjectStore()
        self.matrix = PerformanceMatrix(self.config.initial_m_per_cpu)
        self.rng = RngStream(self.config.seed, f"orchestrator/{workload.name}")
        self.provisioner = Provisioner(
            pool=self.config.instance_pool,
            predictor=predictor,
            matrix=self.matrix,
            provider=self.provider,
            rng=self.rng.fork("provisioner"),
            delta_low=self.config.delta_low,
            delta_high=self.config.delta_high,
        )
        self._jobs = [self._make_job(trial) for trial in trials]

    def _make_job(self, trial: Trial) -> _Job:
        curve_predictor = EarlyCurvePredictor(
            max_trial_steps=trial.max_trial_steps, theta=self.config.theta
        )
        return _Job(
            trial=trial,
            curve_predictor=curve_predictor,
            record=JobRecord(trial_id=trial.trial_id),
            cutoff_steps=curve_predictor.cutoff_step,
            table=trial.observation_table(self.workload.validate_every),
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, continue_top: bool = False) -> RunResult:
        """Execute the full HPT process; returns the run's accounting."""
        start = self.sim.now
        self._poll_until_done()
        ranking_time = self.sim.now
        predictions = {job.trial_id: self._predict_final(job) for job in self._jobs}
        for job in self._jobs:
            job.record.predicted_final = predictions[job.trial_id]
        selected = rank_configurations(
            predictions, self.config.mcnt, lower_is_better=self.config.lower_is_better
        )
        jct = max(job.record.finished_at for job in self._jobs) - start
        paid_at_ranking = self.provider.billing.total_paid

        continuation_jct = 0.0
        continuation_paid = 0.0
        if continue_top:
            self._reopen_for_continuation(selected)
            self._poll_until_done()
            continuation_jct = self.sim.now - ranking_time
            continuation_paid = self.provider.billing.total_paid - paid_at_ranking

        self._resolve_segment_refunds()
        self._attach_true_finals()
        return RunResult(
            workload_name=self.workload.name,
            theta=self.config.theta,
            jct=jct,
            total_paid=paid_at_ranking,
            total_refunded=self.provider.billing.total_refunded,
            checkpoint_time=sum(job.record.checkpoint_time for job in self._jobs),
            restore_time=sum(job.record.restore_time for job in self._jobs),
            jobs={job.trial_id: job.record for job in self._jobs},
            predictions=predictions,
            selected=selected,
            continuation_jct=continuation_jct,
            continuation_paid=continuation_paid,
        )

    def _poll_until_done(self) -> None:
        deadline = self.sim.now + MAX_SIMULATED_SECONDS
        while not all(job.finished for job in self._jobs):
            if self.sim.now > deadline:
                raise RuntimeError(
                    f"simulation exceeded {MAX_SIMULATED_SECONDS}s; "
                    "the run appears stuck (trace too short or jobs starved)"
                )
            self._replay_quiet_ticks(deadline)
            self.sim.run_until(self.sim.now + self.config.poll_interval)
            now = self.sim.now
            for job in self._jobs:
                if not job.finished:
                    self._poll_job(job, now)
            waiting = [
                job
                for job in self._jobs
                if not job.finished and job.vm is None and now >= job.busy_until
            ]
            if waiting:
                self._deploy(waiting, now)

    def _poll_job(self, job: _Job, now: float) -> None:
        """One job's pass through Algorithm 1's event dispatch."""
        if job.vm is not None and not job.vm_lost:
            self._sync_progress(job, now)
        if job.vm is None:
            return  # waiting for deployment
        if job.vm_lost:
            # Revoked before its notice was processed: progress since
            # the last checkpoint is gone.
            self._roll_back_to_checkpoint(job)
            self._close_segment(job, job.vm.end_time)
            return
        self.matrix.update(job.vm.instance, job.trial_id, job.segment_sps)
        if job.vm.consume_notice():
            # Revocation notice: checkpoint and walk away; the doomed VM
            # bills until AWS revokes it (refunded if inside hour one).
            # The save must fit inside what remains of the two-minute
            # window — an oversized model loses its unsaved progress
            # (the case motivating the periodic checkpoint policy).
            deadline = job.vm.notice_time + TERMINATION_NOTICE_SECONDS - now
            saved = self._checkpoint(job, now, deadline=deadline)
            if not saved:
                self._roll_back_to_checkpoint(job)
            self._close_segment(job, now)
            return
        if self._reached_cutoff(job) or self._converged(job):
            self._checkpoint(job, now)
            self._finish(job, now)
            return
        if now - job.vm_assigned_at >= self.config.reschedule_after:
            # One instance hour is up: recycle for a fresh refund window.
            self._checkpoint(job, now)
            self.provider.terminate(job.vm)
            self._close_segment(job, now)
            return
        if self.checkpoint_policy.should_checkpoint(self._policy_context(job, now)):
            self._checkpoint(job, now)

    # ------------------------------------------------------------------
    # Quiet-tick replay
    # ------------------------------------------------------------------
    def _replay_quiet_ticks(self, deadline: float) -> None:
        """Replay, in one step, every tick before the first one at which
        anything can happen (see the module docstring)."""
        now = self.sim.now
        interval = self.config.poll_interval
        # Ticks strictly before `exact` are quiet: event and deploy
        # times compare exactly against the tick times.
        exact = self.sim.queue.peek_time()
        if exact is None:
            exact = math.inf
        # Ticks more than one interval before `soon` are quiet.
        soon = deadline
        running = []
        for job in self._jobs:
            if job.finished:
                continue
            if job.vm is None:
                exact = min(exact, job.busy_until)
            else:
                running.append(job)
            if exact <= now + interval:
                return
        for job in running:
            soon = min(soon, self._quiet_until(job))
            if soon <= now + 2 * interval:
                return
        ticks = []
        tick = now + interval
        while tick < exact and tick + interval < soon:
            ticks.append(tick)
            tick += interval
        if not ticks:
            return
        for job in running:
            self._advance(job, ticks)
            self.matrix.update_repeated(
                job.vm.instance, job.trial_id, job.segment_sps, len(ticks)
            )
        self.sim.run_until(ticks[-1])

    def _quiet_until(self, job: _Job) -> float:
        """Earliest time a running job may finish, checkpoint or
        recycle; -inf when that may be the next tick."""
        if job.steps_done + 1e-9 >= job.cutoff_steps:
            return -math.inf
        due = self.checkpoint_policy.next_checkpoint_time(
            job.last_checkpoint_time, job.vm_assigned_at
        )
        if due is None:
            return -math.inf
        due = min(
            due,
            job.vm_assigned_at + self.config.reschedule_after,
            self._time_at_steps(job, job.cutoff_steps - 1e-9),
        )
        if self.config.early_shutdown_enabled:
            table = job.table
            predictor = job.curve_predictor
            seen = len(predictor.values)
            plateau = int(table.plateau_next[max(seen, 1) - 1]) + 1
            if table.step(plateau) < predictor.cutoff_step:
                if plateau == seen:
                    return -math.inf
                due = min(due, self._time_at_steps(job, table.step(plateau)))
        return due

    @staticmethod
    def _time_at_steps(job: _Job, steps: float) -> float:
        """When the running segment's progress reaches ``steps``."""
        return job.anchor + (steps - job.steps_at_anchor) * job.segment_sps

    # ------------------------------------------------------------------
    # Progress and metrics
    # ------------------------------------------------------------------
    def _sync_progress(self, job: _Job, now: float) -> None:
        self._advance(job, (now,))

    def _advance(self, job: _Job, ticks) -> None:
        """Progress at each poll tick in ``ticks``, then observe the
        metric points reached.  Each tick's step count is the closed
        form from the segment's anchor; the segment's steps are the
        per-tick float sum, as one sync per tick leaves them."""
        segment = job.current_segment
        if segment is None:
            return
        anchor = job.anchor
        base = job.steps_at_anchor
        sps = job.segment_sps
        cutoff = float(job.cutoff_steps)
        steps_done = job.steps_done
        segment_steps = segment.steps
        for now in ticks:
            if now <= anchor:
                continue
            new_steps = base + (now - anchor) / sps
            if cutoff < new_steps:
                new_steps = cutoff
            delta = new_steps - steps_done
            if delta > 0:
                steps_done = new_steps
                segment_steps += delta
        if steps_done == job.steps_done:
            return
        job.steps_done = steps_done
        segment.steps = segment_steps
        whole_steps = math.floor(steps_done)
        first = job.next_metric_step
        if first <= whole_steps:
            stride = self.workload.validate_every
            count = (whole_steps - first) // stride + 1
            job.next_metric_step = first + stride * count
            job.curve_predictor.observe_table(
                job.table, (job.next_metric_step - 1) // stride
            )

    def _reached_cutoff(self, job: _Job) -> bool:
        return job.steps_done + 1e-9 >= job.cutoff_steps

    def _converged(self, job: _Job) -> bool:
        if not self.config.early_shutdown_enabled:
            return False
        return job.curve_predictor.should_stop() is StopReason.CONVERGED

    def _predict_final(self, job: _Job) -> float:
        """EarlyCurve's prediction of the job's final metric, computed
        once per observed count of the trial."""
        memo = job.table.predictions
        count = len(job.curve_predictor.values)
        if count not in memo:
            memo[count] = job.curve_predictor.predict_final().predicted_final
        return memo[count]

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def _deploy(self, jobs: list[_Job], now: float) -> None:
        """Deploy a tick's waiting jobs, in job order, from one batched
        provisioning pass (see :meth:`Provisioner.get_best_instances`)."""
        decisions = self.provisioner.get_best_instances(
            [job.trial_id for job in jobs], now
        )
        for job, decision in zip(jobs, decisions):
            request = self.provider.request_spot(
                decision.instance,
                decision.max_price,
                on_revocation=lambda vm, job=job: self._on_revoked(job, vm),
            )
            if not request.fulfilled:
                continue  # retry at the next poll with a fresh delta draw
            vm = request.vm
            assert vm is not None
            job.vm = vm
            job.vm_lost = False
            job.decision = decision
            job.vm_assigned_at = now
            job.segment_index += 1
            job.segment_sps = self.speed_model.sample_segment_speed(
                decision.instance, self.workload, job.trial.config, job.segment_index
            )
            restore_duration = 0.0
            if job.trial_id in self.store:
                _, restore_duration = self.store.get(job.trial_id, decision.instance)
                job.record.restore_time += restore_duration
            job.anchor = now + restore_duration
            job.steps_at_anchor = job.steps_done
            segment = SegmentRecord(
                vm_id=vm.vm_id, instance_name=decision.instance.name, start=now
            )
            job.record.segments.append(segment)
            job.current_segment = segment

    def _policy_context(self, job: _Job, now: float) -> PolicyContext:
        assert job.vm is not None
        return PolicyContext(
            now=now,
            vm_instance=job.vm.instance,
            vm_age=now - job.vm_assigned_at,
            vm_max_price=job.vm.max_price,
            last_checkpoint_time=job.last_checkpoint_time,
            steps_since_checkpoint=job.steps_done - job.checkpoint_steps,
        )

    def _checkpoint(self, job: _Job, now: float, deadline: float | None = None) -> bool:
        """Persist the job's state; returns False when the save cannot
        finish before ``deadline`` (revocation beats the upload)."""
        assert job.vm is not None
        duration = self.store.throughput.checkpoint_duration(
            self.workload.model_size_mb, job.vm.instance
        )
        if deadline is not None and duration > deadline:
            job.record.failed_checkpoints += 1
            return False
        self.store.put(
            job.trial_id,
            self.workload.model_size_mb,
            job.vm.instance,
            payload={"steps": job.steps_done},
            now=now,
        )
        job.checkpoint_steps = job.steps_done
        job.last_checkpoint_time = now
        job.record.checkpoint_time += duration
        job.busy_until = now + duration
        return True

    def _roll_back_to_checkpoint(self, job: _Job) -> None:
        """Discard progress that never reached the object store."""
        lost = job.steps_done - job.checkpoint_steps
        if lost <= 0:
            return
        job.record.lost_steps += lost
        if job.current_segment is not None:
            job.current_segment.steps = max(0.0, job.current_segment.steps - lost)
        job.steps_done = job.checkpoint_steps

    def _close_segment(self, job: _Job, now: float) -> None:
        if job.current_segment is not None:
            job.current_segment.end = now
        job.vm = None
        job.vm_lost = False
        job.current_segment = None

    def _finish(self, job: _Job, now: float) -> None:
        assert job.vm is not None
        self.provider.terminate(job.vm)
        self._close_segment(job, now)
        job.finished = True
        job.record.finished_at = now
        job.record.steps_completed = job.steps_done
        reason = job.curve_predictor.should_stop()
        job.record.finish_mode = reason.value if reason else "cutoff"

    def _on_revoked(self, job: _Job, vm: SpotVM) -> None:
        if job.vm is vm:
            job.vm_lost = True

    # ------------------------------------------------------------------
    # Continuation and bookkeeping
    # ------------------------------------------------------------------
    def _reopen_for_continuation(self, selected: list[str]) -> None:
        """Algorithm 1 line 53: continue training the top-mcnt models
        from their checkpoints to the full max_trial_steps."""
        for job in self._jobs:
            if job.trial_id in selected and job.steps_done < job.trial.max_trial_steps:
                job.cutoff_steps = job.trial.max_trial_steps
                job.finished = False

    def _resolve_segment_refunds(self) -> None:
        refund_by_vm = {
            record.vm_id: record.refunded for record in self.provider.billing.records
        }
        for job in self._jobs:
            for segment in job.record.segments:
                segment.refunded = refund_by_vm.get(segment.vm_id)

    def _attach_true_finals(self) -> None:
        for job in self._jobs:
            try:
                job.record.true_final = job.trial.true_final()
            except AttributeError:
                job.record.true_final = None
