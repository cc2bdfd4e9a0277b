"""Chaos-hardening tests: fault injection, retry budgets, quarantine,
and the self-healing worker supervisor (ISSUE 6).

The deterministic :class:`FaultPlan` replaces bespoke subprocess
harnesses for every crash window the distributed stack owns; these
tests pin its semantics (seeded, counted, fleet-wide exactly-once) and
the failure policy built on it: exponential backoff with deterministic
jitter, a per-task retry budget, the ``queue/failures/`` quarantine
ledger, graceful partial results, and supervised local fleets.
"""

import collections
import json
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep import SweepCache, SweepRunner, canonical_json
from repro.sweep import runner as runner_mod
from repro.sweep.distrib import (
    DistributedSweepRunner,
    FaultPlan,
    FaultRule,
    Heartbeat,
    InjectedFault,
    SweepWorker,
    TaskQueue,
    WorkerSupervisor,
    backoff_delay,
    task_name,
)
from repro.sweep.distrib import faults as faults_mod
from repro.sweep.distrib import supervisor as supervisor_mod
from repro.sweep.runner import SweepCellError, task_order
from repro.sweep.scenario import Scenario, ScenarioGrid


def tiny_grid() -> ScenarioGrid:
    return ScenarioGrid.from_axes(
        workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=0
    )


def ordered_cells(grid=None) -> list[Scenario]:
    return task_order(list(grid or tiny_grid()), jobs=2)


def make_queue(tmp_path, cells=None, lease_ttl=60.0, **policy) -> TaskQueue:
    policy.setdefault("backoff_base", 0.01)
    policy.setdefault("backoff_cap", 0.05)
    cache = SweepCache(tmp_path / "cells")
    return TaskQueue.create(
        cache.queue_root,
        cells if cells is not None else ordered_cells(),
        cache_path="..",
        lease_ttl=lease_ttl,
        **policy,
    )


@pytest.fixture()
def fake_run_scenario(monkeypatch):
    calls = []

    def fake(scenario, context=None, bank_cache=None, dataset_path=None):
        calls.append(scenario.fingerprint())
        return {"cost": scenario.theta, "label": scenario.label()}

    monkeypatch.setattr(runner_mod, "run_scenario", fake)
    return calls


class TestFaultPlan:
    def test_unknown_site_action_and_keys_are_refused(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="queue.nope", action="kill")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="cache.store", action="explode")
        with pytest.raises(ValueError, match="chance"):
            FaultRule(site="cache.store", action="raise", chance=0.0)
        with pytest.raises(ValueError, match="errno"):
            FaultRule(site="cache.store", action="raise", errno_name="ENOPE")
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "cache.store", "action": "raise", "sit": 1})
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"rules": [], "sed": 3})

    def test_load_rejects_unreadable_or_invalid_json(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read fault plan"):
            FaultPlan.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="cannot read fault plan"):
            FaultPlan.load(bad)

    def test_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            rules=[{"site": "lease.heartbeat", "action": "suppress", "times": 4}],
            seed=9,
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_times_after_and_match_window(self):
        plan = FaultPlan(
            rules=[
                {
                    "site": "worker.cell.execute",
                    "action": "stall",
                    "match": "0000",
                    "after": 1,
                    "times": 2,
                }
            ]
        )
        # Keys not containing the match never count as hits.
        assert plan.fire("worker.cell.execute", "xyz") is None
        fired = [
            plan.fire("worker.cell.execute", "000001") is not None
            for _ in range(5)
        ]
        # Hit 1 skipped (after=1), hits 2-3 fire (times=2), then done.
        assert fired == [False, True, True, False, False]

    def test_raise_action_is_an_oserror_with_the_named_errno(self):
        import errno

        plan = FaultPlan(
            rules=[{"site": "cache.store", "action": "raise", "errno": "EIO"}]
        )
        with pytest.raises(InjectedFault) as exc_info:
            plan.perform("cache.store", "fp")
        assert isinstance(exc_info.value, OSError)
        assert exc_info.value.errno == errno.EIO

    def test_caller_handled_actions_are_returned_not_performed(self):
        plan = FaultPlan(
            rules=[
                {"site": "queue.task.write", "action": "corrupt"},
                {"site": "lease.heartbeat", "action": "suppress"},
            ]
        )
        assert plan.perform("queue.task.write", "t") == "corrupt"
        assert plan.perform("lease.heartbeat", "t") == "suppress"
        text = '{"a": 1, "b": 2}'
        assert faults_mod.corrupt_bytes(text) == text[: len(text) // 2]

    def test_chance_rolls_are_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(
                rules=[
                    {
                        "site": "cache.store",
                        "action": "corrupt",
                        "times": 10_000,
                        "chance": 0.5,
                    }
                ],
                seed=seed,
            )
            return [plan.fire("cache.store") is not None for _ in range(64)]

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert any(firing_pattern(7))
        assert not all(firing_pattern(7))

    def test_state_dir_makes_one_shot_rules_fleet_wide(self, tmp_path):
        rules = [{"site": "worker.cell.execute", "action": "corrupt", "times": 1}]
        first = FaultPlan(rules=rules).bind_state(tmp_path / "state")
        second = FaultPlan(rules=rules).bind_state(tmp_path / "state")
        # Two handles (two "worker processes") share the counter: the
        # rule fires exactly once across both, whichever asks first.
        assert first.perform("worker.cell.execute", "t") == "corrupt"
        assert second.perform("worker.cell.execute", "t") is None
        assert first.perform("worker.cell.execute", "t") is None

    def test_null_plan_helper_is_a_no_op(self):
        assert faults_mod.perform(None, "cache.store", "x") is None


class TestBackoffSchedule:
    @given(
        attempt=st.integers(min_value=1, max_value=60),
        base=st.floats(min_value=1e-3, max_value=10.0),
        factor=st.floats(min_value=1.0, max_value=1e6),
        key=st.text(max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_jitter_within_envelope(self, attempt, base, factor, key):
        cap = base * factor
        delay = backoff_delay(attempt, base=base, cap=cap, key=key)
        raw = min(cap, base * 2.0 ** (attempt - 1))
        assert 0.5 * raw <= delay <= raw
        assert delay <= cap

    @given(
        attempt=st.integers(min_value=1, max_value=60),
        key=st.text(max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_deterministic_per_key_and_attempt(self, attempt, key):
        first = backoff_delay(attempt, base=0.5, cap=1e9, key=key)
        assert first == backoff_delay(attempt, base=0.5, cap=1e9, key=key)

    @given(key=st.text(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_monotone_while_uncapped(self, key):
        # Halving-jitter makes attempt n's floor equal attempt n-1's
        # ceiling, so the schedule never moves backwards before the cap.
        delays = [
            backoff_delay(attempt, base=1.0, cap=2.0**40, key=key)
            for attempt in range(1, 30)
        ]
        assert delays == sorted(delays)

    def test_validation(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay(0)
        with pytest.raises(ValueError, match="base"):
            backoff_delay(1, base=0.0)
        with pytest.raises(ValueError, match="cap"):
            backoff_delay(1, base=2.0, cap=1.0)


class TestRetryAndQuarantine:
    def test_poison_cell_retried_exactly_max_attempts_then_ledgered(
        self, tmp_path, monkeypatch
    ):
        executions = []

        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                executions.append(scenario.fingerprint())
                raise RuntimeError("deterministic poison")
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells, max_attempts=3)
        worker = SweepWorker(queue, worker_id="w1", poll_interval=0.005)
        worker.run()

        assert len(executions) == 3  # exactly max_attempts executions
        assert worker.retried == 2  # the first two re-queued
        assert queue.is_complete()  # the sibling drained regardless

        poison = next(
            name
            for name in queue.done_names()
            if not queue.done_record(name)["ok"]
        )
        record = queue.done_record(poison)
        assert record["quarantined"] is True
        assert record["attempt"] == 3
        assert "deterministic poison" in record["error"]
        assert "deterministic poison" in record["traceback"]

        assert queue.failure_names() == [poison]
        entry = queue.failure_entry(poison)
        assert entry["name"] == poison
        assert entry["fingerprint"] == executions[0]  # the poison cell's own
        assert len(entry["attempts"]) == 3
        assert [a["attempt"] for a in entry["attempts"]] == [1, 2, 3]
        assert all(a["worker"] == "w1" for a in entry["attempts"])
        assert "deterministic poison" in entry["traceback"]

        sibling = next(n for n in queue.done_names() if n != poison)
        assert queue.done_record(sibling)["ok"] is True

    def test_retry_backoff_defers_the_next_claim(self, tmp_path):
        queue = make_queue(tmp_path, ordered_cells()[:1])
        lease = queue.claim("w1")
        lease.retry("transient", None, delay=0.25)
        name = lease.name
        assert queue.pending_names() == [name]  # visible...
        assert queue.claim("w1") is None  # ...but deferred
        payload = json.loads((queue.tasks_dir / name).read_text())
        assert payload["history"][0]["error"] == "transient"
        time.sleep(0.3)
        again = queue.claim("w1")
        assert again is not None and again.attempt == 2

    def test_transient_store_fault_is_absorbed_by_one_retry(
        self, tmp_path, fake_run_scenario
    ):
        plan = FaultPlan(
            rules=[{"site": "cache.store", "action": "raise", "times": 1}]
        )
        queue = make_queue(tmp_path, ordered_cells()[:1], faults=plan)
        worker = SweepWorker(queue, worker_id="w1", poll_interval=0.005)
        worker.run()
        assert len(fake_run_scenario) == 2  # failed store re-executes
        assert worker.retried == 1
        record = queue.done_record(queue.done_names()[0])
        assert record["ok"] is True
        assert record["attempt"] == 2

    def test_crash_poison_is_quarantined_without_another_execution(
        self, tmp_path, fake_run_scenario
    ):
        # Every attempt died by SIGKILL (no error record, no cache
        # entry): claiming past the budget must quarantine, not feed
        # the crash loop another worker.
        cells = ordered_cells()[:1]
        queue = make_queue(tmp_path, cells, max_attempts=2)
        name = task_name(0, cells[0])
        path = queue.tasks_dir / name
        payload = json.loads(path.read_text())
        payload["attempt"] = 2  # two claims already crashed
        path.write_text(json.dumps(payload))

        worker = SweepWorker(queue, worker_id="w9", poll_interval=0.005)
        worker.run()
        assert fake_run_scenario == []  # never executed again
        record = queue.done_record(name)
        assert record["quarantined"] is True
        assert "crashed" in record["error"]
        assert queue.failure_entry(name) is not None

    def test_injected_task_corruption_is_quarantined_on_claim(self, tmp_path):
        plan = FaultPlan(
            rules=[{"site": "queue.task.write", "action": "corrupt", "times": 1}]
        )
        queue = make_queue(tmp_path, ordered_cells()[:1], faults=plan)
        name = queue.pending_names()[0]
        with pytest.raises(json.JSONDecodeError):
            json.loads((queue.tasks_dir / name).read_text())
        assert queue.claim("w1") is None  # unparseable: not claimable
        assert name not in queue.pending_names()
        assert list(queue.quarantine_dir.iterdir())  # kept for post-mortem

    def test_suppressed_heartbeats_lose_the_lease(self, tmp_path):
        plan = FaultPlan(
            rules=[{"site": "lease.heartbeat", "action": "suppress", "times": 1000}]
        )
        queue = make_queue(tmp_path, lease_ttl=0.4, faults=plan)
        lease = queue.claim("w1")
        with Heartbeat(lease, interval=0.1):
            deadline = time.monotonic() + 3.0
            requeued = []
            while not requeued and time.monotonic() < deadline:
                requeued = queue.reclaim_expired()
                time.sleep(0.05)
        # Renewals were suppressed while the worker stayed alive: the
        # lease aged out and the cell went back into play (overthrow).
        assert requeued == [lease.name]

    def test_injected_claim_publish_fault_hands_the_task_back(self, tmp_path):
        plan = FaultPlan(
            rules=[{"site": "queue.claim.publish", "action": "raise", "times": 1}]
        )
        queue = make_queue(tmp_path, ordered_cells()[:1], faults=plan)
        name = queue.pending_names()[0]
        assert queue.claim("w1") is None  # injected fault lost the claim
        assert queue.pending_names() == [name]  # task restored, not stranded
        assert queue.claim("w1") is not None  # next claim wins


class TestDurability:
    def test_fsync_runs_on_queue_and_cache_publishes(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        queue = make_queue(tmp_path, ordered_cells()[:1])
        assert synced  # task + staged manifest publishes fsynced
        synced.clear()
        cache = SweepCache(tmp_path / "cells")
        cache.store(ordered_cells()[0], {"cost": 1.0})
        assert synced
        assert queue.fsync is True

    def test_fsync_opt_out_skips_every_sync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        make_queue(tmp_path, ordered_cells()[:1], fsync=False)
        SweepCache(tmp_path / "nofsync", fsync=False).store(
            ordered_cells()[0], {"cost": 1.0}
        )
        assert synced == []

    def test_fsync_policy_travels_through_the_manifest(self, tmp_path):
        queue = make_queue(tmp_path, fsync=False)
        attached = TaskQueue.attach(queue.root)
        assert attached.fsync is False
        assert attached.max_attempts == queue.max_attempts
        assert attached.backoff_base == pytest.approx(queue.backoff_base)


class FakeProc:
    def __init__(self, log):
        self.log = log
        self.alive = True
        self.terminated = False

    def poll(self):
        return None if self.alive else 1

    def terminate(self):
        self.terminated = True
        self.alive = False

    def wait(self, timeout=None):
        return 1

    def kill(self):
        self.alive = False


class TestWorkerSupervisor:
    def _supervisor(self, tmp_path, slots=2, **kwargs):
        spawned = []

        def spawn(stdout):
            proc = FakeProc(stdout.name)
            spawned.append(proc)
            return proc

        sup = WorkerSupervisor(slots, spawn, logs_dir=tmp_path / "logs", **kwargs)
        return sup, spawned

    def test_start_spawns_one_worker_per_slot_with_its_own_log(self, tmp_path):
        sup, spawned = self._supervisor(tmp_path, slots=3)
        sup.start()
        assert len(spawned) == 3
        assert sorted(os.path.basename(p.log) for p in spawned) == [
            "worker-0.log",
            "worker-1.log",
            "worker-2.log",
        ]
        assert sup.restart_count == 0
        assert not sup.fleet_dead()

    def test_dead_slot_respawns_after_backoff(self, tmp_path):
        sup, spawned = self._supervisor(tmp_path)
        sup.start()
        spawned[0].alive = False
        now = time.monotonic()
        assert sup.tick(now) == 0  # first tick only schedules
        assert sup.pending_restart()
        assert sup.tick(now) == 0  # backoff not yet elapsed
        assert sup.tick(now + 60.0) == 1  # respawned after the delay
        assert len(spawned) == 3
        assert sup.restart_count == 1
        assert not sup.pending_restart()

    def test_restart_budget_exhausts_and_fleet_dies(self, tmp_path):
        sup, spawned = self._supervisor(tmp_path, slots=1, max_restarts=2)
        sup.start()
        now = time.monotonic()
        for cycle in range(2):
            spawned[-1].alive = False
            sup.tick(now)  # schedule
            assert sup.tick(now + 1e6) == 1  # respawn
        spawned[-1].alive = False
        sup.tick(now)
        assert sup.tick(now + 1e6) == 0  # budget spent: stays down
        assert sup.restart_count == 2
        assert sup.fleet_dead()
        assert not sup.pending_restart()

    def test_oversized_log_rotates_at_respawn(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "MAX_LOG_BYTES", 64)
        sup, spawned = self._supervisor(tmp_path, slots=1)
        sup.start()
        log = tmp_path / "logs" / "worker-0.log"
        log.write_bytes(b"x" * 100)
        spawned[0].alive = False
        now = time.monotonic()
        sup.tick(now)
        sup.tick(now + 60.0)
        assert (tmp_path / "logs" / "worker-0.log.1").read_bytes() == b"x" * 100
        assert log.stat().st_size == 0  # fresh file for the new worker

    def test_shutdown_terminates_live_workers_and_stops_restarts(self, tmp_path):
        sup, spawned = self._supervisor(tmp_path)
        sup.start()
        sup.shutdown()
        assert all(p.terminated for p in spawned)
        spawned[0].alive = False
        assert sup.tick(time.monotonic() + 1e6) == 0  # no posthumous respawns


class TestGracefulDegradation:
    def _drain_in_background(self, runner, wait_pending=False, **worker_kwargs):
        def work():
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            if wait_pending:
                # Reopened queue: it still *looks* complete until the
                # coordinator's reconcile puts cells back into play.
                deadline = time.monotonic() + 30.0
                while not queue.pending_names() and time.monotonic() < deadline:
                    time.sleep(0.01)
            SweepWorker(
                queue, worker_id="bg", poll_interval=0.005, **worker_kwargs
            ).run()

        thread = threading.Thread(target=work)
        thread.start()
        return thread

    def test_partial_result_byte_identical_to_serial_on_surviving_cells(
        self, tmp_path, monkeypatch
    ):
        def sim(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("deterministic poison")
            return {"cost": scenario.theta, "label": scenario.label()}

        monkeypatch.setattr(runner_mod, "run_scenario", sim)
        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.7, 0.9, 1.0], predictor="oracle", seed=0
        )
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells",
            jobs=0,
            poll_interval=0.01,
            max_attempts=2,
            backoff_base=0.01,
        )
        thread = self._drain_in_background(runner)
        try:
            with pytest.raises(SweepCellError) as exc_info:
                runner.run(grid, timeout=60.0)
        finally:
            thread.join()
        error = exc_info.value

        # The quarantine ledger's post-mortem rides on the exception.
        assert len(error.failures) == 1
        assert len(error.details) == 1
        assert "deterministic poison" in error.details[0]["traceback"]
        assert len(error.details[0]["attempts"]) == 2

        # The surviving cells, reassembled grid-ordered (as the CLI
        # writes --out), must be byte-identical to a serial sweep of
        # exactly those cells.
        survived = {
            cell.scenario.fingerprint(): cell.summary
            for cell in error.completed
        }
        partial = canonical_json(
            [survived[s.fingerprint()] for s in grid if s.fingerprint() in survived]
        )
        serial_grid = [s for s in grid if s.theta != 1.0]
        serial = SweepRunner(jobs=1).run(serial_grid)
        assert partial == canonical_json(serial.summaries())

    def test_fail_fast_aborts_with_cells_still_outstanding(
        self, tmp_path, monkeypatch
    ):
        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            raise RuntimeError("deterministic poison")

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        grid = tiny_grid()
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells",
            jobs=0,
            poll_interval=0.01,
            max_attempts=1,
            fail_fast=True,
        )
        # The lone worker stops after one (failed) cell, so without
        # fail-fast the coordinator would wait out its timeout.
        thread = self._drain_in_background(runner, max_cells=1)
        try:
            with pytest.raises(SweepCellError) as exc_info:
                runner.run(grid, timeout=30.0)
        finally:
            thread.join()
        assert len(exc_info.value.failures) == 1
        assert runner.queue_dir.exists()  # queue kept for post-mortem

    def test_quarantine_survives_for_resume_and_clears_on_reopen(
        self, tmp_path, monkeypatch
    ):
        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("deterministic poison")
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        grid = tiny_grid()
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells",
            jobs=0,
            poll_interval=0.01,
            max_attempts=1,
        )
        thread = self._drain_in_background(runner)
        try:
            with pytest.raises(SweepCellError):
                runner.run(grid, timeout=60.0)
        finally:
            thread.join()
        queue = TaskQueue.attach(runner.queue_dir)
        assert len(queue.failure_names()) == 1  # ledger survives the run

        # A rerun with the cell fixed reopens it, drops the stale
        # verdict, and completes.
        monkeypatch.setattr(
            runner_mod,
            "run_scenario",
            lambda s, context=None, bank_cache=None, dataset_path=None: {"cost": s.theta},
        )
        again = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01, resume=True
        )
        thread = self._drain_in_background(again, wait_pending=True)
        try:
            result = again.run(grid, timeout=60.0)
        finally:
            thread.join()
        assert len(result) == len(grid)

    def _quarantine_theta_one(self, tmp_path, monkeypatch) -> ScenarioGrid:
        """A failed sweep whose queue survives: the theta 1.0 cell is
        quarantined and its sibling holds an ok done record."""

        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("deterministic poison")
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        grid = tiny_grid()
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01, max_attempts=1
        )
        thread = self._drain_in_background(runner)
        try:
            with pytest.raises(SweepCellError):
                runner.run(grid, timeout=60.0)
        finally:
            thread.join()
        return grid

    @staticmethod
    def _observe_publish(monkeypatch) -> dict:
        """Count ``SweepCache.load`` calls per cell, and note the counts
        and the quarantine ledger at the moment the manifest publishes."""
        loads = collections.Counter()
        seen: dict = {}
        real_load = SweepCache.load
        real_publish = TaskQueue.publish_manifest

        def load(cache, scenario):
            loads[scenario.fingerprint()] += 1
            return real_load(cache, scenario)

        def publish(queue):
            seen.update(loads=dict(loads), failures=queue.failure_names())
            real_publish(queue)

        monkeypatch.setattr(SweepCache, "load", load)
        monkeypatch.setattr(TaskQueue, "publish_manifest", publish)
        return seen

    def test_resume_loads_each_cell_once_before_publishing(
        self, tmp_path, monkeypatch
    ):
        grid = self._quarantine_theta_one(tmp_path, monkeypatch)
        monkeypatch.setattr(
            runner_mod,
            "run_scenario",
            lambda s, context=None, bank_cache=None, dataset_path=None: {"cost": s.theta},
        )
        seen = self._observe_publish(monkeypatch)
        again = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01, resume=True
        )
        thread = self._drain_in_background(again, wait_pending=True)
        try:
            result = again.run(grid, timeout=60.0)
        finally:
            thread.join()
        assert result.cached_count == 1 and result.executed_count == 1
        # One reconcile pass: the cell the first fleet finished is
        # loaded once, like the one it quarantined.
        assert seen["loads"] == {s.fingerprint(): 1 for s in grid}
        finished = next(s for s in grid if s.theta != 1.0)
        records = {r["fingerprint"]: r for r in again.completion_records.values()}
        assert records[finished.fingerprint()] == {
            "ok": True,
            "error": None,
            "fingerprint": finished.fingerprint(),
            "worker": "coordinator-resume",
            "attempt": 0,
            "bank_trainings": 0,
            "from_cache": True,
            "seconds": 0.0,
        }

    def test_resume_completes_a_cached_quarantined_cell_and_drops_its_ledger(
        self, tmp_path, monkeypatch
    ):
        grid = self._quarantine_theta_one(tmp_path, monkeypatch)
        poison = next(s for s in grid if s.theta == 1.0)
        # Another sweep has cached the cell since the quarantine.
        SweepCache(tmp_path / "cells").store(poison, {"cost": poison.theta})
        seen = self._observe_publish(monkeypatch)
        again = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01, resume=True
        )
        result = again.run(grid, timeout=60.0)  # no worker needed
        assert result.cached_count == len(grid)
        assert result.one(theta=1.0).summary == {"cost": 1.0}
        # The stale verdict is gone before any worker can see the queue.
        assert seen["failures"] == []
        records = {r["fingerprint"]: r for r in again.completion_records.values()}
        assert records[poison.fingerprint()]["worker"] == "coordinator-resume"


class TestSupervisedFleetIntegration:
    def test_injected_worker_kill_is_healed_without_operator_action(
        self, tmp_path
    ):
        # ISSUE 6 acceptance: a SIGKILLed local worker (here: the
        # worker SIGKILLs *itself* mid-cell via the fault plane, which
        # is the same signal at the same instruction) is restarted by
        # the supervisor and the sweep completes on its own.  Real
        # subprocesses, real simulations.
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "rules": [
                        {"site": "worker.cell.execute", "action": "kill", "times": 1}
                    ],
                }
            )
        )
        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=0
        )
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells",
            jobs=1,
            poll_interval=0.1,
            lease_ttl=5.0,
            fault_plan=plan_path,
        )
        result = runner.run(grid, timeout=560.0)
        assert len(result) == len(grid)
        assert runner.worker_restarts >= 1
        assert not runner.queue_dir.exists()  # success retires the queue
