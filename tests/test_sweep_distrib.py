"""Tests for the distributed sweep broker (``repro.sweep.distrib``).

Two layers:

* fast lease/queue lifecycle tests driven against a throwaway
  directory with a stubbed ``run_scenario`` — claim races, expiry
  clock skew, heartbeat renewal, crash re-lease;
* the ISSUE 5 acceptance test — a real grid drained by two independent
  ``repro sweep-worker`` subprocesses, one SIGKILLed provably
  mid-cell, whose assembled result must be byte-identical to a serial
  ``SweepRunner.run`` with every cell executed effectively once.
"""

import os
import signal
import subprocess
import threading
import time

import pytest

from repro.analysis.context import build_context
from repro.sweep import runner as runner_mod
from repro.sweep.cache import SweepCache, canonical_json
from repro.sweep.distrib import (
    DistributedSweepRunner,
    Heartbeat,
    QueueError,
    SweepWorker,
    TaskQueue,
    spawn_local_worker,
    task_name,
)
from repro.sweep.runner import SweepCellError, SweepRunner, task_order
from repro.sweep.scenario import Scenario, ScenarioGrid


@pytest.fixture(scope="module")
def context():
    return build_context(seed=0, scale="small")


def tiny_grid() -> ScenarioGrid:
    return ScenarioGrid.from_axes(
        workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=0
    )


def ordered_cells(grid=None) -> list[Scenario]:
    return task_order(list(grid or tiny_grid()), jobs=2)


def make_queue(tmp_path, cells=None, lease_ttl=60.0, **policy) -> TaskQueue:
    # Tests that exercise retry semantics pass their own policy; the
    # rest keep the broker defaults (and a tiny backoff so any retry
    # that does happen never slows the suite).
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
    """Replace the simulation with an instant deterministic stub."""
    calls = []

    def fake(scenario, context=None, bank_cache=None, dataset_path=None):
        calls.append(scenario.fingerprint())
        return {"cost": scenario.theta, "label": scenario.label()}

    monkeypatch.setattr(runner_mod, "run_scenario", fake)
    return calls


class TestQueueLifecycle:
    def test_create_enqueues_in_dispatch_order(self, tmp_path):
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        names = [task_name(seq, s) for seq, s in enumerate(cells)]
        assert queue.pending_names() == names  # zero-padded rank sorts
        assert queue.depth() == len(cells)
        assert queue.manifest["tasks"] == names

    def test_attach_resolves_recorded_cache_path(self, tmp_path):
        queue = make_queue(tmp_path)
        attached = TaskQueue.attach(queue.root)
        assert attached.resolve(attached.manifest["cache"]) == (
            tmp_path / "cells"
        ).resolve()
        assert attached.total == 2

    def test_attach_without_manifest_fails_fast_and_waits(self, tmp_path):
        with pytest.raises(QueueError, match="no sweep manifest"):
            TaskQueue.attach(tmp_path / "queue")

        # A worker starting before the coordinator sees the manifest
        # appear within its wait window.
        root = tmp_path / "late"

        def create_late():
            time.sleep(0.3)
            cache = SweepCache(tmp_path / "cells")
            TaskQueue.create(root, ordered_cells(), cache_path=str(cache.root))

        thread = threading.Thread(target=create_late)
        thread.start()
        try:
            attached = TaskQueue.attach(root, wait_seconds=10.0, poll=0.05)
            assert attached.total == 2
        finally:
            thread.join()

    def test_recreate_same_sweep_is_idempotent(self, tmp_path):
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        queue.claim("w1")  # a coordinator restart mid-sweep
        again = TaskQueue.create(queue.root, cells, cache_path="..")
        # The surviving lease carries on; nothing was re-enqueued.
        assert len(again.pending_names()) == len(cells) - 1
        assert len(again.lease_names()) == 1

    def test_unpublished_queue_survives_a_creator_crash(self, tmp_path):
        # A coordinator killed between create(publish=False) and
        # publish_manifest must not orphan the directory: re-creating
        # the same sweep adopts it and publishes.
        cells = ordered_cells()
        cache = SweepCache(tmp_path / "cells")
        unpublished = TaskQueue.create(
            cache.queue_root, cells, cache_path="..", publish=False
        )
        with pytest.raises(QueueError):  # not joinable before publish
            TaskQueue.attach(unpublished.root)

        retried = TaskQueue.create(cache.queue_root, cells, cache_path="..")
        assert TaskQueue.attach(retried.root).total == len(cells)
        other = ordered_cells(
            ScenarioGrid.from_axes(workload="LoR", theta=0.7, predictor="oracle")
        )
        with pytest.raises(QueueError, match="different sweep"):
            TaskQueue.create(cache.queue_root, other, cache_path="..")

    def test_creator_killed_mid_enqueue_is_recoverable(self, tmp_path):
        # The staged manifest lands before the task files, so a
        # creator killed mid-enqueue leaves a directory the next
        # create() recognises and completes, not a refused orphan.
        cells = ordered_cells()
        cache = SweepCache(tmp_path / "cells")
        partial = TaskQueue.create(
            cache.queue_root, cells, cache_path="..", publish=False
        )
        for name in partial.pending_names()[1:]:  # "unwritten" tasks
            (partial.tasks_dir / name).unlink()
        retried = TaskQueue.create(cache.queue_root, cells, cache_path="..")
        assert len(retried.pending_names()) == len(cells)
        assert TaskQueue.attach(retried.root).total == len(cells)

    def test_inflight_names_sees_a_mid_claim_cell(self, tmp_path):
        # Between the claim rename and the lease publish a cell lives
        # as a claim-temp; liveness scans must still count it, or the
        # coordinator's self-heal would duplicate it.
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        name = task_name(0, cells[0])
        os.rename(queue.tasks_dir / name, queue.leases_dir / f"{name}.claim-w1")
        assert name not in queue.pending_names()
        assert name not in queue.lease_names()
        assert name in queue.inflight_names()

    def test_reset_pending_attempts_strips_inherited_counts(self, tmp_path):
        # A task requeued from a previous run's expired lease carries
        # that run's attempt; a no-resume rerun must claim it fresh or
        # the attempt>1 cache shortcut would skip re-execution.
        cells = ordered_cells()[:1]
        queue = make_queue(tmp_path, cells)
        lease = queue.claim("w1")
        old = time.time() - 120.0
        os.utime(lease.path, (old, old))
        queue.reclaim_expired()
        queue.reset_pending_attempts()
        fresh = queue.claim("w2")
        assert fresh.attempt == 1

    def test_recreate_with_different_grid_refused(self, tmp_path):
        queue = make_queue(tmp_path)
        other = ordered_cells(
            ScenarioGrid.from_axes(workload="LoR", theta=0.7, predictor="oracle")
        )
        with pytest.raises(QueueError, match="different sweep"):
            TaskQueue.create(queue.root, other, cache_path="..")

    def test_foreign_nonempty_directory_refused(self, tmp_path):
        root = tmp_path / "not-a-queue"
        root.mkdir()
        (root / "stray.txt").write_text("hello")
        with pytest.raises(QueueError, match="non-empty"):
            TaskQueue.create(root, ordered_cells(), cache_path="..")

    def test_recreate_adopts_the_published_lease_ttl(self, tmp_path):
        # Workers heartbeat against the manifest's TTL; a restarted
        # coordinator must reclaim on the same timescale, not on
        # whatever --lease-ttl its retry happened to pass.
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells, lease_ttl=60.0)
        retried = TaskQueue.create(
            queue.root, cells, cache_path="..", lease_ttl=5.0
        )
        assert retried.lease_ttl == 60.0

    def test_corrupt_task_file_does_not_crash_the_fleet(self, tmp_path):
        # A truncated copy on an rsync'd queue is valid-path, invalid
        # JSON: claim must quarantine it (and still serve intact
        # tasks), not blow up every worker that touches it or livelock
        # the fleet by restoring it forever.
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        first = queue.pending_names()[0]
        (queue.tasks_dir / first).write_text('{"schema": 1, "scen')
        lease = queue.claim("w1")
        assert lease is not None and lease.name != first
        assert first not in queue.pending_names()
        quarantined = list(queue.quarantine_dir.iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(first)

    def test_attach_rejects_foreign_schema(self, tmp_path):
        queue = make_queue(tmp_path)
        manifest = queue.manifest | {"schema": 999}
        (queue.root / "manifest.json").write_text(canonical_json(manifest))
        with pytest.raises(QueueError, match="schema"):
            TaskQueue.attach(queue.root)


class TestClaim:
    def test_claim_takes_lowest_rank_and_stamps_owner(self, tmp_path):
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        lease = queue.claim("w1")
        assert lease.name == task_name(0, cells[0])
        assert lease.owner == "w1"
        assert lease.attempt == 1
        assert lease.scenario == cells[0]
        assert lease.held()
        assert queue.depth() == len(cells) - 1

    def test_double_claim_race_has_one_winner(self, tmp_path):
        cells = ordered_cells()[:1]
        queue_a = make_queue(tmp_path, cells)
        queue_b = TaskQueue.attach(queue_a.root)
        name = task_name(0, cells[0])
        # Both workers target the *same* task file; the atomic rename
        # means exactly one wins, whatever the interleaving.
        lease_a = queue_a._claim_one(name, "worker-a")
        lease_b = queue_b._claim_one(name, "worker-b")
        winners = [lease for lease in (lease_a, lease_b) if lease is not None]
        assert len(winners) == 1
        assert winners[0].held()

    def test_concurrent_claims_partition_the_queue(self, tmp_path):
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        results: list = []

        def drain(owner):
            handle = TaskQueue.attach(queue.root)
            while True:
                lease = handle.claim(owner)
                if lease is None:
                    return
                results.append(lease.name)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every task claimed exactly once across the fleet.
        assert sorted(results) == [
            task_name(seq, s) for seq, s in enumerate(cells)
        ]

    def test_claim_returns_none_when_drained(self, tmp_path):
        queue = make_queue(tmp_path, ordered_cells()[:1])
        assert queue.claim("w1") is not None
        assert queue.claim("w1") is None

    def test_claiming_an_old_task_yields_a_fresh_lease(self, tmp_path):
        # Task files carry their enqueue-time mtime, and rename
        # preserves it: without the pre-claim liveness stamp, claiming
        # a task older than the TTL would hand over a lease that a
        # concurrent reclaim scan immediately judges expired.
        queue = make_queue(tmp_path, ordered_cells()[:1], lease_ttl=60.0)
        name = queue.pending_names()[0]
        old = time.time() - 3600.0
        os.utime(queue.tasks_dir / name, (old, old))
        lease = queue.claim("w1")
        assert lease is not None
        assert queue.reclaim_expired() == []
        assert lease.held()


class TestLeaseExpiry:
    def test_fresh_lease_not_reclaimed(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=60.0)
        queue.claim("w1")
        assert queue.reclaim_expired() == []
        assert queue.lease_names() != []

    def test_expired_lease_requeued(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=60.0)
        lease = queue.claim("w1")
        old = time.time() - 120.0
        os.utime(lease.path, (old, old))
        assert queue.reclaim_expired() == [lease.name]
        assert not lease.held()
        # The cell is claimable again, as a second attempt.
        release = queue.claim("w2")
        assert release.name == lease.name
        assert release.attempt == 2

    def test_future_mtime_clock_skew_reads_as_age_zero(self, tmp_path):
        # A lease stamped by a fast clock (or across skewed NFS hosts)
        # must never be reclaimed early: skew only *delays* re-lease.
        queue = make_queue(tmp_path, lease_ttl=0.1)
        lease = queue.claim("w1")
        future = time.time() + 3600.0
        os.utime(lease.path, (future, future))
        time.sleep(0.15)  # real age is past the TTL, mtime says future
        assert queue.reclaim_expired() == []
        assert lease.held()

    def test_renew_bumps_mtime_and_detects_overthrow(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=60.0)
        lease = queue.claim("w1")
        old = time.time() - 120.0
        os.utime(lease.path, (old, old))
        assert lease.renew()  # still ours: renewal resets the clock
        assert queue.reclaim_expired() == []

        # Now let another worker take it after a real expiry.
        os.utime(lease.path, (old, old))
        queue.reclaim_expired()
        usurper = queue.claim("w2")
        assert usurper is not None
        assert lease.renew() is False  # overthrown: must not complete

    def test_heartbeat_keeps_a_slow_cell_alive(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=0.4)
        lease = queue.claim("w1")
        with Heartbeat(lease, interval=0.1) as heartbeat:
            deadline = time.monotonic() + 1.2  # 3x the TTL
            while time.monotonic() < deadline:
                assert queue.reclaim_expired() == []
                time.sleep(0.05)
            assert not heartbeat.lost
        assert lease.held()

    def test_heartbeat_reports_a_lost_lease(self, tmp_path):
        queue = make_queue(tmp_path, lease_ttl=60.0)
        lease = queue.claim("w1")
        with Heartbeat(lease, interval=0.05) as heartbeat:
            os.unlink(lease.path)  # simulate an expiry + re-lease
            deadline = time.monotonic() + 2.0
            while not heartbeat.lost and time.monotonic() < deadline:
                time.sleep(0.02)
        assert heartbeat.lost

    def test_release_hands_the_task_back(self, tmp_path):
        queue = make_queue(tmp_path)
        before = queue.depth()
        lease = queue.claim("w1")
        lease.release()
        assert queue.depth() == before
        assert queue.lease_names() == []

    def test_stale_claim_temp_requeued(self, tmp_path):
        # A worker SIGKILLed *between* the claim rename and the publish
        # leaves a private claim file; reclaim restores the task.
        queue = make_queue(tmp_path, lease_ttl=60.0)
        cells = ordered_cells()
        name = task_name(0, cells[0])
        private = queue.leases_dir / f"{name}.claim-deadworker"
        os.rename(queue.tasks_dir / name, private)
        old = time.time() - 120.0
        os.utime(private, (old, old))
        queue.reclaim_expired()
        assert name in queue.pending_names()

    def test_ensure_pending_leaves_a_live_cell_alone(self, tmp_path):
        # While a task or lease exists the cell's pipeline is live:
        # ensure_pending must not delete a done record a worker's
        # mark_done may have just written, or the cell would end with
        # no task, no lease, and no record — unfinishable.
        cells = ordered_cells()[:1]
        queue = make_queue(tmp_path, cells)
        name = task_name(0, cells[0])
        lease = queue.claim("w1")
        queue._write_atomic(queue.done_dir / name, {"ok": True})
        queue.ensure_pending(name, cells[0], 0)
        assert queue.done_record(name) == {"ok": True}
        assert lease.held()

    def test_ensure_pending_leaves_a_mid_claim_cell_alone(self, tmp_path):
        # A cell between the claim rename and the lease publish has no
        # task and no lease file; writing a task for it would have a
        # second worker run it again.
        cells = ordered_cells()[:1]
        queue = make_queue(tmp_path, cells)
        name = task_name(0, cells[0])
        os.rename(queue.tasks_dir / name, queue.leases_dir / f"{name}.claim-w1")
        queue.ensure_pending(name, cells[0], 0)
        assert queue.pending_names() == []

    def test_ensure_pending_reopens_a_settled_cell(self, tmp_path):
        cells = ordered_cells()[:1]
        queue = make_queue(tmp_path, cells)
        name = task_name(0, cells[0])
        lease = queue.claim("w1")
        lease.complete({"ok": False, "error": "boom"})
        queue.ensure_pending(name, cells[0], 0)
        assert queue.done_record(name) is None
        assert name in queue.pending_names()

    def test_done_record_clears_a_stale_lease(self, tmp_path):
        # Crash after mark_done's write but before the lease unlink:
        # the lease is garbage, never a reason to re-run.
        queue = make_queue(tmp_path, lease_ttl=60.0)
        lease = queue.claim("w1")
        queue._write_atomic(queue.done_dir / lease.name, {"ok": True})
        old = time.time() - 120.0
        os.utime(lease.path, (old, old))
        assert queue.reclaim_expired() == []
        assert queue.lease_names() == []
        assert lease.name not in queue.pending_names()


class TestSweepWorker:
    def test_worker_drains_queue_and_persists(self, tmp_path, fake_run_scenario):
        cells = ordered_cells()
        queue = make_queue(tmp_path, cells)
        worker = SweepWorker(queue, worker_id="w1", poll_interval=0.01)
        assert worker.run() == len(cells)
        assert queue.is_complete()
        cache = SweepCache(tmp_path / "cells")
        for scenario in cells:
            assert cache.load(scenario) == {
                "cost": scenario.theta,
                "label": scenario.label(),
            }
        for name in queue.done_names():
            record = queue.done_record(name)
            assert record["ok"] and record["worker"] == "w1"
            assert record["attempt"] == 1

    def test_on_claim_fires_before_execution(self, tmp_path, fake_run_scenario):
        queue = make_queue(tmp_path, ordered_cells()[:1])
        order = []
        worker = SweepWorker(
            queue,
            worker_id="w1",
            on_claim=lambda lease: order.append(("claim", len(fake_run_scenario))),
            on_cell=lambda lease, record: order.append(("done", record["ok"])),
        )
        worker.run()
        assert order == [("claim", 0), ("done", True)]

    def test_releases_cell_reuses_persisted_summary(
        self, tmp_path, fake_run_scenario
    ):
        # First owner crashed after the cache write but before done:
        # the second attempt must reuse the summary, not re-simulate.
        cells = ordered_cells()[:1]
        queue = make_queue(tmp_path, cells)
        crashed = queue.claim("w1")
        SweepCache(tmp_path / "cells").store(cells[0], {"cost": 0.0, "label": "x"})
        old = time.time() - 120.0
        os.utime(crashed.path, (old, old))
        queue.reclaim_expired()

        worker = SweepWorker(queue, worker_id="w2", poll_interval=0.01)
        assert worker.run() == 1
        assert fake_run_scenario == []  # zero simulations
        record = queue.done_record(queue.done_names()[0])
        assert record["attempt"] == 2
        assert record["from_cache"] is True

    def test_failing_cell_reported_without_aborting_siblings(
        self, tmp_path, monkeypatch
    ):
        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("injected cell failure")
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        cells = ordered_cells()
        # max_attempts=1 pins the single-attempt contract this test is
        # about; the retry budget has its own tests in
        # test_sweep_faults.py.
        queue = make_queue(tmp_path, cells, max_attempts=1)
        worker = SweepWorker(queue, worker_id="w1", poll_interval=0.01)
        worker.run()
        assert worker.failed == 1
        assert queue.is_complete()
        records = [queue.done_record(name) for name in queue.done_names()]
        failed = [r for r in records if not r["ok"]]
        assert len(failed) == 1
        assert "injected cell failure" in failed[0]["error"]

    def test_max_cells_caps_the_loop(self, tmp_path, fake_run_scenario):
        queue = make_queue(tmp_path)
        worker = SweepWorker(queue, worker_id="w1", max_cells=1)
        assert worker.run() == 1
        assert not queue.is_complete()

    def test_path_separator_worker_id_rejected(self, tmp_path):
        # Ids name lease files; a '/' would make every claim rename
        # fail silently and the worker would spin executing nothing,
        # and the queue's own marker substrings would make claim-temps
        # invisible to (or misparsed by) liveness scans.
        queue = make_queue(tmp_path)
        for bad in ("ns/pod-1", "node.tmp1", "w.claim-x"):
            with pytest.raises(ValueError, match="worker id"):
                SweepWorker(queue, worker_id=bad)


class TestDistributedRunner:
    def test_in_process_fleet_matches_grid_order(
        self, tmp_path, fake_run_scenario
    ):
        # jobs=0 coordinates only; an in-process worker thread drains.
        grid = tiny_grid()
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )

        def work():
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            SweepWorker(queue, worker_id="bg", poll_interval=0.01).run()

        thread = threading.Thread(target=work)
        thread.start()
        seen = []
        try:
            result = runner.run(
                grid, on_cell=lambda i, n, cell: seen.append((i, n)), timeout=60.0
            )
        finally:
            thread.join()
        assert [cell.scenario for cell in result] == list(grid)
        assert seen == [(1, 2), (2, 2)]

    def test_resume_skips_cached_cells(self, tmp_path, fake_run_scenario):
        grid = tiny_grid()
        cache = SweepCache(tmp_path / "cells")
        first = list(grid)[0]
        cache.store(first, {"cost": first.theta, "label": first.label()})
        runner = DistributedSweepRunner(
            cache=cache, jobs=0, resume=True, poll_interval=0.01
        )

        def work():
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            SweepWorker(queue, worker_id="bg", poll_interval=0.01).run()

        thread = threading.Thread(target=work)
        thread.start()
        try:
            result = runner.run(grid, timeout=60.0)
        finally:
            thread.join()
        assert result.cached_count == 1
        assert result.executed_count == 1
        assert len(fake_run_scenario) == 1

    def test_a_second_run_reuses_the_market_snapshots(
        self, tmp_path, fake_run_scenario, monkeypatch
    ):
        import repro.market.dataset as dataset_mod

        generated = []
        real = dataset_mod.generate_default_dataset

        def counted(*args, **kwargs):
            generated.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(dataset_mod, "generate_default_dataset", counted)
        for expected in ([0], []):
            generated.clear()
            runner = DistributedSweepRunner(
                cache=tmp_path / "cells", jobs=0, poll_interval=0.01
            )
            thread = self._drain_in_background(runner)
            try:
                result = runner.run(tiny_grid(), timeout=60.0)
            finally:
                thread.join()
            assert result.executed_count == len(tiny_grid())
            # The coordinator generates a seed's market only for a
            # cache that has no snapshot of it yet.
            assert generated == expected

    def _drain_in_background(self, runner):
        def work():
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            SweepWorker(queue, worker_id="bg", poll_interval=0.01).run()

        thread = threading.Thread(target=work)
        thread.start()
        return thread

    def _run_with_late_worker(self, runner, grid):
        """Coordinate in a thread; join a worker only once a cell is
        pending (an already-published queue does not hold workers back
        while the coordinator reconciles/reopens cells)."""
        holder: dict = {}

        def coordinate():
            try:
                holder["result"] = runner.run(grid, timeout=60.0)
            except BaseException as exc:  # noqa: BLE001 — surface below
                holder["error"] = exc

        thread = threading.Thread(target=coordinate)
        thread.start()
        try:
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            deadline = time.monotonic() + 30.0
            while not queue.pending_names() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert queue.pending_names(), "coordinator never requeued a cell"
            SweepWorker(queue, worker_id="late", poll_interval=0.01).run()
        finally:
            thread.join()
        if "error" in holder:
            raise holder["error"]
        return holder["result"]

    def test_failed_sweep_is_retryable_without_resume(self, tmp_path, monkeypatch):
        # A surviving queue's ok=False records must not re-raise the
        # same SweepCellError forever — and a rerun *without* --resume
        # re-executes the previously-succeeded cells too, exactly as
        # SweepRunner would, instead of replaying their done records.
        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("injected cell failure")
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        grid = tiny_grid()
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01, max_attempts=1
        )
        thread = self._drain_in_background(runner)
        try:
            with pytest.raises(SweepCellError, match="injected cell failure"):
                runner.run(grid, timeout=60.0)
        finally:
            thread.join()
        assert runner.queue_dir.exists()  # failed sweeps keep their queue

        retried: list = []

        def fixed(scenario, context=None, bank_cache=None, dataset_path=None):
            retried.append(scenario.fingerprint())
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", fixed)
        again = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )
        result = self._run_with_late_worker(again, grid)
        assert len(result) == len(grid)
        assert len(retried) == len(grid)  # everything re-executed
        assert not again.queue_dir.exists()

    def test_rerun_recovers_a_crash_between_done_write_and_unlease(
        self, tmp_path, monkeypatch
    ):
        # A worker killed between mark_done's record write and its
        # lease unlink leaves a lease shadowing the done record; a
        # rerun must clear the debris and retry the failed cell, not
        # replay the stale record and fail again having done nothing.
        import json

        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("injected cell failure")
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
        queue = TaskQueue.attach(runner.queue_dir)
        failed = next(
            name
            for name in queue.done_names()
            if not queue.done_record(name)["ok"]
        )
        (queue.leases_dir / failed).write_text(
            json.dumps({"owner": "dead", "attempt": 1})
        )

        monkeypatch.setattr(
            runner_mod,
            "run_scenario",
            lambda s, context=None, bank_cache=None, dataset_path=None: {"cost": s.theta},
        )
        again = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )
        result = self._run_with_late_worker(again, grid)
        assert len(result) == len(grid)

    def test_restart_with_a_different_cache_location_refused(self, tmp_path):
        cells = ordered_cells()
        queue = TaskQueue.create(
            SweepCache(tmp_path / "a").queue_root, cells, cache_path=".."
        )
        with pytest.raises(QueueError, match="cache"):
            TaskQueue.create(queue.root, cells, cache_path="../../b")

    def test_rerun_re_executes_a_done_cell_whose_summary_vanished(
        self, tmp_path, monkeypatch
    ):
        # An ok=True record is only as good as its cache entry: if the
        # summary is gone, a rerun (resume or not) re-executes the cell
        # instead of failing 'completed cell missing' forever.
        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("injected cell failure")
            return {"cost": scenario.theta}

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        grid = tiny_grid()
        cache = SweepCache(tmp_path / "cells")
        runner = DistributedSweepRunner(
            cache=cache, jobs=0, poll_interval=0.01, max_attempts=1
        )
        thread = self._drain_in_background(runner)
        try:
            with pytest.raises(SweepCellError):
                runner.run(grid, timeout=60.0)
        finally:
            thread.join()
        survivor_cell = next(s for s in grid if s.theta != 1.0)
        cache.path_for(survivor_cell).unlink()

        monkeypatch.setattr(
            runner_mod,
            "run_scenario",
            lambda s, context=None, bank_cache=None, dataset_path=None: {"cost": s.theta},
        )
        again = DistributedSweepRunner(cache=cache, jobs=0, poll_interval=0.01)
        result = self._run_with_late_worker(again, grid)
        assert len(result) == len(grid)
        assert cache.load(survivor_cell) is not None

    def test_resume_after_a_completed_distributed_run(
        self, tmp_path, fake_run_scenario
    ):
        # The queue left behind by a finished sweep must not block a
        # --resume re-run of the same grid (the queue's identity is
        # the full grid, not the resume-filtered remainder).
        grid = tiny_grid()
        first = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )
        thread = self._drain_in_background(first)
        try:
            first.run(grid, timeout=60.0)
        finally:
            thread.join()
        executions_before = len(fake_run_scenario)

        again = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, resume=True, poll_interval=0.01
        )
        result = again.run(grid, timeout=60.0)  # no workers needed at all
        assert result.cached_count == len(grid)
        assert result.executed_count == 0
        assert len(fake_run_scenario) == executions_before

    def test_resume_requeues_a_cell_whose_cache_entry_vanished(
        self, tmp_path, fake_run_scenario
    ):
        # A done record is only history; under --resume the cache is
        # the source of truth, so a deleted summary re-runs its cell.
        grid = tiny_grid()
        cache = SweepCache(tmp_path / "cells")
        first = DistributedSweepRunner(cache=cache, jobs=0, poll_interval=0.01)
        thread = self._drain_in_background(first)
        try:
            first.run(grid, timeout=60.0)
        finally:
            thread.join()
        victim = list(grid)[0]
        cache.path_for(victim).unlink()

        again = DistributedSweepRunner(
            cache=cache, jobs=0, resume=True, poll_interval=0.01
        )
        result = self._run_with_late_worker(again, grid)
        assert result.cached_count == len(grid) - 1
        assert result.executed_count == 1
        assert cache.load(victim) is not None

    def test_success_retires_the_queue_and_a_rerun_re_executes(
        self, tmp_path, fake_run_scenario
    ):
        # Without --resume a second identical sweep must re-execute
        # every cell, exactly like SweepRunner — never silently replay
        # the previous fleet's done records.
        grid = tiny_grid()
        for expected_calls in (len(grid), 2 * len(grid)):
            runner = DistributedSweepRunner(
                cache=tmp_path / "cells", jobs=0, poll_interval=0.01
            )
            thread = self._drain_in_background(runner)
            try:
                result = runner.run(grid, timeout=60.0)
            finally:
                thread.join()
            assert result.executed_count == len(grid)
            assert not runner.queue_dir.exists()
            assert len(fake_run_scenario) == expected_calls

    def test_coordinator_restart_with_different_jobs_attaches(
        self, tmp_path, fake_run_scenario, monkeypatch
    ):
        # The dispatch order (and so the manifest) is jobs-independent:
        # a coordinator restarted with another --jobs value must attach
        # to the surviving queue, not refuse it as a different sweep.
        from repro.sweep.distrib import coordinator as coord_mod

        class NoWorker:  # swallow local-worker spawns; threads drain
            def poll(self):
                return None  # "alive", or the dead-fleet check fires

            def terminate(self):
                pass

            def wait(self, timeout=None):
                return 0

        monkeypatch.setattr(
            coord_mod, "spawn_local_worker", lambda *a, **k: NoWorker()
        )
        # Two seeds x two thetas: a grid whose round-robin interleave
        # genuinely differs between jobs-derived shard subdivisions.
        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=[0, 1]
        )
        first = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=4, poll_interval=0.01
        )
        with pytest.raises(TimeoutError):
            first.run(grid, timeout=0.2)  # fleet never starts: queue survives
        assert first.queue_dir.exists()

        second = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=1, poll_interval=0.01
        )
        thread = self._drain_in_background(second)
        try:
            result = second.run(grid, timeout=60.0)
        finally:
            thread.join()
        assert result.executed_count == len(grid)

    def test_worker_failure_surfaces_as_sweep_cell_error(
        self, tmp_path, monkeypatch
    ):
        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(runner_mod, "run_scenario", boom)
        grid = ScenarioGrid.from_axes(workload="LiR", theta=0.7, predictor="oracle")
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01, max_attempts=1
        )

        def work():
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            SweepWorker(queue, worker_id="bg", poll_interval=0.01).run()

        thread = threading.Thread(target=work)
        thread.start()
        try:
            with pytest.raises(SweepCellError, match="injected cell failure"):
                runner.run(grid, timeout=60.0)
        finally:
            thread.join()

    def test_dispatch_order_is_bucket_contiguous(self, tmp_path, fake_run_scenario):
        # Workers claim smallest-name-first, so each (seed, scale)
        # bucket must occupy one contiguous run of ranks — a worker's
        # context LRU then serves consecutive claims instead of
        # rebuilding a different context per cell.
        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=[0, 1]
        )
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )
        with pytest.raises(TimeoutError):
            runner.run(grid, timeout=0.2)
        queue = TaskQueue.attach(runner.queue_dir)
        seed_of = {s.fingerprint(): s.seed for s in grid}
        seeds = [
            seed_of[name.split("-", 1)[1]] for name in queue.manifest["tasks"]
        ]
        assert seeds == sorted(seeds)  # one unbroken run per seed

    def test_re_lease_that_found_the_summary_counts_as_cached(
        self, tmp_path, fake_run_scenario
    ):
        # Crash after cache.store but before the done record: the
        # re-lease owner reuses the summary, and the assembled result
        # must report the cell as cached, not fabricate an execution.
        grid = ScenarioGrid.from_axes(workload="LiR", theta=0.7, predictor="oracle")
        scenario = list(grid)[0]
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, lease_ttl=0.5, poll_interval=0.01
        )
        holder: dict = {}

        def coordinate():
            try:
                holder["result"] = runner.run(grid, timeout=60.0)
            except BaseException as exc:  # noqa: BLE001 — surface below
                holder["error"] = exc

        thread = threading.Thread(target=coordinate)
        thread.start()
        try:
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            crashed = queue.claim("crashed")
            assert crashed is not None
            SweepCache(tmp_path / "cells", sweep_stale=False).store(
                scenario, {"cost": scenario.theta, "label": scenario.label()}
            )
            # The "crashed" worker never heartbeats again; a survivor
            # picks the cell up after the TTL and finds the summary.
            SweepWorker(queue, worker_id="survivor", poll_interval=0.01).run()
        finally:
            thread.join()
        if "error" in holder:
            raise holder["error"]
        result = holder["result"]
        assert result.cached_count == 1
        assert result.executed_count == 0
        assert fake_run_scenario == []  # nothing simulated at all

    def test_coordinator_heals_a_quarantined_corrupt_task(
        self, tmp_path, fake_run_scenario
    ):
        # Worker quarantines the unparseable task; the coordinator's
        # tail notices the cell has no task/lease/done state and
        # rewrites the task from the manifest — the sweep completes.
        grid = tiny_grid()
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )
        holder: dict = {}

        def coordinate():
            try:
                holder["result"] = runner.run(grid, timeout=60.0)
            except BaseException as exc:  # noqa: BLE001 — surface below
                holder["error"] = exc

        thread = threading.Thread(target=coordinate)
        thread.start()
        try:
            queue = TaskQueue.attach(runner.queue_dir, wait_seconds=30.0)
            first = queue.pending_names()[0]
            (queue.tasks_dir / first).write_text("not json at all")
            SweepWorker(queue, worker_id="w1", poll_interval=0.01).run()
        finally:
            thread.join()
        if "error" in holder:
            raise holder["error"]
        assert len(holder["result"]) == len(grid)
        assert holder["result"].executed_count == len(grid)

    def test_timeout_raises_with_outstanding_count(self, tmp_path):
        runner = DistributedSweepRunner(
            cache=tmp_path / "cells", jobs=0, poll_interval=0.01
        )
        with pytest.raises(TimeoutError, match="2 cell"):
            runner.run(tiny_grid(), timeout=0.2)

    def test_distributed_requires_a_cache(self):
        with pytest.raises(ValueError, match="result cache"):
            DistributedSweepRunner(cache=None)


class TestAcceptance:
    """ISSUE 5 acceptance: two independent ``repro sweep-worker``
    subprocesses drain a real grid; one is SIGKILLed provably mid-cell
    (after printing its pre-execution claim line); its cell re-leases
    to the survivor; the assembled result is byte-identical to a
    serial ``SweepRunner.run``; every cell executes effectively once."""

    GRID_AXES = dict(
        workload="LiR", theta=[0.6, 0.7, 0.8, 0.9], predictor="oracle", seed=0
    )

    def test_sigkilled_worker_cell_releases_and_result_is_byte_identical(
        self, tmp_path, context
    ):
        grid = ScenarioGrid.from_axes(**self.GRID_AXES)
        serial = SweepRunner(jobs=1, context=context).run(grid)
        serial_bytes = [canonical_json(cell.summary) for cell in serial]

        cache_dir = tmp_path / "cells"
        runner = DistributedSweepRunner(
            cache=cache_dir, jobs=0, lease_ttl=4.0, poll_interval=0.1
        )
        outcome: dict = {}

        def coordinate():
            try:
                outcome["result"] = runner.run(grid, timeout=570.0)
            except BaseException as exc:  # noqa: BLE001 — surface in main thread
                outcome["error"] = exc

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        victim = survivor = None
        try:
            victim = spawn_local_worker(
                runner.queue_dir, poll_interval=0.1, stdout=subprocess.PIPE
            )
            # The worker prints its claim line *before* executing the
            # cell, so a kill right after reading it is provably
            # mid-cell (the simulation takes far longer than the kill).
            for raw in victim.stdout:
                if raw.startswith(b"claim "):
                    break
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            survivor = spawn_local_worker(runner.queue_dir, poll_interval=0.1)
            coordinator.join(timeout=580.0)
            assert not coordinator.is_alive(), "distributed sweep never drained"
        finally:
            for process in (victim, survivor):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait()
            if victim is not None and victim.stdout is not None:
                victim.stdout.close()
            coordinator.join(timeout=10.0)

        if "error" in outcome:
            raise outcome["error"]
        result = outcome["result"]

        # Byte-identical to the serial run, in grid order.
        assert [canonical_json(cell.summary) for cell in result] == serial_bytes

        # Every cell executed effectively once: one completion record
        # per cell, every record ok, none written by the victim, and
        # the victim's claimed cell shows the re-lease (attempt 2).
        records = list(runner.completion_records.values())
        assert len(records) == len(grid)
        assert all(record["ok"] for record in records)
        workers = {record["worker"] for record in records}
        assert len(workers) == 1, f"victim wrote a done record: {workers}"
        attempts = sorted(record["attempt"] for record in records)
        assert attempts == [1, 1, 1, 2]
        # No duplicate cache writes: the summaries dir holds exactly
        # one entry per cell (plus reserved subdirs), none re-written.
        cell_files = sorted(p.name for p in cache_dir.glob("*.json"))
        assert cell_files == sorted(
            f"{scenario.fingerprint()}.json" for scenario in grid
        )
        # The drained queue was retired with the sweep's success.
        assert not runner.queue_dir.exists()
