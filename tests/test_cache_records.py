"""Every record under the cache root is read through one rule.

:func:`repro.sweep.cache.read_record` is the read side of
``atomic_publish``: a file that is absent, torn, not UTF-8, not JSON,
or JSON that is not an object reads as absent.  The cache root is a
shared mount that other hosts, other versions and hand edits write
to, so each reader below must take such a file as a miss (the cell
re-runs, the bank retrains, the snapshot is regenerated, a job or
snapshot file is skipped) instead of stopping a sweep, a fleet or
``repro serve``.
"""

import pytest

from repro.market.snapshot import load_market_snapshot
from repro.obs import publish as obs_publish
from repro.serve import JobRegistry
from repro.serve.jobs import UnknownJobError
from repro.sweep import runner as runner_mod
from repro.sweep.banks import BankCache
from repro.sweep.cache import SweepCache, canonical_json, read_record
from repro.sweep.distrib import TaskQueue
from repro.sweep.distrib.lease import Lease
from repro.sweep.distrib.queue import MANIFEST_NAME, STAGED_MANIFEST_NAME
from repro.sweep.runner import SweepRunner
from repro.sweep.scenario import Scenario, ScenarioGrid

#: Files a foreign or damaged writer can leave where a record belongs.
DAMAGED = {
    "null": b"null",
    "list": b"[]",
    "number": b"1",
    "string": b'"x"',
    "not-utf8": b"\xff\xfe",
    "torn": b'{"schema": 4, "summ',
}

SCENARIO = Scenario(workload="LiR", theta=0.7, predictor="oracle")
TASK = "000000-" + SCENARIO.fingerprint()
JOB_ID = "0123456789abcdef"


def write(path, payload: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)
    return path


# Each reader gets ``payload`` where it looks for its record and
# reports whether it read the file as absent.
def sweep_cache_load(tmp_path, payload):
    cache = SweepCache(tmp_path / "cells", fsync=False)
    write(cache.path_for(SCENARIO), payload)
    return cache.load(SCENARIO) is None


def bank_cache_load(tmp_path, payload):
    banks = BankCache(tmp_path / "banks", fsync=False)
    spec = {"kind": "revpred", "seed": 0}
    write(banks.path_for(spec) / "meta.json", payload)
    return banks.load(spec, model_factory=None, inference_dataset=None) is None


def bank_artifact_intact(tmp_path, payload):
    write(tmp_path / "bank" / "meta.json", payload)
    return BankCache._artifact_intact(tmp_path / "bank") is False


def market_snapshot(tmp_path, payload):
    write(tmp_path / "seed0" / "meta.json", payload)
    return load_market_snapshot(tmp_path / "seed0") is None


def staged_manifest(tmp_path, payload):
    queue = TaskQueue(tmp_path / "queue", fsync=False)
    write(queue.root / STAGED_MANIFEST_NAME, payload)
    return queue._load_staged() is None


def published_manifest(tmp_path, payload):
    queue = TaskQueue(tmp_path / "queue", fsync=False)
    write(queue.root / MANIFEST_NAME, payload)
    return queue.load_manifest() is None


def failure_entry(tmp_path, payload):
    queue = TaskQueue(tmp_path / "queue", fsync=False)
    write(queue.failures_dir / TASK, payload)
    census = queue.census()
    return (
        queue.failure_entry(TASK) is None
        and census["quarantined"] == 1
        and census["ledger_attempts"] == 0
    )


def done_record(tmp_path, payload):
    queue = TaskQueue(tmp_path / "queue", fsync=False)
    write(queue.done_dir / TASK, payload)
    return queue.done_record(TASK) is None


def lease_held(tmp_path, payload):
    lease = Lease(TaskQueue(tmp_path / "queue", fsync=False), TASK, "w1", {})
    write(lease.path, payload)
    return lease.held() is False


def job_record(tmp_path, payload):
    # Written before the registry opens: its adoption pass reads it.
    write(tmp_path / "cache" / "serve" / "jobs" / JOB_ID / "job.json", payload)
    registry = JobRegistry(tmp_path / "cache", jobs=0, fsync=False)
    try:
        registry.job(JOB_ID)
    except UnknownJobError:
        return registry.list_jobs() == []
    return False


def job_events(tmp_path, payload):
    registry = JobRegistry(tmp_path / "cache", jobs=0, fsync=False)
    record = {"id": JOB_ID, "state": "done", "total": 1}
    write(registry.job_dir(JOB_ID) / "job.json", canonical_json(record).encode())
    write(registry.job_dir(JOB_ID) / "events" / "000000.json", payload)
    return registry.events_page(JOB_ID) == ([], 0)


def worker_snapshots(tmp_path, payload):
    write(obs_publish.metrics_dir(tmp_path / "queue") / "w.json", payload)
    return obs_publish.load_snapshots(tmp_path / "queue") == []


READERS = [
    sweep_cache_load,
    bank_cache_load,
    bank_artifact_intact,
    market_snapshot,
    staged_manifest,
    published_manifest,
    failure_entry,
    done_record,
    lease_held,
    job_record,
    job_events,
    worker_snapshots,
]


class TestReadRecord:
    @pytest.mark.parametrize("payload", DAMAGED.values(), ids=DAMAGED.keys())
    def test_a_damaged_file_reads_as_absent(self, tmp_path, payload):
        assert read_record(write(tmp_path / "r.json", payload)) is None

    def test_a_missing_file_reads_as_absent(self, tmp_path):
        assert read_record(tmp_path / "absent.json") is None

    def test_a_directory_reads_as_absent(self, tmp_path):
        assert read_record(tmp_path) is None

    def test_an_object_reads_back(self, tmp_path):
        record = {"schema": 4, "summary": {"cost": 1.5, "label": "é"}}
        path = write(tmp_path / "r.json", canonical_json(record).encode("utf-8"))
        assert read_record(path) == record


class TestEveryReader:
    @pytest.mark.parametrize("payload", DAMAGED.values(), ids=DAMAGED.keys())
    @pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
    def test_reads_a_damaged_record_as_absent(self, tmp_path, reader, payload):
        assert reader(tmp_path, payload)


@pytest.fixture()
def fake_run_scenario(monkeypatch):
    """An instant deterministic stand-in for the simulation."""
    executed = []

    def fake(scenario, context=None, bank_cache=None, dataset_path=None):
        executed.append(scenario)
        return {"cost": scenario.theta, "label": scenario.label()}

    monkeypatch.setattr(runner_mod, "run_scenario", fake)
    return executed


class TestProgramsCarryOn:
    def test_resume_reruns_exactly_the_damaged_cells(
        self, tmp_path, fake_run_scenario
    ):
        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.4, 0.7, 1.0], predictor="oracle", seed=[0, 1]
        )
        cache = SweepCache(tmp_path / "cells", fsync=False)
        SweepRunner(cache=cache).run(grid)
        fresh = {path.name: path.read_bytes() for path in cache.root.glob("*.json")}
        listed = list(grid)
        cache.path_for(listed[1]).write_bytes(b"[]")
        cache.path_for(listed[4]).write_bytes(b"\xff\xfe")
        fake_run_scenario.clear()

        result = SweepRunner(cache=cache, resume=True).run(grid)
        assert fake_run_scenario == [listed[1], listed[4]]
        assert (result.executed_count, result.cached_count) == (2, 4)
        rewritten = {path.name: path.read_bytes() for path in cache.root.glob("*.json")}
        assert rewritten == fresh

    def test_serve_starts_over_a_damaged_job_record(
        self, tmp_path, fake_run_scenario
    ):
        spec = {"workload": "LiR", "theta": [0.7], "predictor": "oracle"}
        registry = JobRegistry(tmp_path / "cache", jobs=0, fsync=False)
        try:
            readable = registry.submit(spec, jobs=0)[0]["id"]
        finally:
            registry.close()
        write(registry.job_dir(JOB_ID) / "job.json", b"[]")

        restarted = JobRegistry(
            tmp_path / "cache", jobs=0, fsync=False, poll_interval=0.02
        )
        try:
            assert [job["id"] for job in restarted.list_jobs()] == [readable]
        finally:
            restarted.close()

    def test_running_job_telemetry_skips_a_damaged_snapshot(
        self, tmp_path, fake_run_scenario
    ):
        spec = {"workload": "LiR", "theta": [0.7, 1.0], "predictor": "oracle"}
        registry = JobRegistry(
            tmp_path / "cache", jobs=0, fsync=False, poll_interval=0.02
        )
        try:
            job_id = registry.submit(spec, jobs=0)[0]["id"]
            # The runner thread publishes the queue; no worker drains it.
            queue = TaskQueue.attach(registry.queue_dir(job_id), wait_seconds=10.0)
            write(obs_publish.metrics_dir(queue.root) / "w.json", b"[]")

            assert registry.live_metric_snapshots() == []
            status = registry.status(job_id)
            assert status["state"] == "running"
            assert status["lost_leases"] == 0
            assert status["queue"]["pending"] == 2
        finally:
            registry.close()
