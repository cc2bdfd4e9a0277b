"""Client round-trips against an in-process server.

Same harness as the API contract tests (ephemeral-port service,
coordinate-only jobs, in-thread workers over a stubbed
``run_scenario``), but the subject is the *client* surface: cursor
pagination over done-records, mid-stream cursor resume, and the
guarantee that a client-side timeout abandons only the client's wait —
never the server-side job.
"""

import socket
import threading

import pytest

from repro.serve import JobRegistry, SweepClient, SweepService
from repro.sweep import runner as runner_mod
from repro.sweep.distrib import SweepWorker, TaskQueue

SPEC = {"workload": "LiR", "theta": [0.4, 0.7, 1.0], "predictor": "oracle", "seed": 0}


@pytest.fixture()
def fake_run_scenario(monkeypatch):
    def fake(scenario, context=None, bank_cache=None, dataset_path=None):
        return {"cost": scenario.theta, "label": scenario.label()}

    monkeypatch.setattr(runner_mod, "run_scenario", fake)


@pytest.fixture()
def service(tmp_path, fake_run_scenario):
    registry = JobRegistry(
        tmp_path / "cache", jobs=0, fsync=False, poll_interval=0.02
    )
    svc = SweepService(registry).start()
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture()
def client(service):
    return SweepClient(service.url, timeout=30.0)


def drain(registry: JobRegistry, job_id: str, max_cells=None) -> None:
    queue = TaskQueue.attach(registry.queue_dir(job_id), wait_seconds=10.0)
    SweepWorker(queue, poll_interval=0.01, max_cells=max_cells).run()


def drain_in_background(registry: JobRegistry, job_id: str) -> threading.Thread:
    thread = threading.Thread(target=drain, args=(registry, job_id), daemon=True)
    thread.start()
    return thread


class TestSyncClient:
    def test_cursor_pagination_walks_the_event_log(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        drain(service.registry, submitted["id"])
        client.wait(submitted["id"], timeout=30.0)

        seen, cursor = [], 0
        while True:
            events, next_cursor = client.events(
                submitted["id"], cursor=cursor, limit=1
            )
            if not events:
                break
            assert len(events) == 1
            assert next_cursor == cursor + 1
            seen.extend(events)
            cursor = next_cursor
        assert [e["seq"] for e in seen] == [0, 1, 2]
        # The cursor is stable: re-reading any page yields the same
        # events (the log is append-only and sequence-named).
        again, _ = client.events(submitted["id"], cursor=1, limit=1)
        assert again == [seen[1]]

    def test_stream_resumes_from_cursor(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        drain(service.registry, submitted["id"])
        client.wait(submitted["id"], timeout=30.0)
        lines = list(client.stream_events(submitted["id"], cursor=2))
        assert [line.get("seq") for line in lines[:-1]] == [2]
        assert lines[-1]["state"] == "done"
        assert lines[-1]["completed"] == 3

    def test_stream_follows_live_completions(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        worker = drain_in_background(service.registry, submitted["id"])
        try:
            lines = list(client.stream_events(submitted["id"]))
        finally:
            worker.join(timeout=30.0)
        assert [line["seq"] for line in lines[:-1]] == [0, 1, 2]
        assert lines[-1] == {"state": "done", "completed": 3, "total": 3}

    def test_client_timeout_does_not_poison_the_job(self, service, client):
        submitted = client.submit(SPEC, jobs=0)  # nothing drains it yet
        # A short socket timeout abandons the stream mid-wait...
        with pytest.raises((socket.timeout, TimeoutError)):
            for _ in client.stream_events(submitted["id"], timeout=0.3):
                pass
        # ...and a bounded wait() gives up client-side the same way...
        with pytest.raises(TimeoutError):
            client.wait(submitted["id"], timeout=0.3, poll=0.05)
        # ...but the server-side job is untouched: still running,
        # still drainable, result still intact.
        assert client.status(submitted["id"])["state"] == "running"
        drain(service.registry, submitted["id"])
        final = client.wait(submitted["id"], timeout=30.0)
        assert final["state"] == "done"
        assert client.result_text(submitted["id"]).endswith("\n")

