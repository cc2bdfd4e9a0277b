"""Contract tests for the ``repro serve`` HTTP API.

Every endpoint is exercised against an in-process
:class:`~repro.serve.app.SweepService` on an ephemeral port, with jobs
submitted in coordinate-only mode (``jobs=0``) and drained by
in-thread :class:`SweepWorker` instances running a stubbed
``run_scenario`` — so the full submit → status → stream → result →
cancel lifecycle runs in milliseconds while going through the real
HTTP stack, the real queue, and the real job registry.

The two contracts everything else leans on:

* ``/result`` is byte-identical to ``repro sweep --out`` for the same
  spec, and
* spec rejection carries the CLI's exact ``invalid sweep spec: ...``
  message text.
"""

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

import repro.cli as cli
from repro.serve import (
    JobRegistry,
    SweepClient,
    SweepService,
    SweepServiceError,
    job_id_for,
)
from repro.sweep import runner as runner_mod
from repro.sweep.cache import sweep_out_text
from repro.sweep.distrib import SweepWorker, TaskQueue
from repro.sweep.runner import SweepRunner
from repro.sweep.scenario import ScenarioGrid

SPEC = {"workload": "LiR", "theta": [0.7, 1.0], "predictor": "oracle", "seed": 0}
OTHER_SPEC = {"workload": "LiR", "theta": [0.4], "predictor": "oracle", "seed": 1}


@pytest.fixture()
def fake_run_scenario(monkeypatch):
    """Replace the simulation with an instant deterministic stub."""

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
    """Run one in-thread worker against the job's own queue."""
    queue = TaskQueue.attach(registry.queue_dir(job_id), wait_seconds=10.0)
    SweepWorker(queue, poll_interval=0.01, max_cells=max_cells).run()


def serial_out_text(spec) -> str:
    """What ``repro sweep --out`` would write for ``spec``."""
    result = SweepRunner(jobs=1).run(ScenarioGrid.from_spec(spec))
    return sweep_out_text(result.summaries())


class TestLifecycle:
    def test_submit_status_stream_result(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        assert submitted["created"] is True
        assert submitted["state"] == "running"
        assert submitted["total"] == 2

        status = client.status(submitted["id"])
        assert status["state"] == "running"
        assert status["queue"]["quarantined"] == 0

        drain(service.registry, submitted["id"])
        lines = list(client.stream_events(submitted["id"]))
        # N event lines, then exactly one non-event state line.
        events, final = lines[:-1], lines[-1]
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["summary"] for e in events)
        assert final == {"state": "done", "completed": 2, "total": 2}

        status = client.status(submitted["id"])
        assert status["state"] == "done"
        assert status["completed"] == 2
        # The drained per-job queue was retired with the job's success.
        assert status["queue"] == {
            "pending": 0,
            "inflight": 0,
            "done": 0,
            "quarantined": 0,
            "ledger_attempts": 0,
        }

        assert client.result_text(submitted["id"]) == serial_out_text(SPEC)

    def test_result_is_conflict_until_done(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        with pytest.raises(SweepServiceError) as excinfo:
            client.result_text(submitted["id"])
        assert excinfo.value.status == 409
        drain(service.registry, submitted["id"])
        client.wait(submitted["id"], timeout=30.0)
        assert client.result_text(submitted["id"]).endswith("\n")

    def test_cancel_running_job(self, service, client):
        submitted = client.submit(OTHER_SPEC, jobs=0)  # nobody drains it
        record = client.cancel(submitted["id"])
        assert record["state"] == "cancelled"
        assert record["cancel"]["reason"] == "cancel"
        assert record["cancel"]["pending"] == 1
        # The ledger entry is durable alongside the record ...
        ledger_path = (
            service.registry.job_dir(submitted["id"]) / "cancel.json"
        )
        assert json.loads(ledger_path.read_text())["reason"] == "cancel"
        # ... and the queue is retired, which is what tells attached
        # workers to finish their cell and exit.
        assert not service.registry.queue_dir(submitted["id"]).exists()
        # Cancelling again is idempotent; the stream ends immediately
        # with the terminal state line.
        assert client.cancel(submitted["id"])["state"] == "cancelled"
        lines = list(client.stream_events(submitted["id"]))
        assert lines == [{"state": "cancelled", "completed": 0, "total": 1}]

    def test_cancel_finished_job_conflicts(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        drain(service.registry, submitted["id"])
        client.wait(submitted["id"], timeout=30.0)
        with pytest.raises(SweepServiceError) as excinfo:
            client.cancel(submitted["id"])
        assert excinfo.value.status == 409


class TestValidation:
    def test_invalid_spec_is_422_with_cli_message_text(
        self, client, tmp_path, capsys
    ):
        bad_spec = {"bogus": 1}
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(bad_spec))
        assert cli.main(["sweep", "--spec", str(spec_file)]) == 2
        cli_message = capsys.readouterr().err.strip()
        assert cli_message.startswith("invalid sweep spec:")

        with pytest.raises(SweepServiceError) as excinfo:
            client.submit(bad_spec)
        assert excinfo.value.status == 422
        # Same rejection text whichever front door diagnosed it.
        assert excinfo.value.payload["error"] == cli_message

    def test_unknown_job_is_404(self, client):
        for job_id in ("deadbeef00000000", "not-a-job-id", "..%2f..%2fetc"):
            with pytest.raises(SweepServiceError) as excinfo:
                client.status(job_id)
            assert excinfo.value.status == 404, job_id
        with pytest.raises(SweepServiceError) as excinfo:
            client.cancel("deadbeef00000000")
        assert excinfo.value.status == 404
        with pytest.raises(SweepServiceError) as excinfo:
            client.result_text("deadbeef00000000")
        assert excinfo.value.status == 404
        with pytest.raises(SweepServiceError) as excinfo:
            client.events("deadbeef00000000")
        assert excinfo.value.status == 404

    def test_submit_body_validation_is_400(self, client):
        for body in (
            {},  # no spec
            {"spec": SPEC, "surprise": 1},  # unknown field
            {"spec": SPEC, "jobs": -1},
            {"spec": SPEC, "jobs": True},
            {"spec": SPEC, "lease_ttl": 0},
            {"spec": SPEC, "resume": "yes"},
        ):
            status, _headers, _payload = client._request(
                "POST", "/v1/sweeps", body
            )
            assert status == 400, body

    def test_unparseable_body_is_400(self, service):
        import http.client

        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/sweeps",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestIdempotency:
    def test_double_submit_returns_same_job(self, service, client):
        first = client.submit(SPEC, jobs=0)
        second = client.submit(SPEC, jobs=0)
        assert second["id"] == first["id"]
        assert second["created"] is False
        assert len(client.jobs()) == 1

    def test_spelling_differences_do_not_fork_jobs(self, service, client):
        # The id is the grid fingerprint, not the spec text: the same
        # cells written as a sub-grid spec land on the same job.
        respelled = {
            "seed": 0,
            "grids": [
                {"workload": "LiR", "theta": [0.7, 1.0], "predictor": "oracle"}
            ],
        }
        grid = ScenarioGrid.from_spec(SPEC)
        assert job_id_for(list(grid)) == job_id_for(
            list(ScenarioGrid.from_spec(respelled))
        )
        first = client.submit(SPEC, jobs=0)
        second = client.submit(respelled, jobs=0)
        assert second["id"] == first["id"]
        assert second["created"] is False

    def test_resubmit_after_done_returns_finished_job(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        drain(service.registry, submitted["id"])
        client.wait(submitted["id"], timeout=30.0)
        again = client.submit(SPEC, jobs=0)
        assert again["id"] == submitted["id"]
        assert again["state"] == "done"
        assert again["created"] is False


class TestRestartAdoption:
    def test_restarted_registry_adopts_and_finishes(
        self, tmp_path, fake_run_scenario
    ):
        cache = tmp_path / "cache"
        first = JobRegistry(cache, jobs=0, fsync=False, poll_interval=0.02)
        record, created = first.submit(SPEC, jobs=0)
        assert created
        job_id = record["id"]
        # One cell completes under the first server...
        drain(first, job_id, max_cells=1)
        wait_for(lambda: len(first.events_page(job_id)[0]) == 1)
        # ...which then dies (shutdown leaves the job running on disk).
        first.close()
        assert first.job(job_id)["state"] == "running"

        second = JobRegistry(cache, jobs=0, fsync=False, poll_interval=0.02)
        try:
            # Adoption resumes: the completed cell replays from cache
            # without a duplicate event, the remaining cell re-queues.
            drain(second, job_id)
            wait_for(lambda: second.job(job_id)["state"] == "done")
            events, _ = second.events_page(job_id)
            assert [e["seq"] for e in events] == [0, 1]
            fingerprints = [e["fingerprint"] for e in events]
            assert len(set(fingerprints)) == 2, "duplicate event after adoption"
            assert second.result_text(job_id) == serial_out_text(SPEC)
        finally:
            second.close()


class TestEventsPaging:
    def test_page_reads_only_files_at_or_past_the_cursor(
        self, tmp_path, fake_run_scenario, monkeypatch
    ):
        import pathlib

        spec = {"workload": "LiR", "theta": [0.3, 0.5, 0.7, 1.0], "predictor": "oracle"}
        registry = JobRegistry(tmp_path / "cache", jobs=0, fsync=False, poll_interval=0.02)
        try:
            record, _ = registry.submit(spec, jobs=0)
            job_id = record["id"]
            drain(registry, job_id)
            wait_for(lambda: registry.job(job_id)["state"] == "done")

            read = []
            real = pathlib.Path.read_text

            def spy(path, *args, **kwargs):
                if path.parent.name == "events":
                    read.append(path.name)
                return real(path, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "read_text", spy)
            events, cursor = registry.events_page(job_id, cursor=2)
            assert [e["seq"] for e in events] == [2, 3]
            assert cursor == 4
            # Files below the cursor are skipped by name, unread.
            assert read == ["000002.json", "000003.json"]
        finally:
            registry.close()


class TestMisc:
    def test_healthz_and_listing(self, service, client):
        status, _headers, payload = client._request("GET", "/healthz")
        assert (status, payload) == (200, {"ok": True})
        assert client.jobs() == []
        submitted = client.submit(SPEC, jobs=0)
        assert [job["id"] for job in client.jobs()] == [submitted["id"]]

    def test_unknown_route_is_404(self, client):
        status, _headers, _payload = client._request("GET", "/v2/nothing")
        assert status == 404
        status, _headers, _payload = client._request(
            "POST", "/v1/sweeps/deadbeef00000000/pause"
        )
        assert status == 404


def wait_for(predicate, timeout: float = 30.0, poll: float = 0.02) -> None:
    """Spin until ``predicate()`` holds (monotonic-bounded)."""
    import time

    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(poll)


def sample_total(metrics_text: str, series: str) -> float:
    """Sum of the Prometheus samples named exactly ``series``, over
    any labels it carries."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(series + " ") or line.startswith(series + "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


class TestServeCommand:
    """``repro serve`` as a process, whose jobs spawn real
    ``sweep-worker`` children: the path the in-process service above
    never takes."""

    def test_served_fleet_job_matches_serial_and_scrapes_fleet_metrics(
        self, tmp_path
    ):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(SPEC))
        serial = tmp_path / "serial.json"
        assert cli.main([
            "sweep", "--spec", str(spec_path), "--jobs", "1",
            "--cache-dir", str(tmp_path / "serial-cache"), "--out", str(serial),
        ]) == 0
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--cache-dir", str(tmp_path / "serve-cache"),
                "--port", "0", "--jobs", "2", "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        )
        try:
            readable, _, _ = select.select([process.stdout], [], [], 60)
            assert readable, "repro serve printed no URL within 60 s"
            line = process.stdout.readline().decode()
            url = re.search(r"serving sweeps on (http://\S+)", line).group(1)
            client = SweepClient(url, timeout=120.0)
            job_id = client.submit(SPEC, jobs=2)["id"]
            lines = list(client.stream_events(job_id))
            assert [e["seq"] for e in lines[:-1]] == [0, 1]
            assert lines[-1]["state"] == "done"
            assert client.result_text(job_id) == serial.read_text()
            status = client.status(job_id)
            assert status["worker_restarts"] == 0
            assert status["lost_leases"] == 0
            # The coordinator absorbed the workers' counters before it
            # retired the queue, so the server's own scrape shows them.
            with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
                metrics = response.read().decode()
            assert sample_total(metrics, "repro_queue_claims_total") > 0
            assert sample_total(
                metrics, 'repro_worker_cell_seconds_bucket{le="+Inf"}'
            ) >= 1
            assert "# TYPE repro_http_requests_total counter" in metrics.splitlines()
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
            err = process.stderr.read().decode()
            assert "running jobs stay adoptable on restart" in err
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
            process.stdout.close()
            process.stderr.close()
