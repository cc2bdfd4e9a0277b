"""End-to-end telemetry tests for the fleet observability plane.

The load-bearing contract: instrumentation is write-only with respect
to results.  A metrics-enabled distributed sweep must stay
byte-identical to a serial run — telemetry rides alongside the result
records (``seconds``/``attempt`` on :class:`CellResult`), never inside
the summaries.  On top of that, the operator surfaces get exercised
for real: ``repro top`` merging live worker snapshots, ``repro sweep
--profile``'s slowest-cells table, ``GET /metrics`` on the serve
front door, and the restart/lost-lease telemetry in job status.
"""

import json
import os
import threading
import time
import urllib.request

import pytest

import repro.cli as cli
from repro import obs
from repro.serve import JobRegistry, SweepClient, SweepService
from repro.sweep import runner as runner_mod
from repro.sweep.cache import SweepCache, sweep_out_text
from repro.sweep.distrib import DistributedSweepRunner, SweepWorker, TaskQueue
from repro.sweep.runner import SweepRunner, task_order
from repro.sweep.scenario import ScenarioGrid

SPEC = {"workload": "LiR", "theta": [0.7, 1.0], "predictor": "oracle", "seed": 0}


@pytest.fixture()
def fake_run_scenario(monkeypatch):
    """Replace the simulation with an instant deterministic stub."""

    def fake(scenario, context=None, bank_cache=None, dataset_path=None):
        # Every SUMMARY_COLUMNS key, so the CLI's progress line and
        # aggregate table render over the stub.
        return {
            "cost": scenario.theta,
            "jct_hours": 1.0,
            "free_step_fraction": 0.5,
            "refund_fraction": 0.1,
            "overhead_fraction": 0.01,
            "label": scenario.label(),
        }

    monkeypatch.setattr(runner_mod, "run_scenario", fake)


@pytest.fixture(autouse=True)
def fresh_registry():
    """Process-global registry: isolate each test's count assertions."""
    obs.REGISTRY.reset()
    yield
    obs.REGISTRY.reset()


def counter_total(snapshot: dict, name: str) -> float:
    return sum(
        c["value"] for c in snapshot["counters"] if c["name"] == name
    )


def drain_in_thread(queue_root, worker_id):
    queue = TaskQueue.attach(queue_root, wait_seconds=10.0)
    SweepWorker(queue, worker_id=worker_id, poll_interval=0.01).run()


class TestByteIdentity:
    def test_instrumented_distributed_run_matches_serial(
        self, tmp_path, fake_run_scenario
    ):
        grid = ScenarioGrid.from_spec(SPEC)
        expected = sweep_out_text(SweepRunner(jobs=1).run(grid).summaries())
        obs.REGISTRY.reset()  # drop the serial run's telemetry

        cache = SweepCache(tmp_path / "cache", fsync=False)
        runner = DistributedSweepRunner(
            cache=cache, jobs=0, poll_interval=0.01, fsync=False
        )
        threads = [
            threading.Thread(
                target=drain_in_thread, args=(cache.queue_root, f"w{i}")
            )
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            result = runner.run(grid)
        finally:
            for thread in threads:
                thread.join()

        # The telemetry-enabled fleet reproduces the serial bytes.
        assert sweep_out_text(result.summaries()) == expected
        # Telemetry rides on the cell results without touching them.
        assert all(cell.attempt >= 1 for cell in result.cells)
        # The coordinator captured and absorbed the fleet's metrics
        # before retiring the queue.
        assert runner.fleet_metrics is not None
        snap = obs.REGISTRY.snapshot()
        assert counter_total(snap, "repro_queue_claims_total") >= len(
            list(grid)
        )
        assert any(
            h["name"] == "repro_worker_cell_seconds" and sum(h["counts"]) > 0
            for h in snap["histograms"]
        )


class TestTopCommand:
    def test_top_merges_two_worker_snapshots(
        self, tmp_path, fake_run_scenario, capsys
    ):
        cells = task_order(list(ScenarioGrid.from_spec(SPEC)), jobs=2)
        cache = SweepCache(tmp_path / "cells", fsync=False)
        queue = TaskQueue.create(
            cache.queue_root, cells, cache_path="..", fsync=False
        )
        # Each worker drains one cell and publishes its snapshot on the
        # way (start + final flush of its MetricsPublisher).
        SweepWorker(queue, worker_id="w1", poll_interval=0.01, max_cells=1).run()
        SweepWorker(queue, worker_id="w2", poll_interval=0.01, max_cells=1).run()

        assert cli.main(["top", str(queue.root)]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 worker(s)" in out
        assert "w1" in out and "w2" in out
        assert "done=2" in out

    def test_top_before_any_snapshot_reports_empty(self, tmp_path, capsys):
        cells = task_order(list(ScenarioGrid.from_spec(SPEC)), jobs=2)
        cache = SweepCache(tmp_path / "cells", fsync=False)
        queue = TaskQueue.create(
            cache.queue_root, cells, cache_path="..", fsync=False
        )
        assert cli.main(["top", str(queue.root)]) == 0
        out = capsys.readouterr().out
        assert "depth=2" in out
        assert "no worker snapshots published yet" in out

    def test_top_without_queue_dir_is_an_error(self, tmp_path, capsys):
        assert cli.main(["top", str(tmp_path / "absent")]) == 2
        assert "no queue directory" in capsys.readouterr().err


class TestProfileFlag:
    def test_profile_prints_slowest_cells_table(
        self, tmp_path, fake_run_scenario, capsys
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        spans = tmp_path / "spans.ndjson"
        try:
            rc = cli.main([
                "sweep",
                "--spec", str(spec_path),
                "--cache-dir", str(tmp_path / "cache"),
                "--profile", "1",
                "--trace", str(spans),
            ])
        finally:
            obs.trace.configure(None)
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: 1 slowest cell(s)" in out
        assert "wall (s)" in out and "attempt" in out
        assert "seed=0" in out
        # The span log converts to a Chrome trace holding one complete
        # ("X") cell event per executed cell.
        chrome = tmp_path / "chrome.json"
        assert cli.main(["trace", "--chrome", str(chrome), "--spans", str(spans)]) == 0
        events = json.loads(chrome.read_text())["traceEvents"]
        cells = [e for e in events if e["name"] == "cell"]
        assert len(cells) == 2
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in cells)

    def test_profile_with_everything_cached_is_empty(
        self, tmp_path, fake_run_scenario, capsys
    ):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC))
        args = [
            "sweep", "--spec", str(spec_path),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert cli.main(args) == 0
        capsys.readouterr()
        # Resumed run: every cell is a cache hit, nothing executed.
        assert cli.main([*args, "--resume", "--profile"]) == 0
        assert "profile: 0 slowest cell(s)" in capsys.readouterr().out


class TestSpanTracing:
    def test_pool_workers_trace_one_cell_span_per_cell(
        self, tmp_path, fake_run_scenario
    ):
        grid = ScenarioGrid.from_axes(
            approach="single_spot",
            workload=["LiR", "LoR"],
            instance=["r4.large", "r4.xlarge"],
            seed=[0, 1],
        )
        spans = tmp_path / "spans.ndjson"
        obs.trace.configure(spans)
        try:
            SweepRunner(jobs=2).run(grid)
        finally:
            obs.trace.configure(None)
        cells = [e for e in obs.trace.load_events(spans) if e["name"] == "cell"]
        assert sorted(e["args"]["cell"] for e in cells) == sorted(
            f"seed={s.seed} {s.label()}" for s in grid
        )
        # Traced by the pool workers that ran them, not the parent.
        assert os.getpid() not in {e["pid"] for e in cells}

    def test_chrome_keeps_only_span_objects(self, tmp_path):
        spans = tmp_path / "spans.ndjson"
        obs.trace.configure(spans)
        try:
            with obs.trace.span("cell", cell="seed=0 a"):
                pass
        finally:
            obs.trace.configure(None)
        span_line = spans.read_text(encoding="utf-8")
        spans.write_text(
            "[1]\nnull\n" + span_line + '{"name": "torn", "sp', encoding="utf-8"
        )
        chrome = tmp_path / "chrome.json"
        assert cli.main(["trace", "--chrome", str(chrome), "--spans", str(spans)]) == 0
        events = json.loads(chrome.read_text())["traceEvents"]
        assert [(e["name"], e["args"]["cell"]) for e in events] == [("cell", "seed=0 a")]


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


def drain(registry: JobRegistry, job_id: str) -> None:
    queue = TaskQueue.attach(registry.queue_dir(job_id), wait_seconds=10.0)
    SweepWorker(queue, poll_interval=0.01).run()


def wait_done(client: SweepClient, job_id: str, timeout=10.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never settled")


class TestServeTelemetry:
    def test_metrics_endpoint_serves_prometheus_text(self, service, client):
        submitted = client.submit(SPEC, jobs=0)
        drain(service.registry, submitted["id"])
        wait_done(client, submitted["id"])

        with urllib.request.urlopen(service.url + "/metrics") as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        # Queue and worker series from the drained sweep...
        assert "# TYPE repro_queue_claims_total counter" in body
        assert "# TYPE repro_worker_cell_seconds histogram" in body
        # ...and the HTTP plane's own request accounting.
        assert "# TYPE repro_http_requests_total counter" in body
        assert 'route="/v1/sweeps"' in body

    def test_status_reports_restart_and_lease_telemetry(
        self, service, client
    ):
        submitted = client.submit(SPEC, jobs=0)
        running = client.status(submitted["id"])
        assert running["worker_restarts"] == 0
        assert running["lost_leases"] == 0

        drain(service.registry, submitted["id"])
        settled = wait_done(client, submitted["id"])
        assert settled["state"] == "done"
        # Settled jobs keep the counts in their durable record: no
        # worker restarted and no lease was lost.
        assert settled["worker_restarts"] == 0
        assert settled["lost_leases"] == 0
