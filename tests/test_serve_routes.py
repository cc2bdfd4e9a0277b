"""The ``repro serve`` request path, pinned route by route.

Each (method, path) gets one status, one error body and one
``repro_http_requests_total`` label set, and the client reads every
reply the same way.  Same harness as the API contract tests: an
ephemeral-port service over coordinate-only jobs, drained by an
in-thread worker running a stubbed ``run_scenario``.
"""

import time

import pytest

from repro import obs
from repro.serve import JobRegistry, SweepClient, SweepService, SweepServiceError
from repro.sweep import runner as runner_mod
from repro.sweep.distrib import SweepWorker, TaskQueue

DONE_SPEC = {"workload": "LiR", "theta": [0.4, 0.7, 1.0], "predictor": "oracle", "seed": 0}
RUNNING_SPEC = {"workload": "LiR", "theta": [0.4], "predictor": "oracle", "seed": 1}
NEW_SPEC = {"workload": "LiR", "theta": [0.5], "predictor": "oracle", "seed": 2}
UNKNOWN = "deadbeef00000000"


def wait_for(predicate, timeout: float = 30.0, poll: float = 0.01) -> None:
    """Spin until ``predicate()`` holds (monotonic-bounded)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(poll)


@pytest.fixture()
def served(tmp_path, monkeypatch):
    """A service holding a drained 3-cell job and an undrained one.

    Both are made through the registry, not over HTTP, so no request of
    the set-up is still being counted when a test's request starts.
    """

    def fake(scenario, context=None, bank_cache=None, dataset_path=None):
        return {"cost": scenario.theta, "label": scenario.label()}

    monkeypatch.setattr(runner_mod, "run_scenario", fake)
    registry = JobRegistry(
        tmp_path / "cache", jobs=0, fsync=False, poll_interval=0.02
    )
    service = SweepService(registry).start()
    try:
        done, _ = registry.submit(DONE_SPEC, jobs=0)
        running, _ = registry.submit(RUNNING_SPEC, jobs=0)
        queue = TaskQueue.attach(registry.queue_dir(done["id"]), wait_seconds=10.0)
        SweepWorker(queue, poll_interval=0.01).run()
        wait_for(lambda: registry.job(done["id"])["state"] == "done")
        ids = {"done": done["id"], "running": running["id"], "unknown": UNKNOWN}
        yield SweepClient(service.url, timeout=30.0), ids
    finally:
        service.close()


def requests_total() -> dict:
    """``repro_http_requests_total`` by (route, method, status)."""
    return {
        (c["labels"]["route"], c["labels"]["method"], c["labels"]["status"]): c["value"]
        for c in obs.REGISTRY.snapshot()["counters"]
        if c["name"] == "repro_http_requests_total"
    }


#: (method, path, body) -> (status, route label, start of the error
#: text).  ``{done}``, ``{running}`` and ``{unknown}`` name a drained
#: job, an undrained one and an id no job has.
ROUTES = [
    ("GET", "/healthz", None, 200, "/healthz", None),
    ("GET", "/metrics", None, 200, "/metrics", None),
    ("GET", "/v1/sweeps", None, 200, "/v1/sweeps", None),
    ("POST", "/v1/sweeps", {"spec": NEW_SPEC, "jobs": 0}, 201, "/v1/sweeps", None),
    (
        "POST", "/v1/sweeps", {"spec": NEW_SPEC, "surprise": 1}, 400, "/v1/sweeps",
        "unknown submit field(s): surprise",
    ),
    (
        "POST", "/v1/sweeps", {"spec": {"bogus": 1}}, 422, "/v1/sweeps",
        "invalid sweep spec: ",
    ),
    ("GET", "/v1/sweeps/{done}", None, 200, "/v1/sweeps/{id}", None),
    ("GET", "/v1/sweeps/{done}/events", None, 200, "/v1/sweeps/{id}/events", None),
    (
        "GET", "/v1/sweeps/{done}/events?follow=0", None, 200,
        "/v1/sweeps/{id}/events", None,
    ),
    (
        "GET", "/v1/sweeps/{done}/events?follow=0&cursor=x", None, 400,
        "/v1/sweeps/{id}/events", "cursor must be an integer: 'x'",
    ),
    ("GET", "/v1/sweeps/{done}/result", None, 200, "/v1/sweeps/{id}/result", None),
    (
        "GET", "/v1/sweeps/{running}/result", None, 409, "/v1/sweeps/{id}/result",
        "job {running} has no result (state: running)",
    ),
    ("POST", "/v1/sweeps/{running}/cancel", None, 200, "/v1/sweeps/{id}/cancel", None),
    (
        "GET", "/v1/sweeps/{unknown}", None, 404, "/v1/sweeps/{id}",
        "unknown job: {unknown}",
    ),
    (
        "GET", "/v1/sweeps/{unknown}/events?follow=0", None, 404,
        "/v1/sweeps/{id}/events", "unknown job: {unknown}",
    ),
    (
        "GET", "/v1/sweeps/{unknown}/result", None, 404, "/v1/sweeps/{id}/result",
        "unknown job: {unknown}",
    ),
    (
        "POST", "/v1/sweeps/{unknown}/cancel", None, 404, "/v1/sweeps/{id}/cancel",
        "unknown job: {unknown}",
    ),
    # A known path asked for with another method keeps its label.
    (
        "GET", "/v1/sweeps/{done}/cancel", None, 404, "/v1/sweeps/{id}/cancel",
        "no such route: /v1/sweeps/{done}/cancel",
    ),
    ("POST", "/healthz", None, 404, "/healthz", "no such route: /healthz"),
    ("GET", "/v2/x", None, 404, "<unmatched>", "no such route: /v2/x"),
    (
        "POST", "/v1/sweeps/{done}/pause", None, 404, "<unmatched>",
        "no such route: /v1/sweeps/{done}/pause",
    ),
]


class TestRouteTable:
    @pytest.mark.parametrize(
        "method, path, body, status, label, error",
        ROUTES,
        ids=[f"{r[0]} {r[1]} {r[3]}" for r in ROUTES],
    )
    def test_status_error_and_label(self, served, method, path, body, status, label, error):
        client, ids = served
        before = requests_total()
        got, _headers, payload = client._request(method, path.format(**ids), body)
        assert got == status, payload
        if error is not None:
            assert set(payload) == {"error"}
            assert payload["error"].startswith(error.format(**ids)), payload
        # The server counts a reply after writing it, so the client can
        # hold the whole body before the counter moves.
        wait_for(lambda: sum(requests_total().values()) > sum(before.values()))
        after = requests_total()
        moved = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
        assert moved == {(label, method, str(status)): 1}


class TestClientReplies:
    def test_events_without_limit_reads_the_whole_page(self, served):
        client, ids = served
        events, cursor = client.events(ids["done"])
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert cursor == 3

    def test_stream_on_unknown_job_raises_404(self, served):
        client, _ids = served
        with pytest.raises(SweepServiceError) as excinfo:
            list(client.stream_events(UNKNOWN))
        assert excinfo.value.status == 404
        assert excinfo.value.payload == {"error": f"unknown job: {UNKNOWN}"}
