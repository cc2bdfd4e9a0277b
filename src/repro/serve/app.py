"""The ``repro serve`` HTTP front door — stdlib only.

A :class:`SweepService` wraps a threaded ``http.server`` around a
:class:`~repro.serve.jobs.JobRegistry`:

* ``POST /v1/sweeps`` — submit a spec (201 created, 200 if the same
  grid is already registered; 422 echoes the CLI's exact
  ``invalid sweep spec: ...`` rejection text);
* ``GET /v1/sweeps`` — list jobs;
* ``GET /v1/sweeps/{id}`` — record + live queue depth + ledger counts;
* ``GET /v1/sweeps/{id}/events`` — per-cell completions as NDJSON;
  ``?follow=1`` (default) streams until the job settles and closes
  with one non-event state line, ``?follow=0`` returns a page and the
  next cursor in ``X-Repro-Next-Cursor``;
* ``GET /v1/sweeps/{id}/result`` — the assembled summary,
  byte-identical to ``repro sweep --out`` for the same spec (409 until
  the job is done);
* ``POST /v1/sweeps/{id}/cancel`` — graceful cancellation;
* ``GET /healthz`` — liveness.

Every request goes through one route table, ``_Handler._ROUTES``: a
row is a method, a path pattern (an ``{id}`` segment matches a job id)
and a handler, and the pattern is the route's metrics label.  A new
route is one row and one handler.

One request, one worker thread (``ThreadingHTTPServer``): long-lived
event streams coexist with status polls from other tenants.  A client
that walks away mid-stream costs the server one ``BrokenPipeError`` —
the job itself never notices.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.serve.jobs import (
    JobConflictError,
    JobRegistry,
    SpecValidationError,
    UnknownJobError,
)
from repro.serve.streams import iter_job_events
from repro.sweep.cache import canonical_json

#: Body fields ``POST /v1/sweeps`` accepts; anything else is a typo
#: worth a 400, not something to silently drop.
_SUBMIT_FIELDS = {"spec", "jobs", "lease_ttl", "resume"}


def _match(pattern: str, parts: list) -> Optional[list]:
    """The path segments ``{id}`` slots take, if ``parts`` fits
    ``pattern``; ``None`` otherwise."""
    expected = pattern.strip("/").split("/")
    if len(expected) != len(parts):
        return None
    slots = []
    for want, got in zip(expected, parts):
        if want == "{id}":
            slots.append(got)
        elif want != got:
            return None
    return slots


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    @property
    def service(self) -> "SweepService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if not self.service.quiet:
            super().log_message(format, *args)

    def _send(
        self, status: int, body: bytes, content_type: str, headers: Optional[dict] = None
    ) -> None:
        """Write one fixed-length reply."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        body = (canonical_json(payload) + "\n").encode("utf-8")
        self._send(status, body, "application/json")

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routing --------------------------------------------------------
    def send_response(self, code, message=None):
        # Remember the status for the request metric; streams that are
        # later torn down by the client still count as what we sent.
        self._obs_status = code
        super().send_response(code, message)

    def do_GET(self):  # noqa: N802 — stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 — stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        parts = [p for p in path.split("/") if p]
        label, handler, slots = "<unmatched>", None, []
        for route_method, pattern, route_handler in self._ROUTES:
            matched = _match(pattern, parts)
            if matched is None:
                continue
            # A known path asked for with another method keeps its
            # route's label (and still gets the 404 below).
            label = pattern
            if route_method == method:
                handler, slots = route_handler, matched
                break
        self._obs_status = 0
        started = time.monotonic()
        try:
            if handler is None:
                self._send_json(404, {"error": f"no such route: {path}"})
            else:
                handler(self, *slots)
        except SpecValidationError as error:
            self._send_json(422, {"error": str(error)})
        except UnknownJobError as error:
            self._send_json(404, {"error": str(error)})
        except JobConflictError as error:
            self._send_json(409, {"error": str(error)})
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream; the job is unaffected.
            self.close_connection = True
        finally:
            obs.observe(
                "repro_http_request_seconds",
                time.monotonic() - started,
                route=label,
            )
            obs.inc(
                "repro_http_requests_total",
                route=label,
                method=method,
                status=str(self._obs_status),
            )

    # -- handlers -------------------------------------------------------
    def _get_healthz(self):
        self._send_json(200, {"ok": True})

    def _get_metrics(self):
        """Prometheus text: this process's registry merged with the
        latest snapshot each attached worker published to its job's
        queue — one scrape sees the whole fleet, external workers
        included."""
        snapshots = [obs.REGISTRY.snapshot()]
        snapshots.extend(self.service.registry.live_metric_snapshots())
        text = obs.prometheus_text(obs.merge_snapshots(snapshots))
        self._send(200, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8")

    def _get_jobs(self):
        self._send_json(200, {"jobs": self.service.registry.list_jobs()})

    def _post_submit(self):
        payload = self._read_body()
        unknown = set(payload) - _SUBMIT_FIELDS
        if unknown:
            raise ValueError(
                f"unknown submit field(s): {', '.join(sorted(unknown))}"
            )
        if "spec" not in payload:
            raise ValueError("submit body needs a 'spec' object")
        kwargs = {}
        if "jobs" in payload:
            jobs = payload["jobs"]
            if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
                raise ValueError(f"jobs must be an integer >= 0: {jobs!r}")
            kwargs["jobs"] = jobs
        if "lease_ttl" in payload:
            ttl = payload["lease_ttl"]
            if not isinstance(ttl, (int, float)) or isinstance(ttl, bool) or ttl <= 0:
                raise ValueError(f"lease_ttl must be a positive number: {ttl!r}")
            kwargs["lease_ttl"] = float(ttl)
        if "resume" in payload:
            if not isinstance(payload["resume"], bool):
                raise ValueError("resume must be a boolean")
            kwargs["resume"] = payload["resume"]
        record, created = self.service.registry.submit(payload["spec"], **kwargs)
        self._send_json(
            201 if created else 200,
            {
                "id": record["id"],
                "state": record["state"],
                "total": record["total"],
                "created": created,
            },
        )

    def _get_status(self, job_id: str):
        self._send_json(200, self.service.registry.status(job_id))

    def _get_events(self, job_id: str):
        registry = self.service.registry
        query = parse_qs(urlsplit(self.path).query)
        cursor = self._int_param(query, "cursor", 0)
        follow = self._int_param(query, "follow", 1)
        limit = self._int_param(query, "limit", 0)
        if not follow:
            events, next_cursor = registry.events_page(
                job_id, cursor, limit or None
            )
            lines = "".join(canonical_json(e) + "\n" for e in events)
            self._send(
                200,
                lines.encode("utf-8"),
                "application/x-ndjson",
                {"X-Repro-Next-Cursor": str(next_cursor)},
            )
            return
        registry.job(job_id)  # 404 before committing to a stream
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # Close-delimited stream: no Content-Length, the end of the
        # job is the end of the body.
        self.send_header("Connection", "close")
        self.end_headers()
        for event in iter_job_events(
            registry, job_id, cursor, stop=self.service.stream_stop
        ):
            self.wfile.write((canonical_json(event) + "\n").encode("utf-8"))
            self.wfile.flush()
        record = registry.job(job_id)
        final = {
            "state": record["state"],
            "completed": registry.completed(job_id),
            "total": record["total"],
        }
        self.wfile.write((canonical_json(final) + "\n").encode("utf-8"))
        self.wfile.flush()
        self.close_connection = True

    def _get_result(self, job_id: str):
        text = self.service.registry.result_text(job_id)
        # Exact bytes: this body is the --out file, not a re-encoding.
        self._send(200, text.encode("utf-8"), "application/json")

    def _post_cancel(self, job_id: str):
        self._send_json(200, self.service.registry.cancel(job_id))

    @staticmethod
    def _int_param(query: dict, name: str, default: int) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise ValueError(f"{name} must be an integer: {values[-1]!r}")

    #: Every route: method, path pattern, handler.  An ``{id}`` segment
    #: matches any one path segment and reaches the handler as the job
    #: id.  The pattern is also the route's metrics label, so job ids
    #: never mint label sets of their own.
    _ROUTES = (
        ("GET", "/healthz", _get_healthz),
        ("GET", "/metrics", _get_metrics),
        ("GET", "/v1/sweeps", _get_jobs),
        ("POST", "/v1/sweeps", _post_submit),
        ("GET", "/v1/sweeps/{id}", _get_status),
        ("GET", "/v1/sweeps/{id}/events", _get_events),
        ("GET", "/v1/sweeps/{id}/result", _get_result),
        ("POST", "/v1/sweeps/{id}/cancel", _post_cancel),
    )


class SweepService:
    """A running ``repro serve`` instance (own the sockets and threads).

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``self.host``/``self.port`` after construction.  ``start()`` runs
    the accept loop on a background thread (in-process tests);
    :meth:`serve_forever` runs it in the foreground (the CLI).
    """

    def __init__(
        self,
        registry: JobRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.registry = registry
        self.quiet = quiet
        #: Set on close: every open event stream ends at its next poll.
        self.stream_stop = threading.Event()
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "SweepService":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.2)

    def close(self) -> None:
        """Stop accepting, end open streams, park running jobs.

        Jobs are *not* cancelled: their records stay ``running`` on
        disk and a later server (or the same one restarted) re-adopts
        them with resume semantics.
        """
        self.stream_stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.registry.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
