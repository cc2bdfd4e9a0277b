"""Python clients for the ``repro serve`` API — stdlib only.

:class:`SweepClient` speaks plain ``http.client`` (one connection per
request, a dedicated one per stream), so anything that can import the
repo can drive a sweep service with no extra dependencies.  Asyncio
callers wrap its calls in ``asyncio.to_thread``: the service itself
is thread-per-request, so threads *are* the concurrency primitive
here.

Timeout semantics: a client-side ``timeout`` bounds how long *this
process* waits, never how long the job runs — abandoning a poll, a
stream, or a ``wait()`` leaves the server-side job untouched.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterator, Optional
from urllib.parse import urlencode, urlsplit


class SweepServiceError(RuntimeError):
    """A non-2xx response, carrying the server's status and payload."""

    def __init__(self, status: int, payload) -> None:
        self.status = status
        self.payload = payload
        message = (
            payload.get("error") if isinstance(payload, dict) else str(payload)
        )
        super().__init__(f"HTTP {status}: {message}")


class SweepClient:
    """Synchronous client; ``base_url`` like ``http://127.0.0.1:8521``."""

    def __init__(self, base_url: str, timeout: Optional[float] = None) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"base_url must be http://host[:port]: {base_url}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    # -- transport ------------------------------------------------------
    def _connect(
        self, timeout: Optional[float] = None
    ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=self.timeout if timeout is None else timeout,
        )

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict, object]:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if payload is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw) if raw else None
            except json.JSONDecodeError:
                decoded = raw.decode("utf-8", "replace")
            return response.status, dict(response.headers), decoded
        finally:
            conn.close()

    def _json(self, method: str, path: str, body: Optional[dict] = None):
        status, _headers, payload = self._request(method, path, body)
        if status >= 400:
            raise SweepServiceError(status, payload)
        return payload

    # -- operations -----------------------------------------------------
    def submit(
        self,
        spec: dict,
        *,
        jobs: Optional[int] = None,
        lease_ttl: Optional[float] = None,
        resume: bool = False,
    ) -> dict:
        body: dict = {"spec": spec}
        if jobs is not None:
            body["jobs"] = jobs
        if lease_ttl is not None:
            body["lease_ttl"] = lease_ttl
        if resume:
            body["resume"] = True
        return self._json("POST", "/v1/sweeps", body)

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/sweeps/{job_id}")

    def jobs(self) -> list:
        return self._json("GET", "/v1/sweeps")["jobs"]

    def events(
        self, job_id: str, cursor: int = 0, limit: Optional[int] = None
    ) -> tuple[list, int]:
        """One page of done-record events, and the cursor to resume at."""
        query = {"follow": 0, "cursor": cursor}
        if limit is not None:
            query["limit"] = limit
        status, headers, payload = self._request(
            "GET", f"/v1/sweeps/{job_id}/events?{urlencode(query)}"
        )
        if status >= 400:
            raise SweepServiceError(status, payload)
        # The page body is NDJSON; _request decoded it only if it was a
        # single JSON document, so re-split from the raw text form.
        if payload is None:
            events = []
        elif isinstance(payload, str):
            events = [json.loads(line) for line in payload.splitlines() if line]
        else:
            events = [payload]
        return events, int(headers.get("X-Repro-Next-Cursor", cursor))

    def stream_events(
        self,
        job_id: str,
        cursor: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Follow the job's NDJSON stream; yields events, then the
        final state line (the one dict with a ``"state"`` key).

        ``timeout`` is the socket read timeout between lines: hitting
        it raises and drops *this connection only* — the server logs a
        broken pipe and the job runs on.
        """
        conn = self._connect(timeout=timeout)
        try:
            query = urlencode({"follow": 1, "cursor": cursor})
            conn.request("GET", f"/v1/sweeps/{job_id}/events?{query}")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError:
                    payload = raw.decode("utf-8", "replace")
                raise SweepServiceError(response.status, payload)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def result_text(self, job_id: str) -> str:
        """The assembled result — the exact ``repro sweep --out`` bytes."""
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/sweeps/{job_id}/result")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError:
                    payload = raw.decode("utf-8", "replace")
                raise SweepServiceError(response.status, payload)
            return raw.decode("utf-8")
        finally:
            conn.close()

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/v1/sweeps/{job_id}/cancel")

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll: float = 0.2,
    ) -> dict:
        """Poll until the job settles; returns the final status.

        Raises :class:`TimeoutError` after ``timeout`` seconds
        (monotonic, client-side) without settling — the job keeps
        running server-side.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] != "running":
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout}s "
                    "(client-side wait only; the job continues)"
                )
            time.sleep(poll)

