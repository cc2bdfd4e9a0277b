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
from contextlib import contextmanager
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


def _decode(raw: bytes):
    """A reply body as JSON, else as text, else ``None`` when empty."""
    if not raw:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.decode("utf-8", "replace")


def _check(response: http.client.HTTPResponse) -> None:
    """Raise :class:`SweepServiceError` unless ``response`` is 2xx; the
    body is read only then."""
    if response.status // 100 != 2:
        raise SweepServiceError(response.status, _decode(response.read()))


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
    @contextmanager
    def _open(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[http.client.HTTPResponse]:
        """One request on its own connection; yields the response with
        its body unread, and closes the connection after."""
        conn = http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if payload is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            yield conn.getresponse()
        finally:
            conn.close()

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[int, dict, object]:
        with self._open(method, path, body) as response:
            return response.status, dict(response.headers), _decode(response.read())

    def _checked(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> tuple[dict, bytes]:
        """The headers and raw body of a 2xx reply."""
        with self._open(method, path, body) as response:
            _check(response)
            return dict(response.headers), response.read()

    def _json(self, method: str, path: str, body: Optional[dict] = None):
        return _decode(self._checked(method, path, body)[1])

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
        headers, raw = self._checked(
            "GET", f"/v1/sweeps/{job_id}/events?{urlencode(query)}"
        )
        events = [json.loads(line) for line in raw.splitlines() if line]
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
        query = urlencode({"follow": 1, "cursor": cursor})
        path = f"/v1/sweeps/{job_id}/events?{query}"
        with self._open("GET", path, timeout=timeout) as response:
            _check(response)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def result_text(self, job_id: str) -> str:
        """The assembled result — the exact ``repro sweep --out`` bytes."""
        return self._checked("GET", f"/v1/sweeps/{job_id}/result")[1].decode("utf-8")

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

