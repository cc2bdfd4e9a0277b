"""Span tracer: NDJSON trace events with a Chrome-trace exporter.

A *span* wraps one operational phase — claim a task, run a cell,
publish a summary — and records its monotonic-clock duration plus a
parent/child relationship so nested phases reconstruct into a tree.
Events append to an NDJSON file (one JSON object per line) as each
span *closes*; a SIGKILLed worker loses at most its open spans, never
the closed ones already flushed.

Disabled by default and deliberately near-free when disabled:
:func:`span` checks one module global and yields without allocating.
Enable with :func:`configure` (wired to ``repro sweep --trace`` /
``repro sweep-worker --trace``), convert with
``repro trace --chrome out.json --spans spans.ndjson`` — the output
loads straight into ``chrome://tracing`` / Perfetto.

Like every part of :mod:`repro.obs`, tracing lives outside simulated
time: timestamps come from the host's monotonic clock and never feed
the replayed market timeline (``no-obs-in-sim`` enforces the scope).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

_lock = threading.Lock()
_path: Path | None = None
_epoch: float = 0.0
_ids = itertools.count(1)
_stack = threading.local()


def configure(path: str | os.PathLike | None) -> None:
    """Start (or, with ``None``, stop) appending span events to *path*."""
    global _path, _epoch
    with _lock:
        if path is None:
            _path = None
            return
        _path = Path(path)
        _path.parent.mkdir(parents=True, exist_ok=True)
        _epoch = time.monotonic()


def configured() -> bool:
    return _path is not None


def _parents() -> list[int]:
    stack = getattr(_stack, "ids", None)
    if stack is None:
        stack = _stack.ids = []
    return stack


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Trace the wrapped block as one span; no-op when unconfigured."""
    if _path is None:
        yield
        return
    span_id = next(_ids)
    stack = _parents()
    parent_id = stack[-1] if stack else None
    stack.append(span_id)
    started = time.monotonic()
    try:
        yield
    finally:
        ended = time.monotonic()
        stack.pop()
        event = {
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "ts_us": int((started - _epoch) * 1e6),
            "dur_us": int((ended - started) * 1e6),
            "args": {k: v for k, v in sorted(attrs.items())},
        }
        line = json.dumps(event, sort_keys=True)
        with _lock:
            if _path is None:
                return
            # repro-lint: ignore[durable-publish] append-only diagnostics log, not shared fleet state
            with open(_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


def load_events(path: str | os.PathLike) -> list[dict]:
    """Parse an NDJSON span file, keeping only the lines that parse to
    a JSON object: torn last lines and foreign lines are skipped."""
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events


def chrome_trace(events: list[dict]) -> dict:
    """Convert span events to the Chrome trace-event JSON object."""
    trace_events = []
    for event in events:
        args = dict(event.get("args") or {})
        if event.get("parent_id") is not None:
            args["parent_span"] = event["parent_id"]
        args["span"] = event.get("span_id")
        trace_events.append(
            {
                "ph": "X",
                "name": event.get("name", "?"),
                "ts": event.get("ts_us", 0),
                "dur": event.get("dur_us", 0),
                "pid": event.get("pid", 0),
                "tid": event.get("tid", 0),
                "args": args,
            }
        )
    trace_events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def chrome_trace_text(events: list[dict]) -> str:
    """The Chrome trace as canonical JSON text (the CLI writes it)."""
    return json.dumps(chrome_trace(events), indent=2, sort_keys=True) + "\n"
