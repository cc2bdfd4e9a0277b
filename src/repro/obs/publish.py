"""Durable per-worker metric snapshots on the queue's shared mount.

The shared filesystem stays the fleet's only "network": each worker
periodically publishes its registry snapshot to
``<queue>/metrics/<worker>.json`` through
:func:`repro.sweep.cache.atomic_publish`, the helper the queue itself
publishes through (temp file → fsync → ``os.replace`` → directory
fsync, temp removed on failure), so a reader never sees a torn
snapshot and a host crash never surfaces an empty one.

Consumers:

* ``repro top <queue-dir>`` merges every snapshot into a live fleet
  view (throughput, slowest cells, quarantine depth);
* the coordinator absorbs the merged fleet snapshot into its own
  registry just before retiring a finished queue, so a later
  ``GET /metrics`` still exposes fleet totals;
* ``GET /v1/sweeps/{id}`` sums lease-overthrow counters across
  snapshots to report lost leases.

Imports from :mod:`repro.sweep.cache` are deferred into function
bodies: ``cache.py`` itself imports :mod:`repro.obs` for hit/miss
counters, and the lazy import keeps that cycle one-way at load time.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Callable

from repro.obs import metrics as metrics_mod

#: Subdirectory of the queue root holding one snapshot per worker.
#: ``TaskQueue.create`` allowlists it next to ``fault-state``, and the
#: queue's scan helpers never descend into it.
METRICS_SUBDIR = "metrics"

#: Default seconds between periodic publishes; workers clamp this
#: against their lease TTL so a snapshot lands at least once per
#: heartbeat generation.
DEFAULT_PUBLISH_INTERVAL = 5.0

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def metrics_dir(queue_root: str | os.PathLike) -> Path:
    return Path(queue_root) / METRICS_SUBDIR


def snapshot_payload(
    worker_id: str,
    *,
    uptime_seconds: float,
    executed: int = 0,
    failed: int = 0,
    retried: int = 0,
    slowest_cells: list[dict] | None = None,
    registry: metrics_mod.MetricsRegistry | None = None,
) -> dict:
    """Build one worker's publishable snapshot document."""
    registry = metrics_mod.REGISTRY if registry is None else registry
    return {
        "schema": 1,
        "worker": worker_id,
        "pid": os.getpid(),
        "published_unix": time.time(),
        "uptime_seconds": float(uptime_seconds),
        "executed": int(executed),
        "failed": int(failed),
        "retried": int(retried),
        "slowest_cells": list(slowest_cells or ()),
        "metrics": registry.snapshot(),
    }


def publish_snapshot(
    queue_root: str | os.PathLike,
    worker_id: str,
    payload: dict,
    *,
    fsync: bool = True,
) -> Path:
    """Atomically (and durably) publish one worker's snapshot."""
    from repro.sweep.cache import atomic_publish

    directory = metrics_dir(queue_root)
    directory.mkdir(parents=True, exist_ok=True)
    name = _SAFE_NAME.sub("_", str(worker_id)) or "worker"
    final = directory / f"{name}.json"
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_publish(final, text, fsync=fsync)
    return final


def load_snapshots(queue_root: str | os.PathLike) -> list[dict]:
    """Every readable worker snapshot under the queue, name-sorted.

    Files :func:`~repro.sweep.cache.read_record` reads as absent, and
    in-flight temp files, are skipped, never fatal: a fleet view must
    render while workers are mid-publish.
    """
    from repro.sweep.cache import read_record

    directory = metrics_dir(queue_root)
    snapshots = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return snapshots
    for name in names:
        if not name.endswith(".json"):
            continue
        snapshot = read_record(directory / name)
        if snapshot is not None:
            snapshots.append(snapshot)
    return snapshots


def merge_fleet(snapshots: list[dict]) -> dict:
    """Aggregate worker snapshot documents into one fleet document."""
    workers = []
    slowest: list[dict] = []
    for snap in snapshots:
        workers.append(
            {
                "worker": snap.get("worker", "?"),
                "pid": snap.get("pid"),
                "published_unix": snap.get("published_unix"),
                "uptime_seconds": float(snap.get("uptime_seconds", 0.0)),
                "executed": int(snap.get("executed", 0)),
                "failed": int(snap.get("failed", 0)),
                "retried": int(snap.get("retried", 0)),
            }
        )
        slowest.extend(snap.get("slowest_cells", ()))
    slowest.sort(key=lambda c: (-float(c.get("seconds", 0.0)), str(c.get("name"))))
    return {
        "schema": 1,
        "workers": sorted(workers, key=lambda w: str(w["worker"])),
        "slowest_cells": slowest[:10],
        "metrics": metrics_mod.merge_snapshots(
            [snap.get("metrics", {}) for snap in snapshots]
        ),
    }


class MetricsPublisher:
    """Background thread publishing one worker's snapshot periodically.

    Publishes immediately on :meth:`start` (so a fleet view sees the
    worker the moment it joins), every ``interval`` seconds after, and
    one final time from :meth:`stop`.  Publish failures are swallowed:
    a finished sweep retires its queue directory out from under the
    publisher, and telemetry must never take a worker down with it.
    """

    def __init__(
        self,
        queue_root: str | os.PathLike,
        worker_id: str,
        payload_fn: Callable[[], dict],
        *,
        interval: float = DEFAULT_PUBLISH_INTERVAL,
        fsync: bool = True,
    ) -> None:
        self.queue_root = Path(queue_root)
        self.worker_id = worker_id
        self.payload_fn = payload_fn
        self.interval = max(0.05, float(interval))
        self.fsync = fsync
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"metrics-publisher-{worker_id}", daemon=True
        )

    def publish(self) -> None:
        try:
            publish_snapshot(
                self.queue_root, self.worker_id, self.payload_fn(), fsync=self.fsync
            )
        except OSError:
            pass

    def start(self) -> "MetricsPublisher":
        self.publish()
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.publish()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        self.publish()
