"""The serve-side job registry: submitted sweeps as durable state.

One directory per submitted sweep under ``<cache>/serve/jobs/<id>/``:

* ``job.json`` — the job record (state machine: ``running`` →
  ``done`` / ``failed`` / ``cancelled``), published atomically so a
  crashed server never surfaces a half-written record;
* ``events/<seq>.json`` — one file per completed cell, in completion
  order, the backing store for cursor pagination and the NDJSON tail;
* ``queue/`` — the job's own PR-5 filesystem task queue (the
  coordinator's staged-manifest enqueue path, verbatim), so external
  ``repro sweep-worker`` processes can attach to a served job exactly
  as they would to a CLI sweep;
* ``result.json`` — the assembled grid-ordered summary, byte-identical
  to ``repro sweep --out`` for the same spec;
* ``cancel.json`` — the cancellation ledger entry, when cancelled.

The job id is a fingerprint of the grid's cell fingerprints, so
submitting the same spec twice is idempotent by construction: the
second submit finds the first's directory and returns it.  A restarted
server re-adopts every job left ``running`` on disk (resume semantics:
cached cells complete instantly, the rest re-enter the queue).
"""

from __future__ import annotations

import hashlib
import re
import shutil
import threading
from pathlib import Path
from typing import Optional, Union

from repro.obs import publish as obs_publish
from repro.sweep.cache import (
    SweepCache,
    atomic_publish,
    canonical_json,
    fsync_dir,
    read_record,
    sweep_out_text,
)
from repro.sweep.distrib import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    DistributedSweepRunner,
    SweepCancelled,
    TaskQueue,
)
from repro.sweep.distrib.coordinator import check_queue_policy
from repro.sweep.runner import SweepCellError
from repro.sweep.scenario import SCHEMA_VERSION, ScenarioGrid

#: Version stamp for ``job.json`` records.
SERVE_SCHEMA_VERSION = 1

#: States a job can never leave.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Shape of a valid job id (also the URL-path validator: anything else
#: is an unknown job, never a filesystem path).
_JOB_ID_RE = re.compile(r"^[0-9a-f]{16}$")


class SpecValidationError(ValueError):
    """The submitted spec was rejected — same text as the CLI path."""


class UnknownJobError(KeyError):
    """No job with that id (or the id is not even well-formed)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"unknown job: {self.job_id}"


class JobConflictError(RuntimeError):
    """The requested transition is invalid for the job's state."""


def _counter_total(snapshot: dict, name: str) -> int:
    """Sum of a counter family across all label sets in a snapshot."""
    total = 0.0
    for counter in snapshot.get("counters", []):
        if counter.get("name") == name:
            try:
                total += float(counter.get("value", 0))
            except (TypeError, ValueError):
                continue
    return int(total)


def job_id_for(scenarios) -> str:
    """The idempotency key: a fingerprint of the grid's fingerprints.

    Two submissions naming the same cells — however the spec spells
    them — are the same job.
    """
    payload = canonical_json(
        {
            "schema": SCHEMA_VERSION,
            "cells": [s.fingerprint() for s in scenarios],
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class JobRegistry:
    """Submitted sweeps, persisted under ``<cache>/serve/jobs/``.

    Args:
        cache: Shared result-cache root (or :class:`SweepCache`) every
            tenant's jobs read and write through.
        jobs: Default local worker processes per job (0 = coordinate
            only; external workers attach to the job's queue dir).
        lease_ttl / max_attempts: Per-job queue policy defaults.
            An unusable ``jobs``, ``lease_ttl`` or ``max_attempts``
            raises ``ValueError`` before any job is adopted.
        poll_interval: Tail cadence for job runner threads.
        fsync: Durability of registry and queue publishes.

    Jobs a previous server process left ``running`` are re-adopted on
    construction (resume semantics).
    """

    def __init__(
        self,
        cache: Union[str, Path, SweepCache],
        *,
        jobs: int = 1,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float = 0.1,
        fsync: bool = True,
    ) -> None:
        self.jobs = int(jobs)
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        # Checked before anything is made or adopted: every job would
        # otherwise fail in its own runner with the same error.
        check_queue_policy(self.jobs, self.lease_ttl, self.max_attempts)
        if not isinstance(cache, SweepCache):
            cache = SweepCache(cache, fsync=fsync)
        self.cache = cache
        self.poll_interval = float(poll_interval)
        self.fsync = fsync
        self.jobs_root = cache.serve_root / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._threads: dict[str, threading.Thread] = {}
        self._stops: dict[str, threading.Event] = {}
        #: Live runner per running job, for status probes that want
        #: in-flight telemetry (supervisor restart counts) a durable
        #: record can only have after the job settles.
        self._runners: dict[str, DistributedSweepRunner] = {}
        self._adopt_running_jobs()

    # -- paths ----------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root / job_id

    def _job_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def _events_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "events"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def queue_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "queue"

    # -- durable record I/O ---------------------------------------------
    def _write_record(self, record: dict) -> None:
        atomic_publish(
            self._job_path(record["id"]), canonical_json(record), fsync=self.fsync
        )

    def _load_record(self, job_id: str) -> Optional[dict]:
        return read_record(self._job_path(job_id))

    # -- lifecycle ------------------------------------------------------
    def submit(
        self,
        spec: dict,
        *,
        jobs: Optional[int] = None,
        lease_ttl: Optional[float] = None,
        resume: bool = False,
    ) -> tuple[dict, bool]:
        """Validate, register, and start a sweep; idempotent.

        Returns ``(record, created)``: ``created`` is ``False`` when an
        identical grid was already submitted (any state) — the caller
        gets the existing job instead of a duplicate.
        """
        try:
            grid = ScenarioGrid.from_spec(spec)
        except (TypeError, ValueError) as error:
            # Byte-for-byte the CLI's rejection text, so a client sees
            # the same diagnosis whichever front door it used.
            raise SpecValidationError(f"invalid sweep spec: {error}") from error
        scenarios = list(grid)
        job_id = job_id_for(scenarios)
        record = {
            "schema": SERVE_SCHEMA_VERSION,
            "id": job_id,
            "state": "running",
            "spec": spec,
            "total": len(scenarios),
            "jobs": self.jobs if jobs is None else int(jobs),
            "lease_ttl": self.lease_ttl if lease_ttl is None else float(lease_ttl),
            "max_attempts": self.max_attempts,
            "resume": bool(resume),
            "error": None,
            "failures": [],
            "cancel": None,
            "worker_restarts": 0,
            "lost_leases": 0,
        }
        with self._lock:
            existing = self._load_record(job_id)
            if existing is not None:
                return existing, False
            job_dir = self.job_dir(job_id)
            self._events_dir(job_id).mkdir(parents=True, exist_ok=True)
            if self.fsync:
                fsync_dir(job_dir)
                fsync_dir(self.jobs_root)
            self._write_record(record)
            self._start_runner(record)
        return record, True

    def _adopt_running_jobs(self) -> None:
        """Restart the runner thread of every job left ``running``.

        A previous server that crashed (or shut down) mid-sweep leaves
        the job record in ``running`` and the queue on disk; resuming
        reconciles against the shared cache, so cells that completed
        under the old server finish instantly and only the remainder
        re-executes.
        """
        with self._lock:
            for record in self.list_jobs():
                if record["state"] != "running":
                    continue
                record["resume"] = True
                self._write_record(record)
                self._start_runner(record)

    def _start_runner(self, record: dict) -> None:
        job_id = record["id"]
        stop = threading.Event()
        thread = threading.Thread(
            target=self._run_job,
            args=(record, stop),
            name=f"serve-job-{job_id}",
            daemon=True,
        )
        self._stops[job_id] = stop
        self._threads[job_id] = thread
        thread.start()

    def _run_job(self, record: dict, stop: threading.Event) -> None:
        job_id = record["id"]
        try:
            scenarios = list(ScenarioGrid.from_spec(record["spec"]))
            logged, next_seq = self.events_page(job_id)
            emitted = {event["fingerprint"] for event in logged}
            total = record["total"]

            seq_counter = {"next": next_seq}

            def on_cell(_done: int, _total: int, cell) -> None:
                fingerprint = cell.scenario.fingerprint()
                if fingerprint in emitted:
                    # An adopted job re-emits cached cells on resume;
                    # the event log already has them, and a stable log
                    # is what keeps client cursors valid.
                    return
                emitted.add(fingerprint)
                seq = seq_counter["next"]
                seq_counter["next"] = seq + 1
                self._append_event(job_id, seq, cell, total)

            runner = DistributedSweepRunner(
                cache=self.cache,
                queue_dir=self.queue_dir(job_id),
                jobs=record["jobs"],
                resume=record["resume"],
                lease_ttl=record["lease_ttl"],
                poll_interval=self.poll_interval,
                max_attempts=record["max_attempts"],
                fsync=self.fsync,
            )
            with self._lock:
                self._runners[job_id] = runner
            result = runner.run(scenarios, on_cell=on_cell, stop=stop)
        except SweepCancelled:
            # cancel()/close() owns the aftermath: a cancel finalises
            # the record and retires the queue; a shutdown leaves both
            # for the next server to adopt.
            return
        except SweepCellError as error:
            failures = [
                {"fingerprint": s.fingerprint(), "error": message}
                for s, message in error.failures
            ]
            self._finish(
                job_id,
                "failed",
                error=str(error),
                failures=failures,
                telemetry=self._job_telemetry(job_id),
            )
            return
        except Exception as error:  # noqa: BLE001 — job must record any crash
            self._finish(
                job_id,
                "failed",
                error=f"{type(error).__name__}: {error}",
                telemetry=self._job_telemetry(job_id),
            )
            return
        atomic_publish(
            self.result_path(job_id),
            sweep_out_text(result.summaries()),
            fsync=self.fsync,
        )
        self._finish(
            job_id, "done", telemetry=self._job_telemetry(job_id)
        )

    def _finish(
        self,
        job_id: str,
        state: str,
        *,
        error: Optional[str] = None,
        failures: Optional[list] = None,
        cancel: Optional[dict] = None,
        telemetry: Optional[dict] = None,
    ) -> None:
        with self._lock:
            record = self._load_record(job_id)
            if record is None or record["state"] in TERMINAL_STATES:
                return
            record["state"] = state
            record["error"] = error
            if failures is not None:
                record["failures"] = failures
            if cancel is not None:
                record["cancel"] = cancel
            if telemetry is not None:
                record.update(telemetry)
            self._write_record(record)

    def _job_telemetry(self, job_id: str) -> dict:
        """Restart and lost-lease counts: :meth:`status` reads them
        live while the job runs, and :meth:`_finish` persists them into
        the record, so a settled job's status keeps them after its
        queue retires.  A done job's queue is already gone, so the
        snapshot merge the coordinator kept
        (:attr:`DistributedSweepRunner.fleet_metrics`) is read first;
        otherwise the queue's snapshots are read live.
        """
        runner = self._runners.get(job_id)
        restarts = runner.worker_restarts if runner is not None else 0
        fleet = getattr(runner, "fleet_metrics", None)
        if fleet is None:
            fleet = obs_publish.merge_fleet(
                obs_publish.load_snapshots(self.queue_dir(job_id))
            )
        return {
            "worker_restarts": restarts,
            "lost_leases": _counter_total(
                fleet.get("metrics") or {}, "repro_lease_overthrows_total"
            ),
        }

    def live_metric_snapshots(self) -> list[dict]:
        """Registry snapshots published by workers of non-terminal jobs
        (the fleet half of the ``GET /metrics`` merge).

        Only jobs whose runner thread is alive here are read, so a
        scrape's cost follows the running jobs, not the job history.
        """
        snapshots = []
        for job_id, thread in sorted(self._threads.items()):
            if not thread.is_alive():
                continue
            record = self._load_record(job_id)
            if record is None or record["state"] in TERMINAL_STATES:
                continue
            for payload in obs_publish.load_snapshots(self.queue_dir(job_id)):
                metrics = payload.get("metrics")
                if isinstance(metrics, dict):
                    snapshots.append(metrics)
        return snapshots

    # -- events ---------------------------------------------------------
    def _append_event(self, job_id: str, seq: int, cell, total: int) -> None:
        fingerprint = cell.scenario.fingerprint()
        payload = {
            "seq": seq,
            "total": total,
            "fingerprint": fingerprint,
            "scenario": cell.scenario.to_dict(),
            "cached": bool(cell.cached),
            "bank_trainings": int(cell.bank_trainings),
            "summary": cell.summary,
        }
        atomic_publish(
            self._events_dir(job_id) / f"{seq:06d}.json",
            canonical_json(payload),
            fsync=self.fsync,
        )

    def events_page(
        self, job_id: str, cursor: int = 0, limit: Optional[int] = None
    ) -> tuple[list[dict], int]:
        """Events with ``seq >= cursor``, and the next cursor.

        The event log is append-only and sequence-named, so a cursor a
        client took before a server restart stays valid after it.  A
        file named below the cursor is skipped unread, so following a
        stream costs each poll only the events it returns.
        """
        self.job(job_id)  # 404 before paging
        cursor = max(0, int(cursor))
        events = []
        for path in sorted(self._events_dir(job_id).glob("*.json")):
            if path.stem.isdigit() and int(path.stem) < cursor:
                continue
            payload = read_record(path)
            if payload is None or int(payload.get("seq", -1)) < cursor:
                continue
            events.append(payload)
            if limit is not None and len(events) >= limit:
                break
        next_cursor = (
            max(int(e["seq"]) for e in events) + 1 if events else cursor
        )
        return events, next_cursor

    def completed(self, job_id: str) -> int:
        """How many events a known job has logged, none of them read.

        Events are published whole (:func:`atomic_publish`), so each
        visible sequence-named file is one event.
        """
        return sum(
            1 for path in self._events_dir(job_id).glob("*.json")
            if path.stem.isdigit()
        )

    # -- queries --------------------------------------------------------
    def job(self, job_id: str) -> dict:
        if not _JOB_ID_RE.match(job_id or ""):
            raise UnknownJobError(job_id)
        record = self._load_record(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        return record

    def list_jobs(self) -> list[dict]:
        records = []
        if not self.jobs_root.exists():
            return records
        for job_dir in sorted(self.jobs_root.iterdir()):
            record = self._load_record(job_dir.name)
            if record is not None:
                records.append(record)
        return records

    def status(self, job_id: str) -> dict:
        """The job record plus live queue depth and ledger counts."""
        record = self.job(job_id)
        queue_dir = self.queue_dir(job_id)
        status = dict(record)
        status["completed"] = self.completed(job_id)
        # A bare handle: a census needs no manifest, never mutates
        # queue state, and reads a retired (absent) queue as empty.
        status["queue"] = TaskQueue(queue_dir).census()
        status["queue_dir"] = str(queue_dir)
        # Telemetry: live values while the job runs (supervisor counts,
        # worker snapshots), the persisted record's after it settles.
        if record["state"] in TERMINAL_STATES:
            status["worker_restarts"] = int(record.get("worker_restarts", 0))
            status["lost_leases"] = int(record.get("lost_leases", 0))
        else:
            status.update(self._job_telemetry(job_id))
        return status

    def result_text(self, job_id: str) -> str:
        """The assembled ``--out`` bytes; only available when done."""
        record = self.job(job_id)
        if record["state"] != "done":
            raise JobConflictError(
                f"job {job_id} has no result (state: {record['state']})"
            )
        return self.result_path(job_id).read_text()

    def cancel(self, job_id: str) -> dict:
        """Stop a running job gracefully and ledger the cancellation.

        Local workers are terminated by the runner's supervisor; the
        queue is then retired (manifest removed), which is the signal
        external workers already understand — they finish their leased
        cell, fail to renew against a retired queue, and exit, so no
        task is orphaned mid-lease.  Idempotent on an already-cancelled
        job; a conflict on a finished one.
        """
        record = self.job(job_id)
        if record["state"] == "cancelled":
            return record
        if record["state"] in TERMINAL_STATES:
            raise JobConflictError(
                f"job {job_id} already {record['state']}; nothing to cancel"
            )
        stop = self._stops.get(job_id)
        thread = self._threads.get(job_id)
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=60.0)
        return self._finalize_cancel(job_id)

    def _finalize_cancel(self, job_id: str) -> dict:
        record = self.job(job_id)
        if record["state"] in TERMINAL_STATES:
            # The runner finished (or another cancel won) while we were
            # stopping: that outcome stands.
            return record
        queue_dir = self.queue_dir(job_id)
        census = TaskQueue(queue_dir).census()
        ledger = {
            "reason": "cancel",
            "pending": census["pending"],
            "inflight": census["inflight"],
            "completed": self.completed(job_id),
            "total": record["total"],
        }
        atomic_publish(
            self.job_dir(job_id) / "cancel.json",
            canonical_json(ledger),
            fsync=self.fsync,
        )
        # Retiring the queue is the graceful drain: attached workers
        # observe the manifest gone and exit after their current cell.
        shutil.rmtree(queue_dir, ignore_errors=True)
        self._finish(job_id, "cancelled", cancel=ledger)
        return self.job(job_id)

    def close(self, timeout: float = 30.0) -> None:
        """Stop every runner thread; jobs stay adoptable on disk.

        Unlike :meth:`cancel`, shutdown does not touch queue state or
        job records — a job still ``running`` on disk is exactly what
        the next server's adoption pass looks for.
        """
        for stop in list(self._stops.values()):
            stop.set()
        for thread in list(self._threads.values()):
            thread.join(timeout=timeout)
