"""The sweep-worker loop: claim, simulate, persist, repeat.

A worker is any process running :class:`SweepWorker.run` against a
queue directory — on the coordinator's machine, or on another machine
sharing the directory.  Workers are interchangeable and disposable
(the SpotTune premise applied to our own fleet): they hold no sweep
state beyond their current lease, so SIGKILLing one at any instruction
loses at most one *in-flight* cell, which re-leases to a survivor
after the TTL.

A claimed cell runs through :func:`repro.sweep.runner.execute_cell`,
the same call the serial loop and the pool workers make: it times the
cell, counts its bank trainings and captures its error, and the
``worker.cell.execute`` fault site fires inside it.  What stays here is
what only a lease needs: the heartbeat around the call, the cached
re-lease, the retry budget and quarantine, and the store — made only
after the lease is confirmed, into the same
:class:`~repro.sweep.cache.SweepCache` (trained banks into the same
:class:`~repro.sweep.banks.BankCache`, flock-guarded) that serial and
pool sweeps use, which is what keeps the distributed result
byte-identical to a serial run.
"""

from __future__ import annotations

import heapq
import os
import re
import socket
import traceback as traceback_mod
import uuid
import time
from typing import Callable, Optional

from repro import obs
from repro.obs import publish as obs_publish
from repro.sweep.banks import BankCache
from repro.sweep.cache import SweepCache
from repro.sweep.distrib import faults as faults_mod
from repro.sweep.distrib.faults import FaultPlan
from repro.sweep.distrib.lease import Heartbeat, Lease
from repro.sweep.distrib.queue import TaskQueue, done_record
from repro.sweep.distrib.retry import backoff_delay
from repro.sweep.runner import execute_cell, market_snapshot_dir


#: Worker ids become part of lease filenames, so they must be plain
#: path-safe tokens — a ``/`` would make every claim rename fail
#: (silently, as a lost race) and the worker would spin forever.
_WORKER_ID_RE = re.compile(r"[A-Za-z0-9._-]+")


def default_worker_id() -> str:
    """Fleet-unique, filesystem-safe worker identity."""
    host = socket.gethostname().split(".")[0].replace("/", "-") or "host"
    return f"{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class SweepWorker:
    """Drains one queue until the sweep completes (or a cap is hit).

    Args:
        queue: The broker directory (a :class:`TaskQueue` handle).
        worker_id: Stamp written into leases and done records.
        poll_interval: Idle sleep between claim attempts while other
            workers still hold leases.
        max_cells: Stop after executing this many cells (``repro
            sweep-worker --max-cells``); ``None`` runs until the whole
            sweep is done.
        on_cell: ``on_cell(lease, record)`` called after each cell this
            worker finishes (the CLI prints a line from it).
        on_claim: ``on_claim(lease)`` called the moment a cell is
            claimed, *before* execution — the observable the
            kill-mid-cell tests synchronise on.
        on_retry: ``on_retry(lease, error, delay)`` called when a
            failed attempt is re-queued with backoff.
        faults: Optional :class:`FaultPlan`; threaded through the
            queue, the cache, and the heartbeat so every injection
            site this worker touches fires through one plan.

    The retry budget is the queue manifest's, so the fleet agrees on it.
    """

    def __init__(
        self,
        queue: TaskQueue,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        max_cells: Optional[int] = None,
        on_cell: Optional[Callable] = None,
        on_claim: Optional[Callable] = None,
        on_retry: Optional[Callable] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.queue = queue
        if faults is not None:
            queue.faults = faults
        self.faults = queue.faults
        self.worker_id = worker_id or default_worker_id()
        if not _WORKER_ID_RE.fullmatch(self.worker_id) or (
            # These substrings are the queue's own markers: an id
            # containing them would make the worker's claim-temps
            # invisible to (or misparsed by) liveness scans.
            ".tmp" in self.worker_id
            or ".claim-" in self.worker_id
        ):
            raise ValueError(
                f"worker id {self.worker_id!r} must match "
                f"{_WORKER_ID_RE.pattern} and not contain '.tmp' or "
                "'.claim-' (it names lease files)"
            )
        self.poll_interval = poll_interval
        self.max_cells = max_cells
        self.on_cell = on_cell
        self.on_claim = on_claim
        self.on_retry = on_retry
        self.executed = 0
        self.failed = 0
        self.retried = 0
        self._started_monotonic = time.monotonic()
        #: Min-heap of the ten slowest executed cells as
        #: ``(seconds, name, attempt)`` — published with every metrics
        #: snapshot so ``repro top`` can rank the fleet's stragglers.
        self._slowest: list[tuple[float, str, int]] = []
        manifest = queue.manifest
        cache_root = queue.resolve(manifest.get("cache"))
        banks_root = queue.resolve(manifest.get("banks"))
        if cache_root is None:
            raise ValueError("queue manifest records no result cache")
        # The coordinator's SweepCache already swept stale temps.  The
        # manifest's fsync policy and this worker's fault plan apply to
        # summary stores exactly as they do to queue writes.
        self.cache = SweepCache(
            cache_root, sweep_stale=False, fsync=queue.fsync, faults=self.faults
        )
        self.bank_cache = (
            BankCache(banks_root, fsync=queue.fsync)
            if banks_root is not None
            else None
        )

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Work until the sweep completes; returns cells executed."""
        # Snapshots land at least once per heartbeat generation
        # (TTL/4), so a fleet view never lags a worker by more than a
        # liveness window.  The publisher survives queue retirement
        # (publish failures are swallowed) and its final stop() flush
        # captures the counters of the worker's last cell.
        publisher = obs_publish.MetricsPublisher(
            self.queue.root,
            self.worker_id,
            self._snapshot_payload,
            interval=min(
                obs_publish.DEFAULT_PUBLISH_INTERVAL,
                max(0.5, self.queue.lease_ttl / 4.0),
            ),
            fsync=self.queue.fsync,
        ).start()
        try:
            while not self._reached_cap():
                lease = self.queue.claim(self.worker_id)
                if lease is None:
                    if self.queue.is_complete():
                        break
                    if self.queue.retired():
                        # The queue was retired (the coordinator assembled
                        # the result and removed it) or deleted outright —
                        # there is nothing left to wait for.  Transient
                        # manifest read errors deliberately don't count.
                        break
                    # Nothing claimable: give crashed siblings' leases a
                    # chance to expire, then retry immediately if one did.
                    if self.queue.reclaim_expired():
                        continue
                    time.sleep(self.poll_interval)
                    continue
                # Claim to done record; the simulation inside is
                # execute_cell's own ``cell`` span.
                with obs.trace.span(
                    "lease",
                    cell=lease.name,
                    attempt=lease.attempt,
                    worker=self.worker_id,
                ):
                    self._run_cell(lease)
        finally:
            publisher.stop()
        return self.executed

    def _snapshot_payload(self) -> dict:
        return obs_publish.snapshot_payload(
            self.worker_id,
            uptime_seconds=time.monotonic() - self._started_monotonic,
            executed=self.executed,
            failed=self.failed,
            retried=self.retried,
            slowest_cells=self.slowest_cells(),
        )

    def slowest_cells(self) -> list[dict]:
        """The slowest executed cells, slowest first."""
        return [
            {"name": name, "seconds": seconds, "attempt": attempt}
            for seconds, name, attempt in sorted(self._slowest, reverse=True)
        ]

    def _note_cell_duration(self, lease, scenario, seconds: float) -> None:
        obs.observe("repro_worker_cell_seconds", seconds)
        name = f"seed={scenario.seed} {scenario.label()}"
        heapq.heappush(self._slowest, (seconds, name, lease.attempt))
        if len(self._slowest) > 10:
            heapq.heappop(self._slowest)

    def _reached_cap(self) -> bool:
        return self.max_cells is not None and self.executed >= self.max_cells

    # ------------------------------------------------------------------
    def _run_cell(self, lease: Lease) -> None:
        if self.on_claim is not None:
            self.on_claim(lease)
        scenario = lease.scenario
        summary = error = traceback_text = None
        from_cache = False
        if lease.attempt > 1:
            # A re-leased cell may already be persisted (its previous
            # owner crashed after the cache write): reuse instead of
            # re-simulating, so crash recovery stays effectively
            # exactly-once even at the store/done boundary.
            summary = self.cache.load(scenario)
            from_cache = summary is not None
        if summary is None and lease.attempt > self.queue.max_attempts:
            # Crash-poison: the budget was consumed entirely by claims
            # whose workers died mid-cell (a raise-poison quarantines
            # below, *at* the budget).  Executing again would just feed
            # the crash loop another process.
            self.failed += 1
            self._quarantine(
                lease,
                "attempt budget exhausted: every attempt crashed mid-cell",
                None,
                trained=0,
            )
            return
        trained = 0
        seconds = 0.0
        if summary is None:
            # The heartbeat thread renews the lease every TTL/4 for as
            # long as the simulation runs, so a slow cell is never
            # mistaken for a dead worker's.  No cache is passed: the
            # summary is stored below, once the lease is confirmed.
            with Heartbeat(lease) as heartbeat:
                summary, error, traceback_text, trained, seconds = execute_cell(
                    scenario,
                    bank_cache=self.bank_cache,
                    dataset_path=market_snapshot_dir(self.cache.root, scenario.seed),
                    faults=self.faults,
                    fault_key=lease.name,
                )
            self._note_cell_duration(lease, scenario, seconds)
            if heartbeat.lost:
                # Overthrown: the whole process stalled past the TTL
                # (heartbeat thread included — e.g. a laptop suspend)
                # and the cell was re-leased.  The new owner persists;
                # we write nothing — not even the (identical) summary —
                # so the fleet observes a single effective execution.
                return
        if trained:
            obs.inc("repro_bank_trainings_total", trained)
        if not lease.renew():
            return  # overthrown between the last beat and now
        if error is None and not from_cache:
            try:
                faults_mod.perform(self.faults, "worker.cell.persist", lease.name)
                self.cache.store(scenario, summary)
            except OSError as exc:
                # A full disk (real or injected ENOSPC) at the store is
                # a failed attempt like any other: the retry budget
                # absorbs the transient case, quarantine catches the
                # persistent one.
                error = f"{type(exc).__name__}: {exc}"
                traceback_text = traceback_mod.format_exc()
        if error is not None:
            self.executed += 1
            self.failed += 1
            obs.inc("repro_worker_cells_total", status="failed")
            if lease.attempt < self.queue.max_attempts:
                self._retry(lease, error, traceback_text)
            else:
                self._quarantine(
                    lease, error, traceback_text, trained=trained, seconds=seconds
                )
            return
        self.executed += 1
        obs.inc(
            "repro_worker_cells_total", status="cached" if from_cache else "ok"
        )
        self._complete(
            lease,
            done_record(
                scenario.fingerprint(),
                self.worker_id,
                lease.attempt,
                bank_trainings=trained,
                from_cache=from_cache,
                seconds=seconds,
            ),
        )

    def _complete(self, lease: Lease, record: dict) -> None:
        try:
            lease.complete(record)
        except OSError:
            # The queue vanished mid-completion (the coordinator
            # assembled the result and retired it): nobody needs the
            # record.
            return
        if self.on_cell is not None:
            self.on_cell(lease, record)

    def _retry(self, lease: Lease, error: str, traceback_text) -> None:
        """Re-queue a failed attempt with deterministic backoff."""
        delay = backoff_delay(
            lease.attempt,
            base=self.queue.backoff_base,
            cap=self.queue.backoff_cap,
            key=lease.name,
        )
        try:
            lease.retry(error, traceback_text, delay)
        except OSError:
            return  # queue retired mid-retry; nothing left to requeue
        self.retried += 1
        obs.inc("repro_worker_retries_total")
        obs.observe("repro_worker_retry_wait_seconds", delay)
        if self.on_retry is not None:
            self.on_retry(lease, error, delay)

    def _quarantine(
        self,
        lease: Lease,
        error: str,
        traceback_text,
        *,
        trained: int,
        seconds: float = 0.0,
    ) -> None:
        """Budget exhausted: ledger the poison cell, then mark it done
        (``ok=False``) so the sweep terminates instead of re-leasing
        the cell forever.  Ledger-then-done ordering means any done
        record marked ``quarantined`` has its post-mortem on disk."""
        try:
            self.queue.record_failure(
                lease.name, lease.ledger_entry(error, traceback_text)
            )
        except OSError:
            pass  # a full disk must not keep the cell re-leasing forever
        obs.inc("repro_worker_cells_total", status="quarantined")
        self._complete(
            lease,
            done_record(
                lease.scenario.fingerprint(),
                self.worker_id,
                lease.attempt,
                bank_trainings=trained,
                seconds=seconds,
                error=error,
                traceback_text=traceback_text,
            ),
        )
