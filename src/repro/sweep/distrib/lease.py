"""Lease handles and heartbeat renewal for claimed queue tasks.

A lease is liveness, not a lock: holding ``leases/T`` only proves the
owner was alive within one TTL.  The holder renews by bumping the
file's mtime; everyone else judges the holder dead when the mtime goes
stale.  Renewal is also how a holder *discovers it was overthrown* — a
slow worker whose lease expired and was re-leased sees a foreign owner
stamp (or no file) on its next renewal and must stand down: it may
finish its simulation, but it no longer writes the cache entry or the
done record.  The new owner does, and since the cell is deterministic
either worker would have written the same bytes anyway.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.sweep.cache import read_record
from repro.sweep.distrib import faults as faults_mod
from repro.sweep.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sweep.distrib.queue import TaskQueue


class Lease:
    """One claimed task: its queue paths, owner, and renewal state."""

    def __init__(
        self, queue: "TaskQueue", name: str, owner: str, payload: dict
    ) -> None:
        self.queue = queue
        self.name = name
        self.owner = owner
        self.payload = payload

    @property
    def path(self):
        return self.queue.leases_dir / self.name

    @property
    def attempt(self) -> int:
        """1 for a first execution, >1 for a post-crash re-lease."""
        return int(self.payload.get("attempt", 1))

    @property
    def scenario(self) -> Scenario:
        return Scenario.from_dict(self.payload["scenario"])

    # ------------------------------------------------------------------
    def held(self) -> bool:
        """Whether the published lease file still carries our stamp."""
        stamp = read_record(self.path)
        return stamp is not None and stamp.get("owner") == self.owner

    def renew(self) -> bool:
        """Heartbeat: bump the lease mtime, if it is still ours.

        Returns ``False`` when the lease was re-leased out from under
        us (expired while we stalled) — the caller must not complete
        the task.
        """
        started = time.monotonic()
        if not self.held():
            obs.inc("repro_lease_overthrows_total")
            return False
        try:
            os.utime(self.path)
        except OSError:
            obs.inc("repro_lease_overthrows_total")
            return False
        obs.inc("repro_lease_renewals_total")
        obs.observe("repro_lease_renew_seconds", time.monotonic() - started)
        return True

    def release(self) -> None:
        """Hand the task back unfinished (e.g. a worker shutting down)."""
        try:
            os.rename(self.path, self.queue.tasks_dir / self.name)
        except OSError:
            pass  # already re-leased or completed by someone else

    def complete(self, record: dict) -> None:
        """Write the done record and drop the lease."""
        self.queue.mark_done(self.name, record)

    def _attempt_entry(self, error: str, traceback_text: Optional[str]) -> dict:
        """What this attempt did: one ``history`` entry of a retried
        task, and the final entry of a quarantined cell's ledger."""
        return {
            "attempt": self.attempt,
            "worker": self.owner,
            "error": error,
            "traceback": traceback_text,
            "time": time.time(),
        }

    def ledger_entry(self, error: str, traceback_text: Optional[str]) -> dict:
        """The quarantine record for a cell that exhausted its budget.

        The task file's ``history`` holds one entry per *retried*
        attempt; this final attempt is appended, so the ledger carries
        the complete attempt history even though earlier attempts may
        have run on other machines.
        """
        return {
            "name": self.name,
            "seq": self.payload.get("seq"),
            "fingerprint": self.scenario.fingerprint(),
            "scenario": self.payload["scenario"],
            "worker": self.owner,
            "attempt": self.attempt,
            "error": error,
            "traceback": traceback_text,
            "attempts": [
                *self.payload.get("history", []),
                self._attempt_entry(error, traceback_text),
            ],
        }

    def retry(
        self, error: str, traceback_text: Optional[str], delay: float
    ) -> None:
        """Hand the task back for another attempt, with backoff.

        The re-queued task file carries the whole retry state: the
        attempt counter (already incremented by the claim), a
        ``defer_for`` backoff deferring the next claim, and a
        ``history`` entry recording what this attempt did — so the
        eventual quarantine ledger names every worker that tried, even
        across machines.  Task-write-then-lease-unlink ordering makes a
        crash in between recoverable: :meth:`TaskQueue.reclaim_expired`
        sees task *and* lease, and drops the stale lease rather than
        renaming it over the retry state.

        ``defer_for`` is *relative*: claimers anchor it to the task
        file's own mtime — the mount's clock, the same domain lease
        expiry measures against — instead of trusting this host's wall
        clock.  An absolute ``time.time() + delay`` stamp read on
        another machine inherits the full cross-host skew: minutes fast
        and the retry parks far past its backoff, minutes slow and it
        releases instantly.
        """
        payload = dict(self.payload)
        payload.pop("owner", None)
        payload["history"] = [
            *payload.get("history", []),
            self._attempt_entry(error, traceback_text),
        ]
        payload["defer_for"] = max(0.0, delay)
        self.queue._write_atomic(self.queue.tasks_dir / self.name, payload)
        try:
            os.unlink(self.path)
        except OSError:
            pass  # reclaim clears the stale duplicate after one TTL


class Heartbeat:
    """Background renewal thread for the duration of one cell.

    Renews every ``interval`` seconds (TTL/4 by default — a re-lease
    needs four consecutive missed beats, so one slow renewal never
    costs the lease).  If a renewal fails the thread stops and
    :attr:`lost` is set; the worker checks it before persisting.
    """

    def __init__(self, lease: Lease, interval: float | None = None) -> None:
        self.lease = lease
        self.interval = (
            interval if interval is not None else lease.queue.lease_ttl / 4.0
        )
        self._stop = threading.Event()
        self._lost = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.name}", daemon=True
        )

    @property
    def lost(self) -> bool:
        return self._lost.is_set()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            # A "suppress" rule skips this one renewal — enough missed
            # beats and the lease goes stale while the worker is still
            # alive, rehearsing the overthrow path end to end.
            action = faults_mod.perform(
                self.lease.queue.faults, "lease.heartbeat", self.lease.name
            )
            if action == "suppress":
                continue
            if not self.lease.renew():
                self._lost.set()
                return

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=max(1.0, self.interval))
