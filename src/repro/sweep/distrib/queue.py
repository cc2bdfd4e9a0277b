"""Filesystem-backed task queue for distributed sweeps.

One directory *is* the broker: a shared mount (or an rsync'd copy) of
the sweep-cache root is the only "network" a worker fleet needs, which
is exactly the posture SpotTune takes toward its own transient fleet —
cheap, unreliable machines joining and vanishing at will.

Layout (``<cache-root>/queue/`` by default, next to ``banks/``)::

    queue/manifest.json      # schema, ordered task list, cache paths
    queue/tasks/<seq>-<fp>   # pending cells, one file each
    queue/leases/<seq>-<fp>  # claimed cells (owner + attempt)
    queue/done/<seq>-<fp>    # completion records (ok or error)

Every state transition is a single atomic ``os.rename`` on one
filesystem, so concurrent workers can never both win the same cell:

* **claim** — ``tasks/T`` → ``leases/T.claim-<owner>`` (private), the
  owner/attempt payload is stamped, then the private file is published
  as ``leases/T``.  The two-step dance matters: rename preserves mtime,
  so publishing only after the stamp guarantees a fresh lease is never
  mistaken for an expired one.
* **heartbeat** — the lease holder bumps ``leases/T``'s mtime (see
  :mod:`repro.sweep.distrib.lease`); a lease whose mtime is older than
  the TTL belongs to a dead (or wedged) worker.
* **re-lease** — anyone may rename an expired ``leases/T`` back to
  ``tasks/T``; again one rename, one winner.  Clock skew is tolerated
  in the safe direction: a lease stamped in the future reads as age
  zero, never as expired.
* **complete** — the worker writes ``done/T`` (write-temp-then-rename)
  and only then drops its lease, so a crash between the two leaves a
  stale lease that reclaim deletes once it sees the done record.

The queue never re-runs a *finished* cell, and a cell re-run after a
worker crash produces byte-identical cache entries anyway (the sweep
determinism contract), so execution is effectively exactly-once.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.sweep.cache import atomic_publish, read_record, sweep_stale_temps
from repro.sweep.distrib import faults as faults_mod
from repro.sweep.distrib.faults import FaultPlan
from repro.sweep.distrib.lease import Lease
from repro.sweep.distrib.retry import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_MAX_ATTEMPTS,
    FAILURES_SUBDIR,
)
from repro.sweep.scenario import SCHEMA_VERSION, Scenario

#: Bump when the queue layout or manifest shape changes; workers refuse
#: to attach to a queue from another schema rather than guess.
#: v2: failure policy in the manifest (max_attempts, backoff, fsync),
#: per-task retry state (backoff stamp, history), failures/ ledger.
QUEUE_SCHEMA_VERSION = 2

#: Default lease TTL: a worker that misses heartbeats for this long is
#: presumed dead and its cell is re-leased.  Heartbeats renew every
#: TTL/4, so four consecutive misses precede any re-lease.
DEFAULT_LEASE_TTL = 60.0

MANIFEST_NAME = "manifest.json"
#: Where an unpublished manifest waits (``publish=False`` creations):
#: invisible to :meth:`TaskQueue.attach`, but enough for a re-created
#: coordinator to recognise the directory as its own sweep.
STAGED_MANIFEST_NAME = "manifest.staged"
_CLAIM_MARKER = ".claim-"


def task_name(seq: int, scenario: Scenario) -> str:
    """Queue-wide task id: zero-padded rank + cell fingerprint.

    The rank prefix makes lexicographic directory order the dispatch
    order, so workers claiming "smallest name first" follow the order
    the coordinator enqueued: each ``(seed, scale)`` bucket in one
    contiguous run of ranks, which is ``task_order`` with one lane.
    """
    return f"{seq:06d}-{scenario.fingerprint()}"


def done_record(
    fingerprint: str,
    worker: str,
    attempt: int,
    *,
    bank_trainings: int = 0,
    from_cache: bool = False,
    seconds: float = 0.0,
    error: Optional[str] = None,
    traceback_text: Optional[str] = None,
) -> dict:
    """The ``done/`` record of a settled cell, whoever settles it.

    A worker writes one per executed (or re-leased, ``from_cache``)
    cell, and a resuming coordinator one per cell it completes from the
    cache.  ``error`` marks a quarantined cell, the only way a cell
    settles as failed: its traceback rides along, and the rest of the
    post-mortem is in its ``failures/`` ledger entry.
    """
    record = {
        "ok": error is None,
        "error": error,
        "fingerprint": fingerprint,
        "worker": worker,
        "attempt": attempt,
        "bank_trainings": bank_trainings,
        "from_cache": from_cache,
        "seconds": round(seconds, 6),
    }
    if error is not None:
        record.update(quarantined=True, traceback=traceback_text)
    return record


class QueueError(RuntimeError):
    """The queue directory is missing, foreign, or incompatible."""


class TaskQueue:
    """One sweep's broker directory; every handle is equally privileged.

    There is no broker *process* — coordinator and workers all operate
    on the directory through this class, and any of them may reclaim an
    expired lease.  Construct with :meth:`create` (coordinator, writes
    the manifest) or :meth:`attach` (worker, waits for it).
    """

    def __init__(
        self,
        root: str | Path,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        fsync: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive: {lease_ttl}")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        #: Durability: published files (tasks, done records, manifest)
        #: are fsync'd — file and parent directory — before they count
        #: as written, so a host crash can never surface a
        #: published-but-empty record.  Opt out for throwaway queues.
        self.fsync = fsync
        #: Fault-injection plan (``None`` in production): write and
        #: claim paths fire their sites through it.
        self.faults = faults
        #: Fleet-wide failure policy; :meth:`attach`/:meth:`create`
        #: overwrite these from the manifest so every handle agrees.
        self.max_attempts = DEFAULT_MAX_ATTEMPTS
        self.backoff_base = DEFAULT_BACKOFF_BASE
        self.backoff_cap = DEFAULT_BACKOFF_CAP
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        #: Poison-cell ledger: one crash-safe JSON entry per task that
        #: exhausted its retry budget (error, traceback, worker ids,
        #: attempt history).  Survives a failed sweep for post-mortem.
        self.failures_dir = self.root / FAILURES_SUBDIR
        #: Where unparseable task files land for post-mortem (see
        #: :meth:`_claim_one`); the coordinator rewrites the task.
        self.quarantine_dir = self.root / "quarantine"
        self._manifest: Optional[dict] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str | Path,
        ordered: Sequence[Scenario],
        *,
        cache_path: str = "..",
        banks_path: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        publish: bool = True,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        fsync: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> "TaskQueue":
        """Enqueue ``ordered`` cells (already in dispatch order).

        ``cache_path``/``banks_path`` are recorded relative to the
        queue root when possible, so the whole cache directory can move
        between machines (shared mount, rsync) and still resolve.

        ``publish=False`` holds the manifest back; workers wait for it
        on attach, so the creator can finish adjusting queue state
        (e.g. the resume reconcile) before any worker claims, then call
        :meth:`publish_manifest`.

        Re-creating over an existing queue is allowed only when the
        task set is identical — that is a coordinator restart, and the
        surviving tasks/leases/done records simply carry on.  Anything
        else is a refusal, not a silent overwrite.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {max_attempts}")
        queue = cls(root, lease_ttl=lease_ttl, fsync=fsync, faults=faults)
        queue.max_attempts = int(max_attempts)
        queue.backoff_base = float(backoff_base)
        queue.backoff_cap = float(backoff_cap)
        names = [task_name(seq, s) for seq, s in enumerate(ordered)]
        manifest = {
            "schema": QUEUE_SCHEMA_VERSION,
            "cell_schema": SCHEMA_VERSION,
            "tasks": names,
            "cache": cache_path,
            "banks": banks_path,
            "lease_ttl": queue.lease_ttl,
            "max_attempts": queue.max_attempts,
            "backoff_base": queue.backoff_base,
            "backoff_cap": queue.backoff_cap,
            "fsync": queue.fsync,
        }
        published = queue.load_manifest()
        staged = queue._load_staged() if published is None else None
        existing = published if published is not None else staged
        if existing is not None:
            if existing.get("tasks") != names:
                raise QueueError(
                    f"queue at {queue.root} already holds a different sweep; "
                    "point --queue elsewhere or remove it"
                )
            # A coordinator restart: the surviving tasks/leases/done
            # records carry on.  A published manifest is adopted as-is
            # — lease TTL included, or this handle would reclaim on a
            # timescale the attached workers' heartbeats don't match.
            if published is not None:
                # The cache locations must match too, or this
                # coordinator would assemble from one cache while the
                # manifest sends every worker's summaries to another.
                for key, supplied in (("cache", cache_path), ("banks", banks_path)):
                    if published.get(key) != supplied:
                        raise QueueError(
                            f"queue at {queue.root} records {key}="
                            f"{published.get(key)!r} but this run supplies "
                            f"{supplied!r}; rerun with the matching "
                            "--cache-dir/--bank-cache or point --queue "
                            "elsewhere"
                        )
                queue._manifest = published
                queue._adopt_policy(published)
            else:
                # Never published (the creator died between staging
                # and publishing — possibly mid-enqueue, since the
                # staged manifest lands first): re-stage under this
                # run's parameters and fill in any task file that
                # never got written.  No worker can have claimed
                # anything (attach blocks on the published manifest),
                # but a prior publish=False creator may have leased
                # cells through its own handle, so existing state is
                # still respected.
                queue._manifest = manifest
                queue._write_atomic(queue.root / STAGED_MANIFEST_NAME, manifest)
                queue._enqueue_missing(ordered, names)
            queue.sweep_stale()
            if publish:
                queue.publish_manifest()
            return queue
        if queue.root.exists() and any(
            # Fault-injection scaffolding is bound before create (its
            # hit counters must cover the enqueue writes) and does not
            # make the directory someone else's sweep; likewise a
            # leftover metrics/ dir from a previous fleet is telemetry,
            # not sweep identity.
            entry.name not in ("fault-state", "fault-plan.json", "metrics")
            for entry in queue.root.iterdir()
        ):
            raise QueueError(
                f"queue directory {queue.root} is non-empty but has no manifest"
            )
        # The staged manifest lands first: it is invisible to attach
        # (workers wait for the published name), but it marks the
        # directory as this sweep's, so a creator killed mid-enqueue
        # is recoverable instead of leaving a refused orphan dir.
        queue.root.mkdir(parents=True, exist_ok=True)
        queue._manifest = manifest
        queue._write_atomic(queue.root / STAGED_MANIFEST_NAME, manifest)
        for directory in (queue.tasks_dir, queue.leases_dir, queue.done_dir):
            directory.mkdir(parents=True, exist_ok=True)
        queue._enqueue_missing(ordered, names)
        if publish:
            queue.publish_manifest()
        return queue

    def _enqueue_missing(self, ordered: Sequence[Scenario], names: list[str]) -> None:
        """Write a task file for every cell with no queue state yet."""
        for directory in (self.tasks_dir, self.leases_dir, self.done_dir):
            directory.mkdir(parents=True, exist_ok=True)
        for seq, scenario in enumerate(ordered):
            name = names[seq]
            if (
                (self.tasks_dir / name).exists()
                or (self.leases_dir / name).exists()
                or (self.done_dir / name).exists()
            ):
                continue
            self._write_task(name, seq, scenario)
            obs.inc("repro_queue_enqueued_total")

    def _write_task(self, name: str, seq: int, scenario: Scenario) -> None:
        """Publish a fresh task file for one cell (a retry rewrites the
        claimed payload instead, keeping its attempt history)."""
        self._write_atomic(
            self.tasks_dir / name,
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "seq": seq,
                "scenario": scenario.to_dict(),
                "attempt": 0,
            },
        )

    def publish_manifest(self) -> None:
        """Make the queue joinable (attach blocks on the manifest).
        A no-op when the manifest is already published."""
        if (self.root / MANIFEST_NAME).exists():
            self._unlink_quiet(self.root / STAGED_MANIFEST_NAME)
            return
        try:
            os.replace(self.root / STAGED_MANIFEST_NAME, self.root / MANIFEST_NAME)
        except OSError:
            self._write_atomic(self.root / MANIFEST_NAME, self.manifest)

    def _load_staged(self) -> Optional[dict]:
        return read_record(self.root / STAGED_MANIFEST_NAME)

    def _adopt_policy(self, manifest: dict) -> None:
        """Take the fleet-wide knobs from a manifest: every handle —
        creator, restarted coordinator, worker — must reclaim, retry,
        and back off on the same timescale or the fleet fights itself."""
        self.lease_ttl = float(manifest.get("lease_ttl", self.lease_ttl))
        self.max_attempts = int(manifest.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
        self.backoff_base = float(manifest.get("backoff_base", DEFAULT_BACKOFF_BASE))
        self.backoff_cap = float(manifest.get("backoff_cap", DEFAULT_BACKOFF_CAP))
        self.fsync = bool(manifest.get("fsync", True))

    @classmethod
    def attach(
        cls, root: str | Path, wait_seconds: float = 0.0, poll: float = 0.2
    ) -> "TaskQueue":
        """Join an existing queue, optionally waiting for its manifest
        to appear (workers routinely start before the coordinator)."""
        queue = cls(root)
        deadline = time.monotonic() + wait_seconds
        while True:
            manifest = queue.load_manifest()
            if manifest is not None:
                break
            if time.monotonic() >= deadline:
                raise QueueError(f"no sweep manifest at {queue.root / MANIFEST_NAME}")
            time.sleep(poll)
        if manifest.get("schema") != QUEUE_SCHEMA_VERSION:
            raise QueueError(
                f"queue schema {manifest.get('schema')!r} != {QUEUE_SCHEMA_VERSION}"
            )
        if manifest.get("cell_schema") != SCHEMA_VERSION:
            raise QueueError(
                f"queue cells were enqueued under scenario schema "
                f"{manifest.get('cell_schema')!r}, this worker runs {SCHEMA_VERSION}"
            )
        queue._adopt_policy(manifest)
        queue._manifest = manifest
        return queue

    def load_manifest(self) -> Optional[dict]:
        return read_record(self.root / MANIFEST_NAME)

    def retired(self) -> bool:
        """Whether the published manifest is *definitively* gone (the
        coordinator assembled the result and removed the queue).
        Transient read errors (NFS ESTALE/EIO) do not count — only a
        confirmed absence should make an idle worker give up."""
        try:
            os.stat(self.root / MANIFEST_NAME)
        except FileNotFoundError:
            return True
        except OSError:
            return False
        return False

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            manifest = self.load_manifest()
            if manifest is None:
                raise QueueError(f"no sweep manifest at {self.root / MANIFEST_NAME}")
            self._manifest = manifest
        return self._manifest

    @property
    def total(self) -> int:
        return len(self.manifest["tasks"])

    def resolve(self, recorded: Optional[str]) -> Optional[Path]:
        """A manifest path entry, resolved against the queue root."""
        if recorded is None:
            return None
        path = Path(recorded)
        return path if path.is_absolute() else (self.root / path).resolve()

    # ------------------------------------------------------------------
    # State scans
    # ------------------------------------------------------------------
    def _names_in(self, directory: Path) -> list[str]:
        try:
            entries = os.listdir(directory)
        except FileNotFoundError:
            return []
        return sorted(
            name
            for name in entries
            if _CLAIM_MARKER not in name and ".tmp" not in name
        )

    def pending_names(self) -> list[str]:
        return self._names_in(self.tasks_dir)

    def lease_names(self) -> list[str]:
        return self._names_in(self.leases_dir)

    def inflight_names(self) -> list[str]:
        """Published leases *plus* the original names of claim-temps:
        a cell between the claim rename and the lease publish is
        invisible to :meth:`pending_names`/:meth:`lease_names`, but
        liveness scans (the coordinator's self-heal) must still see
        it, or they would re-enqueue a cell a worker is claiming."""
        try:
            entries = os.listdir(self.leases_dir)
        except FileNotFoundError:
            return []
        names = set()
        for name in entries:
            if ".tmp" in name:
                continue
            names.add(name.split(_CLAIM_MARKER, 1)[0])
        return sorted(names)

    def done_names(self) -> list[str]:
        return self._names_in(self.done_dir)

    def depth(self) -> int:
        """Unclaimed tasks still waiting for a worker."""
        return len(self.pending_names())

    def is_complete(self) -> bool:
        return len(self.done_names()) >= self.total

    def census(self) -> dict:
        """Cells per state, plus the attempts the quarantine ledger
        records: the one scan behind job status, the cancel ledger and
        ``repro top``.  It needs no manifest and writes nothing, and a
        missing queue directory counts as empty."""
        quarantined = self.failure_names()
        return {
            "pending": len(self.pending_names()),
            "inflight": len(self.inflight_names()),
            "done": len(self.done_names()),
            "quarantined": len(quarantined),
            "ledger_attempts": sum(
                len((self.failure_entry(name) or {}).get("attempts", []))
                for name in quarantined
            ),
        }

    # ------------------------------------------------------------------
    # Claim / re-lease
    # ------------------------------------------------------------------
    def claim(self, owner: str) -> Optional[Lease]:
        """Claim the lowest-ranked *eligible* pending task, or ``None``.

        A task re-queued by a failed attempt carries a ``defer_for``
        backoff stamp; until it passes, the task is deferred — visible
        in :meth:`pending_names` but not claimable, so a poison cell
        backs off instead of hammering the fleet.  Losing a rename race
        to a sibling worker just moves on to the next candidate;
        ``None`` means nothing is claimable right now (leased cells may
        yet return via :meth:`reclaim_expired`, deferred ones when
        their backoff passes).
        """
        now = time.time()
        for name in self.pending_names():
            if self._deferred(name, now):
                continue
            lease = self._claim_one(name, owner)
            if lease is not None:
                obs.inc("repro_queue_claims_total")
                return lease
            # The candidate was eligible but the rename went to a
            # sibling (or the task vanished): claim contention.
            obs.inc("repro_queue_claim_races_total")
        return None

    def _deferred(self, name: str, now: float) -> bool:
        """Whether ``name`` is still inside its retry backoff window.

        The relative ``defer_for`` stamp is anchored to the task file's
        own mtime — stamped by the mount when the retry was re-queued,
        the same clock domain :meth:`_age_of` measures lease expiry in
        — so the re-queueing host's wall clock never enters the
        comparison.  The anchor clamps to ``now``: a future mtime (a
        skewed mount clock) starts the window *here* rather than
        extending it, so skew in either direction can only shorten the
        wait, never park the retry past its backoff.

        Advisory (the file may be claimed or rewritten mid-read):
        a read failure counts as claimable, and the worst a stale read
        costs is one slightly-early retry — the attempt *budget* is
        enforced by the claim counter, never by this timing.
        """
        task = self.tasks_dir / name
        try:
            payload = json.loads(task.read_text())
            anchor = min(os.stat(task).st_mtime, now)
            return anchor + float(payload.get("defer_for", 0.0)) > now
        except (OSError, ValueError, TypeError, AttributeError):
            return False

    def _claim_one(self, name: str, owner: str) -> Optional[Lease]:
        private = self.leases_dir / f"{name}{_CLAIM_MARKER}{owner}"
        task = self.tasks_dir / name
        try:
            # Stamp liveness *before* the rename: rename preserves
            # mtime, and a task file enqueued more than a TTL ago would
            # otherwise surface as an already-expired claim-temp to a
            # concurrent reclaim scan, which would yank it back out
            # from under us mid-claim.
            os.utime(task)
            os.rename(task, private)
        except OSError:
            return None  # a sibling won the rename, or the task is gone
        try:
            payload = json.loads(private.read_text())
            payload["owner"] = owner
            payload["attempt"] = int(payload.get("attempt", 0)) + 1
            # The claim-temp is private (nobody else resolves this
            # name) and a lease is soft liveness state: lose it to a
            # crash and the task simply re-leases after one TTL.  The
            # atomic tmp+rename dance would also reset the mtime the
            # expiry scan measures from.
            # repro-lint: ignore[durable-publish] pre-publish private stamp on re-derivable lease state
            private.write_text(json.dumps(payload, sort_keys=True))
            # A kill injected here rehearses the worker dying between
            # the claim rename and the publish — the claim-temp window
            # that reclaim_expired must requeue.
            faults_mod.perform(self.faults, "queue.claim.publish", name)
            # Publish: the lease file now exists with a fresh mtime and
            # a stamped owner, so expiry scans measure from *this*
            # moment, not from enqueue time.
            os.replace(private, self.leases_dir / name)
        except OSError:
            # The claim-temp was yanked by a reclaim scan (a wildly
            # skewed clock) or the filesystem failed us: hand the task
            # back if we still can and treat the claim as lost.
            try:
                os.replace(private, task)
            except OSError:
                pass
            return None
        except (ValueError, TypeError, AttributeError):
            # Corrupt/truncated task payload (a partial copy on an
            # rsync'd queue, disk damage — JSONDecodeError is a
            # ValueError; a non-dict payload raises Type/Attribute
            # errors).  Restoring it would livelock the fleet on the
            # same bad file forever; quarantine it instead, for
            # post-mortem, and let the coordinator's tail rewrite the
            # task from the manifest scenario (it knows the cell).
            try:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(private, self.quarantine_dir / f"{name}.{os.getpid()}")
            except OSError:
                pass
            return None
        except BaseException:
            # Put the task back rather than strand it in claim limbo.
            try:
                os.replace(private, task)
            except OSError:
                pass
            raise
        return Lease(self, name, owner, payload)

    def reclaim_expired(self, now: Optional[float] = None) -> list[str]:
        """Requeue every lease whose holder stopped heartbeating.

        Also clears stale claim-temp files (a worker killed mid-claim)
        and leases whose done record already exists (a worker killed
        between completing and dropping its lease).  Any handle may
        call this — workers do when idle, the coordinator does every
        poll — so progress never depends on one particular survivor.
        """
        now = time.time() if now is None else now
        requeued: list[str] = []
        try:
            entries = list(os.scandir(self.leases_dir))
        except FileNotFoundError:
            return requeued
        for entry in entries:
            name = entry.name
            if _CLAIM_MARKER in name:
                original = name.split(_CLAIM_MARKER, 1)[0]
                if self._age_of(entry, now) > self.lease_ttl:
                    self._rename_quiet(entry.path, self.tasks_dir / original)
                continue
            if (self.done_dir / name).exists():
                self._unlink_quiet(entry.path)
                continue
            if (self.tasks_dir / name).exists():
                # A worker crashed between a retry's task re-write and
                # its lease unlink: the task (with its backoff stamp
                # and attempt history) is the truth, the lease is a
                # stale duplicate — renaming it over the task would
                # erase the retry state.
                if self._age_of(entry, now) > self.lease_ttl:
                    self._unlink_quiet(entry.path)
                continue
            if self._age_of(entry, now) > self.lease_ttl:
                if self._rename_quiet(entry.path, self.tasks_dir / name):
                    requeued.append(name)
        if requeued:
            obs.inc("repro_queue_reclaims_total", len(requeued))
        return requeued

    @staticmethod
    def _age_of(entry, now: float) -> float:
        """Lease age in seconds; future mtimes (a skewed writer clock)
        clamp to zero so skew can only ever *delay* a re-lease."""
        try:
            return max(0.0, now - entry.stat().st_mtime)
        except OSError:
            return 0.0  # vanished mid-scan — somebody else acted on it

    @staticmethod
    def _rename_quiet(src, dst) -> bool:
        try:
            os.rename(src, dst)
            return True
        except OSError:
            return False

    @staticmethod
    def _unlink_quiet(path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_done(self, name: str, record: dict) -> None:
        """Persist a completion record, then drop the lease.

        Done-then-unlease ordering is what makes a crash in between
        recoverable: the stale lease is garbage (cleared by the next
        reclaim scan), never a reason to re-run the cell.
        """
        faults_mod.perform(self.faults, "queue.done.write", name)
        self._write_atomic(self.done_dir / name, record)
        self._unlink_quiet(self.leases_dir / name)
        obs.inc("repro_queue_done_total")

    def record_failure(self, name: str, entry: dict) -> None:
        """Ledger a poison cell (crash-safe, atomic, fsync'd)."""
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.failures_dir / name, entry)
        obs.inc("repro_queue_quarantined_total")

    def failure_entry(self, name: str) -> Optional[dict]:
        return read_record(self.failures_dir / name)

    def failure_names(self) -> list[str]:
        return self._names_in(self.failures_dir)

    def done_record(self, name: str) -> Optional[dict]:
        return read_record(self.done_dir / name)

    def reset_pending_attempts(self) -> None:
        """Zero the attempt counter on every pending task.

        A no-resume coordinator runs this after its reconcile pass:
        a task re-queued from a *previous* run's expired lease carries
        that run's attempt count, and claiming it at attempt > 1 would
        trigger the within-run crash-recovery shortcut (reuse the
        cached summary) on a run whose contract is to re-execute.
        """
        for name in self.pending_names():
            path = self.tasks_dir / name
            try:
                payload = json.loads(path.read_text())
                if payload.get("attempt"):
                    payload["attempt"] = 0
                    self._write_atomic(path, payload)
            except (OSError, ValueError, TypeError, AttributeError):
                continue  # claimed mid-scan, or corrupt (quarantined later)

    def complete_cached(self, name: str, record: dict) -> None:
        """Complete a task without executing it — its summary is
        already in the result cache (a resuming coordinator's
        reconcile).  Clears whatever queue state the task was left in:
        pending, a stale lease from a crashed fleet, or a quarantine
        verdict the cached summary has since overruled."""
        self._write_atomic(self.done_dir / name, record)
        self._unlink_quiet(self.tasks_dir / name)
        self._unlink_quiet(self.leases_dir / name)
        self._unlink_quiet(self.failures_dir / name)

    def ensure_pending(self, name: str, scenario: Scenario, seq: int) -> None:
        """Put a task back in play when its outcome is *not* usable
        (summary missing from the cache, or the cell failed).

        A resuming/retrying coordinator calls this: a stale done record
        (the cache entry was deleted, a schema bump invalidated it, or
        the previous attempt errored) is dropped and the task file
        restored, so the cache — not the queue's history — is the
        source of truth.  A cell with a live pending task or lease (a
        claim still between its rename and its publish included) is
        left *entirely* untouched, done record included: the lease
        holder may be completing it right now, and deleting a done
        record out from under its ``mark_done`` would strand the cell
        with no task, no lease, and no record — an unfinishable sweep.
        """
        if (self.tasks_dir / name).exists() or name in self.inflight_names():
            return
        self._unlink_quiet(self.done_dir / name)
        # Back in play means the quarantine verdict no longer stands:
        # drop the ledger entry so the failure report reflects *this*
        # run, not a predecessor the operator already acted on.
        self._unlink_quiet(self.failures_dir / name)
        self._write_task(name, seq, scenario)

    # ------------------------------------------------------------------
    # Hygiene
    # ------------------------------------------------------------------
    def sweep_stale(self) -> None:
        """GC orphaned write-temps (killed writers) past the lease TTL,
        aged by the mount's clock.

        Claim-temps are *not* swept here — they are requeued with their
        task identity intact by :meth:`reclaim_expired`.
        """
        max_age = max(self.lease_ttl, DEFAULT_LEASE_TTL)
        # Globs relative to the root keep the clock probe there: in
        # tasks/ or done/ a scan could read it as a cell.
        for pattern in (
            "*.tmp*",
            "tasks/*.tmp*",
            "done/*.tmp*",
            "failures/*.tmp*",
            "metrics/*.tmp*",
        ):
            sweep_stale_temps(self.root, pattern, max_age)

    def _write_atomic(self, path: Path, payload: dict) -> None:
        """Serialise ``payload`` and publish it at ``path`` through
        :func:`~repro.sweep.cache.atomic_publish`: durable unless
        ``self.fsync`` is off (throwaway queues: tests, tmpfs)."""
        text = json.dumps(payload, sort_keys=True)
        if path.parent == self.tasks_dir:
            site_action = faults_mod.perform(self.faults, "queue.task.write", path.name)
            if site_action == "corrupt":
                text = faults_mod.corrupt_bytes(text)
        atomic_publish(path, text, fsync=self.fsync)
